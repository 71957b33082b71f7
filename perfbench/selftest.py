"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, and exits non-zero if one fails:

1. tracer coverage: installing the tracer leaves no torusfan module or
   class binding an original traced function (the aliases and re-exports
   included), every traced function still exists, and removing the tracer
   restores every binding;
2. BENCHMARK.json names the workloads and metrics the runner reports;
3. per workload: two set-ups of one seed give the same input digest and
   another seed a different one; a short traced run gives the same outputs
   traced and untraced, records calls in every layer the workload is
   predicted to use and none in the layers it is predicted to bypass; and
   short untraced runs on two seeds give metrics within a factor of two of
   each other.
"""

import json
import shutil
import sys

import run

SECONDS = 6.0  # measuring time of each short run
ALIASES = (  # bindings made by `from ... import` or assignment, not definition
    ("torusfan.realize", "find_characteristic_map"),
    ("torusfan.realize", "gorenstein_star"),
    ("torusfan.realize", "connected_sum"),
    ("torusfan.cohomology", "chain_monomial_basis"),
    ("torusfan.charfun", "restrict_to_hyperplane"),
    ("torusfan.homology", "smith_normal_form"),
    ("torusfan.homology", "barycentric_subdivision"),
    ("torusfan", "betti_numbers"),
    ("torusfan", "reduced_homology"),
)


def check_coverage(tr):
    problems = []
    tracer = tr.Tracer()
    originals = {}
    for layer in tr.LAYERS:
        for module_name, qualname in layer.targets:
            originals[(module_name, qualname)] = tr._resolve(module_name, qualname)
    before = {(module_name, name): getattr(sys.modules[module_name], name)
              for module_name, name in ALIASES}
    tracer.install()
    try:
        if tracer.missing:
            problems.append(f"traced functions not found: {tracer.missing}")
        for target, func in originals.items():
            left = tr.bindings(func)
            if left:
                problems.append(f"{target} still bound unwrapped at {left}")
        for (module_name, name), func in before.items():
            if getattr(sys.modules[module_name], name) is func:
                problems.append(f"alias {module_name}.{name} not wrapped")
    finally:
        tracer.remove()
    for (module_name, name), func in before.items():
        if getattr(sys.modules[module_name], name) is not func:
            problems.append(f"alias {module_name}.{name} not restored")
    for target, func in originals.items():
        if tr._resolve(*target) is not func:
            problems.append(f"{target} not restored")
    return problems


def check_benchmark_json(tr, workloads):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if per_layer != list(tr.PER_LAYER):
        problems.append("BENCHMARK.json per_layer metrics differ from tracer.PER_LAYER")
    return problems, spec


def check_workload(workload, seconds, spec):
    problems = []
    name = workload.name
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    first = workload.setup(1, workdir)
    again = workload.setup(1, workdir)
    other = workload.setup(2, workdir)
    if first.digest != again.digest:
        problems.append(f"{name}: seed 1 gave digests {first.digest} and {again.digest}")
    if first.digest == other.digest:
        problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
    _, notes, failures, _, misses = run.traced(workload, first, seconds)
    problems += [f"{name}: {f}" for f in failures]
    problems += [f"{name}: layer prediction missed: {m}" for m in misses]

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    values = []
    for plan in (again, other):
        gauge = run.Gauge()
        cycles, _, failures = run.run_jobs(plan, seconds, gauge)
        problems += [f"{name}: {f}" for f in failures]
        metrics, _ = run.end_to_end(workload, cycles, [0.0], gauge)
        if {k: m["unit"] for k, m in metrics.items()} != e2e:
            problems.append(f"{name}: end-to-end metrics differ from BENCHMARK.json")
        values.append(metrics)
    for metric in ("jobs_per_s", "job_ms_p50", "job_ms_tail"):
        a, b = values[0][metric]["value"], values[1][metric]["value"]
        print(f"  {name:13s} {metric:12s} seed 1 {a:10.4g}   seed 2 {b:10.4g}")
        if not 0.5 <= a / b <= 2:
            problems.append(f"{name}: {metric} {a:.4g} on seed 1 but {b:.4g} on seed 2")
    return problems


def main():
    run._load_library()
    import tracer as tr
    from workloads import WORKLOADS

    problems = check_coverage(tr)
    more, spec = check_benchmark_json(tr, WORKLOADS)
    problems += more
    try:
        for workload in WORKLOADS.values():
            problems += check_workload(workload, SECONDS, spec)
    finally:
        shutil.rmtree(run.ROOT / ".perfbench_work", ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
