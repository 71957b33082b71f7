"""torusfan benchmark: one workload, one closed-loop caller, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload realize --seed 1 --seconds 25 --trace 0

The library is imported from the checkout's ``src/``.  Set-up (input
generation from the seed, then warm-up) runs first; the jobs then run one
after another, in whole cycles (every job of the workload once, in a seeded
order), until their summed wall time reaches ``--seconds``; each output is
checked after its timer stops.  Set-up is repeated between cycles, spread
over the run in step with the job time, and the median is reported.

The host's speed swings by up to a factor of two over seconds, so the
reported times are scaled to a fixed machine speed: a fixed calibration
loop (``calibration_unit``) is timed next to each job and set-up, and each
time is multiplied by ``CAL_REF_S`` over the calibration time measured
around it (see ``Gauge``).  The raw figures are printed as notes.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs each cycle twice, untraced and then traced (see
tracer.py), for about a third of the time untraced, and reports the
per-layer metrics, the tracing overhead, and whether both passes gave
identical outputs.  Human-readable lines come first; the last line of standard
output is the JSON result.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SETUP_PROBES = 10  # calibration units timed before and after each set-up
TRACE_SHARE = 1 / 3  # share of --seconds given to untraced cycles in a traced run
CAL_LOOPS = 1000
CAL_REF_S = 0.0004  # calibration-unit time that defines the reference speed
CAL_WINDOW_S = 0.5  # a job's speed: calibration units this close to its start


def _load_library():
    if not (SRC / "torusfan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no torusfan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torusfan
    if Path(torusfan.__file__).resolve().parent != SRC / "torusfan":
        sys.exit(f"perfbench: imported torusfan from {torusfan.__file__}, not {SRC}")


def calibration_unit():
    """A fixed piece of pure-Python work (integer arithmetic, tuples and a
    dict), timed to gauge how fast the host runs the interpreter now."""
    counts = {}
    x = 1
    for i in range(CAL_LOOPS):
        x = (x * 48271 + i) % 2147483647
        key = (i % 23, x % 5)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class Gauge:
    """Machine speed over a run, from calibration units timed at known
    moments.  ``scale(t)`` is CAL_REF_S over the median unit time within
    CAL_WINDOW_S of t: a job time multiplied by it is the time at the
    reference speed.  The unit is benchmark code, so a change to torusfan
    moves the job times but not the scale."""

    def __init__(self):
        self.starts, self.units = [], []

    def probe(self, repeats=1):
        """Time ``repeats`` calibration units; return their times."""
        units = []
        for _ in range(repeats):
            t0 = perf_counter()
            calibration_unit()
            units.append(perf_counter() - t0)
            self.starts.append(t0)
        self.units += units
        return units

    def scale(self, when):
        lo = bisect_left(self.starts, when - CAL_WINDOW_S)
        hi = bisect_right(self.starts, when + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.units[lo:hi])


def run_jobs(plan, seconds, gauge, between=lambda done: None):
    """Run whole cycles of jobs until their summed time reaches ``seconds``,
    so every run measures the same job mix; after each cycle call
    ``between`` with the share of ``seconds`` done.  Returns ((start,
    latency) pairs per cycle, fingerprints, failures)."""
    cycles, prints, failures = [], [], []
    spent = 0.0
    while spent < seconds:
        cycles.append(run_cycle(plan.cycle(len(cycles)), None, gauge, prints, failures))
        spent += job_time(cycles[-1])
        between(min(1.0, spent / seconds))
    return cycles, prints, failures


def job_time(cycle):
    return sum(dt for _, dt in cycle)


def run_cycle(jobs, tracer, gauge, prints, failures):
    """Run the jobs of one cycle, each after a calibration unit when
    ``gauge`` is given; return their (start, latency) pairs."""
    times = []
    for job in jobs:
        if gauge:
            gauge.probe()
        _run_job(job, tracer, times, prints, failures)
    return times


def _run_job(job, tracer, times, prints, failures):
    """Time one job, then check it; ``prints`` gets (key, fingerprint),
    with fingerprint None when the job failed."""
    problem = None
    t0 = perf_counter()
    try:
        out = tracer.job(job.run) if tracer else job.run()
    except Exception:
        out = None
        problem = traceback.format_exc(limit=-3)
    times.append((t0, perf_counter() - t0))
    fingerprint = None
    if problem is None:
        try:
            problem = job.check(out)
            fingerprint = job.fingerprint(out)
        except Exception:
            problem = traceback.format_exc(limit=-3)
    if problem is not None:
        fingerprint = None
        failures.append(f"{job.key}: {problem}")
    prints.append((job.key, fingerprint))


def percentile(values, pct):
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def end_to_end(workload, cycles, setups, gauge):
    """The end-to-end metrics, from job times scaled to the reference
    speed; ``setups`` are scaled set-up times."""
    raw = [dt for cycle in cycles for _, dt in cycle]
    latencies = [dt * gauge.scale(t0) for cycle in cycles for t0, dt in cycle]
    tail = percentile(latencies, workload.tail_pct)
    above = sum(1 for x in latencies if x > tail)
    notes = [f"{len(cycles)} cycles of {len(cycles[0])} jobs",
             f"tail: p{workload.tail_pct} of {len(latencies)} jobs, "
             f"{above} jobs above it" + ("" if above >= 10 else " (fewer than 10)"),
             f"unscaled: jobs_per_s {len(raw) / sum(raw):.4g}, job_ms_p50 "
             f"{statistics.median(raw) * 1000:.4g}, calibration unit median "
             f"{statistics.median(gauge.units) * 1000:.4g} ms "
             f"(reference {CAL_REF_S * 1000:.4g} ms)"]
    metrics = {
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "job_ms_tail": (tail * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def traced(workload, plan, seconds):
    """Each cycle runs untraced and then traced, until the untraced cycles
    reach TRACE_SHARE of ``seconds``; alternating keeps a drift in machine
    speed out of the overhead ratio."""
    import tracer as tr

    tracer = tr.Tracer()
    lat0, prints0, lat1, prints1, failures = [], [], [], [], []
    untraced_s = traced_s = 0.0
    while untraced_s < seconds * TRACE_SHARE:
        c = len(lat0)
        lat0.append(run_cycle(plan.cycle(c), None, None, prints0, failures))
        jobs = plan.cycle(c)  # made before the tracer goes in: not job work
        tracer.install()
        try:
            lat1.append(run_cycle(jobs, tracer, None, prints1, failures))
        finally:
            tracer.remove()
        untraced_s += job_time(lat0[-1])
        traced_s += job_time(lat1[-1])
    # a job that failed in either pass is counted already
    mismatched = [key for (key, a), (_, b) in zip(prints0, prints1)
                  if a is not None and b is not None and a != b]
    failures += [f"{key}: output differs traced and untraced" for key in mismatched]
    jobs = len(prints1)
    metrics = tr.layer_metrics(tracer, jobs, untraced_s, traced_s)
    notes = [f"traced pass: {jobs} jobs in {len(lat1)} cycles, job time "
             f"{untraced_s:.3f} s untraced and {traced_s:.3f} s traced, "
             f"outputs differing from the untraced pass: {len(mismatched)}"]
    notes += [f"  {name:26s} calls {r.calls:9d}  total {r.total:9.4f} s  "
              f"self {r.self_time:9.4f} s"
              for name, r in sorted(tracer.records.items()) if r.calls]
    if tracer.missing:
        notes.append("traced functions not found: " + ", ".join(tracer.missing))
    misses = prediction_misses(workload, tracer)
    if misses:
        notes.append("layer predictions missed: " + "; ".join(misses))
    return metrics, notes, failures, len(prints0) + jobs, misses


def prediction_misses(workload, tracer):
    """Layers predicted busy that recorded no call, and layers predicted
    idle that recorded calls."""
    return ([f"no calls in {name}" for name in workload.uses
             if not tracer.record(name).calls]
            + [f"calls in {name}" for name in workload.bypasses
               if tracer.record(name).calls])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        setups, digests, gauge = [], set(), Gauge()

        def set_up():
            before = gauge.probe(SETUP_PROBES)
            t0 = perf_counter()
            plan = workload.setup(args.seed, workdir)
            dt = perf_counter() - t0
            units = before + gauge.probe(SETUP_PROBES)
            setups.append(dt * CAL_REF_S / statistics.median(units))
            digests.add(plan.digest)
            return plan

        def more_set_ups(done):
            while len(setups) < 1 + round((SETUP_REPEATS - 1) * done):
                set_up()

        plan = set_up()
        if args.trace:
            metrics, notes, failures, attempted, _ = traced(workload, plan, args.seconds)
        else:
            cycles, prints, failures = run_jobs(plan, args.seconds, gauge, more_set_ups)
            metrics, notes = end_to_end(workload, cycles, setups, gauge)
            attempted = len(prints)
        if len(digests) != 1:
            failures.append(f"set-ups of one seed gave different inputs: {sorted(digests)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload {workload.name}  seed {args.seed}  inputs {plan.digest}  "
          f"set-ups {len(setups)}  trace {args.trace}")
    print(f"jobs attempted {attempted}  failed {len(failures)}  "
          f"failed_ratio {len(failures) / attempted}")
    for note in notes:
        print(note)
    for failure in failures[:5]:
        print("FAILED", failure.strip().replace("\n", "\n    "), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
