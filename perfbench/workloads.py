"""The three benchmark workloads: inputs from a seed, jobs, and their checks.

A job is one top-level call into torusfan.  ``run`` is the timed part and
returns the output; ``check`` runs afterwards, outside the timed region,
and returns a problem string or None; ``fingerprint`` reduces the output
to a string so a traced and an untraced pass can be compared.

Jobs come in cycles.  A cycle holds every job of the workload's pool once,
in an order (and with parameters) drawn from the seed, and runs time whole
cycles.  Drawing without replacement keeps the job mix, and so the cost of
a cycle, nearly the same from seed to seed; the seed also relabels the
cell ids of pool posets, which changes the bytes but not the complex.

Job closures look library functions up through their module at call time
(``realize.realize_with_lambda``, never a name imported from it), so the
tracer's patches are seen.
"""

import contextlib
import hashlib
import io
import json
import random
from itertools import product
from math import comb, inf

from torusfan import charfun, cli, cohomology, facering, poset, realize

import reference as ref

PRIMES = (2, 3, 5, 7)


class Job:
    __slots__ = ("key", "run", "check", "fingerprint")

    def __init__(self, key, run, check, fingerprint=repr):
        self.key = key
        self.run = run
        self.check = check
        self.fingerprint = fingerprint


class Plan:
    """The generated inputs of one workload run."""

    def __init__(self, name, seed, cycle, pool):
        """``pool`` describes every input as JSON, for the digest."""
        self.name = name
        self.seed = seed
        self._cycle = cycle  # (cycle index, rng) -> list of Jobs
        keys = [job.key for c in range(2) for job in self.cycle(c)]
        blob = json.dumps([name, pool, keys], sort_keys=True).encode()
        self.digest = hashlib.sha256(blob).hexdigest()[:16]

    def cycle(self, c):
        """The jobs of cycle c, made afresh on each call, so a cycle run
        twice finds no state left by the first run."""
        return self._cycle(c, random.Random(f"{self.name}:{self.seed}:{c}"))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _admissible_targets(n_range, max_entry):
    """Every palindromic (1, h_1, ..., h_{n-1}, 1) with 0 <= h_i <= max_entry
    that the realization theorem admits: n odd, or the middle entry even,
    or the middle entry odd with every entry positive."""
    out = []
    for n in n_range:
        for half in product(range(max_entry + 1), repeat=n // 2):
            inner = list(half) + list(reversed(half[: (n - 1) // 2]))
            h = (1, *inner, 1)
            middle = h[n // 2]
            if n % 2 or middle % 2 == 0 or all(h):
                out.append(h)
    return out


def _balanced_primes(keys, rng):
    """{key: prime}, each prime given to as many keys as the others (up to
    one), in a seeded arrangement; used once per cycle so that every cycle
    has the same prime mix."""
    keys = list(keys)
    rng.shuffle(keys)
    offset = rng.randrange(len(PRIMES))
    return {k: PRIMES[(i + offset) % len(PRIMES)] for i, k in enumerate(keys)}


def _cell_count(h):
    """Cells of a simplicial poset with h-vector h, the root included:
    f_(i-1) = sum_j h_j C(n-j, i-j)."""
    n = len(h) - 1
    return 1 + sum(h[j] * comb(n - j, i - j)
                   for i in range(1, n + 1) for j in range(i + 1))


def _relabel(wire, rng):
    """Wire-form poset with ids moved to a seeded set; the complex, and so
    every invariant, is unchanged.  The map keeps the order of ids, because
    elimination order, and with it the cost of a rank, follows the order of
    ids: an order-scrambling relabelling changed single-job times by up to
    40% from seed to seed."""
    cells = wire["cells"]
    new_ids = sorted(rng.sample(range(4 * len(cells)), len(cells)))
    mapping = dict(zip(sorted(c["id"] for c in cells), new_ids))
    out = []
    for c in cells:
        entry = {"id": mapping[c["id"]], "rank": c["rank"],
                 "covers": sorted(mapping[d] for d in c["covers"])}
        if "label" in c:
            entry["label"] = c["label"]
        out.append(entry)
    return {"rank": wire["rank"], "cells": out}, mapping


# ---------------------------------------------------------------------------
# realize: the realization pipeline on targets of rank 2..5


REALIZE_RANKS = range(2, 6)
REALIZE_MAX_ENTRY = 4


def _check_realization(target, result):
    if not hasattr(result, "chi"):
        return f"{target}: refused: {result}"
    wire = poset.to_json_dict(result.poset)
    n, cells = wire["rank"], wire["cells"]
    h = ref.h_vector(ref.f_vector(cells, n), n)
    if h != target:
        return f"{target}: realized h-vector {h}"
    atoms = ref.atom_sets(cells)
    covered = {d for c in cells for d in c["covers"]}
    vectors = result.chi.vectors
    for c in cells:
        if c["id"] not in covered and c["rank"] != n:
            return f"{target}: maximal cell {c['id']} of rank {c['rank']} (not pure)"
        if c["rank"] == n:
            mat = [vectors[v] for v in sorted(atoms[c["id"]])]
            if abs(ref.determinant(mat)) != 1:
                return f"{target}: |det| != 1 at top cell {c['id']}"
    return None


def _realization_fingerprint(result):
    if not hasattr(result, "chi"):
        return repr(result)
    return _sha(json.dumps([result.verdict, poset.to_json_dict(result.poset),
                            result.chi.to_json_dict()], sort_keys=True))


def realize_setup(seed, workdir):
    targets = _admissible_targets(REALIZE_RANKS, REALIZE_MAX_ENTRY)

    def make(target):
        return Job("realize " + ",".join(map(str, target)),
                   lambda: realize.realize_with_lambda(list(target)),
                   lambda out: _check_realization(target, out),
                   _realization_fingerprint)

    def cycle(c, rng):
        order = list(targets)
        rng.shuffle(order)
        return [make(t) for t in order]

    plan = Plan("realize", seed, cycle, [list(t) for t in targets])
    for n in REALIZE_RANKS:  # warm-up: the smallest target of each rank
        job = make(next(t for t in targets if len(t) == n + 1))
        job.run()
    return plan


# ---------------------------------------------------------------------------
# cohomology: face-ring and rank computations on realized posets


COH_RANKS = range(2, 6)
# Largest cell count per rank for: the pool of realized posets; betti over
# Q (cubic Fraction rank); GKM graphs and dimensions at k = 1; and k = 2.
# A rank missing from a table gets no such job.
COH_MAX_CELLS = {2: inf, 3: inf, 4: 45, 5: 57}
COH_Q_MAX_CELLS = {2: inf, 3: inf, 4: 27}
COH_GKM_MAX_CELLS = {2: inf, 3: inf, 4: 45}
COH_GKM2_MAX_CELLS = {2: inf, 3: inf, 4: 31}


class _Item:
    """A pool poset, as wire form, with its map, graph and reference data.

    Every job builds its own poset from the wire form, outside its timer:
    posets cache joins and meets for their lifetime, and a poset shared
    across jobs or cycles would turn those into dict hits."""

    def __init__(self, name, chi, wire):
        self.name = name
        self.wire = wire
        self.chi = chi
        self.n = wire["rank"]
        self.cells = wire["cells"]
        self.size = len(self.cells)
        self.h = ref.h_vector(ref.f_vector(self.cells, self.n), self.n)
        self.graph = None
        self.pairs = None


def _terms(element):
    return sorted(element.terms.items())


def _incomparable_pairs(cells):
    """{(x, y): whether x and y have a common upper bound}, over the
    incomparable pairs of cells above the root."""
    down = ref.down_sets(cells)
    ids = sorted(c["id"] for c in cells if c["rank"] > 0)
    up = {x: {y for y in ids if x in down[y]} for x in ids}
    return {(x, y): bool(up[x] & up[y])
            for i, x in enumerate(ids) for y in ids[i + 1:]
            if x not in down[y] and y not in down[x]}


def _check_present(item, pres):
    if item.pairs is None:
        item.pairs = _incomparable_pairs(item.cells)
    if len(pres.generators) != item.size - 1:
        return f"{len(pres.generators)} generators for {item.size - 1} cells"
    if len(pres.linear_relations) != item.n:
        return f"{len(pres.linear_relations)} linear relations, expected {item.n}"
    got = {}
    for x, y, rhs in pres.product_relations:
        got[(x, y) if x < y else (y, x)] = bool(rhs.terms)
    if got != item.pairs:
        return "product relations do not match the incomparable pairs"
    return None


def _check_gkm_graph(item, graph):
    atoms = ref.atom_sets(item.cells)
    n = item.n
    tops = sorted(c["id"] for c in item.cells if c["rank"] == n)
    ridges = sorted(c["id"] for c in item.cells if c["rank"] == n - 1)
    if sorted(graph.vertices) != tops or sorted(e.id for e in graph.edges) != ridges:
        return "GKM graph vertices/edges differ from the top and ridge cells"
    vectors = item.chi.vectors
    for e in graph.edges:
        if e.sign not in (1, -1):
            return f"edge {e.id}: sign {e.sign}"
        for p, label in zip(e.ends, e.labels):
            (omitted,) = atoms[p] - atoms[e.id]
            for v in atoms[p]:
                pairing = sum(a * b for a, b in zip(label, vectors[v]))
                if pairing != (v == omitted):
                    return f"edge {e.id} at {p}: label is not the dual basis vector"
    return None


def _graph_fingerprint(graph):
    return repr((graph.vertices, [(e.id, e.ends, e.labels, e.sign)
                                  for e in graph.edges]))


def _expect(value, expected, what):
    return None if value == expected else f"{what}: {value}, expected {expected}"


def _cohomology_jobs(item, q):
    """The jobs of one cycle on one pool poset; q is the cycle's prime for it."""
    chi, n, h, size = item.chi, item.n, item.h, item.size
    tag = item.name

    def fresh():
        return poset.from_json_dict(item.wire)

    jobs = [
        Job(f"betti GF({q}) {tag}",
            lambda p=fresh(): cohomology.betti_numbers(p, chi, q),
            lambda out: _expect(tuple(out), h, "betti")),
        Job(f"sw_parity {tag}",
            lambda p=fresh(): cohomology.sw_parity(p, chi),
            lambda out: None if out.applicable and out.consistent
            and out.euler == sum(h) % 2 else f"parity report {out}",
            lambda out: repr((out.applicable, out.pairing, out.euler,
                              out.consistent, out.note))),
        Job(f"present {tag}",
            lambda p=fresh(): cohomology.present_cohomology_ring(p, chi),
            lambda out: _check_present(item, out),
            lambda out: _sha(repr((out.generators,
                                   [(x, y, _terms(r)) for x, y, r in out.product_relations],
                                   [_terms(t) for t in out.linear_relations])))),
        Job(f"hilbert {tag}",
            lambda p=fresh(): facering.hilbert_check(p, 2 * n),
            lambda out: _expect(list(out.rows),
                                [(k, ref.series_coefficient(h, n, k),
                                  ref.series_coefficient(h, n, k))
                                 for k in range(2 * n + 1)], "hilbert rows"),
            lambda out: repr(out.rows)),
    ]
    if size <= COH_Q_MAX_CELLS.get(n, 0):
        jobs.append(Job(f"betti Q {tag}",
                        lambda p=fresh(): cohomology.betti_numbers(p, chi, 0),
                        lambda out: _expect(tuple(out), h, "betti")))
    if size <= COH_GKM_MAX_CELLS.get(n, 0):
        graph = item.graph
        ks = (1, 2) if size <= COH_GKM2_MAX_CELLS.get(n, 0) else (1,)
        jobs.append(Job(f"gkm_graph {tag}",
                        lambda p=fresh(): charfun.build_gkm_graph(p, chi),
                        lambda out: _check_gkm_graph(item, out),
                        _graph_fingerprint))
        for k in ks:
            jobs.append(Job(f"gkm_dim k={k} {tag}",
                            lambda k=k: charfun.gkm_subalgebra_dimension(graph, k),
                            lambda out, k=k: _expect(
                                out, ref.series_coefficient(h, n, k), "gkm dimension")))
        jobs.append(Job(f"quotient_basis GF({q}) {tag}",
                        lambda p=fresh(): cohomology.graded_quotient_basis(p, chi, q),
                        lambda out: _expect([len(out[k]) for k in range(n + 1)],
                                            list(h), "quotient basis sizes"),
                        lambda out: _sha(repr([[_terms(e) for e in out[k]]
                                               for k in sorted(out)]))))
    return jobs


def cohomology_setup(seed, workdir):
    rng = random.Random(f"cohomology:{seed}:setup")
    items = []
    for target in _admissible_targets(COH_RANKS, REALIZE_MAX_ENTRY):
        n = len(target) - 1
        if _cell_count(target) > COH_MAX_CELLS[n]:
            continue
        result = realize.realize_with_lambda(list(target))
        wire = poset.to_json_dict(result.poset)
        relabeled, mapping = _relabel(wire, rng)
        p = poset.from_json_dict(relabeled)
        chi = charfun.CharacteristicMap(
            n, {mapping[v]: vec for v, vec in result.chi.vectors.items()})
        item = _Item("h=" + "".join(map(str, target)), chi, relabeled)
        if item.size <= COH_GKM_MAX_CELLS.get(n, 0):
            item.graph = charfun.build_gkm_graph(p, chi)
        items.append(item)

    def cycle(c, cycle_rng):
        primes = {}  # balanced within each rank, whose posets cost alike
        for n in COH_RANKS:
            primes.update(_balanced_primes(
                [item.name for item in items if item.n == n], cycle_rng))
        jobs = [job for item in items
                for job in _cohomology_jobs(item, primes[item.name])]
        cycle_rng.shuffle(jobs)
        return jobs

    pool = [[item.name, item.cells, sorted(item.chi.vectors.items())]
            for item in items]
    plan = Plan("cohomology", seed, cycle, pool)
    for job in _cohomology_jobs(items[0], PRIMES[0]):  # warm-up: each job kind once
        job.run()
    return plan


# ---------------------------------------------------------------------------
# homology-cli: the command-line front end on JSON files


def _cli_inputs(rng):
    """(name, poset) per input.  Where the seed picks a member, the members
    cost about the same (symmetric cells of one simplex boundary, operand
    order, two subdivisions of equal size), so the cycle cost barely moves
    with the seed; the seed also relabels every input.  The many small
    inputs put the median among many jobs of nearby cost."""
    sd = poset.barycentric_subdivision

    def realized(target):
        return realize.realize_with_lambda(list(target)).poset

    sb4 = poset.simplex_boundary(4)
    stellar = [rng.choice(sb4.by_rank(r)) for r in (1, 2, 4)]
    pair = [("sb2", poset.simplex_boundary(2)), ("sp2", poset.sphere_poset(2))]
    rng.shuffle(pair)
    small = {"sb3": lambda: poset.simplex_boundary(3),
             "spp12": lambda: poset.sphere_product_poset(1, 2)}
    big = {"spp13": lambda: poset.sphere_product_poset(1, 3),
           "h=10201": lambda: realized((1, 0, 2, 0, 1))}
    s, b = rng.choice(sorted(small)), rng.choice(sorted(big))
    return [(f"stellar(sb4,{x})", poset.stellar_subdivision(sb4, x)) for x in stellar] + [
        (f"join({pair[0][0]},{pair[1][0]})",
         poset.join(pair[0][1], pair[1][1])),                          # 35 cells
        ("join(sb2,sb2)", poset.join(poset.simplex_boundary(2),
                                     poset.simplex_boundary(2))),      # 49
        ("h=11111", realized((1, 1, 1, 1, 1))),                        # 31
        ("h=11211", realized((1, 1, 2, 1, 1))),                        # 35
        ("sd(sp3)", sd(poset.sphere_poset(3))),                        # 39
        (f"sd({s})", sd(small[s]())),                                  # 75
        ("sd(h=1331)", sd(realized((1, 3, 3, 1)))),                    # 147
        ("sd(sp4)", sd(poset.sphere_poset(4))),                        # 225
        (f"sd({b})", sd(big[b]())),                                    # 433-437
    ]


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_cli(command, n, f, out, coefficients=None):
    code, text = out
    if code != 0:
        return f"{command}: exit code {code}: {text[:200]}"
    payload = json.loads(text)
    if command == "homology":
        if payload["coefficients"] != coefficients:
            return f"homology: coefficients {payload['coefficients']}"
        return ref.sphere_groups_problem(payload["groups"], n, f)
    if command == "gorenstein-check":
        expected = {"ok": True, "witnesses": [], "pseudomanifold": True,
                    "euler_sphere": True, "dehn_sommerville": True,
                    "h": list(ref.h_vector(f, n))}
        got = {k: payload.get(k) for k in expected}
        return _expect(got, expected, "gorenstein-check")
    fields = [(x["char"], x["ok"]) for x in payload["fields"]]
    if not payload["ok"] or fields != [(2, True), (3, True)] \
            or not payload["torsion_free_links"]["ok"]:
        return f"cm-check: {text[:200]}"
    return None


def _cli_jobs(path, name, n, f, q):
    def job(command, argv, coefficients=None):
        return Job(f"{command} {' '.join(argv)} {name}",
                   lambda: _run_cli([command, *argv, path]),
                   lambda out: _check_cli(command, n, f, out, coefficients))

    return [job("homology", [], "Z"),
            job("homology", ["--char", str(q)], f"GF({q})"),
            job("gorenstein-check", []),
            job("cm-check", ["--fields", "2,3"])]


def homology_cli_setup(seed, workdir):
    rng = random.Random(f"homology-cli:{seed}:setup")
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for i, (name, p) in enumerate(_cli_inputs(rng)):
        wire, _ = _relabel(poset.to_json_dict(p), rng)
        path = workdir / f"input{i}.json"
        path.write_text(json.dumps(wire))
        n = wire["rank"]
        inputs.append((str(path), name, n, ref.f_vector(wire["cells"], n), wire))

    def cycle(c, cycle_rng):
        primes = _balanced_primes(range(len(inputs)), cycle_rng)
        jobs = [job for i, (path, name, n, f, _) in enumerate(inputs)
                for job in _cli_jobs(path, name, n, f, primes[i])]
        cycle_rng.shuffle(jobs)
        return jobs

    pool = [[name, wire] for _, name, _, _, wire in inputs]
    plan = Plan("homology-cli", seed, cycle, pool)
    smallest = min(inputs, key=lambda x: len(x[4]["cells"]))
    for job in _cli_jobs(*smallest[:4], PRIMES[0]):
        job.run()
    return plan


class Workload:
    """A workload: its set-up, tail percentile and layer predictions.

    ``tail_pct`` is fixed per workload: the highest of 90, 95 and 99 that
    leaves at least ten jobs above it in a 30-second run at the speed of
    the commit that defined the benchmark, with room for a slower machine.
    Fixing it keeps the tail metric comparable across commits.  ``uses`` lists the
    layers predicted to record calls and ``bypasses`` those predicted to
    record none; the self-test asserts both.
    """

    def __init__(self, name, setup, tail_pct, uses, bypasses):
        self.name = name
        self.setup = setup
        self.tail_pct = tail_pct
        self.uses = uses
        self.bypasses = bypasses


WORKLOADS = {
    "realize": Workload(
        "realize", realize_setup, 95,
        uses=("realize.pipeline", "poset.construct", "poset.validate",
              "poset.link", "poset.surgery", "homology.chain_complex",
              "homology.reduced", "homology.verdicts", "charfun.search",
              "linalg.snf"),
        bypasses=("facering.straighten", "facering.monomial_product",
                  "facering.basis", "polys.restrict", "cohomology.betti",
                  "cohomology.sw_parity", "cohomology.present", "cli.main",
                  "cli.load", "linalg.rank_q", "linalg.rank_p",
                  "linalg.pivots", "linalg.invert", "linalg.bitspan",
                  "charfun.gkm_build", "charfun.gkm_dim")),
    "cohomology": Workload(
        "cohomology", cohomology_setup, 99,
        uses=("cohomology.betti", "cohomology.sw_parity", "cohomology.present",
              "facering.straighten", "facering.monomial_product",
              "facering.basis", "linalg.rank_q", "linalg.rank_p",
              "linalg.pivots", "linalg.invert", "linalg.bitspan",
              "poset.join_set", "poset.meet", "polys.restrict",
              "charfun.gkm_build", "charfun.gkm_dim", "charfun.unimodular"),
        bypasses=("charfun.search", "realize.pipeline", "cli.main",
                  "cli.load", "poset.construct", "poset.link",
                  "poset.surgery", "homology.chain_complex")),
    "homology-cli": Workload(
        "homology-cli", homology_cli_setup, 95,
        uses=("cli.main", "cli.load", "poset.construct", "poset.validate",
              "poset.link", "homology.chain_complex", "homology.reduced",
              "homology.verdicts", "linalg.snf", "linalg.rank_p"),
        bypasses=("charfun.search", "facering.straighten",
                  "facering.monomial_product", "facering.basis",
                  "polys.restrict", "cohomology.betti", "cohomology.sw_parity",
                  "cohomology.present", "realize.pipeline", "linalg.rank_q",
                  "charfun.gkm_build", "charfun.gkm_dim")),
}
