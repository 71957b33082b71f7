"""Command-line front end.

Every subcommand reads poset / characteristic-map JSON, runs one library
operation, and writes a JSON (or text) report.  Exit codes: 0 success,
1 a mathematical check failed (report carries witnesses), 2 malformed
input.  Reports are byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import (charfun, cohomology, facering, homology, linalg,
               poset as poset_mod, realize)
from .poset import PosetError, RankBoundError, TorusfanError

OK, CHECK_FAILED, BAD_INPUT = 0, 1, 2


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises InputError where argparse would print
    usage text on stderr and exit, so a malformed command line is reported
    like any other malformed input."""

    def error(self, message):
        raise InputError(message)


def _int_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise InputError(f"malformed JSON in {path} at line {err.lineno}, "
                         f"column {err.colno}: {err.msg}")


def _load_poset(path):
    data = _load_json(path)
    try:
        return poset_mod.from_json_dict(data)
    except ValueError as err:
        raise InputError(f"{path}: {err}")


def _load_vertex_map(path, what):
    """A JSON object keyed by vertex ids, as {int id: value}; each key must
    be a decimal integer string (-?[0-9]+: no sign '+', no spaces)."""
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise InputError(f"{path}: {what} JSON must be an object")
    for k in raw:
        if not re.fullmatch("-?[0-9]+", k):
            raise InputError(f"{path}: key {json.dumps(k)} is not an "
                             "integer vertex id")
    return {int(k): v for k, v in raw.items()}


def _load_vectors(path, n):
    """{vertex: integer vector} from JSON; each vector must have length n."""
    vectors = _load_vertex_map(path, "characteristic map")
    for x, v in vectors.items():
        if not isinstance(v, list) or any(type(c) is not int for c in v):
            raise InputError(f"{path}: vector for {x} must be a list of integers")
        if len(v) != n:
            raise InputError(
                f"{path}: vector for {x} has length {len(v)}, expected {n}")
    return vectors


def _load_chi(path, n):
    return charfun.CharacteristicMap(n, _load_vectors(path, n))


def _require_char(value):
    """Field characteristics must be 0 (the rationals) or a prime."""
    try:
        return linalg.check_char(value)
    except ValueError as err:
        raise InputError(str(err))


def _render(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}." if prefix else f"{k}.", value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", payload)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, payload)


def _cmd_poset_validate(args):
    p = _load_poset(args.poset)  # violations reach main as a PosetError
    return OK, {"ok": True, "rank": p.rank, "cells": len(p),
                "poset": poset_mod.to_json_dict(p)}


def _cmd_poset_hvector(args):
    p = _load_poset(args.poset)
    return OK, {"f": list(p.f_vector()), "h": list(p.h_vector()),
                "euler": p.euler_characteristic()}


def _cmd_poset_subdivide(args):
    p = _load_poset(args.poset)
    if args.kind == "barycentric":
        out = poset_mod.barycentric_subdivision(p, force=args.force)
    else:
        if args.cell is None:
            raise InputError("stellar subdivision needs --cell")
        if args.cell not in p.cells or args.cell == p.root:
            raise InputError(f"--cell {args.cell} is not a proper cell")
        out = poset_mod.stellar_subdivision(p, args.cell)
    return OK, {"kind": args.kind, "poset": poset_mod.to_json_dict(out)}


def _cmd_poset_join(args):
    p1 = _load_poset(args.left)
    p2 = _load_poset(args.right)
    out = poset_mod.join(p1, p2)
    return OK, {"poset": poset_mod.to_json_dict(out), "h": list(out.h_vector())}


def _cmd_poset_connectsum(args):
    p1 = _load_poset(args.left)
    p2 = _load_poset(args.right)
    t1 = args.tops[0] if args.tops else min(p1.tops())
    t2 = args.tops[1] if args.tops else min(p2.tops())
    if t1 not in p1.cells or t2 not in p2.cells:
        raise InputError(f"--tops {t1} {t2}: no such cells")
    matching = None
    if args.matching:
        matching = _load_vertex_map(args.matching, "matching")
        for k, v in matching.items():
            # bool is an int subclass: JSON true must not pass as 1
            if type(v) is not int:
                raise InputError(
                    f"{args.matching}: entry {json.dumps(str(k))}: "
                    f"{json.dumps(v)} must map an integer vertex id to an "
                    "integer vertex id")
    out = poset_mod.connected_sum(p1, t1, p2, t2, matching)
    return OK, {"ok": True, "poset": poset_mod.to_json_dict(out),
                "h": list(out.h_vector())}


def _cmd_homology(args):
    p = _load_poset(args.poset)
    char = None if args.char is None else _require_char(args.char)
    hom = homology.reduced_homology(p, char)
    groups = [{"dim": d, "betti": b, "torsion": list(t)}
              for d, (b, t) in sorted(hom.groups.items())]
    return OK, {"coefficients": "Z" if char is None else
                ("Q" if char == 0 else f"GF({char})"),
                "groups": groups}


def _cmd_cm_check(args):
    p = _load_poset(args.poset)
    chars = [_require_char(c) for c in args.fields]
    verdicts, torsion = homology.link_verdicts(p, chars)
    fields = [{"char": c, "ok": v.ok, "witnesses": v.witnesses}
              for c, v in verdicts.items()]
    ok = all(v.ok for v in verdicts.values())
    payload = {"ok": ok, "fields": fields,
               "torsion_free_links": {"ok": torsion.ok,
                                      "witnesses": torsion.witnesses}}
    return (OK if ok else CHECK_FAILED), payload


def _cmd_gorenstein_check(args):
    p = _load_poset(args.poset)
    verdict = homology.gorenstein_star(p)
    pm = homology.pseudomanifold(p)
    payload = {"ok": verdict.ok, "witnesses": verdict.witnesses,
               "pseudomanifold": pm.ok,
               "euler_sphere": homology.euler_sphere_check(p),
               "h": list(p.h_vector()),
               "dehn_sommerville": cohomology.dehn_sommerville_check(p.h_vector())}
    return (OK if verdict.ok else CHECK_FAILED), payload


def _cmd_charfun_find(args):
    p = _load_poset(args.poset)
    chi = charfun.find_characteristic_map(p, args.bound)
    if chi is None:
        return CHECK_FAILED, {"found": False, "bound": args.bound}
    return OK, {"found": True, "bound": args.bound,
                "lambda": chi.to_json_dict()}


def _cmd_charfun_check(args):
    p = _load_poset(args.poset)
    vectors = _load_vectors(args.chi, p.rank)
    ok, violations = charfun.check_unimodular(p, vectors)
    return (OK if ok else CHECK_FAILED), {"ok": ok, "violations": violations}


def _cmd_gkm_report(args):
    p = _load_poset(args.poset)
    chi = _load_chi(args.chi, p.rank)
    try:
        graph = charfun.build_gkm_graph(p, chi)
    except charfun.GKMError as err:
        return CHECK_FAILED, {"ok": False, "violations": [str(err)]}
    dmax = args.dmax if args.dmax is not None else 2 * p.rank
    edges = [{"id": e.id, "ends": list(e.ends),
              "alpha": {str(v): list(e.label_at(v)) for v in e.ends},
              "sign": e.sign}
             for e in graph.edges]
    dims = []
    for k in range(dmax + 1):
        gkm = charfun.gkm_subalgebra_dimension(graph, k)
        ring = facering.graded_dimension(p, k)
        dims.append({"k": k, "gkm": gkm, "face_ring": ring,
                     "equal": gkm == ring})
    payload = {"ok": True, "vertices": list(graph.vertices), "edges": edges,
               "axioms": {"sign": True, "basis": True, "congruence": True},
               "dimensions": dims}
    return OK, payload


def _cmd_betti(args):
    p = _load_poset(args.poset)
    chi = _load_chi(args.chi, p.rank)
    _require_char(args.field)
    try:
        betti = cohomology.betti_numbers(p, chi, args.field)
    except cohomology.CohomologyError as err:
        return CHECK_FAILED, {"ok": False, "violations": [str(err)]}
    name = "Q" if args.field == 0 else f"GF({args.field})"
    return OK, {"field": name, "betti": list(betti),
                "matches_h": tuple(betti) == p.h_vector()}


def _cmd_present_ring(args):
    p = _load_poset(args.poset)
    chi = _load_chi(args.chi, p.rank)
    pres = cohomology.present_cohomology_ring(p, chi)
    gens = [{"id": x, "degree": d, **({"label": lbl} if lbl else {})}
            for x, d, lbl in pres.generators]
    products = [{"left": x, "right": y, "rhs": facering.format_element(rhs)}
                for x, y, rhs in pres.product_relations]
    linear = [facering.format_element(t) for t in pres.linear_relations]
    return OK, {"generators": gens,
                "relations": {"products": products, "linear": linear}}


def _cmd_sw_parity(args):
    p = _load_poset(args.poset)
    chi = _load_chi(args.chi, p.rank)
    report = cohomology.sw_parity(p, chi)
    payload = {"applicable": report.applicable, "note": report.note}
    if report.applicable:
        payload.update({"pairing": report.pairing, "euler": report.euler,
                        "consistent": report.consistent})
    code = OK if report.applicable and report.consistent else CHECK_FAILED
    return code, payload


def _cmd_hilbert_check(args):
    p = _load_poset(args.poset)
    dmax = args.dmax if args.dmax is not None else max(p.rank, 6)
    report = facering.hilbert_check(p, dmax)
    rows = [{"k": k, "count": c, "expected": e} for k, c, e in report.rows]
    return (OK if report.ok else CHECK_FAILED), {"ok": report.ok, "rows": rows}


def _cmd_realize(args):
    try:
        entries = [int(x) for x in args.target.split(",")]
    except ValueError:
        raise InputError(f"cannot parse target {args.target!r}")
    result = realize.realize_with_lambda(entries, bound=args.bound)
    if isinstance(result, realize.Refusal):
        return CHECK_FAILED, {"verdict": result.stage, "detail": result.detail}
    p = result.poset
    blocks = [{"kind": b.kind, "n": b.n, **({"k": b.k} if b.k else {})}
              for b in result.decomposition.blocks]
    payload = {
        "verdict": result.verdict,
        "blocks": blocks,
        "h": list(p.h_vector()),
        "poset": poset_mod.to_json_dict(p),
        "lambda": result.chi.to_json_dict(),
        "checks": {"gorenstein_star": True, "h_matches": True,
                   "characteristic_map_found": True},
    }
    if args.poset_out:
        with open(args.poset_out, "w") as fh:
            fh.write(_render(poset_mod.to_json_dict(p), "json"))
    if args.lambda_out:
        with open(args.lambda_out, "w") as fh:
            fh.write(_render(result.chi.to_json_dict(), "json"))
    return OK, payload


# ---------------------------------------------------------------------------


def _common_flags(parser, suppress):
    # the subcommand copies use SUPPRESS so an unset flag does not clobber
    # a value given before the subcommand
    defaults = {"format": "json", "output": None, "seed": 0}
    if suppress:
        defaults = dict.fromkeys(defaults, argparse.SUPPRESS)
    parser.add_argument("--format", choices=("json", "text"),
                        default=defaults["format"])
    parser.add_argument("--output", "-o", default=defaults["output"],
                        help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=defaults["seed"],
                        help="seed echoed into the report (reserved for "
                             "randomized checks)")


def _build_parser():
    top = _Parser(
        prog="torusfan",
        description="Face rings, homology and GKM data of simplicial posets.")
    _common_flags(top, suppress=False)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        _common_flags(p, suppress=True)
        return p

    p = add("poset-validate", _cmd_poset_validate)
    p.add_argument("poset")

    p = add("poset-hvector", _cmd_poset_hvector)
    p.add_argument("poset")

    p = add("poset-subdivide", _cmd_poset_subdivide)
    p.add_argument("kind", choices=("barycentric", "stellar"))
    p.add_argument("poset")
    p.add_argument("--cell", type=int, help="cell id for stellar subdivision")
    p.add_argument("--force", action="store_true",
                   help="allow barycentric subdivision above the rank bound")

    p = add("poset-join", _cmd_poset_join)
    p.add_argument("left")
    p.add_argument("right")

    p = add("poset-connectsum", _cmd_poset_connectsum)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--tops", type=int, nargs=2, metavar=("T1", "T2"))
    p.add_argument("--matching", help="JSON file mapping vertex ids of T1 to T2")

    p = add("homology", _cmd_homology)
    p.add_argument("poset")
    p.add_argument("--char", type=int, default=None,
                   help="0 for Q, a prime for GF(p); default integral")

    p = add("cm-check", _cmd_cm_check)
    p.add_argument("poset")
    p.add_argument("--fields", type=_int_list, default=[0, 2, 3, 5])

    p = add("gorenstein-check", _cmd_gorenstein_check)
    p.add_argument("poset")

    p = add("charfun-find", _cmd_charfun_find)
    p.add_argument("poset")
    p.add_argument("--bound", type=int, default=2)

    p = add("charfun-check", _cmd_charfun_check)
    p.add_argument("poset")
    p.add_argument("chi")

    p = add("gkm-report", _cmd_gkm_report)
    p.add_argument("poset")
    p.add_argument("chi")
    p.add_argument("--dmax", type=int, default=None)

    p = add("betti", _cmd_betti)
    p.add_argument("poset")
    p.add_argument("chi")
    p.add_argument("--field", type=int, default=0,
                   help="0 for Q, a prime p for GF(p)")

    p = add("present-ring", _cmd_present_ring)
    p.add_argument("poset")
    p.add_argument("chi")

    p = add("sw-parity", _cmd_sw_parity)
    p.add_argument("poset")
    p.add_argument("chi")

    p = add("hilbert-check", _cmd_hilbert_check)
    p.add_argument("poset")
    p.add_argument("--dmax", type=int, default=None)

    p = add("realize", _cmd_realize)
    p.add_argument("--target", required=True,
                   help="comma-separated h-vector entries")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--poset-out")
    p.add_argument("--lambda-out")

    return top


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except InputError as err:
        sys.stdout.write(_render({"error": str(err)}, "json"))
        return BAD_INPUT
    try:
        try:
            poset_mod.max_rank_bound()
        except ValueError as err:
            raise InputError(str(err))
        code, payload = args.handler(args)
    except InputError as err:
        code, payload = BAD_INPUT, {"error": str(err)}
    except RankBoundError as err:
        code, payload = CHECK_FAILED, {"ok": False, "violations": [str(err)]}
    except PosetError as err:
        code, payload = CHECK_FAILED, {"ok": False, "violations": err.violations}
    except TorusfanError as err:
        code, payload = CHECK_FAILED, {"ok": False, "violations": [str(err)]}
    payload.setdefault("config", {})
    payload["config"]["seed"] = args.seed
    text = _render(payload, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
