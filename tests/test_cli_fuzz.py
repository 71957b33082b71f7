"""Seeded mutation fuzzing of the CLI input files.

Every cell field of the poset JSON, every covers entry, the top-level
``rank`` and ``cells``, the characteristic-map keys, vectors and entries,
and the ``--matching`` files are mutated in turn and fed to the
subcommands that read them; so are the values of every flag that takes a
number.  Each call must exit 0, 1 or 2, print exactly one JSON object,
write nothing on stderr and raise nothing.
"""

import contextlib
import io
import json
import random

import pytest

from torusfan import cli
from torusfan.poset import simplex_boundary, sphere_poset, to_json_dict

MUTANTS = (None, True, False, -1, 0, 1, 2, 7, 10 ** 20, 1.5, -0.0, "1", "",
           "x", [], [0], [1, 2], [[1]], {}, {"id": 0})
BASES = {"sphere2": to_json_dict(sphere_poset(2)),
         "sb2": to_json_dict(simplex_boundary(2))}
CHI = {"1": [1, 0], "2": [0, 1], "3": [-1, -1]}
FLAG_MUTANTS = ("x", "", "1.5", "2,x", "0x3", "1e2", "nan", ",", "3,", " ",
                "-", "--", "-1", "0", "4", "7", "2,3", "0,4", "\u0663")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    problems = []
    if code not in (0, 1, 2):
        problems.append(f"exit code {code}")
    try:
        if not isinstance(json.loads(out.getvalue()), dict):
            problems.append("report is not a JSON object")
    except json.JSONDecodeError:
        problems.append(f"stdout is not one JSON object: {out.getvalue()[:120]!r}")
    if err.getvalue():
        problems.append(f"stderr: {err.getvalue()[:120]!r}")
    return [f"{' '.join(argv)}: {p}" for p in problems]


def _poset_mutations(rng):
    """(what, mutated poset JSON) for every cell field, covers entry and
    top-level key of both base posets."""
    out = []
    for name, base in BASES.items():
        for i, cell in enumerate(base["cells"]):
            for field in ("id", "rank", "covers", "label", "extra"):
                doc = json.loads(json.dumps(base))
                if rng.random() < 0.2:
                    doc["cells"][i].pop(field, None)
                else:
                    doc["cells"][i][field] = rng.choice(MUTANTS)
                out.append((f"{name} cell {i} {field}", doc))
            for j in range(len(cell["covers"]) + 1):
                doc = json.loads(json.dumps(base))
                covers = doc["cells"][i]["covers"]
                if j == len(covers):
                    covers.append(rng.choice((0, 1, 99, -1)))
                else:
                    covers[j] = rng.choice(MUTANTS + (3, 4, 5, 6))
                out.append((f"{name} cell {i} covers[{j}]", doc))
        for key in ("rank", "cells"):
            for _ in range(3):
                doc = json.loads(json.dumps(base))
                doc[key] = rng.choice(MUTANTS + (3, 20))
                out.append((f"{name} {key}", doc))
            doc = json.loads(json.dumps(base))
            del doc[key]
            out.append((f"{name} no {key}", doc))
    out.append(("not an object", rng.choice(MUTANTS[:-2])))
    return out


def _chi_mutations(rng):
    out = []
    for x in CHI:
        for what in ("key", "vector", "entry"):
            doc = json.loads(json.dumps(CHI))
            if what == "key":
                doc[rng.choice((" 1", "+1", "1.0", "x", "", "99", "-0"))] = doc.pop(x)
            elif what == "vector":
                doc[x] = rng.choice(MUTANTS)
            else:
                doc[x][rng.randrange(2)] = rng.choice(MUTANTS)
            out.append((f"chi {what} {x}", doc))
    out.append(("chi not an object", [[1, 0], [0, 1]]))
    return out


def _matching_mutations(rng):
    base = {"1": 1, "2": 2, "3": 3}
    out = []
    for x in base:
        for what in ("key", "value"):
            for _ in range(2):
                doc = dict(base)
                if what == "key":
                    doc[rng.choice((" 1", "4", "1.5", "x", "0"))] = doc.pop(x)
                else:
                    doc[x] = rng.choice(MUTANTS + (4, 5, 6))
                out.append((f"matching {what} {x}", doc))
    out.append(("matching not an object", [1, 2, 3]))
    return out


def _poset_forms(p, good, chi):
    return [["poset-validate", p], ["poset-hvector", p],
            ["poset-subdivide", "barycentric", p],
            ["poset-subdivide", "stellar", p, "--cell", "1"],
            ["poset-join", p, good], ["poset-connectsum", p, good],
            ["homology", p], ["homology", p, "--char", "3"], ["cm-check", p],
            ["gorenstein-check", p], ["charfun-find", p, "--bound", "1"],
            ["charfun-check", p, chi], ["gkm-report", p, chi, "--dmax", "2"],
            ["betti", p, chi, "--field", "2"], ["present-ring", p, chi],
            ["sw-parity", p, chi], ["hilbert-check", p, "--dmax", "2"]]


def _chi_forms(p, chi):
    return [["charfun-check", p, chi], ["gkm-report", p, chi, "--dmax", "2"],
            ["betti", p, chi], ["betti", p, chi, "--field", "5"],
            ["present-ring", p, chi], ["sw-parity", p, chi]]


@pytest.fixture
def files(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(BASES["sb2"]))
    chi = tmp_path / "chi.json"
    chi.write_text(json.dumps(CHI))
    return tmp_path, str(good), str(chi)


def test_mutated_posets(files):
    tmp, good, chi = files
    rng = random.Random(1)
    path = tmp / "mutant.json"
    forms = _poset_forms(str(path), good, chi)
    problems = []
    for i, (what, doc) in enumerate(_poset_mutations(rng)):
        path.write_text(json.dumps(doc))
        # four forms per mutant, round robin, so every form meets many mutants
        for k in range(4):
            problems += [f"{what}: {p}" for p in _call(forms[(4 * i + k) % len(forms)])]
    assert not problems, problems[:5]


def test_mutated_characteristic_maps(files):
    tmp, good, _ = files
    rng = random.Random(2)
    path = tmp / "chi_mutant.json"
    problems = []
    for what, doc in _chi_mutations(rng):
        path.write_text(json.dumps(doc))
        for argv in _chi_forms(good, str(path)):
            problems += [f"{what}: {p}" for p in _call(argv)]
    assert not problems, problems[:5]


def test_mutated_matchings_and_targets(files):
    tmp, good, _ = files
    rng = random.Random(3)
    path = tmp / "matching.json"
    problems = []
    for what, doc in _matching_mutations(rng):
        path.write_text(json.dumps(doc))
        problems += [f"{what}: {p}" for p in _call(
            ["poset-connectsum", good, good, "--tops", "4", "5",
             "--matching", str(path)])]
    for _ in range(12):
        target = ",".join(rng.choice(("1", "1", "0", "2", "-1", "2.5", "x", "", " 1"))
                          for _ in range(rng.randint(1, 4)))
        problems += _call(["realize", "--target", target])
    assert not problems, problems[:5]


def _flag_forms(p, chi):
    """(argv before the value, argv after it) for every flag that takes a
    number, each in a subcommand that reads it."""
    return [(["homology", p, "--char"], []), (["cm-check", p, "--fields"], []),
            (["charfun-find", p, "--bound"], []),
            (["realize", "--target", "1,1,1", "--bound"], []),
            (["gkm-report", p, chi, "--dmax"], []),
            (["hilbert-check", p, "--dmax"], []),
            (["poset-subdivide", "stellar", p, "--cell"], []),
            (["poset-connectsum", p, p, "--tops"], ["4"]),
            (["poset-connectsum", p, p, "--tops", "4"], []),
            (["betti", p, chi, "--field"], []),
            (["poset-hvector", p, "--seed"], []),
            (["--seed"], ["poset-hvector", p])]


def test_mutated_flag_values(files):
    _, good, chi = files
    rng = random.Random(4)
    problems = []
    for before, after in _flag_forms(good, chi):
        for value in rng.sample(FLAG_MUTANTS, 8):
            problems += _call(before + [value] + after)
    assert not problems, problems[:5]


@pytest.mark.parametrize("before, flag", [
    (["charfun-find", "{p}"], "--bound"),
    (["realize", "--target", "1,1,1"], "--bound"),
    (["gkm-report", "{p}", "{chi}"], "--dmax"),
    (["hilbert-check", "{p}"], "--dmax")])
def test_negative_bounds_are_malformed_input(files, capsys, before, flag):
    _, good, chi = files
    argv = [a.format(p=good, chi=chi) for a in before]
    for value in ("-1", "-2"):
        assert cli.main(argv + [flag, value]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == (f"argument {flag}: expected a "
                                   f"non-negative integer, got {value}")
    # zero is a bound like any other, and a non-integer reads as before
    assert cli.main(argv + [flag, "0"]) in (0, 1)
    capsys.readouterr()
    assert cli.main(argv + [flag, "x"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == f"argument {flag}: invalid int value: 'x'"
