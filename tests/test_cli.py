"""CLI subcommands: exit codes, report shapes, determinism, round trips."""

import json
import os
import re
import subprocess
import sys

import pytest

import torusfan
from torusfan import cli, homology
from torusfan.poset import (barycentric_subdivision, from_json_dict,
                            simplex_boundary, sphere_poset, to_json_dict)


@pytest.fixture
def sphere2_file(tmp_path):
    path = tmp_path / "sphere2.json"
    path.write_text(json.dumps(to_json_dict(sphere_poset(2))))
    return str(path)


@pytest.fixture
def chi2_file(tmp_path):
    path = tmp_path / "chi2.json"
    path.write_text(json.dumps({"1": [1, 0], "2": [0, 1]}))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_validate_ok(capsys, sphere2_file):
    code, report = run(capsys, "poset-validate", sphere2_file)
    assert code == 0 and report["ok"] is True


def test_validate_reports_violations(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "cells": [
        {"id": 0, "rank": 0, "covers": []},
        {"id": 1, "rank": 1, "covers": [0]},
        {"id": 2, "rank": 2, "covers": [1]}]}))
    code, report = run(capsys, "poset-validate", str(bad))
    assert code == 1 and report["ok"] is False
    assert any("cover count" in v for v in report["violations"])


def test_malformed_json_exit_two(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, report = run(capsys, "poset-validate", str(bad))
    assert code == 2 and "malformed JSON" in report["error"]


def test_hvector_report(capsys, sphere2_file):
    code, report = run(capsys, "poset-hvector", sphere2_file)
    assert code == 0
    assert report["f"] == [2, 2] and report["h"] == [1, 0, 1]


def test_realize_inadmissible(capsys):
    code, report = run(capsys, "realize", "--target", "1,0,1,0,1")
    assert code == 1 and report["verdict"] == "inadmissible"


def test_realize_success_writes_artifacts(capsys, tmp_path):
    pout = tmp_path / "poset.json"
    lout = tmp_path / "lambda.json"
    code, report = run(capsys, "realize", "--target", "1,2,1",
                       "--poset-out", str(pout), "--lambda-out", str(lout))
    assert code == 0 and report["h"] == [1, 2, 1]
    reloaded = from_json_dict(json.loads(pout.read_text()))
    assert reloaded.h_vector() == (1, 2, 1)
    assert json.loads(lout.read_text())


def test_subdivide_barycentric(capsys, sphere2_file):
    code, report = run(capsys, "poset-subdivide", "barycentric", sphere2_file)
    assert code == 0
    sd = from_json_dict(report["poset"])
    assert sd.f_vector() == (4, 4)


def test_subdivide_barycentric_refused_above_the_bound(capsys, tmp_path):
    path = tmp_path / "d7.json"
    path.write_text(json.dumps(to_json_dict(simplex_boundary(7))))
    code = cli.main(["poset-subdivide", "barycentric", str(path)])
    assert code == 1
    assert capsys.readouterr().out == (
        '{\n  "config": {\n    "seed": 0\n  },\n  "ok": false,\n'
        '  "violations": [\n    "barycentric subdivision refused at rank 7 '
        '(> 6); pass force=True to override"\n  ]\n}\n')


def test_subdivide_stellar_needs_cell(capsys, sphere2_file):
    code, report = run(capsys, "poset-subdivide", "stellar", sphere2_file)
    assert code == 2


def test_join_and_connectsum(capsys, tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(to_json_dict(simplex_boundary(1))))
    code, report = run(capsys, "poset-join", str(path), str(path))
    assert code == 0 and report["h"] == [1, 2, 1]

    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(to_json_dict(simplex_boundary(2))))
    code, report = run(capsys, "poset-connectsum", str(tri), str(tri))
    assert code == 0 and report["h"] == [1, 2, 1]
    matching = tmp_path / "m.json"
    matching.write_text(json.dumps({"1": 2, "2": 1}))
    code, report = run(capsys, "poset-connectsum", str(tri), str(tri),
                       "--matching", str(matching))
    assert code == 0 and report["h"] == [1, 2, 1]


@pytest.mark.parametrize("matching", [[[1, 1], [2, 2], [3, 3]],
                                      {"a": 1, "2": 2, "3": 3},
                                      {"1": [1], "2": 2, "3": 3},
                                      {"1": 1.7, "2": 2},
                                      {"1": 1, "2": "2"},
                                      {"1": True, "2": 2},
                                      {"+1": 1, "2": 2},
                                      {" 1": 1, "2": 2}])
def test_connectsum_malformed_matching_exit_two(capsys, tmp_path, matching):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(to_json_dict(simplex_boundary(2))))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matching))
    code, report = run(capsys, "poset-connectsum", str(tri), str(tri),
                       "--matching", str(path))
    assert code == 2 and "m.json" in report["error"]


def test_homology_report(capsys, sphere2_file):
    code, report = run(capsys, "homology", sphere2_file)
    assert code == 0
    assert report["groups"] == [{"dim": 0, "betti": 0, "torsion": []},
                                {"dim": 1, "betti": 1, "torsion": []}]


def test_cm_and_gorenstein(capsys, sphere2_file, tmp_path):
    code, report = run(capsys, "cm-check", sphere2_file)
    assert code == 0 and report["ok"] is True
    code, report = run(capsys, "gorenstein-check", sphere2_file)
    assert code == 0 and report["ok"] is True and report["dehn_sommerville"]

    from torusfan.poset import simplex_poset
    disc = tmp_path / "disc.json"
    disc.write_text(json.dumps(to_json_dict(simplex_poset(3))))
    code, report = run(capsys, "gorenstein-check", str(disc))
    assert code == 1 and report["ok"] is False
    assert report["pseudomanifold"] is False


def test_non_pure_poset_names_the_refused_link(capsys, tmp_path):
    # a triangle boundary plus an isolated vertex q, which lies below no edge
    cells = [{"id": 0, "rank": 0, "covers": []}]
    cells += [{"id": v, "rank": 1, "covers": [0]} for v in (1, 2, 3)]
    cells += [{"id": 4, "rank": 1, "covers": [0], "label": "q"}]
    cells += [{"id": 5 + i, "rank": 2, "covers": c}
              for i, c in enumerate([[1, 2], [2, 3], [1, 3]])]
    path = tmp_path / "nonpure.json"
    path.write_text(json.dumps({"rank": 2, "cells": cells}))
    for command in ("cm-check", "gorenstein-check"):
        code, report = run(capsys, command, str(path))
        assert code == 1 and report["violations"] == [
            "link of q: declared rank 1 but maximal element rank is 0"]


def test_charfun_find_and_check(capsys, sphere2_file, chi2_file, tmp_path):
    code, report = run(capsys, "charfun-find", sphere2_file, "--bound", "1")
    assert code == 0 and report["found"] is True
    found = tmp_path / "found.json"
    found.write_text(json.dumps(report["lambda"]))
    code, report = run(capsys, "charfun-check", sphere2_file, str(found))
    assert code == 0 and report["ok"] is True

    bad = tmp_path / "badchi.json"
    bad.write_text(json.dumps({"1": [2, 0], "2": [0, 1]}))
    code, report = run(capsys, "charfun-check", sphere2_file, str(bad))
    assert code == 1 and any("primitive" in v for v in report["violations"])


def test_gkm_report(capsys, sphere2_file, chi2_file):
    code, report = run(capsys, "gkm-report", sphere2_file, chi2_file,
                       "--dmax", "3")
    assert code == 0
    assert len(report["edges"]) == 2
    assert all(row["equal"] for row in report["dimensions"])


def _gkm_failure(violation):
    return ('{\n  "config": {\n    "seed": 0\n  },\n  "ok": false,\n'
            '  "violations": [\n    "characteristic map is not unimodular: '
            + violation + '"\n  ]\n}\n')


# realized (1,3,3,1): tops 13, 14 on vertices 1, 2, 4 (the first), 27, 28
# on 1, 2, 22 (reached across a ridge), and vertex 15 in tops 20, 21
GKM_FAILURES = {
    "first top": ({"4": [0, 1, 1]}, _gkm_failure(
        "Lq|Rp: vertex vectors have invariant factors [1, 1, 4]; "
        "Lq|Rq: vertex vectors have invariant factors [1, 1, 4]")),
    "crossed top": ({"22": [1, 0, 0]}, _gkm_failure(
        "Lq|Rp: vertex vectors have invariant factors [1, 1, 3]; "
        "Lq|Rq: vertex vectors have invariant factors [1, 1, 3]")),
    "missing vertex": ({"15": None}, _gkm_failure(
        "missing assignment on vertices [15]")),
}


@pytest.mark.parametrize("case", sorted(GKM_FAILURES))
def test_gkm_report_failure_bytes(capsys, tmp_path, case):
    change, expected = GKM_FAILURES[case]
    pout, lout = tmp_path / "p.json", tmp_path / "chi.json"
    assert cli.main(["realize", "--target", "1,3,3,1", "--poset-out",
                     str(pout), "--lambda-out", str(lout)]) == 0
    capsys.readouterr()
    chi = json.loads(lout.read_text())
    for v, vec in change.items():
        if vec is None:
            del chi[v]
        else:
            chi[v] = vec
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(chi))
    assert cli.main(["gkm-report", str(pout), str(bad)]) == 1
    assert capsys.readouterr().out == expected


def test_betti_report(capsys, sphere2_file, chi2_file):
    code, report = run(capsys, "betti", sphere2_file, chi2_file)
    assert code == 0
    assert report == {"field": "Q", "betti": [1, 0, 1], "matches_h": True,
                      "config": {"seed": 0}}
    code, report = run(capsys, "betti", sphere2_file, chi2_file, "--field", "2")
    assert code == 0 and report["field"] == "GF(2)"


def test_present_ring_report(capsys, sphere2_file, chi2_file):
    code, report = run(capsys, "present-ring", sphere2_file, chi2_file)
    assert code == 0
    products = {(r["left"], r["right"]): r["rhs"]
                for r in report["relations"]["products"]}
    assert products[(1, 2)] == "1 * x3 + 1 * x4"
    assert products[(3, 4)] == "0"
    assert report["relations"]["linear"] == ["1 * x1", "1 * x2"]


def test_sw_parity_report(capsys, sphere2_file, chi2_file):
    code, report = run(capsys, "sw-parity", sphere2_file, chi2_file)
    assert code == 0
    assert report["pairing"] == 0 and report["euler"] == 0
    assert report["consistent"] is True


def test_hilbert_check_report(capsys, sphere2_file):
    code, report = run(capsys, "hilbert-check", sphere2_file, "--dmax", "6")
    assert code == 0 and report["ok"] is True
    assert report["rows"][2] == {"k": 2, "count": 4, "expected": 4}


def test_reports_are_byte_identical(capsys, sphere2_file, chi2_file):
    outputs = set()
    for _ in range(2):
        cli.main(["gkm-report", sphere2_file, chi2_file])
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_poset_round_trip_through_cli(capsys, sphere2_file):
    code, report = run(capsys, "poset-validate", sphere2_file)
    emitted = report["poset"]
    again = to_json_dict(from_json_dict(emitted))
    assert again == emitted


def test_text_format(capsys, sphere2_file):
    code = cli.main(["--format", "text", "poset-hvector", sphere2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "f: [2, 2]" in out and "h: [1, 0, 1]" in out


def test_non_prime_characteristic_rejected(capsys, sphere2_file, chi2_file):
    code, report = run(capsys, "homology", sphere2_file, "--char", "4")
    assert code == 2 and "neither 0 nor prime" in report["error"]
    code, report = run(capsys, "betti", sphere2_file, chi2_file, "--field", "6")
    assert code == 2


def test_unknown_tops_rejected(capsys, sphere2_file):
    code, report = run(capsys, "poset-connectsum", sphere2_file, sphere2_file,
                       "--tops", "99", "98")
    assert code == 2 and "no such cells" in report["error"]


def test_rank_bound_env_override(capsys, monkeypatch, tmp_path):
    path = tmp_path / "sphere3.json"
    path.write_text(json.dumps(to_json_dict(sphere_poset(3))))
    monkeypatch.setenv("TORUSFAN_MAX_RANK", "2")
    code, report = run(capsys, "poset-validate", str(path))
    assert code == 1
    assert any("bound" in v for v in report["violations"])


def test_output_file(tmp_path, sphere2_file):
    target = tmp_path / "report.json"
    code = cli.main(["--output", str(target), "poset-hvector", sphere2_file])
    assert code == 0
    assert json.loads(target.read_text())["h"] == [1, 0, 1]


@pytest.mark.parametrize("cell", [{"id": 1, "rank": 1, "covers": "0"},
                                  {"id": 1.5, "rank": 1, "covers": [0]},
                                  {"id": 1, "rank": True, "covers": [0]},
                                  {"id": 1, "rank": 1, "covers": ["0"]},
                                  {"id": 1, "rank": 1, "covers": [0],
                                   "label": ["p"]}])
def test_non_integer_poset_fields_exit_two(capsys, tmp_path, cell):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 1, "cells": [
        {"id": 0, "rank": 0, "covers": []}, cell,
        {"id": 2, "rank": 1, "covers": [0]}]}))
    for command in ("poset-validate", "homology"):
        code, report = run(capsys, command, str(path))
        assert code == 2 and "bad.json" in report["error"]


@pytest.mark.parametrize("cell, reason", [
    ({"id": True, "rank": 1, "covers": [0]},
     "id, rank and covers entries must be integers"),
    ({"id": 1, "rank": 1, "covers": [0.0]},
     "id, rank and covers entries must be integers"),
    ({"id": 1, "rank": 1, "covers": [0], "label": 7}, "label must be a string"),
    ([1, 1, [0]], "a cell must be an object"),
    ({"id": 1, "rank": 1, "covers": "0"}, "covers must be a list"),
    ({"id": 1, "covers": [0]}, "'rank'")])
def test_bad_cell_types_name_the_first_bad_cell(capsys, tmp_path, cell,
                                                reason):
    # the cell after the bad one is bad too; only the first is named
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 1, "cells": [
        {"id": 0, "rank": 0, "covers": []}, cell,
        {"id": 2, "rank": 1, "covers": ["0"], "label": None}]}))
    for command in ("poset-validate", "homology"):
        assert cli.main([command, str(path)]) == 2
        assert capsys.readouterr().out == json.dumps(
            {"config": {"seed": 0},
             "error": f"{path}: bad cell entry {cell!r}: {reason}"},
            indent=2) + "\n"


@pytest.mark.parametrize("command", ["charfun-check", "gkm-report", "betti",
                                     "present-ring", "sw-parity"])
@pytest.mark.parametrize("vectors", [{"1": [1, 0], "2": [0, 1, 0]},
                                     {"1": [1, 0, 0], "2": [0, 1, 0]},
                                     {"1": "10", "2": [0, 1]},
                                     {"1": [1.0, 0], "2": [0, 1]},
                                     {"1": [True, 0], "2": [0, 1]},
                                     {" 1": [1, 0], "+2": [0, 1]},
                                     {"1": [1, 0], "+2": [0, 1]},
                                     {"1": [1, 0], "2 ": [0, 1]}])
def test_malformed_vectors_exit_two(capsys, tmp_path, sphere2_file,
                                    command, vectors):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(vectors))
    code, report = run(capsys, command, sphere2_file, str(path))
    # a key that is not a plain decimal integer is named; else the vector
    bad = [k for k in vectors if not re.fullmatch("-?[0-9]+", k)]
    expected = f"key {json.dumps(bad[0])}" if bad else "vector for"
    assert code == 2 and expected in report["error"]


def test_cm_check_takes_each_link_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "sd.json"
    path.write_text(json.dumps(to_json_dict(
        barycentric_subdivision(sphere_poset(3)))))
    calls = []
    link_homology = homology._link_homology

    def counted(poset, order, cofaces, x, n):
        calls.append(x)
        return link_homology(poset, order, cofaces, x, n)

    monkeypatch.setattr(homology, "_link_homology", counted)
    code, report = run(capsys, "cm-check", str(path), "--fields", "2,3")
    p = from_json_dict(json.loads(path.read_text()))
    assert code == 0 and [f["char"] for f in report["fields"]] == [2, 3]
    assert len(p) == 39 and sorted(calls) == sorted(p.elements())


@pytest.mark.parametrize("argv", [
    ["poset-validate", "{poset}"], ["poset-hvector", "{poset}"],
    ["poset-subdivide", "barycentric", "{poset}"],
    ["poset-join", "{poset}", "{poset}"],
    ["poset-connectsum", "{poset}", "{poset}"], ["homology", "{poset}"],
    ["cm-check", "{poset}"], ["gorenstein-check", "{poset}"],
    ["charfun-find", "{poset}"], ["charfun-check", "{poset}", "{chi}"],
    ["gkm-report", "{poset}", "{chi}"], ["betti", "{poset}", "{chi}"],
    ["present-ring", "{poset}", "{chi}"], ["sw-parity", "{poset}", "{chi}"],
    ["hilbert-check", "{poset}"], ["realize", "--target", "1,2,1"]])
def test_non_integer_rank_bound_exit_two(capsys, monkeypatch, sphere2_file,
                                         chi2_file, argv):
    monkeypatch.setenv("TORUSFAN_MAX_RANK", "abc")
    argv = [a.format(poset=sphere2_file, chi=chi2_file) for a in argv]
    code, report = run(capsys, *argv)
    assert code == 2 and "TORUSFAN_MAX_RANK" in report["error"]


# ---------------------------------------------------------------------------
# one parser per process


def _mixed_command_lines(poset, chi, bad_chi, bad, out):
    return [
        ["homology", poset], ["--format", "text", "homology", poset],
        ["homology", poset, "--format", "text"], ["homology", poset, "--char", "3"],
        ["homology", poset, "--char", "0", "--format", "text"],
        ["homology", poset, "--char", "4"], ["homology", poset, "--char", "x"],
        ["cm-check", poset], ["cm-check", poset, "--fields", "2,3"],
        ["--format", "text", "cm-check", poset, "--fields", "5"],
        ["cm-check", poset, "--fields", "2,x"], ["cm-check", bad],
        ["--seed", "7", "gorenstein-check", poset],
        ["gorenstein-check", poset, "--seed", "3"], ["--seed", "x", "homology", poset],
        ["--output", out, "poset-hvector", poset],
        ["poset-hvector", poset, "-o", out, "--format", "text"],
        ["charfun-check", poset, chi], ["charfun-check", poset, bad_chi],
        ["betti", poset, chi, "--field", "2"],
        ["present-ring", poset, chi], ["realize", "--target", "1,x"],
        [], ["nope", poset], ["homology"], ["homology", poset, "--unknown"],
        ["--format", "xml", "homology", poset], ["poset-validate", bad]]


def _run_all(capsys, argvs, out):
    results = []
    for argv in argvs:
        code = cli.main(list(argv))
        written = None
        if os.path.exists(out):
            with open(out) as fh:
                written = fh.read()
            os.remove(out)
        results.append((argv, code, capsys.readouterr().out, written))
    return results


def test_main_shares_one_parser_across_calls(capsys, monkeypatch, tmp_path,
                                             sphere2_file, chi2_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    bad_chi = tmp_path / "chi_not_unimodular.json"
    bad_chi.write_text(json.dumps({"1": [1, 0], "2": [1, 2]}))
    out = str(tmp_path / "report.txt")
    argvs = _mixed_command_lines(sphere2_file, chi2_file, str(bad_chi),
                                 str(bad), out) * 3
    cli._build_parser.cache_clear()
    shared = _run_all(capsys, argvs, out)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)
    # the same command lines, each parsed by a parser built afresh
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert shared == _run_all(capsys, argvs, out)
    assert {code for _, code, _, _ in shared} == {0, 1, 2}
    assert sum(written is not None for *_, written in shared) == 6


def test_import_leaves_out_dataclasses():
    src = os.path.dirname(os.path.dirname(torusfan.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, torusfan.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "False\n", proc.stderr


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(torusfan.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "torusfan", "realize", "--target", "1,0,1,0,1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "inadmissible"
