"""Admissibility, block decomposition, and the realization pipeline."""

import itertools
from types import SimpleNamespace

import pytest

from torusfan import poset as poset_mod, realize as realize_mod
from torusfan.charfun import check_unimodular, find_characteristic_map
from torusfan.cohomology import dehn_sommerville_check
from torusfan.homology import (euler_sphere_check, gorenstein_star,
                               pseudomanifold)
from torusfan.poset import connected_sum, to_json_dict
from torusfan.realize import (CASE1, CASE2, CASE3, INADMISSIBLE, MALFORMED,
                              Block, BlockDecomposition, HVectorTarget,
                              MalformedTargetError, Realization,
                              RealizationError, Refusal, SearchBoundError,
                              admissible, classify, decompose,
                              realize_decomposition, realize_with_lambda)


# ---------------------------------------------------------------------------
# classification


def test_classify_cases():
    assert classify([1, 1, 1])[0] == CASE3
    assert classify([1, 0, 1])[0] == CASE2
    assert classify([1, 0, 1, 0, 1])[0] == INADMISSIBLE
    assert classify([1, 1])[0] == CASE1
    assert classify([1, 2, 2, 1])[0] == CASE1


def test_classify_malformed():
    verdict, reasons = classify([1, 2, 0])
    assert verdict == MALFORMED and any("palindromic" in r for r in reasons)
    assert classify([2, 2])[0] == MALFORMED
    assert classify([1, -1, 1])[0] == MALFORMED
    assert classify([1])[0] == MALFORMED


def test_target_constructor_raises():
    with pytest.raises(MalformedTargetError):
        HVectorTarget([1, 2, 0])


def test_admissible_partitions_all_shapes():
    for n in range(1, 6):
        for interior in itertools.product(range(4), repeat=(n - 1)):
            entries = (1, *interior, 1)
            if not dehn_sommerville_check(entries):
                continue
            verdict = admissible(HVectorTarget(entries))
            assert verdict in (CASE1, CASE2, CASE3, INADMISSIBLE)
            if n % 2 == 1:
                assert verdict == CASE1
            elif entries[n // 2] % 2 == 0:
                assert verdict == CASE2
            else:
                assert verdict == (CASE3 if all(entries) else INADMISSIBLE)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_sphere_target():
    dec = decompose(HVectorTarget([1, 0, 1]))
    assert dec.blocks == (Block("sphere", 2),)


def test_decompose_middle_product():
    dec = decompose(HVectorTarget([1, 2, 1]))
    assert dec.blocks == (Block("sphere_product", 2, 1),)


def test_decompose_cpn_absorbs_remainder():
    dec = decompose(HVectorTarget([1, 1, 1]))
    assert dec.blocks == (Block("cpn", 2),)


def test_decompose_inadmissible_is_none():
    assert decompose(HVectorTarget([1, 0, 1, 0, 1])) is None


def test_decompose_never_mixes_sphere_with_other_blocks():
    for n in range(1, 6):
        for interior in itertools.product(range(4), repeat=(n - 1)):
            entries = (1, *interior, 1)
            if not dehn_sommerville_check(entries):
                continue
            dec = decompose(HVectorTarget(entries))
            if dec is None:
                continue
            kinds = [b.kind for b in dec.blocks]
            if "sphere" in kinds:
                assert kinds == ["sphere"]
            assert dec.target_h() == entries


# ---------------------------------------------------------------------------
# realization


def test_realize_sphere():
    poset, chi = realize_decomposition(BlockDecomposition(2, (Block("sphere", 2),)))
    assert poset.h_vector() == (1, 0, 1)
    assert check_unimodular(poset, chi)[0]


def test_realize_two_cp2_blocks():
    dec = BlockDecomposition(2, (Block("cpn", 2), Block("cpn", 2)))
    poset, chi = realize_decomposition(dec)
    assert poset.h_vector() == (1, 2, 1)
    assert check_unimodular(poset, chi)[0]


def test_realize_sphere_product_rank3():
    dec = BlockDecomposition(3, (Block("sphere_product", 3, 1),))
    poset, chi = realize_decomposition(dec)
    assert poset.h_vector() == (1, 1, 1, 1)
    assert check_unimodular(poset, chi)[0]


def test_realize_with_lambda_sphere():
    result = realize_with_lambda([1, 0, 1])
    assert isinstance(result, Realization)
    assert result.poset.h_vector() == (1, 0, 1)
    assert check_unimodular(result.poset, result.chi)[0]


def test_realize_empty_decomposition_aborts():
    from torusfan.realize import RealizationError
    with pytest.raises(RealizationError):
        realize_decomposition(BlockDecomposition(2, ()))


def test_realize_refusals():
    out = realize_with_lambda([1, 0, 1, 0, 1])
    assert isinstance(out, Refusal) and out.stage == INADMISSIBLE
    out = realize_with_lambda([1, 2, 0])
    assert isinstance(out, Refusal) and out.stage == MALFORMED


def test_non_integer_entries_are_malformed():
    out = realize_with_lambda([1, 2.5, 1])
    assert isinstance(out, Refusal) and out.stage == MALFORMED
    assert out.detail == "entries must be integers"
    assert classify([1, 2.5, 1]) == (MALFORMED, ["entries must be integers"])
    assert classify([1, "2", 1])[0] == MALFORMED


def test_realized_posets_pass_all_verdicts():
    for entries in ([1, 1], [1, 3, 1], [1, 1, 1, 1], [1, 2, 2, 2, 1]):
        result = realize_with_lambda(entries)
        p = result.poset
        assert p.h_vector() == tuple(entries)
        assert gorenstein_star(p).ok
        assert pseudomanifold(p).ok
        assert euler_sphere_check(p)
        assert dehn_sommerville_check(p.h_vector())


def test_records_keep_repr_eq_and_hash():
    assert repr(Block("sphere_product", 4, 1)) == \
        "Block(kind='sphere_product', n=4, k=1)"
    assert {Block("cpn", 2): 1}[Block("cpn", 2, 0)] == 1
    assert decompose(HVectorTarget([1, 2, 1])) == BlockDecomposition(
        2, (Block("sphere_product", 2, 1),))
    assert repr(realize_with_lambda([1, 0, 1, 0, 1])) == (
        "Refusal(stage='inadmissible', detail='even rank with odd middle "
        "entry and a zero entry')")


def test_search_bound_refusal_keeps_its_detail():
    out = realize_with_lambda([1, 1, 1], bound=0)
    assert out == Refusal("search-bound-exhausted",
                          "no characteristic map with coordinate bound 0")
    with pytest.raises(SearchBoundError):
        realize_decomposition(decompose(HVectorTarget([1, 1, 1])), bound=0)


def test_negative_bound_is_refused_not_exhausted():
    match = "expected a non-negative integer, got -1"
    with pytest.raises(ValueError, match=match):
        realize_with_lambda([1, 1, 1], bound=-1)
    with pytest.raises(ValueError, match=match):
        realize_decomposition(decompose(HVectorTarget([1, 1, 1])), bound=-1)


def test_gorenstein_failure_is_not_a_refusal(monkeypatch):
    monkeypatch.setattr(realize_mod, "gorenstein_star",
                        lambda p: SimpleNamespace(ok=False, witnesses=["w"]))
    with pytest.raises(RealizationError, match="not Gorenstein") as info:
        realize_with_lambda([1, 0, 1])
    assert not isinstance(info.value, SearchBoundError)


# ---------------------------------------------------------------------------
# the fold: shared blocks, carried atom sets


def _admissible_targets(max_rank, max_entry):
    out = []
    for n in range(1, max_rank + 1):
        for half in itertools.product(range(max_entry + 1), repeat=n // 2):
            h = [1, *half, *reversed(half[: (n - 1) // 2]), 1]
            if admissible(HVectorTarget(h)) != INADMISSIBLE:
                out.append(h)
    return out


def _fold_fresh_blocks(decomposition):
    posets = [b.build() for b in decomposition.blocks]
    out = posets[0]
    for nxt in posets[1:]:
        out = connected_sum(out, min(out.tops()), nxt, min(nxt.tops()))
    return out


def test_shared_block_fold_matches_fresh_blocks():
    targets = _admissible_targets(6, 2)
    assert len(targets) == 46
    for h in targets:
        dec = decompose(HVectorTarget(h))
        shared = realize_mod._fold_connected_sums(dec)
        fresh = _fold_fresh_blocks(dec)
        assert to_json_dict(shared) == to_json_dict(fresh), h
        assert shared._atom_table() == poset_mod._atom_sets(shared.cells.values())
        assert (find_characteristic_map(shared, 2)
                == find_characteristic_map(fresh, 2)), h


def test_realize_builds_each_block_and_atom_set_once(monkeypatch):
    builds, passes = [], []
    build, atom_sets = Block.build, poset_mod._atom_sets
    monkeypatch.setattr(Block, "build",
                        lambda self: builds.append(self) or build(self))
    monkeypatch.setattr(poset_mod, "_atom_sets",
                        lambda cells: passes.append(1) or atom_sets(cells))
    for h in ([1, 4, 1], [1, 4, 4, 1], [1, 3, 2, 3, 1], [1, 2, 2, 2, 2, 1]):
        distinct = set(decompose(HVectorTarget(h)).blocks)
        builds.clear()
        passes.clear()
        assert isinstance(realize_with_lambda(h), Realization)
        assert len(builds) == len(set(builds)) == len(distinct), h
        # one pass per block; none for the sums or the Gorenstein* test
        assert len(passes) == len(distinct), h
