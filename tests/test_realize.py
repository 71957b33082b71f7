"""Admissibility, block decomposition, and the realization pipeline."""

import itertools

import pytest

from torusfan.charfun import check_unimodular
from torusfan.cohomology import dehn_sommerville_check
from torusfan.homology import (euler_sphere_check, gorenstein_star,
                               pseudomanifold)
from torusfan.realize import (CASE1, CASE2, CASE3, INADMISSIBLE, MALFORMED,
                              Block, BlockDecomposition, HVectorTarget,
                              MalformedTargetError, Realization, Refusal,
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
