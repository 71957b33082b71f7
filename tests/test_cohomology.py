"""Betti ranks, ring presentations, Dehn-Sommerville, the mod 2 parity test."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from torusfan import cohomology, facering, linalg
from torusfan.charfun import (CharacteristicMap, GKMError,
                              build_gkm_graph, check_unimodular,
                              find_characteristic_map,
                              gkm_subalgebra_dimension)
from torusfan.cohomology import (CohomologyError, betti_numbers,
                                 dehn_sommerville_check,
                                 graded_quotient_basis,
                                 present_cohomology_ring, quotient_dimensions,
                                 sw_parity)
from torusfan.facering import (chain_monomial, format_element,
                               graded_dimension, hilbert_check)
from torusfan.homology import link_verdicts
from torusfan.poset import (Cell, SimplicialPoset, barycentric_subdivision,
                            simplex_boundary, sphere_poset,
                            sphere_product_poset)
from conftest import random_surgery, realized_family
from quotient_oracle import full_row_quotient, pairwise_presentation
from test_charfun import _degrees, _non_pure, cp2_chi, sphere_chi
from test_linalg import _unimodular


# ---------------------------------------------------------------------------
# Betti numbers


def test_betti_sphere2():
    p, chi = sphere_chi(2)
    assert betti_numbers(p, chi) == (1, 0, 1)


def test_betti_cp2():
    p, chi = cp2_chi()
    assert betti_numbers(p, chi) == (1, 1, 1)


def test_betti_sphere_product():
    p = sphere_product_poset(1, 1)
    chi = find_characteristic_map(p, 1)
    assert betti_numbers(p, chi) == (1, 2, 1)


def test_betti_equals_h_over_all_fields():
    cases = [cp2_chi(), sphere_chi(2), sphere_chi(3)]
    p = sphere_product_poset(1, 1)
    cases.append((p, find_characteristic_map(p, 1)))
    for p, chi in cases:
        h = p.h_vector()
        assert all(link_verdicts(p, (0, 2, 3, 5))[0].values())
        for char in (0, 2, 3, 5):
            assert betti_numbers(p, chi, char) == h, (p, char)


def test_betti_over_q_at_rank_7():
    # 255 cells; once reduced, six of the seven forms are a single vertex
    p, chi = realized_family([(1,) * 8])[(1,) * 8]
    assert len(p) == 255
    assert betti_numbers(p, chi) == p.h_vector()


def test_betti_requires_unimodular(s4_poset):
    chi = CharacteristicMap(2, {1: (1, 0), 2: (1, 0)})
    with pytest.raises(CohomologyError):
        betti_numbers(s4_poset, chi)


def test_quotient_vanishes_above_top_degree():
    for p, chi in (cp2_chi(), sphere_chi(2)):
        dims = quotient_dimensions(p, chi, 0, kmax=p.rank + 2)
        assert dims[p.rank + 1] == 0 and dims[p.rank + 2] == 0


def test_betti_palindromic_iff_dehn_sommerville():
    for p, chi in (cp2_chi(), sphere_chi(3)):
        betti = betti_numbers(p, chi)
        assert (tuple(reversed(betti)) == betti) == dehn_sommerville_check(
            p.h_vector())


def _two_disjoint_edges():
    cells = [Cell(0, 0, ()), Cell(1, 1, (0,)), Cell(2, 1, (0,)),
             Cell(3, 1, (0,)), Cell(4, 1, (0,)),
             Cell(5, 2, (1, 2)), Cell(6, 2, (3, 4))]
    return SimplicialPoset(2, cells)


def test_betti_differs_from_h_without_cm():
    # two disjoint edges: pure but disconnected, h = (1, 2, -1); the
    # quotient dimensions stay non-negative, so they cannot match h
    p = _two_disjoint_edges()
    assert p.h_vector() == (1, 2, -1)
    chi = find_characteristic_map(p, 1)
    betti = betti_numbers(p, chi)
    assert betti != p.h_vector()
    assert all(b >= 0 for b in betti)


def test_graded_quotient_basis_sizes():
    p, chi = cp2_chi()
    basis = graded_quotient_basis(p, chi)
    assert [len(basis[k]) for k in range(3)] == [1, 1, 1]
    for k, elems in basis.items():
        for a in elems:
            assert _degrees(a) in ([], [2 * k])  # homogeneous of degree 2k


def test_quotient_names_missing_vertices():
    p = simplex_boundary(2)
    chi = CharacteristicMap(2, {1: (1, 0), 2: (0, 1)})
    for call in (quotient_dimensions, graded_quotient_basis, sw_parity):
        with pytest.raises(CohomologyError,
                           match=r"^characteristic map misses vertices \[3\]$"):
            call(p, chi)


def test_quotient_refuses_a_negative_degree_bound():
    p, chi = realized_family([(1, 3, 3, 1)])[(1, 3, 3, 1)]
    for call in (quotient_dimensions, graded_quotient_basis):
        with pytest.raises(ValueError, match="non-negative"):
            call(p, chi, 2, -1)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_quotient_basis_is_the_chain_monomial_basis(seed, op):
    # the columns come from the vertex products one degree down; the
    # surgeries include posets that are not simplicial complexes
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    chi = CharacteristicMap(p.rank, {v: (1,) + (0,) * (p.rank - 1)
                                     for v in p.vertices()})
    quotient = cohomology._quotient(p, chi, 2, p.rank + 1)
    for k, (index, _, _) in enumerate(quotient):
        assert list(index) == facering.chain_monomial_basis(p, k), k
        assert list(index.values()) == list(range(len(index)))


# ---------------------------------------------------------------------------
# the row criterion against the quotient with every row


def _assert_same_quotient(p, chi, char, kmax):
    fast = cohomology._quotient(p, chi, char, kmax)
    full = full_row_quotient(p, chi, char, kmax)
    assert len(fast) == len(full) == kmax + 1
    for (index, span, _), (full_index, full_span) in zip(fast, full):
        assert list(index) == list(full_index)
        assert span.rank == full_span.rank
        assert sorted(span.rows) == sorted(full_span.rows)
        # with equal ranks, one inclusion makes the row spaces equal
        assert not any(full_span.add(row) for row in span.rows.values())
        if char:  # residues are canonical over GF(p) only
            for i in range(len(index)):
                assert span.reduce({i: 1}) == full_span.reduce({i: 1})


def _random_map(rng, p):
    vectors = {}
    for v in p.vertices():
        vec = (0,) * p.rank
        while gcd(*vec) != 1:
            vec = tuple(rng.randint(-3, 3) for _ in range(p.rank))
        vectors[v] = vec
    return CharacteristicMap(p.rank, vectors)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_row_criterion_matches_every_row_on_realized_posets(char):
    for p, chi in realized_family().values():
        _assert_same_quotient(p, chi, char, p.rank + 1)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_row_criterion_matches_every_row_without_parameters(char):
    rng = random.Random(9 + char)
    posets = [sphere_product_poset(1, 2), simplex_boundary(3),
              barycentric_subdivision(simplex_boundary(2))]
    for p in posets:
        maps = [_random_map(rng, p) for _ in range(30)]
        assert not all(check_unimodular(p, chi)[0] for chi in maps)
        for chi in maps:
            _assert_same_quotient(p, chi, char, p.rank + 1)
    p = _two_disjoint_edges()
    _assert_same_quotient(p, find_characteristic_map(p, 1), char, p.rank + 1)


def test_row_criterion_adds_no_zero_row_and_no_straightening(monkeypatch):
    family = realized_family()
    grew = []
    span_add = linalg.Span.add

    def counted_add(self, row):
        out = span_add(self, row)
        grew.append(out)
        return out

    def no_straightening(*args):
        raise AssertionError("straighten_product called")

    monkeypatch.setattr(linalg.Span, "add", counted_add)
    every_row = 0
    for p, chi in family.values():
        for char in (0, 2, 3):
            quotient = cohomology._quotient(p, chi, char, p.rank)
            every_row += chi.n * sum(len(index) for index, _, _ in quotient[:-1])
    assert grew and all(grew)
    assert len(grew) < every_row  # the criterion does leave rows out
    monkeypatch.setattr(facering, "straighten_product", no_straightening)
    for p, chi in family.values():
        for char in (0, 2, 3):
            assert betti_numbers(p, chi, char) == p.h_vector()
            basis = graded_quotient_basis(p, chi, char)
            assert [len(basis[k]) for k in sorted(basis)] == list(p.h_vector())
        report = sw_parity(p, chi)
        assert report.applicable and report.consistent


def _forms(p, chi, char):
    """The reduced linear forms of the quotient, one vector per vertex:
    the products of the degree-0 monomial are one term per vertex."""
    (terms,) = cohomology._quotient(p, chi, char, 1)[1][2]
    return {v: vec for _, vec, v in terms}


@pytest.mark.parametrize("char", [0, 2, 3])
def test_reduced_forms_have_unit_vectors_at_their_pivot_vertices(char):
    for p, chi in realized_family().values():
        vectors = _forms(p, chi, char)
        assert all(len(vec) == chi.n for vec in vectors.values())
        for j in range(chi.n):
            pivot = min(v for v, vec in vectors.items() if vec[j])
            lead = vectors[pivot][j]
            unit = [lead if i == j else 0 for i in range(chi.n)]
            assert list(vectors[pivot]) == unit, (p, char, j)
            assert lead == 1 if char else lead


@pytest.mark.parametrize("char", [0, 2, 3])
def test_forms_that_are_dependent_mod_2_are_fewer_there(char):
    # every last coordinate is even, so mod 2 the vectors span a proper
    # subspace and the last form vanishes
    rng = random.Random(23)
    posets = [p for p, _ in realized_family().values()]
    posets += [simplex_boundary(3), sphere_product_poset(1, 2)]
    for p in posets:
        vectors = {}
        for v in p.vertices():
            vec = (0,) * p.rank
            while gcd(*vec) != 1:
                vec = tuple(rng.randint(-3, 3) for _ in range(p.rank - 1)
                            ) + (2 * rng.randint(-2, 2),)
            vectors[v] = vec
        chi = CharacteristicMap(p.rank, vectors)
        forms = len(next(iter(_forms(p, chi, char).values())))
        assert forms == linalg.rank(list(vectors.values()), char)
        assert forms < p.rank or char != 2
        _assert_same_quotient(p, chi, char, p.rank + 1)


# ---------------------------------------------------------------------------
# a change of lattice basis changes no answer


def _assert_invariant_under(p, chi, a):
    moved = CharacteristicMap(chi.n, {
        v: tuple(sum(x * y for x, y in zip(row, vec)) for row in a)
        for v, vec in chi.vectors.items()})
    assert quotient_dimensions(p, moved) == quotient_dimensions(p, chi)
    for char in (0, 2, 3):
        got, want = (graded_quotient_basis(p, c, char) for c in (moved, chi))
        assert ({k: [e.terms for e in b] for k, b in got.items()}
                == {k: [e.terms for e in b] for k, b in want.items()}), char
    try:
        graph = build_gkm_graph(p, chi)
    except GKMError:
        with pytest.raises(GKMError):
            build_gkm_graph(p, moved)
        return
    moved_graph = build_gkm_graph(p, moved)
    for k in range(4):
        assert (gkm_subalgebra_dimension(moved_graph, k)
                == gkm_subalgebra_dimension(graph, k)), k


def test_realized_answers_do_not_depend_on_the_lattice_basis():
    rng = random.Random(31)
    for p, chi in realized_family().values():
        for _ in range(2):
            _assert_invariant_under(p, chi, _unimodular(rng, chi.n))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["join", "connected_sum", "stellar", "barycentric"]))
def test_surgery_answers_do_not_depend_on_the_lattice_basis(seed, op):
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    chi = find_characteristic_map(p, 1)
    if chi is not None:
        _assert_invariant_under(p, chi, _unimodular(rng, chi.n))


# ---------------------------------------------------------------------------
# ring presentation


def test_presentation_sphere2(s4_poset):
    chi = CharacteristicMap(2, {1: (1, 0), 2: (0, 1)})
    pres = present_cohomology_ring(s4_poset, chi)
    assert [(x, d) for x, d, _ in pres.generators] == [(1, 2), (2, 2), (3, 4),
                                                       (4, 4)]
    rels = {(x, y): format_element(rhs) for x, y, rhs in pres.product_relations}
    assert rels == {(1, 2): "1 * x3 + 1 * x4", (3, 4): "0"}
    assert [format_element(t) for t in pres.linear_relations] == ["1 * x1",
                                                                  "1 * x2"]


def test_presentation_two_points():
    p = simplex_boundary(1)
    chi = CharacteristicMap(1, {1: (1,), 2: (-1,)})
    pres = present_cohomology_ring(p, chi)
    rels = {(x, y): format_element(rhs) for x, y, rhs in pres.product_relations}
    assert rels == {(1, 2): "0"}
    assert [format_element(t) for t in pres.linear_relations] == [
        "1 * x1 + -1 * x2"]


def test_presentation_rank_zero():
    from torusfan.poset import point_poset
    pres = present_cohomology_ring(point_poset(), CharacteristicMap(0, {}))
    assert pres.generators == () and pres.product_relations == ()


def _assert_presentation_matches_oracle(p, chi):
    pres = present_cohomology_ring(p, chi)
    oracle = pairwise_presentation(p, chi)
    assert pres.generators == oracle.generators
    assert [(x, y) for x, y, _ in pres.product_relations] == [
        (x, y) for x, y, _ in oracle.product_relations]
    for (x, y, rhs), (_, _, expected) in zip(pres.product_relations,
                                             oracle.product_relations):
        # the same terms, inserted in the same order, over the same ring
        assert list(rhs.terms.items()) == list(expected.terms.items()), (x, y)
        assert rhs.ring.char == expected.ring.char
        assert rhs.ring.poset is p
        for mono in rhs.terms:
            assert chain_monomial(p, mono) == mono, (x, y, mono)
    assert [t.terms for t in pres.linear_relations] == [
        t.terms for t in oracle.linear_relations]


def test_presentation_matches_pairwise_oracle():
    rng = random.Random(4)
    cases = list(realized_family().values())
    cases.append((_two_disjoint_edges(),
                  find_characteristic_map(_two_disjoint_edges(), 1)))
    for p in (_non_pure(), sphere_product_poset(1, 2),
              barycentric_subdivision(_non_pure())):
        cases.append((p, _random_map(rng, p)))
    assert sum(not p.is_pure() for p, _ in cases) == 2
    for p, chi in cases:
        _assert_presentation_matches_oracle(p, chi)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_presentation_matches_pairwise_oracle_on_surgeries(seed, op):
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    _assert_presentation_matches_oracle(p, _random_map(rng, p))


# ---------------------------------------------------------------------------
# Dehn-Sommerville


def test_dehn_sommerville_examples():
    assert dehn_sommerville_check((1, 0, 1))
    assert dehn_sommerville_check((1, 2, 1))
    assert not dehn_sommerville_check((1, 2, 0))


# ---------------------------------------------------------------------------
# parity of the top characteristic class


def test_sw_parity_cp2():
    p, chi = cp2_chi()
    report = sw_parity(p, chi)
    assert report.applicable and report.pairing == 1 and report.euler == 1
    assert report.consistent
    assert sum(p.h_vector()) == 3  # the Euler characteristic behind it


def test_sw_parity_sphere2():
    p, chi = sphere_chi(2)
    report = sw_parity(p, chi)
    assert report.applicable and report.pairing == 0 and report.euler == 0
    assert report.consistent
    assert sum(p.h_vector()) == 2


def test_sw_parity_cp1():
    p = simplex_boundary(1)
    chi = CharacteristicMap(1, {1: (1,), 2: (-1,)})
    report = sw_parity(p, chi)
    assert report.applicable and report.pairing == 0 and report.consistent


def test_sw_parity_on_builder_family():
    for n in range(2, 5):
        for p in (simplex_boundary(n), sphere_poset(n)):
            chi = find_characteristic_map(p, 1)
            report = sw_parity(p, chi)
            assert report.applicable and report.consistent, (n, p)
    p = sphere_product_poset(1, 1)
    report = sw_parity(p, find_characteristic_map(p, 1))
    assert report.applicable and report.consistent


def test_sw_parity_inapplicable_without_mod2_parameters():
    # a unimodular map never degenerates mod 2 (Smith factors 1 stay 1),
    # so feed a non-unimodular one and expect the applicability gate
    cells = [Cell(0, 0, ()), Cell(1, 1, (0,)), Cell(2, 1, (0,)),
             Cell(3, 2, (1, 2)), Cell(4, 2, (1, 2))]
    p = SimplicialPoset(2, cells)
    chi = CharacteristicMap(2, {1: (1, 0), 2: (1, 2)})
    report = sw_parity(p, chi)
    assert not report.applicable
    assert "mod 2" in report.note


def test_sw_parity_names_the_cell_that_fails_mod_2():
    # primitive, but the edge 12 has determinant -2
    p = simplex_boundary(2)
    chi = CharacteristicMap(2, {1: (1, 1), 2: (1, -1), 3: (1, 0)})
    assert not check_unimodular(p, chi)[0]
    report = sw_parity(p, chi)
    assert not report.applicable
    assert report.note == "no linear system of parameters mod 2 (fails at 12)"


def test_sw_parity_refuses_mod_2_before_building_the_quotient(monkeypatch):
    calls = []
    real = cohomology._quotient
    monkeypatch.setattr(cohomology, "_quotient",
                        lambda *a: calls.append(a) or real(*a))
    p = simplex_boundary(2)
    chi = CharacteristicMap(2, {1: (1, 1), 2: (1, -1), 3: (1, 0)})
    assert sw_parity(p, chi) == cohomology.SWParityReport(
        False, note="no linear system of parameters mod 2 (fails at 12)")
    # a realized map with one vertex vector moved to agree mod 2 with another
    p, chi = realized_family([(1, 1, 1, 1)])[(1, 1, 1, 1)]
    v, w = p.vertices()[:2]
    moved = dict(chi.vectors)
    moved[v] = tuple(a + 2 * b for a, b in zip(chi.vec(w), (1,) + (0,) * 2))
    moved = CharacteristicMap(3, moved)
    ok, where = cohomology._mod2_parameters_ok(p, moved)
    assert not ok
    assert sw_parity(p, moved) == cohomology.SWParityReport(
        False, note=f"no linear system of parameters mod 2 (fails at {where})")
    with pytest.raises(CohomologyError, match="misses vertices"):
        sw_parity(p, CharacteristicMap(3, {v: chi.vec(v)}))
    assert not calls
    assert sw_parity(p, chi).applicable and len(calls) == 1


def _first_cell_failing_mod_2(p, chi):
    """Every cell in order, with a rank over GF(2) for each."""
    for x in p.elements():
        k = p.rank_of(x)
        if k and linalg.rank([chi.vec(v) for v in sorted(p.atoms(x))], 2) != k:
            return False, p.cell(x).named()
    return True, None


def test_mod2_parameter_test_matches_the_scan_over_every_cell():
    rng = random.Random(13)
    posets = [simplex_boundary(3), sphere_poset(3), _non_pure(),
              sphere_product_poset(1, 2), _two_disjoint_edges(),
              barycentric_subdivision(simplex_boundary(2))]
    outcomes = set()
    for p in posets:
        for _ in range(40):
            chi = _random_map(rng, p)
            expected = _first_cell_failing_mod_2(p, chi)
            assert cohomology._mod2_parameters_ok(p, chi) == expected
            outcomes.add(expected[0])
    assert outcomes == {True, False}
    # a unimodular map never fails mod 2
    for p, chi in realized_family().values():
        assert cohomology._mod2_parameters_ok(p, chi) == (True, None)


def test_sw_parity_requires_total_map(s4_poset):
    chi = CharacteristicMap(2, {1: (1, 0)})
    with pytest.raises(CohomologyError):
        sw_parity(s4_poset, chi)


def test_sw_parity_rejects_non_gorenstein(disc):
    chi = find_characteristic_map(disc, 1)
    report = sw_parity(disc, chi)
    assert not report.applicable


def test_sw_parity_needs_one_nonzero_socle_class():
    # edges {1,2} (doubled) and {1,3}: the degree-4 quotient is a line, but
    # the class of the top cell {1,3} vanishes in it mod 2
    cells = [Cell(0, 0, ()), Cell(1, 1, (0,)), Cell(2, 1, (0,)),
             Cell(3, 1, (0,)), Cell(4, 2, (1, 2)), Cell(5, 2, (1, 3)),
             Cell(6, 2, (1, 2))]
    p = SimplicialPoset(2, cells)
    chi = CharacteristicMap(2, {1: (1, -1), 2: (2, -1), 3: (1, 2)})
    report = sw_parity(p, chi)
    assert not report.applicable
    assert report.note == "top cells do not share a single nonzero socle class"


# ---------------------------------------------------------------------------
# equivariant series


def test_series_check_examples():
    for p in (sphere_poset(2), simplex_boundary(3)):
        assert hilbert_check(p, 2 * p.rank + 2).ok


def test_series_degree_zero_coefficient():
    report = hilbert_check(sphere_poset(2), 0)
    assert report.rows[0] == (0, 1, 1)


def test_graded_dimension_larger_degree():
    # series value by hand: sum over i of h_i * C(1 + 5 - i, 1) with h = (1,1,1)
    p = simplex_boundary(2)
    assert graded_dimension(p, 5) == 6 + 5 + 4
