"""Unimodularity, the characteristic-map search, GKM graphs and the
restriction algebra."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import search_oracle

from torusfan.charfun import (CharacteristicMap, GKMError, build_gkm_graph,
                              check_unimodular, divisibility_check,
                              face_ring_to_gkm, find_characteristic_map,
                              gkm_subalgebra_dimension, thom_class_restriction,
                              tuple_degree)
from torusfan.facering import FaceRing, chain_monomial_basis, graded_dimension
from torusfan.linalg import Span
from torusfan.polys import Poly
from torusfan.poset import (Cell, SimplicialPoset, barycentric_subdivision,
                            simplex_boundary, sphere_poset, sphere_product_poset)
from torusfan.realize import (INADMISSIBLE, HVectorTarget, admissible,
                              realize_with_lambda)
from conftest import builder_family, random_surgery


def divide_by_linear(poly, alpha):
    """Exact quotient poly / (linear form alpha), or None if not divisible:
    the long-division oracle for the hyperplane-restriction test."""
    n = poly.nvars
    j = next(i for i, c in enumerate(alpha) if c)
    rem = Poly(n, {e: Fraction(c) for e, c in poly.coeffs.items()})
    quot = Poly.zero(n)
    while not rem.is_zero():
        # peel off the term with the highest t_j power
        e = max(rem.coeffs, key=lambda m: (m[j], m))
        if e[j] == 0:
            return None
        qe = list(e)
        qe[j] -= 1
        qterm = Poly(n, {tuple(qe): rem.coeffs[e] / Fraction(alpha[j])})
        quot = quot + qterm
        rem = rem - qterm * Poly.linear(alpha)
    return quot


def cp2_chi():
    p = simplex_boundary(2)
    v1, v2, v3 = p.vertices()
    return p, CharacteristicMap(2, {v1: (1, 0), v2: (0, 1), v3: (-1, -1)})


def sphere_chi(n):
    p = sphere_poset(n)
    vecs = {v: tuple(int(i == j) for j in range(n))
            for i, v in enumerate(sorted(p.vertices()))}
    return p, CharacteristicMap(n, vecs)


# ---------------------------------------------------------------------------
# unimodularity


def test_cp2_standard_map_unimodular():
    p, chi = cp2_chi()
    ok, violations = check_unimodular(p, chi)
    assert ok and not violations


def test_sphere_coordinate_maps_unimodular():
    for n in (2, 3, 4):
        p, chi = sphere_chi(n)
        ok, _ = check_unimodular(p, chi)
        assert ok, n


def test_non_primitive_vector_reported():
    p = simplex_boundary(1)
    ok, violations = check_unimodular(p, {1: [1], 2: [2]})
    assert not ok
    assert any("not primitive" in v for v in violations)
    with pytest.raises(GKMError):
        CharacteristicMap(1, {1: (1,), 2: (2,)})
    with pytest.raises(GKMError):
        CharacteristicMap(2, {1: (0, 0)})


def test_non_integer_entries_reported():
    p = simplex_boundary(2)
    ok, violations = check_unimodular(p, {1: [1.2, 0], 2: ["0", 1], 3: [-1, -1]})
    assert not ok
    assert violations == ["vector for 1 has non-integer entries: [1.2, 0]",
                          "vector for 2 has non-integer entries: ['0', 1]"]
    with pytest.raises(GKMError, match="non-integer"):
        CharacteristicMap(2, {1: (1, 0), 2: (0, 1.5), 3: (-1, -1)})


def test_non_unimodular_pair_reported(s4_poset):
    ok, violations = check_unimodular(s4_poset, {1: [1, 0], 2: [1, 2]})
    assert not ok
    assert any("invariant" in v for v in violations)


def test_missing_assignment_reported(s4_poset):
    ok, violations = check_unimodular(s4_poset, {1: [1, 0]})
    assert not ok and any("missing" in v for v in violations)


@pytest.mark.parametrize("vectors", [{1: [1, 0], 2: [0, 1, 0]},
                                     {1: [1, 0, 0], 2: [0, 1, 0]},
                                     {1: [1], 2: [1]}])
def test_wrong_vector_length_reported(s4_poset, vectors):
    ok, violations = check_unimodular(s4_poset, vectors)
    assert not ok and any("expected 2" in v for v in violations)
    ok, violations = check_unimodular(s4_poset, CharacteristicMap(3, {
        1: (1, 0, 0), 2: (0, 1, 0)}))
    assert not ok and any("has length 3" in v for v in violations)


# ---------------------------------------------------------------------------
# search


def test_find_on_triangle_bound_one():
    p = simplex_boundary(2)
    chi = find_characteristic_map(p, 1)
    assert chi is not None
    assert check_unimodular(p, chi)[0]


def test_find_on_sphere3_bound_one():
    p = sphere_poset(3)
    chi = find_characteristic_map(p, 1)
    assert chi is not None
    assert check_unimodular(p, chi)[0]


def test_find_bound_zero_returns_none():
    assert find_characteristic_map(simplex_boundary(2), 0) is None


def test_find_is_deterministic():
    p = sphere_product_poset(1, 1)
    assert find_characteristic_map(p, 1) == find_characteristic_map(p, 1)


# ---------------------------------------------------------------------------
# the search against the Smith-normal-form-per-cell oracle


def _pool_targets():
    """Every admissible palindromic (1, h_1, ..., h_{n-1}, 1), n in 2..5,
    with entries at most 4."""
    out = []
    for n in range(2, 6):
        for half in itertools.product(range(5), repeat=n // 2):
            h = [1, *half, *reversed(half[: (n - 1) // 2]), 1]
            if admissible(HVectorTarget(h)) != INADMISSIBLE:
                out.append(h)
    return out


def _relabel(p, rng):
    """p with its cell ids permuted at random, so vertices meet the search
    in another order."""
    ids = sorted(p.cells)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    return SimplicialPoset(p.rank, [
        Cell(new[c.id], c.rank, tuple(sorted(new[d] for d in c.covers)),
             c.label) for c in p.cells.values()])


def _non_pure():
    """A triangle, an edge hanging off one of its vertices and an isolated
    vertex: maximal elements of ranks 3, 2 and 1."""
    faces = [(), (1,), (2,), (3,), (4,), (5,), (1, 2), (1, 3), (2, 3), (3, 4),
             (1, 2, 3)]
    ids = {f: i for i, f in enumerate(faces)}
    return SimplicialPoset(3, [
        Cell(ids[f], len(f), tuple(sorted(
            ids[g] for g in itertools.combinations(f, len(f) - 1))) if f else ())
        for f in faces])


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_search_matches_oracle_on_builders(bound):
    for name, p in builder_family(4).items():
        assert (find_characteristic_map(p, bound)
                == search_oracle.find_characteristic_map(p, bound)), name


def test_search_matches_oracle_on_realize_pool():
    targets = _pool_targets()
    assert len(targets) == 58
    for h in targets:
        result = realize_with_lambda(h)
        assert result.chi == search_oracle.find_characteristic_map(
            result.poset, 2), h


def test_search_matches_oracle_on_shared_atom_sets_and_non_pure():
    for p in [sphere_poset(n) for n in (1, 2, 3, 4)] + [_non_pure()]:
        for bound in (0, 1, 2):
            assert (find_characteristic_map(p, bound)
                    == search_oracle.find_characteristic_map(p, bound))
    chi = find_characteristic_map(_non_pure(), 1)
    assert chi is not None and check_unimodular(_non_pure(), chi)[0]


def test_search_matches_oracle_after_backtracking():
    # the realize pool never backtracks; relabelled subdivisions do, so
    # these cases rebuild quotient maps after the search goes back
    base = barycentric_subdivision(simplex_boundary(3))
    backtracked = 0
    for seed in range(30):
        p = _relabel(base, random.Random(seed))
        stats = {}
        expected = search_oracle.find_characteristic_map(p, 1, stats)
        assert find_characteristic_map(p, 1) == expected, seed
        backtracked += stats["backtracks"] > 0
    assert backtracked >= 5


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["join", "connected_sum", "stellar", "barycentric"]))
def test_found_maps_are_unimodular(seed, op):
    p = random_surgery(random.Random(seed), op)
    chi = find_characteristic_map(p, 1)
    if chi is not None:
        ok, violations = check_unimodular(p, chi)
        assert ok, violations


# ---------------------------------------------------------------------------
# GKM graphs


def test_s4_gkm_labels_and_signs():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    assert len(g.vertices) == 2 and len(g.edges) == 2
    for e in g.edges:
        assert e.sign == 1  # both orientations carry the same label here
    labels = {tuple(g.label(v, e)) for v in g.vertices for e in g.edges_at(v)}
    assert labels == {(1, 0), (0, 1)}


def test_cp2_gkm_axioms():
    p, chi = cp2_chi()
    g = build_gkm_graph(p, chi)
    assert len(g.vertices) == 3 and len(g.edges) == 3
    assert g.is_connected()


def test_rank_one_gkm():
    p = simplex_boundary(1)
    chi = CharacteristicMap(1, {1: (1,), 2: (-1,)})
    g = build_gkm_graph(p, chi)
    (e,) = g.edges
    assert set(e.labels) == {(1,), (-1,)}
    assert e.sign == -1


def test_dual_basis_pairing_identity():
    for p, chi in (cp2_chi(), sphere_chi(2), sphere_chi(3)):
        g = build_gkm_graph(p, chi)
        for v in g.vertices:
            atoms = sorted(p.atoms(v))
            for e in g.edges_at(v):
                (omitted,) = p.atoms(v) - p.atoms(e)
                label = g.label(v, e)
                for a in atoms:
                    dot = sum(x * y for x, y in zip(label, chi.vec(a)))
                    assert dot == (1 if a == omitted else 0)


def test_gkm_needs_pseudomanifold(disc):
    chi = find_characteristic_map(disc, 1)
    with pytest.raises(GKMError):
        build_gkm_graph(disc, chi)


def test_vertex_labels_form_basis():
    for p, chi in (cp2_chi(), sphere_chi(3)):
        g = build_gkm_graph(p, chi)
        for v in g.vertices:
            mat = [list(g.label(v, e)) for e in g.edges_at(v)]
            assert abs(_det(mat)) == 1


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j]
               * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(n))


# ---------------------------------------------------------------------------
# restriction tuples


def test_thom_class_of_root_is_all_ones():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    eta = thom_class_restriction(g, p.root)
    assert all(str(poly) == "1" for poly in eta.values())


def test_thom_class_of_s4_vertex():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    v1 = sorted(p.vertices())[0]
    eta = thom_class_restriction(g, v1)
    # one omitted edge per top cell; its label is dual to the vector of v1
    assert all(poly == Poly.linear((1, 0)) for poly in eta.values())
    assert tuple_degree(eta) == 1


def test_thom_class_of_top_cell():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    top = p.tops()[0]
    eta = thom_class_restriction(g, top)
    assert eta[top] == Poly.linear((1, 0)) * Poly.linear((0, 1))
    other = p.tops()[1]
    assert eta[other].is_zero()


# ---------------------------------------------------------------------------
# divisibility


def test_constant_tuple_divisible():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    eta = {v: Poly.const(2, 5) for v in g.vertices}
    ok, _ = divisibility_check(g, eta)
    assert ok


def test_thom_classes_always_divisible():
    for p, chi in (cp2_chi(), sphere_chi(2), sphere_chi(3)):
        g = build_gkm_graph(p, chi)
        for x in p.elements():
            eta = thom_class_restriction(g, x)
            ok, witnesses = divisibility_check(g, eta)
            assert ok, (x, witnesses)
            # quotients along edges are integral
            for e in g.edges:
                diff = eta[e.ends[0]] - eta[e.ends[1]]
                if diff.is_zero():
                    continue
                quot = divide_by_linear(diff, e.labels[0])
                assert quot is not None
                assert all(not hasattr(c, "denominator") or c.denominator == 1
                           for c in quot.coeffs.values())


def test_non_divisible_tuple_detected():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    tops = list(g.vertices)
    eta = {tops[0]: Poly.linear((1, 0)), tops[1]: Poly.zero(2)}
    # the t2-labelled edge requires the difference to vanish on t2 = 0
    ok, witnesses = divisibility_check(g, eta)
    assert not ok and witnesses


# ---------------------------------------------------------------------------
# the GKM subalgebra


def test_degree_zero_dimension_is_component_count():
    for p, chi in (cp2_chi(), sphere_chi(3)):
        g = build_gkm_graph(p, chi)
        assert g.is_connected()
        assert gkm_subalgebra_dimension(g, 0) == 1


def test_s4_degree_one_dimension():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    assert gkm_subalgebra_dimension(g, 1) == 2


def test_cp2_degree_one_dimension():
    p, chi = cp2_chi()
    g = build_gkm_graph(p, chi)
    assert gkm_subalgebra_dimension(g, 1) == 3


def test_gkm_dimension_equals_face_ring_dimension():
    for p, chi in (cp2_chi(), sphere_chi(2), sphere_chi(3)):
        g = build_gkm_graph(p, chi)
        for k in range(4):
            assert gkm_subalgebra_dimension(g, k) == graded_dimension(p, k)


# ---------------------------------------------------------------------------
# the ring map into restriction tuples


def test_phi_of_one_is_all_ones():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    ring = FaceRing(p)
    eta = face_ring_to_gkm(g, ring.one())
    assert all(str(poly) == "1" for poly in eta.values())


def test_phi_respects_straightening(s4_poset):
    chi = CharacteristicMap(2, {1: (1, 0), 2: (0, 1)})
    g = build_gkm_graph(s4_poset, chi)
    ring = FaceRing(s4_poset)
    left = face_ring_to_gkm(g, ring.gen(1) * ring.gen(2))
    right = face_ring_to_gkm(g, ring.gen(3) + ring.gen(4))
    assert left == right


def test_phi_is_ring_hom_on_random_pairs():
    rng = random.Random(17)
    p, chi = cp2_chi()
    g = build_gkm_graph(p, chi)
    ring = FaceRing(p)
    gens = [ring.gen(x) for x in p.elements() if x != p.root]
    for _ in range(10):
        a = sum((rng.choice(gens) for _ in range(2)), ring.zero())
        b = sum((rng.choice(gens) for _ in range(2)), ring.zero())
        lhs = face_ring_to_gkm(g, a * b)
        ra, rb = face_ring_to_gkm(g, a), face_ring_to_gkm(g, b)
        rhs = {v: ra[v] * rb[v] for v in g.vertices}
        assert lhs == rhs


def test_phi_injective_and_image_fills_subalgebra():
    for p, chi in (cp2_chi(), sphere_chi(2), sphere_chi(3)):
        g = build_gkm_graph(p, chi)
        ring = FaceRing(p)
        for k in range(4):
            basis = [ring.element([(m, 1)]) for m in chain_monomial_basis(p, k)]
            columns, image = {}, Span(0)
            for a in basis:
                image.add({columns.setdefault((v, m), len(columns)): c
                           for v, poly in face_ring_to_gkm(g, a).items()
                           for m, c in poly.coeffs.items()})
            image_rank = image.rank
            assert image_rank == len(basis)  # injective in this degree
            assert image_rank == gkm_subalgebra_dimension(g, k)


def test_phi_images_pass_divisibility():
    rng = random.Random(18)
    p, chi = sphere_chi(3)
    g = build_gkm_graph(p, chi)
    ring = FaceRing(p)
    gens = [ring.gen(x) for x in p.elements() if x != p.root]
    for _ in range(5):
        a = sum((rng.choice(gens) for _ in range(3)), ring.zero())
        for d in a.degrees():
            ok, _ = divisibility_check(g, face_ring_to_gkm(
                g, a.homogeneous_component(d)))
            assert ok
