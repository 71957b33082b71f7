"""Unimodularity, the characteristic-map search, GKM graphs and the
restriction algebra."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import gkm_oracle
import search_oracle

from torusfan import linalg
from torusfan.charfun import (CharacteristicMap, GKMError, build_gkm_graph,
                              candidate_vectors, check_unimodular,
                              divisibility_check, face_ring_to_gkm,
                              find_characteristic_map,
                              gkm_subalgebra_dimension, thom_class_restriction)
from torusfan.facering import (FaceRing, RingElement, chain_monomial_basis,
                               graded_dimension, monomial_degree)
from torusfan.homology import pseudomanifold
from torusfan.linalg import Span
from torusfan.polys import Poly, restrict_monomials, restrict_to_hyperplane
from torusfan.poset import (Cell, SimplicialPoset, barycentric_subdivision,
                            simplex_boundary, sphere_poset, sphere_product_poset)
from torusfan.realize import (INADMISSIBLE, HVectorTarget, admissible,
                              realize_with_lambda)
from conftest import (SMALL_REALIZED_TARGETS, builder_family, random_surgery,
                      realized_family)
from test_linalg import _unimodular


def _is_connected(graph):
    """True when every vertex of the GKM graph is reached from the first."""
    if not graph.vertices:
        return True
    seen = {graph.vertices[0]}
    queue = [graph.vertices[0]]
    while queue:
        v = queue.pop()
        for e in graph.edges:
            if v in e.ends:
                w = _other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return len(seen) == len(graph.vertices)


def _other_end(edge, vertex):
    """The end of a GKM edge that is not the given one."""
    p, q = edge.ends
    return q if vertex == p else p


def _edges_at(graph, vertex):
    """The ids of the GKM edges at a vertex, sorted."""
    return tuple(sorted(e.id for e in graph.edges if vertex in e.ends))


def _poly_degree(poly):
    """The total degree of a polynomial, -1 for the zero polynomial."""
    return max((sum(e) for e in poly.coeffs), default=-1)


def _degrees(a):
    """The sorted degrees of the chain monomials of a face-ring element."""
    return sorted({monomial_degree(a.ring.poset, m) for m in a.terms})


def _tuple_degree(eta):
    """The common degree of the nonzero polynomials of a restriction tuple
    (-1 when all are zero); GKMError when they differ."""
    degs = {_poly_degree(p) for p in eta.values() if not p.is_zero()}
    if len(degs) > 1:
        raise GKMError(f"restriction tuple is not homogeneous: degrees {degs}")
    return degs.pop() if degs else -1


def _homogeneous_component(a, degree):
    """The terms of the face-ring element a of the given degree."""
    p = a.ring.poset
    return RingElement(a.ring, {m: c for m, c in a.terms.items()
                                if monomial_degree(p, m) == degree})


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


def restrict_per_term(poly, alpha):
    """The per-term formula for the hyperplane restriction: one Poly per
    term, and t_j's replacement raised to e_j by repeated multiplication.
    The oracle for the substitution kernel."""
    n = poly.nvars
    j = next(i for i, c in enumerate(alpha) if c)
    repl = Poly(n, {tuple(1 if i == k else 0 for i in range(n)): -alpha[k]
                    for k in range(n) if k != j and alpha[k]})
    aj = alpha[j]
    out = Poly.zero(n)
    for e, c in poly.coeffs.items():
        rest = tuple(v if i != j else 0 for i, v in enumerate(e))
        term = Poly(n, {rest: c * aj ** (sum(e) - e[j])})
        out = out + term * repl ** e[j]
    return out


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


def test_find_refuses_a_negative_bound():
    with pytest.raises(ValueError,
                       match="expected a non-negative integer, got -1"):
        find_characteristic_map(simplex_boundary(2), -1)


def test_gkm_dimension_of_a_negative_degree_is_zero():
    p, chi = sphere_chi(2)
    assert gkm_subalgebra_dimension(build_gkm_graph(p, chi), -1) == 0


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


@pytest.mark.parametrize("h", [[1, 1, 1, 1, 1, 1, 1], [1, 1, 2, 1, 2, 1, 1]])
def test_search_matches_oracle_on_rank_six(h):
    p = realize_with_lambda(h).poset
    assert p.rank == 6
    assert (find_characteristic_map(p, 1)
            == search_oracle.find_characteristic_map(p, 1))


@st.composite
def _quotient_maps(draw):
    """(n, bound, maps): 1-3 integer maps of 1-3 rows (at most n) on Z^n,
    some rows with last entry 0; bound 3 only up to n = 5, so the
    lattice scan stays below 17,000 vectors."""
    n = draw(st.integers(1, 6))
    bound = draw(st.integers(1, 3 if n <= 5 else 2))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)

    def row():
        r = draw(entries)
        if draw(st.booleans()):
            r[-1] = 0
        return r

    maps = [[row() for _ in range(draw(st.integers(1, min(3, n))))]
            for _ in range(draw(st.integers(1, 3)))]
    return n, bound, maps


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_quotient_maps())
def test_candidate_vectors_match_a_lattice_scan(case):
    n, bound, maps = case
    lattice = itertools.product(range(-bound, bound + 1), repeat=n)
    expected = [c for c in lattice
                if all(gcd(*[sum(a * b for a, b in zip(r, c)) for r in q]) == 1
                       for q in maps)]
    assert list(candidate_vectors(maps, n, bound)) == expected


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["join", "connected_sum", "stellar", "barycentric"]))
def test_found_maps_are_unimodular(seed, op):
    p = random_surgery(random.Random(seed), op)
    chi = find_characteristic_map(p, 1)
    if chi is not None:
        ok, violations = check_unimodular(p, chi)
        assert ok, violations


def _random_primitive_map(rng, p):
    vectors = {}
    for v in p.vertices():
        vec = (0,) * p.rank
        while gcd(*vec) != 1:
            vec = tuple(rng.randint(-2, 2) for _ in range(p.rank))
        vectors[v] = vec
    return CharacteristicMap(p.rank, vectors)


def test_check_unimodular_matches_oracle_on_realized_maps():
    for h in _pool_targets():
        result = realize_with_lambda(h)
        got = check_unimodular(result.poset, result.chi)
        assert got == search_oracle.check_unimodular(result.poset, result.chi)
        assert got == (True, []), h


def test_check_unimodular_matches_oracle_on_random_maps():
    rng = random.Random(7)
    posets = list(builder_family(4).values()) + [_non_pure()]
    posets += [random_surgery(rng, op) for op in
               ("join", "connected_sum", "stellar", "barycentric") * 5]
    failing = 0
    for p in posets:
        if p.rank < 1:
            continue
        for _ in range(5):
            chi = _random_primitive_map(rng, p)
            got = check_unimodular(p, chi)
            assert got == search_oracle.check_unimodular(p, chi), (p, chi)
            failing += not got[0]
    assert failing >= 100


def test_check_unimodular_takes_one_determinant_per_top_and_no_snf(monkeypatch):
    dets, snfs = [], []
    det, snf = linalg.determinant, linalg.smith_normal_form
    monkeypatch.setattr(linalg, "determinant",
                        lambda mat: dets.append(mat) or det(mat))
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda mat: snfs.append(mat) or snf(mat))
    for h in ([1, 3, 3, 1], [1, 2, 2, 2, 1]):
        result = realize_with_lambda(h)
        p, chi = result.poset, result.chi
        dets.clear()
        snfs.clear()
        assert check_unimodular(p, chi)[0]
        assert snfs == [], h
        tops = p.maximal_elements()
        assert all(p.rank_of(t) == p.rank for t in tops)
        assert sorted(dets) == sorted([chi.vec(v) for v in sorted(p.atoms(t))]
                                      for t in tops), h


# ---------------------------------------------------------------------------
# GKM graphs


def test_s4_gkm_labels_and_signs():
    p, chi = sphere_chi(2)
    g = build_gkm_graph(p, chi)
    assert len(g.vertices) == 2 and len(g.edges) == 2
    for e in g.edges:
        assert e.sign == 1  # both orientations carry the same label here
    labels = {tuple(g.label(v, e))
              for v in g.vertices for e in _edges_at(g, v)}
    assert labels == {(1, 0), (0, 1)}


def test_cp2_gkm_axioms():
    p, chi = cp2_chi()
    g = build_gkm_graph(p, chi)
    assert len(g.vertices) == 3 and len(g.edges) == 3
    assert _is_connected(g)


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
            for e in _edges_at(g, v):
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
            mat = [list(g.label(v, e)) for e in _edges_at(g, v)]
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
    assert _tuple_degree(eta) == 1


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


def test_restriction_refuses_a_label_of_the_wrong_length():
    poly = Poly.linear((1, 1))  # t1 + t2
    for alpha in ((1, 1, 5), (0, 1, 1), (1,)):
        with pytest.raises(ValueError, match="variable count mismatch"):
            restrict_to_hyperplane(poly, alpha)


@st.composite
def _polys_and_labels(draw):
    """(poly, alpha): 1-5 variables, exponents at most 4, int or Fraction
    coefficients; alpha has entries in -3..3 and a first nonzero entry
    of absolute value 2 or 3, so the substitution scales as well as
    replaces.  Half the time poly is multiplied by alpha."""
    n = draw(st.integers(1, 5))
    coeff = st.one_of(st.integers(-9, 9),
                      st.fractions(min_value=-5, max_value=5,
                                   max_denominator=7))
    poly = Poly(n, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n), coeff, max_size=8)))
    lead = draw(st.integers(0, n - 1))
    alpha = ((0,) * lead + (draw(st.sampled_from((-3, -2, 2, 3))),)
             + tuple(draw(st.lists(st.integers(-3, 3), min_size=n - lead - 1,
                                   max_size=n - lead - 1))))
    if draw(st.booleans()):
        poly = poly * Poly.linear(alpha)
    return poly, alpha


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_polys_and_labels())
def test_substitution_kernel_matches_the_per_term_formula(case):
    poly, alpha = case
    image = restrict_to_hyperplane(poly, alpha)
    assert image == restrict_per_term(poly, alpha)
    monos = sorted(poly.coeffs)
    images = [{} for _ in monos]
    for i, f, c in restrict_monomials(poly.nvars, monos, alpha):
        assert f not in images[i] and c
        images[i][f] = c
    assert images == [restrict_per_term(Poly(poly.nvars, {e: 1}), alpha).coeffs
                      for e in monos]
    # a zero image says "divisible by alpha"
    assert image.is_zero() == (divide_by_linear(poly, alpha) is not None)


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
        assert _is_connected(g)
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


def test_gkm_dimension_at_degree_5_on_a_rank_5_realization():
    result = realize_with_lambda([1, 0, 2, 2, 0, 1])
    g = build_gkm_graph(result.poset, result.chi)
    assert gkm_subalgebra_dimension(g, 5) == 227
    assert graded_dimension(result.poset, 5) == 227


@pytest.mark.parametrize("h", [(1, 1, 1, 1, 1), (1, 0, 2, 2, 0, 1)])
def test_gkm_dimension_equals_face_ring_dimension_to_twice_the_rank(h):
    result = realize_with_lambda(list(h))
    p = result.poset
    g = build_gkm_graph(p, result.chi)
    for k in range(2 * p.rank + 1):
        assert gkm_subalgebra_dimension(g, k) == graded_dimension(p, k)


def _calls_to(monkeypatch, module, name):
    """The argument tuples of every call to module.name from now on."""
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _labels_in_first_basis(p, chi, g):
    """Each edge's label written in the basis of the vertex vectors of the
    first top, as ``gkm_subalgebra_dimension`` writes it."""
    basis = [chi.vec(v) for v in sorted(p.atoms(g.vertices[0]))]
    return [tuple(sum(a * b for a, b in zip(e.labels[0], u)) for u in basis)
            for e in g.edges]


def _is_unit(alpha):
    return sorted(map(abs, alpha)) == [0] * (len(alpha) - 1) + [1]


@pytest.mark.parametrize("h, edges, non_unit", [((1, 1, 1, 1, 1), 10, 6),
                                                ((1, 3, 3, 1), 12, 0)],
                         ids=["11111", "1331"])
def test_gkm_dimension_substitutes_once_per_non_unit_label(monkeypatch, h,
                                                           edges, non_unit):
    from torusfan import charfun, polys
    calls = _calls_to(monkeypatch, charfun, "restrict_monomials")
    result = realize_with_lambda(list(h))
    p = result.poset
    g = build_gkm_graph(p, result.chi)
    alphas = _labels_in_first_basis(p, result.chi, g)
    others = {a for a in alphas if not _is_unit(a)}
    assert len(alphas) == edges and len(others) == non_unit
    for k in range(2 * p.rank + 1):
        calls.clear()
        assert gkm_subalgebra_dimension(g, k) == graded_dimension(p, k)
        # one call per distinct label that is not +-e_j in the first top's
        # basis, each on every degree-k monomial; none for a unit label
        assert sorted(alpha for _, _, alpha in calls) == sorted(others)
        assert all(monos == polys.monomials_of_degree(p.rank, k)
                   for _, monos, _ in calls)


def _two_triangles():
    """Two boundaries of triangles sharing only 0-hat, with the standard
    map on each: a GKM graph with two components."""
    cells = [Cell(0, 0, ())] + [Cell(v, 1, (0,)) for v in range(1, 7)]
    for base in (1, 4):
        a, b, c = base, base + 1, base + 2
        for cover in ((a, b), (a, c), (b, c)):
            cells.append(Cell(len(cells), 2, cover))
    vectors = {}
    for base in (1, 4):
        vectors.update({base: (1, 0), base + 1: (0, 1), base + 2: (-1, -1)})
    return SimplicialPoset(2, cells), CharacteristicMap(2, vectors)


def _transformed(chi, a):
    """The map v -> a chi(v) for a unimodular matrix a."""
    return CharacteristicMap(chi.n, {
        v: tuple(sum(x * y for x, y in zip(row, vec)) for row in a)
        for v, vec in chi.vectors.items()})


# the realized family of rank <= 4, the same maps under a random unimodular
# change of lattice basis (labels that are not unit vectors), and a GKM
# graph with two components
GKM_CASES = ([(h, False) for h in SMALL_REALIZED_TARGETS]
             + [(h, True) for h in SMALL_REALIZED_TARGETS] + [(None, False)])


def _gkm_case(h, transform):
    """(poset, map) of one of GKM_CASES."""
    if h is None:
        return _two_triangles()
    p, chi = realized_family([h])[h]
    if transform:
        chi = _transformed(chi, _unimodular(random.Random(repr(h)), p.rank))
    return p, chi


def _gkm_case_id(case):
    h, transform = case
    if h is None:
        return "two-triangles"
    return "".join(map(str, h)) + ("-transformed" if transform else "")


def _assert_labels_invert_at_their_tops(p, chi, g):
    """At every top t, the edge omitting the j-th vertex carries the j-th
    column of the inverse of the vertex vectors at t."""
    for t in g.vertices:
        verts = sorted(p.atoms(t))
        inverse = linalg.invert_unimodular([chi.vec(v) for v in verts])
        for j, v in enumerate(verts):
            e = p.face(t, p.atoms(t) - {v})
            assert g.label(t, e) == tuple(row[j] for row in inverse), (t, v)
        assert len(_edges_at(g, t)) == len(verts)


def test_gkm_cases_have_non_unit_labels_and_two_components():
    cases = [(p, chi, build_gkm_graph(p, chi))
             for p, chi in (_gkm_case(*case) for case in GKM_CASES)]
    assert any(not _is_unit(a) for p, chi, g in cases
               for a in _labels_in_first_basis(p, chi, g))
    assert any(not _is_unit(label) for _, _, g in cases
               for e in g.edges for label in e.labels)
    g = build_gkm_graph(*_two_triangles())
    assert len(g.vertices) == 6 and not _is_connected(g)


@pytest.mark.parametrize("case", GKM_CASES, ids=_gkm_case_id)
def test_gkm_dimension_matches_the_one_span_count(case):
    p, chi = _gkm_case(*case)
    g = build_gkm_graph(p, chi)
    _assert_labels_invert_at_their_tops(p, chi, g)
    for k in range(2 * p.rank + 1):
        assert (gkm_subalgebra_dimension(g, k)
                == gkm_oracle.gkm_subalgebra_dimension(g, k)), k


def test_two_triangles_count_each_component():
    g = build_gkm_graph(*_two_triangles())
    cp2 = build_gkm_graph(*cp2_chi())
    for k in range(5):
        assert gkm_subalgebra_dimension(g, k) == 2 * gkm_subalgebra_dimension(
            cp2, k)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["join", "connected_sum", "stellar", "barycentric"]))
def test_gkm_labels_of_surgeries_invert_at_their_tops(seed, op):
    p = random_surgery(random.Random(seed), op)
    chi = find_characteristic_map(p, 1)
    if chi is None or not pseudomanifold(p).ok:
        return
    g = build_gkm_graph(p, chi)
    _assert_labels_invert_at_their_tops(p, chi, g)
    for k in range(3):
        assert (gkm_subalgebra_dimension(g, k)
                == gkm_oracle.gkm_subalgebra_dimension(g, k)), k


@pytest.mark.parametrize("case, components", [
    (((1, 2, 2, 1), False), 1), (((1, 0, 2, 0, 1), True), 1),
    ((None, False), 2)], ids=["1221", "10201-transformed", "two-triangles"])
def test_gkm_graph_inverts_once_per_component(monkeypatch, case, components):
    from torusfan import charfun
    p, chi = _gkm_case(*case)
    inversions = _calls_to(monkeypatch, linalg, "invert_unimodular")
    checks = _calls_to(monkeypatch, charfun, "check_unimodular")
    build_gkm_graph(p, chi)
    assert len(inversions) == components and checks == []


def _break_vertex(chi, v, vec):
    return CharacteristicMap(chi.n, {**chi.vectors, v: vec})


def test_gkm_failures_are_worded_by_check_unimodular(monkeypatch):
    from torusfan import charfun
    checks = _calls_to(monkeypatch, charfun, "check_unimodular")
    result = realize_with_lambda([1, 3, 3, 1])
    p, chi = result.poset, result.chi
    first = sorted(p.atoms(p.tops()[0]))
    last = sorted(p.atoms(p.tops()[-1]))[-1]
    assert last not in first
    missing = max(p.vertices())
    bad = {
        # the first top fails its inversion, a later one its crossing
        "first top": _break_vertex(chi, first[-1], (0, 1, 1)),
        "crossing": _break_vertex(chi, last, (1, 0, 0)),
        "missing": CharacteristicMap(3, {v: x for v, x in chi.vectors.items()
                                         if v != missing}),
        "longer": CharacteristicMap(4, {v: x + (1,)
                                        for v, x in chi.vectors.items()}),
        "shorter": CharacteristicMap(2, dict.fromkeys(chi.vectors, (1, 0))),
    }
    for name, wrong in bad.items():
        ok, violations = check_unimodular(p, wrong)
        assert not ok, name
        checks.clear()
        with pytest.raises(GKMError) as err:
            build_gkm_graph(p, wrong)
        assert str(err.value) == ("characteristic map is not unimodular: "
                                  + "; ".join(violations)), name
        assert len(checks) == 1, name


def test_gkm_graph_fails_exactly_when_check_unimodular_does():
    rng = random.Random(11)
    failing = 0
    for h, (p, _) in realized_family().items():
        for _ in range(8):
            chi = _random_primitive_map(rng, p)
            ok, violations = check_unimodular(p, chi)
            if ok:
                build_gkm_graph(p, chi)
                continue
            failing += 1
            with pytest.raises(GKMError) as err:
                build_gkm_graph(p, chi)
            assert str(err.value) == ("characteristic map is not unimodular: "
                                      + "; ".join(violations)), (h, chi)
    assert failing >= 40


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
        for d in _degrees(a):
            ok, _ = divisibility_check(g, face_ring_to_gkm(
                g, _homogeneous_component(a, d)))
            assert ok
