"""Straightening, restrictions, Hilbert series, the text format."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusfan.facering import (FaceRing, RingError, chain_monomial,
                               chain_monomial_basis, format_element,
                               graded_dimension, graded_dimensions,
                               hilbert_check,
                               lsop_from_lambda, monomial_degree, parse_element,
                               restriction_at_vertex, series_coefficient,
                               straighten_product, total_restriction,
                               upper_covers, vertex_products)
from torusfan.charfun import CharacteristicMap
from torusfan.poset import (Cell, SimplicialPoset, join, simplex_boundary,
                            sphere_poset, sphere_product_poset)
from conftest import (SMALL_REALIZED_TARGETS, builder_family, random_surgery,
                      realized_family)
from poset_oracle import downsets, meet, upset
from test_charfun import _degrees


def _random_element(ring, rng, max_terms=4, max_exp=3):
    poset = ring.poset
    elems = [x for x in poset.elements() if x != poset.root]
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        x = rng.choice(elems)
        chain = [x]
        while rng.random() < 0.5:
            above = [y for y in upset(poset, chain[-1]) if y != chain[-1]]
            if not above:
                break
            chain.append(rng.choice(above))
        pairs = [(c, rng.randrange(1, max_exp + 1)) for c in chain]
        coeff = rng.choice([c for c in range(-3, 4) if c])
        terms.append((pairs, coeff))
    return ring.element(terms)


# ---------------------------------------------------------------------------
# straightening


def test_s4_product_of_facet_generators(s4_poset):
    ring = FaceRing(s4_poset)
    out = ring.gen(1) * ring.gen(2)
    assert out == ring.gen(3) + ring.gen(4)


def test_s4_product_of_top_generators(s4_poset):
    ring = FaceRing(s4_poset)
    assert (ring.gen(3) * ring.gen(4)).is_zero()


def test_comparable_pair_is_already_normal(s4_poset):
    ring = FaceRing(s4_poset)
    sq = ring.gen(1) * ring.gen(1)
    assert sq.terms == {((1, 2),): 1}


def test_square_of_sum(s4_poset):
    ring = FaceRing(s4_poset)
    out = (ring.gen(1) + ring.gen(2)) ** 2
    expected = ring.element([([(1, 2)], 1), ([(2, 2)], 1), ([(3, 1)], 2),
                             ([(4, 1)], 2)])
    assert out == expected


def test_square_of_sum_mod_two(s4_poset):
    ring = FaceRing(s4_poset, 2)
    out = (ring.gen(1) + ring.gen(2)) ** 2
    assert out == ring.element([([(1, 2)], 1), ([(2, 2)], 1)])


def test_multiplication_by_one(s4_poset):
    ring = FaceRing(s4_poset)
    rng = random.Random(3)
    for _ in range(5):
        a = _random_element(ring, rng)
        assert a * ring.one() == a


def test_grading_is_additive():
    p = simplex_boundary(3)
    ring = FaceRing(p)
    rng = random.Random(4)
    for _ in range(10):
        a = _random_element(ring, rng, max_terms=1)
        b = _random_element(ring, rng, max_terms=1)
        (da,), (db,) = _degrees(a), _degrees(b)
        ab = a * b
        if not ab.is_zero():
            assert _degrees(ab) == [da + db]
            assert all(monomial_degree(p, m) % 2 == 0 for m in ab.terms)


def _straighten_random_order(poset, gens, rng):
    """Independent straightener: random term, random incomparable pair,
    rewrite with the defining relation, repeat."""
    terms = {tuple(sorted(gens, key=lambda x: (poset.rank_of(x), x))): 1}
    for _ in range(10000):
        target = None
        for chain in terms:
            pairs = [(i, j) for i, j in itertools.combinations(range(len(chain)), 2)
                     if not poset.leq(chain[i], chain[j])
                     and not poset.leq(chain[j], chain[i])]
            if pairs:
                target = (chain, pairs)
                break
        if target is None:
            break
        chain, pairs = target
        coeff = terms.pop(chain)
        i, j = rng.choice(pairs)
        x, y = chain[i], chain[j]
        rest = tuple(chain[k] for k in range(len(chain)) if k not in (i, j))
        ups = poset.join_set(x, y)
        m = meet(poset, x, y)
        for z in ups:
            new = rest + (z,) + (() if m == poset.root else (m,))
            new = tuple(sorted(new, key=lambda v: (poset.rank_of(v), v)))
            terms[new] = terms.get(new, 0) + coeff
        terms = {c: v for c, v in terms.items() if v}
    else:
        raise AssertionError("random rewriting did not terminate")
    out = {}
    for chain, coeff in terms.items():
        mono = []
        for v in chain:
            if mono and mono[-1][0] == v:
                mono[-1][1] += 1
            else:
                mono.append([v, 1])
        key = tuple((v, a) for v, a in mono)
        out[key] = out.get(key, 0) + coeff
    return {m: c for m, c in out.items() if c}


def test_confluence_random_rewrite_orders():
    rng = random.Random(11)
    for poset in (sphere_poset(2), simplex_boundary(2), sphere_poset(3),
                  sphere_product_poset(1, 1)):
        elems = [x for x in poset.elements() if x != poset.root]
        for _ in range(25):
            gens = [rng.choice(elems) for _ in range(rng.randrange(2, 5))]
            canonical = None
            for _ in range(3):
                rng.shuffle(gens)
                result = _straighten_random_order(poset, gens, rng)
                if canonical is None:
                    canonical = result
                else:
                    assert result == canonical


def test_library_matches_random_order_oracle():
    rng = random.Random(12)
    for poset in (sphere_poset(2), simplex_boundary(2), sphere_product_poset(1, 1)):
        elems = [x for x in poset.elements() if x != poset.root]
        for _ in range(20):
            g1, g2 = rng.choice(elems), rng.choice(elems)
            expected = _straighten_random_order(poset, [g1, g2], rng)
            got = straighten_product(poset, ((g1, 1),), ((g2, 1),))
            assert got == expected


def _vertex_products_match_straightening(poset):
    """vertex_products against the general straightening for every vertex
    and every chain monomial of degree up to 2 * rank; returns the count."""
    upper = upper_covers(poset)
    pairs = 0
    for k in range(poset.rank + 1):
        for m in chain_monomial_basis(poset, k):
            got = {v: {} for v in poset.vertices()}
            for v, mono in vertex_products(poset, m, upper):
                assert mono not in got[v], (v, m)
                got[v][mono] = 1
            for v in poset.vertices():
                assert got[v] == straighten_product(
                    poset, ((v, 1),), m), (v, m)
                pairs += 1
    return pairs


def test_vertex_product_matches_straightening(examples_rank4):
    posets = list(examples_rank4.values())
    targets = SMALL_REALIZED_TARGETS + ((1, 1, 1, 1, 1), (1, 2, 2, 2, 1),
                                        (1, 0, 0, 0, 0, 1), (1, 1, 1, 1, 1, 1))
    posets += [p for p, _ in realized_family(targets).values()]
    # doubled top cells: two tops on one vertex set
    assert any(len({p.atoms(t) for t in p.tops()}) < len(p.tops())
               for p in posets)
    assert sum(_vertex_products_match_straightening(p) for p in posets) > 10000


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_vertex_product_matches_straightening_on_surgeries(seed, op):
    _vertex_products_match_straightening(random_surgery(random.Random(seed), op))


def test_chain_monomial_rejects_non_chains(s4_poset):
    with pytest.raises(RingError):
        chain_monomial(s4_poset, [(1, 1), (2, 1)])
    with pytest.raises(RingError):
        chain_monomial(s4_poset, [(1, -1)])


def test_domain_mismatch_rejected(s4_poset):
    a = FaceRing(s4_poset).gen(1)
    b = FaceRing(s4_poset, 0).gen(1)
    with pytest.raises(RingError):
        a + b


# ---------------------------------------------------------------------------
# restrictions


def test_restriction_of_s4_generators(s4_poset):
    ring = FaceRing(s4_poset)
    p_top = 3
    assert str(restriction_at_vertex(ring.gen(1), p_top)) == "1*t1"
    assert str(restriction_at_vertex(ring.gen(2), p_top)) == "1*t2"
    assert str(restriction_at_vertex(ring.gen(3), p_top)) == "1*t1*t2"
    assert restriction_at_vertex(ring.gen(4), p_top).is_zero()


def test_restriction_of_one(s4_poset):
    ring = FaceRing(s4_poset)
    out = restriction_at_vertex(ring.one(), 3)
    assert str(out) == "1"


def test_restriction_zero_rule():
    p = simplex_boundary(2)
    ring = FaceRing(p)
    top = p.by_rank(2)[0]
    v_out = next(v for v in p.vertices() if not p.leq(v, top))
    assert restriction_at_vertex(ring.gen(v_out), top).is_zero()
    assert str(restriction_at_vertex(ring.gen(top), top)) == "1*t1*t2"


def test_total_restriction_components(s4_poset):
    ring = FaceRing(s4_poset)
    out = total_restriction(ring.gen(3))
    assert list(out) == [3, 4]
    assert str(out[3]) == "1*t1*t2" and out[4].is_zero()
    zero = total_restriction(ring.zero())
    assert all(poly.is_zero() for poly in zero.values())


def test_total_restriction_on_a_non_pure_poset():
    # an edge and an isolated vertex: both are maximal, only the edge is top
    p = SimplicialPoset(2, [Cell(0, 0, ()), Cell(1, 1, (0,)), Cell(2, 1, (0,)),
                            Cell(3, 1, (0,)), Cell(4, 2, (1, 2))])
    ring = FaceRing(p)
    out = total_restriction(ring.gen(3) + ring.gen(1))
    assert list(out) == [3, 4]
    assert str(out[3]) == "1*t1" and str(out[4]) == "1*t1"
    assert str(restriction_at_vertex(ring.gen(3), 3)) == "1*t1"


def test_restriction_is_ring_hom():
    p = sphere_poset(3)
    ring = FaceRing(p)
    rng = random.Random(5)
    top = p.tops()[0]
    for _ in range(10):
        a, b = _random_element(ring, rng), _random_element(ring, rng)
        left = restriction_at_vertex(a * b, top)
        right = restriction_at_vertex(a, top) * restriction_at_vertex(b, top)
        assert left == right


def test_total_restriction_injective_on_random_elements():
    rng = random.Random(6)
    for poset in (sphere_poset(2), simplex_boundary(2), sphere_product_poset(1, 1)):
        ring = FaceRing(poset)
        elements = {}
        while len(elements) < 40:
            a = _random_element(ring, rng)
            elements[tuple(sorted(a.terms.items()))] = a
        images = {tuple((p, poly.canonical()) for p, poly in
                        total_restriction(a).items())
                  for a in elements.values()}
        assert len(images) == len(elements)


# ---------------------------------------------------------------------------
# Hilbert series


def _brute_force_monomial_count(poset, k):
    """Every chain of rank sum at most k, listed one by one up the oracle's
    downsets, with its exponent vectors of weight k counted."""
    down = downsets(poset)
    elems = [x for x in poset.elements() if x != poset.root]
    above = {x: [y for y in elems if y != x and x in down[y]] for x in elems}

    def chains(chain, weight):
        yield chain
        for y in above[chain[-1]]:
            if weight + poset.rank_of(y) <= k:
                yield from chains(chain + (y,), weight + poset.rank_of(y))

    count = _compositions([], k)  # the empty chain
    for x in elems:
        if poset.rank_of(x) <= k:
            for chain in chains((x,), poset.rank_of(x)):
                count += _compositions([poset.rank_of(y) for y in chain], k)
    return count


def _compositions(ranks, total):
    if not ranks:
        return 1 if total == 0 else 0
    r, rest = ranks[0], ranks[1:]
    out = 0
    a = 1
    while a * r <= total:
        out += _compositions(rest, total - a * r)
        a += 1
    return out


def test_graded_dimensions_s4(s4_poset):
    assert [graded_dimension(s4_poset, k) for k in range(4)] == [1, 2, 4, 6]


def test_graded_dimensions_two_points():
    p = simplex_boundary(1)
    assert [graded_dimension(p, k) for k in range(5)] == [1, 2, 2, 2, 2]


def test_degree_zero_dimension_is_one():
    for name, p in builder_family(4).items():
        assert graded_dimension(p, 0) == 1, name


def test_graded_dimension_matches_brute_force():
    for poset in (sphere_poset(2), simplex_boundary(2), sphere_poset(3)):
        for k in range(5):
            assert graded_dimension(poset, k) == _brute_force_monomial_count(poset, k)


def test_graded_dimensions_share_one_count_across_degrees():
    for poset in (sphere_poset(2), simplex_boundary(2), sphere_poset(3),
                  sphere_product_poset(1, 1)):
        dims = graded_dimensions(poset, 5)
        assert dims == [graded_dimension(poset, k) for k in range(6)]
        assert dims == [_brute_force_monomial_count(poset, k) for k in range(6)]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]),
       st.booleans())
def test_rank_recurrence_matches_brute_force_on_surgeries(seed, op, suspend):
    # the suspension (a join with two points) takes the rank up to 5; it
    # keeps a poset that is not a simplicial complex one
    p = random_surgery(random.Random(seed), op)
    if suspend:
        p = join(p, simplex_boundary(1))
    kmax = p.rank + 1
    assert graded_dimensions(p, kmax) == [
        _brute_force_monomial_count(p, k) for k in range(kmax + 1)]


def test_negative_degrees():
    # a degree below zero has dimension 0; a negative bound is refused
    p = sphere_poset(2)
    assert graded_dimension(p, -1) == 0
    for call in (lambda: graded_dimensions(p, -1),
                 lambda: hilbert_check(p, -2)):
        with pytest.raises(ValueError,
                           match="expected a non-negative integer, got -"):
            call()
    assert hilbert_check(p, 0).rows == [(0, 1, 1)]


def test_basis_matches_dimension():
    for poset in (sphere_poset(2), simplex_boundary(3), sphere_product_poset(1, 1)):
        for k in range(4):
            basis = chain_monomial_basis(poset, k)
            assert len(basis) == graded_dimension(poset, k)
            assert len(set(basis)) == len(basis)
            assert all(monomial_degree(poset, m) == 2 * k for m in basis)


def test_hilbert_check_on_family():
    for name, p in builder_family(4).items():
        assert hilbert_check(p, 6).ok, name


def test_series_coefficient_rank_zero():
    assert series_coefficient((1,), 0, 0) == 1
    assert series_coefficient((1,), 0, 3) == 0


# ---------------------------------------------------------------------------
# linear systems


def test_lsop_s4(s4_poset):
    ring = FaceRing(s4_poset)
    chi = CharacteristicMap(2, {1: (1, 0), 2: (0, 1)})
    t1, t2 = lsop_from_lambda(ring, chi)
    assert t1 == ring.gen(1) and t2 == ring.gen(2)


def test_lsop_triangle():
    p = simplex_boundary(2)
    ring = FaceRing(p)
    v1, v2, v3 = p.vertices()
    chi = CharacteristicMap(2, {v1: (1, 0), v2: (0, 1), v3: (-1, -1)})
    t1, t2 = lsop_from_lambda(ring, chi)
    assert t1 == ring.gen(v1) - ring.gen(v3)
    assert t2 == ring.gen(v2) - ring.gen(v3)


def test_lsop_requires_total_map(s4_poset):
    ring = FaceRing(s4_poset)
    chi = CharacteristicMap(2, {1: (1, 0)})
    with pytest.raises(RingError):
        lsop_from_lambda(ring, chi)


# ---------------------------------------------------------------------------
# text format


def test_format_canonical_order(s4_poset):
    ring = FaceRing(s4_poset)
    a = ring.gen(3) + ring.gen(1) * 2 + ring.gen(1) * ring.gen(1)
    assert format_element(a) == "2 * x1 + 1 * x1^2 + 1 * x3"


def test_format_parse_round_trip():
    rng = random.Random(9)
    for poset in (sphere_poset(2), simplex_boundary(2)):
        for char in (None, 0):
            ring = FaceRing(poset, char)
            for _ in range(10):
                a = _random_element(ring, rng)
                assert parse_element(ring, format_element(a)) == a


def test_parse_fraction_coefficients(s4_poset):
    ring = FaceRing(s4_poset, 0)
    a = parse_element(ring, "1/2 * x1 + -3 * x3")
    assert a.terms[((1, 1),)] == Fraction(1, 2)
    assert a.terms[((3, 1),)] == -3


def test_parse_over_prime_field_is_exact():
    ring = FaceRing(sphere_poset(2), 3)
    a = parse_element(ring, "1/2 * x1 + 3/2 * x2")
    assert format_element(a) == "2 * x1"
    with pytest.raises(RingError):
        parse_element(ring, "1/3 * x1")


def test_coefficients_are_never_truncated(s4_poset):
    ring = FaceRing(s4_poset)
    with pytest.raises(TypeError):
        ring.gen(1).scale(0.5)
    with pytest.raises(TypeError):
        ring.gen(1) * 2.7
    with pytest.raises(RingError):
        ring.gen(1) * Fraction(1, 2)
    assert ring.gen(1) * Fraction(4, 2) == ring.gen(1) + ring.gen(1)
    assert FaceRing(s4_poset, 5).gen(1) * Fraction(1, 2) == \
        FaceRing(s4_poset, 5).gen(1) * 3


def _fractional_element(ring, rng, p):
    """A random element whose coefficients have denominators prime to p."""
    dens = [d for d in range(1, 8) if d % p]
    return sum((_random_element(ring, rng, max_terms=2, max_exp=2)
                * Fraction(1, rng.choice(dens)) for _ in range(2)), ring.zero())


def test_reduction_mod_p_commutes_with_ring_operations():
    rng = random.Random(11)
    for name, poset in builder_family(3).items():
        over_z, over_q = FaceRing(poset), FaceRing(poset, 0)
        for p in (2, 3, 5):
            over_p = FaceRing(poset, p)

            def reduce(a):
                return parse_element(over_p, format_element(a))

            pairs = [[_random_element(over_z, rng, max_exp=2) for _ in "ab"]
                     for _ in range(3)]
            pairs += [[_fractional_element(over_q, rng, p) for _ in "ab"]
                      for _ in range(3)]
            for a, b in pairs:
                assert reduce(a + b) == reduce(a) + reduce(b), (name, p)
                assert reduce(a * b) == reduce(a) * reduce(b), (name, p)


def test_format_zero(s4_poset):
    ring = FaceRing(s4_poset)
    assert format_element(ring.zero()) == "0"
    assert parse_element(ring, "0").is_zero()
