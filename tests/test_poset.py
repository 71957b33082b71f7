"""Validation, f/h-vectors, joins and faces, subdivisions, sums."""

import random
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from torusfan import poset as poset_mod
from torusfan.poset import (Cell, PosetError, RankBoundError, SimplicialPoset,
                            barycentric_subdivision, connected_sum,
                            from_json_dict, join, max_rank_bound, point_poset,
                            poset_violations, simplex_boundary, simplex_poset,
                            sphere_poset, sphere_product_poset,
                            stellar_subdivision, to_json_dict)
from conftest import builder_family, random_gluing, random_surgery, s4_cells
import poset_oracle as oracle
from poset_oracle import are_isomorphic


SURGERIES = st.sampled_from(["base", "join", "connected_sum", "stellar",
                             "barycentric"])


# ---------------------------------------------------------------------------
# validation


def test_boolean_lattice_is_valid():
    cells = [Cell(0, 0, ()), Cell(1, 1, (0,)), Cell(2, 1, (0,)),
             Cell(3, 2, (1, 2))]
    p = SimplicialPoset(2, cells)
    assert p.rank == 2 and len(p) == 4


def test_bad_cover_count_is_rejected():
    cells = [Cell(0, 0, ()), Cell(1, 1, (0,)), Cell(2, 2, (1,))]
    with pytest.raises(PosetError) as err:
        SimplicialPoset(2, cells)
    assert any("cover count" in v for v in err.value.violations)


def test_s4_poset_is_valid():
    p = SimplicialPoset(2, s4_cells())
    assert [p.rank_of(x) for x in p.elements()] == [0, 1, 1, 2, 2]


def test_duplicate_ids_rejected():
    cells = [Cell(0, 0, ()), Cell(1, 1, (0,)), Cell(1, 1, (0,))]
    assert any("duplicate" in v for v in poset_violations(1, cells))


def test_multiple_minima_rejected():
    cells = [Cell(0, 0, ()), Cell(1, 0, ()), Cell(2, 1, (0,))]
    assert any("rank-0" in v for v in poset_violations(1, cells))


def test_non_boolean_segment_rejected():
    # a rank-3 cell over three edges where two edges share their vertex pair
    cells = [Cell(0, 0, ()),
             Cell(1, 1, (0,)), Cell(2, 1, (0,)), Cell(3, 1, (0,)),
             Cell(4, 2, (1, 2)), Cell(5, 2, (1, 2)), Cell(6, 2, (1, 3)),
             Cell(7, 3, (4, 5, 6))]
    assert any("non-boolean" in v for v in poset_violations(3, cells))


def test_rank_bound_respected(monkeypatch):
    monkeypatch.setenv("TORUSFAN_MAX_RANK", "3")
    with pytest.raises(PosetError):
        simplex_boundary(4)
    monkeypatch.delenv("TORUSFAN_MAX_RANK")
    simplex_boundary(4)


def test_rank_bound_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("TORUSFAN_MAX_RANK", "abc")
    with pytest.raises(ValueError, match="TORUSFAN_MAX_RANK"):
        max_rank_bound()


def test_random_simplex_gluings_validate():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.choice([2, 3])
        p = random_gluing(rng, n, pool_size=n + 3, n_tops=rng.randrange(1, 5))
        assert not poset_violations(p.rank, list(p.cells.values()))


def _assert_validates(p):
    assert not poset_violations(p.rank, list(p.cells.values()))
    data = to_json_dict(p)
    again = from_json_dict(data)
    assert to_json_dict(again) == data
    for x in p.cells:
        assert again.downset(x) == p.downset(x)
        assert again.atoms(x) == p.atoms(x)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_trusted_constructions_pass_full_validation(seed, op):
    p = random_surgery(random.Random(seed), op)
    _assert_validates(p)
    for x in p.elements():
        if any(y in p.tops() for y in oracle.upset(p, x)):
            _assert_validates(oracle.link(p, x))
        else:  # below no top cell: possible once a sum removes a top
            with pytest.raises(PosetError):
                oracle.link(p, x)


def test_mutated_tables_fail_validation():
    rng = random.Random(42)
    for _ in range(10):
        p = sphere_poset(rng.choice([2, 3]))
        cells = list(p.cells.values())
        i = rng.randrange(len(cells))
        c = cells[i]
        if c.rank < 2:
            continue
        cells[i] = Cell(c.id, c.rank, c.covers[:-1], c.label)
        assert poset_violations(p.rank, cells)


def test_validated_load_builds_atom_sets_once(monkeypatch):
    calls = []
    real = poset_mod._atom_sets
    monkeypatch.setattr(poset_mod, "_atom_sets",
                        lambda cells: calls.append(1) or real(cells))
    p = barycentric_subdivision(sphere_product_poset(1, 2))
    wire = to_json_dict(p)
    atoms = p._atom_table()
    for load in (lambda: from_json_dict(wire),
                 lambda: SimplicialPoset(p.rank, p.cells.values())):
        calls.clear()
        q = load()
        assert len(calls) == 1
        assert q._atoms == atoms
        assert q.leq(q.root, max(q.cells)) and q.join_set(q.root, q.root)
        assert len(calls) == 1
    # a trusted poset builds them on first use, once
    calls.clear()
    q = SimplicialPoset._trusted(p.rank, p.cells.values())
    assert to_json_dict(q) == wire and q.h_vector() == p.h_vector()
    assert q.downset(max(q.cells)) == oracle.downsets(q)[max(q.cells)]
    assert not calls and q._atoms is None
    assert q.leq(q.root, max(q.cells)) and q.atoms(max(q.cells))
    assert q._atoms == atoms
    assert len(calls) == 1


def _walk_oracle(rank, cells):
    """The violations with every lower segment walked: the first pass's,
    else those of the segment walk, whatever the counts decide."""
    problems, atoms = poset_mod._validate(rank, cells)
    if atoms is None:
        return problems
    return poset_mod._segment_violations({c.id: c for c in cells}, atoms)


def _mutate(rng, p, kind):
    """A cell table of p with one seeded mutation: a dropped cover, a cover
    retargeted to another element of its rank, or an edge doubled and put
    beside or in place of its original under a cell above it."""
    cells = list(p.cells.values())
    above = [c for c in cells if c.rank >= 2]
    if not above:
        return cells
    c = rng.choice(above)
    i = cells.index(c)
    j = rng.randrange(len(c.covers))
    if kind == "drop":
        cells[i] = Cell(c.id, c.rank, c.covers[:j] + c.covers[j + 1:], c.label)
    elif kind == "retarget":
        others = [y for y in p.by_rank(c.rank - 1) if y not in c.covers]
        if others:
            covers = list(c.covers)
            covers[j] = rng.choice(others)
            cells[i] = Cell(c.id, c.rank, tuple(covers), c.label)
    else:  # "double": a copy of an edge below c, standing in for a cover
        edges = [y for y in p.downset(c.id) if p.rank_of(y) == 2]
        if edges and c.rank >= 3:
            e = p.cell(rng.choice(edges))
            twin = max(p.cells) + 1
            cells.append(Cell(twin, 2, e.covers, "twin"))
            top = rng.choice([u for u in cells if u.rank == 3
                              and e.id in p.downset(u.id)])
            k = top.covers.index(e.id) if rng.random() < 0.5 else \
                rng.randrange(3)
            covers = list(top.covers)
            covers[k] = twin
            cells[cells.index(top)] = Cell(top.id, 3, tuple(covers), top.label)
    return cells


COUNTEREXAMPLE = [Cell(0, 0, ()),
                  Cell(1, 1, (0,)), Cell(2, 1, (0,)), Cell(3, 1, (0,)),
                  Cell(4, 2, (1, 2)), Cell(5, 2, (1, 2)), Cell(6, 2, (2, 3)),
                  Cell(7, 3, (4, 5, 6))]


def _covers_of_covers(table, x):
    return {d for y in table[x].covers for d in table[y].covers}


def test_counts_need_distinct_cover_atom_sets():
    # three atoms, eight elements and C(3, 2) covers of covers below the
    # rank-3 cell, yet not boolean
    table = {c.id: c for c in COUNTEREXAMPLE}
    atoms = poset_mod._atom_sets(COUNTEREXAMPLE)
    assert len(atoms[7]) == 3 and len(_covers_of_covers(table, 7)) == 3
    assert len(oracle.downsets(SimplicialPoset._trusted(3, COUNTEREXAMPLE))[7]) == 8
    assert not poset_mod._boolean_counts(table, atoms)
    assert poset_violations(3, COUNTEREXAMPLE) == _walk_oracle(
        3, COUNTEREXAMPLE) == ["#7: non-boolean lower segment (two faces "
                               "share a vertex set)"]


# a rank-4 cell over the triangles of {a, b, c, d} = {1, 2, 3, 4}, where
# the triangles abc and abd cover twin edges on {a, b}: every triangle is
# boolean and the four have distinct vertex sets
TWIN_EDGE = [Cell(0, 0, ()),
             Cell(1, 1, (0,)), Cell(2, 1, (0,)), Cell(3, 1, (0,)),
             Cell(4, 1, (0,)),
             Cell(5, 2, (1, 2)), Cell(6, 2, (1, 2)), Cell(7, 2, (1, 3)),
             Cell(8, 2, (1, 4)), Cell(9, 2, (2, 3)), Cell(10, 2, (2, 4)),
             Cell(11, 2, (3, 4)),
             Cell(12, 3, (5, 7, 9)), Cell(13, 3, (6, 8, 10)),
             Cell(14, 3, (7, 8, 11)), Cell(15, 3, (9, 10, 11)),
             Cell(16, 4, (12, 13, 14, 15))]


def test_counts_need_the_covers_of_covers():
    # four atoms and covers with distinct atom sets, yet seven covers of
    # covers where C(4, 2) = 6: the twin edges are two faces on {a, b}
    table = {c.id: c for c in TWIN_EDGE}
    atoms = poset_mod._atom_sets(TWIN_EDGE)
    assert len(atoms[16]) == 4
    assert len({atoms[y] for y in table[16].covers}) == 4
    assert len(_covers_of_covers(table, 16)) == 7
    assert not poset_mod._boolean_counts(table, atoms)
    assert poset_violations(4, TWIN_EDGE) == _walk_oracle(
        4, TWIN_EDGE) == ["#16: non-boolean lower segment (two faces "
                          "share a vertex set)"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), SURGERIES,
       st.sampled_from(["drop", "retarget", "double"]))
def test_counts_decide_as_the_segment_walk(seed, op, kind):
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    cells = _mutate(rng, p, kind)
    assert poset_violations(p.rank, cells) == _walk_oracle(p.rank, cells)
    problems, atoms = poset_mod._validate(p.rank, cells)
    if atoms is not None:
        assert poset_mod._boolean_counts(
            {c.id: c for c in cells}, atoms) == (not problems)


def test_mutations_reach_both_verdicts_of_the_walk():
    # the property above is not vacuous: its mutations give tables that
    # pass the first pass and then pass or fail the walk
    verdicts = set()
    rng = random.Random(7)
    for _ in range(200):
        p = random_surgery(rng, rng.choice(["base", "join", "barycentric"]))
        cells = _mutate(rng, p, rng.choice(["retarget", "double"]))
        problems, atoms = poset_mod._validate(p.rank, cells)
        if atoms is not None:
            verdicts.add(not problems)
    assert verdicts == {True, False}


def test_valid_loads_never_walk_a_segment(monkeypatch):
    walks = []
    real = poset_mod._segment_violations
    monkeypatch.setattr(poset_mod, "_segment_violations",
                        lambda *a: walks.append(1) or real(*a))
    rng = random.Random(11)
    for op in ["base", "join", "connected_sum", "stellar", "barycentric"] * 8:
        p = random_surgery(rng, op)
        from_json_dict(to_json_dict(p))
        SimplicialPoset(p.rank, p.cells.values())
    assert not walks
    assert poset_violations(3, COUNTEREXAMPLE) and len(walks) == 1


def test_cells_are_plain_records():
    c = Cell(3, 2, (1, 2), "G")
    assert repr(c) == "Cell(id=3, rank=2, covers=(1, 2), label='G')"
    assert c == Cell(3, 2, (1, 2), "G") != Cell(3, 2, (1, 2))
    assert hash(c) == hash((3, 2, (1, 2), "G"))
    assert Cell(1, 1, (0,)).label is None and not hasattr(c, "__dict__")


# ---------------------------------------------------------------------------
# joins, faces and meets


def test_s4_meet_join(s4_poset):
    p = s4_poset
    assert p.join_set(1, 2) == (3, 4)
    assert oracle.meet(p, 1, 2) == p.root
    assert p.join_set(3, 4) == ()


def test_simplex_boundary_meet_join():
    p = simplex_boundary(2)
    v1, v2, v3 = p.vertices()
    (e,) = p.join_set(v1, v2)
    assert p.atoms(e) == {v1, v2}
    assert oracle.meet(p, v1, v2) == p.root


def test_meet_join_idempotent():
    p = sphere_poset(3)
    for x in p.elements():
        assert p.join_set(x, x) == (x,)
        assert oracle.meet(p, x, x) == x


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), SURGERIES)
def test_face_is_the_element_below_z_on_its_vertices(seed, op):
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    for z in rng.sample(p.elements(), min(len(p), 40)):
        for y in p.downset(z):
            assert p.face(z, p.atoms(y)) == y, (z, y)
        outside = sorted(set(p.vertices()) - p.atoms(z))
        if outside:
            with pytest.raises(ValueError):
                p.face(z, p.atoms(z) | {rng.choice(outside)})


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), SURGERIES)
def test_leq_and_downset_match_the_cover_walk(seed, op):
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    down = oracle.downsets(p)
    for x in p.cells:
        assert p.downset(x) == down[x], x
    pairs = [(x, y) for x in p.cells for y in p.cells]
    for x, y in rng.sample(pairs, min(len(pairs), 2000)):
        assert p.leq(x, y) == (x in down[y]), (x, y)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), SURGERIES)
def test_meet_below_a_join_is_the_face_on_the_common_vertices(seed, op):
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    pairs = [(x, y) for x in p.cells for y in p.cells]
    for x, y in rng.sample(pairs, min(len(pairs), 500)):
        if p.join_set(x, y):
            face = p.face(x, p.atoms(x) & p.atoms(y))
            assert oracle.meet(p, x, y) == face, (x, y)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), SURGERIES)
def test_join_set_and_maximal_elements_match_upset_definitions(seed, op):
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    up = {x: oracle.upset(p, x) for x in p.cells}
    pairs = [(x, y) for x in p.cells for y in p.cells]
    for x, y in rng.sample(pairs, min(len(pairs), 3000)):
        common = up[x] & up[y]
        minimal = tuple(sorted(
            z for z in common
            if not any(w != z and w in common for w in p.downset(z))))
        assert p.join_set(x, y) == minimal, (x, y)
    assert p.maximal_elements() == tuple(
        sorted(x for x in p.cells if up[x] == {x}))


# ---------------------------------------------------------------------------
# f/h-vectors and Euler characteristics


def _h_oracle(f, n):
    # independent binomial form: h_j = sum_i (-1)^(j-i) C(n-i, j-i) f_{i-1}
    ext = (1,) + tuple(f)
    return tuple(sum((-1) ** (j - i) * comb(n - i, j - i) * ext[i]
                     for i in range(j + 1)) for j in range(n + 1))


def test_s4_f_h(s4_poset):
    assert s4_poset.f_vector() == (2, 2)
    assert s4_poset.h_vector() == (1, 0, 1)


def test_simplex_boundary_h():
    # expand (t-1)^2 + 3(t-1) + 3 = t^2 + t + 1
    p = simplex_boundary(2)
    assert p.f_vector() == (3, 3)
    assert p.h_vector() == (1, 1, 1)


def test_rank_zero_h():
    assert point_poset().h_vector() == (1,)


def test_h_matches_binomial_oracle():
    for name, p in builder_family(4).items():
        assert p.h_vector() == _h_oracle(p.f_vector(), p.rank), name


def test_h0_always_one_and_hn_for_spheres():
    for name, p in builder_family(4).items():
        h = p.h_vector()
        assert h[0] == 1, name
        chi_sphere = 1 + (-1) ** (p.rank - 1)
        if p.euler_characteristic() == chi_sphere:
            assert h[p.rank] == 1, name


def test_euler_characteristics():
    assert simplex_boundary(2).euler_characteristic() == 0
    assert sphere_poset(3).euler_characteristic() == 2
    single = SimplicialPoset(1, [Cell(0, 0, ()), Cell(1, 1, (0,))])
    assert single.euler_characteristic() == 1


# ---------------------------------------------------------------------------
# barycentric subdivision


def test_barycentric_two_points():
    p = simplex_boundary(1)
    sd = barycentric_subdivision(p)
    assert sd.f_vector() == (2,)


def test_barycentric_s4_is_four_cycle(s4_poset):
    sd = barycentric_subdivision(s4_poset)
    assert sd.f_vector() == (4, 4)
    for e in sd.by_rank(2):
        assert len(sd.atoms(e)) == 2
    assert sd.is_simplicial_complex()


def test_barycentric_triangle_is_hexagon():
    sd = barycentric_subdivision(simplex_boundary(2))
    assert sd.f_vector() == (6, 6)
    assert sd.is_simplicial_complex()


def test_barycentric_counts_chains():
    # independent chain enumeration
    for name, p in builder_family(3).items():
        elems = [x for x in p.elements() if x != p.root]
        chains = [[x] for x in elems]
        count = [len(elems)]
        while chains:
            longer = [c + [y] for c in chains for y in elems
                      if p.leq(c[-1], y) and c[-1] != y]
            if not longer:
                break
            count.append(len(longer))
            chains = longer
        sd = barycentric_subdivision(p)
        assert list(sd.f_vector()) == count, name


def test_barycentric_rank_bound():
    with pytest.raises(RankBoundError):
        barycentric_subdivision(sphere_poset(7), force=False)


# ---------------------------------------------------------------------------
# stellar subdivision


def test_stellar_at_vertex_is_relabeling():
    p = sphere_poset(2)
    q = stellar_subdivision(p, p.vertices()[0])
    assert are_isomorphic(p, q)


def test_stellar_at_edge_of_triangle():
    p = simplex_boundary(2)
    edge = p.by_rank(2)[0]
    q = stellar_subdivision(p, edge)
    assert q.f_vector() == (4, 4)


def test_stellar_rejects_root():
    p = sphere_poset(2)
    with pytest.raises(PosetError):
        stellar_subdivision(p, p.root)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), SURGERIES)
def test_stellar_matches_the_join_scan_at_every_cell(seed, op):
    p = random_surgery(random.Random(seed), op)
    for x in p.elements()[1:]:
        assert (to_json_dict(stellar_subdivision(p, x))
                == to_json_dict(oracle.stellar_by_joins(p, x))), x


def test_stellar_at_a_vertex_of_sd_of_a_rank_6_sphere_within_budget():
    # ``oracle.stellar_by_joins`` (a join_set scan per element outside the
    # star) takes about a minute on a 2-CPU x86 host with Python
    # 3.11; walking the star takes under a second
    p = barycentric_subdivision(simplex_boundary(6))
    start = time.perf_counter()
    q = stellar_subdivision(p, p.vertices()[0])
    assert time.perf_counter() - start < 10
    assert q.f_vector() == p.f_vector()


def test_stellar_sequence_is_barycentric():
    for name, p in builder_family(3).items():
        out = p
        for x in sorted((x for x in p.elements() if x != p.root),
                        key=lambda x: (-p.rank_of(x), x)):
            out = stellar_subdivision(out, x)
        assert are_isomorphic(out, barycentric_subdivision(p)), name


# ---------------------------------------------------------------------------
# join and connected sum


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_join_of_two_point_pairs_is_four_cycle():
    p = join(simplex_boundary(1), simplex_boundary(1))
    assert p.rank == 2 and p.f_vector() == (4, 4)
    assert p.h_vector() == (1, 2, 1)


def test_join_with_point_is_identity_up_to_iso():
    p = sphere_poset(2)
    assert are_isomorphic(join(p, point_poset()), p)


def test_join_h_is_product():
    family = list(builder_family(3).items())
    rng = random.Random(7)
    for _ in range(10):
        (n1, p1), (n2, p2) = rng.choice(family), rng.choice(family)
        if p1.rank + p2.rank > 5:
            continue
        h = join(p1, p2).h_vector()
        assert list(h) == _poly_mul(list(p1.h_vector()), list(p2.h_vector())), (n1, n2)


def test_join_sphere2_with_two_points():
    # product of h-polynomials: (1 + t^2)(1 + t) = 1 + t + t^2 + t^3
    out = join(sphere_poset(2), simplex_boundary(1))
    assert out.h_vector() == (1, 1, 1, 1)


def test_sphere_product_h():
    assert sphere_product_poset(1, 1).h_vector() == (1, 2, 1)
    assert sphere_product_poset(1, 2).h_vector() == (1, 1, 1, 1)


def test_connected_sum_triangles():
    p = simplex_boundary(2)
    q = simplex_boundary(2)
    out = connected_sum(p, p.tops()[0], q, q.tops()[0])
    assert out.h_vector() == (1, 2, 1)


def test_connected_sum_with_sphere_is_h_neutral():
    p = simplex_boundary(2)
    s = sphere_poset(2)
    out = connected_sum(p, p.tops()[0], s, s.tops()[0])
    assert out.h_vector() == p.h_vector()


def test_connected_sum_two_spheres():
    s1, s2 = sphere_poset(2), sphere_poset(2)
    out = connected_sum(s1, s1.tops()[0], s2, s2.tops()[0])
    assert out.h_vector() == (1, 0, 1)


def test_connected_sum_rank_mismatch():
    p, q = sphere_poset(2), sphere_poset(3)
    with pytest.raises(PosetError):
        connected_sum(p, p.tops()[0], q, q.tops()[0])


def test_connected_sum_bad_matching():
    p, q = sphere_poset(2), sphere_poset(2)
    with pytest.raises(PosetError):
        connected_sum(p, p.tops()[0], q, q.tops()[0], {1: 1, 2: 1})


def test_connected_sum_needs_a_remaining_top_cell():
    # two discs: removing both edges would leave two points in rank 2
    for n in (1, 2, 3):
        p, q = simplex_poset(n), simplex_poset(n)
        with pytest.raises(PosetError, match="only top cell"):
            connected_sum(p, p.tops()[0], q, q.tops()[0])
    with pytest.raises(PosetError, match="only top cell"):
        connected_sum(point_poset(), 0, point_poset(), 0)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_connected_sum_carries_its_atom_sets(seed):
    out = random_surgery(random.Random(seed), "connected_sum")
    assert out._atoms is not None
    assert out._atoms == poset_mod._atom_sets(out.cells.values())


def _assert_self_sum_matches_a_copy(p, make, rng):
    """P # P from one value equals P # (a separately built P)."""
    t1, t2 = rng.choice(p.tops()), rng.choice(p.tops())
    verts = sorted(p.atoms(t2))
    rng.shuffle(verts)
    matching = dict(zip(sorted(p.atoms(t1)), verts))
    same = connected_sum(p, t1, p, t2, matching)
    other = connected_sum(p, t1, make(), t2, matching)
    assert to_json_dict(same) == to_json_dict(other)
    assert (same._atom_table() == other._atom_table()
            == poset_mod._atom_sets(same.cells.values()))


def test_connected_sum_of_a_block_with_itself():
    rng = random.Random(5)
    for k in range(1, 5):
        for l in range(k, 6 - k):
            _assert_self_sum_matches_a_copy(
                sphere_product_poset(k, l),
                lambda: sphere_product_poset(k, l), rng)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), SURGERIES)
def test_connected_sum_of_a_random_poset_with_itself(seed, op):
    p = random_surgery(random.Random(seed), op)
    if p.rank and len(p.tops()) > 1:
        _assert_self_sum_matches_a_copy(
            p, lambda: random_surgery(random.Random(seed), op),
            random.Random(seed + 1))


def test_connected_sum_interior_additivity_random():
    family = [p for p in builder_family(4).values()]
    rng = random.Random(8)
    for _ in range(20):
        p1 = rng.choice(family)
        same_rank = [p for p in family if p.rank == p1.rank]
        p2 = rng.choice(same_rank)
        t1 = rng.choice(p1.tops())
        t2 = rng.choice(p2.tops())
        verts2 = sorted(p2.atoms(t2))
        rng.shuffle(verts2)
        out = connected_sum(p1, t1, p2, t2, dict(zip(sorted(p1.atoms(t1)), verts2)))
        h, h1, h2 = out.h_vector(), p1.h_vector(), p2.h_vector()
        n = p1.rank
        assert all(h[i] == h1[i] + h2[i] for i in range(1, n))
        assert h[0] == 1 and h[n] == h1[n] + h2[n] - 1


# ---------------------------------------------------------------------------
# builders


def test_simplex_boundary_counts():
    p = simplex_boundary(2)
    assert len(p) == 7  # root + 3 + 3
    assert p.h_vector() == (1, 1, 1)


def test_sphere_poset_shapes():
    assert sphere_poset(2).h_vector() == (1, 0, 1)
    p = sphere_poset(3)
    assert p.f_vector() == (3, 3, 2)
    assert len(p.tops()) == 2
    for t in p.tops():
        assert p.atoms(t) == set(p.vertices())


def test_builders_reject_bad_parameters():
    with pytest.raises(ValueError):
        simplex_boundary(0)
    with pytest.raises(ValueError):
        sphere_product_poset(0, 2)


# ---------------------------------------------------------------------------
# links: the oracle's link posets, which the homology tests compare with


def test_link_of_root_is_poset(s4_poset):
    link = oracle.link(s4_poset, s4_poset.root)
    assert are_isomorphic(link, s4_poset)


def test_link_of_sphere_vertex(s4_poset):
    link = oracle.link(s4_poset, 1)
    assert link.rank == 1 and link.f_vector() == (2,)


def test_link_of_triangle_vertex():
    p = simplex_boundary(2)
    link = oracle.link(p, p.vertices()[0])
    assert link.f_vector() == (2,)


def test_link_below_no_top_cell_is_refused():
    # a triangle boundary plus an isolated vertex 4: not pure
    cells = [Cell(0, 0, ())] + [Cell(v, 1, (0,)) for v in (1, 2, 3, 4)]
    cells += [Cell(5, 2, (1, 2)), Cell(6, 2, (2, 3)), Cell(7, 2, (1, 3))]
    p = SimplicialPoset(2, cells)
    with pytest.raises(PosetError, match="declared rank 1"):
        oracle.link(p, 4)
    for x in (0, 1, 5):
        link = oracle.link(p, x)
        assert not poset_violations(link.rank, list(link.cells.values()))


# ---------------------------------------------------------------------------
# JSON round trip


def test_json_round_trip(s4_poset):
    data = to_json_dict(s4_poset)
    again = from_json_dict(data)
    assert to_json_dict(again) == data
    assert data["cells"][0] == {"id": 0, "rank": 0, "covers": []}


def _two_points(**cell1):
    """JSON of two points, with fields of the cell with id 1 overridden."""
    cells = [{"id": 0, "rank": 0, "covers": []},
             {"id": 1, "rank": 1, "covers": [0]},
             {"id": 2, "rank": 1, "covers": [0]}]
    cells[1].update(cell1)
    return {"rank": 1, "cells": cells}


def test_json_rejects_bad_schema():
    with pytest.raises(ValueError):
        from_json_dict({"rank": 1})
    with pytest.raises(ValueError):
        from_json_dict({"rank": 1, "cells": [{"id": 0}]})
    assert from_json_dict(_two_points(label="p")).f_vector() == (2,)
    for bad in (_two_points(covers="0"), _two_points(covers=["0"]),
                _two_points(covers=[0.0]), _two_points(covers=[True]),
                _two_points(covers={"0": 0}), _two_points(id=1.5),
                _two_points(id="1"), _two_points(rank=True),
                _two_points(label=["p"]), _two_points(label=None),
                {**_two_points(), "rank": True}, {**_two_points(), "rank": 1.0},
                {"rank": 1, "cells": [0, 1]}):
        with pytest.raises(ValueError):
            from_json_dict(bad)
    # "12" used to be read as the covers (1, 2)
    edge = {"rank": 2, "cells": _two_points()["cells"] + [
        {"id": 3, "rank": 2, "covers": "12"}]}
    with pytest.raises(ValueError, match="covers must be a list"):
        from_json_dict(edge)
    edge["cells"][3]["covers"] = [1, 2]
    assert from_json_dict(edge).f_vector() == (2, 1)
