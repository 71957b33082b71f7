"""Chain complexes, Smith normal form, links, CM and Gorenstein* verdicts."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from torusfan import homology, linalg, poset as poset_mod
from torusfan.homology import (HomologyError, HomologyGroups,
                               _signed_boundary, euler_sphere_check,
                               gorenstein_star, link_verdicts, pseudomanifold,
                               reduced_homology)
from torusfan.linalg import smith_normal_form
from torusfan.poset import (Cell, PosetError, SimplicialPoset,
                            barycentric_subdivision, join, simplex_boundary,
                            simplex_poset, sphere_poset, sphere_product_poset,
                            stellar_subdivision)
from torusfan.cohomology import dehn_sommerville_check
from conftest import builder_family, random_surgery, realized_family
import poset_oracle as oracle
from poset_oracle import gorenstein_star_subdivided
from dense_linalg import (_rank_mod_p, _rank_rational, cell_chain_complex,
                          position_signs)
from dense_linalg import smith_normal_form as dense_smith_normal_form


def _two_points():
    return SimplicialPoset(1, [Cell(0, 0, ()), Cell(1, 1, (0,)),
                               Cell(2, 1, (0,))])


def _two_disjoint_edges():
    return SimplicialPoset(2, [Cell(0, 0, ()),
                               Cell(1, 1, (0,)), Cell(2, 1, (0,)),
                               Cell(3, 1, (0,)), Cell(4, 1, (0,)),
                               Cell(5, 2, (1, 2)), Cell(6, 2, (3, 4))])


def complex_from_facets(facets):
    """Face poset of the simplicial complex spanned by the given facets."""
    import itertools
    faces = sorted({t for f in facets for k in range(1, len(f) + 1)
                    for t in itertools.combinations(sorted(f), k)},
                   key=lambda t: (len(t), t))
    ids = {(): 0}
    cells = [Cell(0, 0, ())]
    for t in faces:
        ids[t] = len(cells)
        covers = tuple(sorted(ids[u] for u in itertools.combinations(t, len(t) - 1)))
        cells.append(Cell(ids[t], len(t), covers, "".join(map(str, t))))
    return SimplicialPoset(max(len(f) for f in facets), cells)


def projective_plane():
    """The 6-vertex triangulation of the real projective plane."""
    return complex_from_facets([
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
        (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6)])


def moore_space_mod3():
    """A triangulated disc whose boundary 9-gon wraps three times around
    the triangle 1, 2, 3: reduced homology Z/3 in dimension one."""
    ring = [4 + k for k in range(9)]
    outer = [1 + k % 3 for k in range(10)]
    facets = [(0, ring[k], ring[(k + 1) % 9]) for k in range(9)]
    facets += [(outer[k], outer[k + 1], ring[k]) for k in range(9)]
    facets += [(outer[k + 1], ring[k], ring[(k + 1) % 9]) for k in range(9)]
    return complex_from_facets(facets)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ([1, 1, 1], 3)


def test_snf_diagonal_divisible():
    assert smith_normal_form([[2, 0], [0, 4]]) == ([2, 4], 2)


def test_snf_coprime_diagonal():
    assert smith_normal_form([[2, 0], [0, 3]]) == ([1, 6], 2)


def test_snf_empty_and_zero():
    assert smith_normal_form([]) == ([], 0)
    assert smith_normal_form([[0, 0], [0, 0]]) == ([], 0)


def test_snf_divisibility_chain_random():
    import random
    rng = random.Random(13)
    for _ in range(25):
        m = [[rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))]
             for _ in range(rng.randrange(1, 5))]
        m = [row + [0] * (max(len(r) for r in m) - len(row)) for row in m]
        factors, rank = smith_normal_form(m)
        assert rank == len(factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


# ---------------------------------------------------------------------------
# chain complexes and homology


def test_boundary_squares_to_zero():
    for name, p in builder_family(4).items():
        cell_chain_complex(p)  # raises on a nonzero square


def _twin_edge_cell():
    """The rank-3 table of the ``poset`` docstring, trusted past the
    validation that refuses it: one cell over the edges {a, b}, {a, b}'
    and {b, c}, whose boundary has a nonzero boundary."""
    a, b, c = 1, 2, 3
    return SimplicialPoset._trusted(3, [
        Cell(0, 0, ()), Cell(a, 1, (0,)), Cell(b, 1, (0,)), Cell(c, 1, (0,)),
        Cell(4, 2, (a, b)), Cell(5, 2, (a, b)), Cell(6, 2, (b, c)),
        Cell(7, 3, (4, 5, 6))])


def test_signed_boundary_refuses_a_nonzero_square():
    with pytest.raises(HomologyError, match="boundary of boundary"):
        _signed_boundary(_twin_edge_cell())


def test_gorenstein_star_refuses_a_nonzero_square():
    # the verdicts read the checked signed boundary: the table is refused
    # before any link is taken
    with pytest.raises(HomologyError, match="boundary of boundary"):
        gorenstein_star(_twin_edge_cell())


def test_circle_homologies(s4_poset):
    assert reduced_homology(simplex_boundary(2)).groups == {0: (0, ()), 1: (1, ())}
    assert reduced_homology(s4_poset).groups == {0: (0, ()), 1: (1, ())}


def test_sphere3_homology():
    hom = reduced_homology(sphere_poset(3))
    assert hom.groups == {0: (0, ()), 1: (0, ()), 2: (1, ())}
    assert hom.is_sphere(2)


def test_two_disjoint_points_homology():
    hom = reduced_homology(_two_points())
    assert hom.groups == {0: (1, ())}


def test_empty_complex_homology():
    from torusfan.poset import point_poset
    hom = reduced_homology(point_poset())
    assert hom.groups == {-1: (1, ())}
    assert hom.is_sphere(-1)


def _field_cases():
    return [*builder_family(3).values(), projective_plane(), moore_space_mod3()]


def _dense_betti(p, char):
    """Reduced Betti numbers over Q or GF(char) from the dense oracle ranks."""
    cx = cell_chain_complex(p)
    ranks = [_rank_mod_p(m, char) if char else _rank_rational(m)
             for m in cx.boundaries] + [0]
    return [n - ranks[d] - ranks[d + 1] for d, n in enumerate(cx.dims())]


def test_field_homology_matches_rational():
    for p in _field_cases():
        hz = reduced_homology(p)
        for char in (0, 2, 3, 5):
            hf = reduced_homology(p, char)
            assert hf.groups == {d: (betti, ()) for d, betti
                                 in enumerate(_dense_betti(p, char))}, (p, char)
            for d, (betti, torsion) in hz.groups.items():
                expect = betti
                if char and char != 0:
                    # universal coefficients: each p-torsion summand adds
                    # one dimension in its own degree and one in degree+1
                    tor_here = sum(1 for t in torsion if t % char == 0)
                    tor_below = sum(1 for t in hz.torsion(d - 1) if t % char == 0)
                    expect = betti + tor_here + tor_below
                assert hf.betti(d) == expect, (p, char, d)


def test_cross_check_against_subdivision(s4_poset):
    hom = reduced_homology(s4_poset)
    assert hom == reduced_homology(barycentric_subdivision(s4_poset))
    assert hom.groups == {0: (0, ()), 1: (1, ())}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_homology_invariant_under_random_subdivision(seed, op):
    rng = random.Random(seed)
    p = random_surgery(rng, op)
    subdivided = []
    if len(p) > 1:  # the point poset has no proper cell to star
        subdivided.append(stellar_subdivision(p, rng.choice(p.elements()[1:])))
    if p.rank <= 3:
        subdivided.append(barycentric_subdivision(p))
    for char in (None, 0, 2, 3):
        hom = reduced_homology(p, char)
        for q in subdivided:
            assert reduced_homology(q, char) == hom, (op, char)


def test_homology_invariant_under_barycentric():
    for name, p in builder_family(3).items():
        sd = barycentric_subdivision(p)
        assert reduced_homology(sd) == reduced_homology(p), name
        assert sd.euler_characteristic() == p.euler_characteristic()


def test_homology_invariant_under_stellar():
    import random
    rng = random.Random(14)
    for name, p in builder_family(3).items():
        x = rng.choice([e for e in p.elements() if e != p.root])
        st = stellar_subdivision(p, x)
        assert reduced_homology(st) == reduced_homology(p), name
        assert st.euler_characteristic() == p.euler_characteristic()


# ---------------------------------------------------------------------------
# links


def test_link_of_root_is_whole_poset(s4_poset):
    link = oracle.link(s4_poset, s4_poset.root)
    assert reduced_homology(link) == reduced_homology(s4_poset)


def test_link_of_s4_vertex_is_two_points(s4_poset):
    hom = reduced_homology(oracle.link(s4_poset, 1))
    assert hom.groups == {0: (1, ())}


def test_link_of_triangle_vertex_is_two_points():
    p = simplex_boundary(2)
    hom = reduced_homology(oracle.link(p, p.vertices()[0]))
    assert hom.groups == {0: (1, ())}


def test_moore_space_torsion():
    hom = reduced_homology(moore_space_mod3())
    assert hom.groups == {0: (0, ()), 1: (0, (3,)), 2: (0, ())}


def test_projective_plane_torsion():
    p = projective_plane()
    assert p.f_vector() == (6, 15, 10)
    assert p.euler_characteristic() == 1
    hom = reduced_homology(p)
    assert hom.groups == {0: (0, ()), 1: (0, (2,)), 2: (0, ())}
    # over GF(2) the torsion contributes in dimensions 1 and 2
    hom2 = reduced_homology(p, 2)
    assert hom2.betti(1) == 1 and hom2.betti(2) == 1
    assert reduced_homology(p, 0).betti(1) == 0


# ---------------------------------------------------------------------------
# Cohen-Macaulay


def test_triangle_is_cm_over_q():
    verdicts = link_verdicts(simplex_boundary(2), (0,))[0]
    assert verdicts[0].ok


def test_disconnected_pure_complex_is_not_cm():
    verdicts = link_verdicts(_two_disjoint_edges(), (0,))[0]
    assert not verdicts[0].ok
    assert any("dimension 0" in w for w in verdicts[0].witnesses)


def test_spheres_are_cm():
    for n in range(2, 5):
        verdicts = link_verdicts(sphere_poset(n), (0, 2))[0]
        assert verdicts[0].ok and verdicts[2].ok, n


def test_projective_plane_cm_depends_on_field():
    p = projective_plane()
    verdicts, torsion = link_verdicts(p, (0, 2, 3))
    assert verdicts[0].ok and verdicts[3].ok
    assert not verdicts[2].ok  # the 2-torsion in degree one blocks GF(2)
    assert not torsion.ok


def test_cm_fields_in_one_pass_match_each_field_alone():
    for p in _field_cases():
        together = link_verdicts(p, (0, 2, 3, 5))[0]
        for char in (0, 2, 3, 5):
            assert together[char] == link_verdicts(p, (char,))[0][char], char


def test_cm_takes_each_link_once(monkeypatch):
    p = projective_plane()
    calls = []
    link_homology = homology._link_homology

    def counted(poset, order, cofaces, x, n):
        calls.append(x)
        return link_homology(poset, order, cofaces, x, n)

    monkeypatch.setattr(homology, "_link_homology", counted)
    link_verdicts(p, (0, 2, 3, 5))
    assert sorted(calls) == sorted(p.elements())


def _dense_homology(p):
    """Reduced integral homology from the dense chain complex of p and the
    dense Smith normal form oracle."""
    cx = cell_chain_complex(p)
    dims = cx.dims()
    if not dims or dims[0] == 0:
        return HomologyGroups(p.rank, {-1: (1, ())})
    snf = [dense_smith_normal_form(m) for m in cx.boundaries] + [([], 0)]
    return HomologyGroups(p.rank, {
        d: (n - snf[d][1] - snf[d + 1][1],
            tuple(f for f in snf[d + 1][0] if f > 1))
        for d, n in enumerate(dims)})


def _assert_links_match_oracle(p):
    """Every link by restriction equals the oracle on the link poset, and
    a link that the oracle refuses is refused with the same message."""
    links = homology._links(p)
    for x in p.elements():
        try:
            link = oracle.link(p, x)
        except PosetError as err:
            with pytest.raises(PosetError, match=re.escape(str(err))):
                next(links)
            return
        y, d, hom = next(links)
        assert (y, d) == (x, link.rank - 1)
        assert hom.rank == link.rank and hom == _dense_homology(link), x
    assert next(links, None) is None


@pytest.mark.parametrize("name", sorted(builder_family(4)))
def test_link_homology_by_restriction_matches_link_posets(name):
    _assert_links_match_oracle(builder_family(4)[name])


@pytest.mark.parametrize("make", [
    projective_plane, moore_space_mod3,
    lambda: join(projective_plane(), simplex_boundary(1))])
def test_link_homology_by_restriction_keeps_torsion(make):
    p = make()
    _assert_links_match_oracle(p)
    assert reduced_homology(p) == _dense_homology(p)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_link_homology_by_restriction_on_random_surgery(seed, op):
    p = random_surgery(random.Random(seed), op)
    _assert_links_match_oracle(p)
    assert reduced_homology(p) == _dense_homology(p)


# ---------------------------------------------------------------------------
# links of rank <= 2 by counting


def _two_tetrahedra_on_a_vertex():
    """Two boundaries of a 3-simplex sharing the vertex 4, whose link there
    is two disjoint circles."""
    return complex_from_facets(
        [f for quad in ((1, 2, 3, 4), (4, 5, 6, 7))
         for f in itertools.combinations(quad, 3)])


def _link_of(p, label):
    return next(x for x in p.elements() if p.cell(x).label == label)


@pytest.mark.parametrize("make, label, groups", [
    # the link of a vertex: two points joined by two parallel edges
    (lambda: sphere_poset(3), None, {0: (0, ()), 1: (1, ())}),
    (_two_tetrahedra_on_a_vertex, "4", {0: (1, ()), 1: (2, ())}),
    # a boundary edge of a disc: one point
    (lambda: simplex_poset(3), None, {0: (0, ())}),
    (lambda: complex_from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)]), "12",
     {0: (2, ())})])
def test_counted_links_match_link_posets(make, label, groups):
    p = make()
    _assert_links_match_oracle(p)
    if label is None:  # the first element of the link's rank
        x = p.by_rank(p.rank - len(groups))[0]
    else:
        x = _link_of(p, label)
    assert reduced_homology(oracle.link(p, x)).groups == groups
    links = {y: hom for y, _, hom in homology._links(p)}
    assert links[x].groups == groups


def test_counted_links_keep_the_refusal_of_a_non_pure_poset():
    # a triangle with a dangling edge: the link of vertex 3 is an edge and
    # a point, and the link of vertex 4 lies below no top
    p = complex_from_facets([(1, 2, 3), (3, 4)])
    assert not p.is_pure()
    _assert_links_match_oracle(p)
    with pytest.raises(PosetError) as direct:
        oracle.link_rank(p, _link_of(p, "4"))
    with pytest.raises(PosetError) as refused:
        list(homology._links(p))
    assert refused.value.violations == direct.value.violations == [
        "link of 4: declared rank 2 but maximal element rank is 1"]


def _rebuilt(p):
    """p rebuilt, so that it carries none of the atom sets of its
    construction."""
    p = SimplicialPoset._trusted(p.rank, p.cells.values())
    assert p._atoms is None
    return p


def test_gorenstein_star_builds_no_upsets_up_to_rank_3(disc):
    # every link is walked up the cofaces: no atom set, upset or top set,
    # at any rank now, not only up to 3
    assert not hasattr(SimplicialPoset, "upset")
    target = (1, 2, 2, 2, 2, 1)
    realized, _ = realized_family((target,))[target]
    posets = list(builder_family(4).values()) + [
        sphere_poset(4), simplex_boundary(5), realized, disc,
        projective_plane(), _two_tetrahedra_on_a_vertex()]
    assert {p.rank for p in posets} == {2, 3, 4, 5}
    for p in posets:
        p = _rebuilt(p)
        gorenstein_star(p)
        link_verdicts(p, (0, 2))
        assert p._atoms is None, p


def test_whole_complex_homology_builds_no_upsets():
    # the least element's link is the whole complex: no atom set is needed
    for p, sphere in ((barycentric_subdivision(sphere_poset(3)), 2),
                      (barycentric_subdivision(sphere_poset(4)), 3)):
        p = _rebuilt(p)
        assert reduced_homology(p).is_sphere(sphere)
        assert p._atoms is None, p


# ---------------------------------------------------------------------------
# signs from vertex-id sums


def _atom_position_signs(p):
    """The sign rule by positions: x covering y takes (-1)^i, where the
    vertex that y omits is the i-th of x's vertices sorted by id."""
    signs = {}
    for x in p.elements():
        atoms = p.atoms(x)
        order = sorted(atoms)
        col = signs[x] = {}
        for y in p.covers(x):
            (v,) = atoms - p.atoms(y)
            col[y] = -1 if order.index(v) % 2 else 1
    return signs


def _relabelled(p, rng):
    """p with ids drawn at random from a range around zero, most of them
    negative, in an order unrelated to the old one."""
    ids = rng.sample(range(-3 * len(p), len(p)), len(p))
    new = dict(zip(p.cells, ids))
    return SimplicialPoset._trusted(p.rank, [
        Cell(new[c.id], c.rank, tuple(new[d] for d in c.covers), c.label)
        for c in p.cells.values()])


@pytest.mark.parametrize("name", sorted(builder_family(4)))
def test_vertex_sum_signs_are_the_atom_position_signs(name):
    p = builder_family(4)[name]
    assert position_signs(p) == _atom_position_signs(p)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_vertex_sum_signs_under_negative_scrambled_ids(seed, op):
    rng = random.Random(seed)
    p = _relabelled(random_surgery(rng, op), rng)
    assert position_signs(p) == _atom_position_signs(p)
    assert reduced_homology(p) == _dense_homology(p)


# ---------------------------------------------------------------------------
# coreductions


def _count_snf(monkeypatch):
    """Record the row count of every ``linalg._snf`` call homology makes."""
    calls = []
    snf = linalg._snf

    def counted(rows):
        calls.append(len(rows))
        return snf(rows)

    monkeypatch.setattr(linalg, "_snf", counted)
    return calls


def test_gorenstein_star_on_realized_posets_runs_no_snf(monkeypatch):
    posets = [p for p, _ in realized_family().values()]
    posets += [p for p, _ in realized_family(((1, 2, 2, 2, 2, 2, 1),
                                              (1, 3, 3, 3, 3, 3, 3, 1)))
               .values()]
    assert {p.rank for p in posets} >= {6, 7}
    calls = _count_snf(monkeypatch)
    for p in posets:
        assert gorenstein_star(p).ok
    assert calls == []


@pytest.mark.parametrize("make, torsion", [(projective_plane, (2,)),
                                           (moore_space_mod3, (3,))])
def test_coreduction_leftover_keeps_torsion(monkeypatch, make, torsion):
    p = make()
    calls = _count_snf(monkeypatch)
    hom = reduced_homology(p)
    assert len(calls) == 1 and 0 < calls[0] < len(p.by_rank(p.rank))
    assert hom.torsion(1) == torsion and hom == _dense_homology(p)


def _scrambled(p, rng):
    """p with its ids permuted at random: the same complex, whose cells
    and cofaces come in another order, so coreductions pair others."""
    ids = list(p.cells)
    rng.shuffle(ids)
    new = dict(zip(p.cells, ids))
    return SimplicialPoset._trusted(p.rank, [
        Cell(new[c.id], c.rank, tuple(new[d] for d in c.covers), c.label)
        for c in p.cells.values()])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_coreduction_order_leaves_the_groups(seed, op):
    rng = random.Random(seed)
    p = _scrambled(random_surgery(rng, op), rng)
    assert reduced_homology(p) == _dense_homology(p)
    _assert_links_match_oracle(p)


def _permutation_sign(seq):
    inversions = sum(1 for i, a in enumerate(seq) for b in seq[i + 1:] if a > b)
    return -1 if inversions % 2 else 1


def _coboundary(p, x, y):
    """The sign eps(y) of the module docstring for the link of x."""
    ax = p.atoms(x)
    spread = sum(1 for w in p.atoms(y) - ax for u in ax if u < w)
    vertices = [z for z in p.downset(y) if p.leq(x, z)
                and p.rank_of(z) == p.rank_of(x) + 1]
    by_atom = sorted(vertices, key=lambda z: min(p.atoms(z) - ax))
    return (-1) ** spread * _permutation_sign(by_atom)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_restricted_signs_are_the_link_signs_up_to_a_coboundary(seed, op):
    p = random_surgery(random.Random(seed), op)
    boundary = position_signs(p)
    for x in p.elements():
        up = oracle.upset(p, x)
        if up.isdisjoint(p.tops()):
            continue
        own = position_signs(oracle.link(p, x))
        for y in up - {x}:
            for z in own[y]:
                assert boundary[y][z] == (own[y][z] * _coboundary(p, x, y)
                                          * _coboundary(p, x, z)), (x, y, z)


def test_link_pass_builds_no_poset_and_no_dense_complex(monkeypatch):
    p = barycentric_subdivision(sphere_poset(3))
    calls = []
    trusted = SimplicialPoset._trusted.__func__
    init = SimplicialPoset.__init__

    def counted_trusted(cls, rank, cells):
        calls.append("_trusted")
        return trusted(cls, rank, cells)

    def counted_init(self, rank, cells):
        calls.append("__init__")
        init(self, rank, cells)

    monkeypatch.setattr(SimplicialPoset, "_trusted",
                        classmethod(counted_trusted))
    monkeypatch.setattr(SimplicialPoset, "__init__", counted_init)
    assert gorenstein_star(p).ok
    fields, torsion = link_verdicts(p, (0, 2, 3))
    assert all(fields.values()) and torsion.ok
    assert reduced_homology(p).is_sphere(2)
    assert calls == []
    # the counters are live: the oracle's link poset goes through the
    # trusted path
    oracle.link(p, p.root)
    assert calls == ["_trusted"]


def test_link_verdicts_name_every_failing_link():
    # the suspension of RP^2: torsion in the link of the root and in the
    # links of both suspension points, which are RP^2 itself
    p = join(projective_plane(), simplex_boundary(1))
    fields, torsion = link_verdicts(p, (0, 2))
    assert torsion.witnesses == [
        "link of #0 has torsion [2] in dimension 2",
        "link of R1 has torsion [2] in dimension 1",
        "link of R2 has torsion [2] in dimension 1"]
    assert fields[0].ok and len(fields[2].witnesses) == 3
    # the torsion verdict does not depend on the fields asked for
    assert torsion == link_verdicts(p, ())[1]


def test_torsion_free_links_on_family():
    for name, p in builder_family(3).items():
        assert link_verdicts(p, ())[1].ok, name


# ---------------------------------------------------------------------------
# Gorenstein*


def test_simplex_boundaries_gorenstein():
    for n in range(2, 5):
        assert gorenstein_star(simplex_boundary(n)).ok, n


def test_sphere_posets_gorenstein():
    for n in range(2, 5):
        assert gorenstein_star(sphere_poset(n)).ok, n


def test_disc_is_not_gorenstein(disc):
    verdict = gorenstein_star(disc)
    assert not verdict.ok


def test_projective_plane_is_not_gorenstein():
    p = projective_plane()
    assert pseudomanifold(p).ok  # closed surface, but not a homology sphere
    assert not gorenstein_star(p).ok


def test_gorenstein_fast_path_matches_subdivided_definition(s4_poset):
    cases = [simplex_boundary(2), simplex_boundary(3), sphere_poset(2),
             sphere_poset(3), sphere_product_poset(1, 1), s4_poset,
             simplex_poset(2), simplex_poset(3), _two_points(),
             _two_disjoint_edges(), projective_plane()]
    for p in cases:
        fast = gorenstein_star(p).ok
        literal = gorenstein_star_subdivided(p).ok
        assert fast == literal, p


def test_link_pass_reads_the_rank_bound_once(monkeypatch):
    p = barycentric_subdivision(simplex_boundary(3))
    reads = []
    real = poset_mod.max_rank_bound
    monkeypatch.setattr(poset_mod, "max_rank_bound",
                        lambda: reads.append(1) or real())
    link_verdicts(p, (2, 3))
    assert len(reads) == 1
    # a bound below the rank refuses the pass at the least element, as
    # the oracle's link_rank does there
    monkeypatch.setenv("TORUSFAN_MAX_RANK", str(p.rank - 1))
    with pytest.raises(PosetError) as refused:
        list(homology._links(p))
    with pytest.raises(PosetError) as direct:
        oracle.link_rank(p, p.root)
    assert refused.value.violations == direct.value.violations == [
        f"rank {p.rank} exceeds the configured bound {p.rank - 1}"]


def test_gorenstein_rank_bound(monkeypatch):
    monkeypatch.setenv("TORUSFAN_MAX_RANK", "1")
    p = _bypass_rank_guard()
    # refused by the link pass's one guard, before any boundary is built
    monkeypatch.setattr(homology, "_signed_boundary", None)
    with pytest.raises(PosetError) as err:
        gorenstein_star(p)
    assert err.value.violations == ["rank 2 exceeds the configured bound 1"]


def _bypass_rank_guard():
    # built before the bound is lowered, so only the verdict guard fires
    import os
    old = os.environ.pop("TORUSFAN_MAX_RANK", None)
    try:
        return sphere_poset(2)
    finally:
        if old is not None:
            os.environ["TORUSFAN_MAX_RANK"] = old


def test_gorenstein_implies_dehn_sommerville():
    for name, p in builder_family(4).items():
        if gorenstein_star(p).ok:
            assert dehn_sommerville_check(p.h_vector()), name


# ---------------------------------------------------------------------------
# pseudomanifold and Euler sphere checks


def test_sphere2_pseudomanifold_and_euler(s4_poset):
    assert pseudomanifold(s4_poset).ok
    assert euler_sphere_check(s4_poset)


def test_simplex_boundary_3_checks():
    p = simplex_boundary(3)
    assert pseudomanifold(p).ok
    assert euler_sphere_check(p)


def test_disc_fails_pseudomanifold(disc):
    verdict = pseudomanifold(disc)
    assert not verdict.ok
    assert any("below 1 top cells" in w for w in verdict.witnesses)
    assert not euler_sphere_check(disc)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from(["base", "join", "connected_sum", "stellar",
                        "barycentric"]))
def test_tops_above_ridges_match_upsets(seed, op):
    p = random_surgery(random.Random(seed), op)
    n = p.rank
    assert homology.tops_above_ridges(p) == {
        x: sorted(y for y in oracle.upset(p, x) if p.rank_of(y) == n)
        for x in p.by_rank(n - 1)}
