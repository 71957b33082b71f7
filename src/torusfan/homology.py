"""Integral homology of simplicial cell complexes, links, and the
Cohen-Macaulay and Gorenstein* tests.

Homology is computed over the integers only, by Smith normal form; the
groups over Q and over GF(p) follow from the integral ones by the
universal coefficient theorem (``HomologyGroups.over``).

The chain complex has one d-cell per rank-(d+1) poset element.  The
boundary of a cell is the signed sum of its covered cells, the sign of a
cover being determined by the position of the omitted vertex in the
sorted vertex list of the cell; lower segments are boolean, so the
omitted vertex is well defined and the usual simplicial sign identity
gives boundary-of-boundary zero (checked at construction).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .poset import TorusfanError, barycentric_subdivision, max_rank_bound


class HomologyError(TorusfanError):
    pass


@dataclass
class ChainComplex:
    """Reduced cell chain complex: boundaries[d] maps d-cells to (d-1)-cells,
    with the empty cell as the single (-1)-cell."""

    rank: int
    cells: tuple          # cells[d] = ids of the rank-(d+1) elements, sorted
    boundaries: tuple     # boundaries[d]: rows = (d-1)-cells, cols = d-cells

    def dims(self):
        return tuple(len(c) for c in self.cells)


def cell_chain_complex(poset):
    """Reduced chain complex of the simplicial cell complex of the poset."""
    n = poset.rank
    cells = [tuple(poset.by_rank(d + 1)) for d in range(n)]
    boundaries = []
    columns = []  # columns[d][j] = {row index: sign}, the sparse boundaries[d]
    for d in range(n):
        cols = cells[d]
        if d == 0:
            boundaries.append([[1] * len(cols)])
            columns.append([{0: 1}] * len(cols))
            continue
        rows = cells[d - 1]
        row_index = {x: i for i, x in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        columns.append([])
        for j, x in enumerate(cols):
            verts = sorted(poset.atoms(x))
            position = {v: i for i, v in enumerate(verts)}
            col = {}
            for y in poset.covers(x):
                (v,) = poset.atoms(x) - poset.atoms(y)
                i = row_index[y]
                mat[i][j] = col[i] = (-1) ** position[v]
            columns[d].append(col)
        boundaries.append(mat)
    _check_square_zero(columns)
    return ChainComplex(n, tuple(cells), tuple(boundaries))


def _check_square_zero(columns):
    """Raise unless the boundary of every boundary column is zero."""
    for d in range(1, len(columns)):
        lower = columns[d - 1]
        for col in columns[d]:
            image = {}
            for k, a in col.items():
                for i, b in lower[k].items():
                    image[i] = image.get(i, 0) + a * b
            if any(image.values()):
                raise HomologyError("boundary of boundary is nonzero")


@dataclass
class HomologyGroups:
    """Reduced homology, one (betti, torsion) pair per dimension.

    ``groups`` maps dimension to (betti rank, invariant-factor torsion
    tuple); dimension -1 appears only for the empty complex.
    """

    rank: int
    groups: dict

    def betti(self, d):
        return self.groups.get(d, (0, ()))[0]

    def torsion(self, d):
        return self.groups.get(d, (0, ()))[1]

    def is_sphere(self, d):
        """True when this is the reduced integral homology of S^d."""
        for dim, (b, tor) in self.groups.items():
            if tor:
                return False
            if b != (1 if dim == d else 0):
                return False
        return self.groups.get(d, (0, ()))[0] == 1

    def over(self, char):
        """The same homology over Q (char 0) or GF(char), by universal
        coefficients: over GF(p) each torsion factor divisible by p in
        dimension d adds one to the Betti numbers of dimensions d and d+1."""
        char = linalg.check_char(char)
        groups = {}
        for d, (betti, _) in self.groups.items():
            if char:
                betti += sum(1 for t in self.torsion(d) + self.torsion(d - 1)
                             if t % char == 0)
            groups[d] = (betti, ())
        return HomologyGroups(self.rank, groups)

    def __eq__(self, other):
        return isinstance(other, HomologyGroups) and self.groups == other.groups


def reduced_homology(poset, char=None):
    """Reduced homology of the cell complex.

    ``char`` selects coefficients: None for the integers (with torsion via
    Smith normal form), 0 for the rationals, a prime p for GF(p); field
    coefficients come from the integral groups (``HomologyGroups.over``).
    """
    if char is not None:  # refused before the Smith normal form work
        linalg.check_char(char)
    cx = cell_chain_complex(poset)
    dims = cx.dims()
    if not dims or dims[0] == 0:
        return HomologyGroups(poset.rank, {-1: (1, ())})
    ranks = []
    torsions = []
    for d in range(cx.rank):
        factors, r = linalg.smith_normal_form(cx.boundaries[d])
        torsions.append(tuple(f for f in factors if f > 1))
        ranks.append(r)
    ranks.append(0)
    torsions.append(())
    groups = {d: (dims[d] - ranks[d] - ranks[d + 1], torsions[d + 1])
              for d in range(cx.rank)}
    integral = HomologyGroups(poset.rank, groups)
    return integral if char is None else integral.over(char)


def _links(poset):
    """(x, dimension of the link of x, its integral reduced homology) for
    every element x, the least element included."""
    for x in poset.elements():
        link = poset.link(x)
        yield x, link.rank - 1, reduced_homology(link)


# ---------------------------------------------------------------------------
# ring-theoretic verdicts


@dataclass
class Verdict:
    ok: bool
    witnesses: list

    def __bool__(self):
        return self.ok


def link_verdicts(poset, chars=(0, 2, 3, 5)):
    """The Reisner test per coefficient field and the torsion test, from
    one pass over the links: ({char: Verdict}, Verdict).  A field verdict
    needs every link (including the link of the least element) to have
    vanishing reduced homology below its top dimension, char 0 being the
    rationals; the torsion verdict needs torsion-free integral homology."""
    witnesses = {linalg.check_char(char): [] for char in chars}
    torsion = []
    for x, d, hom in _links(poset):
        named = poset.cell(x).named()
        for char, found in witnesses.items():
            for dim, (betti, _) in sorted(hom.over(char).groups.items()):
                if dim < d and betti:
                    found.append(f"link of {named} has reduced homology "
                                 f"rank {betti} in dimension {dim} < {d}")
        for dim, (_, tor) in sorted(hom.groups.items()):
            if tor:
                torsion.append(f"link of {named} has torsion {list(tor)} "
                               f"in dimension {dim}")
    fields = {char: Verdict(not found, found)
              for char, found in witnesses.items()}
    return fields, Verdict(not torsion, torsion)


def cohen_macaulay(poset, chars=(0, 2, 3, 5)):
    """Reisner test per coefficient field (see ``link_verdicts``)."""
    return link_verdicts(poset, chars)[0]


def torsion_free_links(poset):
    """Report whether every link has torsion-free integral homology.

    Together with the field verdicts this is the desk-scale stand-in for
    Cohen-Macaulayness over the integers."""
    return link_verdicts(poset, ())[1]


def gorenstein_star(poset):
    """Gorenstein* test: every link of every face, including the empty
    face, has the integral reduced homology of a sphere of its dimension.

    Computed on the poset's own links; this equals the same condition on
    the links of the barycentric subdivision, because the subdivision's
    link at a chain is the join of the poset link at the chain's largest
    element with barycentric boundary spheres of boolean intervals.
    """
    if poset.rank > max_rank_bound():
        raise HomologyError(f"rank {poset.rank} exceeds the configured bound")
    witnesses = [f"link of {poset.cell(x).named()} does not have the homology "
                 f"of S^{d}"
                 for x, d, hom in _links(poset) if not hom.is_sphere(d)]
    return Verdict(not witnesses, witnesses)


def gorenstein_star_subdivided(poset, force=False):
    """The defining form of the Gorenstein* test, applied literally to the
    barycentric subdivision.  Exponentially larger than gorenstein_star;
    kept as the oracle the fast version is checked against."""
    sd = barycentric_subdivision(poset, force=force)
    witnesses = [f"sd link of {sd.cell(x).named()} is not S^{d}"
                 for x, d, hom in _links(sd) if not hom.is_sphere(d)]
    return Verdict(not witnesses, witnesses)


def pseudomanifold(poset):
    """Every rank n-1 element must lie below exactly two rank-n elements."""
    n = poset.rank
    witnesses = []
    if not poset.is_pure():
        witnesses.append("poset is not pure")
    for x in poset.by_rank(n - 1) if n >= 1 else ():
        above = [y for y in poset.upset(x) if poset.rank_of(y) == n]
        if len(above) != 2:
            witnesses.append(
                f"{poset.cell(x).named()} lies below {len(above)} top cells")
    return Verdict(not witnesses, witnesses)


def euler_sphere_check(poset):
    """Euler characteristic equals that of S^{n-1}."""
    n = poset.rank
    return poset.euler_characteristic() == 1 + (-1) ** (n - 1)
