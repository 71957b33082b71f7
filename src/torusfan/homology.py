"""Integral homology of simplicial cell complexes, links, and the
Cohen-Macaulay and Gorenstein* tests.

Homology is computed over the integers only, by coreductions and Smith
normal form on what they leave; the groups over Q and over GF(p) follow
from the integral ones by the universal coefficient theorem
(``HomologyGroups.over``).

The chain complex has one d-cell per rank-(d+1) poset element.  The
boundary of a cell is the signed sum of its covered cells, the sign of a
cover being determined by the position of the omitted vertex in the
sorted vertex list of the cell; lower segments are boolean, so the
omitted vertex is well defined and the usual simplicial sign identity
gives boundary-of-boundary zero.  So the sign is a position and is not
stored: ``_signed_boundary`` lists the covers of each cell in the order
of their omitted vertices, the i-th taking (-1)^i, and builds the
inversion (the cofaces of each element) in the same pass.  The pass
takes the elements by (rank, id), so the covers of a cell are listed
before it, and it checks d^2 = 0 on each cell as it lists it.  Each
homology call (``reduced_homology`` and the link pass) builds its own.

The positions come from vertex-id sums, with no vertex sets: vsum of a
vertex is its id, vsum of the least element is 0, and vsum(x) for x of
rank k >= 2 is the sum of vsum over its k covers divided by k - 1, since
[0-hat, x] is boolean and each vertex of x lies below k - 1 of them.  A
cover y of x then omits the vertex vsum(x) - vsum(y); distinct covers
omit distinct vertices, so sorting the covers by descending vsum lists
the omitted vertices in ascending order, which is the order of their
positions in the sorted vertex list.  The covers in that order take the
signs +1, -1, +1, ..., exactly the signs by position.  This holds for
any integer ids, negative ones included.

Coreductions (Mrozek-Batko, Discrete Comput. Geom. 41, 2009) shrink the
complex before any Smith normal form.  A cell b whose boundary, restricted
to the cells still present, is a single cell a is deleted together with
a.  The entry is +-1, so d d b = +-d a = 0: a has no face left, {a, b} is
an acyclic subcomplex, and the quotient by it, which has the same
homology, is the boundary restricted to the other cells; no entry
changes.  A pair found leaves its cofaces with one face fewer, and those
left with one become the next candidates.  Smith normal form
(``linalg._snf``) then runs only on the restricted boundaries of the
cells that remain, their signs read off the positions, one call per
dimension that still has a nonzero row; on the spheres of the
realization pipeline nothing is left for it.  The starting face counts
need no pass: every [x, y] is boolean, so in the link of x the element
y covers exactly rank(y) - rank(x) cells.

Links are restrictions of that one map; no link poset and no dense
matrix is built.  The reduced chain complex of link(x) is the signed
boundary restricted to the elements y >= x, y of rank r taken as a cell
of dimension r - rank(x) - 1 and x as the empty cell.  d^2 = 0 survives
the restriction, because every face between y >= x and w >= x is >= x.
The link's own signs (the vertices of y in the link are the elements
x < z <= y of rank rank(x) + 1, sorted by id) differ from the restricted
ones by a coboundary: the sign of y covering y' in the link times the
restricted one is eps(y) eps(y'), where eps(y) is
(-1)^(sum over the atoms w of y not below x of #{atoms u of x : u < w})
times the sign of the permutation between the link vertices of y sorted
by id and sorted by their atom w.  So each boundary matrix changes only
by +-1 scalings of rows and columns, which keep ranks and invariant
factors.

A link of rank at least 3 other than the root's is found by walking up
the cofaces from x, breadth first: every coface lies one rank up, so the
walk reaches each y >= x at level rank(y) - rank(x), and nothing
else.  The root's link is every cell, read directly.

A link of rank at most 2 needs neither coreduction nor walk: its
homology is a count.  A rank-1 link is its k vertices (the cofaces of
x), so H_0 = Z^(k-1).  A rank-2 link is a graph: its edges are the
cofaces z of its vertices, and each has exactly two of them as faces,
the two elements strictly between x and z in the boolean [x, z].  So
loops cannot occur, though parallel edges can.  With V vertices, E edges
and c components (union-find over the vertices and their cofaces),
H_0 = Z^(c-1) and H_1 = Z^(E-V+c), torsion-free.  This holds for every
simplicial poset, pure or not.

The pass over all links (``_links``) checks the rank bound once, at the
least element, whose link is the largest.  One sweep over the elements
in reverse (rank, id) order gives each x its height, the largest rank
above it: the largest height of its cofaces, or its own rank if it has
none.  The link of x has rank rank - rank(x) exactly when x lies below a
top, that is when its height is the rank; the pass is refused at the
first element whose height is smaller, naming both ranks.  Pure and
non-pure posets take this one path.
"""

from __future__ import annotations

from . import linalg
from .poset import PosetError, Record, TorusfanError, _rank_violations


class HomologyError(TorusfanError):
    pass


def _signed_boundary(poset):
    """(order, cofaces): ``order[x]`` is the tuple of the elements that x
    covers in boundary order, the i-th taking the sign (-1)^i (() for the
    least element), and ``cofaces[y]`` lists the elements that cover y.
    The order follows the vertex-id sums of the module docstring; each
    cell's d^2 = 0 is checked as it is built."""
    cells = poset.cells
    order = {}
    cofaces = {x: [] for x in cells}
    vsum = {}
    for x in poset.elements():  # by rank, so every cover comes first
        c = cells[x]
        covers = c.covers
        k = c.rank
        vsum[x] = (sum(map(vsum.__getitem__, covers)) // (k - 1) if k > 1
                   else x if k else 0)
        # the omitted vertices vsum(x) - vsum(y) in ascending order
        faces = order[x] = tuple(sorted(covers, key=vsum.__getitem__,
                                        reverse=True))
        image = {}
        sign = 1
        for y in faces:
            cofaces[y].append(x)
            term = sign
            for w in order[y]:
                image[w] = image.get(w, 0) + term
                term = -term
            sign = -sign
        if any(image.values()):
            raise HomologyError("boundary of boundary is nonzero")
    return order, cofaces


class HomologyGroups(Record):
    """Reduced homology, one (betti, torsion) pair per dimension.

    ``groups`` maps dimension to (betti rank, invariant-factor torsion
    tuple); dimension -1 appears only for the empty complex.
    """

    __slots__ = ("rank", "groups")

    def __init__(self, rank, groups):
        self.rank = rank
        self.groups = groups

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
    integral = _link_homology(poset, *_signed_boundary(poset), poset.root,
                              poset.rank)
    return integral if char is None else integral.over(char)


def _link_homology(poset, order, cofaces, x, n):
    """Integral reduced homology of the rank-n link of x: the signed
    boundary restricted to the elements above x, y of rank r being a cell
    of dimension r - rank_of(x) - 1 and x the empty cell, reduced by
    coreductions; Smith normal form runs only on what is left."""
    vertices = cofaces[x]
    if not vertices:  # no vertex: the link is the empty complex
        return HomologyGroups(n, {-1: (1, ())})
    if n == 1:  # a set of points
        return HomologyGroups(1, {0: (len(vertices) - 1, ())})
    if n == 2:
        return _graph_homology(vertices, cofaces)
    cells = poset.cells
    shift = cells[x].rank
    # live[y]: the faces of y left in the link; [x, y] is boolean, so y
    # covers rank(y) - rank(x) elements of it
    if x == poset.root:  # the root's link is every cell
        live = {y: c.rank for y, c in cells.items()}
    else:  # walked up the cofaces, breadth first
        live = {x: 0}
        queue = [x]
        for y in queue:  # grows as the walk goes
            k = live[y] + 1
            for z in cofaces[y]:
                if z not in live:
                    live[z] = k
                    queue.append(z)
    get = live.get
    # one vertex pairs with the empty cell x, which leaves the others
    # without a face
    todo = cofaces[x][:1]
    while todo:
        b = todo.pop()
        if get(b) != 1:
            continue
        for a in order[b]:
            if a in live:
                break
        # b's one face a: dd b = 0 leaves a no face, so deleting the pair
        # changes no other entry
        del live[a], live[b]
        for z in cofaces[a] + cofaces[b]:
            k = get(z)
            if k is not None:
                live[z] = k - 1
                if k == 2:
                    todo.append(z)
    # level e = dimension + 1 holds the cells of rank rank(x) + e
    left = [0] * (n + 1)
    rows = [[] for _ in range(n + 1)]
    for y, k in live.items():
        e = cells[y].rank - shift
        left[e] += 1
        if k:
            row = {}
            sign = 1
            for z in order[y]:
                if z in live:
                    row[z] = sign
                sign = -sign
            rows[e].append(row)
    ranks = [0] * (n + 2)
    torsions = [()] * (n + 2)
    for e, level in enumerate(rows):
        if level:
            factors, ranks[e] = linalg._snf(level)
            torsions[e] = tuple(f for f in factors if f > 1)
    groups = {e - 1: (left[e] - ranks[e] - ranks[e + 1], torsions[e + 1])
              for e in range(1, n + 1)}
    return HomologyGroups(n, groups)


def _graph_homology(vertices, cofaces):
    """Reduced homology of a rank-2 link of x, a graph on ``vertices``
    whose edges are their cofaces: an edge z has exactly two of them as
    faces, the two elements strictly between x and z in the boolean
    [x, z].  Union-find counts the components c; then H_0 = Z^(c-1) and
    H_1 = Z^(E-V+c)."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    ends = {}  # edge: the first of its vertices seen
    components = len(vertices)
    for v in vertices:
        for z in cofaces[v]:
            u = ends.setdefault(z, v)
            if u != v:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    components -= 1
    cycles = len(ends) - len(vertices) + components
    return HomologyGroups(2, {0: (components - 1, ()), 1: (cycles, ())})


def _links(poset):
    """(x, dimension of the link of x, its integral reduced homology) for
    every element x, the least element included; refused at the first
    element that lies below no top."""
    rank = poset.rank
    problems = _rank_violations(rank)  # the largest link's
    if problems:
        raise PosetError(problems)
    order, cofaces = _signed_boundary(poset)
    cells = poset.cells
    elements = poset.elements()
    height = {}  # the largest rank above x
    for x in reversed(elements):  # the cofaces of x come first
        height[x] = max(map(height.__getitem__, cofaces[x]),
                        default=cells[x].rank)
    for x in elements:
        shift = cells[x].rank
        if height[x] < rank:
            raise PosetError([f"link of {cells[x].named()}: declared rank "
                              f"{rank - shift} but maximal element rank is "
                              f"{height[x] - shift}"])
        yield x, rank - shift - 1, _link_homology(poset, order, cofaces, x,
                                                  rank - shift)


# ---------------------------------------------------------------------------
# ring-theoretic verdicts


class Verdict(Record):
    __slots__ = ("ok", "witnesses")

    def __init__(self, ok, witnesses):
        self.ok = ok
        self.witnesses = witnesses

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
        # without torsion the Betti numbers are the same over every field
        free = not any(tor for _, tor in hom.groups.values())
        for char, found in witnesses.items():
            groups = hom.groups if free else hom.over(char).groups
            for dim, (betti, _) in sorted(groups.items()):
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


def gorenstein_star(poset):
    """Gorenstein* test: every link of every face, including the empty
    face, has the integral reduced homology of a sphere of its dimension.

    Computed on the poset's own links; this equals the same condition on
    the links of the barycentric subdivision, because the subdivision's
    link at a chain is the join of the poset link at the chain's largest
    element with barycentric boundary spheres of boolean intervals.
    """
    witnesses = [f"link of {poset.cell(x).named()} does not have the homology "
                 f"of S^{d}"
                 for x, d, hom in _links(poset) if not hom.is_sphere(d)]
    return Verdict(not witnesses, witnesses)


def tops_above_ridges(poset):
    """{rank n-1 element: the rank-n elements above it, in id order}, read
    off the covers of the rank-n elements."""
    above = {x: [] for x in poset.by_rank(poset.rank - 1)}
    for t in poset.tops():
        for x in poset.covers(t):
            above[x].append(t)
    return above


def pseudomanifold(poset):
    """Every rank n-1 element must lie below exactly two rank-n elements."""
    witnesses = []
    if not poset.is_pure():
        witnesses.append("poset is not pure")
    for x, above in tops_above_ridges(poset).items():
        if len(above) != 2:
            witnesses.append(
                f"{poset.cell(x).named()} lies below {len(above)} top cells")
    return Verdict(not witnesses, witnesses)


def euler_sphere_check(poset):
    """Euler characteristic equals that of S^{n-1}."""
    n = poset.rank
    return poset.euler_characteristic() == 1 + (-1) ** (n - 1)
