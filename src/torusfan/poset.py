"""Simplicial posets: validation, face counts, and surgery.

A simplicial poset is a finite ranked poset with a least element 0-hat in
which every lower segment [0-hat, x] is a boolean lattice.  Equivalently
it is the face poset of a simplicial cell complex: closed cells are
simplices, but two distinct cells may share their entire vertex set, so
cells are identified by ids rather than vertex sets.

An element of rank k corresponds to a (k-1)-dimensional cell; the rank-1
elements are the vertices.  ``atoms(x)`` is the vertex set of the cell x.

Validation decides the boolean lower intervals with three local counts
per cell x of rank k, once the first pass has checked that every x of
rank k >= 1 covers exactly k distinct elements of rank k - 1 and that
0-hat is the one element of rank 0: |atoms(x)| = k, the k covers of x
have pairwise distinct atom sets, and the covers of the covers of x
number exactly C(k, 2).  Every cell passes these exactly when every
lower interval is boolean.  A boolean interval passes them.  Conversely,
by induction on k: each cover y of x has a boolean interval with k - 1
atoms, so the k distinct atom sets of the covers are all the
(k-1)-subsets of atoms(x), and each (k-2)-subset S lies in exactly two
of them.  Each of those two covers has one cover on S, so the third
count is met exactly when those two are one element, f(S), for every S.
Then every element below x lies below a cover, and two covers y, y'
holding a proper subset T both hold the one element of [0-hat, f(S)] on
T, where S is the vertex set they share; so [0-hat, x] holds one element
on each proper subset of atoms(x), x holds atoms(x), and u <= w exactly
when atoms(u) is a subset of atoms(w).  The second count is needed: a
rank-3 cell x over the edges {a, b}, {a, b}' and {b, c} has three atoms
and three covers of covers, yet two of its covers share the vertex set
{a, b}.  So is the third: a rank-4 cell whose triangles {a, b, c} and
{a, b, d} cover twin edges on {a, b} has four atoms and covers with
distinct atom sets, yet seven covers of covers.  Only a table that fails
the counts is walked segment by segment, to name what fails.
"""

from __future__ import annotations

import itertools
import os
from math import comb

DEFAULT_MAX_RANK = 8
MAX_SUBDIVISION_RANK = 6


class TorusfanError(Exception):
    pass


class PosetError(TorusfanError):
    """Raised when a cell table fails simplicial-poset validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class RankBoundError(TorusfanError):
    pass


def max_rank_bound():
    """Largest accepted poset rank; TORUSFAN_MAX_RANK overrides the default."""
    raw = os.environ.get("TORUSFAN_MAX_RANK")
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"TORUSFAN_MAX_RANK must be an integer, got {raw!r}") from None


class Record:
    """A plain record: its fields are its ``__slots__``, in order, and its
    repr, == and hash read them as a frozen dataclass's would."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())


class Cell(Record):
    """One element of a cell table: its id, rank, the ids it covers and an
    optional label.  Never changed once built."""

    __slots__ = ("id", "rank", "covers", "label")

    def __init__(self, id, rank, covers, label=None):
        self.id = id
        self.rank = rank
        self.covers = covers
        self.label = label

    def named(self):
        return self.label if self.label is not None else f"#{self.id}"


def _rank_violations(rank):
    if rank < 0:
        return [f"negative rank {rank}"]
    if rank > max_rank_bound():
        return [f"rank {rank} exceeds the configured bound {max_rank_bound()}"]
    return []


def _atom_sets(cells):
    """The atom set of every cell of a table whose covers are rank-strict
    (so the order is acyclic and the sets can be built bottom-up): a vertex
    is its own, and any other cell takes the union of its covers'."""
    atoms = {}
    for c in sorted(cells, key=lambda c: c.rank):
        atoms[c.id] = (frozenset((c.id,)) if c.rank == 1 else
                       frozenset().union(*map(atoms.__getitem__, c.covers)))
    return atoms


def _downset(table, x):
    """The elements of the table {id: Cell} below or equal to x, walked
    down the covers."""
    down = level = {x}
    while level:
        level = {d for y in level for d in table[y].covers}
        down |= level
    return frozenset(down)


def poset_violations(rank, cells):
    """All invariant violations of a raw cell table, as readable strings."""
    return _validate(rank, cells)[0]


def _validate(rank, cells):
    """(violations, atom sets): the atom sets are ``_atom_sets`` of the
    table, built once the covers are known to be rank-strict, else None."""
    problems = _rank_violations(rank)
    if problems:
        return problems, None
    table = {}
    for c in cells:
        if c.id in table:
            problems.append(f"duplicate id {c.id}")
        table[c.id] = c
    if problems:
        return problems, None
    roots = [c for c in table.values() if c.rank == 0]
    if len(roots) != 1:
        problems.append(f"exactly one rank-0 element required, found {len(roots)}")
        return problems, None
    root = roots[0]
    if root.covers:
        problems.append(f"root {root.named()} must cover nothing")
    ranks = [c.rank for c in table.values()]
    if max(ranks) != rank:
        problems.append(f"declared rank {rank} but maximal element rank is {max(ranks)}")
    for c in table.values():
        if c.rank < 0 or c.rank > rank:
            problems.append(f"{c.named()}: rank {c.rank} out of range 0..{rank}")
        if c.rank >= 1:
            if len(set(c.covers)) != len(c.covers) or len(c.covers) != c.rank:
                problems.append(
                    f"{c.named()}: cover count is {len(c.covers)}, expected {c.rank}")
                continue
            for d in c.covers:
                if d not in table:
                    problems.append(f"{c.named()}: covers unknown id {d}")
                elif table[d].rank != c.rank - 1:
                    problems.append(
                        f"{c.named()}: covers {table[d].named()} of rank "
                        f"{table[d].rank}, expected {c.rank - 1}")
    if problems:
        return problems, None

    atoms = _atom_sets(table.values())
    if not _boolean_counts(table, atoms):
        problems = _segment_violations(table, atoms)
    return problems, atoms


def _boolean_counts(table, atoms):
    """Whether every cell x of rank k has k atoms, covers with pairwise
    distinct atom sets and C(k, 2) covers of covers: for a table
    {id: Cell} that passed the first pass of ``_validate``, whether every
    lower interval is boolean (module docstring)."""
    atom_set = atoms.__getitem__
    for c in table.values():
        k = c.rank
        if (len(atoms[c.id]) != k or len(set(map(atom_set, c.covers))) != k
                or len({d for y in c.covers for d in table[y].covers})
                != k * (k - 1) // 2):
            return False
    return True


def _segment_violations(table, atoms):
    """The non-boolean lower segments, found by walking each segment."""
    problems = []
    for c in table.values():
        k = c.rank
        if len(atoms[c.id]) != k:
            problems.append(
                f"{c.named()}: non-boolean lower segment ({len(atoms[c.id])} "
                f"vertices for rank {k})")
            continue
        segment = _downset(table, c.id)
        by_rank_count = {}
        seen_atom_sets = set()
        injective = True
        for y in segment:
            ry = table[y].rank
            by_rank_count[ry] = by_rank_count.get(ry, 0) + 1
            key = atoms[y]
            if key in seen_atom_sets:
                injective = False
            seen_atom_sets.add(key)
        if not injective:
            problems.append(
                f"{c.named()}: non-boolean lower segment (two faces share a "
                "vertex set)")
            continue
        for j in range(k + 1):
            if by_rank_count.get(j, 0) != comb(k, j):
                problems.append(
                    f"{c.named()}: non-boolean lower segment "
                    f"({by_rank_count.get(j, 0)} elements of rank {j}, "
                    f"expected {comb(k, j)})")
                break
    return problems


class SimplicialPoset:
    """A validated simplicial poset.  Immutable; all surgery returns new values.

    Builders and surgery make simplicial posets by construction (Stanley
    1991); ``_trusted`` indexes those, checking only the rank bound, and
    builds their atom sets on first use.  The validating constructor
    indexes from the atom sets that its validation built, so either path
    builds them at most once.

    The atom sets are the one index: every lower interval is boolean, so
    they and the covers decide the order (``leq``), a downset is walked
    down the covers when asked for, and no upward index is kept.  The
    homology pass reads each link off the cofaces of its signed boundary;
    the upper set of x is ``{y for y in p.cells if p.leq(x, y)}``.
    """

    __slots__ = ("rank", "cells", "root", "_atoms", "_by_rank")

    def __init__(self, rank, cells):
        cells = tuple(cells)
        problems, atoms = _validate(rank, cells)
        if problems:
            raise PosetError(problems)
        self._index(rank, cells, atoms)

    @classmethod
    def _trusted(cls, rank, cells, atoms=None):
        """A poset built by construction; ``atoms``, when given, is its
        atom sets, as ``_atom_sets`` would build them."""
        problems = _rank_violations(rank)
        if problems:
            raise PosetError(problems)
        self = cls.__new__(cls)
        self._index(rank, tuple(cells), atoms)
        return self

    def _index(self, rank, cells, atoms=None):
        self.rank = rank
        self.cells = {c.id: c for c in cells}
        # from validation or construction, or built on first use
        self._atoms = atoms
        by_rank = [[] for _ in range(rank + 1)]
        for c in cells:
            by_rank[c.rank].append(c.id)
        self._by_rank = tuple(tuple(sorted(ids)) for ids in by_rank)
        self.root = self._by_rank[0][0]

    def _atom_table(self):
        """{x: atoms(x)}, built on the first call for a trusted poset: one
        that is only written out or counted never needs it.  The table is
        never empty (it holds 0-hat), so ``self._atoms or`` reads it."""
        if self._atoms is None:
            self._atoms = _atom_sets(self.cells.values())
        return self._atoms

    # ----- basic queries -------------------------------------------------

    def elements(self):
        """All ids, sorted by (rank, id)."""
        return [i for ids in self._by_rank for i in ids]

    def __len__(self):
        return len(self.cells)

    def cell(self, x):
        return self.cells[x]

    def rank_of(self, x):
        return self.cells[x].rank

    def covers(self, x):
        return self.cells[x].covers

    def by_rank(self, k):
        return self._by_rank[k] if 0 <= k <= self.rank else ()

    def vertices(self):
        return self.by_rank(1)

    def tops(self):
        return self.by_rank(self.rank)

    def maximal_elements(self):
        covered = {d for c in self.cells.values() for d in c.covers}
        return tuple(sorted(x for x in self.cells if x not in covered))

    def is_pure(self):
        return all(self.rank_of(x) == self.rank for x in self.maximal_elements())

    def leq(self, x, y):
        """x <= y: the boolean interval [0-hat, y] holds one element on
        atoms(x) when they are vertices of y, and x is below y exactly when
        that element is x."""
        atoms = self._atoms or self._atom_table()
        return atoms[x] <= atoms[y] and self.face(y, atoms[x]) == x

    def downset(self, x):
        """The elements below or equal to x, walked down the covers."""
        return _downset(self.cells, x)

    def atoms(self, x):
        """Ids of the rank-1 elements below x (the vertex set of the cell)."""
        atoms = self._atoms or self._atom_table()
        return atoms[x]

    def is_simplicial_complex(self):
        """True when every cell is determined by its vertex set."""
        atoms = self._atom_table()
        return len(set(atoms.values())) == len(atoms)

    # ----- joins and faces ------------------------------------------------

    def join_set(self, x, y):
        """All minimal common upper bounds of x and y, sorted.

        They are the common upper bounds of rank |atoms(x) | atoms(y)|:
        below an upper bound z the interval [0-hat, z] is boolean, so it
        holds one element with exactly that vertex set, and it lies above
        both x and y; an upper bound has at least those vertices, so none
        of that rank has another bound below it.  Each is read off the
        atom sets, with x and y as its faces (``leq``).
        """
        atoms = self._atom_table()
        ax, ay = atoms[x], atoms[y]
        both = ax | ay
        return tuple(z for z in self.by_rank(len(both))
                     if atoms[z] == both and self.face(z, ax) == x
                     and self.face(z, ay) == y)

    def face(self, z, vertices):
        """The element of [0-hat, z] whose vertex set is ``vertices``.

        The interval is boolean, so there is exactly one, and every step
        down to a cover whose atoms still contain ``vertices`` stays above
        it.  Below a common upper bound of x and y their meet is
        ``face(x, atoms(x) & atoms(y))``.  ValueError unless ``vertices``
        is a subset of ``atoms(z)``.
        """
        atoms = self._atoms or self._atom_table()
        if not vertices <= atoms[z]:
            raise ValueError(f"{sorted(vertices)} are not vertices of "
                             f"{self.cells[z].named()}")
        cells = self.cells
        rank = len(vertices)
        while cells[z].rank != rank:
            for y in cells[z].covers:
                if vertices <= atoms[y]:
                    z = y
                    break
        return z

    # ----- numerical invariants -------------------------------------------

    def f_vector(self):
        """f_i = number of (i)-dimensional cells, i.e. rank-(i+1) elements."""
        return tuple(len(self._by_rank[k]) for k in range(1, self.rank + 1))

    def h_vector(self):
        """Binomial transform of the f-vector.

        Defined by h_0 t^n + ... + h_n = (t-1)^n + f_0 (t-1)^{n-1} + ... + f_{n-1}.
        """
        n = self.rank
        f = self.f_vector()
        coeff = [0] * (n + 1)  # coeff[d] multiplies t^d
        for i in range(n + 1):
            c = 1 if i == 0 else f[i - 1]
            for d in range(n - i + 1):
                coeff[d] += c * comb(n - i, d) * (-1) ** (n - i - d)
        return tuple(coeff[n - j] for j in range(n + 1))

    def euler_characteristic(self):
        return sum((-1) ** i * fi for i, fi in enumerate(self.f_vector()))


# ---------------------------------------------------------------------------
# builders


def point_poset():
    return SimplicialPoset._trusted(0, [Cell(0, 0, ())])


def _simplex_faces(verts, top):
    """Cell table of the faces of the simplex on verts with 1..top vertices."""
    subsets = [s for k in range(1, top + 1) for s in itertools.combinations(verts, k)]
    ids = {(): 0}
    cells = [Cell(0, 0, ())]
    for s in subsets:
        ids[s] = len(cells)
        covers = tuple(sorted(ids[t] for t in itertools.combinations(s, len(s) - 1)))
        label = "".join(str(v) for v in s)
        cells.append(Cell(ids[s], len(s), covers, label))
    return cells, ids


def simplex_boundary(n):
    """Face poset of the boundary of the n-simplex (the CP^n orbit poset)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SimplicialPoset._trusted(n, _simplex_faces(range(1, n + 2), n)[0])


def simplex_poset(n):
    """Face poset of the full (n-1)-simplex on n vertices (a disc)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SimplicialPoset._trusted(n, _simplex_faces(range(1, n + 1), n)[0])


def sphere_poset(n):
    """Two (n-1)-simplices glued along their entire boundaries (the S^{2n}
    orbit poset): rank n, with two top cells sharing all n vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    verts = tuple(range(1, n + 1))
    cells, ids = _simplex_faces(verts, n - 1)
    boundary = tuple(sorted(ids[t] for t in itertools.combinations(verts, n - 1)))
    nxt = len(cells)
    for label in ("p", "q"):
        cells.append(Cell(nxt, n, boundary, label))
        nxt += 1
    return SimplicialPoset._trusted(n, cells)


def sphere_product_poset(k, l):
    """Orbit poset of S^{2k} x S^{2l}, built as a join of sphere posets."""
    if k < 1 or l < 1:
        raise ValueError("both factors must have rank >= 1")
    return join(sphere_poset(k), sphere_poset(l))


# ---------------------------------------------------------------------------
# surgery


def join(p1, p2):
    """Join of simplicial posets: elements are pairs, ranks add.

    The h-polynomial of the join is the product of the h-polynomials.
    """
    pairs = [(x, y) for x in p1.cells for y in p2.cells]
    pairs.sort(key=lambda xy: (p1.rank_of(xy[0]) + p2.rank_of(xy[1]), xy))
    ids = {xy: i for i, xy in enumerate(pairs)}
    cells = []
    for (x, y), i in ids.items():
        r = p1.rank_of(x) + p2.rank_of(y)
        covers = [ids[(x2, y)] for x2 in p1.covers(x)]
        covers += [ids[(x, y2)] for y2 in p2.covers(y)]
        parts = []
        if p1.rank_of(x) > 0:
            parts.append("L" + p1.cell(x).named())
        if p2.rank_of(y) > 0:
            parts.append("R" + p2.cell(y).named())
        cells.append(Cell(i, r, tuple(sorted(covers)), "|".join(parts) or None))
    return SimplicialPoset._trusted(p1.rank + p2.rank, cells)


def connected_sum(p1, top1, p2, top2, matching=None):
    """Glue p1 and p2 by removing one top cell from each and identifying
    their boundaries along a vertex bijection.

    ``matching`` maps atoms of top1 to atoms of top2; by default the sorted
    vertex lists are matched in order.  The interior entries of the
    h-vector add; this is checked.  The result carries its atom sets:
    p1's as they are, p2's renamed, so no pass of ``_atom_sets`` rebuilds
    them, and an operand glued into many sums (a shared building block)
    has its own built once.  p2's cells other
    than the glued ones are copied under fresh ids, so p1 and p2 may be
    the same value: P # P needs no second copy of P.
    """
    n = p1.rank
    if p2.rank != n:
        raise PosetError([f"rank mismatch: {p1.rank} vs {p2.rank}"])
    if p1.rank_of(top1) != n or p2.rank_of(top2) != n:
        raise PosetError(["chosen cells are not top-dimensional"])
    if len(p1.tops()) == len(p2.tops()) == 1:
        raise PosetError(["connected sum would remove the only top cell of "
                          "both operands"])
    a1 = sorted(p1.atoms(top1))
    a2 = sorted(p2.atoms(top2))
    if matching is None:
        matching = dict(zip(a1, a2))
    if sorted(matching) != a1 or sorted(matching.values()) != a2:
        raise PosetError(["matching is not a bijection of the top cells' vertices"])
    inverse = {v: k for k, v in matching.items()}

    by_atoms_1 = {p1.atoms(y): y for y in p1.downset(top1) if y != top1}
    identified = {}
    for y in p2.downset(top2):
        if y == top2:
            continue
        target = frozenset(inverse[v] for v in p2.atoms(y))
        identified[y] = by_atoms_1[target]

    cells = [c for c in p1.cells.values() if c.id != top1]
    fresh = max(p1.cells) + 1
    rename = {}
    for y in sorted(p2.cells, key=lambda y: (p2.rank_of(y), y)):
        if y == top2 or y in identified:
            continue
        rename[y] = fresh
        fresh += 1

    # every element of p2 but top2, which lies below nothing
    image = {**identified, **rename}.__getitem__

    # top1 lies below nothing, so p1's other atom sets carry over as they
    # are; p2's carry over renamed
    atoms2 = p2._atom_table()
    atoms = {y: s for y, s in p1._atom_table().items() if y != top1}
    for y, new_id in rename.items():
        c = p2.cell(y)
        covers = tuple(sorted(map(image, c.covers)))
        cells.append(Cell(new_id, c.rank, covers, c.label))
        atoms[new_id] = frozenset(map(image, atoms2[y]))
    out = SimplicialPoset._trusted(n, cells, atoms)

    h, h1, h2 = out.h_vector(), p1.h_vector(), p2.h_vector()
    expect = [h1[i] + h2[i] for i in range(n + 1)]
    expect[0] -= 1
    expect[n] -= 1
    if list(h) != expect:
        raise PosetError([f"h-vector additivity failed: {h} vs {tuple(expect)}"])
    return out


def barycentric_subdivision(p, force=False):
    """The order complex of the poset minus its least element.

    Vertices are the elements of the poset, k-cells are the chains of
    length k+1; the result is always a simplicial complex.  Refused above
    rank 6 unless forced (factorial growth).
    """
    if p.rank > MAX_SUBDIVISION_RANK and not force:
        raise RankBoundError(
            f"barycentric subdivision refused at rank {p.rank} (> "
            f"{MAX_SUBDIVISION_RANK}); pass force=True to override")
    chains_by_top = {}
    all_chains = []
    for x in p.elements():
        if x == p.root:
            continue
        cs = [(x,)]
        for y in p.downset(x):
            if y != x and y != p.root:
                cs.extend(c + (x,) for c in chains_by_top[y])
        chains_by_top[x] = cs
        all_chains.extend(cs)
    all_chains.sort(key=lambda c: (len(c), c))
    ids = {c: i + 1 for i, c in enumerate(all_chains)}
    cells = [Cell(0, 0, ())]
    for c, i in ids.items():
        if len(c) == 1:
            covers = (0,)
            label = p.cell(c[0]).named()
        else:
            covers = tuple(sorted(ids[c[:j] + c[j + 1:]] for j in range(len(c))))
            label = None
        cells.append(Cell(i, len(c), covers, label))
    return SimplicialPoset._trusted(p.rank, cells)


def stellar_subdivision(p, x):
    """Stellar subdivision at the cell x: the star of x is removed and
    replaced by the cone, over a new vertex, on the boundary of the star.

    In a cell complex two cells w and x may span several minimal common
    upper bounds, and each such cell z contributes its own copy of the
    coned cell; new cells are therefore indexed by pairs (w, z) with
    w not above x and z in join_set(w, x).  These are the pairs with z in
    the star, w below z and outside it, and atoms(z) = atoms(w) | atoms(x),
    so only the star (by ``leq`` on the atom sets) and the downsets of its
    cells are walked.  The new cell (w, z) covers w and, for each cover w2
    of w, the cell (w2, face of z on atoms(w2) | atoms(x)).  Preserves the
    Euler characteristic (checked) and the rank.
    """
    if x == p.root:
        raise PosetError(["cannot subdivide at the least element"])
    atoms = p._atom_table()
    star = {z for z in p.cells if p.leq(x, z)}
    surviving = [c for c in p.cells.values() if c.id not in star]

    ax = atoms[x]
    new_cells = [(w, z) for z in star for w in p.downset(z)
                 if w not in star and atoms[w] | ax == atoms[z]]
    new_cells.sort(key=lambda wz: (p.rank_of(wz[0]), wz))
    ids = {wz: i for i, wz in enumerate(new_cells, max(p.cells) + 1)}

    cells = list(surviving)
    for (w, z), i in ids.items():
        rk = p.rank_of(w) + 1
        if w == p.root:
            covers = (p.root,)
        else:
            covers = [w]
            covers += [ids[(w2, p.face(z, atoms[w2] | ax))]
                       for w2 in p.covers(w)]
            covers = tuple(sorted(covers))
        label = "b" if w == p.root else None
        cells.append(Cell(i, rk, covers, label))
    out = SimplicialPoset._trusted(p.rank, cells)
    if out.euler_characteristic() != p.euler_characteristic():
        raise PosetError(["stellar subdivision changed the Euler characteristic"])
    return out


# ---------------------------------------------------------------------------
# JSON wire format


def to_json_dict(p):
    """Canonical JSON form: cells sorted by (rank, id)."""
    cells = []
    for x in p.elements():
        c = p.cell(x)
        entry = {"id": c.id, "rank": c.rank, "covers": sorted(c.covers)}
        if c.label is not None:
            entry["label"] = c.label
        cells.append(entry)
    return {"rank": p.rank, "cells": cells}


def _wire_cells(raws):
    """The cells of a wire-form cell table, or None unless every entry has
    exactly the type it needs.  The types are gathered into sets, over the
    cells and then over the cover entries, and compared with the expected
    ones, so no cell is checked on its own."""
    if not set(map(type, raws)) <= {dict}:
        return None
    try:
        kinds = {(type(r["id"]), type(r["rank"]), type(r["covers"]),
                  type(r.get("label", ""))) for r in raws}
    except KeyError:
        return None
    if not kinds <= {(int, int, list, str)}:
        return None
    entries = itertools.chain.from_iterable(r["covers"] for r in raws)
    if not set(map(type, entries)) <= {int}:
        return None
    return [Cell(r["id"], r["rank"], tuple(r["covers"]), r.get("label"))
            for r in raws]


def from_json_dict(data):
    if not isinstance(data, dict) or "rank" not in data or "cells" not in data:
        raise ValueError("poset JSON needs 'rank' and 'cells'")
    if type(data["rank"]) is not int or not isinstance(data["cells"], list):
        raise ValueError("poset JSON field types are wrong")
    cells = _wire_cells(data["cells"])
    if cells is not None:
        return SimplicialPoset(data["rank"], cells)
    # name the first bad cell (or accept the dict and list subclasses that
    # the type pass leaves to this loop)
    cells = []
    for raw in data["cells"]:
        try:
            if not isinstance(raw, dict):
                raise ValueError("a cell must be an object")
            if not isinstance(raw["covers"], list):
                raise ValueError("covers must be a list")
            if not isinstance(raw.get("label", ""), str):
                raise ValueError("label must be a string")
            # bool is an int subclass: JSON true must not pass as 1
            if any(type(v) is not int
                   for v in (raw["id"], raw["rank"], *raw["covers"])):
                raise ValueError("id, rank and covers entries must be integers")
            cells.append(Cell(raw["id"], raw["rank"], tuple(raw["covers"]),
                              raw.get("label")))
        except (KeyError, ValueError) as err:
            raise ValueError(f"bad cell entry {raw!r}: {err}")
    return SimplicialPoset(data["rank"], cells)
