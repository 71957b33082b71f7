"""Ordinary cohomology data of the combinatorial torus manifold.

Everything here reduces to degree-by-degree linear algebra on chain
monomial bases.  One graded quotient of the face ring by the linear
system attached to a characteristic map (``_quotient``: per degree, the
span of the rows theta_j * m) serves three readers: Betti ranks are its
dimensions, the quotient basis is its monomials at no pivot column, and
the parity test evaluates the product of (1 + v_i) over the vertices in
its mod 2 reduction.  The vertex products behind the rows are computed
once per monomial, from the upper covers (``facering.vertex_products``),
and the parity test reads the same table.  The ring presentation lists
the straightening and linear relations; it tests every pair of cells, so
it builds one table of downsets for the pass, decides comparability and
joins from it, and finds the pairs with a common upper bound from the
maximal elements above each cell.

Each degree's basis comes from the vertex products one degree down,
which the rows need anyway: the chain monomials of degree 2k >= 2 are
exactly the terms of v * m' over the vertices v and the chain monomials
m' of degree 2k - 2, so no chain is enumerated.  Each term has degree
2k.  Conversely, take m = x_1^a_1 ... x_q^a_q of degree 2k and let x_0 be
the least element.  The interval below x_q is boolean (Stanley 1991),
so a coatom y of [x_{q-1}, x_q] is the face of x_q on all its vertices
but one, v, and v lies below no x_i with i < q.  Trading one copy of x_q
for y (none when y = x_0) gives m' of degree 2k - 2, and m is a term of
v * m' by the closed form of ``facering.vertex_products``.  When a_q = 1,
y is the top of m' and v lies below no element of m', so one copy of y
becomes each upper cover of y above v, x_q among them.  When a_q > 1, v
first lies below x_q, which follows y in m', so one copy of y becomes
the one upper cover of y below x_q and above v, which is x_q.  When
y = x_0, x_q is the vertex v and m' = v^(a_q - 1), which v joins at its
bottom (v * 1 = v when a_q = 1).

The linear forms theta_j = sum_v chi(v)_j v are first brought to reduced
echelon form over the field, as sparse rows over the vertex columns
(``linalg.reduced_echelon``): each pivot vertex is cleared from every
other form, and over Q the forms stay integral.  A characteristic map
is dense (realized ones carry entries like -2 at almost every
coordinate), so every theta would carry every vertex; the reduced forms
carry a pivot vertex and only the vertices that no pivot clears.  They
span the same space of linear forms, so they generate the same ideal,
and in each degree 2k the rows f * m, over the forms f and the
monomials m of degree 2k - 2, have the same span as the rows
theta_j * m.  A map whose vectors have rank r < n over the field gives
r forms.  From here on, theta_j means the j-th reduced form.

Rows are added theta by theta, and a row theta_j * m is left out when m
became a pivot column one degree down while the rows of theta_1 ..
theta_{j-1} were added (Faugere's F5 criterion, ISSAC 2002).  The span
does not change.  Such an m leads an element g = m + (later columns) of
the ideal of theta_1 .. theta_{j-1} one degree down, so theta_j * m is
theta_j * g, which lies in that ideal, minus theta_j times later columns.
By induction on j and then down the columns, both parts lie in the span
of the rows that are added.  The argument uses only that the thetas
generate the ideal, so it holds for the reduced forms as for any
generating sequence.  Pivot columns, ranks and residues over GF(p)
depend on the span alone, so every reader sees the same quotient, with
the reduced forms or without.  When the thetas form a regular sequence
(the face ring is Cohen-Macaulay), no added row reduces to zero.
"""

from __future__ import annotations

from . import linalg
from .charfun import check_unimodular
from .facering import (FaceRing, RingElement, lsop_from_lambda, monomial_key,
                       upper_covers, vertex_products)
from .poset import Record, TorusfanError


class CohomologyError(TorusfanError):
    pass


def _covered_vertices(poset, chi):
    """The sorted vertices, once the characteristic map is known to give
    each a vector."""
    vertices = sorted(poset.vertices())
    missing = [v for v in vertices if v not in chi.vectors]
    if missing:
        raise CohomologyError(f"characteristic map misses vertices {missing}")
    return vertices


def _quotient(poset, chi, char, kmax):
    """For each degree 2k, k <= kmax: {chain monomial: position} over the
    chain-monomial basis, which is the set of terms of the vertex products
    one degree down (module docstring), in the canonical order; the Span
    over GF(char), or Q for char 0, of the rows theta_j * m for every
    reduced form theta_j and every monomial m of degree 2k - 2, less the
    rows that the row criterion shows redundant; and the products behind
    those rows: per monomial m, one (column of v * m, vector of v, v)
    triple per term of each vertex product, where the vector of v holds
    v's coefficient in each reduced form.  The reduced forms span what
    the thetas of chi span over the field (module docstring), so the
    Span is the same as with the thetas.  A negative kmax raises
    ValueError."""
    linalg.check_nonnegative(kmax)
    vertices = _covered_vertices(poset, chi)
    forms = linalg.reduced_echelon(
        [{v: c for v in vertices if (c := chi.vec(v)[j])}
         for j in range(chi.n)], char).values()
    vectors = {v: tuple(form.get(v, 0) for form in forms) for v in vertices}
    upper = upper_covers(poset)
    index, products = {(): 0}, []
    out = []
    since = {}  # pivot column one degree down -> the j whose rows made it
    for k in range(kmax + 1):
        if k:
            found = [vertex_products(poset, m, upper) for m in index]
            index = {m: i for i, m in enumerate(sorted(
                {m for terms in found for _, m in terms}, key=monomial_key))}
            # products by distinct vertices share no monomial
            products = [[(index[m], vectors[v], v) for v, m in terms]
                        for terms in found]
        span = linalg.Span(char)
        pivots = {}
        for j in range(len(forms)):
            for i, terms in enumerate(products):
                if since.get(i, j) >= j:
                    span.add({c: vec[j] for c, vec, _ in terms if vec[j]})
            for c in span.rows:
                pivots.setdefault(c, j)
        out.append((index, span, products))
        since = pivots
    return out


def quotient_dimensions(poset, chi, char=0, kmax=None):
    """Dimensions of (face ring / (theta_1..theta_n))_{2k} for k <= kmax."""
    kmax = poset.rank if kmax is None else kmax
    return [len(index) - span.rank
            for index, span, _ in _quotient(poset, chi, char, kmax)]


def betti_numbers(poset, chi, char=0):
    """(b_0, ..., b_n): graded dimensions of the quotient by the linear
    system of parameters attached to the characteristic map.

    Equals the h-vector whenever the face ring is Cohen-Macaulay over the
    chosen field.  ``char`` 0 means the rationals, a prime p means GF(p).
    """
    ok, violations = check_unimodular(poset, chi)
    if not ok:
        raise CohomologyError("characteristic map is not unimodular: "
                              + "; ".join(violations))
    return tuple(quotient_dimensions(poset, chi, char))


def graded_quotient_basis(poset, chi, char=0, kmax=None):
    """Monomial representatives of a basis of the graded quotient,
    one list per degree 2k: the monomials at no pivot column."""
    kmax = poset.rank if kmax is None else kmax
    ring = FaceRing(poset, char)
    quotient = _quotient(poset, chi, char, kmax)
    return {k: [ring.element([(m, 1)]) for i, m in enumerate(index)
                if i not in span.rows]
            for k, (index, span, _) in enumerate(quotient)}


# ---------------------------------------------------------------------------
# ring presentation


class RingPresentation(Record):
    """Generators v_x (one per poset element above the root, degree 2 rk x),
    straightening relations for incomparable pairs, and the linear
    relations of the characteristic map."""

    __slots__ = ("generators", "product_relations", "linear_relations")

    def __init__(self, generators, product_relations, linear_relations):
        self.generators = generators  # (id, degree, label)
        # (x, y, rhs RingElement): v_x v_y = rhs
        self.product_relations = product_relations
        self.linear_relations = linear_relations  # RingElements


def present_cohomology_ring(poset, chi):
    """Presentation of the cohomology ring: one generator per cell, the
    straightening relations, and the n linear relations read off the
    characteristic map."""
    ring = FaceRing(poset)
    elements = poset.elements()
    ids = elements[1:]
    gens = tuple((x, 2 * poset.rank_of(x), poset.cell(x).label) for x in ids)
    # one downset table for the pass, built bottom-up: every pair is tested
    down = {}
    for x in elements:
        down[x] = frozenset((x,)).union(*map(down.__getitem__, poset.covers(x)))
    # the maximal elements above each cell: two cells have a common upper
    # bound iff these sets meet
    above = {x: set() for x in ids}
    for t in poset.maximal_elements():
        for x in down[t]:
            if x != poset.root:
                above[x].add(t)
    relations = []
    zero = ring.zero()
    for i, x in enumerate(ids):
        above_x = above[x]
        atoms_x = poset.atoms(x)
        for y in ids[i + 1:]:
            # ids go up by rank, so y <= x only when y == x
            if x in down[y]:
                continue
            if above_x.isdisjoint(above[y]):
                relations.append((x, y, zero))
                continue
            # the joins are the common upper bounds of rank |atoms(x) |
            # atoms(y)| (``join_set``); below one the interval is boolean,
            # so the meet is the face of x on the common vertices
            atoms_y = poset.atoms(y)
            joins = [z for z in poset.by_rank(len(atoms_x | atoms_y))
                     if x in down[z] and y in down[z]]
            common = atoms_x & atoms_y
            if common:
                m = poset.face(x, common)
                terms = {((m, 1), (z, 1)): 1 for z in joins}
            else:
                terms = {((z, 1),): 1 for z in joins}
            relations.append((x, y, RingElement(ring, terms)))
    linear = tuple(lsop_from_lambda(ring, chi))
    return RingPresentation(gens, tuple(relations), linear)


def dehn_sommerville_check(h):
    """Palindromicity h_i = h_{n-i}."""
    return all(h[i] == h[len(h) - 1 - i] for i in range(len(h)))


# ---------------------------------------------------------------------------
# total characteristic class parity, mod 2


class SWParityReport(Record):
    __slots__ = ("applicable", "pairing", "euler", "consistent", "note")

    def __init__(self, applicable, pairing=None, euler=None, consistent=None,
                 note=""):
        self.applicable = applicable
        self.pairing = pairing  # coefficient of the socle class, 0 or 1
        self.euler = euler      # Euler characteristic mod 2
        self.consistent = consistent
        self.note = note


def _mod2_parameters_ok(poset, chi):
    """The linear system stays a system of parameters mod 2 iff every
    cell's vertex vectors keep full rank over GF(2).  A face's vectors are
    some of those of each maximal element above it, so the maximal
    elements are tested first; only when one fails does the scan over
    every cell, in order, find the first failing one to name."""
    def full_rank(x):
        k = poset.rank_of(x)
        return k < 1 or linalg.rank(
            [chi.vec(v) for v in sorted(poset.atoms(x))], 2) == k

    if all(map(full_rank, poset.maximal_elements())):
        return True, None
    x = next(x for x in poset.elements() if not full_rank(x))
    return False, poset.cell(x).named()


def sw_parity(poset, chi):
    """Evaluate the degree-2n part of prod_i (1 + v_i) in the mod 2
    quotient against the socle class, and compare with the Euler
    characteristic mod 2.  The two always agree on orbit posets of torus
    manifolds with vanishing odd cohomology.
    """
    n = poset.rank
    if n < 1 or not poset.is_pure():
        return SWParityReport(False, note="poset must be pure of rank >= 1")
    vertices = _covered_vertices(poset, chi)
    ok, where = _mod2_parameters_ok(poset, chi)
    if not ok:
        return SWParityReport(
            False, note=f"no linear system of parameters mod 2 (fails at {where})")
    quotient = _quotient(poset, chi, 2, n)

    index, span, _ = quotient[n]
    top_dim = len(index) - span.rank
    if top_dim != 1:
        return SWParityReport(
            False, note=f"degree-2n quotient has dimension {top_dim}, not 1 "
                        "(input is not Gorenstein*)")
    socles = [span.reduce({index[((t, 1),)]: 1}) for t in poset.tops()]
    socle = socles[0]
    if not socle or any(s != socle for s in socles):
        return SWParityReport(
            False, note="top cells do not share a single nonzero socle class")

    # the columns of v * m per (position of m, vertex v), one degree up,
    # from the products behind the quotient's rows
    columns = [{} for _ in quotient]
    for k, (_, _, products) in enumerate(quotient):
        for i, terms in enumerate(products):
            for c, _, v in terms:
                columns[k].setdefault((i, v), []).append(c)
    # w = prod over vertices of (1 + v_i), one residue per degree; going
    # down in degree, w_k + v w_{k-1} still reads the old w_{k-1}
    w = [{0: 1}] + [{} for _ in range(n)]
    for v in vertices:
        for k in range(n, 0, -1):
            acc = dict(w[k])
            for i, c in w[k - 1].items():
                for col in columns[k].get((i, v), ()):
                    acc[col] = acc.get(col, 0) + c
            w[k] = quotient[k][1].reduce(acc)

    if not w[n]:
        pairing = 0
    elif w[n] == socle:
        pairing = 1
    else:
        return SWParityReport(
            False, note="degree-2n component escaped the socle line")
    euler = sum(poset.h_vector()) % 2
    return SWParityReport(True, pairing, euler, pairing == euler)
