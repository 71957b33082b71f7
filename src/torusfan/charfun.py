"""Characteristic maps, unimodularity, GKM graphs and axial functions.

A characteristic map assigns a primitive integer n-vector to every rank-1
element.  It is unimodular when, for every element x, the vectors on the
vertices of x extend to a lattice basis (all Smith invariant factors 1).
``check_unimodular`` tests every element by Smith normal form, so that a
violation can name its invariant factors.  ``find_characteristic_map``
tests only the prefix faces of the maximal elements (the atoms of each,
in id order, up to the vertex being assigned): every element lies below
one, and a subset of vectors that extend to a basis extends too, so the
lexicographically first map is the one a test at every element gives.
A prefix's vectors extend to a basis together with c iff gcd(Q c) = 1,
where Q maps Z^n onto Z^n modulo their span (``quotient_step``).

The 1-skeleton of the dual orbit space is the GKM graph: its vertices are
the top cells, its edges the rank n-1 elements lying below exactly two
tops.  At a top cell p the n incident edges are labelled by the dual
basis of the vertex vectors at p: the edge omitting vertex v carries the
vector pairing to 1 with the vector of v and to 0 with the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import index, mul

from . import linalg
from .poset import TorusfanError
from .polys import Poly, monomials_of_degree, restrict_to_hyperplane


class GKMError(TorusfanError):
    pass


def _integer_vector(v):
    """v as a tuple of ints, or None when v has an entry that is not an
    integer (nothing is truncated)."""
    try:
        return tuple(index(c) for c in v)
    except TypeError:
        return None


def _is_primitive(vec):
    g = 0
    for c in vec:
        g = gcd(g, c)
    return g == 1


class CharacteristicMap:
    """Assignment of primitive integer n-vectors to rank-1 elements."""

    __slots__ = ("n", "vectors")

    def __init__(self, n, vectors):
        self.n = n
        self.vectors = {index(x): _integer_vector(v) for x, v in vectors.items()}
        for x, v in self.vectors.items():
            if v is None:
                raise GKMError(f"vector for {x} has non-integer entries: "
                               f"{vectors[x]!r}")
            if len(v) != n:
                raise GKMError(f"vector for {x} has length {len(v)}, expected {n}")
            if not _is_primitive(v):
                raise GKMError(f"vector for {x} is not primitive: {v}")

    def vec(self, x):
        return self.vectors[x]

    def __eq__(self, other):
        return (isinstance(other, CharacteristicMap) and self.n == other.n
                and self.vectors == other.vectors)

    def __repr__(self):
        return f"CharacteristicMap({self.vectors})"

    def to_json_dict(self):
        return {str(x): list(v) for x, v in sorted(self.vectors.items())}


def check_unimodular(poset, chi):
    """True iff every element's vertex vectors have all Smith factors 1.

    ``chi`` may be a CharacteristicMap or a plain {vertex: vector} dict;
    the dict form lets raw data that is not integral or not primitive come
    back as a violation instead of a constructor error.  A vector whose
    length is not the poset rank is a violation too.
    """
    vectors = chi.vectors if isinstance(chi, CharacteristicMap) else {
        index(x): _integer_vector(v) for x, v in chi.items()}
    violations = []
    missing = [v for v in poset.vertices() if v not in vectors]
    if missing:
        violations.append(f"missing assignment on vertices {sorted(missing)}")
        return False, violations
    for x, v in sorted(vectors.items()):
        if v is None:
            violations.append(f"vector for {x} has non-integer entries: "
                              f"{chi[x]!r}")
        elif len(v) != poset.rank:
            violations.append(
                f"vector for {x} has length {len(v)}, expected {poset.rank}")
        elif not _is_primitive(v):
            violations.append(f"vector for {x} is not primitive: {v}")
    if violations:
        return False, violations
    for x in poset.elements():
        k = poset.rank_of(x)
        if k < 2:
            continue
        mat = [vectors[v] for v in sorted(poset.atoms(x))]
        factors, rank = linalg.smith_normal_form(mat)
        if rank < k or any(f != 1 for f in factors):
            violations.append(
                f"{poset.cell(x).named()}: vertex vectors have invariant "
                f"factors {factors}")
    return not violations, violations


def quotient_step(rows, vec):
    """The quotient map by one more vector, formed by gcd row steps.

    ``rows`` is an r x n integer matrix Q that maps Z^n onto Z^r.  When
    Q vec is primitive, the result is an (r-1) x n matrix that maps Z^n
    onto Z^r / <Q vec>, so its kernel is the kernel of Q plus the span of
    ``vec``; otherwise ValueError.

    >>> quotient_step([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (2, 3, 0))
    [[3, -2, 0], [0, 0, 1]]
    """
    rows = [list(r) for r in rows]
    w = [sum(map(mul, r, vec)) for r in rows]
    while True:
        live = [i for i, x in enumerate(w) if x]
        if len(live) < 2:
            break
        j = min(live, key=lambda i: abs(w[i]))
        for i in live:
            if i != j:
                q = w[i] // w[j]
                w[i] -= q * w[j]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
    if not live or abs(w[live[0]]) != 1:
        raise ValueError(f"the image of {tuple(vec)} is not primitive")
    del rows[live[0]]
    return rows


def find_characteristic_map(poset, bound):
    """Depth-first search for a unimodular characteristic map.

    Vertices are processed in id order and candidate vectors in
    lexicographic order, so the result is the lexicographically first
    solution; returns None when the bound admits none.

    At vertex v only the prefix faces are checked: for each maximal
    element, the face spanned by its atoms up to v.  Every element whose
    last atom is v lies below such a prefix (the lower interval of a cell
    is boolean), and vectors that extend to a lattice basis have every
    subset extend too, so a candidate passes exactly when every element
    it completes is unimodular, and the search path and its result are
    those of a check at every cell.  Each prefix that later vertices
    extend keeps a matrix Q mapping Z^n onto Z^n / span(its vectors),
    rebuilt by ``quotient_step`` whenever its last vertex takes a vector;
    a candidate c passes a prefix iff gcd(Q c) = 1.
    """
    if bound < 1:
        return None
    n = poset.rank
    vertices = sorted(poset.vertices())
    position = {v: i for i, v in enumerate(vertices)}
    # checks[i]: the atoms before vertex i of each prefix face ending there;
    # builds[i]: the prefixes ending at vertex i that a later vertex extends
    checks = [set() for _ in vertices]
    builds = [set() for _ in vertices]
    for m in poset.maximal_elements():
        atoms = tuple(sorted(poset.atoms(m)))
        for k in range(1, len(atoms)):
            checks[position[atoms[k]]].add(atoms[:k])
            builds[position[atoms[k - 1]]].add(atoms[:k])
    quotient = {(): [[int(i == j) for j in range(n)] for i in range(n)]}

    def candidates(i):
        lattice = product(range(-bound, bound + 1), repeat=n)
        if not checks[i]:
            return filter(_is_primitive, lattice)
        maps = [quotient[p] for p in checks[i]]
        return (c for c in lattice
                if all(gcd(*[sum(map(mul, r, c)) for r in q]) == 1
                       for q in maps))

    assign = [None] * len(vertices)
    pending = [None] * len(vertices)
    i = 0
    while 0 <= i < len(vertices):
        if pending[i] is None:
            pending[i] = candidates(i)
        c = next(pending[i], None)
        if c is None:
            pending[i] = None
            i -= 1
            continue
        assign[i] = c
        for p in builds[i]:
            quotient[p] = quotient_step(quotient[p[:-1]], c)
        i += 1
    if i < 0:
        return None
    return CharacteristicMap(n, dict(zip(vertices, assign)))


# ---------------------------------------------------------------------------
# GKM graphs


@dataclass(frozen=True)
class GKMEdge:
    id: int            # the rank n-1 element
    ends: tuple        # (p, q) with p < q
    labels: tuple      # (alpha at p, alpha at q)
    sign: int          # labels[1] == sign * labels[0]

    def label_at(self, vertex):
        return self.labels[self.ends.index(vertex)]

    def other_end(self, vertex):
        p, q = self.ends
        return q if vertex == p else p


class GKMGraph:
    """The labelled 1-skeleton: top cells, doubled-edge aware."""

    __slots__ = ("poset", "chi", "n", "vertices", "edges", "_labels_at")

    def __init__(self, poset, chi, vertices, edges):
        self.poset = poset
        self.chi = chi
        self.n = poset.rank
        self.vertices = vertices
        self.edges = edges
        self._labels_at = {}
        for e in edges:
            for v in e.ends:
                self._labels_at.setdefault(v, {})[e.id] = e.label_at(v)

    def edges_at(self, vertex):
        return tuple(sorted(self._labels_at.get(vertex, {})))

    def label(self, vertex, edge_id):
        return self._labels_at[vertex][edge_id]

    def is_connected(self):
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        queue = [self.vertices[0]]
        while queue:
            v = queue.pop()
            for e in self.edges:
                if v in e.ends:
                    w = e.other_end(v)
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return len(seen) == len(self.vertices)


def _is_integer_multiple(diff, alpha):
    """diff == c * alpha for some integer c (alpha primitive, nonzero)."""
    j = next((i for i, a in enumerate(alpha) if a), -1)
    if j < 0:
        return False
    if diff[j] % alpha[j]:
        return False
    c = diff[j] // alpha[j]
    return all(d == c * a for d, a in zip(diff, alpha))


def build_gkm_graph(poset, chi):
    """Label the 1-skeleton with the dual bases of the vertex vectors.

    Requires a pure pseudomanifold poset and a unimodular map.  The three
    axial-function axioms are verified: opposite orientations agree up to
    sign, the labels at each vertex form a lattice basis, and matched
    labels across an edge are congruent modulo the edge label.
    """
    from .homology import pseudomanifold

    n = poset.rank
    pm = pseudomanifold(poset)
    if not pm.ok:
        raise GKMError("poset is not a pure pseudomanifold: "
                       + "; ".join(pm.witnesses))
    ok, violations = check_unimodular(poset, chi)
    if not ok:
        raise GKMError("characteristic map is not unimodular: "
                       + "; ".join(violations))

    # per top cell: the label of each incident edge, keyed by omitted vertex
    labels = {}
    edge_of = {}
    for p in poset.tops():
        verts = sorted(poset.atoms(p))
        inverse = linalg.invert_unimodular([list(chi.vec(v)) for v in verts])
        by_atoms = {poset.atoms(y): y for y in poset.downset(p)}
        lbl = {}
        eo = {}
        for j, v in enumerate(verts):
            e = by_atoms[poset.atoms(p) - {v}]
            lbl[e] = tuple(inverse[i][j] for i in range(n))
            eo[v] = e
        labels[p] = lbl
        edge_of[p] = eo

    problems = []
    edges = []
    for e in poset.by_rank(n - 1) if n >= 1 else ():
        above = sorted(y for y in poset.upset(e) if poset.rank_of(y) == n)
        p, q = above
        ap, aq = labels[p][e], labels[q][e]
        if ap == aq:
            sign = 1
        elif all(a == -b for a, b in zip(ap, aq)):
            sign = -1
        else:
            problems.append(f"edge {poset.cell(e).named()}: labels {ap} / {aq} "
                            "differ by more than a sign")
            continue
        # congruence along the edge, matching edges by shared omitted vertex
        for v in sorted(poset.atoms(e)):
            fp = labels[p][edge_of[p][v]]
            fq = labels[q][edge_of[q][v]]
            diff = tuple(a - b for a, b in zip(fp, fq))
            if any(diff) and not _is_integer_multiple(diff, ap):
                problems.append(
                    f"edge {poset.cell(e).named()}: labels omitting vertex "
                    f"{poset.cell(v).named()} are not congruent mod {ap}")
        edges.append(GKMEdge(e, (p, q), (ap, aq), sign))
    if problems:
        raise GKMError("; ".join(problems))
    return GKMGraph(poset, chi, tuple(poset.tops()), tuple(edges))


# ---------------------------------------------------------------------------
# restriction tuples


def thom_class_restriction(graph, x):
    """Restriction tuple of the class carried by the cell x.

    At a top cell p above x the component is the product of the labels of
    the edges at p not containing x (one per vertex of x); elsewhere 0.
    """
    poset = graph.poset
    n = graph.n
    out = {}
    for p in graph.vertices:
        if not poset.leq(x, p):
            out[p] = Poly.zero(n)
            continue
        poly = Poly.const(n, 1)
        for v in sorted(poset.atoms(x)):
            e = _edge_at_omitting(graph, p, v)
            poly = poly * Poly.linear(graph.label(p, e))
        out[p] = poly
    return out


def _edge_at_omitting(graph, p, v):
    poset = graph.poset
    target = poset.atoms(p) - {v}
    for e in graph.edges_at(p):
        if poset.atoms(e) == target:
            return e
    raise GKMError(f"no edge at {p} omitting {v}")


def tuple_degree(eta):
    degs = {p.degree() for p in eta.values() if not p.is_zero()}
    if len(degs) > 1:
        raise GKMError(f"restriction tuple is not homogeneous: degrees {degs}")
    return degs.pop() if degs else -1


def divisibility_check(graph, eta):
    """For every edge, the difference of the endpoint polynomials must be
    divisible by the edge label; checked by restricting the difference to
    the hyperplane where the label vanishes."""
    witnesses = []
    for e in graph.edges:
        p, q = e.ends
        diff = eta[p] - eta[q]
        if diff.is_zero():
            continue
        if not restrict_to_hyperplane(diff, e.labels[0]).is_zero():
            witnesses.append(
                f"edge {graph.poset.cell(e.id).named()}: difference not "
                f"divisible by {e.labels[0]}")
    return not witnesses, witnesses


def gkm_subalgebra_dimension(graph, k):
    """Dimension over Q of the degree-k tuples satisfying every edge
    divisibility condition."""
    if k < 0:
        return 0
    n = graph.n
    monos = monomials_of_degree(n, k)
    offset = {x: i * len(monos) for i, x in enumerate(graph.vertices)}
    span = linalg.Span(0)
    for e in graph.edges:
        p, q = (offset[x] for x in e.ends)
        restricted = [restrict_to_hyperplane(Poly(n, {m: 1}), e.labels[0])
                      for m in monos]
        targets = sorted({t for r in restricted for t in r.coeffs})
        for t in targets:
            row = {}
            for i, r in enumerate(restricted):
                c = r.coeffs.get(t, 0)
                if c:
                    row[p + i], row[q + i] = c, -c
            span.add(row)
    return len(offset) * len(monos) - span.rank


def face_ring_to_gkm(graph, element):
    """The ring map into restriction tuples: v_x goes to the class of x,
    extended over chain monomials and linearly."""
    poset = graph.poset
    n = graph.n
    gen_images = {}

    def image_of_generator(x):
        hit = gen_images.get(x)
        if hit is None:
            hit = thom_class_restriction(graph, x)
            gen_images[x] = hit
        return hit

    out = {p: Poly.zero(n) for p in graph.vertices}
    for mono, coeff in element.terms.items():
        term = {p: Poly.const(n, coeff) for p in graph.vertices}
        for x, a in mono:
            img = image_of_generator(x)
            for p in graph.vertices:
                term[p] = term[p] * img[p] ** a
        for p in graph.vertices:
            out[p] = out[p] + term[p]
    return out

