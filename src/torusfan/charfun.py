"""Characteristic maps, unimodularity, GKM graphs and axial functions.

A characteristic map assigns a primitive integer n-vector to every rank-1
element.  It is unimodular when, for every element x, the vectors on the
vertices of x extend to a lattice basis (all Smith invariant factors 1).
A subset of vectors that extend to a basis extends too, and every element
lies below a maximal one.  So ``check_unimodular`` tests the maximal
elements, stops there when all pass, and otherwise tests only the
elements below none that passed; every failing element is still reached,
and its violation names its invariant factors.  At an element of rank n
the matrix is square, and its factors are all 1 exactly when its
determinant is +-1, since the determinant is their product up to sign;
so one exact (Bareiss) determinant decides it, and Smith normal form
runs only where that fails and on the elements of lower rank.
``find_characteristic_map`` tests only the prefix faces of the maximal
elements (the atoms of each, in id order, up to the vertex being
assigned), so the lexicographically first map is the one a test at every
element gives.
A prefix's vectors extend to a basis together with c iff gcd(Q c) = 1,
where Q maps Z^n onto Z^n modulo their span (``quotient_step``); for a
prefix of n-1 vectors Q is one row, and ``candidate_vectors`` solves
Q c = +-1 for the last coordinate of c instead of testing every value.

The 1-skeleton of the dual orbit space is the GKM graph: its vertices are
the top cells, its edges the rank n-1 elements lying below exactly two
tops.  At a top cell p the n incident edges are labelled by the dual
basis of the vertex vectors at p: the edge omitting vertex v carries the
vector pairing to 1 with the vector of v and to 0 with the others
(Goresky-Kottwitz-MacPherson, Invent. Math. 131, 1998; Guillemin-Zara,
Duke Math. J. 107, 2001).  ``build_gkm_graph`` inverts the vectors at
one top per component of the graph and carries the dual basis across
each ridge with one pairing per vertex; a pairing that is not +-1 is a
top that fails, and only then does ``check_unimodular`` run, to name the
violations.  ``gkm_subalgebra_dimension`` writes every label in the
basis of the first top's vectors; a label that is +-e_j there only
equates unknowns, which a union-find merges, and the rank over Q is
taken only of the conditions of the other labels.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from operator import index, mul

from . import linalg
from .homology import pseudomanifold, tops_above_ridges
from .poset import Record, TorusfanError
from .polys import (Poly, monomials_of_degree, restrict_monomials,
                    restrict_to_hyperplane)


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


def _vector_problem(x, v, raw, n):
    """Why v, read as ``_integer_vector(raw)``, is not a primitive integer
    n-vector for vertex x, or None when it is one."""
    if v is None:
        return f"vector for {x} has non-integer entries: {raw!r}"
    if len(v) != n:
        return f"vector for {x} has length {len(v)}, expected {n}"
    if not _is_primitive(v):
        return f"vector for {x} is not primitive: {v}"
    return None


class CharacteristicMap:
    """Assignment of primitive integer n-vectors to rank-1 elements."""

    __slots__ = ("n", "vectors")

    def __init__(self, n, vectors):
        self.n = n
        self.vectors = {index(x): _integer_vector(v) for x, v in vectors.items()}
        for x, v in self.vectors.items():
            problem = _vector_problem(x, v, vectors[x] if v is None else v, n)
            if problem:
                raise GKMError(problem)

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

    At an element of rank n (square, so maximal) one determinant decides
    this: the factors are all 1 exactly when it is +-1.  Smith normal form
    runs elsewhere, and where the determinant fails, so every violation
    names the element's invariant factors.

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
        problem = _vector_problem(x, v, chi[x] if v is None else v, poset.rank)
        if problem:
            violations.append(problem)
    if violations:
        return False, violations

    def factors(x):
        # None when the vertex vectors of x extend to a lattice basis
        mat = [vectors[v] for v in sorted(poset.atoms(x))]
        if len(mat) == poset.rank and abs(linalg.determinant(mat)) == 1:
            return None
        found, rank = linalg.smith_normal_form(mat)
        ok = rank == poset.rank_of(x) and all(f == 1 for f in found)
        return None if ok else found

    # below a maximal element whose vectors extend to a basis every
    # element's vectors do too, so only the rest need a test
    at_maximal = {m: factors(m) for m in poset.maximal_elements()
                  if poset.rank_of(m) >= 2}
    # every element of rank >= 2 lies below one of them
    if all(found is None for found in at_maximal.values()):
        return True, []
    unimodular = set()
    for m, found in at_maximal.items():
        if found is None:
            unimodular |= poset.downset(m)
    for x in poset.elements():
        if poset.rank_of(x) < 2 or x in unimodular:
            continue
        found = at_maximal[x] if x in at_maximal else factors(x)
        if found is not None:
            violations.append(
                f"{poset.cell(x).named()}: vertex vectors have invariant "
                f"factors {found}")
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


def candidate_vectors(maps, n, bound):
    """The vectors c in [-bound, bound]^n with gcd(Q c) = 1 for every
    quotient map Q in ``maps``, in lexicographic order.

    The first n-1 coordinates are walked in lexicographic order.  A
    one-row map q passes c iff s + q[-1] c[-1] = +-1, where s is the dot
    product of q with those coordinates, so it leaves at most two values
    of the last coordinate (all or none when q[-1] = 0).  Only the values
    that every one-row map leaves are tested against the maps with more
    rows.

    >>> list(candidate_vectors([[[2, 3]]], 2, 2))
    [(-2, 1), (-1, 1), (1, -1), (2, -1)]
    """
    values = range(-bound, bound + 1)
    lines = [q[0] for q in maps if len(q) == 1]
    wide = [q for q in maps if len(q) > 1]
    for head in product(values, repeat=n - 1):
        last = values
        for row in lines:
            s = sum(map(mul, row, head))
            a = row[-1]
            if a:
                ends = (-1 - s, 1 - s) if a > 0 else (1 - s, -1 - s)
                last = [t // a for t in ends if not t % a and t // a in last]
                if not last:
                    break
            elif s != 1 and s != -1:
                break
        else:
            for v in last:
                c = (*head, v)
                if all(gcd(*[sum(map(mul, r, c)) for r in q]) == 1
                       for q in wide):
                    yield c


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
    a candidate c passes a prefix iff gcd(Q c) = 1.  The candidates are
    generated by ``candidate_vectors``, which solves each one-row Q (a
    prefix of n-1 vectors) for the last coordinate; a vertex that
    completes no prefix takes every primitive vector.  A negative bound
    raises ValueError.
    """
    if linalg.check_nonnegative(bound) < 1:
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
        if not checks[i]:
            lattice = product(range(-bound, bound + 1), repeat=n)
            return filter(_is_primitive, lattice)
        return candidate_vectors([quotient[p] for p in checks[i]], n, bound)

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


class GKMEdge(Record):
    """An edge of the GKM graph: ``id`` is the rank n-1 element, ``ends``
    the tops (p, q) with p < q, ``labels`` (alpha at p, alpha at q) and
    ``sign`` the scalar with labels[1] == sign * labels[0]."""

    __slots__ = ("id", "ends", "labels", "sign")

    def __init__(self, id, ends, labels, sign):
        self.id = id
        self.ends = ends
        self.labels = labels
        self.sign = sign

    def label_at(self, vertex):
        return self.labels[self.ends.index(vertex)]


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

    def label(self, vertex, edge_id):
        return self._labels_at[vertex][edge_id]


def _is_integer_multiple(diff, alpha):
    """diff == c * alpha for some integer c (alpha primitive, nonzero)."""
    j = next((i for i, a in enumerate(alpha) if a), -1)
    if j < 0:
        return False
    if diff[j] % alpha[j]:
        return False
    c = diff[j] // alpha[j]
    return all(d == c * a for d, a in zip(diff, alpha))


def _dot(a, b):
    return sum(map(mul, a, b))


def _dual_bases(poset, chi, above, omitted):
    """{top p: {vertex v of p: lambda_p(v)}}, the dual basis of the vertex
    vectors at every top, or None when the vectors at some top are missing
    or do not form a lattice basis.

    One top per component of the GKM graph is inverted; the bases are
    carried from there across each ridge e = p - u = q - w.  With
    c = <lambda_p(u), chi(w)>, det chi(q) = c det chi(p) up to sign, so
    q passes exactly when c = +-1, and then lambda_q(w) = c lambda_p(u) and
    lambda_q(v) = lambda_p(v) - <lambda_p(v), chi(w)> lambda_q(w) for v in
    e.  The dual basis is unique, so the path that reaches q does not
    matter.
    """
    if chi.n != poset.rank:
        return None
    vectors = chi.vectors
    dual = {}
    for start in poset.tops():
        if start in dual:
            continue
        verts = sorted(poset.atoms(start))
        try:
            inverse = linalg.invert_unimodular([vectors[v] for v in verts])
        except (KeyError, ValueError):
            return None
        dual[start] = {v: tuple(row[j] for row in inverse)
                       for j, v in enumerate(verts)}
        queue = [start]
        for p in queue:
            at_p = dual[p]
            for e, u in omitted[p].items():
                ends = above[e]
                q = ends[1] if ends[0] == p else ends[0]
                if q in dual:
                    continue
                w = omitted[q][e]
                chi_w = vectors.get(w)
                if chi_w is None:
                    return None
                lam_u = at_p[u]
                c = _dot(lam_u, chi_w)
                if c == -1:
                    lam_w = tuple(-a for a in lam_u)
                elif c == 1:
                    lam_w = lam_u
                else:
                    return None
                at_q = {w: lam_w}
                for v, lam_v in at_p.items():
                    if v != u:
                        f = _dot(lam_v, chi_w)
                        at_q[v] = tuple(a - f * b for a, b in
                                        zip(lam_v, lam_w)) if f else lam_v
                dual[q] = at_q
                queue.append(q)
    return dual


def build_gkm_graph(poset, chi):
    """Label the 1-skeleton with the dual bases of the vertex vectors.

    Requires a pure pseudomanifold poset and a unimodular map.  The edges
    at a top p are its covers (the ridges below it), and the one omitting
    vertex v is labelled lambda_p(v) from ``_dual_bases``.  In a pure
    poset every element lies below a top, so the map is unimodular exactly
    when the vectors at every top form a lattice basis, that is, when the
    dual bases exist; ``check_unimodular`` runs only when they do not, to
    name the violations.  Two axial-function axioms are verified: opposite
    orientations agree up to sign, and matched labels across an edge are
    congruent modulo the edge label.  The third, that the labels at each
    top form a lattice basis, holds by construction.
    """
    pm = pseudomanifold(poset)
    if not pm.ok:
        raise GKMError("poset is not a pure pseudomanifold: "
                       + "; ".join(pm.witnesses))
    above = tops_above_ridges(poset)
    # per top: {ridge: the vertex of the top that the ridge omits}
    omitted = {}
    for p in poset.tops():
        atoms = poset.atoms(p)
        at_p = omitted[p] = {}
        for e in poset.covers(p):
            (at_p[e],) = atoms - poset.atoms(e)
    dual = _dual_bases(poset, chi, above, omitted)
    if dual is None:
        _, violations = check_unimodular(poset, chi)
        raise GKMError("characteristic map is not unimodular: "
                       + "; ".join(violations))

    problems = []
    edges = []
    for e, (p, q) in above.items():
        ap, aq = dual[p][omitted[p][e]], dual[q][omitted[q][e]]
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
            fp, fq = dual[p][v], dual[q][v]
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
            e = poset.face(p, poset.atoms(p) - {v})
            poly = poly * Poly.linear(graph.label(p, e))
        out[p] = poly
    return out


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
    divisibility condition.

    Every label alpha is first written in the basis of the vertex vectors
    of the first top cell p0, as (<alpha, chi(v)> for v in sorted
    atoms(p0)).  The labels at p0 are the dual basis of those vectors, so
    they become unit vectors.  On most realized posets every label becomes
    a unit vector up to sign, where as built the labels of realized
    (1,0,2,2,0,1) have entries up to 22.  The change of coordinates is
    invertible (``build_gkm_graph`` has checked that the vectors at p0
    form a lattice basis), and the substitution it induces on polynomials
    takes the multiples of the linear form alpha onto those of its image,
    degree by degree, so the dimension does not change.

    The unknowns are the coefficients x_{p,m} of the degree-k monomials m
    at the tops p.  A label that is +-e_j in that basis (a unit label)
    only says x_{p,m} = x_{q,m} for the m with m_j = 0, so the classes of
    the unknowns x_{.,m} are the components of the unit-label edges with
    m_j = 0, one union-find per zero set of m.  The conditions of every
    other label are read off one ``restrict_monomials`` call on all
    degree-k monomials: a tuple difference with coefficients a_m is
    divisible by alpha exactly when, for every target monomial t, the sum
    of a_m times the coefficient of t in the image of m is zero.  Edges
    that share a label share these rows, and each is written on the
    classes.  The dimension is the number of classes minus the rank of
    those rows over Q."""
    if k < 0:
        return 0
    n = graph.n
    monos = monomials_of_degree(n, k)
    count = len(graph.vertices)
    position = {x: i for i, x in enumerate(graph.vertices)}
    basis = [graph.chi.vec(v)
             for v in sorted(graph.poset.atoms(graph.vertices[0]))]
    units = [[] for _ in range(n)]  # j -> the edges labelled +-e_j
    others = {}  # any other label -> its edges
    for e in graph.edges:
        ends = tuple(position[x] for x in e.ends)
        alpha = tuple(_dot(e.labels[0], u) for u in basis)
        # alpha is primitive, so a lone nonzero entry is +-1
        support = [j for j, a in enumerate(alpha) if a]
        if len(support) == 1:
            units[support[0]].append(ends)
        else:
            others.setdefault(alpha, []).append(ends)

    by_zeros = {}  # zero set of m -> (class root of each top, class count)
    roots = []  # per monomial: the class root of each top
    classes = 0
    for m in monos:
        zeros = tuple(j for j, a in enumerate(m) if not a)
        found = by_zeros.get(zeros)
        if found is None:
            root = _components(count, [ends for j in zeros
                                       for ends in units[j]])
            found = by_zeros[zeros] = root, len(set(root))
        roots.append(found[0])
        classes += found[1]

    span = linalg.Span(0)
    for alpha, ends in others.items():
        by_target = {}
        for i, t, c in restrict_monomials(n, monos, alpha):
            by_target.setdefault(t, []).append((i, c))
        rows = [by_target[t] for t in sorted(by_target)]
        for p, q in ends:
            for row in rows:
                out = {}
                for i, c in row:
                    root = roots[i]
                    if root[p] != root[q]:
                        out[i * count + root[p]] = c
                        out[i * count + root[q]] = -c
                if out:
                    span.add(out)
    return classes - span.rank


def _components(count, pairs):
    """The least member of the component of each of 0..count-1 in the
    graph with the given edges, by union-find."""
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(count)]


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

