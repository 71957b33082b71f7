"""Face rings of simplicial posets, in chain-monomial normal form.

Coefficients follow the one rule of the package: ``char`` None is the
integers, 0 the rationals and a prime p the field GF(p) (``FaceRing``
refuses any other value).  Ints and Fractions enter a ring exactly, through
one conversion: a Fraction must be an integer over Z, and n/d is
n * d^-1 mod p over GF(p), refused when p divides d.

The face ring has one generator v_x of degree 2*rk(x) per element x of
the poset minus its least element, subject to

    v_x * v_y  =  v_{x ^ y} * sum of v_z over z in join_set(x, y)

with v_{0-hat} = 1 and an empty sum equal to 0.  The monomials supported
on chains x_1 < x_2 < ... < x_q with positive exponents form an additive
basis, and every product straightens to that basis.

A vertex times a chain monomial has a closed form (``vertex_products``,
for every vertex at once), because every interval below an element is
boolean (Stanley 1991).  Along a chain x_1 < ... < x_q, the vertices of
x_1 join the chain at its bottom; a vertex first below x_i meets the one
upper cover w of x_{i-1} with w <= x_i, and one copy of x_{i-1} becomes
w; a vertex below no chain element meets each upper cover z of x_q that
it lies below, and one copy of x_q becomes z.  In each case the vertex is
the one atom of w (or z) outside x_{i-1} (or x_q), so the products are
read off the upper covers (``upper_covers``), with no order test per
vertex.  Every coefficient is 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import index

from .linalg import check_char, check_nonnegative
from .poset import TorusfanError
from .polys import Poly


class RingError(TorusfanError):
    pass


def _coefficient(char, c):
    """The exact image of c, an int or a Fraction, in Z (char None), Q
    (char 0) or GF(char): n/d maps to n * d^-1 mod char.  Nothing is
    truncated; a non-integer over Z and a denominator divisible by char
    are refused."""
    if type(c) is int:  # the common case, before the slower ABC check
        n, d = c, 1
    elif isinstance(c, Fraction):
        n, d = c.numerator, c.denominator
    else:
        n, d = index(c), 1
    if char is None:
        if d != 1:
            raise RingError(f"{c} is not an integer")
        return n
    if not char:
        return Fraction(n, d)
    if d % char == 0:
        raise RingError(f"{c} has no value in GF({char})")
    return (n if d == 1 else n * pow(d, -1, char)) % char


def chain_monomial(poset, pairs):
    """Canonical chain monomial from (element, exponent) pairs.

    The elements must form a chain in the poset and all exponents must be
    positive; the pairs are stored in increasing poset order.
    """
    pairs = tuple(sorted(((x, a) for x, a in pairs if a),
                         key=lambda xa: poset.rank_of(xa[0])))
    prev = None
    for x, a in pairs:
        if a < 0:
            raise RingError(f"negative exponent on v_{x}")
        if x == poset.root:
            raise RingError("the least element is not a generator")
        if prev is not None and not poset.leq(prev, x):
            raise RingError(f"{prev} and {x} do not form a chain")
        if prev == x:
            raise RingError(f"repeated chain element {x}")
        prev = x
    return pairs


def monomial_degree(poset, mono):
    return 2 * sum(a * poset.rank_of(x) for x, a in mono)


def _insert(poset, g, chain):
    """All chains in the normal form of v_g times a chain with repeats.

    ``chain`` is a tuple of element ids sorted increasingly in the poset
    (with repeats standing for exponents).  Whenever g is incomparable
    with the smallest chain element the straightening relation is applied
    and the minimal upper bounds are pushed further in.
    """
    if not chain:
        return [(g,)]
    c = chain[0]
    if poset.leq(g, c):
        return [(g,) + chain]
    if poset.leq(c, g):
        return [(c,) + t for t in _insert(poset, g, chain[1:])]
    ups = poset.join_set(g, c)
    if not ups:
        return []
    # below a common upper bound the meet has the common vertices
    m = poset.face(g, poset.atoms(g) & poset.atoms(c))
    prefix = () if m == poset.root else (m,)
    out = []
    for z in ups:
        for t in _insert(poset, z, chain[1:]):
            out.append(prefix + t)
    return out


def _chain_to_monomial(chain):
    pairs = []
    for x in chain:
        if pairs and pairs[-1][0] == x:
            pairs[-1][1] += 1
        else:
            pairs.append([x, 1])
    return tuple((x, a) for x, a in pairs)


def straighten_product(poset, m1, m2):
    """Normal form of the product of two chain monomials, over the integers.

    Returns a {chain monomial: coefficient} dict.  Generators of the second
    factor are folded in one at a time, largest rank first; the result does
    not depend on this order (tested), only the intermediate terms do.
    """
    gens = [x for x, a in m2 for _ in range(a)]
    gens.sort(key=lambda x: -poset.rank_of(x))
    terms = {tuple(x for x, a in m1 for _ in range(a)): 1}
    for g in gens:
        nxt = {}
        for chain, coeff in terms.items():
            for out in _insert(poset, g, chain):
                nxt[out] = nxt.get(out, 0) + coeff
        terms = nxt
    result = {}
    for chain, coeff in terms.items():
        mono = _chain_to_monomial(chain)
        result[mono] = result.get(mono, 0) + coeff
    return {m: c for m, c in result.items() if c}


def upper_covers(poset):
    """{x: ((w, v), ...)}: the elements w covering x, each with the one
    vertex v below w and not below x, read off the cover lists."""
    upper = {x: [] for x in poset.cells}
    for c in poset.cells.values():
        atoms = poset.atoms(c.id)
        for d in c.covers:
            (v,) = atoms - poset.atoms(d)
            upper[d].append((c.id, v))
    return {x: tuple(sorted(ws)) for x, ws in upper.items()}


def vertex_products(poset, m, upper):
    """The normal forms of v_v times a chain monomial m for every vertex v,
    as (v, chain monomial) pairs, each with coefficient 1: v has one pair
    per monomial of ``straighten_product(poset, ((v, 1),), m)`` and none
    when that product is 0.  ``upper`` is ``upper_covers(poset)``.

    Where v lies below the chain element x_i but not below x_{i-1},
    v_v v_{x_{i-1}} is the sum of v_z over z in join_set(v, x_{i-1}).
    Such a z has no vertex outside x_i, so if z and x_i lie below a common
    element, z <= x_i (the interval below that element is boolean);
    otherwise v_z v_{x_i} vanishes.  The boolean interval [0-hat, x_i]
    holds one such z, an upper cover of x_{i-1}.
    """
    if not m:
        return [(v, ((v, 1),)) for v in poset.vertices()]
    out = [(v, _prepend(v, m)) for v in poset.atoms(m[0][0])]
    for i in range(1, len(m) + 1):
        p, a = m[i - 1]
        head = m[:i - 1] + (((p, a - 1),) if a > 1 else ())
        if i < len(m):
            tail = m[i:]
            out += [(v, head + _prepend(w, tail))
                    for w, v in upper[p] if poset.leq(w, tail[0][0])]
        else:
            out += [(v, head + ((z, 1),)) for z, v in upper[p]]
    return out


def _prepend(y, m):
    """The chain monomial v_y * m, for y below or equal to m's first element."""
    if m and m[0][0] == y:
        return ((y, m[0][1] + 1),) + m[1:]
    return ((y, 1),) + m


class RingElement:
    """A face-ring element: a sparse combination of chain monomials."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self.ring.require_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = _coefficient(self.ring.char, out.get(m, 0) + c)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return RingElement(self.ring, out)

    def __neg__(self):
        return RingElement(self.ring,
                           {m: _coefficient(self.ring.char, -c)
                            for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.ring.multiply(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = _coefficient(self.ring.char, c)
        return RingElement(self.ring,
                           {m: _coefficient(self.ring.char, c * v)
                            for m, v in self.terms.items()})

    def __pow__(self, k):
        out = self.ring.one()
        for _ in range(k):
            out = self.ring.multiply(out, self)
        return out

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring.poset is other.ring.poset
                and self.ring.char == other.ring.char and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.ring.poset), self.ring.char,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return format_element(self)


class FaceRing:
    """The face ring of a simplicial poset with coefficients in Z (char
    None), Q (char 0) or GF(char) for a prime char."""

    def __init__(self, poset, char=None):
        self.poset = poset
        self.char = char if char is None else check_char(char)
        self._product_cache = {}

    def require_same(self, other):
        if isinstance(other, RingElement):
            if other.ring.poset is not self.poset:
                raise RingError("elements live over different posets")
            if other.ring.char != self.char:
                raise RingError("elements live over different coefficients")

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return RingElement(self, {(): _coefficient(self.char, 1)})

    def gen(self, x):
        """The generator v_x."""
        if x == self.poset.root or x not in self.poset.cells:
            raise RingError(f"{x} is not a generator")
        return RingElement(self, {((x, 1),): _coefficient(self.char, 1)})

    def element(self, term_pairs):
        """Element from (pairs, coefficient) items; pairs as for chain_monomial."""
        terms = {}
        for pairs, c in term_pairs:
            m = chain_monomial(self.poset, pairs)
            v = _coefficient(self.char, terms.get(m, 0) + c)
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return RingElement(self, terms)

    def monomial_product(self, m1, m2):
        key = (m1, m2) if m1 <= m2 else (m2, m1)
        hit = self._product_cache.get(key)
        if hit is None:
            hit = straighten_product(self.poset, key[0], key[1])
            self._product_cache[key] = hit
        return hit

    def multiply(self, a, b):
        self.require_same(a)
        self.require_same(b)
        out = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                c12 = c1 * c2
                for m, k in self.monomial_product(m1, m2).items():
                    v = _coefficient(self.char, out.get(m, 0) + c12 * k)
                    if v:
                        out[m] = v
                    else:
                        out.pop(m, None)
        return RingElement(self, out)


# ---------------------------------------------------------------------------
# restrictions to vertices of the orbit space (top cells of the poset)


def restriction_at_vertex(element, p):
    """Restriction of a face-ring element at a maximal cell p.

    The image lives in a polynomial ring with one degree-two variable per
    rank-1 element below p (in sorted id order); a generator v_x maps to
    the product of the variables below x if x <= p and to 0 otherwise.
    """
    poset = element.ring.poset
    char = element.ring.char
    if p not in poset.maximal_elements():
        raise RingError(f"{p} is not a restriction point")
    vertex_list = sorted(poset.atoms(p))
    slot = {v: j for j, v in enumerate(vertex_list)}
    nvars = len(vertex_list)
    coeffs = {}
    for mono, coeff in element.terms.items():
        if any(not poset.leq(x, p) for x, _ in mono):
            continue
        exp = [0] * nvars
        for x, a in mono:
            for v in poset.atoms(x):
                exp[slot[v]] += a
        exp = tuple(exp)
        coeffs[exp] = _coefficient(char, coeffs.get(exp, 0) + coeff)
    return Poly(nvars, coeffs)


def total_restriction(element):
    """Restrictions at every maximal element, as an ordered {p: Poly} map.

    This map is injective on pure posets: distinct normal forms have
    distinct restriction tuples.
    """
    poset = element.ring.poset
    return {p: restriction_at_vertex(element, p) for p in poset.maximal_elements()}


# ---------------------------------------------------------------------------
# Hilbert series


def graded_dimension(poset, k):
    """Number of chain monomials of degree 2k (the dimension of the
    degree-2k graded piece)."""
    return graded_dimensions(poset, k)[k] if k >= 0 else 0


def graded_dimensions(poset, kmax):
    """[graded_dimension(poset, k) for k in range(kmax + 1)], counted by
    rank.  The interval below a cell of rank r is boolean, with C(r, s)
    elements of rank s, so the number ending[r][w] of chain monomials of
    weight w whose largest element is that cell depends on r alone: the
    cell carries an exponent a >= 1, and the rest, of weight w - a*r, ends
    at one of those elements of rank s < r (at 0-hat when it is 1).  The
    count of weight k sums ending[r][k] against the f-vector.  A negative
    kmax raises ValueError."""
    check_nonnegative(kmax)
    ending = [[1] + [0] * kmax] + [[0] * (kmax + 1) for _ in range(poset.rank)]
    for r in range(1, poset.rank + 1):
        for w in range(r, kmax + 1):
            ending[r][w] = sum(comb(r, s) * ending[s][rem]
                               for rem in range(w - r, -1, -r) for s in range(r))
    f = (1,) + poset.f_vector()
    return [sum(f[r] * ending[r][k] for r in range(poset.rank + 1))
            for k in range(kmax + 1)]


def chain_monomial_basis(poset, k):
    """The chain monomials of degree 2k, in the canonical order
    (lexicographic on chain ids, then exponents)."""
    if k < 0:
        return []
    if k == 0:
        return [()]
    out = []

    def extend(prefix, top, w):
        r = poset.rank_of(top)
        a = 1
        while a * r <= w:
            mono = prefix + ((top, a),)
            rem = w - a * r
            if rem == 0:
                out.append(tuple(reversed(mono)))
            else:
                for y in sorted(poset.downset(top)):
                    if y != top and y != poset.root:
                        extend(mono, y, rem)
            a += 1

    for x in sorted(poset.cells):
        if x != poset.root:
            extend((), x, k)
    return sorted(out, key=monomial_key)


def monomial_key(m):
    """Sort key of the canonical order of chain monomials of one degree,
    lexicographic on the chain ids, then on the exponents: ((ids),
    (exponents)), and () for the monomial 1."""
    return tuple(zip(*m))


def series_coefficient(h, n, k):
    """Degree-2k coefficient of (h_0 + h_1 t^2 + ... + h_n t^{2n}) / (1-t^2)^n."""
    if n == 0:
        return h[0] if k == 0 else 0
    return sum(h[i] * comb(n - 1 + k - i, n - 1) for i in range(min(k, n) + 1))


class HilbertReport:
    def __init__(self, rows):
        self.rows = rows  # (k, count, expected)

    @property
    def ok(self):
        return all(c == e for _, c, e in self.rows)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        flag = "ok" if self.ok else "MISMATCH"
        return f"<HilbertReport {flag} up to k={self.rows[-1][0] if self.rows else 0}>"


def hilbert_check(poset, dmax):
    """Compare chain-monomial counts with the h-vector series up to degree
    2*dmax; a negative dmax raises ValueError."""
    h = poset.h_vector()
    n = poset.rank
    rows = [(k, count, series_coefficient(h, n, k))
            for k, count in enumerate(graded_dimensions(poset, dmax))]
    return HilbertReport(rows)


# ---------------------------------------------------------------------------
# linear systems of parameters


def lsop_from_lambda(ring, chi):
    """The n degree-two elements theta_j = sum_i chi(i)[j] * v_i over the
    rank-1 elements i of the poset."""
    poset = ring.poset
    vertices = sorted(poset.vertices())
    missing = [v for v in vertices if v not in chi.vectors]
    if missing:
        raise RingError(f"characteristic map misses vertices {missing}")
    out = []
    for j in range(chi.n):
        terms = [(((v, 1),), chi.vectors[v][j]) for v in vertices]
        out.append(ring.element(terms))
    return out


# ---------------------------------------------------------------------------
# text format


def format_element(element):
    """Canonical text form: terms ordered by degree then lexicographically,
    each term 'c * x{id}^a * x{id}^a ...'."""
    if element.is_zero():
        return "0"
    poset = element.ring.poset
    items = sorted(element.terms.items(),
                   key=lambda mc: (monomial_degree(poset, mc[0]),
                                   monomial_key(mc[0])))
    parts = []
    for mono, coeff in items:
        factors = [f"x{x}^{a}" if a > 1 else f"x{x}" for x, a in mono]
        body = " * ".join([str(coeff)] + factors) if factors else str(coeff)
        parts.append(body)
    return " + ".join(parts)


def parse_element(ring, text):
    """Parse the text format back into a RingElement."""
    text = text.strip()
    if text == "0":
        return ring.zero()
    terms = []
    for chunk in text.replace("- ", "+ -").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        factors = [f.strip() for f in chunk.split("*")]
        coeff = Fraction(factors[0])
        pairs = []
        for f in factors[1:]:
            if not f.startswith("x"):
                raise RingError(f"bad factor {f!r}")
            if "^" in f:
                gen, exp = f[1:].split("^")
                pairs.append((int(gen), int(exp)))
            else:
                pairs.append((int(f[1:]), 1))
        terms.append((pairs, coeff))
    return ring.element(terms)
