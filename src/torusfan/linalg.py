"""Exact linear algebra: Smith normal form, spans and ranks over Q and GF(p).

Matrices are lists of equal-length lists of Python ints.  A field is named
by its characteristic: 0 for Q, a prime p for GF(p); ``check_char`` is the
one place that decides which values are valid, and every entry point of
the package that takes a ``char`` calls it (where the integers are
allowed, None stands for them and is not passed to it).  One sparse
kernel eliminates: rows are {column: value} dicts, and a ``Span`` inserts
them one at a time into an echelon form keyed by leading column, over
GF(p) or fraction-free over the integers; ``rank`` and
``invert_unimodular`` are built on it.  Smith normal form first removes
+-1 pivots by unimodular row steps and pivots densely only on the block
left over (Kaczynski-Mischaikow-Mrozek, Computational Homology, 2004;
Dumas-Saunders-Villard, JSC 2001).
"""

from __future__ import annotations

from math import gcd
from operator import index


# Miller-Rabin with these bases decides primality exactly below the limit
# (Sorenson-Webster, Math. Comp. 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(c):
    """Deterministic Miller-Rabin for 0 <= c < PRIME_TEST_LIMIT."""
    if c < 2:
        return False
    for a in _PRIME_BASES:
        if c % a == 0:
            return c == a
    d, s = c - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, c)
        if x == 1 or x == c - 1:
            continue
        for _ in range(s - 1):
            x = x * x % c
            if x == c - 1:
                break
        else:
            return False
    return True


def check_char(char):
    """Return ``char`` if it is 0 or a prime; raise ValueError otherwise,
    and for values from PRIME_TEST_LIMIT up, where primality is not
    decided exactly.

    >>> check_char(3), check_char(2 ** 61 - 1)
    (3, 2305843009213693951)
    """
    try:
        c = index(char)
    except TypeError:
        c = -1
    if c >= PRIME_TEST_LIMIT:
        raise ValueError(f"characteristic {char!r} is not below the limit "
                         f"{PRIME_TEST_LIMIT} of the primality test")
    if c and not _is_prime(c):
        raise ValueError(f"characteristic {char!r} is neither 0 nor prime")
    return c


def _sparse(mat):
    """The rows of a dense integer matrix as {column: value} dicts."""
    return [{j: index(v) for j, v in enumerate(row) if v} for row in mat]


def _clear(r, q, c, p):
    """Row r with its column-c entry eliminated by the pivot row q: over
    GF(p), r - (r[c] / q[c]) q; over the integers (p == 0), s r - f q with
    s / f = q[c] / r[c] in lowest terms and s > 0.  When s > 1 (the pivot
    is not +-1 and does not divide r[c]) the row is divided by its content.
    """
    a, b = q[c], r[c]
    if p:
        s, f = 1, b * pow(a, -1, p)
    else:
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        s, f = a // g, b // g
    out = {k: s * v for k, v in r.items()} if s != 1 else dict(r)
    for k, v in q.items():
        w = (out.get(k, 0) - f * v) % p if p else out.get(k, 0) - f * v
        if w:
            out[k] = w
        else:
            del out[k]
    if s != 1:
        g = gcd(*out.values())
        if g > 1:
            out = {k: v // g for k, v in out.items()}
    return out


class Span:
    """Row space of sparse integer rows {column: value} over GF(char),
    char prime, or over Q when char is 0, kept in echelon form: ``rows``
    maps each pivot column to the row whose least column it is.

    >>> s = Span(2)
    >>> s.add({0: 1, 2: 1}), s.add({0: 3, 2: 5}), s.add({1: 1, 2: 1})
    (True, False, True)
    >>> s.rank, sorted(s.rows), s.reduce({0: 1, 1: 1, 3: 1})
    (2, [0, 1], {3: 1})
    """

    def __init__(self, char=0):
        self.char = check_char(char)
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _residue(self, row, keep):
        # entries are taken mod char here and nowhere else; with keep, a
        # non-pivot column moves to the residue and elimination goes on
        p, out = self.char, {}
        r = {k: w for k, v in row.items() if (w := v % p if p else v)}
        while r:
            c = min(r)
            q = self.rows.get(c)
            if q is not None:
                r = _clear(r, q, c, p)
            elif keep:
                out[c] = r.pop(c)
            else:
                return r
        return out

    def add(self, row):
        """Insert a row; return True if the span grew."""
        r = self._residue(row, False)
        if r:
            self.rows[min(r)] = r
        return bool(r)

    def reduce(self, row):
        """The canonical residue of a row over GF(char): the one vector
        congruent to it modulo the span that has no pivot column."""
        return self._residue(row, True)


def _dense_snf(a):
    """Smith normal form of a dense matrix by smallest-entry pivoting, in place."""
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < min(m, n):
        pi, best = -1, 0
        pj = -1
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best == 0 or v < best):
                    best, pi, pj = v, i, j
        if best == 0:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        rt = a[t]
                        ri = a[i]
                        for j in range(t, n):
                            ri[j] -= q * rt[j]
            i0 = next((i for i in range(t + 1, m) if a[i][t]), -1)
            if i0 >= 0:
                # the remainder is smaller than the pivot; promote it
                a[t], a[i0] = a[i0], a[t]
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
            j0 = next((j for j in range(t + 1, n) if a[t][j]), -1)
            if j0 >= 0:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
                continue
            bad = -1
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad < 0:
                break
            # force divisibility: mixing in the offending row shrinks the pivot
            rb = a[bad]
            rt = a[t]
            for j in range(t, n):
                rt[j] += rb[j]
        factors.append(abs(a[t][t]))
        t += 1
    return factors, len(factors)


def smith_normal_form(mat):
    """Invariant factors (d1 | d2 | ...) and rank of an integer matrix.

    >>> smith_normal_form([[2, 0], [0, 3]])
    ([1, 6], 2)
    """
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    # A +-1 pivot splits off a factor 1 (row steps clear its column, column
    # steps its row).  Pivot rows miss earlier pivots' columns, so one sweep
    # in pivot order clears a row; a new pivot sends leftover rows back.
    units, left, todo = {}, [], _sparse(mat)
    while todo:
        r = todo.pop()
        for c, q in units.items():
            if c in r:
                r = _clear(r, q, c, 0)
        c = next((c for c, v in r.items() if v == 1 or v == -1), None)
        if c is not None:
            units[c] = r
            todo.extend(left)
            left.clear()
        elif r:
            left.append(r)
    cols = sorted({c for r in left for c in r})
    factors, r = _dense_snf([[row.get(c, 0) for c in cols] for row in left])
    return [1] * len(units) + factors, len(units) + r


def rank(mat, char=0):
    """Rank over Q (char 0) or GF(char), char prime; entries must be ints."""
    span = Span(char)
    for r in _sparse(mat):
        span.add(r)
    return span.rank


def invert_unimodular(mat):
    """Inverse of a square integer matrix with determinant +-1."""
    n = len(mat)
    span = Span(0)
    for i, r in enumerate(_sparse(mat)):
        span.add({**r, n + i: 1})
    pivots = span.rows
    if any(c not in pivots for c in range(n)):
        raise ValueError("matrix is singular")
    # clear upward, so that row c keeps column c alone among the first n
    for c in reversed(range(n)):
        for i in range(c):
            if c in pivots[i]:
                pivots[i] = _clear(pivots[i], pivots[c], c, 0)
    out = []
    for c in range(n):
        r = pivots[c]
        if abs(r[c]) != gcd(*r.values()):
            raise ValueError("matrix is not unimodular")
        out.append([r.get(n + j, 0) // r[c] for j in range(n)])
    return out

