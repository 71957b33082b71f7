"""Exact linear algebra: Smith normal form, spans and ranks over Q and GF(p).

Matrices are lists of equal-length lists of Python ints.  A field is named
by its characteristic: 0 for Q, a prime p for GF(p); ``check_char`` is the
one place that decides which values are valid, and every entry point of
the package that takes a ``char`` calls it (where the integers are
allowed, None stands for them and is not passed to it).  Rows are sparse
{column: value} dicts throughout.  A ``Span`` inserts them one at a time
into an echelon form keyed by leading column, over GF(p) with every row
scaled to leading coefficient 1 (so clearing a column needs no inverse),
or fraction-free over the integers.  ``rank`` is built on it, and so is
``reduced_echelon``, which clears each pivot column from the other rows;
``invert_unimodular`` and the linear forms of the graded quotient use
that.  Smith normal form is one sparse kernel, ``_snf``: least-entry
pivots with row and column steps down to remainders, and gcd/lcm on the
diagonal (Kaczynski-Mischaikow-Mrozek, Computational Homology, 2004;
Dumas-Saunders-Villard, JSC 2001).  The homology code calls it on what its
coreductions leave; the characteristic-map checks call
``smith_normal_form``, its dense-matrix front end.  ``determinant`` is
fraction-free (Bareiss) elimination; a square matrix has every Smith
factor 1 exactly when its determinant is +-1.

``check_nonnegative`` is the one rule for a search bound or a largest
degree: a negative one is refused.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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


def check_nonnegative(value):
    """Return ``value`` (a search bound or a degree); raise ValueError if
    it is negative."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _sparse(mat):
    """The rows of a dense integer matrix as {column: value} dicts."""
    return [{j: index(v) for j, v in enumerate(row) if v} for row in mat]


def _clear(r, q, c):
    """Integer row r with its column-c entry eliminated by the pivot row q:
    s r - f q with s / f = q[c] / r[c] in lowest terms and s > 0.  When
    s > 1 (the pivot is not +-1 and does not divide r[c]) the row is
    divided by its content.
    """
    a, b = q[c], r[c]
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    s, f = a // g, b // g
    out = {k: s * v for k, v in r.items()} if s != 1 else dict(r)
    for k, v in q.items():
        w = out.get(k, 0) - f * v
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
    maps each pivot column to the row whose least column it is.  Over
    GF(char) that row is monic: its entry at the pivot column is 1.

    >>> s = Span(3)
    >>> s.add({0: 2, 2: 1}), s.add({0: 1, 2: 2}), s.add({1: 1, 2: 1})
    (True, False, True)
    >>> s.rows[0], s.rank, s.reduce({0: 1, 3: 1})
    ({0: 1, 2: 2}, 2, {2: 1, 3: 1})
    """

    def __init__(self, char=0):
        self.char = check_char(char)
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _residue(self, row, keep):
        # entries are taken mod char here and nowhere else.  Without keep,
        # elimination stops at the first non-pivot column c, and (c, rest)
        # comes back; with keep, such a column moves to the residue and
        # elimination goes on, and (None, residue) comes back
        p, rows, out = self.char, self.rows, {}
        r = {k: w for k, v in row.items() if (w := v % p if p else v)}
        while r:
            c = min(r)
            q = rows.get(c)
            if q is None:
                if not keep:
                    return c, r
                out[c] = r.pop(c)
            elif p:
                # q is monic, so r - r[c] q clears column c; r is a copy
                f = r[c]
                for k, v in q.items():
                    w = (r.get(k, 0) - f * v) % p
                    if w:
                        r[k] = w
                    else:
                        del r[k]
            else:
                r = _clear(r, q, c)
        return None, out

    def add(self, row):
        """Insert a row; return True if the span grew."""
        c, r = self._residue(row, False)
        if r:
            lead = r[c]
            if lead != 1 and self.char:
                inv = pow(lead, -1, self.char)
                r = {k: v * inv % self.char for k, v in r.items()}
            self.rows[c] = r
        return bool(r)

    def reduce(self, row):
        """The canonical residue of a row over GF(char): the one vector
        congruent to it modulo the span that has no pivot column.

        Refused over Q (ValueError): rows are kept integral there, so the
        residue would need rescaling that no caller uses; ``add`` tells
        whether a row lies in the span."""
        if not self.char:
            raise ValueError("Span.reduce needs a prime characteristic")
        return self._residue(row, True)[1]


def smith_normal_form(mat):
    """Invariant factors (d1 | d2 | ...) and rank of an integer matrix.

    >>> smith_normal_form([[2, 0], [0, 3]])
    ([1, 6], 2)
    """
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return _snf(_sparse(mat))


def _snf(rows):
    """Invariant factors (d1 | d2 | ...) and rank of the matrix with the
    given sparse rows {column: int}; columns may be any hashable keys.

    The pivot is an entry of least |value| in the row that a heap ranks
    first by (least |entry|, length); a row's key is checked again when
    it comes off the heap.  Row steps take the pivot's column in the other
    rows down to remainders, and the least nonzero one, being smaller,
    becomes the pivot.  Once the column is the pivot row's alone, column
    steps reduce the row's other entries mod the pivot, touching no other
    row; again a nonzero remainder becomes the pivot.  A row left with one
    entry gives one diagonal entry and is dropped.

    >>> _snf([{0: 4}, {1: 6}]), _snf([{0: 2, 1: 3}])
    (([2, 12], 2), ([1], 1))
    """
    rows = {i: dict(r) for i, r in enumerate(rows) if r}  # the input is kept
    holders = {}  # column: ids of the rows that may hold it, stale ones too
    for i, r in rows.items():
        for c in r:
            holders.setdefault(c, []).append(i)
    queue = [(min(map(abs, r.values())), len(r), i) for i, r in rows.items()]
    heapify(queue)
    diagonal = []
    while queue:
        i = heappop(queue)[2]
        r = rows.get(i)
        if r is None:
            continue
        if queue:
            key = (min(map(abs, r.values())), len(r), i)
            if key > queue[0]:  # row steps have changed the row
                heappush(queue, key)
                continue
        top = i
        c = min(r, key=lambda k: abs(r[k]))
        while True:
            p = r[c]
            rest = []
            for j in holders[c]:
                s = rows.get(j)
                if j == i or s is None or c not in s:
                    continue
                f = s[c] // p
                if f:
                    for k, v in r.items():
                        if k in s:
                            w = s[k] - f * v
                            if w:
                                s[k] = w
                            else:
                                del s[k]
                        else:
                            s[k] = -f * v
                            holders[k].append(j)
                    if c not in s:
                        if not s:
                            del rows[j]
                        continue
                rest.append(j)
            if rest:
                holders[c] = rest + [i]
                i = min(rest, key=lambda j: abs(rows[j][c]))
                r = rows[i]
                continue
            holders[c] = [i]
            if p == 1 or p == -1:  # every column step leaves 0
                break
            left = {k: w for k, v in r.items() if k != c and (w := v % p)}
            if not left:
                break
            rows[i] = r = {c: p, **left}
            c = min(left, key=lambda k: abs(left[k]))
        del rows[i]
        diagonal.append(abs(p))
        if top in rows:  # the pivot moved on from it
            r = rows[top]
            heappush(queue, (min(map(abs, r.values())), len(r), top))
    # pairwise gcd and lcm turn the diagonal into the divisibility chain
    chain = [d for d in diagonal if d > 1]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] // g * chain[b]
    return [1] * (len(diagonal) - len(chain)) + chain, len(diagonal)


def determinant(mat):
    """Exact determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination: after step k every entry left is a k+1 by k+1
    minor, so each division by the previous pivot is exact (Bareiss,
    Math. Comp. 22, 1968).

    >>> determinant([[2, 1], [7, 4]]), determinant([[0, 1], [1, 0]])
    (1, -1)
    >>> determinant([]), determinant([[2, 4], [1, 2]])
    (1, 0)
    """
    a = [list(map(index, row)) for row in mat]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign * prev


def rank(mat, char=0):
    """Rank over Q (char 0) or GF(char), char prime; entries must be ints."""
    span = Span(char)
    for r in _sparse(mat):
        span.add(r)
    return span.rank


def reduced_echelon(rows, char=0):
    """The span of sparse integer rows over GF(char), or Q for char 0, in
    reduced echelon form: {pivot column: row}, ascending, where the pivot
    is the row's least column and no other row has an entry there.

    Over GF(char) a pivot row is 1 at its pivot plus the canonical residue
    of the rest, which has no pivot column.  Over Q the rows stay integral:
    going down from the last pivot, each row is cleared with ``_clear`` at
    the pivots above its own, in ascending order.  A row with pivot d holds
    no other pivot column once reduced, so clearing with it adds none.

    >>> reduced_echelon([{0: 1, 1: 2, 2: 3}, {1: 1, 2: 1}], 5)
    {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}}
    >>> reduced_echelon([{0: 2, 1: 1}, {1: 2, 2: 1}])
    {0: {0: 4, 2: -1}, 1: {1: 2, 2: 1}}
    """
    span = Span(char)
    for r in rows:
        span.add(r)
    pivots = sorted(span.rows)
    if span.char:
        return {c: {c: 1, **span.reduce(
                    {k: v for k, v in span.rows[c].items() if k != c})}
                for c in pivots}
    out = {}
    for c in reversed(pivots):
        r = span.rows[c]
        for d in sorted(r.keys() & out.keys()):
            r = _clear(r, out[d], d)
        out[c] = r
    return {c: out[c] for c in pivots}


def invert_unimodular(mat):
    """Inverse of a square integer matrix with determinant +-1."""
    n = len(mat)
    pivots = reduced_echelon(
        [{**r, n + i: 1} for i, r in enumerate(_sparse(mat))])
    if any(c not in pivots for c in range(n)):
        raise ValueError("matrix is singular")
    out = []
    for c in range(n):
        r = pivots[c]
        if abs(r[c]) != gcd(*r.values()):
            raise ValueError("matrix is not unimodular")
        out.append([r.get(n + j, 0) // r[c] for j in range(n)])
    return out

