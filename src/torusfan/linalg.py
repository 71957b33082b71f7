"""Exact linear algebra: Smith normal form, ranks over Q and GF(p), GF(2) spans.

Matrices are lists of equal-length lists of Python ints.  One sparse
kernel eliminates: rows are {column: value} dicts, and ``_echelon``
inserts them one at a time into an echelon form keyed by leading column,
over GF(p) or fraction-free over the integers.  Smith normal form first
removes +-1 pivots by unimodular row steps and pivots densely only on the
block left over (Kaczynski-Mischaikow-Mrozek, Computational Homology,
2004; Dumas-Saunders-Villard, JSC 2001).  GF(2) spans are int bitmasks.
"""

from __future__ import annotations

from math import gcd
from operator import index


def _sparse(mat, p=0):
    """The rows of a dense matrix as {column: value} dicts, mod p if p."""
    if p:
        mat = [[index(x) % p for x in row] for row in mat]
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


def _echelon(rows, p):
    """Echelon form {leading column: row} of sparse rows over GF(p), or
    over Q when p == 0; the keys are the row space's pivot columns."""
    pivots = {}
    for r in rows:
        while r:
            c = min(r)
            q = pivots.get(c)
            if q is None:
                pivots[c] = r
                break
            r = _clear(r, q, c, p)
    return pivots


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
    return len(_echelon(_sparse(mat, char), char))


def echelon_pivot_columns(rows, char=0):
    """Pivot columns of the row space over Q or GF(char); int entries only."""
    return set(_echelon(_sparse(rows, char), char))


def invert_unimodular(mat):
    """Inverse of a square integer matrix with determinant +-1."""
    n = len(mat)
    pivots = _echelon([{**r, n + i: 1} for i, r in enumerate(_sparse(mat))], 0)
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


class BitSpan:
    """Row space of GF(2) vectors encoded as int bitmasks, kept echelonized."""

    def __init__(self):
        self._rows = {}  # leading bit -> reduced row
        self._order = []  # pivot bits, descending

    def reduce(self, v):
        """Canonical residue: every pivot bit eliminated, in one descending
        pass (rows are mutually reduced, so lower pivots cannot reappear)."""
        rows = self._rows
        for b in self._order:
            if (v >> b) & 1:
                v ^= rows[b]
        return v

    def add(self, v):
        """Insert a vector; return True if it enlarged the span."""
        v = self.reduce(v)
        if not v:
            return False
        b = v.bit_length() - 1
        # keep rows fully reduced against each other
        for lead, row in self._rows.items():
            if (row >> b) & 1:
                self._rows[lead] = row ^ v
        self._rows[b] = v
        self._order = sorted(self._rows, reverse=True)
        return True

    def contains(self, v):
        return self.reduce(v) == 0

    @property
    def rank(self):
        return len(self._rows)
