"""Dense exact linear algebra: the reference implementations that the
tests check ``torusfan.linalg`` and ``torusfan.homology`` against.

Smith normal form by smallest-entry pivoting, Gauss-Jordan rank over Q
(with ``Fraction``) and over GF(p), row-space pivot columns, the
``Fraction`` inverse of a unimodular matrix, and the dense boundary
matrices of a poset's cell chain complex.  Slow and plain on purpose.
"""

from __future__ import annotations

from fractions import Fraction

from torusfan.homology import _signed_boundary


class ChainComplex:
    """Reduced cell chain complex: ``boundaries[d]`` maps d-cells (the
    columns) to (d-1)-cells (the rows), with the empty cell as the single
    (-1)-cell; ``cells[d]`` holds the ids of the rank-(d+1) elements."""

    def __init__(self, rank, cells, boundaries):
        self.rank = rank
        self.cells = cells
        self.boundaries = boundaries

    def dims(self):
        return tuple(len(c) for c in self.cells)


def position_signs(poset):
    """{x: {y: sign}} over the elements y that x covers, read off the
    positions of the signed boundary: the i-th cover takes (-1)^i."""
    order, _ = _signed_boundary(poset)
    return {x: {y: (-1) ** i for i, y in enumerate(faces)}
            for x, faces in order.items()}


def cell_chain_complex(poset):
    """The reduced chain complex of the poset's simplicial cell complex,
    as dense matrices of the signed boundary (d^2 = 0 checked there)."""
    boundary = position_signs(poset)
    n = poset.rank
    cells = [tuple(poset.by_rank(d + 1)) for d in range(n)]
    boundaries = []
    for d in range(n):
        rows = cells[d - 1] if d else (poset.root,)
        row_index = {y: i for i, y in enumerate(rows)}
        mat = [[0] * len(cells[d]) for _ in rows]
        for j, x in enumerate(cells[d]):
            for y, sign in boundary[x].items():
                mat[row_index[y]][j] = sign
        boundaries.append(mat)
    return ChainComplex(n, tuple(cells), tuple(boundaries))


def smith_normal_form(mat):
    """Invariant factors (d1 | d2 | ...) and rank of an integer matrix.

    >>> smith_normal_form([[2, 0], [0, 3]])
    ([1, 6], 2)
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
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


def _rank_rational(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col]), -1)
        if piv < 0:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def _rank_mod_p(mat, p):
    a = [[int(x) % p for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col]), -1)
        if piv < 0:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def echelon_pivot_columns(rows, char=0):
    """Pivot column indices of the row space, over Q or GF(char)."""
    if not rows:
        return set()
    if char:
        a = [[int(x) % char for x in row] for row in rows]
    else:
        a = [[Fraction(x) for x in row] for row in rows]
    m, n = len(a), len(a[0])
    pivots = set()
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col]), -1)
        if piv < 0:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, char) if char else 1 / a[r][col]
        if char:
            a[r] = [(x * inv) % char for x in a[r]]
        else:
            a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                c = a[i][col]
                if char:
                    a[i] = [(x - c * y) % char for x, y in zip(a[i], a[r])]
                else:
                    a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivots.add(col)
        r += 1
        if r == m:
            break
    return pivots


def reduce_mod_p(rows, u, p):
    """The residue of the vector u modulo the row space over GF(p) that is
    zero at every pivot column, as {column: value} with 0 < value < p."""
    a = [[int(x) % p for x in row] for row in rows]
    m, n = len(a), len(u)
    r = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col]), -1)
        if piv < 0:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[r])]
        pivots.append((col, r))
        r += 1
        if r == m:
            break
    v = [int(x) % p for x in u]
    for col, i in pivots:
        f = v[col]
        v = [(x - f * y) % p for x, y in zip(v, a[i])]
    return {j: x for j, x in enumerate(v) if x}


def invert_unimodular(mat):
    """Inverse of a square integer matrix with determinant +-1."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), -1)
        if piv < 0:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            v = a[i][j]
            if v.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(int(v))
        out.append(row)
    return out
