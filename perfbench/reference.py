"""Independent reference computations for checking job outputs.

Nothing here calls torusfan: every check reads plain data (the JSON wire
form of a poset, characteristic-map vectors, report fields) and recomputes
the expected answer with its own code, so a defect in the code path under
test cannot also hide in its check.
"""

from math import comb


def f_vector(cells, rank):
    """f_i = number of rank-(i+1) cells, i = 0..rank-1, from wire-form
    cell dicts."""
    counts = [0] * (rank + 1)
    for c in cells:
        counts[c["rank"]] += 1
    return counts[1:]


def h_vector(f, n):
    """h-vector from the f-vector: sum h_i t^(n-i) = sum_i f_(i-1) (t-1)^(n-i)."""
    coeff = [0] * (n + 1)  # coeff[d] multiplies t^d
    for i in range(n + 1):
        fi = 1 if i == 0 else f[i - 1]
        for d in range(n - i + 1):
            coeff[d] += fi * comb(n - i, d) * (-1) ** (n - i - d)
    return tuple(coeff[n - j] for j in range(n + 1))


def reduced_euler(f):
    """Reduced Euler characteristic: -1 + f_0 - f_1 + ..."""
    return -1 + sum((-1) ** i * fi for i, fi in enumerate(f))


def series_coefficient(h, n, k):
    """Degree-2k coefficient of h(t^2) / (1 - t^2)^n."""
    if k < 0:
        return 0
    return sum(h[i] * comb(n - 1 + k - i, n - 1) for i in range(min(k, n) + 1))


def atom_sets(cells):
    """{id: frozenset of rank-1 ids below it}, from wire-form cell dicts."""
    table = {c["id"]: c for c in cells}
    out = {}

    def atoms(x):
        hit = out.get(x)
        if hit is None:
            c = table[x]
            if c["rank"] == 0:
                hit = frozenset()
            elif c["rank"] == 1:
                hit = frozenset((x,))
            else:
                hit = frozenset().union(*(atoms(d) for d in c["covers"]))
            out[x] = hit
        return hit

    for x in sorted(table, key=lambda x: table[x]["rank"]):
        atoms(x)
    return out


def down_sets(cells):
    """{id: frozenset of ids at or below it}."""
    table = {c["id"]: c for c in cells}
    out = {}
    for c in sorted(cells, key=lambda c: c["rank"]):
        below = {c["id"]}
        for d in c["covers"]:
            below |= out[d]
        out[c["id"]] = frozenset(below)
    return out


def determinant(mat):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def sphere_groups_problem(groups, n, f):
    """Why reduced homology groups [{dim, betti, torsion}] are not those of
    S^(n-1) with the Euler characteristic of the f-vector, or None."""
    betti = {g["dim"]: g["betti"] for g in groups}
    if any(g["torsion"] for g in groups):
        return f"torsion in {groups}"
    if betti != {d: int(d == n - 1) for d in range(n)}:
        return f"not the homology of S^{n - 1}: {betti}"
    euler = sum((-1) ** d * b for d, b in betti.items())
    if euler != reduced_euler(f):
        return f"Euler characteristic {euler} differs from f-vector's {reduced_euler(f)}"
    return None
