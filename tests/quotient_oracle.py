"""The graded quotient with every row, as a test oracle.

``cohomology._quotient`` multiplies by vertices in closed form and leaves
out the rows theta_j * m that the F5 criterion shows redundant.  This
oracle adds every row theta_j * m, monomial by monomial, with products
from the general straightening.
"""

from torusfan import linalg
from torusfan.facering import chain_monomial_basis, straighten_product


def full_row_quotient(poset, chi, char, kmax):
    """[(index, span)] per degree 2k, k <= kmax, as ``_quotient`` returns."""
    vertices = sorted(poset.vertices())
    out = []
    for k in range(kmax + 1):
        index = {m: i for i, m in enumerate(chain_monomial_basis(poset, k))}
        span = linalg.Span(char)
        for m in out[-1][0] if out else ():
            rows = [{} for _ in range(chi.n)]
            for v in vertices:
                prod = straighten_product(poset, ((v, 1),), m)
                for row, c in zip(rows, chi.vec(v)):
                    if c:
                        for mono, a in prod.items():
                            i = index[mono]
                            row[i] = row.get(i, 0) + c * a
            for row in rows:
                span.add(row)
        out.append((index, span))
    return out
