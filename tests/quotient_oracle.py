"""The graded quotient with every row, and the ring presentation pair by
pair, as test oracles.

``cohomology._quotient`` multiplies by vertices in closed form and leaves
out the rows theta_j * m that the F5 criterion shows redundant.  This
oracle adds every row theta_j * m, monomial by monomial, with products
from the general straightening.

``cohomology.present_cohomology_ring`` finds comparable pairs and common
upper bounds from downsets and maximal elements and builds each relation
from its known chain monomials.  This oracle tests every pair with
``leq`` both ways, takes the join set from the poset and the meet from
``poset_oracle.meet``, and builds each relation through
``FaceRing.element``, which checks that every monomial is a chain.
"""

from torusfan import linalg
from torusfan.cohomology import RingPresentation
from torusfan.facering import (FaceRing, chain_monomial_basis,
                               lsop_from_lambda, straighten_product)
from poset_oracle import meet


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


def pairwise_presentation(poset, chi):
    """The presentation as ``present_cohomology_ring`` returns it."""
    ring = FaceRing(poset)
    gens = tuple((x, 2 * poset.rank_of(x), poset.cell(x).label)
                 for x in poset.elements() if x != poset.root)
    relations = []
    ids = [x for x in poset.elements() if x != poset.root]
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            if poset.leq(x, y) or poset.leq(y, x):
                continue
            ups = poset.join_set(x, y)
            terms = []
            if ups:
                m = meet(poset, x, y)
                for z in ups:
                    pairs = ((z, 1),) if m == poset.root else ((m, 1), (z, 1))
                    terms.append((pairs, 1))
            relations.append((x, y, ring.element(terms)))
    linear = tuple(lsop_from_lambda(ring, chi))
    return RingPresentation(gens, tuple(relations), linear)
