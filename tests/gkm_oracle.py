"""The GKM dimension count with every condition in one span: the
reference that the tests check ``charfun.gkm_subalgebra_dimension``
against.

Each label is written in the basis of the first top cell's vertex
vectors, and every edge's conditions, unit labels included, are rows of
one ``Span`` over Q on all the unknowns x_{p,m}: no union-find and no
classes.
"""

from torusfan import linalg
from torusfan.polys import monomials_of_degree, restrict_monomials


def gkm_subalgebra_dimension(graph, k):
    """Dimension over Q of the degree-k tuples satisfying every edge
    divisibility condition."""
    if k < 0:
        return 0
    n = graph.n
    monos = monomials_of_degree(n, k)
    offset = {x: i * len(monos) for i, x in enumerate(graph.vertices)}
    span = linalg.Span(0)
    conditions = {}  # label -> [[(i, c), ...] per target monomial]
    basis = [graph.chi.vec(v)
             for v in sorted(graph.poset.atoms(graph.vertices[0]))]
    for e in graph.edges:
        p, q = (offset[x] for x in e.ends)
        alpha = tuple(sum(a * b for a, b in zip(e.labels[0], u))
                      for u in basis)
        rows = conditions.get(alpha)
        if rows is None:
            by_target = {}
            for i, t, c in restrict_monomials(n, monos, alpha):
                by_target.setdefault(t, []).append((i, c))
            rows = conditions[alpha] = [by_target[t]
                                        for t in sorted(by_target)]
        for row in rows:
            out = {}
            for i, c in row:
                out[p + i], out[q + i] = c, -c
            span.add(out)
    return len(offset) * len(monos) - span.rank
