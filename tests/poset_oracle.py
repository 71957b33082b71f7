"""Poset oracles: isomorphism by backtracking, and the Gorenstein* test in
its defining form on the barycentric subdivision.  Slow on purpose."""

from torusfan.homology import Verdict, _links
from torusfan.poset import barycentric_subdivision


def are_isomorphic(p1, p2):
    """Backtracking poset isomorphism test (intended for small posets)."""
    if p1.rank != p2.rank or len(p1) != len(p2):
        return False
    for k in range(p1.rank + 1):
        if len(p1.by_rank(k)) != len(p2.by_rank(k)):
            return False
    cocovers1 = {x: [] for x in p1.cells}
    cocovers2 = {x: [] for x in p2.cells}
    for c in p1.cells.values():
        for d in c.covers:
            cocovers1[d].append(c.id)
    for c in p2.cells.values():
        for d in c.covers:
            cocovers2[d].append(c.id)
    # map top-down so every element is constrained by its mapped cocovers
    order = sorted(p1.cells, key=lambda x: (-p1.rank_of(x), x))
    mapping = {}
    used = set()

    def extend(idx):
        if idx == len(order):
            return True
        x = order[idx]
        need = {mapping[z] for z in cocovers1[x]}
        for y in p2.by_rank(p1.rank_of(x)):
            if y in used or len(cocovers2[y]) != len(cocovers1[x]):
                continue
            if set(cocovers2[y]) & used != need:
                continue
            mapping[x] = y
            used.add(y)
            if extend(idx + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return extend(0)


def gorenstein_star_subdivided(poset):
    """The defining form of the Gorenstein* test, applied literally to the
    barycentric subdivision; ``homology.gorenstein_star`` is checked
    against it."""
    sd = barycentric_subdivision(poset)
    witnesses = [f"sd link of {sd.cell(x).named()} is not S^{d}"
                 for x, d, hom in _links(sd) if not hom.is_sphere(d)]
    return Verdict(not witnesses, witnesses)
