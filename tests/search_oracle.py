"""The characteristic-map search with a Smith normal form at every cell:
the slow reference that the tests check ``find_characteristic_map``
against.

Candidates are all primitive vectors in lexicographic order; at vertex v
every element of rank >= 2 whose last atom is v must have vertex vectors
with all invariant factors 1.  Slow and plain on purpose.
"""

from __future__ import annotations

from math import gcd

import dense_linalg
from torusfan.charfun import CharacteristicMap


def _primitive_candidates(n, bound):
    """All primitive vectors with coordinates in [-bound, bound], in
    lexicographic order."""
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if gcd(*prefix) == 1:
                out.append(tuple(prefix))
            return
        for c in range(-bound, bound + 1):
            rec(prefix + [c])

    rec([])
    return out


def find_characteristic_map(poset, bound, stats=None):
    """The lexicographically first unimodular map with coordinates in
    [-bound, bound], vertices taken in id order, or None.  When ``stats``
    is a dict, its "backtracks" entry counts the vertices left with no
    candidate."""
    vertices = sorted(poset.vertices())
    n = poset.rank
    if bound < 1:
        return None
    candidates = _primitive_candidates(n, bound)
    position = {v: i for i, v in enumerate(vertices)}
    triggers = {v: [] for v in vertices}
    for x in poset.elements():
        if poset.rank_of(x) >= 2:
            last = max(poset.atoms(x), key=lambda v: position[v])
            triggers[last].append(x)
    assign = {}
    snf_cache = {}

    def unimodular_at(x):
        mat = tuple(assign[v] for v in sorted(poset.atoms(x)))
        hit = snf_cache.get(mat)
        if hit is None:
            factors, rank = dense_linalg.smith_normal_form(mat)
            hit = rank == len(mat) and all(f == 1 for f in factors)
            snf_cache[mat] = hit
        return hit

    def search(i):
        if i == len(vertices):
            return True
        v = vertices[i]
        for cand in candidates:
            assign[v] = cand
            if all(unimodular_at(x) for x in triggers[v]) and search(i + 1):
                return True
        del assign[v]
        backtracks[0] += 1
        return False

    backtracks = [0]
    found = search(0)
    if stats is not None:
        stats["backtracks"] = backtracks[0]
    if not found:
        return None
    return CharacteristicMap(n, dict(assign))
