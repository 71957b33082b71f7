"""Poset oracles: isomorphism by backtracking, the Gorenstein* test in
its defining form on the barycentric subdivision, links as posets built
from ``leq``, downsets walked down the cover lists, the meet as the
greatest common lower bound from those downsets, and stellar
subdivision by a join-set scan over every element.  Slow on purpose."""

from torusfan.homology import Verdict, _links
from torusfan.poset import (Cell, PosetError, SimplicialPoset,
                            _rank_violations, barycentric_subdivision)


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


def upset(p, x):
    """The elements y >= x."""
    return frozenset(y for y in p.cells if p.leq(x, y))


def link_rank(p, x):
    """The rank ``p.rank - p.rank_of(x)`` of the link of x; PosetError
    unless x lies below a top cell and that rank is within the bound."""
    shift = p.rank_of(x)
    up = upset(p, x)
    if up.isdisjoint(p.tops()):
        top = max(p.rank_of(y) for y in up) - shift
        raise PosetError([f"link of {p.cell(x).named()}: declared rank "
                          f"{p.rank - shift} but maximal element rank is "
                          f"{top}"])
    problems = _rank_violations(p.rank - shift)
    if problems:
        raise PosetError(problems)
    return p.rank - shift


def link(p, x):
    """The upper set of x, re-ranked so x becomes the least element
    (refused as ``link_rank`` says)."""
    rank = link_rank(p, x)
    shift = p.rank_of(x)
    cells = []
    for y in sorted(upset(p, x)):
        c = p.cell(y)
        covers = tuple(d for d in c.covers if c.rank > shift and p.leq(x, d))
        cells.append(Cell(y, c.rank - shift, covers, c.label))
    return SimplicialPoset._trusted(rank, cells)


def below(p, x):
    """The elements y <= x, found depth first down the cover lists."""
    down, stack = {x}, [x]
    while stack:
        for d in p.covers(stack.pop()):
            if d not in down:
                down.add(d)
                stack.append(d)
    return frozenset(down)


def downsets(p):
    """{x: the elements y <= x} for every x."""
    return {x: below(p, x) for x in p.cells}


def meet(p, x, y):
    """The unique greatest common lower bound, or None if not unique.

    Uniqueness is guaranteed whenever ``join_set(x, y)`` is non-empty.
    """
    common = below(p, x) & below(p, y)
    down = {w: below(p, w) for w in common}
    maximal = [z for z in common
               if not any(w != z and z in down[w] for w in common)]
    return maximal[0] if len(maximal) == 1 else None


def stellar_by_joins(p, x):
    """``poset.stellar_subdivision`` with its new cells (w, z) found by
    calling ``join_set(w, x)`` for every w outside the star of x, and
    the face of z on a vertex set found in an index of all of [0-hat, z].
    """
    if x == p.root:
        raise PosetError(["cannot subdivide at the least element"])
    removed = {y for y in p.cells if p.leq(x, y)}  # the star of x
    surviving = [c for c in p.cells.values() if c.id not in removed]

    new_cells = []  # (w, z) pairs
    for w in p.elements():
        if w in removed:
            continue
        for z in p.join_set(w, x):
            new_cells.append((w, z))
    new_cells.sort(key=lambda wz: (p.rank_of(wz[0]), wz))
    fresh = max(p.cells) + 1
    ids = {}
    for wz in new_cells:
        ids[wz] = fresh
        fresh += 1

    # unique element of [0-hat, z] with a prescribed vertex set
    atom_index = {}

    def join_inside(w2, z):
        if z not in atom_index:
            atom_index[z] = {p.atoms(u): u for u in p.downset(z)}
        return atom_index[z][p.atoms(w2) | p.atoms(x)]

    cells = list(surviving)
    for (w, z), i in ids.items():
        rk = p.rank_of(w) + 1
        if w == p.root:
            covers = (p.root,)
        else:
            covers = [w]
            covers += [ids[(w2, join_inside(w2, z))] for w2 in p.covers(w)]
            covers = tuple(sorted(covers))
        label = "b" if w == p.root else None
        cells.append(Cell(i, rk, covers, label))
    out = SimplicialPoset._trusted(p.rank, cells)
    if out.euler_characteristic() != p.euler_characteristic():
        raise PosetError(["stellar subdivision changed the Euler characteristic"])
    return out
