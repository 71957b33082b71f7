import itertools

import pytest

from torusfan.poset import (Cell, SimplicialPoset, barycentric_subdivision,
                            connected_sum, from_json_dict, join, point_poset,
                            simplex_boundary, simplex_poset, sphere_poset,
                            sphere_product_poset, stellar_subdivision,
                            to_json_dict)


def s4_cells():
    """The doubled-interval poset: two vertices p, q and two rank-2 cells
    G, H, each covering both vertices."""
    return [
        Cell(0, 0, ()),
        Cell(1, 1, (0,), "p"),
        Cell(2, 1, (0,), "q"),
        Cell(3, 2, (1, 2), "G"),
        Cell(4, 2, (1, 2), "H"),
    ]


@pytest.fixture
def s4_poset():
    return SimplicialPoset(2, s4_cells())


def builder_family(max_rank=4):
    """The named example posets of rank <= max_rank, keyed for reporting."""
    out = {}
    for n in range(2, max_rank + 1):
        out[f"simplex_boundary({n})"] = simplex_boundary(n)
        out[f"sphere_poset({n})"] = sphere_poset(n)
    for k in range(1, max_rank):
        for l in range(k, max_rank):
            if k + l <= max_rank:
                out[f"sphere_product_poset({k},{l})"] = sphere_product_poset(k, l)
    return out


@pytest.fixture(scope="session")
def examples_rank4():
    return builder_family(4)


@pytest.fixture(scope="session")
def disc():
    return simplex_poset(3)


# realizable h-vectors of rank 2..4 whose posets stay small enough for the
# slow oracles; all but (1, 1, 1) and (1, 2, 1) have doubled top cells
SMALL_REALIZED_TARGETS = ((1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 0, 0, 1),
                          (1, 1, 1, 1), (1, 2, 2, 1), (1, 0, 2, 0, 1),
                          (1, 1, 0, 1, 1), (1, 2, 1, 2, 1))


def realized_family(targets=SMALL_REALIZED_TARGETS):
    """{target: (poset, characteristic map)} from the realization pipeline."""
    from torusfan.realize import realize_with_lambda
    out = {}
    for target in targets:
        result = realize_with_lambda(list(target))
        out[target] = (result.poset, result.chi)
    return out


def random_gluing(rng, n, pool_size, n_tops):
    """Random simplicial cell complex: n_tops top simplices on a shared
    vertex pool; repeated vertex sets become doubled cells, shared proper
    faces are identified."""
    pool = list(range(1, pool_size + 1))
    chosen = [tuple(sorted(rng.sample(pool, n))) for _ in range(n_tops)]
    used = sorted({v for s in chosen for v in s})
    faces = sorted({t for s in chosen for k in range(1, n)
                    for t in itertools.combinations(s, k)},
                   key=lambda t: (len(t), t))
    ids = {(): 0}
    cells = [Cell(0, 0, ())]
    for v in used:
        ids[(v,)] = len(cells)
        cells.append(Cell(ids[(v,)], 1, (0,)))
    for t in faces:
        if len(t) == 1:
            continue
        ids[t] = len(cells)
        covers = tuple(sorted(ids[u] for u in
                              itertools.combinations(t, len(t) - 1)))
        cells.append(Cell(ids[t], len(t), covers))
    for s in chosen:
        covers = tuple(sorted(ids[u] for u in
                              itertools.combinations(s, n - 1)))
        cells.append(Cell(len(cells), n, covers))
    return SimplicialPoset(n, cells)


def _random_builder(rng, max_rank):
    n = rng.randint(1, max_rank)
    k = rng.randint(1, max(1, n - 1))
    return rng.choice([
        point_poset,
        lambda: simplex_boundary(n),
        lambda: simplex_poset(n),
        lambda: sphere_poset(n),
        lambda: sphere_product_poset(k, max(1, n - k)),
    ])()


def _random_base(rng, max_rank=3):
    ranks = [r for r in (2, 3) if r <= max_rank]
    if ranks and rng.random() < 0.5:
        n = rng.choice(ranks)
        return random_gluing(rng, n, pool_size=n + 3, n_tops=rng.randrange(1, 5))
    return _random_builder(rng, max_rank)


def random_surgery(rng, op):
    """One output of the trusted constructor: a builder or gluing, or one
    surgery applied to such a poset."""
    p = _random_base(rng)
    if op == "join":
        return join(p, _random_base(rng, max_rank=max(1, 4 - p.rank)))
    if op == "connected_sum":
        while p.rank == 0:
            p = _random_base(rng)
        q = from_json_dict(to_json_dict(_random_base(rng)))
        while q.rank != p.rank or len(p.tops()) == len(q.tops()) == 1:
            q = from_json_dict(to_json_dict(_random_base(rng, p.rank)))
        t1, t2 = rng.choice(p.tops()), rng.choice(q.tops())
        verts = sorted(q.atoms(t2))
        rng.shuffle(verts)
        return connected_sum(p, t1, q, t2, dict(zip(sorted(p.atoms(t1)), verts)))
    if op == "stellar" and len(p) > 1:
        return stellar_subdivision(p, rng.choice(p.elements()[1:]))
    if op == "barycentric":
        return barycentric_subdivision(p)
    return p
