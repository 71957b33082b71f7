"""Classification and realization of admissible palindromic vectors.

A target vector (h_0, ..., h_n) with h_0 = h_n = 1, h_i = h_{n-i} and
non-negative entries falls into exactly one of four verdicts:

  * ``case1-odd-n``: n odd (always realizable);
  * ``case2-even-middle``: n even with h_{n/2} even;
  * ``case3-odd-middle-positive``: n even, middle entry odd, all entries
    positive;
  * ``inadmissible``: n even, middle entry odd, some entry zero.

Admissible targets decompose into building blocks (the boundary of a
simplex, a doubled simplex sphere, and joins of two such spheres), whose
connected sum realizes the target as a Gorenstein* poset carrying a
characteristic map.
"""

from __future__ import annotations

from operator import index

from .charfun import find_characteristic_map
from .cohomology import dehn_sommerville_check
from .homology import gorenstein_star
from .poset import (Record, TorusfanError, connected_sum, simplex_boundary,
                    sphere_poset, sphere_product_poset)

CASE1 = "case1-odd-n"
CASE2 = "case2-even-middle"
CASE3 = "case3-odd-middle-positive"
INADMISSIBLE = "inadmissible"
MALFORMED = "malformed"


class RealizationError(TorusfanError):
    pass


class SearchBoundError(RealizationError):
    """No characteristic map within the coordinate bound: a refusal,
    not a failed check."""


class MalformedTargetError(TorusfanError):
    def __init__(self, reasons):
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


class HVectorTarget:
    """A candidate h-vector; construction enforces the shape invariants."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        try:
            entries = tuple(index(x) for x in entries)
        except TypeError:
            raise MalformedTargetError(["entries must be integers"]) from None
        reasons = []
        n = len(entries) - 1
        if n < 1:
            reasons.append("need at least two entries")
        else:
            if entries[0] != 1 or entries[n] != 1:
                reasons.append("h_0 and h_n must both be 1")
            if any(x < 0 for x in entries):
                reasons.append("entries must be non-negative")
            if not dehn_sommerville_check(entries):
                reasons.append("not palindromic")
        if reasons:
            raise MalformedTargetError(reasons)
        self.n = n
        self.entries = entries

    def __repr__(self):
        return f"HVectorTarget{self.entries}"


def classify(entries):
    """Verdict for a raw integer vector; 'malformed' with reasons when the
    shape invariants fail, one of the four admissibility verdicts otherwise."""
    try:
        target = HVectorTarget(entries)
    except MalformedTargetError as err:
        return MALFORMED, err.reasons
    return admissible(target), []


def admissible(target):
    """The unique matching case of the realization theorem."""
    n = target.n
    if n % 2 == 1:
        return CASE1
    if target.entries[n // 2] % 2 == 0:
        return CASE2
    if all(x > 0 for x in target.entries):
        return CASE3
    return INADMISSIBLE


class Block(Record):
    """A building block of rank n: 'cpn' (boundary of the n-simplex),
    'sphere' (two glued simplices), or 'sphere_product' (join of two
    spheres of ranks k and n-k)."""

    __slots__ = ("kind", "n", "k")

    def __init__(self, kind, n, k=0):
        self.kind = kind
        self.n = n
        self.k = k

    def build(self):
        if self.kind == "cpn":
            return simplex_boundary(self.n)
        if self.kind == "sphere":
            return sphere_poset(self.n)
        if self.kind == "sphere_product":
            return sphere_product_poset(self.k, self.n - self.k)
        raise RealizationError(f"unknown block kind {self.kind}")

    def interior_h(self):
        """Contribution of the block to the interior entries h_1..h_{n-1}."""
        n = self.n
        interior = [0] * (n - 1)
        if self.kind == "cpn":
            interior = [1] * (n - 1)
        elif self.kind == "sphere_product":
            interior[self.k - 1] += 1
            interior[n - self.k - 1] += 1
        return tuple(interior)


class BlockDecomposition(Record):
    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        self.n = n
        self.blocks = blocks

    def target_h(self):
        interior = [0] * (self.n - 1)
        for b in self.blocks:
            for i, c in enumerate(b.interior_h()):
                interior[i] += c
        return (1, *interior, 1)


def decompose(target):
    """Block decomposition realizing an admissible target, or None.

    Fixed order: a zero interior is a single sphere; otherwise one
    simplex-boundary block first in the odd-middle case, then sphere
    products in ascending first factor."""
    verdict = admissible(target)
    if verdict == INADMISSIBLE:
        return None
    n = target.n
    interior = list(target.entries[1:n])
    if not any(interior):
        return BlockDecomposition(n, (Block("sphere", n),))
    blocks = []
    if verdict == CASE3:
        blocks.append(Block("cpn", n))
        interior = [x - 1 for x in interior]
    for i in range(1, (n + 1) // 2):
        blocks.extend([Block("sphere_product", n, i)] * interior[i - 1])
    if n % 2 == 0:
        blocks.extend([Block("sphere_product", n, n // 2)] * (interior[n // 2 - 1] // 2))
    out = BlockDecomposition(n, tuple(blocks))
    if out.target_h() != target.entries:
        raise RealizationError(
            f"decomposition of {target.entries} sums to {out.target_h()}")
    return out


def _fold_connected_sums(decomposition):
    """The connected sum of the blocks, in order.  Each distinct block is
    built once and glued in as often as it occurs."""
    first, *rest = decomposition.blocks
    built = {b: b.build() for b in dict.fromkeys(decomposition.blocks)}
    out = built[first]
    for b in rest:
        nxt = built[b]
        out = connected_sum(out, min(out.tops()), nxt, min(nxt.tops()))
    return out


def realize_decomposition(decomposition, bound=2):
    """Build the connected sum of the blocks, verify the postconditions
    (h-vector, Gorenstein*) and search for a characteristic map; returns
    (poset, chi) or raises RealizationError (SearchBoundError when the
    bound admits no characteristic map); a negative bound raises
    ValueError."""
    if not decomposition.blocks:
        raise RealizationError("empty decomposition")
    poset = _fold_connected_sums(decomposition)
    target = decomposition.target_h()
    if poset.h_vector() != target:
        raise RealizationError(
            f"realized h-vector {poset.h_vector()} differs from {target}")
    verdict = gorenstein_star(poset)
    if not verdict.ok:
        raise RealizationError("realized poset is not Gorenstein*: "
                               + "; ".join(verdict.witnesses[:3]))
    chi = find_characteristic_map(poset, bound)
    if chi is None:
        raise SearchBoundError(
            f"no characteristic map with coordinate bound {bound}")
    return poset, chi


class Realization(Record):
    __slots__ = ("verdict", "decomposition", "poset", "chi")

    def __init__(self, verdict, decomposition, poset, chi):
        self.verdict = verdict
        self.decomposition = decomposition
        self.poset = poset
        self.chi = chi


class Refusal(Record):
    __slots__ = ("stage", "detail")

    def __init__(self, stage, detail):
        self.stage = stage  # malformed | inadmissible | search-bound-exhausted
        self.detail = detail


def realize_with_lambda(entries, bound=2):
    """Full pipeline: classify, decompose, realize, search for a
    characteristic map.  Returns a Realization or a structured Refusal;
    a negative bound raises ValueError."""
    verdict, reasons = classify(entries)
    if verdict == MALFORMED:
        return Refusal(MALFORMED, "; ".join(reasons))
    if verdict == INADMISSIBLE:
        return Refusal(INADMISSIBLE,
                       "even rank with odd middle entry and a zero entry")
    decomposition = decompose(HVectorTarget(entries))
    try:
        poset, chi = realize_decomposition(decomposition, bound)
    except SearchBoundError as err:
        return Refusal("search-bound-exhausted", str(err))
    return Realization(verdict, decomposition, poset, chi)
