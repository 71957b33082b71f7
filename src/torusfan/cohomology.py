"""Ordinary cohomology data of the combinatorial torus manifold.

Everything here reduces to degree-by-degree linear algebra on chain
monomial bases: Betti ranks come from the graded quotient of the face
ring by the linear system attached to a characteristic map, the ring
presentation lists the straightening and linear relations, and the
parity test evaluates the product of (1 + v_i) over the vertices in the
mod 2 quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .facering import Domain, FaceRing, chain_monomial_basis, lsop_from_lambda
from .poset import TorusfanError


class CohomologyError(TorusfanError):
    pass


def _ideal_rows(poset, ring, chi, basis_lo, basis_hi):
    """Coefficient vectors of theta_j * m over basis_hi, for every j and
    every monomial m in basis_lo; all entries are integers."""
    n = chi.n
    vertices = sorted(poset.vertices())
    index = {m: i for i, m in enumerate(basis_hi)}
    rows = []
    for m in basis_lo:
        prods = {v: ring.monomial_product(((v, 1),), m) for v in vertices}
        for j in range(n):
            vec = [0] * len(basis_hi)
            for v in vertices:
                c = chi.vec(v)[j]
                if c:
                    for mono, k in prods[v].items():
                        vec[index[mono]] += c * k
            rows.append(vec)
    return rows


def quotient_dimensions(poset, chi, char=0, kmax=None):
    """Dimensions of (face ring / (theta_1..theta_n))_{2k} for k <= kmax."""
    n = poset.rank
    if kmax is None:
        kmax = n
    ring = FaceRing(poset)
    bases = [chain_monomial_basis(poset, k) for k in range(kmax + 1)]
    dims = [1]
    for k in range(1, kmax + 1):
        rows = _ideal_rows(poset, ring, chi, bases[k - 1], bases[k])
        dims.append(len(bases[k]) - (linalg.rank(rows, char) if rows else 0))
    return dims


def betti_numbers(poset, chi, char=0):
    """(b_0, ..., b_n): graded dimensions of the quotient by the linear
    system of parameters attached to the characteristic map.

    Equals the h-vector whenever the face ring is Cohen-Macaulay over the
    chosen field.  ``char`` 0 means the rationals, a prime p means GF(p).
    """
    from .charfun import check_unimodular

    ok, violations = check_unimodular(poset, chi)
    if not ok:
        raise CohomologyError("characteristic map is not unimodular: "
                              + "; ".join(violations))
    return tuple(quotient_dimensions(poset, chi, char))


def graded_quotient_basis(poset, chi, char=0, kmax=None):
    """Monomial representatives of a basis of the graded quotient,
    one list per degree 2k."""
    n = poset.rank
    if kmax is None:
        kmax = n
    ring = FaceRing(poset, Domain.from_char(char))
    zring = FaceRing(poset)
    bases = [chain_monomial_basis(poset, k) for k in range(kmax + 1)]
    out = {0: [ring.one()]}
    for k in range(1, kmax + 1):
        rows = _ideal_rows(poset, zring, chi, bases[k - 1], bases[k])
        pivots = linalg.echelon_pivot_columns(rows, char) if rows else set()
        out[k] = [ring.element([(m, 1)]) for i, m in enumerate(bases[k])
                  if i not in pivots]
    return out


# ---------------------------------------------------------------------------
# ring presentation


@dataclass
class RingPresentation:
    """Generators v_x (one per poset element above the root, degree 2 rk x),
    straightening relations for incomparable pairs, and the linear
    relations of the characteristic map."""

    generators: tuple      # (id, degree, label)
    product_relations: tuple  # (x, y, rhs RingElement): v_x v_y = rhs
    linear_relations: tuple   # RingElements


def present_cohomology_ring(poset, chi):
    """Presentation of the cohomology ring: one generator per cell, the
    straightening relations, and the n linear relations read off the
    characteristic map."""
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
                m = poset.meet(x, y)
                for z in ups:
                    pairs = ((z, 1),) if m == poset.root else ((m, 1), (z, 1))
                    terms.append((pairs, 1))
            relations.append((x, y, ring.element(terms)))
    linear = tuple(lsop_from_lambda(ring, chi))
    return RingPresentation(gens, tuple(relations), linear)


def dehn_sommerville_check(h):
    """Palindromicity h_i = h_{n-i}."""
    return all(h[i] == h[len(h) - 1 - i] for i in range(len(h)))


# ---------------------------------------------------------------------------
# total characteristic class parity, mod 2


@dataclass
class SWParityReport:
    applicable: bool
    pairing: int = None      # coefficient of the socle class, 0 or 1
    euler: int = None        # Euler characteristic mod 2
    consistent: bool = None
    note: str = ""


def _mod2_parameters_ok(poset, chi):
    """The linear system stays a system of parameters mod 2 iff every
    cell's vertex vectors keep full rank over GF(2)."""
    for x in poset.elements():
        k = poset.rank_of(x)
        if k < 1:
            continue
        mat = [chi.vec(v) for v in sorted(poset.atoms(x))]
        if linalg.rank(mat, 2) != k:
            return False, poset.cell(x).named()
    return True, None


def sw_parity(poset, chi):
    """Evaluate the degree-2n part of prod_i (1 + v_i) in the mod 2
    quotient against the socle class, and compare with the Euler
    characteristic mod 2.  The two always agree on orbit posets of torus
    manifolds with vanishing odd cohomology.
    """
    n = poset.rank
    if n < 1 or not poset.is_pure():
        return SWParityReport(False, note="poset must be pure of rank >= 1")
    missing = [v for v in poset.vertices() if v not in chi.vectors]
    if missing:
        raise CohomologyError(
            f"characteristic map misses vertices {sorted(missing)}")
    ok, where = _mod2_parameters_ok(poset, chi)
    if not ok:
        return SWParityReport(
            False, note=f"no linear system of parameters mod 2 (fails at {where})")

    ring = FaceRing(poset)  # integer straightening; parity taken bitwise
    bases = [chain_monomial_basis(poset, k) for k in range(n + 1)]
    index = [{m: i for i, m in enumerate(b)} for b in bases]
    vertices = sorted(poset.vertices())

    def to_bits(mono_coeffs, k):
        idx = index[k]
        bits = 0
        for mono, c in mono_coeffs.items():
            if c & 1:
                bits ^= 1 << idx[mono]
        return bits

    spans = [linalg.BitSpan() for _ in range(n + 1)]
    for k in range(1, n + 1):
        for m in bases[k - 1]:
            prods = {v: ring.monomial_product(((v, 1),), m) for v in vertices}
            for j in range(n):
                vec = 0
                for v in vertices:
                    if chi.vec(v)[j] & 1:
                        vec ^= to_bits(prods[v], k)
                spans[k].add(vec)

    top_dim = len(bases[n]) - spans[n].rank
    if top_dim != 1:
        return SWParityReport(
            False, note=f"degree-2n quotient has dimension {top_dim}, not 1 "
                        "(input is not Gorenstein*)")
    socles = {spans[n].reduce(1 << index[n][((t, 1),)]) for t in poset.tops()}
    if len(socles) != 1 or 0 in socles:
        return SWParityReport(
            False, note="top cells do not share a single nonzero socle class")
    socle = socles.pop()

    # w = prod over vertices of (1 + v_i), tracked degree by degree
    w = [0] * (n + 1)
    w[0] = 1  # the class of 1 in the one-dimensional degree-0 piece
    for v in vertices:
        bump = [0] * (n + 1)
        for k in range(1, n + 1):
            acc = 0
            part = w[k - 1]
            i = 0
            while part:
                if part & 1:
                    acc ^= to_bits(ring.monomial_product(((v, 1),),
                                                         bases[k - 1][i]), k)
                part >>= 1
                i += 1
            bump[k] = spans[k].reduce(acc)
        for k in range(1, n + 1):
            w[k] ^= bump[k]

    if w[n] == 0:
        pairing = 0
    elif w[n] == socle:
        pairing = 1
    else:
        return SWParityReport(
            False, note="degree-2n component escaped the socle line")
    euler = sum(poset.h_vector()) % 2
    return SWParityReport(True, pairing, euler, pairing == euler)
