"""Sparse multivariate polynomials with exact coefficients.

Just enough arithmetic for vertex restrictions and axial-label
divisibility: monomials are exponent tuples of a fixed length, and
coefficients are ints or Fractions.
"""

from __future__ import annotations


class Poly:
    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    self.coeffs[e] = self.coeffs.get(e, 0) + c
            self.coeffs = {e: c for e, c in self.coeffs.items() if c}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c} if c else None)

    @classmethod
    def linear(cls, vector):
        """The linear form with the given coefficient vector."""
        n = len(vector)
        coeffs = {}
        for j, c in enumerate(vector):
            if c:
                e = [0] * n
                e[j] = 1
                coeffs[tuple(e)] = c
        return cls(n, coeffs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        p = Poly(self.nvars)
        p.coeffs = out
        return p

    def __neg__(self):
        p = Poly(self.nvars)
        p.coeffs = {e: -c for e, c in self.coeffs.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    v = out.get(e, 0) + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        out.pop(e, None)
            p = Poly(self.nvars)
            p.coeffs = out
            return p
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return Poly(self.nvars)
        p = Poly(self.nvars)
        p.coeffs = {e: c * v for e, v in self.coeffs.items()}
        return p

    def __pow__(self, k):
        out = Poly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def canonical(self):
        return tuple(sorted(self.coeffs.items()))

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.canonical()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            mono = "*".join(f"t{j + 1}^{k}" if k > 1 else f"t{j + 1}"
                            for j, k in enumerate(e) if k)
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts)


def restrict_to_hyperplane(poly, alpha):
    """Image of ``poly`` under a substitution that kills the hyperplane alpha=0.

    Uses the integral substitution t_j -> -sum_{k!=j} alpha_k t_k,
    t_i -> alpha_j t_i (j the first nonzero coordinate of alpha), which
    vanishes exactly on the multiples of the linear form alpha.
    """
    n = poly.nvars
    j = next((i for i, c in enumerate(alpha) if c), -1)
    if j < 0:
        raise ValueError("zero linear form")
    repl = Poly(n, {tuple(1 if i == k else 0 for i in range(n)): -alpha[k]
                    for k in range(n) if k != j and alpha[k]})
    aj = alpha[j]
    out = Poly.zero(n)
    for e, c in poly.coeffs.items():
        rest = tuple(v if i != j else 0 for i, v in enumerate(e))
        term = Poly(n, {rest: c * aj ** (sum(e) - e[j])})
        out = out + term * repl ** e[j]
    return out


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the given total degree, lexicographically."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), degree, nvars)
    return out
