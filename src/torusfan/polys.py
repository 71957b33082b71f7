"""Sparse multivariate polynomials with exact coefficients.

Just enough arithmetic for vertex restrictions and axial-label
divisibility: monomials are exponent tuples of a fixed length, and
coefficients are ints or Fractions.

Divisibility by a linear form alpha is decided by one substitution
kernel, ``restrict_monomials``: with j the first nonzero coordinate of
alpha, it sends t_j to -sum_{k!=j} alpha_k t_k and every other t_i to
alpha_j t_i, so t^e goes to alpha_j^(|e|-e_j) t^(e with e_j=0) times the
e_j-th power of that form.  It expands each power once per call, when a
monomial first needs it, and yields the image terms as plain tuples.
``restrict_to_hyperplane`` sums them into one polynomial; the GKM
dimension count asks for the images of all monomials of one degree, one
call per distinct label that is not a unit vector in its basis.
"""

from __future__ import annotations

from operator import add


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


def restrict_monomials(nvars, exponents, alpha):
    """Images of the monomials t^e, e in ``exponents``, under the
    substitution that kills the hyperplane alpha=0.

    The substitution is the integral one t_j -> -sum_{k!=j} alpha_k t_k,
    t_i -> alpha_j t_i (j the first nonzero coordinate of alpha); a
    polynomial goes to zero exactly when it is a multiple of the linear
    form alpha.  Yields (i, f, c) for each term c*t^f of the image of
    t^exponents[i], in the order of ``exponents``; the f of one monomial
    are distinct.  The powers of the replacement form are expanded once,
    by degree, as the monomials ask for them.
    """
    if len(alpha) != nvars:
        raise ValueError("variable count mismatch")
    j = next((i for i, c in enumerate(alpha) if c), -1)
    if j < 0:
        raise ValueError("zero linear form")
    aj = alpha[j]
    repl = [(k, -a) for k, a in enumerate(alpha) if k != j and a]
    powers = [[((0,) * nvars, 1)]]  # powers[m]: terms of the form ** m
    for i, e in enumerate(exponents):
        m = e[j]
        scale = aj ** (sum(e) - m)
        while len(powers) <= m:
            nxt = {}
            for f, c in powers[-1]:
                for k, a in repl:
                    g = f[:k] + (f[k] + 1,) + f[k + 1:]
                    nxt[g] = nxt.get(g, 0) + c * a
            powers.append(list(nxt.items()))
        rest = e[:j] + (0,) + e[j + 1:]
        for f, c in powers[m]:
            yield i, tuple(map(add, rest, f)), scale * c


def restrict_to_hyperplane(poly, alpha):
    """Image of ``poly`` under the substitution of ``restrict_monomials``:
    zero exactly when ``poly`` is divisible by the linear form alpha.
    A label with the wrong number of entries raises ValueError."""
    terms = list(poly.coeffs.items())
    out = {}
    for i, f, c in restrict_monomials(poly.nvars, [e for e, _ in terms],
                                      alpha):
        out[f] = out.get(f, 0) + terms[i][1] * c
    p = Poly(poly.nvars)
    p.coeffs = {f: c for f, c in out.items() if c}
    return p


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
