"""The sparse elimination kernel of torusfan.linalg, checked against the
dense oracles in dense_linalg.py and against sympy."""

import doctest
import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

import dense_linalg
from dense_linalg import cell_chain_complex
from torusfan import cohomology, homology, linalg
from torusfan.charfun import find_characteristic_map
from torusfan.facering import FaceRing
from torusfan.poset import barycentric_subdivision, simplex_boundary
from conftest import builder_family

PRIMES = (2, 3, 5, 7)
EMPTY = ([], [[]], [[], []])


def _random_matrix(rng, m, n, spread=3, density=0.5):
    return [[rng.randint(-spread, spread) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _unimodular(rng, n, steps=12):
    """A random matrix of determinant +-1: row steps applied to a signed
    identity."""
    a = [[(rng.choice((1, -1)) if i == j else 0) for j in range(n)]
         for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        a[i] = [x + f * y for x, y in zip(a[i], a[j])]
    return a


def random_matrices(seed, count=150):
    """Seeded matrices of every shape up to 7x7: sparse and dense, zero,
    rank-deficient (a product through a thin middle), and with all entries
    even so that no unit pivot exists."""
    rng = random.Random(seed)
    out = list(EMPTY)
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        kind = rng.randrange(4)
        if kind == 0:
            out.append([[0] * n for _ in range(m)])
        elif kind == 1:
            k = rng.randint(1, min(m, n))
            out.append(_product(_random_matrix(rng, m, k, 2, 0.7),
                                _random_matrix(rng, k, n, 2, 0.7)))
        elif kind == 2:
            out.append([[2 * x for x in row]
                        for row in _random_matrix(rng, m, n, 3, 0.6)])
        else:
            out.append(_random_matrix(rng, m, n, 4, rng.choice((0.3, 0.6, 1.0))))
    return out


def boundary_matrices():
    posets = dict(builder_family(4))
    posets["sd(simplex_boundary(3))"] = barycentric_subdivision(simplex_boundary(3))
    return [(f"{name}: d{d}", mat) for name, p in posets.items()
            for d, mat in enumerate(cell_chain_complex(p).boundaries)]


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def _span(mat, p):
    """A Span of the matrix rows, given with their zero entries."""
    span = linalg.Span(p)
    for row in mat:
        span.add(dict(enumerate(row)))
    return span


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_snf_matches_dense_oracle(seed):
    for mat in random_matrices(seed):
        assert linalg.smith_normal_form(mat) == dense_linalg.smith_normal_form(mat), mat


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank_matches_dense_oracle(seed):
    for mat in random_matrices(seed):
        assert linalg.rank(mat) == dense_linalg._rank_rational(mat), mat
        for p in PRIMES:
            assert linalg.rank(mat, p) == dense_linalg._rank_mod_p(mat, p), (p, mat)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pivot_columns_match_dense_oracle(seed):
    for mat in random_matrices(seed):
        for p in (0,) + PRIMES:
            assert (set(_span(mat, p).rows)
                    == dense_linalg.echelon_pivot_columns(mat, p)), (p, mat)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_span_add_grows_with_the_dense_rank(seed):
    for mat in random_matrices(seed):
        for p in (0,) + PRIMES:
            span = linalg.Span(p)
            for i, row in enumerate(mat):
                before = span.rank
                grew = span.add(dict(enumerate(row)))
                assert span.rank == before + grew, (p, mat)
                rank = (dense_linalg._rank_mod_p(mat[:i + 1], p) if p
                        else dense_linalg._rank_rational(mat[:i + 1]))
                assert span.rank == rank, (p, mat)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_span_reduce_gives_the_canonical_residue(seed):
    rng = random.Random(seed)
    for mat in random_matrices(seed):
        width = len(mat[0]) if mat else 0
        for p in PRIMES:
            span = _span(mat, p)
            u = {j: rng.randint(-4, 4) for j in range(width)}
            residue = span.reduce(u)
            assert not set(residue) & set(span.rows), (p, mat)
            assert all(0 < v < p for v in residue.values()), (p, mat)
            # residue is congruent to u: u - residue lies in the span
            diff = {j: u[j] - residue.get(j, 0) for j in range(width)}
            assert not _span(mat, p).add(diff), (p, mat)
            # and is the same for every vector congruent to u
            moved = dict(u)
            for row in mat:
                f = rng.randint(-3, 3)
                for j, v in enumerate(row):
                    moved[j] += f * v
            assert span.reduce(moved) == residue, (p, mat)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_span_over_gf_p_matches_dense_oracle_with_non_monic_rows(seed):
    # rows scaled so that their leading entries are rarely 1 mod p
    rng = random.Random(seed)
    leads = set()
    for mat in random_matrices(seed)[len(EMPTY):]:
        width = len(mat[0])
        for p in PRIMES:
            rows = [[rng.randint(2, 9) * v for v in row] for row in mat]
            leads.update(next((v % p for v in row if v % p), 0) for row in rows)
            span = _span(rows, p)
            assert span.rank == dense_linalg._rank_mod_p(rows, p), (p, rows)
            assert (set(span.rows)
                    == dense_linalg.echelon_pivot_columns(rows, p)), (p, rows)
            for c, row in span.rows.items():
                assert min(row) == c and row[c] == 1, (p, rows)
                assert all(0 < v < p for v in row.values()), (p, rows)
            for _ in range(3):
                u = [rng.randint(-9, 9) for _ in range(width)]
                assert (span.reduce(dict(enumerate(u)))
                        == dense_linalg.reduce_mod_p(rows, u, p)), (p, rows, u)
    assert leads >= {2, 3, 4, 5, 6}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reduced_echelon_has_each_pivot_in_its_own_row_alone(seed):
    for mat in random_matrices(seed):
        for p in (0,) + PRIMES:
            rows = [dict(enumerate(row)) for row in mat]
            reduced = linalg.reduced_echelon(rows, p)
            span = _span(mat, p)
            assert list(reduced) == sorted(span.rows), (p, mat)
            for c, row in reduced.items():
                assert min(row) == c and all(row.values()), (p, mat)
                assert not any(c in other for d, other in reduced.items()
                               if d != c), (p, mat)
                if p:
                    assert row[c] == 1, (p, mat)
                    assert all(0 < v < p for v in row.values()), (p, mat)
                # every reduced row lies in the span; with equal ranks the
                # row spaces are equal
                assert not span.add(row), (p, mat)


def test_span_reduce_refused_over_q():
    span = linalg.Span(0)
    assert span.add({1: 2, 2: 1})
    with pytest.raises(ValueError, match="prime characteristic"):
        span.reduce({0: 1, 1: 1})
    # membership over Q is what add reports
    assert not span.add({1: 4, 2: 2}) and span.add({0: 1, 1: 1})


def test_boundary_matrices_match_dense_oracle():
    for name, mat in boundary_matrices():
        assert linalg.smith_normal_form(mat) == dense_linalg.smith_normal_form(mat), name
        assert linalg.rank(mat) == dense_linalg._rank_rational(mat), name
        for p in PRIMES:
            assert linalg.rank(mat, p) == dense_linalg._rank_mod_p(mat, p), (name, p)
        for p in (0, 2, 3):
            assert (set(_span(mat, p).rows)
                    == dense_linalg.echelon_pivot_columns(mat, p)), (name, p)
        assert linalg.smith_normal_form(_transpose(mat)) == linalg.smith_normal_form(mat), name


def test_snf_matches_sympy():
    for mat in random_matrices(4, count=60)[len(EMPTY):]:
        expected = sorted(abs(int(f)) for f in invariant_factors(Matrix(mat), domain=ZZ) if f)
        factors, r = linalg.smith_normal_form(mat)
        assert (factors, r) == (expected, len(expected)), mat


def test_determinant_matches_sympy():
    rng = random.Random(17)
    mats = [[], [[0]], [[-7]], [[10 ** 6]]]
    for n in range(1, 7):
        for spread, density in ((1, 0.4), (4, 0.7), (10 ** 6, 1.0)):
            for _ in range(6):
                mats.append(_random_matrix(rng, n, n, spread, density))
                # singular: a rank-deficient product, and a repeated row
                # plus a multiple of another
                k = rng.randint(0, n - 1)
                mats.append(_product(_random_matrix(rng, n, k, spread),
                                     _random_matrix(rng, k, n, spread))
                            if k else [[0] * n for _ in range(n)])
                if n > 1:
                    a = _random_matrix(rng, n, n, spread, density)
                    i, j = rng.sample(range(n), 2)
                    f = rng.randint(-3, 3)
                    a[i] = [x + f * y for x, y in zip(a[i], a[j])]
                    a[j] = list(a[i])
                    mats.append(a)
        mats.append(_unimodular(rng, n))
    singular = 0
    for mat in mats:
        n = len(mat)
        expected = Matrix(n, n, [x for row in mat for x in row]).det(
            method="berkowitz")
        assert linalg.determinant(mat) == expected, mat
        singular += not expected
    assert singular >= 60


def test_determinant_rejects_a_matrix_that_is_not_square():
    for mat in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="not square"):
            linalg.determinant(mat)


# diagonal entries: units, 0, composites and repeated primes
DIAGONAL = (1, -1, 0, 2, 4, 6, 10, -3, 3, 9, 5, 25, 7)


def _chain_of_diagonal(diagonal):
    """Invariant factors of a diagonal matrix from the prime powers of its
    entries: the i-th largest power of each prime goes to the i-th largest
    factor."""
    entries = [abs(d) for d in diagonal if d]
    powers = {}  # prime: its exponent in each entry it divides
    for d in entries:
        q = 2
        while d > 1:
            e = 0
            while d % q == 0:
                d, e = d // q, e + 1
            if e:
                powers.setdefault(q, []).append(e)
            q += 1
    factors = [1] * len(entries)
    for q, exponents in powers.items():
        for i, e in enumerate(sorted(exponents, reverse=True)):
            factors[-1 - i] *= q ** e
    return factors, len(factors)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(DIAGONAL), max_size=6), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 2 ** 32))
def test_snf_recovers_the_chain_of_a_scrambled_diagonal(diagonal, more_rows,
                                                        more_cols, seed):
    # U D V with U, V unimodular has the invariant factors of D
    rng = random.Random(seed)
    m, n = len(diagonal) + more_rows, len(diagonal) + more_cols
    d = [[diagonal[i] if i == j and i < len(diagonal) else 0
          for j in range(n)] for i in range(m)]
    mat = _product(_product(_unimodular(rng, m), d), _unimodular(rng, n))
    expected = _chain_of_diagonal(diagonal)
    assert linalg.smith_normal_form(mat) == expected, mat
    assert dense_linalg.smith_normal_form(mat) == expected, mat
    rows = [{(j, "c"): v for j, v in enumerate(row) if v} for row in mat]
    kept = [dict(r) for r in rows]
    assert linalg._snf(rows) == expected, mat
    assert rows == kept


def test_snf_rejects_ragged_matrix():
    with pytest.raises(ValueError, match="ragged"):
        linalg.smith_normal_form([[1, 2], [3]])


@pytest.mark.parametrize("n", range(0, 7))
def test_invert_unimodular_matches_dense_oracle(n):
    rng = random.Random(n)
    for _ in range(20):
        a = _unimodular(rng, n)
        inverse = linalg.invert_unimodular(a)
        assert inverse == dense_linalg.invert_unimodular(a)
        assert _product(a, inverse) == [[int(i == j) for j in range(n)] for i in range(n)]


def test_invert_unimodular_errors_match_dense_oracle():
    rng = random.Random(5)
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    not_unimodular = _product([[2, 0, 0], [0, 1, 0], [0, 0, 1]], _unimodular(rng, 3))
    for mat, message in ((singular, "singular"), ([[0, 0], [0, 0]], "singular"),
                         (not_unimodular, "not unimodular"),
                         ([[3, 1], [1, 1]], "not unimodular")):
        for impl in (linalg.invert_unimodular, dense_linalg.invert_unimodular):
            with pytest.raises(ValueError, match=message):
                impl(mat)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 2.0])
def test_non_integer_entries_raise(entry):
    mat = [[1, 0], [entry, 3]]
    calls = (linalg.smith_normal_form, linalg.rank, lambda m: linalg.rank(m, 3),
             linalg.invert_unimodular, linalg.determinant)
    for call in calls:
        with pytest.raises(TypeError):
            call(mat)


def test_inputs_are_not_modified():
    mat = [[2, 4, 1], [1, 3, 5], [0, 6, 2]]
    copy = [row[:] for row in mat]
    linalg.smith_normal_form(mat)
    linalg.rank(mat)
    linalg.rank(mat, 3)
    linalg.determinant(mat)
    rows = [dict(enumerate(row)) for row in mat]
    span = linalg.Span(3)
    for row in rows:
        span.add(row)
        span.reduce(row)
    assert mat == copy and rows == [dict(enumerate(row)) for row in copy]


@pytest.mark.parametrize("char", [1, 4, 6, -3])
def test_non_prime_characteristic_refused_everywhere(char):
    p = simplex_boundary(2)
    chi = find_characteristic_map(p, 1)
    calls = (lambda: linalg.Span(char), lambda: linalg.rank([[1]], char),
             lambda: cohomology.quotient_dimensions(p, chi, char),
             lambda: cohomology.betti_numbers(p, chi, char),
             lambda: cohomology.graded_quotient_basis(p, chi, char),
             lambda: FaceRing(p, char),
             lambda: homology.reduced_homology(p, char),
             lambda: homology.reduced_homology(p).over(char),
             lambda: homology.link_verdicts(p, (0, char)),
             lambda: homology.link_verdicts(p, (char,)))
    for call in calls:
        with pytest.raises(ValueError, match="neither 0 nor prime"):
            call()


def _prime_by_trial_division(c):
    return c >= 2 and all(c % d for d in range(2, isqrt(c) + 1))


def test_check_char_agrees_with_trial_division():
    for c in range(10 ** 5):
        try:
            accepted = linalg.check_char(c) == c
        except ValueError:
            accepted = False
        assert accepted == (c == 0 or _prime_by_trial_division(c)), c


def test_check_char_on_large_values():
    t0 = time.perf_counter()
    assert linalg.check_char(2 ** 61 - 1) == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 1
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    for c in (561, 3215031751):
        with pytest.raises(ValueError, match="neither 0 nor prime"):
            linalg.check_char(c)
    for c in (linalg.PRIME_TEST_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(linalg.PRIME_TEST_LIMIT)):
            linalg.check_char(c)


def test_doctests():
    result = doctest.testmod(linalg)
    assert result.attempted >= 1 and result.failed == 0
