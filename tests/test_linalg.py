import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrr import linalg
from msrr.errors import SingularMatrixError
from msrr.field import is_prime
from oracle import inverse, invertible, solve


def test_solve_identity_returns_rhs():
    eye = np.eye(5, dtype=np.int64)
    b = np.array([3, 1, 4, 1, 5])
    assert np.array_equal(solve(eye, b, 11), b)


def test_solve_two_by_two_example():
    a = [[1, 1], [1, 10]]
    x = solve(a, [2, 0], 11)
    assert np.array_equal(x, [1, 1])
    assert np.array_equal(np.array(a) @ x % 11, [2, 0])


def test_solve_zero_rhs_gives_zero():
    a = [[2, 3], [5, 7]]
    assert np.array_equal(solve(a, [0, 0], 11), [0, 0])


def test_solve_matrix_rhs_matches_columnwise():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 11, size=(6, 6))
    while not invertible(a, 11):
        a = rng.integers(0, 11, size=(6, 6))
    b = rng.integers(0, 11, size=(6, 4))
    x = solve(a, b, 11)
    assert x.shape == (6, 4)
    for j in range(4):
        assert np.array_equal(x[:, j], solve(a, b[:, j], 11))


def test_singular_solve_reports_rank():
    a = [[1, 2], [2, 4]]
    with pytest.raises(SingularMatrixError) as err:
        solve(a, [1, 0], 11)
    assert err.value.rank == 1


def test_invertible_on_vandermonde_and_repeated_rows():
    points = [1, 2, 3, 4]
    vander = [[pow(x, i, 11) for x in points] for i in range(4)]
    assert invertible(vander, 11)
    assert not invertible([[1, 2], [1, 2]], 11)
    assert linalg.rank([[1, 2], [1, 2]], 11) == 1


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 64),
       st.sampled_from([11, 257]))
def test_solve_round_trips_on_random_systems(seed, size, p):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(size, size))
    b = rng.integers(0, p, size=size)
    if linalg.rank(a, p) < size:
        with pytest.raises(SingularMatrixError):
            solve(a, b, p)
        return
    x = solve(a, b, p)
    assert np.array_equal(a @ x % p, b % p)


def test_inverse_multiplies_to_identity():
    rng = np.random.default_rng(9)
    for p in (11, 257):
        a = rng.integers(0, p, size=(8, 8))
        while not invertible(a, p):
            a = rng.integers(0, p, size=(8, 8))
        inv = inverse(a, p)
        assert np.array_equal(a @ inv % p, np.eye(8, dtype=np.int64))


def power_moment_matrix(points, p):
    return np.array([[pow(int(x), i, p) for x in points]
                     for i in range(len(points))], dtype=np.int64)


def test_vandermonde_solve_single_point():
    assert np.array_equal(linalg.vandermonde_solve([5], [7], 11), [7])


def test_vandermonde_solve_two_point_example():
    x = linalg.vandermonde_solve([1, 10], [2, 0], 11)
    assert np.array_equal(x, [1, 1])


def test_vandermonde_solve_exhaustive_point_sets_gf11():
    # Every point subset of GF(11) up to size 8, against dense elimination.
    rng = np.random.default_rng(11)
    for size in range(1, 9):
        for points in itertools.combinations(range(11), size):
            moments = rng.integers(0, 11, size=size)
            fast = linalg.vandermonde_solve(points, moments, 11)
            dense = solve(power_moment_matrix(points, 11), moments, 11)
            assert np.array_equal(fast, dense)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_vandermonde_solve_matches_dense_gf257(seed, size):
    rng = np.random.default_rng(seed)
    points = rng.choice(257, size=size, replace=False)
    moments = rng.integers(0, 257, size=size)
    fast = linalg.vandermonde_solve(points, moments, 257)
    dense = solve(power_moment_matrix(points, 257), moments, 257)
    assert np.array_equal(fast, dense)


def _largest_float64_prime(n):
    """The largest prime p with n * (p - 1)^2 < 2^53, Codec's bound."""
    p = math.isqrt((2**53 - 1) // n) + 1
    while not (n * (p - 1) ** 2 < 2**53 and is_prime(p)):
        p -= 1
    return p


@pytest.mark.parametrize("p", [257, 271, 4099, _largest_float64_prime(24)])
def test_vandermonde_solve_matches_dense_at_the_codec_fields(p):
    # Random point sets of every size the grid codes solve, 1 to 12 points,
    # at the shard files' fields, at p = 4099 and at the largest prime that
    # an n = 24 code accepts; moments are the identity, as the codec and
    # repair plans pass, and a random block.
    rng = np.random.default_rng(p)
    for size in range(1, 13):
        for _ in range(3):
            points = list(dict.fromkeys(rng.integers(0, p, size=4 * size).tolist()))[:size]
            dense = inverse(power_moment_matrix(points, p), p)
            assert np.array_equal(
                linalg.vandermonde_solve(points, np.eye(size, dtype=np.int64), p), dense)
            moments = rng.integers(0, p, size=(size, 3))
            assert np.array_equal(linalg.vandermonde_solve(points, moments, p),
                                  dense @ moments % p)


def test_vandermonde_solve_batched_moments():
    rng = np.random.default_rng(2)
    points = [1, 2, 4]
    moments = rng.integers(0, 11, size=(3, 5))
    batch = linalg.vandermonde_solve(points, moments, 11)
    for j in range(5):
        assert np.array_equal(
            batch[:, j], linalg.vandermonde_solve(points, moments[:, j], 11))


def test_vandermonde_solve_rejects_repeated_points():
    with pytest.raises(SingularMatrixError):
        linalg.vandermonde_solve([3, 3], [1, 2], 11)


def test_a_sum_past_n_terms_is_folded_between_its_ranges():
    # n = 8 and the largest prime p with n * (p - 1)^2 < 2^53.  Each row sums
    # 3n odd terms near p^2, about 2^54 in all, which float64 cannot hold
    # exactly; split cuts them into ranges of n, n - 1, n - 1 and 2 terms,
    # folded one after another, so the program's result is exact.
    n = 8
    p = math.isqrt((2**53 - 1) // n) + 1
    while not (n * (p - 1) ** 2 < 2**53 and is_prime(p)):
        p -= 1
    terms = 3 * n
    rng = np.random.default_rng(7)
    coef = p - 2 - 2 * rng.integers(0, 8, size=(2, terms))
    symbols = p - 2 - 2 * rng.integers(0, 8, size=(terms, 1, 3))
    ranges = linalg.split(coef, n)
    assert [hi - lo for lo, hi, _ in ranges] == [n, n - 1, n - 1, 2]
    rows = 1 + np.arange(terms)
    step = linalg.step(rows[:, None], ranges, 1 + terms)
    program = linalg.Program(p, 3 + terms, [step], 1, 1 + terms + np.arange(2)[:, None])
    expected = coef.astype(object) @ symbols[:, 0].astype(object) % p
    assert program(symbols)[:, 0].tolist() == expected.tolist()


@pytest.mark.parametrize("n", [4, 12, 24])
def test_float32_folds_every_integer_below_its_bound(n):
    # The largest prime p with n * (p - 1)^2 + p < 2^24 runs in float32, the
    # next in float64; p > n >= 4, so n = 4 gives the largest float32 p of
    # all.  A program's sums stay within n * (p - 1)^2 < 2^24 - p, and every
    # integer below 2^24 - p in magnitude folds exactly in float32.
    p = math.isqrt(2**24 // n) + 1
    while not (n * (p - 1) ** 2 + p < 2**24 and is_prime(p)):
        p -= 1
    beyond = p + 1
    while not is_prime(beyond):
        beyond += 1
    assert linalg.exact_float(n, p) is np.float32
    assert linalg.exact_float(n, beyond) is np.float64
    top = 2**24 - p - 1
    assert n * (p - 1) ** 2 <= top
    multiple, half = top // p * p, (p - 1) // 2
    edges = [0, 1, half, half + 1, p - 1, p, top, top - 1]
    edges += [multiple + d for d in (-p, -half - 1, -half, -1, 0, 1, half) if multiple + d <= top]
    values = np.concatenate([edges, np.random.default_rng(n).integers(0, top + 1, size=100_000)])
    values = np.concatenate([values, -values])
    a = values.astype(np.float32)
    assert np.array_equal(a.astype(np.int64), values)  # every input is exact
    fold, scratch = linalg.Fold(p, np.float32), np.empty_like(a)
    fold(a, scratch)
    folded = a.astype(np.int64)
    assert np.array_equal(folded, a) and a.dtype == np.float32
    assert not ((folded - values) % p).any()
    assert np.abs(folded).max() <= p // 2 + 2 <= p - 1
    fold.nonnegative(a, scratch)
    assert np.array_equal(a.astype(np.int64), values % p)


def test_an_odd_sum_past_2_24_runs_exactly_past_the_float32_bound():
    # At the first prime past the float32 bound at n = 4, a row of n terms,
    # three of (p - 1)^2 and one of (p - 2)^2, sums to an odd integer above
    # 2^24, which float32 cannot hold: only the float64 that exact_float
    # picks there keeps the program's result exact.
    n, p = 4, 2053
    assert n * (p - 1) ** 2 + p >= 2**24 > n * (2039 - 1) ** 2 + 2039
    assert all(not is_prime(q) for q in range(2040, p)) and is_prime(p)
    coef = np.array([[p - 1, p - 1, p - 1, p - 2]])
    symbols = np.array([[p - 1], [p - 1], [p - 1], [p - 2]])
    total = int((coef @ symbols)[0, 0])
    assert total > 2**24 and total % 2 == 1

    def program(dtype):
        step = linalg.step(1 + np.arange(n)[:, None], linalg.split(coef, n, dtype), 1 + n)
        return linalg.Program(p, 2 + n, [step], 1, np.array([1 + n]))

    assert program(linalg.exact_float(n, p))(symbols).tolist() == [[total % p]]
    assert linalg.exact_float(n, p) is np.float64
    assert program(np.float32)(symbols).tolist() != [[total % p]]


@pytest.mark.parametrize("terms,ranges", [(255, 1), (256, 2)])
def test_a_float32_sum_at_p_257_holds_255_terms_of_256_squared(terms, ranges):
    # floor((2^24 - p - 1) / (p - 1)^2) = 255 at p = 257: 255 terms of 256^2
    # are one range, and a 256th starts a second, added to the first's
    # folded sum.  Either way the program's result is exact.
    p, dtype = 257, np.float32
    assert linalg.capacity(p, dtype) == 255 and linalg.capacity(p, np.float64) == (2**53 - 1) >> 16
    coef = np.full((2, terms), p - 1)
    symbols = np.full((terms, 3), p - 1)
    cut = linalg.split(coef, linalg.capacity(p, dtype), dtype)
    assert [hi - lo for lo, hi, _ in cut] == [255, 1][:ranges]
    step = linalg.step(1 + np.arange(terms)[:, None], cut, 1 + terms)
    program = linalg.Program(p, 3 + terms, [step], 1, 1 + terms + np.arange(2)[:, None])
    assert program.dtype == dtype
    assert program(symbols).tolist() == [[[terms * 256**2 % p] * 3]] * 2
