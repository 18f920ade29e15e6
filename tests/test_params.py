import pytest
from hypothesis import given, strategies as st

from msrr import CodeParams
from msrr.errors import ParameterError

from conftest import P1, P1_DEGENERATE, P2, P3
from oracle import digits, repair_blocks, replace_digit, zero_digit_count, zero_digit_rows


def expand_base(a, base, length):
    # Independent digit oracle for the expansion used by the code.
    out = []
    for _ in range(length):
        out.append(a % base)
        a //= base
    return tuple(out)


def test_derived_quantities_p1():
    assert (P1.n, P1.k, P1.r, P1.r_bar) == (8, 4, 4, 2)
    assert (P1.s_bar, P1.m, P1.alpha, P1.beta) == (2, 2, 4, 2)


def test_derived_quantities_p2():
    assert (P2.n, P2.k, P2.r, P2.r_bar) == (12, 7, 5, 2)
    assert (P2.s_bar, P2.m, P2.alpha, P2.beta) == (2, 2, 4, 2)


def test_degenerate_helper_count():
    assert (P1_DEGENERATE.s_bar, P1_DEGENERATE.alpha, P1_DEGENERATE.beta) == (1, 1, 1)
    assert P1_DEGENERATE.m == 2


@pytest.mark.parametrize("kwargs,code", [
    (dict(n_bar=4, u=1, u0=0, k_bar=2, d_bar=3), "u_too_small"),
    (dict(n_bar=4, u=2, u0=2, k_bar=2, d_bar=3), "u0_out_of_range"),
    (dict(n_bar=4, u=2, u0=-1, k_bar=2, d_bar=3), "u0_out_of_range"),
    (dict(n_bar=4, u=2, u0=0, k_bar=0, d_bar=3), "k_too_small"),
    (dict(n_bar=4, u=2, u0=0, k_bar=2, d_bar=4), "d_out_of_range"),
    (dict(n_bar=4, u=2, u0=0, k_bar=2, d_bar=1), "d_out_of_range"),
    (dict(n_bar=4, u=2, u0=0.5, k_bar=2, d_bar=3), "not_integer"),
])
def test_named_parameter_errors(kwargs, code):
    with pytest.raises(ParameterError) as err:
        CodeParams(**kwargs)
    assert err.value.code == code


def test_from_total_k_splits_mid_rack():
    params = CodeParams.from_total_k(4, 3, 7, 3)
    assert (params.k_bar, params.u0, params.k) == (2, 1, 7)


@st.composite
def small_params(draw):
    n_bar = draw(st.integers(2, 8))
    u = draw(st.integers(2, 6))
    u0 = draw(st.integers(0, u - 1))
    k_bar = draw(st.integers(1, n_bar - 1))
    d_bar = draw(st.integers(k_bar, n_bar - 1))
    return CodeParams(n_bar=n_bar, u=u, u0=u0, k_bar=k_bar, d_bar=d_bar)


@given(small_params())
def test_parity_count_identity(params):
    assert params.r == params.r_bar * params.u - params.u0
    assert params.beta * params.s_bar == params.alpha


@given(small_params())
def test_rack_residue_and_digit(params):
    span = params.u - params.u0
    for e in range(params.n_bar):
        assert params.rack_residue(e) < span
        assert (e - params.rack_residue(e)) % span == 0
        assert params.rack_digit(e) == e // span
        assert params.rack_digit(e) < params.m


def test_rack_residue_examples():
    assert P1.rack_residue(0) == 0
    assert P1.rack_residue(3) == 1
    assert P1.rack_residue(2) == 0
    with pytest.raises(IndexError):
        P1.rack_residue(4)


def test_digits_examples():
    assert digits(P1, 2) == (0, 1)
    assert digits(P1, 0) == (0, 0)
    three = CodeParams(n_bar=4, u=2, u0=0, k_bar=1, d_bar=3)  # s_bar=3, m=2
    assert digits(three, 5) == (2, 1)
    with pytest.raises(IndexError):
        digits(P1, 4)


def test_digits_degenerate_base_one():
    assert digits(P1_DEGENERATE, 0) == (0, 0)
    assert replace_digit(P1_DEGENERATE, 0, 1, 0) == 0
    assert zero_digit_count(P1_DEGENERATE, 0) == 2
    assert zero_digit_rows(P1_DEGENERATE, 0) == [0]


def test_replace_digit_examples():
    assert replace_digit(P1, 0, 0, 1) == 1
    assert replace_digit(P1, 2, 1, 0) == 0
    with pytest.raises(IndexError):
        replace_digit(P1, 0, 2, 0)
    with pytest.raises(IndexError):
        replace_digit(P1, 0, 0, 2)


def test_zero_digit_count_examples():
    assert zero_digit_count(P1, 0) == 2
    assert zero_digit_count(P1, 2) == 1
    assert zero_digit_count(P1, 3) == 0


# Exhaustive digit checks for a spread of shapes up to alpha = 4096.
DIGIT_SWEEP = [
    P1,
    P3,
    CodeParams(n_bar=4, u=2, u0=0, k_bar=1, d_bar=3),            # 3^2
    CodeParams(n_bar=6, u=2, u0=1, k_bar=2, d_bar=3),            # 2^6
    CodeParams(n_bar=6, u=2, u0=1, k_bar=2, d_bar=5),            # 4^6 = 4096
]


@pytest.mark.parametrize("params", DIGIT_SWEEP)
def test_digits_match_oracle_exhaustively(params):
    for a in range(params.alpha):
        expansion = digits(params, a)
        assert expansion == expand_base(a, params.s_bar, params.m)
        assert sum(d * params.s_bar**i for i, d in enumerate(expansion)) == a


@pytest.mark.parametrize("params", DIGIT_SWEEP)
def test_replace_digit_weight_identity_exhaustively(params):
    for a in range(params.alpha):
        expansion = digits(params, a)
        w = zero_digit_count(params, a)
        for tau in range(params.m):
            assert replace_digit(params, a, tau, expansion[tau]) == a
            for v in range(params.s_bar):
                b = replace_digit(params, a, tau, v)
                expected = w - (expansion[tau] == 0) + (v == 0)
                assert zero_digit_count(params, b) == expected


@pytest.mark.parametrize("params", [P1, P2, P3, P1_DEGENERATE])
def test_weight_classes_partition_coordinates(params):
    classes = {}
    for a in range(params.alpha):
        classes.setdefault(zero_digit_count(params, a), []).append(a)
    merged = sorted(a for group in classes.values() for a in group)
    assert merged == list(range(params.alpha))
    for tau in range(params.m):
        rows = zero_digit_rows(params, tau)
        by_weight = sorted(
            a for sigma in range(params.m + 1)
            for a in rows if zero_digit_count(params, a) == sigma)
        assert by_weight == rows


def test_zero_digit_rows_examples():
    assert zero_digit_rows(P1, 0) == [0, 2]
    assert zero_digit_rows(P1, 1) == [0, 1]
    for params in (P1, P2, P3):
        for tau in range(params.m):
            assert len(zero_digit_rows(params, tau)) == params.beta


def test_repair_blocks_examples():
    assert repair_blocks(P1, 0) == [0, 2]
    assert repair_blocks(P1, 1) == [1, 3]
    singleton = CodeParams(n_bar=3, u=2, u0=0, k_bar=2, d_bar=2)  # r_bar = 1
    assert repair_blocks(singleton, 1) == [singleton.rack_residue(1)]


@given(small_params())
def test_repair_blocks_depend_on_residue_only(params):
    for e in range(params.n_bar):
        for e2 in range(params.n_bar):
            if params.rack_residue(e) == params.rack_residue(e2):
                assert repair_blocks(params, e) == repair_blocks(params, e2)
        blocks = repair_blocks(params, e)
        assert all(0 <= t < params.r for t in blocks)
        assert len(blocks) == params.r_bar


def test_node_indexing_round_trip():
    for params in (P1, P2):
        for i in range(params.n):
            e, g = params.node_pair(i)
            assert params.node_index(e, g) == i
    assert P2.nodes()[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
