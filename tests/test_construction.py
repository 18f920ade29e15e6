import numpy as np
import pytest

from msrr import CodeParams, Codec, ParityCheckMatrix, build_constants
from msrr.construction import MAX_ALPHA
from msrr.errors import InternalError, ParameterError
from msrr.field import FieldCtx

from conftest import ADMISSIBLE_CODES, P1, P1_DEGENERATE, P3
from oracle import (apply_node, digits, replace_digit, row_entries, zero_digit_count,
                    zero_digit_rows)

# Every small admissible code: u0 > 0, s_bar = 1 and up to four digit siblings.
SMALL_ALPHA_CODES = [params for params in ADMISSIBLE_CODES if params.alpha <= 64]


def _pcm(params):
    return ParityCheckMatrix(params, build_constants(params, FieldCtx.for_code(params)))


def test_tables_are_built_up_to_max_alpha_and_refused_past_it(monkeypatch):
    # The CLI's alpha = 4096 smoke code, the widest the tests, CI and the
    # benchmark use, is within the bound.
    assert CodeParams.from_total_k(6, 3, 8, 5).alpha == 4096 <= MAX_ALPHA
    monkeypatch.setattr("msrr.construction.MAX_ALPHA", P3.alpha)
    assert _pcm(P3).params.alpha == 8
    wider = CodeParams.from_total_k(6, 2, 6, 5)
    with pytest.raises(ParameterError, match="^alpha_too_large: alpha=27 exceeds 8,") as err:
        _pcm(wider)
    assert err.value.code == "alpha_too_large"


def test_p1_constants_frozen_values(p1_codec):
    consts = p1_codec.constants
    assert consts.locators == ((1, 10), (2, 9), (4, 7), (8, 3))
    assert consts.rack_points == (1, 4, 5, 9)
    assert consts.extra_points == (2,)


def test_degenerate_code_has_no_extra_points(degenerate_codec):
    assert degenerate_codec.constants.extra_points == ()


def test_locators_are_distinct_and_rack_points_are_uth_powers(p3_codec):
    consts = p3_codec.constants
    flat = [x for row in consts.locators for x in row]
    assert len(set(flat)) == p3_codec.params.n
    p, u = p3_codec.p, p3_codec.params.u
    for e, row in enumerate(consts.locators):
        for lam in row:
            assert pow(lam, u, p) == consts.rack_points[e]
    assert not set(consts.extra_points) & set(consts.rack_points)
    assert 0 not in consts.extra_points


def test_row_entries_frozen_examples(p1_codec):
    pcm = p1_codec.pcm
    assert row_entries(pcm, 0, 0, 0, 0) == [(0, 1), (1, 1)]
    assert row_entries(pcm, 2, 0, 0, 0) == [(0, 1), (1, 2)]
    assert row_entries(pcm, 0, 0, 1, 0) == [(0, 1), (1, 1)]
    assert row_entries(pcm, 2, 2, 0, 1) == [(1, 5), (3, 2)]
    # No off-diagonals anywhere in block 1 for rack 0 (1 != residue 0 mod u).
    for g in range(2):
        for a in range(4):
            assert len(row_entries(pcm, 1, 0, g, a)) == 1


def test_digit_tables_match_scalar_oracle():
    for params in (params for params in ADMISSIBLE_CODES if params.alpha <= 256):
        pcm = _pcm(params)
        coords = range(params.alpha)
        assert pcm.digits.tolist() == [list(digits(params, a)) for a in coords]
        assert pcm.level.tolist() == [zero_digit_count(params, a) for a in coords]
        assert len(pcm.zero_rows) == len(pcm.sibling_cols) == params.m
        for tau in range(params.m):
            rows = zero_digit_rows(params, tau)
            assert pcm.zero_rows[tau].tolist() == rows, (params, tau)
            assert [cols.tolist() for cols in pcm.sibling_cols[tau]] == [
                [replace_digit(params, a, tau, v) for a in rows]
                for v in range(1, params.s_bar)], (params, tau)


def test_level_blocks_and_sibling_gathers_match_scalar_oracle():
    # The level layout and the sibling gather that the codec's solve and the
    # repair plans read, over all coordinates and over each rack digit's
    # zero rows, against loops over the scalar digit helpers.
    for params in SMALL_ALPHA_CODES:
        pcm, width = _pcm(params), params.u - params.u0
        for coords in [np.arange(params.alpha)] + pcm.zero_rows:
            order, bounds, block = pcm.level_blocks(coords, 3)
            levels = [zero_digit_count(params, a) for a in coords]
            assert order.tolist() == sorted(range(coords.size), key=levels.__getitem__)
            for lo, hi in zip(bounds, bounds[1:]):
                assert len({levels[j] for j in order[lo:hi]}) == 1
                assert block[:, lo:hi].tolist() == [
                    [3 * lo + q * (hi - lo) + j for j in range(hi - lo)] for q in range(3)]
            targets = coords[order]
            position = {int(a): j for j, a in enumerate(targets)}
            # The row of a's sibling, 0 where rack e's digit of a is not zero
            # and None where the sibling is not among coords.
            expected = [[0 if digits(params, a)[e // width] else
                         1 + e * coords.size + position[b] if b in position else None
                         for a in targets for b in [replace_digit(params, a, e // width, v)]]
                        for e in range(params.n_bar) for v in range(1, params.s_bar)]
            if any(None in row for row in expected):
                with pytest.raises(InternalError, match="missing from the sources"):
                    pcm.sibling_table(range(params.n_bar), targets, targets)
            else:
                index, coef = pcm.sibling_table(range(params.n_bar), targets, targets)
                assert index.tolist() == expected
                extra, p, u = pcm.constants.extra_points, pcm.p, params.u
                assert coef.tolist() == [
                    [pow(extra[v - 1], t // u, p) if t % u == params.rack_residue(e) else 0
                     for e in range(params.n_bar) for v in range(1, params.s_bar)]
                    for t in range(params.r)]


def test_rows_with_nonzero_owned_digit_are_diagonal_only(p3_codec):
    params, pcm = p3_codec.params, p3_codec.pcm
    for t in range(params.r):
        for e in range(params.n_bar):
            tau = params.rack_digit(e)
            for g in range(params.u):
                for a in range(params.alpha):
                    entries = row_entries(pcm, t, e, g, a)
                    assert entries[0] == (a, int(pcm.diag[t, e, g]))
                    if digits(params, a)[tau] != 0:
                        assert len(entries) == 1


def test_off_diagonal_shape_invariants(p2_codec):
    params, pcm = p2_codec.params, p2_codec.pcm
    for t in range(params.r):
        for e in range(params.n_bar):
            expects_offs = t % params.u == params.rack_residue(e)
            for g in range(params.u):
                for a in range(params.alpha):
                    offs = len(row_entries(pcm, t, e, g, a)) - 1
                    assert offs in (0, params.s_bar - 1)
                    if offs and not expects_offs:
                        pytest.fail(f"off-diagonals in foreign block t={t}, e={e}")
                    assert offs + 1 <= params.s_bar


def test_diagonal_subsystem_is_vandermonde_on_weightless_rows(p3_codec):
    # Rows whose coordinate has no zero digit reduce to pure powers of the
    # locators, one Vandermonde system per coordinate.
    params, pcm = p3_codec.params, p3_codec.pcm
    p = p3_codec.p
    nodes = params.nodes()
    lams = [p3_codec.constants.locators[e][g] for e, g in nodes]
    for a in range(params.alpha):
        if zero_digit_count(params, a) != 0:
            continue
        for t in range(params.r):
            row = []
            for e, g in nodes:
                entries = dict(row_entries(pcm, t, e, g, a))
                assert set(entries) == {a}
                row.append(entries[a])
            assert row == [pow(lam, t, p) for lam in lams]


def test_dense_node_matches_row_entries():
    for params in SMALL_ALPHA_CODES:
        pcm = _pcm(params)
        alpha = params.alpha
        for e, g in params.nodes():
            rebuilt = np.zeros((params.r * alpha, alpha), dtype=np.int64)
            for t in range(params.r):
                for a in range(alpha):
                    for col, coeff in row_entries(pcm, t, e, g, a):
                        rebuilt[t * alpha + a, col] = coeff
            assert np.array_equal(pcm.dense_node(e, g), rebuilt), (params, e, g)


@pytest.mark.parametrize("tail", [(), (3,), (1,)])
def test_apply_node_matches_dense_product(tail):
    rng = np.random.default_rng(5)
    for params in SMALL_ALPHA_CODES:
        pcm = _pcm(params)
        vec = rng.integers(0, pcm.p, size=(params.alpha,) + tail)
        for e, g in params.nodes():
            expected = pcm.dense_node(e, g) @ vec.reshape(params.alpha, -1) % pcm.p
            got = apply_node(pcm, e, g, vec)
            assert got.shape == (params.r * params.alpha,) + tail
            assert np.array_equal(got.reshape(expected.shape), expected), (params, e, g)


def test_degenerate_blocks_are_scaled_identities(degenerate_codec):
    params, pcm = degenerate_codec.params, degenerate_codec.pcm
    for t in range(params.r):
        for e in range(params.n_bar):
            for g in range(params.u):
                assert row_entries(pcm, t, e, g, 0) == [(0, int(pcm.diag[t, e, g]))]


@pytest.mark.parametrize("params", [P1, P3, P1_DEGENERATE])
def test_rebuild_is_bit_identical(params):
    a = Codec(params)
    b = Codec(params)
    assert a.constants == b.constants
    assert a.pcm.diag.tobytes() == b.pcm.diag.tobytes()
    def tables(codec):
        return [[(part.shape, part.tobytes()) for part in table]
                for table in codec.pcm.off_diagonal]
    assert tables(a) == tables(b)


def test_constants_reject_mismatched_field():
    from msrr.errors import InternalError
    field = FieldCtx.create(11, 2)
    with pytest.raises(InternalError):
        build_constants(CodeParams(n_bar=4, u=3, u0=1, k_bar=2, d_bar=3), field)
    small = FieldCtx.create(7, 2)  # not above n = 8
    with pytest.raises(InternalError):
        build_constants(P1, small)


def test_parity_check_row_bounds(p1_codec):
    pcm = p1_codec.pcm
    with pytest.raises(IndexError):
        row_entries(pcm, 4, 0, 0, 0)
    with pytest.raises(IndexError):
        row_entries(pcm, 0, 0, 0, 4)
    with pytest.raises(IndexError):
        row_entries(pcm, 0, 4, 0, 0)
