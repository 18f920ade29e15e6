import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msrr import Codec, CodeParams, RepairJob, linalg
from msrr.codec import stripes_per_chunk
from msrr.construction import ParityCheckMatrix
from msrr.errors import InternalError, ParameterError
from msrr.field import FieldCtx, find_primitive, find_unity_root, is_prime
from msrr.linalg import Fold
from msrr.repair import RepairPlan

from conftest import (ADMISSIBLE_CODES, P1, P1_DEGENERATE, P2, P3, erase, random_stripe,
                      repair_from_stripe)
from oracle import apply_node, solve

# Encoding the first standard basis vector (node (0,0), coordinate 0) of the
# p=11 code; validated once by a zero syndrome plus re-decoding from every
# 4-subset of nodes, then frozen.
GOLDEN_BASIS_STRIPE = [
    [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
    [7, 0, 0, 0], [2, 0, 0, 0], [4, 0, 0, 0], [8, 0, 0, 0],
]


def test_golden_basis_stripe(p1_codec):
    data = np.zeros((4, 4), dtype=np.int64)
    data[0, 0] = 1
    stripe = p1_codec.encode_batch(data)
    assert stripe.tolist() == GOLDEN_BASIS_STRIPE
    assert not p1_codec.syndrome_batch(stripe).any()


def test_encode_zero_data_gives_zero_stripe(p1_codec):
    stripe = p1_codec.encode_batch(np.zeros((4, 4), dtype=np.int64))
    assert not stripe.any()
    assert not p1_codec.syndrome_batch(stripe).any()


def test_encode_rejects_wrong_shape(p1_codec):
    with pytest.raises(ValueError):
        p1_codec.encode_batch(np.zeros((3, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        p1_codec.encode_batch(np.zeros((4, 5), dtype=np.int64))


def test_systematic_region_carries_data_verbatim(p2_codec):
    rng = np.random.default_rng(4)
    data = rng.integers(0, p2_codec.p, size=(p2_codec.params.k, p2_codec.params.alpha))
    stripe = p2_codec.encode_batch(data)
    assert np.array_equal(stripe[:p2_codec.params.k], data)


@pytest.mark.parametrize("codec_fixture", ["p1_codec", "p2_codec", "p3_codec"])
def test_syndrome_zero_for_codewords(codec_fixture, request):
    codec = request.getfixturevalue(codec_fixture)
    stripe = random_stripe(codec, seed=1)
    assert not codec.syndrome_batch(stripe).any()


def test_syndrome_fires_on_any_perturbation(p1_codec):
    stripe = random_stripe(p1_codec, seed=2)
    for i in range(p1_codec.params.n):
        for a in range(p1_codec.params.alpha):
            bad = stripe.copy()
            bad[i, a] = (bad[i, a] + 1) % p1_codec.p
            assert p1_codec.syndrome_batch(bad).any()


def test_the_array_calls_refuse_vectors_that_are_not_n_alpha(p1_codec):
    # The syndrome's product stages the first n nodes of its input into a
    # work array kept from call to call: 7 nodes would leave the 8th row of
    # the last call behind, and 9 would drop one.  decode_batch writes the
    # solved nodes through a view, which a fourth axis could make a copy.
    vectors = random_stripe(p1_codec, seed=3, stripes=2)
    assert not p1_codec.syndrome_batch(vectors).any()
    present = np.arange(8) != 5
    for bad in (vectors[:7], np.concatenate([vectors, vectors[:1]]), vectors[:, :3],
                vectors[:, :, 0].ravel(), vectors[..., None]):
        for call in (p1_codec.syndrome_batch, lambda v: p1_codec.decode_batch(v, present)):
            with pytest.raises(ValueError, match=r"vectors must be \(8, 4\) or \(8, 4, w\)"):
                call(bad)
    assert np.array_equal(p1_codec.decode_batch(vectors, present), vectors)


def test_decode_refuses_a_mask_that_is_not_n_booleans(p1_codec):
    vectors = random_stripe(p1_codec, seed=14, stripes=3)
    zeroed, present = erase(p1_codec.params, vectors, [(2, 1)])
    for bad in (np.append(present, True), present[:-1], present[:, None], present[None]):
        with pytest.raises(ValueError, match=r"present shape .* is not \(8,\)"):
            p1_codec.decode_batch(zeroed, bad)
    assert np.array_equal(p1_codec.decode_batch(zeroed, present), vectors)


def test_a_missing_nodes_rows_may_hold_anything(p1_codec):
    # With node 5 lost, the plan stages nodes 3 to 7 as one run, node 5
    # among them, and does not read it: symbols of the field that are not
    # node 5's, and integers outside it, decode alike.
    vectors = random_stripe(p1_codec, seed=15, stripes=2)
    zeroed, present = erase(p1_codec.params, vectors, [(2, 1)])
    for junk in ((vectors[5] + 1) % p1_codec.p, 7777, -1):
        zeroed[5] = junk
        assert np.array_equal(p1_codec.decode_batch(zeroed, present), vectors)
    assert p1_codec.decode_plan(present).program.inputs == slice(3, 8)


def test_syndrome_calls_share_one_product(monkeypatch):
    # The all-node product is built on the first call and kept, as the
    # encode solve is; its residual is copied out of the work array.
    codec = Codec(CodeParams.from_total_k(8, 3, 12, 6), min_field=257)
    bad = random_stripe(codec, seed=31, stripes=2)
    bad[3, 4, 1] = (bad[3, 4, 1] + 1) % codec.p
    built, product = [], codec.pcm.product
    monkeypatch.setattr(codec.pcm, "product",
                        lambda nodes, *args: built.append(nodes) or product(nodes, *args))
    first = codec.syndrome_batch(bad)
    program = codec._plan(()).program
    second = codec.syndrome_batch(bad)
    assert len(built) == 1 and codec._plan(()).program is program
    assert np.array_equal(first, second) and first[:, 1].any() and not first[:, 0].any()


def test_an_int64_decode_copies_its_input_once():
    # 200 stripes of (8,3,12,6) in int64 are 0.99 MiB.  With the plan and its
    # work arrays built by a first call, a second call holds one reduced
    # copy of the input, which it returns, besides the caller's array.
    codec = Codec(CodeParams.from_total_k(8, 3, 12, 6))
    params = codec.params
    vectors = random_stripe(codec, seed=32, stripes=200)
    zeroed, present = erase(params, vectors, params.nodes()[:params.r])
    assert zeroed.dtype == np.int64
    codec.decode_batch(zeroed, present)
    tracemalloc.start()
    try:
        restored = codec.decode_batch(zeroed, present)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(restored, vectors)
    assert zeroed.nbytes <= peak < 1.5 * zeroed.nbytes
    unsigned = zeroed.astype(np.uint16)
    restored = codec.decode_batch(unsigned, present)
    assert restored.dtype == np.int64 and np.array_equal(restored, vectors)
    assert np.array_equal(unsigned, zeroed)  # never the caller's array


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_encoding_is_linear(p2_codec, seed, scale):
    rng = np.random.default_rng(seed)
    shape = (p2_codec.params.k, p2_codec.params.alpha)
    x = rng.integers(0, p2_codec.p, size=shape)
    y = rng.integers(0, p2_codec.p, size=shape)
    combined = p2_codec.encode_batch((scale * x + y) % p2_codec.p)
    parts = (scale * p2_codec.encode_batch(x) + p2_codec.encode_batch(y)) % p2_codec.p
    assert np.array_equal(combined, parts)


def test_decode_empty_pattern_is_identity(p1_codec):
    stripe = random_stripe(p1_codec, seed=5)
    out = p1_codec.decode_batch(stripe, np.ones(p1_codec.params.n, dtype=bool))
    assert np.array_equal(out, stripe)


def test_decode_all_maximal_patterns_p1(p1_codec):
    stripe = random_stripe(p1_codec, seed=6)
    nodes = p1_codec.params.nodes()
    for pattern in itertools.combinations(nodes, p1_codec.params.r):
        out = p1_codec.decode_batch(*erase(p1_codec.params, stripe, pattern))
        assert np.array_equal(out, stripe)
        assert not p1_codec.syndrome_batch(out).any()


@pytest.mark.parametrize("codec_fixture,samples", [("p2_codec", 1000),
                                                   ("p3_codec", 1000)])
def test_decode_sampled_patterns(codec_fixture, samples, request):
    codec = request.getfixturevalue(codec_fixture)
    params = codec.params
    stripe = random_stripe(codec, seed=7)
    rng = np.random.default_rng(8)
    nodes = params.nodes()
    for _ in range(samples):
        size = rng.integers(1, params.r + 1)
        pattern = [nodes[i] for i in rng.choice(params.n, size=size, replace=False)]
        out = codec.decode_batch(*erase(params, stripe, pattern))
        assert np.array_equal(out, stripe)


def test_decode_batch_parallels_single_stripe(p1_codec):
    params = p1_codec.params
    vectors = random_stripe(p1_codec, seed=9, stripes=5)
    present = np.ones(params.n, dtype=bool)
    present[[0, 3, 6]] = False
    zeroed = vectors.copy()
    zeroed[~present] = 0
    restored = p1_codec.decode_batch(zeroed, present)
    assert np.array_equal(restored, vectors)


def test_erasure_pattern_validation(p1_codec):
    params = p1_codec.params
    stripe = random_stripe(p1_codec, seed=10)
    with pytest.raises(ValueError):
        p1_codec.decode_batch(*erase(params, stripe, params.nodes()[:params.r + 1]))
    with pytest.raises(ValueError):
        p1_codec.decode_batch(stripe, np.zeros(params.n, dtype=bool))


def test_verify_mds_exhaustive_p1(p1_codec):
    report = p1_codec.verify_mds("exhaustive")
    assert report.subsets_checked == 70
    assert report.ok


def test_verify_mds_sample_mode_is_deterministic(p3_codec):
    a = p3_codec.verify_mds("sample", samples=50, seed=123)
    b = p3_codec.verify_mds("sample", samples=50, seed=123)
    assert a.subsets_checked == b.subsets_checked == 50
    assert a.failures == b.failures == []


def test_verify_mds_cap_and_mode_validation(p3_codec, monkeypatch):
    monkeypatch.setattr("msrr.codec.SWEEP_CAP", 100)
    with pytest.raises(ParameterError) as err:
        p3_codec.verify_mds("exhaustive")
    assert err.value.code == "cap_exceeded"
    with pytest.raises(ValueError):
        p3_codec.verify_mds("shuffle")


# -- verify_mds against the dense rank ---------------------------------------------


def dense_mds_failures(codec, subsets):
    """Oracle: (subset, rank) for each subset whose dense column groups, side
    by side, have rank below r*alpha."""
    params, p = codec.params, codec.p
    cols = [codec.pcm.dense_node(e, g) for e, g in params.nodes()]
    ranks = [(s, linalg.rank(np.hstack([cols[i] for i in s]), p)) for s in subsets]
    return sorted((s, rk) for s, rk in ranks if rk != params.r * params.alpha)


def count_dense_ranks(monkeypatch, codec):
    """Record every linalg.rank call on an r*alpha-wide matrix."""
    calls, rank = [], linalg.rank
    width = codec.params.r * codec.params.alpha

    def counting(a, p):
        if np.shape(a)[1] == width:
            calls.append(a)
        return rank(a, p)

    monkeypatch.setattr(linalg, "rank", counting)
    return calls


@pytest.mark.parametrize("params", [P1, P2, P3, P1_DEGENERATE],
                         ids=["p1", "p2-u0", "p3", "degenerate"])
def test_verify_mds_exhaustive_matches_dense_rank(monkeypatch, params):
    codec = Codec(params)
    subsets = list(itertools.combinations(range(params.n), params.r))
    calls = count_dense_ranks(monkeypatch, codec)
    report = codec.verify_mds("exhaustive")
    if params.alpha > 1:  # at alpha = 1 the diagonal block is the whole matrix
        assert calls == []  # the certificate holds on every subset
    assert report.subsets_checked == len(subsets)
    assert report.failures == dense_mds_failures(codec, subsets) == []


def test_verify_mds_sample_matches_dense_rank():
    codec = Codec(CodeParams.from_total_k(8, 3, 12, 6))
    params = codec.params
    rng = random.Random(5)
    subsets = [tuple(sorted(rng.sample(range(params.n), params.r)))
               for _ in range(6)]
    report = codec.verify_mds("sample", samples=6, seed=5)
    assert report.subsets_checked == 6
    assert report.failures == dense_mds_failures(codec, subsets) == []


def test_a_correct_code_verifies_without_dense_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense work on a code that meets the certificate")

    monkeypatch.setattr(ParityCheckMatrix, "dense_node", refuse)
    monkeypatch.setattr(linalg, "rank", refuse)
    for params in (P1, P2, P3, P1_DEGENERATE):
        assert Codec(params).verify_mds("exhaustive").ok
    for shape in ((8, 3, 12, 6), (10, 2, 10, 7), (6, 3, 8, 5)):
        assert Codec(CodeParams.from_total_k(*shape)).verify_mds("sample", samples=20, seed=1).ok


def add_entries(monkeypatch, codec, entries):
    """Append to codec.pcm.siblings, the table that every product runs and
    verify_mds and dense_node read, one gather row and one coefficient
    column per (node, pairs, column) of entries: in the rows (t, a) of each
    pair (a, b) the row reads node (e, g) at coordinate b, weighed by
    column[t]."""
    pcm, alpha = codec.pcm, codec.params.alpha
    index, coef = pcm.siblings
    position = np.argsort(pcm.order)  # coordinate -> order position
    rows = np.zeros((len(entries), alpha), dtype=index.dtype)
    for row, (node, pairs, _) in zip(rows, entries):
        for a, b in pairs:
            row[position[a]] = 1 + codec.params.node_index(*node) * alpha + position[b]
    columns = np.array([column for _, _, column in entries], dtype=coef.dtype).T
    monkeypatch.setattr(pcm, "siblings", (np.vstack([index, rows]), np.hstack([coef, columns])))


def with_node(params, node):
    i = params.node_index(*node)
    return [s for s in itertools.combinations(range(params.n), params.r) if i in s]


def with_rack(params, e):
    return [s for s in itertools.combinations(range(params.n), params.r)
            if any(i // params.u == e for i in s)]


def test_verify_mds_reports_an_entry_above_the_level_order(monkeypatch):
    codec = Codec(P1)
    level = codec.pcm.level
    assert (level[3], level[0]) == (0, 2)
    data = np.zeros((P1.k, P1.alpha), dtype=np.int64)
    data[2, 0] = 1
    stripe = codec.encode_batch(data)
    # Row (t=1, a=3) of nodes (1, 0) and (1, 1) gains an entry in column
    # b=0, a coordinate of higher level than a, valued 5 for node (1, 0) and
    # 0 for node (1, 1): node (1, 0)'s matrix is no longer block lower
    # triangular.  The check goes by position, so both nodes fail the
    # certificate.
    add_entries(monkeypatch, codec, [((1, 0), [(3, 0)], [0, 5, 0, 0]),
                                     ((1, 1), [(3, 0)], [0, 0, 0, 0])])
    # The syndrome product runs the same table: it now reads node (1, 0)'s
    # coordinate 0 in row (1, 3).
    residual = np.zeros(P1.r * P1.alpha, dtype=np.int64)
    residual[P1.alpha + 3] = 5
    assert np.array_equal(codec.syndrome_batch(stripe), residual)
    calls = count_dense_ranks(monkeypatch, codec)
    report = codec.verify_mds("exhaustive")
    assert len(calls) == len(with_rack(P1, 1))
    subsets = list(itertools.combinations(range(P1.n), P1.r))
    assert report.failures == dense_mds_failures(codec, subsets) != []


def test_verify_mds_reports_a_coupling_within_a_level(monkeypatch):
    codec = Codec(P1)
    assert codec.pcm.level[1] == codec.pcm.level[2]

    # In every column group, rows (t, 1) and (t, 2) repeat their diagonal
    # value in each other's column.  Coordinates 1 and 2 share a level, and
    # each subset's matrix gains the singular block [[D, D], [D, D]] there.
    add_entries(monkeypatch, codec, [((e, g), [(1, 2), (2, 1)], codec.pcm.diag[:, e, g])
                                     for e, g in P1.nodes()])
    calls = count_dense_ranks(monkeypatch, codec)
    report = codec.verify_mds("exhaustive")
    subsets = list(itertools.combinations(range(P1.n), P1.r))
    assert len(calls) == len(subsets)
    assert report.failures == dense_mds_failures(codec, subsets)
    assert [s for s, _ in report.failures] == subsets


def test_verify_mds_reports_a_changed_diagonal_entry(monkeypatch):
    codec = Codec(P1)
    # Nodes (2, 0) and (2, 1) gain an entry on the diagonal, row (t=1, a=0)
    # in column 0: 0 for node (2, 0), and minus its diagonal value for node
    # (2, 1), whose entry there becomes 0.  Block t=1 of node (2, 1) carries
    # a different value at coordinate 0 than at the other coordinates: the
    # diagonal blocks are no longer all equal.
    minus = (codec.p - codec.pcm.diag[1, 2, 1]) % codec.p
    add_entries(monkeypatch, codec, [((2, 0), [(0, 0)], [0, 0, 0, 0]),
                                     ((2, 1), [(0, 0)], [0, minus, 0, 0])])
    # An entry adds to what its position holds, in dense_node as in the products.
    assert codec.pcm.dense_node(2, 0)[P1.alpha, 0] == codec.pcm.diag[1, 2, 0]
    assert codec.pcm.dense_node(2, 1)[P1.alpha, 0] == 0
    calls = count_dense_ranks(monkeypatch, codec)
    report = codec.verify_mds("exhaustive")
    assert len(calls) == len(with_rack(P1, 2))
    subsets = list(itertools.combinations(range(P1.n), P1.r))
    assert report.failures == dense_mds_failures(codec, subsets) != []


def test_verify_mds_reports_colliding_locators(monkeypatch):
    codec = Codec(P1)
    diag = codec.pcm.diag.copy()
    diag[:, 3, 1] = diag[:, 0, 0]  # node (3, 1) takes node (0, 0)'s locator
    monkeypatch.setattr(codec.pcm, "diag", diag)
    calls = count_dense_ranks(monkeypatch, codec)
    report = codec.verify_mds("exhaustive")
    both = [s for s in with_node(P1, (3, 1)) if 0 in s]
    assert len(calls) == len(both)
    subsets = list(itertools.combinations(range(P1.n), P1.r))
    assert report.failures == dense_mds_failures(codec, subsets)
    assert [s for s, _ in report.failures] == both


def test_verify_mds_reports_a_diagonal_column_that_is_not_vandermonde(monkeypatch):
    codec = Codec(P1)
    r, p = P1.r, codec.p
    # Block t=2 of node (2, 1) is scaled by c at every coordinate: (a) and (b)
    # still hold, but its diagonal column is no longer [x^t], so only the
    # r x r rank decides (c), and h is dense only where that block is singular.
    c, diag = 3, codec.pcm.diag.copy()
    diag[2, 2, 1] = diag[2, 2, 1] * c % p
    columns = diag.reshape(r, P1.n)
    subsets = list(itertools.combinations(range(P1.n), P1.r))
    singular = [s for s in subsets if linalg.rank(columns[:, s], p) < r]
    assert singular
    monkeypatch.setattr(codec.pcm, "diag", diag)
    calls = count_dense_ranks(monkeypatch, codec)
    report = codec.verify_mds("exhaustive")
    assert len(calls) == len(singular)
    assert report.failures == dense_mds_failures(codec, subsets)
    assert [s for s, _ in report.failures] == singular


def test_verify_mds_memory_holds_one_column_group():
    # (10,2,10,7): alpha 243, one dense column group r*alpha x alpha of
    # int64 is 4.7 MB, and h would be 47 MB.  The peak must not grow with
    # the sample count nor hold more than a few groups.
    codec = Codec(CodeParams.from_total_k(10, 2, 10, 7))
    params = codec.params
    group = params.r * params.alpha * params.alpha * 8
    peaks = []
    tracemalloc.start()
    try:
        for samples in (1, 6):
            tracemalloc.reset_peak()
            assert codec.verify_mds("sample", samples=samples, seed=3).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < group
    assert max(peaks) < 3 * group


def test_codec_respects_explicit_min_field():
    codec = Codec(P1, min_field=257)
    assert codec.p == 257
    stripe = random_stripe(codec, seed=11)
    assert not codec.syndrome_batch(stripe).any()


# -- structured codec against a dense oracle -----------------------------------


def dense_solve(codec, vectors, unknowns):
    """Oracle: values of the r nodes `unknowns` that zero the syndrome, by
    Gauss-Jordan on the dense parity-check column groups."""
    params, p = codec.params, codec.p
    cols = [codec.pcm.dense_node(e, g) for e, g in params.nodes()]
    rhs = -sum(cols[i] @ vectors[i] for i in range(params.n)
               if i not in unknowns) % p
    sol = solve(np.hstack([cols[i] for i in unknowns]), rhs, p)
    return sol.reshape((len(unknowns), params.alpha) + vectors.shape[2:])


# Every admissible code with n_bar <= 6 and u <= 3 that the dense oracle can
# afford; about half of them have s_bar = 1.
SMALL_CODES = [params for params in ADMISSIBLE_CODES
               if params.r * params.alpha <= 600]


@st.composite
def small_cases(draw):
    params = draw(st.sampled_from(SMALL_CODES))
    return (params, draw(st.integers(1, params.r)), draw(st.sampled_from([1, 3])),
            draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None, max_examples=60)
@given(small_cases())
@example((P1_DEGENERATE, 4, 3, 0))   # s_bar = 1: alpha = 1, a single level
@example((P2, 1, 1, 1))              # u0 > 0
@example((P2, 5, 3, 2))
def test_structured_codec_matches_dense_oracle(case):
    params, erasures, width, seed = case
    codec = Codec(params)
    n, k, r, p = params.n, params.k, params.r, codec.p
    rng = np.random.default_rng(seed)
    data = rng.integers(0, p, size=(k, params.alpha, width))
    parity = dense_solve(codec, data, list(range(k, n)))
    stripe = codec.encode_batch(data)
    assert np.array_equal(stripe, np.concatenate([data, parity]))

    erased = sorted(rng.choice(n, size=erasures, replace=False).tolist())
    present = np.ones(n, dtype=bool)
    present[erased] = False
    zeroed = np.where(present[:, None, None], stripe, 0)
    assert np.array_equal(codec.decode_batch(zeroed, present), stripe)
    # The oracle pads with the largest present nodes, the codec with the
    # smallest; on a codeword both must restore the erased nodes.
    pad = [i for i in range(n - 1, -1, -1) if present[i]][:r - erasures]
    unknowns = sorted(erased + pad)
    oracle = dense_solve(codec, zeroed, unknowns)
    assert np.array_equal(oracle[[unknowns.index(i) for i in erased]],
                          stripe[erased])
    # With exactly r unknowns the solution is unique for any input, codeword
    # or not, so the two solvers must agree on noise too.
    noise = rng.integers(0, p, size=stripe.shape)
    full = np.ones(n, dtype=bool)
    full[unknowns] = False
    assert np.array_equal(codec.decode_batch(noise, full)[unknowns],
                          dense_solve(codec, noise, unknowns))


def test_wide_code_beyond_the_dense_path():
    # alpha = 1024 and r*alpha = 11264: a dense int64 parity inverse alone
    # would take about 1 GiB.
    codec = Codec(CodeParams.from_total_k(10, 2, 9, 5))
    params = codec.params
    assert (params.alpha, params.r * params.alpha) == (1024, 11264)
    rng = np.random.default_rng(12)
    stripe = codec.encode_batch(
        rng.integers(0, codec.p, size=(params.k, params.alpha, 4)))
    assert not codec.syndrome_batch(stripe).any()
    erased = rng.choice(params.n, size=params.r, replace=False)
    present = np.ones(params.n, dtype=bool)
    present[erased] = False
    zeroed = np.where(present[:, None, None], stripe, 0)
    restored = codec.decode_batch(zeroed, present)
    assert np.array_equal(restored, stripe)
    assert not codec.syndrome_batch(restored).any()


def test_stripe_chunks_do_not_change_results(monkeypatch, p3_codec):
    params = p3_codec.params
    vectors = random_stripe(p3_codec, seed=13, stripes=7)
    present = np.ones(params.n, dtype=bool)
    present[[1, 4, 5, 10]] = False
    zeroed = np.where(present[:, None, None], vectors, 0)
    # A one-symbol budget forces one stripe per chunk.
    monkeypatch.setattr("msrr.codec._CHUNK_SYMBOLS", 1)
    chunked = Codec(params)
    assert stripes_per_chunk(chunked._plan(list(range(params.k, params.n))).rows) == 1
    assert np.array_equal(chunked.encode_batch(vectors[:params.k]), vectors)
    assert np.array_equal(chunked.decode_batch(zeroed, present), vectors)


def test_codec_refuses_a_field_beyond_the_exact_float64_product():
    p = 2**31 - 1   # prime; n * (p - 1)^2 far exceeds 2^53
    field = FieldCtx(p=p, primitive_root=7, unity_root=p - 1, u=2)
    with pytest.raises(InternalError, match="float64"):
        Codec(P1, field=field)


# -- the float32 and float64 exactness bounds ---------------------------------------

# (limit, margin): a field p is within the bound when n * (p - 1)^2 +
# margin * p < limit.  Codec's float64 precondition, and the bound below which
# every product runs in float32.
FLOAT64_BOUND, FLOAT32_BOUND = (2**53, 0), (2**24, 1)


def _field_at_the_bound(params, bound=FLOAT64_BOUND, above=False):
    """GF(p) for the largest prime p with u | p - 1 within bound, or with
    above=True the smallest such prime beyond it."""
    limit, margin = bound
    p = math.isqrt((limit - 1) // params.n) + 1
    step = 1 if above else -1
    while not ((params.n * (p - 1) ** 2 + margin * p < limit) != above
               and (p - 1) % params.u == 0 and is_prime(p)):
        p += step
    root = find_primitive(p)
    return FieldCtx(p=p, primitive_root=root,
                    unity_root=find_unity_root(p, root, params.u), u=params.u)


EXACTNESS_CODES = {
    "p1": P1, "p2": P2, "p3": P3, "6264": CodeParams.from_total_k(6, 2, 6, 4),
    "83126": CodeParams.from_total_k(8, 3, 12, 6), "degenerate": P1_DEGENERATE}

# Per field: how to pick it, and the float type every program runs in there.
EXACTNESS_FIELDS = {
    "smallest-p": (FieldCtx.for_code, np.float32),
    "largest-p": (_field_at_the_bound, np.float64),
    "float32-largest-p": (lambda params: _field_at_the_bound(params, FLOAT32_BOUND),
                          np.float32),
    "float64-smallest-p": (lambda params: _field_at_the_bound(params, FLOAT32_BOUND, True),
                           np.float64),
}


@pytest.mark.parametrize("at", EXACTNESS_FIELDS.values(), ids=EXACTNESS_FIELDS.keys())
@pytest.mark.parametrize("params", EXACTNESS_CODES.values(), ids=EXACTNESS_CODES.keys())
def test_right_hand_side_is_exact_at_the_largest_magnitudes(params, at):
    field, dtype = at
    codec = Codec(params, field=field(params))
    n, k, r, p = params.n, params.k, params.r, codec.p
    vectors = np.full((n, params.alpha, 2), p - 1, dtype=np.int64)
    # Every node (the syndrome), encode's known nodes, and decode's known
    # nodes with the first r erased.
    for nodes in (range(n), range(k), range(r, n)):
        product = codec.pcm.product(list(nodes))
        got = product(vectors)
        assert product.dtype == got.dtype == dtype, list(nodes)
        got = got % p
        expected = sum(apply_node(codec.pcm, *params.node_pair(i), vectors[i])
                       for i in nodes) % p
        assert np.array_equal(got.reshape(expected.shape), expected), list(nodes)
    stripe = codec.encode_batch(vectors[:k])
    assert not codec.syndrome_batch(stripe).any()
    present = np.arange(n) >= r
    zeroed = np.where(present[:, None, None], stripe, 0)
    assert np.array_equal(codec.decode_batch(zeroed, present), stripe)
    assert (codec._plan(range(k, n)).program.dtype == codec.decode_plan(present).program.dtype
            == dtype)


# The repair cases: each code at the float64 bound under its own name, and at
# float32's largest p and the first p past it.
REPAIR_EXACTNESS = {
    name + ("" if at == "largest-p" else "-" + at): (params, EXACTNESS_FIELDS[at])
    for name, params in EXACTNESS_CODES.items()
    for at in ("largest-p", "float32-largest-p", "float64-smallest-p")}


@pytest.mark.parametrize("params,at", REPAIR_EXACTNESS.values(), ids=REPAIR_EXACTNESS.keys())
def test_repair_is_exact_at_the_largest_prime(params, at):
    # Helper messages, level steps and the survivor peel are exact float
    # products too; at the largest p of each float type, and at the first p
    # past float32's bound, every node still repairs exactly.
    field, dtype = at
    codec = Codec(params, field=field(params))
    vectors = codec.encode_batch(
        np.full((params.k, params.alpha, 2), codec.p - 1, dtype=np.int64))
    for i, (e, g) in enumerate(params.nodes()):
        job = RepairJob.create(params, e, g)
        assert RepairPlan.create(codec, job).program.dtype == dtype, (e, g)
        transcript = repair_from_stripe(codec, vectors, job)
        assert np.array_equal(transcript.recovered, vectors[i]), (e, g)


def test_repair_level_split_is_exact_at_the_largest_prime():
    # n = 8, alpha = 81, and every rack shares residue 0: a level's product
    # has 3 helper, 3 survivor and 2 correction columns for each of the 3
    # other racks, more than n columns, but no row holds more than n nonzero
    # coefficients, so it is not split.
    params = CodeParams.from_total_k(4, 2, 3, 3)
    assert (params.n, params.alpha) == (8, 81)
    codec = Codec(params, field=_field_at_the_bound(params))
    vectors = codec.encode_batch(
        np.full((params.k, params.alpha, 2), codec.p - 1, dtype=np.int64))
    for i, (e, g) in enumerate(params.nodes()):
        job = RepairJob.create(params, e, g)
        plan = RepairPlan.create(codec, job)
        # No row of a range sums more than n terms; a later range is added
        # to a folded sum, one more term.
        for step in plan.program.steps:
            for later, (lo, hi, coef) in enumerate(step.ranges):
                assert np.count_nonzero(coef, axis=1).max() <= params.n - bool(later)
        transcript = repair_from_stripe(codec, vectors, job)
        assert np.array_equal(transcript.recovered, vectors[i]), (e, g)


@pytest.mark.parametrize("racks,per_rack,k,helpers,min_field,p,dtype", [
    (6, 2, 6, 4, 257, 257, np.float32), (8, 3, 12, 6, 257, 271, np.float32),
    (6, 2, 6, 4, 4099, 4099, np.float64)])
def test_the_shard_file_fields_pick_their_float_type(racks, per_rack, k, helpers,
                                                      min_field, p, dtype):
    # The benchmark codes at the file path's default field run in float32;
    # at p = 4099, 12 * 4098^2 > 2^24 and they run in float64.
    params = CodeParams.from_total_k(racks, per_rack, k, helpers)
    codec = Codec(params, min_field=min_field)
    assert codec.p == p and codec.pcm.dtype is dtype
    job = RepairJob.create(params, 1, 1)
    for program in (codec._plan(range(params.k, params.n)).program,
                    codec._plan(list(range(params.r))).program,
                    RepairPlan.create(codec, job).program):
        assert program.dtype == dtype


def _every_step(codec):
    """The steps of the encode plan; of decode plans for the first r nodes,
    the last r and one erasure per rack in turn; of every node's repair plan;
    and of the product of every node."""
    params = codec.params
    n, r, u = params.n, params.r, params.u
    spread = sorted([e * u + g for g in range(u) for e in range(params.n_bar)][:r])
    programs = [codec._plan(list(nodes)).program
                for nodes in (range(params.k, n), range(r), range(n - r, n), spread)]
    programs += [RepairPlan.create(codec, RepairJob.create(params, e, g)).program
                 for e, g in params.nodes()]
    programs.append(codec.pcm.product(range(n)))
    return [step for program in programs for step in program.steps]


@pytest.mark.parametrize("params", EXACTNESS_CODES.values(), ids=EXACTNESS_CODES.keys())
def test_every_product_sums_at_most_n_terms_per_row(params):
    # A product's column ranges cover its columns in order.  No row of the
    # first range holds more nonzero coefficients than the capacity of its
    # float type at p, linalg.capacity; a later range is added to a folded
    # sum, one more term, so it holds one fewer.  The capacity replaced the
    # n-term cut: at the codec's own field it is far above n, and at the
    # largest p of the float64 bound it is n itself.
    for field in (None, _field_at_the_bound(params)):
        codec = Codec(params, field=field)
        terms = linalg.capacity(codec.p, codec.pcm.dtype)
        assert terms > params.n if field is None else terms == params.n
        for step in _every_step(codec):
            edges = [lo for lo, _, _ in step.ranges] + [step.ranges[-1][1]]
            assert edges[0] == 0 and edges[-1] == step.shape[0]
            for later, (lo, hi, coef) in enumerate(step.ranges):
                assert hi > lo == edges[later] and coef.shape[1] == hi - lo
                assert np.count_nonzero(coef, axis=1).max(initial=0) <= terms - bool(later)


@pytest.mark.parametrize("racks,per_rack,k,helpers,p", [(6, 2, 6, 4, 257), (8, 3, 12, 6, 271)])
def test_the_shard_file_codes_solve_in_one_product_per_level(racks, per_rack, k, helpers, p):
    # Each level gathers the known nodes, their digit siblings and the
    # unknowns' solved siblings at its own coordinates, so there is no
    # separate known product and no rack aggregate: encode, and decode of the
    # r data nodes, are one step per level, m + 1 levels, each one range
    # within the capacity.
    params = CodeParams.from_total_k(racks, per_rack, k, helpers)
    codec = Codec(params, min_field=257)
    assert codec.p == p and params.r == params.k
    for plan in (codec._plan(range(params.k, params.n)),
                 codec.decode_plan(np.arange(params.n) >= params.r)):
        steps = plan.program.steps
        assert len(steps) == params.m + 1 == 4
        assert [len(step.ranges) for step in steps] == [1] * 4


def _gathers(plan):
    """Each step of plan's program with its gathered source rows, (K, M)."""
    for step in plan.program.steps:
        index = step.index
        if isinstance(index, slice):
            index = np.arange(index.start, index.stop)
        yield step, np.reshape(index, step.shape)


def _plan_counts(plan):
    """Per stripe: the multiply-adds of the plan's products, the outputs its
    folds reduce, the rows it gathers and how many of those are the zero
    row."""
    madds = folds = gathered = zeros = 0
    for step, index in _gathers(plan):
        for lo, hi, coef in step.ranges:
            madds += coef.shape[0] * (hi - lo) * step.shape[1]
            folds += coef.shape[0] * step.shape[1]
        gathered += index.size
        zeros += int(np.count_nonzero(index == 0))
    return madds, folds, gathered, zeros


# The padded mixed erasure of test_file_chunks_are_cut_by_the_plan on
# (8,3,12,6); on the other codes, one data node and one parity node.
MIXED_ERASURES = {(8, 3, 12, 6): [(0, 1), (2, 2), (5, 0), (7, 2)]}

# (multiply-adds, folded outputs, gathered rows, zero-row entries) per stripe
# of the encode plan and of the decode plan of the first r nodes.
LEVEL_STEP_COUNTS = {(6, 2, 6, 4): (792, 48, 132, 36), (8, 3, 12, 6): (14832, 324, 1236, 480)}


@pytest.mark.parametrize("params", [P1, P2, P3, CodeParams.from_total_k(6, 2, 6, 4),
                                    CodeParams.from_total_k(8, 3, 12, 6)],
                         ids=["p1", "p2", "p3", "6264", "83126"])
def test_each_level_is_one_step_that_gathers_only_rows_with_terms(params):
    # The encode plan and decode plans of the first r, the last r, a spread
    # erasure and a padded mixed erasure are m + 1 level steps of one range.
    # A step gathers the n - r known vectors, then sibling rows, each with a
    # term at some coordinate of its level; every output is folded once.
    codec = Codec(params, min_field=257)
    n, r, u = params.n, params.r, params.u
    code = (params.n_bar, u, params.k, params.d_bar)
    spread = sorted([e * u + g for g in range(u) for e in range(params.n_bar)][:r])
    mixed = [params.node_index(e, g) for e, g in MIXED_ERASURES.get(code, [])] or [1, n - 1]
    present = np.ones(n, dtype=bool)
    present[mixed] = False
    plans = [codec._plan(range(params.k, n)), codec.decode_plan(present)]
    plans += [codec._plan(list(nodes)) for nodes in (range(r), range(n - r, n), spread)]
    assert len(plans[1].unknowns) == r > len(mixed)
    for plan in plans:
        assert len(plan.program.steps) == params.m + 1, plan.unknowns
        for step, index in _gathers(plan):
            assert len(step.ranges) == 1, plan.unknowns
            assert index[:n - r].all() and index[n - r:].any(axis=1).all(), plan.unknowns
        madds, folds, gathered, _ = _plan_counts(plan)
        assert (madds, folds) == (r * gathered, r * params.alpha), plan.unknowns
    if code in LEVEL_STEP_COUNTS:
        assert _plan_counts(plans[0]) == _plan_counts(plans[2]) == LEVEL_STEP_COUNTS[code]


def test_exactness_bound_counts_every_node():
    # Past n * (p - 1)^2 >= 2^53 the codec refuses, even where the level
    # inverse alone, r * (p - 1)^2, would still be exact.
    field = _field_at_the_bound(P1, above=True)
    assert P1.r * (field.p - 1) ** 2 < 2**53
    with pytest.raises(InternalError, match="float64"):
        Codec(P1, field=field)


def test_spread_erasures_are_exact_at_the_largest_prime():
    # With an erasure in every rack, a level's sibling terms outnumber the n
    # that one exact float64 sum may hold, so the level product is split into
    # column ranges that are folded one after another.
    params = EXACTNESS_CODES["83126"]
    codec = Codec(params, field=_field_at_the_bound(params))
    stripe = codec.encode_batch(
        np.full((params.k, params.alpha, 2), codec.p - 1, dtype=np.int64))
    present = np.ones(params.n, dtype=bool)
    present[[0, 3, 6, 9, 12, 15, 18, 21, 1, 4, 7, 10]] = False
    zeroed = np.where(present[:, None, None], stripe, 0)
    assert np.array_equal(codec.decode_batch(zeroed, present), stripe)
    assert any(len(step.ranges) > 1 for step in codec.decode_plan(present).program.steps)


# -- signed residues and work arrays ----------------------------------------------

def _fold_cases():
    cases = [(5, 12), (257, 24)]
    for name in ("6264", "83126"):
        params = EXACTNESS_CODES[name]
        cases.append((_field_at_the_bound(params).p, params.n))
    return cases


@pytest.mark.parametrize("p,n", _fold_cases())
def test_signed_residues_at_their_edges(p, n):
    top = n * (p - 1) ** 2
    multiple = top // p * p
    values = [0, (p - 1) // 2, 2**53 - 1]
    values += [multiple + d for d in (-p, -1, 0, 1, p) if multiple + d < 2**53]
    values += [top, top - 1]
    values += [-v for v in values]
    a = np.array(values, dtype=np.float64)
    assert all(int(x) == v for x, v in zip(a, values))  # every input is exact
    Fold(p)(a, np.empty_like(a))
    for got, value in zip(a, values):
        assert got == int(got) and (int(got) - value) % p == 0, (value, got)
        assert abs(got) <= p // 2 + 2 <= p - 1, (value, got)
    Fold(p).nonnegative(a, np.empty_like(a))
    assert [int(x) for x in a] == [v % p for v in values]


def test_results_never_alias_the_work_arrays():
    params = P3
    codec, rng = Codec(params), np.random.default_rng(22)
    chunk = stripes_per_chunk(codec._plan(list(range(params.k, params.n))).rows)
    widths = (2, chunk - 1, chunk + 5)
    batches = [rng.integers(0, codec.p, size=(params.k, params.alpha, w))
               for w in widths for _ in range(2)]
    encoded = [codec.encode_batch(data) for data in batches]
    for data, stripes in zip(batches, encoded):
        assert np.array_equal(stripes, Codec(params).encode_batch(data))
    patterns = [[1, 4, 5, 10], [0, 6, 7, 9, 10, 11]]
    cases = []
    for i, stripes in enumerate(encoded):
        present = np.ones(params.n, dtype=bool)
        present[patterns[i % 2]] = False
        zeroed = np.where(present[:, None, None], stripes, 0)
        cases.append((zeroed, present, codec.decode_batch(zeroed, present)))
    for (zeroed, present, restored), stripes in zip(cases, encoded):
        assert np.array_equal(restored, stripes)
        assert np.array_equal(restored, Codec(params).decode_batch(zeroed, present))
