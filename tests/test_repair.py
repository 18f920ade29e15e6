import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msrr import Codec, CodeParams, RepairJob, helper_message
from msrr.cli import main
from msrr.codec import stripes_per_chunk
from msrr.repair import RepairPlan, _layout, apply_plan

from conftest import (ADMISSIBLE_CODES, P1, P1_DEGENERATE, P2, P3, erase, fresh_message,
                      random_stripe, repair_from_stripe)
from oracle import zero_digit_rows


def reference_aggregate(codec, rack, e, e_star):
    """sum_g locator[e][g]^residue(e_star) * rack[g] mod p, over all alpha rows."""
    params, p = codec.params, codec.p
    res = params.rack_residue(e_star)
    return sum(pow(codec.constants.locators[e][g], res, p) * rack[g]
               for g in range(params.u)) % p


def all_jobs(params):
    for e_star in range(params.n_bar):
        racks = [e for e in range(params.n_bar) if e != e_star]
        for helpers in itertools.combinations(racks, params.d_bar):
            for g_star in range(params.u):
                yield RepairJob.create(params, e_star, g_star, helpers)


def test_job_defaults_to_smallest_helper_racks(p3_codec):
    params = p3_codec.params
    job = RepairJob.create(params, 2, 1)
    assert job.helpers == (0, 1, 3, 4)
    with pytest.raises(ValueError):
        RepairJob.create(params, 2, 1, helpers=[0, 1, 2, 3])  # includes host
    with pytest.raises(ValueError):
        RepairJob.create(params, 2, 1, helpers=[0, 1, 3])  # too few


@pytest.mark.parametrize("e_star, g_star, helpers", [
    (0.5, 0, None), (0, 0.5, None), (True, 0, None), (0, 0, [1.7, 2, 3, 4]),
    (0, 0, [True, 2, 3, 4]), (0, 0, ["1", 2, 3, 4])])
def test_job_refuses_non_integer_racks_and_nodes(e_star, g_star, helpers):
    # The manifest's rule: a plain int, so a float or a bool never passes as
    # the rack or node it rounds or converts to.
    with pytest.raises(ValueError, match="must be integers"):
        RepairJob.create(CodeParams.from_total_k(6, 2, 6, 4), e_star, g_star, helpers)


def test_rack_aggregate_plain_sum_when_residue_zero(p1_codec):
    # Host rack 0 has residue 0, so rack 1's message is its plain node sum.
    params = p1_codec.params
    stripe = random_stripe(p1_codec, seed=0)
    job = RepairJob.create(params, 0, 0)
    rows = zero_digit_rows(params, params.rack_digit(job.e_star))
    rack = stripe[1 * params.u:2 * params.u]
    msg = fresh_message(p1_codec, rack, 1, job)
    assert np.array_equal(msg, rack.sum(axis=0)[rows] % p1_codec.p)


def test_rack_aggregate_zero_rack(p1_codec):
    job = RepairJob.create(p1_codec.params, 0, 0)
    zeros = np.zeros((2, 4), dtype=np.int64)
    assert not fresh_message(p1_codec, zeros, 2, job).any()


def test_helper_message_is_restricted_aggregate(p1_codec):
    params = p1_codec.params
    stripe = random_stripe(p1_codec, seed=2)
    job = RepairJob.create(params, 0, 0)
    rows = zero_digit_rows(params, params.rack_digit(job.e_star))
    assert rows == [0, 2]
    for e in job.helpers:
        rack = stripe[e * params.u:(e + 1) * params.u]
        msg = fresh_message(p1_codec, rack, e, job)
        assert msg.shape == (params.beta,)
        full = reference_aggregate(p1_codec, rack, e, job.e_star)
        assert np.array_equal(msg, full[rows])
        # Host rack 0 has residue 0, so every locator weight is 1.
        assert np.array_equal(msg, rack.sum(axis=0)[rows] % p1_codec.p)


def test_helper_message_uses_locator_weights(p1_codec):
    # Rack 1 serving a host rack with residue 1 weights its two node vectors
    # by their locators 2 and 9.
    params = p1_codec.params
    stripe = random_stripe(p1_codec, seed=1)
    job = RepairJob.create(params, 3, 0)
    rows = zero_digit_rows(params, params.rack_digit(job.e_star))
    msg = fresh_message(p1_codec, stripe[1 * params.u:2 * params.u], 1, job)
    manual = (2 * stripe[params.node_index(1, 0)]
              + 9 * stripe[params.node_index(1, 1)]) % p1_codec.p
    assert np.array_equal(msg, manual[rows])


def test_helper_message_degenerate_code_ships_whole_aggregate(degenerate_codec):
    params = degenerate_codec.params
    stripe = random_stripe(degenerate_codec, seed=3)
    job = RepairJob.create(params, 1, 0)
    e = job.helpers[0]
    rack = stripe[e * params.u:(e + 1) * params.u]
    msg = fresh_message(degenerate_codec, rack, e, job)
    assert msg.shape == (1,)
    assert np.array_equal(msg, reference_aggregate(degenerate_codec, rack, e, 1))


def test_helper_message_rejects_non_helper(p1_codec):
    stripe = random_stripe(p1_codec, seed=4)
    job = RepairJob.create(p1_codec.params, 0, 0)
    with pytest.raises(ValueError, match="not a helper"):
        helper_message(RepairPlan.create(p1_codec, job), stripe[0:p1_codec.params.u, :, None], 0)


@pytest.mark.parametrize("e_star", [0, 2], ids=["place1", "place2"])
def test_helper_message_refuses_a_rack_that_is_not_u_alpha_w(e_star):
    # Host racks 0 and 2 own digits of place value 1 and 2; neither view may
    # take a rack of any other shape.
    params = CodeParams.from_total_k(6, 2, 6, 4)
    codec, job = Codec(params), RepairJob.create(params, e_star, 0)
    plan, e = RepairPlan.create(codec, job), job.helpers[0]
    rack = random_stripe(codec, seed=30, stripes=2)[e * params.u:(e + 1) * params.u]
    for bad in (rack[:, :, 0], rack[:, :, :, None], rack[:, :4], rack[:1]):
        with pytest.raises(ValueError, match=r"rack needs shape \(2, 8, w\)"):
            helper_message(plan, bad, e)
    assert np.array_equal(helper_message(plan, rack, e) % codec.p,
                          fresh_message(codec, rack, e, job))


@pytest.mark.parametrize("codec_fixture", ["p1_codec", "p2_codec", "p3_codec",
                                           "degenerate_codec"])
def test_repair_recovers_every_node_with_every_helper_set(codec_fixture, request):
    codec = request.getfixturevalue(codec_fixture)
    params = codec.params
    stripe = random_stripe(codec, seed=5)
    assert params.repair_symbols() == {
        "cross_rack_symbols": params.d_bar * params.beta,
        "intra_rack_symbols": (params.u - 1) * params.alpha,
        "accessed_symbols_per_helper_rack": params.u * params.beta}
    for job in all_jobs(params):
        transcript = repair_from_stripe(codec, stripe, job)
        assert np.array_equal(
            transcript.recovered, stripe[params.node_index(job.e_star, job.g_star)]), job
        assert transcript.cross_rack_symbols == params.d_bar * params.beta
        for e, msg in transcript.messages.items():
            assert msg.shape == (params.beta,)


def test_side_aggregates_match_ground_truth(p3_codec):
    # Non-helper racks' aggregates fall out of the recursion; they must agree
    # with aggregation computed directly from the true stripe.
    params = p3_codec.params
    stripe = random_stripe(p3_codec, seed=6)
    job = RepairJob.create(params, 0, 1, helpers=[1, 2, 3, 4])  # rack 5 left out
    transcript = repair_from_stripe(p3_codec, stripe, job)
    assert set(transcript.side_aggregates) == {5}
    rows = zero_digit_rows(params, params.rack_digit(job.e_star))
    truth = reference_aggregate(p3_codec, stripe[5 * params.u:6 * params.u], 5, job.e_star)[rows]
    assert np.array_equal(transcript.side_aggregates[5], truth)


def test_repair_of_zero_stripe_is_zero(p2_codec):
    params = p2_codec.params
    zero = p2_codec.encode_batch(np.zeros((params.k, params.alpha), dtype=np.int64))
    job = RepairJob.create(params, 3, 2)
    transcript = repair_from_stripe(p2_codec, zero, job)
    assert not transcript.recovered.any()
    assert all(not m.any() for m in transcript.messages.values())


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10))
def test_repair_is_linear(p1_codec, seed, scale):
    params = p1_codec.params
    rng = np.random.default_rng(seed)
    shape = (params.k, params.alpha)
    x = p1_codec.encode_batch(rng.integers(0, p1_codec.p, size=shape))
    y = p1_codec.encode_batch(rng.integers(0, p1_codec.p, size=shape))
    combined = (scale * x + y) % p1_codec.p
    job = RepairJob.create(params, 1, 0)
    tx = repair_from_stripe(p1_codec, x, job)
    ty = repair_from_stripe(p1_codec, y, job)
    tc = repair_from_stripe(p1_codec, combined, job)
    assert np.array_equal(tc.recovered, (scale * tx.recovered + ty.recovered) % p1_codec.p)


def test_transcript_structure_is_shared_within_a_rack(p3_codec):
    # Every node of a fixed rack repairs through the same block and row
    # selection; only the final unblending step differs.
    # The plans of a rack's nodes share their row view, their source layout
    # and every step's gather shape and output rows.
    params = p3_codec.params
    for e_star in range(params.n_bar):
        plans = [RepairPlan.create(p3_codec, RepairJob.create(params, e_star, g))
                 for g in range(params.u)]
        assert len({plan.view for plan in plans}) == 1
        assert len({(plan.program.output.tobytes(),
                     tuple((s.shape, s.out) for s in plan.program.steps))
                    for plan in plans}) == 1


def test_batched_repair_matches_per_stripe(p2_codec):
    params = p2_codec.params
    w = 7
    vectors = random_stripe(p2_codec, seed=8, stripes=w)
    job = RepairJob.create(params, 2, 1)
    batch = repair_from_stripe(p2_codec, vectors, job)
    assert batch.recovered.shape == (params.alpha, w)
    assert batch.cross_rack_symbols == params.d_bar * params.beta
    target = params.node_index(job.e_star, job.g_star)
    assert np.array_equal(batch.recovered, vectors[target])
    for s in range(w):
        single = repair_from_stripe(p2_codec, vectors[:, :, s], job)
        assert np.array_equal(single.recovered, batch.recovered[:, s])


def test_every_array_call_takes_zero_stripes(p3_codec):
    # A Program binds its take-gathers and its output at width 0 too, so an
    # empty batch repairs, as it encodes and decodes, to an empty result.
    params = p3_codec.params
    vectors, job = random_stripe(p3_codec, seed=32, stripes=0), RepairJob.create(params, 2, 1)
    assert vectors.shape == (params.n, params.alpha, 0)
    assert p3_codec.syndrome_batch(vectors).shape == (params.r * params.alpha, 0)
    assert p3_codec.decode_batch(*erase(params, vectors, [(0, 1), (3, 0)])).shape == vectors.shape
    assert apply_plan(RepairPlan.create(p3_codec, job), vectors).shape == (params.alpha, 0)
    transcript = repair_from_stripe(p3_codec, vectors, job)
    assert transcript.recovered.shape == (params.alpha, 0)
    assert [m.shape for m in transcript.messages.values()] == [(params.beta, 0)] * params.d_bar
    assert transcript.side_aggregates[5].shape == (params.beta, 0)


@pytest.mark.parametrize("stripes", [0, slice(None)], ids=["one", "batch"])
def test_the_message_path_takes_unreduced_symbols(p3_codec, stripes):
    # Vectors shifted by +p and by -p are congruent to the codeword but lie
    # outside [0, p); repair_from_stripe reduces them before the message steps,
    # which, like the survivors' step, take symbols in [0, p) only.
    params, p, u = p3_codec.params, p3_codec.p, p3_codec.params.u
    vectors = random_stripe(p3_codec, seed=27, stripes=3)[:, :, stripes]
    job = RepairJob.create(params, 2, 1)
    reduced = repair_from_stripe(p3_codec, vectors, job)
    assert np.array_equal(reduced.recovered, vectors[params.node_index(2, 1)])
    for shift in (p, -p):
        shifted = vectors + shift
        transcript = repair_from_stripe(p3_codec, shifted, job)
        assert np.array_equal(transcript.recovered, reduced.recovered), shift
        for e in job.helpers:
            assert np.array_equal(transcript.messages[e], reduced.messages[e]), (shift, e)


def test_a_wrong_message_weight_fails_verify_and_repair(capsys, monkeypatch):
    # Helper rack 1's message step weighs its nodes twice over.  verify and
    # repair_from_stripe run the plan's message step, as repair_shard does,
    # so both must miss every node that rack 1 helps repair.
    def doubled(pcm, e_star):
        layout = _layout(pcm, e_star)
        messages = list(layout.messages)
        messages[1] = tuple((lo, hi, 2 * c % pcm.p) for lo, hi, c in messages[1])
        return layout._replace(messages=messages)

    monkeypatch.setattr("msrr.repair._layout", doubled)
    assert main(["verify", "--racks", "6", "--nodes-per-rack", "2", "--k", "6",
                 "--helpers", "4", "--mode", "exhaustive"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    jobs = [rec for rec in records if rec["record"] == "repair_job"]
    assert len(jobs) == 60
    assert [not rec["ok"] for rec in jobs] == [1 in rec["helpers"] for rec in jobs]
    assert records[-1]["repair_failures"] == 40 and records[-1]["mds_failures"] == 0
    params = CodeParams.from_total_k(6, 2, 6, 4)
    codec = Codec(params)
    stripe = random_stripe(codec, seed=28)
    transcript = repair_from_stripe(codec, stripe, RepairJob.create(params, 0, 0, [1, 2, 3, 4]))
    assert not np.array_equal(transcript.recovered, stripe[params.node_index(0, 0)])


def test_repair_on_deeply_recursive_shape():
    # Every rack shares residue 0 here (u - u0 = 1), so the recursion walks
    # five digit levels and leans hard on the cross-level corrections.
    from msrr import Codec, CodeParams

    params = CodeParams(n_bar=5, u=3, u0=2, k_bar=2, d_bar=3)
    assert (params.m, params.alpha, params.beta) == (5, 32, 16)
    codec = Codec(params)
    stripe = random_stripe(codec, seed=11)
    for job in all_jobs(params):
        transcript = repair_from_stripe(codec, stripe, job)
        assert np.array_equal(
            transcript.recovered, stripe[params.node_index(job.e_star, job.g_star)]), job
        assert transcript.cross_rack_symbols == params.d_bar * params.beta


# Every admissible code with n_bar <= 6, u <= 3 and alpha <= 256, including
# u0 > 0 and s_bar = 1; codecs are built once per code.
REPAIR_CODES = [params for params in ADMISSIBLE_CODES if params.alpha <= 256]
CODECS = {}


@st.composite
def repair_cases(draw):
    params = draw(st.sampled_from(REPAIR_CODES))
    e_star = draw(st.integers(0, params.n_bar - 1))
    racks = [e for e in range(params.n_bar) if e != e_star]
    helpers = draw(st.permutations(racks))[:params.d_bar]
    job = RepairJob.create(params, e_star, draw(st.integers(0, params.u - 1)), helpers)
    return params, job, draw(st.sampled_from([1, 3])), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(repair_cases())
@example((P2, RepairJob.create(P2, 3, 2, [0, 1, 2]), 3, 0))            # u0 > 0
@example((P1_DEGENERATE, RepairJob.create(P1_DEGENERATE, 1, 0, [2, 3]), 1, 1))  # s_bar = 1
def test_per_level_repair_on_small_codes(case):
    params, job, width, seed = case
    if params not in CODECS:
        CODECS[params] = Codec(params)
    codec = CODECS[params]
    vectors = random_stripe(codec, seed=seed, stripes=width)
    transcript = repair_from_stripe(codec, vectors, job)
    assert np.array_equal(transcript.recovered,
                          vectors[params.node_index(job.e_star, job.g_star)])
    others = set(range(params.n_bar)) - {job.e_star} - set(job.helpers)
    assert set(transcript.side_aggregates) == others
    rows = zero_digit_rows(params, params.rack_digit(job.e_star))
    for e in others:
        rack = vectors[e * params.u:(e + 1) * params.u]
        truth = reference_aggregate(codec, rack, e, job.e_star)[rows]
        assert np.array_equal(transcript.side_aggregates[e], truth)


# The codes the benchmark grid names, and (4,2,3,3), whose racks all share
# residue 0.
GRID_CODES = [P1, P2, P3, P1_DEGENERATE, CodeParams.from_total_k(8, 3, 12, 6),
              CodeParams.from_total_k(10, 2, 10, 7), CodeParams.from_total_k(4, 2, 3, 3)]


@pytest.mark.parametrize("params", GRID_CODES,
                         ids=["p1", "p2", "p3", "degenerate", "83126", "102107", "4233"])
def test_helper_messages_read_the_zero_digit_rows_on_every_grid_code(params):
    # helper_message selects the zero rows of digit tau as a view, with alpha
    # split as (s_bar^(m-1-tau), s_bar, s_bar^tau); that view must be
    # pcm.zero_rows[tau], in order, for every digit position.
    codec, u = Codec(params), params.u
    vectors = random_stripe(codec, seed=25, stripes=2)
    for e_star in range(params.n_bar):
        job = RepairJob.create(params, e_star, 0)
        rows = codec.pcm.zero_rows[params.rack_digit(job.e_star)]
        for e in job.helpers:
            rack = vectors[e * u:(e + 1) * u]
            assert np.array_equal(fresh_message(codec, rack, e, job),
                                  reference_aggregate(codec, rack, e, e_star)[rows]), (e_star, e)


def _plan_inputs(params, job, vectors):
    """The helper racks' node vectors and the host rack's survivors, (u - 1,
    alpha, w), of encoded vectors (n, alpha, w)."""
    u = params.u
    racks = [vectors[e * u:(e + 1) * u] for e in job.helpers]
    return racks, np.stack([vectors[job.e_star * u + g] for g in range(u) if g != job.g_star])


def _apply(plan, racks, survivors, out=None):
    """One apply of plan as repair_shard runs it: each helper rack's message
    into the plan, then the survivors."""
    for e, rack in zip(plan.job.helpers, racks):
        helper_message(plan, rack, e)
    return plan(survivors, out=out)


@pytest.mark.parametrize("params", [P3, CodeParams.from_total_k(8, 3, 12, 6)],
                         ids=["p3", "83126"])
def test_repair_results_never_alias_the_work_arrays(params):
    codec, rng = Codec(params), np.random.default_rng(23)
    job = RepairJob.create(params, 1, 1)
    chunk = stripes_per_chunk(params.n * params.alpha)
    batches = [codec.encode_batch(rng.integers(0, codec.p, size=(params.k, params.alpha, w)))
               for w in (2, chunk - 1, chunk + 5) for _ in range(2)]
    plan = RepairPlan.create(codec, job)
    results = [_apply(plan, *_plan_inputs(params, job, vectors))
               for vectors in batches]
    target = params.node_index(job.e_star, job.g_star)
    for vectors, result in zip(batches, results):
        assert np.array_equal(result, vectors[target])
        fresh = _apply(RepairPlan.create(codec, job),
                       *_plan_inputs(params, job, vectors))
        assert np.array_equal(result, fresh)


def test_a_plan_apply_at_a_width_already_seen_allocates_no_work_arrays():
    params = CodeParams.from_total_k(6, 2, 6, 4)
    codec, job = Codec(params), RepairJob.create(params, 2, 1)
    width = stripes_per_chunk(params.n * params.alpha)
    racks, survivors = _plan_inputs(params, job, random_stripe(codec, seed=24, stripes=width))
    plan, out = RepairPlan.create(codec, job), np.empty((params.alpha, width), dtype=np.uint16)
    _apply(plan, racks, survivors, out)
    tracemalloc.start()
    try:
        _apply(plan, racks, survivors, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.alpha * width * 8
    assert np.array_equal(out, random_stripe(codec, seed=24, stripes=width)[
        params.node_index(job.e_star, job.g_star)])


def test_a_plan_apply_refuses_unless_every_message_is_at_the_survivors_width():
    params = CodeParams.from_total_k(6, 2, 6, 4)
    codec, job = Codec(params), RepairJob.create(params, 2, 1)
    vectors = random_stripe(codec, seed=29, stripes=3)
    racks, survivors = _plan_inputs(params, job, vectors)
    with pytest.raises(ValueError, match="width 3"):  # a fresh plan
        RepairPlan.create(codec, job)(survivors)
    plan = RepairPlan.create(codec, job)
    helper_message(plan, racks[0], job.helpers[0])
    with pytest.raises(ValueError, match="width 3"):  # one message of four
        plan(survivors)
    for e, rack in zip(job.helpers, racks):
        helper_message(plan, rack, e)
    with pytest.raises(ValueError, match="width 2"):  # messages 3 stripes wide
        plan(survivors[:, :, :2])
    assert np.array_equal(plan(survivors), vectors[params.node_index(2, 1)])


def test_a_plan_apply_refuses_survivors_that_are_not_u_minus_one_alpha_w():
    # Messages written 8 stripes wide: a 2-D (u - 1, alpha) survivors array
    # would otherwise be read as u - 1 rows 8 stripes wide.
    params = CodeParams.from_total_k(6, 2, 6, 4)
    codec, job = Codec(params), RepairJob.create(params, 2, 1)
    vectors = random_stripe(codec, seed=31, stripes=params.alpha)
    racks, survivors = _plan_inputs(params, job, vectors)
    plan = RepairPlan.create(codec, job)
    for e, rack in zip(job.helpers, racks):
        helper_message(plan, rack, e)
    for bad in (survivors[:, :, 0], survivors[:, :, :, None], survivors[:, :4],
                np.concatenate([survivors, survivors])):
        with pytest.raises(ValueError, match=r"survivors need shape \(1, 8, w\)"):
            plan(bad)
    assert np.array_equal(plan(survivors), vectors[params.node_index(2, 1)])
