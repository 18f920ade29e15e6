"""Acceptance sweep: every promised property at its stated (exact) tolerance.

Each criterion prints one PASS/FAIL line; run with `pytest -s` to see them
inline.  All equality checks are exact (integer arithmetic); the only
tolerances anywhere are wall-clock budgets on the heavyweight sweeps.
"""

import hashlib
import itertools
import json
import math
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from msrr import Codec, CodeParams, RepairJob, build_constants, repair_from_stripe
from msrr.cli import main
from msrr.field import FieldCtx, find_field
from msrr.stripe_io import shard_name

from conftest import P1, P1_DEGENERATE, P2, P3, fresh_message
from oracle import zero_digit_rows

STRIPES_PER_JOB = 20


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


def all_jobs(params):
    for e_star in range(params.n_bar):
        racks = [e for e in range(params.n_bar) if e != e_star]
        for helpers in itertools.combinations(racks, params.d_bar):
            for g_star in range(params.u):
                yield RepairJob.create(params, e_star, g_star, helpers)


@pytest.fixture(scope="module")
def codecs():
    return {"P1": Codec(P1), "P2": Codec(P2), "P3": Codec(P3)}


@pytest.fixture(scope="module")
def repair_sweeps(codecs):
    """Every (node, helper set) of P1/P2/P3 repaired on 20 random stripes."""
    results = {}
    for name, codec in codecs.items():
        params = codec.params
        rng = np.random.default_rng(20)
        stripes = [
            codec.encode_systematic(
                rng.integers(0, codec.p, size=(params.k, params.alpha)))
            for _ in range(STRIPES_PER_JOB)]
        transcripts = []
        mismatches = 0
        for job in all_jobs(params):
            for stripe in stripes:
                transcript = repair_from_stripe(codec, stripe, job)
                transcripts.append(transcript)
                if not np.array_equal(transcript.recovered,
                                      stripe.node(job.e_star, job.g_star)):
                    mismatches += 1
        results[name] = (transcripts, mismatches)
    return results


def test_criterion_1_mds_property(codecs):
    with criterion(1, "MDS: every r-subset concatenation invertible"):
        started = time.monotonic()
        expected = {"P1": 70, "P2": 792, "P3": 924}
        for name, codec in codecs.items():
            report = codec.verify_mds("exhaustive")
            assert report.subsets_checked == expected[name], name
            assert report.failures == [], name
        assert codecs["P3"].params.r * codecs["P3"].params.alpha == 48
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"MDS sweeps took {elapsed:.1f}s"


def test_criterion_2_optimal_repair(repair_sweeps, codecs):
    with criterion(2, "repair recovers every node for every helper set"):
        expected_jobs = {
            name: codec.params.n * math.comb(codec.params.n_bar - 1,
                                             codec.params.d_bar)
            for name, codec in codecs.items()}
        assert expected_jobs == {"P1": 8, "P2": 12, "P3": 60}
        for name, (transcripts, mismatches) in repair_sweeps.items():
            assert mismatches == 0, name
            assert len(transcripts) == expected_jobs[name] * STRIPES_PER_JOB


def test_criterion_3_bandwidth_equality(repair_sweeps, codecs):
    with criterion(3, "every transcript moves exactly d_bar*beta symbols across racks"):
        expected_cross = {"P1": 6, "P2": 6, "P3": 16}
        for name, (transcripts, _) in repair_sweeps.items():
            params = codecs[name].params
            assert params.d_bar * params.beta == expected_cross[name]
            for transcript in transcripts:
                assert transcript.cross_rack_symbols == expected_cross[name]
                assert transcript.intra_rack_symbols == (params.u - 1) * params.alpha
                for msg in transcript.messages.values():
                    assert msg.shape == (params.beta,)

        # Structural access check: symbols outside the selected rows cannot
        # influence a helper message.
        codec = codecs["P3"]
        params = codec.params
        rng = np.random.default_rng(3)
        stripe = codec.encode_systematic(
            rng.integers(0, codec.p, size=(params.k, params.alpha)))
        job = RepairJob.create(params, 0, 0)
        rows = set(zero_digit_rows(params, params.rack_digit(job.e_star)))
        hidden = [a for a in range(params.alpha) if a not in rows]
        for e in job.helpers:
            rack = stripe.rack(e).copy()
            message = fresh_message(codec, rack, e, job)
            rack[:, hidden] = rng.integers(0, codec.p, size=(params.u, len(hidden)))
            assert np.array_equal(message, fresh_message(codec, rack, e, job))


def test_criterion_4_access_level(repair_sweeps, codecs):
    with criterion(4, "helper racks read u*alpha/s_bar symbols each"):
        expected = {"P1": 4, "P2": 6, "P3": 8}
        for name, (transcripts, _) in repair_sweeps.items():
            params = codecs[name].params
            assert params.u * params.alpha // params.s_bar == expected[name]
            for transcript in transcripts:
                assert transcript.accessed_symbols_per_helper_rack == expected[name]


def test_criterion_5_subpacketization_comparison(capsys):
    with criterion(5, "plan prints the sub-packetization comparison"):
        assert main(["plan", "--racks", "6", "--nodes-per-rack", "2",
                     "--k", "6", "--helpers", "4"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["alpha"] == 8
        assert rec["alpha_one_rack_per_digit"] == 64

        assert main(["plan", "--racks", "8", "--nodes-per-rack", "4",
                     "--k", "18", "--helpers", "6"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["repair_stretch"] == 3
        assert rec["digit_positions"] == 4
        assert rec["alpha"] == 81
        assert rec["alpha_one_rack_per_digit"] == 6561


def test_criterion_6_erasure_decode_round_trip(codecs):
    with criterion(6, "decode round-trips every erasure pattern of size <= r"):
        started = time.monotonic()
        codec = codecs["P1"]
        params = codec.params
        rng = np.random.default_rng(6)
        nodes = params.nodes()
        patterns = 0
        for size in range(1, params.r + 1):
            for pattern in itertools.combinations(nodes, size):
                stripe = codec.encode_systematic(
                    rng.integers(0, codec.p, size=(params.k, params.alpha)))
                out = codec.decode_erasures(stripe.erase(pattern), pattern)
                assert np.array_equal(out.vectors, stripe.vectors), pattern
                patterns += 1
        assert patterns == 162
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"decode sweep took {elapsed:.1f}s"


def test_criterion_7_degenerate_single_stretch():
    with criterion(7, "d_bar = k_bar code builds and repairs with beta = alpha = 1"):
        params = P1_DEGENERATE
        codec = Codec(params)
        assert (params.alpha, params.beta) == (1, 1)
        assert codec.constants.extra_points == ()
        report = codec.verify_mds("exhaustive")
        assert report.subsets_checked == 70 and report.ok
        rng = np.random.default_rng(7)
        for trial in range(5):
            stripe = codec.encode_systematic(
                rng.integers(0, codec.p, size=(params.k, params.alpha)))
            for job in all_jobs(params):
                transcript = repair_from_stripe(codec, stripe, job)
                assert transcript.cross_rack_symbols == 2
                assert np.array_equal(
                    transcript.recovered, stripe.node(job.e_star, job.g_star))


def test_criterion_8_field_constraints():
    with criterion(8, "field selection honors divisibility, size, distinctness"):
        assert find_field(2, 8) == 11
        assert find_field(3, 12) == 13
        assert find_field(2, 12) == 13
        assert find_field(2, 8, min_size=257) == 257

        rng = random.Random(8)
        checked = 0
        while checked < 200:
            u = rng.randint(2, 8)
            n_bar = rng.randint(2, 64 // u)
            u0 = rng.randint(0, u - 1)
            k_bar = rng.randint(1, n_bar - 1)
            d_bar = rng.randint(k_bar, n_bar - 1)
            params = CodeParams(n_bar=n_bar, u=u, u0=u0, k_bar=k_bar, d_bar=d_bar)
            constants = build_constants(params, FieldCtx.for_code(params))
            flat = [x for row in constants.locators for x in row]
            assert len(set(flat)) == params.n
            assert len(constants.extra_points) == params.s_bar - 1
            assert len(set(constants.extra_points)) == params.s_bar - 1
            assert 0 not in constants.extra_points
            assert not set(constants.extra_points) & set(constants.rack_points)
            checked += 1


def test_criterion_9_end_to_end_file_flow(tmp_path, capsys):
    with criterion(9, "1 MiB file survives 4 lost shards and a shard repair"):
        started = time.monotonic()
        flags = ["--racks", "4", "--nodes-per-rack", "2", "--k", "4",
                 "--helpers", "3", "--min-field", "257"]
        payload = os.urandom(1 << 20)
        src = tmp_path / "payload.bin"
        src.write_bytes(payload)

        # decode leg
        out = tmp_path / "shards"
        assert main(["encode", *flags, "--input", str(src), "--out", str(out)]) == 0
        for e, g in [(0, 1), (1, 0), (2, 1), (3, 0)]:
            (out / shard_name(e, g)).unlink()
        dest = tmp_path / "restored.bin"
        assert main(["decode", "--in", str(out), "--output", str(dest)]) == 0
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == \
            hashlib.sha256(payload).hexdigest()

        # repair leg
        out2 = tmp_path / "shards2"
        assert main(["encode", *flags, "--input", str(src), "--out", str(out2)]) == 0
        target = out2 / shard_name(0, 0)
        original = target.read_bytes()
        target.unlink()
        assert main(["repair", "--in", str(out2), "--rack", "0", "--node", "0"]) == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert rec["cross_rack_symbols"] == 6
        assert target.read_bytes() == original

        elapsed = time.monotonic() - started
        assert elapsed < 60, f"file flow took {elapsed:.1f}s"
