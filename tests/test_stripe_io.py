import collections
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrr import Codec, CodeParams, linalg, stripe_io
from msrr.codec import _CHUNK_SYMBOLS
from msrr.errors import ParameterError, RepairRefusedError, ShardFormatError, SymbolMappingError
from msrr.repair import RepairJob, RepairPlan
from msrr.stripe_io import (
    Manifest,
    bytes_to_symbols,
    decode_file,
    encode_file,
    read_manifest,
    repair_shard,
    shard_name,
    symbol_width_bytes,
    write_one_shard,
)

from oracle import read_shards, symbols_to_bytes

PARAMS = CodeParams.from_total_k(4, 2, 4, 3)


@pytest.fixture(scope="module")
def byte_codec():
    return Codec(PARAMS, min_field=257)


def test_symbol_width():
    assert symbol_width_bytes(11) == 1
    assert symbol_width_bytes(257) == 2
    assert symbol_width_bytes(65521) == 2


def test_bytes_to_symbols_stripe_counts(byte_codec):
    per_stripe = PARAMS.k * PARAMS.alpha
    assert bytes_to_symbols(b"", byte_codec).shape == (PARAMS.k, PARAMS.alpha, 0)
    exact = bytes_to_symbols(bytes(range(per_stripe)), byte_codec)
    assert exact.shape[2] == 1
    padded = bytes_to_symbols(bytes(per_stripe + 1), byte_codec)
    assert padded.shape[2] == 2


def test_bytes_round_trip(byte_codec):
    payload = bytes(range(256)) * 3 + b"tail"
    data = bytes_to_symbols(payload, byte_codec)
    assert symbols_to_bytes(data, len(payload)) == payload


@settings(deadline=None, max_examples=30)
@given(st.binary(min_size=0, max_size=200))
def test_bytes_round_trip_random(byte_codec, payload):
    data = bytes_to_symbols(payload, byte_codec)
    assert symbols_to_bytes(data, len(payload)) == payload


def test_small_fields_refuse_byte_payloads():
    codec = Codec(PARAMS)  # p = 11
    with pytest.raises(SymbolMappingError, match="min-field"):
        bytes_to_symbols(b"hi", codec)


def _encode_tmp(tmp_path, payload, name="in.bin"):
    src = tmp_path / name
    src.write_bytes(payload)
    out = tmp_path / "shards"
    manifest = encode_file(src, out, PARAMS)
    return src, out, manifest


def test_encode_writes_manifest_and_shards(tmp_path):
    payload = os.urandom(1000)
    _, out, manifest = _encode_tmp(tmp_path, payload)
    assert manifest.stripe_count == (1000 + 15) // 16
    assert manifest.p == 257
    assert manifest.checksum_sha256 == hashlib.sha256(payload).hexdigest()
    names = sorted(f.name for f in out.iterdir())
    assert "manifest.json" in names
    assert sum(name.endswith(".shard") for name in names) == PARAMS.n
    shard = (out / shard_name(0, 0)).read_bytes()
    assert len(shard) == manifest.stripe_count * PARAMS.alpha * 2


def test_manifest_round_trips(tmp_path):
    _, out, manifest = _encode_tmp(tmp_path, b"roundtrip")
    assert Manifest.from_json(manifest.to_json()) == manifest
    assert read_manifest(out) == manifest


def test_write_read_shards_identity(tmp_path):
    payload = os.urandom(512)
    _, out, manifest = _encode_tmp(tmp_path, payload)
    _, vectors, present = read_shards(out)
    assert present.all()
    copy = tmp_path / "copy"
    copy.mkdir()
    (copy / "manifest.json").write_text(manifest.to_json())
    for i, (e, g) in enumerate(PARAMS.nodes()):
        write_one_shard(copy, manifest, e, g, vectors[i])
    _, again, _ = read_shards(copy)
    assert np.array_equal(vectors, again)


def test_decode_with_missing_shards(tmp_path):
    payload = os.urandom(3000)
    src, out, _ = _encode_tmp(tmp_path, payload)
    for e, g in [(0, 0), (1, 1), (2, 0), (3, 1)]:
        (out / shard_name(e, g)).unlink()
    dest = tmp_path / "restored.bin"
    _, length, missing = decode_file(out, dest)
    assert length == len(payload)
    assert sorted(missing) == [(0, 0), (1, 1), (2, 0), (3, 1)]
    assert dest.read_bytes() == payload


def test_decode_refuses_too_many_missing(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, b"x" * 100)
    for e, g in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]:
        (out / shard_name(e, g)).unlink()
    with pytest.raises(ShardFormatError, match="missing"):
        decode_file(out, "unused.bin")


def test_empty_file_round_trip(tmp_path):
    _, out, manifest = _encode_tmp(tmp_path, b"")
    assert manifest.stripe_count == 0
    dest = tmp_path / "empty.out"
    _, length, _ = decode_file(out, dest)
    assert length == 0
    assert dest.read_bytes() == b""


def _streaming_readers(out, tmp_path):
    """Both library readers of a shard directory: a repair of node (1, 0),
    which reads every shard of its helper racks 0, 2 and 3, and a decode."""
    return [lambda: repair_shard(out, 1, 0, force=True),
            lambda: decode_file(out, tmp_path / "restored.bin")]


def test_shard_value_out_of_range_names_file_and_offset(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, bytes(64))
    path = out / shard_name(2, 1)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (400).to_bytes(2, "little")  # symbol 400 >= p=257 at offset 4
    path.write_bytes(bytes(blob))
    for read in _streaming_readers(out, tmp_path):
        with pytest.raises(ShardFormatError) as err:
            read()
        assert "node_2_1.shard" in str(err.value)
        assert "offset 4" in str(err.value)


def test_shard_wrong_length_rejected(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, bytes(64))
    path = out / shard_name(0, 1)
    path.write_bytes(path.read_bytes()[:-1])
    for read in _streaming_readers(out, tmp_path):
        with pytest.raises(ShardFormatError, match="bytes"):
            read()


def test_decode_and_repair_stat_each_shard_once(tmp_path, monkeypatch):
    # One os.stat per shard tells a job both whether the shard is present
    # and whether its size is right.
    _, out, _ = _encode_tmp(tmp_path, os.urandom(3000))
    (out / shard_name(1, 0)).unlink()
    stats, stat = collections.Counter(), os.stat

    def counted(path, *args, **kwargs):
        stats[os.fspath(path)] += 1
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counted)
    shards = {os.fspath(out / shard_name(e, g)) for e, g in PARAMS.nodes()}
    for job in (lambda: decode_file(out, tmp_path / "restored.bin"),
                lambda: repair_shard(out, 1, 0)):
        stats.clear()
        job()
        assert {path: stats[path] for path in shards} == dict.fromkeys(shards, 1)


def test_manifest_validation_rejects_tampering(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, bytes(64))
    manifest_path = out / "manifest.json"
    payload = json.loads(manifest_path.read_text())
    payload["format_version"] = 9
    with pytest.raises(ShardFormatError, match="format_version"):
        Manifest.from_json(json.dumps(payload))
    payload["format_version"] = 1
    payload["primitive_root"] = 5
    with pytest.raises(ShardFormatError, match="primitive_root"):
        Manifest.from_json(json.dumps(payload))


def test_manifest_names_an_unknown_or_a_missing_key(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, bytes(64))
    payload = json.loads((out / "manifest.json").read_text())
    with pytest.raises(ShardFormatError, match="^manifest has unknown fields: extra_field$"):
        Manifest.from_json(json.dumps({**payload, "extra_field": 1}))
    del payload["stripe_count"]
    with pytest.raises(ShardFormatError, match="^manifest misses required fields: stripe_count$"):
        Manifest.from_json(json.dumps(payload))
    with pytest.raises(ShardFormatError, match="not a JSON object"):
        Manifest.from_json("[]")


@pytest.mark.parametrize("checksum", [5, None, "abc", "0" * 63, "A" * 64, "0" * 64 + "\n"])
def test_decode_refuses_a_malformed_checksum_before_reading_a_shard(tmp_path, monkeypatch,
                                                                     checksum):
    _, out, _ = _encode_tmp(tmp_path, os.urandom(3000))
    manifest_path = out / "manifest.json"
    good = manifest_path.read_text()
    manifest_path.write_text(json.dumps({**json.loads(good), "checksum_sha256": checksum}))
    reads, preadv = [], os.preadv
    monkeypatch.setattr(stripe_io.os, "preadv", lambda *args: reads.append(args) or preadv(*args))
    with pytest.raises(ShardFormatError, match="checksum_sha256 must be 64 lowercase hex"):
        decode_file(out, tmp_path / "x.bin")
    assert reads == []
    assert not (tmp_path / "x.bin").exists()
    # The count sees reads: the well-formed manifest decodes through preadv.
    manifest_path.write_text(good)
    decode_file(out, tmp_path / "x.bin")
    assert reads


def test_decode_detects_checksum_mismatch(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, bytes(64))
    manifest_path = out / "manifest.json"
    payload = json.loads(manifest_path.read_text())
    payload["checksum_sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(payload))
    with pytest.raises(ShardFormatError, match="checksum"):
        decode_file(out, tmp_path / "x.bin")


def test_decode_refuses_a_manifest_prime_beyond_the_field_limit(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, bytes(64))
    manifest_path = out / "manifest.json"
    payload = json.loads(manifest_path.read_text())
    # Trial division would run about 2^45 steps to find the factor 2^31 - 1.
    payload["p"] = (2**31 - 1) * (2**61 - 1)
    manifest_path.write_text(json.dumps(payload))
    with pytest.raises(ParameterError) as err:
        decode_file(out, tmp_path / "x.bin")
    assert err.value.code == "field_too_large"


def test_repair_shard_round_trip(tmp_path):
    payload = os.urandom(2048)
    _, out, _ = _encode_tmp(tmp_path, payload)
    target = out / shard_name(1, 0)
    original = target.read_bytes()
    target.unlink()
    manifest, transcript, path = repair_shard(out, 1, 0)
    assert path == target
    assert target.read_bytes() == original
    assert transcript.cross_rack_symbols == PARAMS.d_bar * PARAMS.beta
    assert transcript.stripe_count == manifest.stripe_count
    # The directory decodes cleanly afterwards.
    _, _, missing = decode_file(out, tmp_path / "post.bin")
    assert missing == []


def test_repair_shard_preconditions(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, os.urandom(256))
    with pytest.raises(RepairRefusedError, match="present"):
        repair_shard(out, 0, 0)
    # force rewrites in place even when present
    before = (out / shard_name(0, 0)).read_bytes()
    repair_shard(out, 0, 0, force=True)
    assert (out / shard_name(0, 0)).read_bytes() == before
    # a second missing shard downgrades repair to decode territory
    (out / shard_name(0, 0)).unlink()
    (out / shard_name(2, 1)).unlink()
    with pytest.raises(RepairRefusedError, match="other shards missing"):
        repair_shard(out, 0, 0)


def test_repair_shard_with_explicit_helpers(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, os.urandom(128))
    target = out / shard_name(3, 1)
    original = target.read_bytes()
    target.unlink()
    _, transcript, _ = repair_shard(out, 3, 1, helpers=[0, 1, 2])
    assert transcript.job.helpers == (0, 1, 2)
    assert target.read_bytes() == original


def test_small_field_encode_fails_before_any_shard_exists(tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(b"hello")
    out = tmp_path / "shards"
    with pytest.raises(SymbolMappingError, match="min-field"):
        encode_file(src, out, PARAMS, min_field=0)  # p = 11
    assert not out.exists()


def test_decode_checksum_mismatch_leaves_no_file(tmp_path):
    _, out, _ = _encode_tmp(tmp_path, os.urandom(3000))
    manifest_path = out / "manifest.json"
    payload = json.loads(manifest_path.read_text())
    payload["checksum_sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(payload))
    dest_dir = tmp_path / "restored"
    dest_dir.mkdir()
    kept = dest_dir / "kept.bin"
    kept.write_bytes(b"earlier contents")
    for dest in (kept, dest_dir / "fresh.bin"):
        with pytest.raises(ShardFormatError, match="checksum"):
            decode_file(out, dest)
        assert [path.name for path in dest_dir.iterdir()] == ["kept.bin"]
        assert kept.read_bytes() == b"earlier contents"


def _chunk_stripes(params):
    return _CHUNK_SYMBOLS // (params.n * params.alpha)


def test_decode_names_a_bad_symbol_past_the_first_chunk(tmp_path):
    per_chunk = _chunk_stripes(PARAMS) * PARAMS.k * PARAMS.alpha
    _, out, _ = _encode_tmp(tmp_path, os.urandom(2 * per_chunk + 100))
    (out / shard_name(0, 0)).unlink()
    path = out / shard_name(2, 1)
    offset = (_chunk_stripes(PARAMS) * PARAMS.alpha + 3) * 2  # chunk two, symbol 3
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 2] = (400).to_bytes(2, "little")  # 400 >= p=257
    path.write_bytes(bytes(blob))
    with pytest.raises(ShardFormatError) as err:
        decode_file(out, tmp_path / "restored.bin")
    assert "node_2_1.shard" in str(err.value)
    assert f"at offset {offset}" in str(err.value)
    assert not (tmp_path / "restored.bin").exists()


def test_a_shard_that_shrinks_mid_read_is_named_with_its_offset(tmp_path, monkeypatch):
    # Shard sizes are checked before the first chunk; a shard that is cut
    # short after that check is refused where its bytes end.
    monkeypatch.setattr(stripe_io, "_check_sizes", lambda paths, expected: None)
    per_chunk = _chunk_stripes(PARAMS) * PARAMS.k * PARAMS.alpha
    _, out, _ = _encode_tmp(tmp_path, os.urandom(2 * per_chunk + 100))
    end = _chunk_stripes(PARAMS) * PARAMS.alpha * 2 + 6  # six bytes into chunk two
    (out / shard_name(1, 0)).unlink()
    restored = tmp_path / "restored.bin"
    # Repair of node (1, 0) reads helper rack 2; decode reads data shard (0, 0).
    for shrunk, read in [(shard_name(2, 1), lambda: repair_shard(out, 1, 0)),
                         (shard_name(0, 0), lambda: decode_file(out, restored))]:
        names = sorted(path.name for path in tmp_path.rglob("*"))
        original = (out / shrunk).read_bytes()
        (out / shrunk).write_bytes(original[:end])
        with pytest.raises(ShardFormatError, match=f"^{shrunk}: ends early at offset {end}$"):
            read()
        (out / shrunk).write_bytes(original)
        assert sorted(path.name for path in tmp_path.rglob("*")) == names


CHUNK_CODES = [PARAMS, CodeParams.from_total_k(6, 2, 6, 4)]


def _chunk_lengths(params, stripes_per_chunk):
    per_chunk = stripes_per_chunk * params.k * params.alpha
    return [0, 1, per_chunk - 1, per_chunk, per_chunk + 1, 3 * per_chunk + 17]


@pytest.mark.parametrize("params", CHUNK_CODES, ids=["p1", "6264"])
def test_chunk_boundaries_match_one_shot_encode(tmp_path, params):
    codec = Codec(params, min_field=257)
    per_stripe = params.k * params.alpha
    for case, length in enumerate(_chunk_lengths(params, _chunk_stripes(params))):
        payload = np.random.default_rng(case).integers(
            0, 256, size=length, dtype=np.uint8).tobytes()
        src, out = tmp_path / f"in{case}.bin", tmp_path / f"shards{case}"
        src.write_bytes(payload)
        manifest = encode_file(src, out, params)
        stripes = -(-length // per_stripe)
        assert manifest.stripe_count == stripes
        padded = np.zeros(stripes * per_stripe, dtype=np.int64)
        padded[:length] = np.frombuffer(payload, dtype=np.uint8)
        whole = codec.encode_batch(
            padded.reshape(stripes, params.k, params.alpha).transpose(1, 2, 0))
        for i, (e, g) in enumerate(params.nodes()):
            assert (out / shard_name(e, g)).read_bytes() == \
                whole[i].T.astype("<u2").tobytes(), (length, e, g)
        # The first r shards include every data shard on both codes.
        for e, g in params.nodes()[:params.r]:
            (out / shard_name(e, g)).unlink()
        dest = tmp_path / f"out{case}.bin"
        _, restored, _ = decode_file(out, dest)
        assert restored == length
        assert dest.read_bytes() == payload, length


@pytest.mark.parametrize("params", CHUNK_CODES, ids=["p1", "6264"])
def test_chunk_boundaries_repair_every_node(tmp_path, monkeypatch, params):
    # Five stripes per chunk, so that every length below crosses its chunk
    # boundaries within a few hundred bytes; length 0 is the empty payload.
    monkeypatch.setattr(stripe_io, "_CHUNK_SYMBOLS", 5 * params.n * params.alpha)
    for case, length in enumerate(_chunk_lengths(params, 5)):
        payload = np.random.default_rng(case).integers(
            0, 256, size=length, dtype=np.uint8).tobytes()
        src, out = tmp_path / f"in{case}.bin", tmp_path / f"shards{case}"
        src.write_bytes(payload)
        manifest = encode_file(src, out, params)
        for e, g in params.nodes():
            path = out / shard_name(e, g)
            original = path.read_bytes()
            path.unlink()
            _, transcript, _ = repair_shard(out, e, g)
            assert path.read_bytes() == original, (length, e, g)
            assert transcript.stripe_count == manifest.stripe_count
            assert transcript.cross_rack_symbols == params.d_bar * params.beta


def _plan_rows(params, e=0, g=0):
    """RepairPlan.rows of node (e, g) with the default helpers."""
    return RepairPlan.create(Codec(params, min_field=257), RepairJob.create(params, e, g)).rows


@pytest.mark.parametrize("params", CHUNK_CODES, ids=["p1", "6264"])
def test_repair_chunks_are_sized_by_the_plan(tmp_path, monkeypatch, params):
    # Five stripes per repair chunk, against one or two per codeword chunk.
    rows = {node: _plan_rows(params, *node) for node in params.nodes()}
    monkeypatch.setattr(stripe_io, "_CHUNK_SYMBOLS", 5 * rows[0, 0])
    chunk = stripe_io._stripes_per_chunk(params, rows[0, 0])
    assert chunk == 5 and stripe_io._stripes_per_chunk(params) < 3
    calls, message = [], stripe_io.helper_message

    def counted(*args, **kwargs):
        calls.append(args[2])
        return message(*args, **kwargs)

    monkeypatch.setattr(stripe_io, "helper_message", counted)
    per_stripe = params.k * params.alpha
    lengths = [s * per_stripe for s in (chunk - 1, chunk, chunk + 1)] + [3 * chunk * per_stripe + 17]
    for case, length in enumerate(lengths):
        payload = np.random.default_rng(case).integers(
            0, 256, size=length, dtype=np.uint8).tobytes()
        src, out = tmp_path / f"in{case}.bin", tmp_path / f"shards{case}"
        src.write_bytes(payload)
        manifest = encode_file(src, out, params)
        for e, g in params.nodes():
            path = out / shard_name(e, g)
            original = path.read_bytes()
            path.unlink()
            calls.clear()
            repair_shard(out, e, g)
            assert path.read_bytes() == original, (length, e, g)
            chunks = -(-manifest.stripe_count // stripe_io._stripes_per_chunk(params, rows[e, g]))
            assert len(calls) == params.d_bar * chunks, (length, e, g)


def _counting_shard_opens(monkeypatch):
    """A Counter of os.open calls per shard file name, while monkeypatch holds."""
    opens, original = collections.Counter(), os.open

    def counted(path, *args, **kwargs):
        if Path(path).suffix == ".shard":
            opens[Path(path).name] += 1
        return original(path, *args, **kwargs)

    monkeypatch.setattr(stripe_io.os, "open", counted)
    return opens


def test_each_shard_is_opened_once_per_job(tmp_path, monkeypatch):
    # 15 stripes: three repair chunks of 5 stripes, eight decode chunks of 2.
    monkeypatch.setattr(stripe_io, "_CHUNK_SYMBOLS", 5 * _plan_rows(PARAMS, 1, 0))
    assert stripe_io._stripes_per_chunk(PARAMS) == 2
    opens = _counting_shard_opens(monkeypatch)
    names = [shard_name(e, g) for e, g in PARAMS.nodes()]
    _, out, _ = _encode_tmp(tmp_path, os.urandom(15 * PARAMS.k * PARAMS.alpha))
    assert opens == collections.Counter(names)
    # Repair of (1, 0) reads helper racks 0, 2 and 3 and survivor (1, 1).
    read = collections.Counter(name for name in names if name != shard_name(1, 0))
    original = (out / shard_name(1, 0)).read_bytes()
    (out / shard_name(1, 0)).unlink()
    opens.clear()
    repair_shard(out, 1, 0)
    assert opens == read
    assert (out / shard_name(1, 0)).read_bytes() == original
    (out / shard_name(1, 0)).unlink()
    opens.clear()
    decode_file(out, tmp_path / "restored.bin")
    assert opens == read
    assert (tmp_path / "restored.bin").read_bytes() == (tmp_path / "in.bin").read_bytes()


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_descriptor_leaks_on_success_or_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(stripe_io, "_CHUNK_SYMBOLS", 5 * _plan_rows(PARAMS, 1, 0))  # repair 5, decode 2
    monkeypatch.setattr(stripe_io, "_check_sizes", lambda paths, expected: None)
    before = _open_descriptors()
    _, out, _ = _encode_tmp(tmp_path, os.urandom(15 * PARAMS.k * PARAMS.alpha))
    assert _open_descriptors() == before
    (out / shard_name(1, 0)).unlink()
    repair_shard(out, 1, 0)
    assert _open_descriptors() == before
    (out / shard_name(1, 0)).unlink()
    decode_file(out, tmp_path / "restored.bin")
    assert _open_descriptors() == before
    names = sorted(path.name for path in tmp_path.rglob("*"))
    # Symbol 400 (>= p=257) in helper rack 2, stripe 6: the second repair chunk.
    path = out / shard_name(2, 1)
    offset = (6 * PARAMS.alpha + 3) * 2
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 2] = (400).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ShardFormatError, match=f"node_2_1.shard: symbol 400 >= p=257 at offset {offset}"):
        repair_shard(out, 1, 0)
    assert _open_descriptors() == before
    assert sorted(path.name for path in tmp_path.rglob("*")) == names
    # Data shard (0, 0) cut six bytes into stripe 3: the second decode chunk.
    path = out / shard_name(0, 0)
    end = 3 * PARAMS.alpha * 2 + 6
    path.write_bytes(path.read_bytes()[:end])
    with pytest.raises(ShardFormatError, match=f"node_0_0.shard: ends early at offset {end}"):
        decode_file(out, tmp_path / "restored.bin")
    assert _open_descriptors() == before
    assert sorted(path.name for path in tmp_path.rglob("*")) == names


def test_chunked_decode_plans_once(tmp_path, monkeypatch):
    per_chunk = _chunk_stripes(PARAMS) * PARAMS.k * PARAMS.alpha
    _, out, _ = _encode_tmp(tmp_path, os.urandom(3 * per_chunk + 1))
    for e, g in [(0, 1), (3, 0)]:
        (out / shard_name(e, g)).unlink()
    plans, programs, original, fresh = [], [], Codec._tables, linalg.Program.fresh

    def counted(self, unknowns):
        plans.append(unknowns)
        return original(self, unknowns)

    monkeypatch.setattr(Codec, "_tables", counted)
    monkeypatch.setattr(linalg.Program, "fresh", lambda self: programs.append(self) or fresh(self))
    for _ in range(2):
        decode_file(out, tmp_path / "restored.bin")
    # Missing nodes 1 and 6, padded with the smallest present nodes 0 and 2:
    # one plan's tables, and one Program over them per decode.
    assert plans == [(0, 1, 2, 6)] and len(programs) == 2


# Encodes an 80-shard code under a 64-file limit, then repairs node (0, 0) or
# decodes with rack 0's 20 shards deleted.
OPEN_FILE_LIMIT_SCRIPT = """
import os, resource, shutil, sys
from msrr import CodeParams
from msrr.stripe_io import decode_file, encode_file, repair_shard, shard_name
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
work, op = sys.argv[1:]
shards = os.path.join(work, "shards")
params = CodeParams.from_total_k(4, 20, 60, 3)
encode_file(os.path.join(work, "in.bin"), shards, params)
if op == "repair":
    shutil.move(os.path.join(shards, shard_name(0, 0)), os.path.join(work, "original.shard"))
    repair_shard(shards, 0, 0)
else:
    for g in range(params.u):
        os.unlink(os.path.join(shards, shard_name(0, g)))
    decode_file(shards, os.path.join(work, "out.bin"))
"""


def _run_under_the_open_file_limit(work, op):
    # The file path keeps at most half the soft open-file limit of shards
    # open, so n is not bounded by the process's open-file limit.
    (work / "in.bin").write_bytes(bytes(range(256)) * 40)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", OPEN_FILE_LIMIT_SCRIPT, str(work), op],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_shard_count_beyond_the_open_file_limit(tmp_path):
    _run_under_the_open_file_limit(tmp_path, "decode")
    assert (tmp_path / "out.bin").read_bytes() == (tmp_path / "in.bin").read_bytes()


def test_repair_beyond_the_open_file_limit(tmp_path):
    _run_under_the_open_file_limit(tmp_path, "repair")
    assert (tmp_path / "shards" / shard_name(0, 0)).read_bytes() == \
        (tmp_path / "original.shard").read_bytes()


# Decodes the 80-shard code with rack 0's 20 shards deleted, under a 64-file
# limit, in chunks of 16 stripes, and prints how many shards it opened.
OPEN_COUNT_SCRIPT = """
import os, resource, sys
from msrr import CodeParams, stripe_io
from msrr.stripe_io import decode_file, encode_file, shard_name
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
work = sys.argv[1]
shards = os.path.join(work, "shards")
params = CodeParams.from_total_k(4, 20, 60, 3)
stripe_io._CHUNK_SYMBOLS = 16 * params.n * params.alpha
encode_file(os.path.join(work, "in.bin"), shards, params)
for g in range(params.u):
    os.unlink(os.path.join(shards, shard_name(0, g)))
opens, original = [], os.open
def counted(path, *args, **kwargs):
    opens.append(os.fspath(path))
    return original(path, *args, **kwargs)
os.open = counted
decode_file(shards, os.path.join(work, "out.bin"))
print(sum(path.endswith(".shard") for path in opens))
"""


def test_past_the_open_file_limit_only_the_shards_beyond_the_cap_reopen(tmp_path):
    # The first cap - 1 shards a chunk reads stay open; the other read - cap
    # + 1 take turns in the last slot, one open each per chunk.
    payload = bytes(range(256)) * 40
    (tmp_path / "in.bin").write_bytes(payload)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", OPEN_COUNT_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out.bin").read_bytes() == payload
    stripes = -(-len(payload) // 60)  # k * alpha = 60 symbols per stripe
    cap, read, chunks = 64 // 2, 60, -(-stripes // 16)
    assert chunks == 11
    assert int(done.stdout) <= cap - 1 + (read - cap + 1) * chunks


# sha256 of every file encode_file writes for a seeded 20 KiB payload, captured
# before the codec followed the level order of the construction; shard bytes
# on disk must never change.
GOLDEN_PAYLOAD_SEED = 20240
GOLDEN_PAYLOAD_SHA256 = (
    "6b77b2c4a3c736a521da7b8132b5e4fc1377e9a343f4a69865f3641a5ec54975")
GOLDEN_FILES = {
    (4, 2, 4, 3): {
        "manifest.json":
            "2acdd3ad766a8a86250da2ddf964a4b412c915e33db90e84da79b63458cab648",
        "node_0_0.shard":
            "7610efff9926eed485bf76f28d00ef1487830df609c78140684a167e817bd7ff",
        "node_0_1.shard":
            "2f177837de2bb2d0a0d4d3af0c91b2c42475300ef372d28ebdd4c6ce9e0e76a5",
        "node_1_0.shard":
            "7547b8ab7464b3f4f3c1ad5de7dbe83ac15bee41a717e34151ae9776ef6f77d2",
        "node_1_1.shard":
            "ae5cf3af03571d3ef0307ce7a27ad90f8b057b0bb70503d892b26f4d157a0769",
        "node_2_0.shard":
            "eec0feeb80799d0c8d5b51f26cbdeb39a14b7e7bad129b030632817527c232e7",
        "node_2_1.shard":
            "257ba324d9e90740d110e6080c7644c7610b72a7b918cb45ee84a6f1dfe47e5c",
        "node_3_0.shard":
            "f7f8f3abc1c4a68f21c1d4099ee2841eb3e774abe7010ba6ef4c2a4f4737618c",
        "node_3_1.shard":
            "ec7e6739797130af4b2362d19a2a17cd6bd4ca8d3eb68be2230162f817712c80",
    },
    (6, 2, 6, 4): {
        "manifest.json":
            "a4421985cbb9063e802ca75ea3b8fbde7c09f84f14e849a4f0562bbccd46700f",
        "node_0_0.shard":
            "a94911d405928463065999025419c1379665f410b3d21b2c926bbe3c0804a5b8",
        "node_0_1.shard":
            "e8c094a4aa827f820481a937bc98ffd72c7ba06a16d4fdefcf484d2061e09a4c",
        "node_1_0.shard":
            "7bd86343a3e00c64bb1b035963a5fb8c348f55305a4240503e830235fde9f40e",
        "node_1_1.shard":
            "f1e67fce4463281d75c36db3e5b9cd9711df1d4e8c61766e309c67f2e9e9debb",
        "node_2_0.shard":
            "3791e3c854dfbb01fef524dc571c36ef06f3742a0411482eb1ffd5531861009d",
        "node_2_1.shard":
            "21b4c13d7672dac97e13f6094a2c8c6aee29c7ccbec177a26b5c4b9a90315fd1",
        "node_3_0.shard":
            "bd7a92572ac4527aafc303f1753c71ad3202ffd11e022811855ba8cb5bffbf1c",
        "node_3_1.shard":
            "16992d35b0c09ae4372f0534016be4c99fa01875212247631e49e98e9a7b871f",
        "node_4_0.shard":
            "01e761c7029ab54ac73255b39ab09f3f90756ef4b670ec1cdb00767851ad7059",
        "node_4_1.shard":
            "1a63f951dbd78a9f3832fb433a093cce79a00284dc023ddfc446346735db8a34",
        "node_5_0.shard":
            "747d28cd7c8a5a1d7aeb89016126daab4b186445c1303daa4145002fbac96dbc",
        "node_5_1.shard":
            "a01968eccf75c159e0a6efa69967a7d152e498995bcd91a6e88c8926a70e20de",
    },
    (8, 3, 12, 6): {
        "manifest.json":
            "cf22269cf480ae8599c586a0f75d0333b880afabe86e27e505f59e8e28f4fccc",
        "node_0_0.shard":
            "c2d17f3a170b9f9aaac4a8a225ad4efdb3e44ad9ce80512275eb69ce8fed7f06",
        "node_0_1.shard":
            "ea0b34c5de8c07de3af26b8a65ba7afb03e223da96ba5d08feb2a903c084e8f9",
        "node_0_2.shard":
            "4a79344cbcbfe60571e118ec0acce6ed4b5de6078ab900d9556fc55002f6c16d",
        "node_1_0.shard":
            "7284deaeaff5430e521161a641ab906b6c7745cd70832d203d1dcfaf5f428fea",
        "node_1_1.shard":
            "312e8e019452120514106f1e75874c83183cdb79daea975f909cf1913f2ae5da",
        "node_1_2.shard":
            "e1d9af97f9caaafbb0676097771e97d7ef72d53168ad7d7c964a8c10aa440d55",
        "node_2_0.shard":
            "b54d858433aa38d816acce075a3296fc1f0f43fd100aabd29e33f8f8dfa08729",
        "node_2_1.shard":
            "5e286c5bf155f502e8459d95e7a11bb82730afb4fbbc8565ff04a29e24ee3e60",
        "node_2_2.shard":
            "b9b91c71c51a86b37d6dbbcbfe4f647d92760c5f2ad35253305091a70aeed49d",
        "node_3_0.shard":
            "f7ff96ef7d0b0a38f66ed4f820a0aeff2cf7dd37ca8e20473066c2c06c5841b9",
        "node_3_1.shard":
            "d0a3aa30ada683ad6fc2d86ee079cef393aa8d3edfea909ec9e7fe3333a29c67",
        "node_3_2.shard":
            "0a846ab76e1cdec6edfb6f6a5c409fe4a2fec8ace83b16be0979402ee97bfa3f",
        "node_4_0.shard":
            "8cea0481192ba6f5132e2f96c6634f0f1a7097d4925c3ef2ad2cbf0aae39d19e",
        "node_4_1.shard":
            "c6fe04e933d947e12b1190f83dda2a569041ce52a001431a99d89eba7488aa8b",
        "node_4_2.shard":
            "a6999847977fb2ad650604acf74e9590c0b3baca32d000ba2060d6883d422e56",
        "node_5_0.shard":
            "edce1bb8a6fd7c504a2e8b33f53db719a0a5e5b681876684d6a3fee70c835704",
        "node_5_1.shard":
            "582d297333cd7c5096e702b4eaf2f7163cf1a294b97d19b6955ee7ffa53f3498",
        "node_5_2.shard":
            "161013c02d66195492b2572a2996f8fa1e217183d7fda7de20d4836201a13e5a",
        "node_6_0.shard":
            "d6231dfc18c7c21f4ad23e3839cfe63828581b592e06658fa41e31ef596f1f12",
        "node_6_1.shard":
            "be4c56febdcad8afbe96be3b252010c0160ef8659d274d260ac5def1df5b21ee",
        "node_6_2.shard":
            "312d47cf1ffc453c6da4026ade202ee472cbd421d2b1e21297a88bf26e50b11a",
        "node_7_0.shard":
            "74a8f791ffee487422df177869ad626716719af766571dda2563a36403740f99",
        "node_7_1.shard":
            "6e8a0b4078ed8e98faf58eebe5a54b25a54e732ab0403feaff156ddd75bff7a3",
        "node_7_2.shard":
            "9a4472cbbae812c3abb6ef6df1039f88cd5180308ff53a4d92969c541d5fe9b0",
    },
}


@pytest.mark.parametrize("code", list(GOLDEN_FILES))
def test_encoded_files_are_frozen(tmp_path, code):
    payload = np.random.default_rng(GOLDEN_PAYLOAD_SEED).integers(
        0, 256, size=20 << 10, dtype=np.uint8).tobytes()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_PAYLOAD_SHA256
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    out = tmp_path / "shards"
    encode_file(src, out, CodeParams.from_total_k(*code))
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert digests == GOLDEN_FILES[code]


def test_decode_refuses_a_data_symbol_outside_the_byte_range(tmp_path):
    # 256 < p = 257 passes the shard's symbol check, but no byte maps to it:
    # read from a present data shard, and solved from a parity shard that
    # was changed after encoding.
    _, out, _ = _encode_tmp(tmp_path, os.urandom(200))
    restored = tmp_path / "restored.bin"
    path = out / shard_name(1, 1)
    original = path.read_bytes()
    path.write_bytes(original[:6] + (256).to_bytes(2, "little") + original[8:])
    with pytest.raises(ShardFormatError, match="^symbol outside byte range; not a byte payload$"):
        decode_file(out, restored)
    assert not restored.exists()
    # 480 bytes of (6,2,6,4) with node (0, 0) lost: offset d added to parity
    # node (3, 0)'s first symbol shifts the solved payload linearly, so one d
    # of the 256 solves a data symbol to 256 and every other fails the
    # checksum.
    params = CodeParams.from_total_k(6, 2, 6, 4)
    src, out = tmp_path / "in480.bin", tmp_path / "shards480"
    src.write_bytes(bytes(range(240)) * 2)
    encode_file(src, out, params)
    (out / shard_name(0, 0)).unlink()
    path = out / shard_name(3, 0)
    original = path.read_bytes()
    first, refusals = int.from_bytes(original[:2], "little"), collections.Counter()
    for d in range(1, 257):
        path.write_bytes(((first + d) % 257).to_bytes(2, "little") + original[2:])
        with pytest.raises(ShardFormatError) as err:
            decode_file(out, restored)
        refusals[str(err.value)] += 1
    assert refusals == {"symbol outside byte range; not a byte payload": 1,
                        "decoded payload fails the manifest checksum": 255}
    assert not restored.exists()


def test_file_chunks_are_cut_by_the_plan(tmp_path, monkeypatch):
    # On (8,3,12,6) a solve's widest gather, the level of 12 coordinates
    # whose step gathers 60 rows per stripe, passes a codeword's n*alpha =
    # 648 symbols.  encode_file and decode_file cut their chunks by the
    # plan's rows, so each file chunk is one call of the plan's program and
    # none leaves a tail for a second.
    params = CodeParams.from_total_k(8, 3, 12, 6)
    codec = Codec(params, min_field=257)
    plan = codec._plan(range(params.k, params.n))
    assert plan.rows == 60 * 12 > params.n * params.alpha
    widths, call = [], linalg.Program.__call__

    def counted(self, vectors, start=0):
        widths.append(vectors.shape[-1])
        return call(self, vectors, start)

    monkeypatch.setattr(linalg.Program, "__call__", counted)
    payload = os.urandom(2 * plan.chunk * params.k * params.alpha + 1)
    src, out = tmp_path / "in.bin", tmp_path / "shards"
    src.write_bytes(payload)
    encode_file(src, out, params)
    assert widths == [plan.chunk, plan.chunk, 1]
    # Every data node lost; then fewer than r nodes, data and parity mixed,
    # so that the solve pads with present nodes.
    for lost in (params.nodes()[:params.r], [(0, 1), (2, 2), (5, 0), (7, 2)]):
        present = np.ones(params.n, dtype=bool)
        present[[params.node_index(e, g) for e, g in lost]] = False
        assert codec.decode_plan(present).rows == plan.rows
        directory = tmp_path / f"lost{len(lost)}"
        shutil.copytree(out, directory)
        for e, g in lost:
            (directory / shard_name(e, g)).unlink()
        widths.clear()
        decode_file(directory, tmp_path / "restored.bin")
        assert widths == [plan.chunk, plan.chunk, 1]
        assert (tmp_path / "restored.bin").read_bytes() == payload
