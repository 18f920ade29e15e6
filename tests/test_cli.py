import hashlib
import json
import os
import random

import pytest

from msrr.cli import _draw, main
from msrr.construction import MAX_ALPHA, code_tables
from msrr.stripe_io import shard_name

P1_FLAGS = ["--racks", "4", "--nodes-per-rack", "2", "--k", "4", "--helpers", "3"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


def test_plan_p1(capsys):
    code, records = run(capsys, ["plan", *P1_FLAGS])
    assert code == 0
    (rec,) = records
    assert rec["alpha"] == 4
    assert rec["beta"] == 2
    assert rec["cross_rack_repair_symbols"] == 6
    assert rec["p"] == 11
    assert rec["extra_points"] == [2]


def test_plan_subpacketization_comparison(capsys):
    code, records = run(capsys, ["plan", "--racks", "6", "--nodes-per-rack", "2",
                                 "--k", "6", "--helpers", "4"])
    assert code == 0
    assert records[0]["alpha"] == 8
    assert records[0]["alpha_one_rack_per_digit"] == 64


def test_plan_degenerate(capsys):
    code, records = run(capsys, ["plan", "--racks", "4", "--nodes-per-rack", "2",
                                 "--k", "4", "--helpers", "2"])
    assert code == 0
    assert records[0]["repair_stretch"] == 1
    assert records[0]["alpha"] == 1
    assert records[0]["beta"] == 1


def test_plan_rejects_bad_parameters(capsys):
    code = main(["plan", "--racks", "4", "--nodes-per-rack", "2",
                 "--k", "4", "--helpers", "9"])
    assert code == 2
    assert "d_out_of_range" in capsys.readouterr().err


def test_report_savings_ratio(capsys):
    code, records = run(capsys, ["report", *P1_FLAGS])
    assert code == 0
    (rec,) = records
    assert rec["cross_rack_repair_symbols"] == 6
    assert rec["naive_cross_rack_symbols"] == 12
    assert rec["savings_ratio"] == 0.5


U0_FLAGS = ["--racks", "5", "--nodes-per-rack", "3", "--k", "7", "--helpers", "3"]

# Whole output lines, frozen before plan and report shared one record builder.
FROZEN_RECORDS = [
    ("plan", P1_FLAGS,
     '{"access_per_helper_rack": 4, "alpha": 4, "alpha_one_rack_per_digit": 16, '
     '"beta": 2, "cross_rack_repair_symbols": 6, "data_racks": 2, '
     '"digit_positions": 2, "extra_points": [2], "helper_racks": 3, '
     '"intra_rack_repair_symbols": 4, "k": 4, "n": 8, "nodes_per_rack": 2, '
     '"p": 11, "primitive_root": 2, "r": 4, "racks": 4, "record": "plan", '
     '"repair_stretch": 2, "residual_nodes": 0, "unity_root": 10}'),
    ("report", P1_FLAGS,
     '{"access_per_helper_rack": 4, "alpha": 4, "alpha_one_rack_per_digit": 16, '
     '"beta": 2, "cross_rack_repair_symbols": 6, "data_racks": 2, '
     '"digit_positions": 2, "extra_points": [2], "helper_racks": 3, "k": 4, '
     '"n": 8, "naive_cross_rack_symbols": 12, "nodes_per_rack": 2, "p": 11, '
     '"primitive_root": 2, "r": 4, "racks": 4, "record": "report", '
     '"repair_stretch": 2, "residual_nodes": 0, "savings_ratio": 0.5, '
     '"unity_root": 10}'),
    ("plan", U0_FLAGS,
     '{"access_per_helper_rack": 12, "alpha": 8, "alpha_one_rack_per_digit": 32, '
     '"beta": 4, "cross_rack_repair_symbols": 12, "data_racks": 2, '
     '"digit_positions": 3, "extra_points": [2], "helper_racks": 3, '
     '"intra_rack_repair_symbols": 16, "k": 7, "n": 15, "nodes_per_rack": 3, '
     '"p": 19, "primitive_root": 2, "r": 8, "racks": 5, "record": "plan", '
     '"repair_stretch": 2, "residual_nodes": 1, "unity_root": 7}'),
    ("report", U0_FLAGS,
     '{"access_per_helper_rack": 12, "alpha": 8, "alpha_one_rack_per_digit": 32, '
     '"beta": 4, "cross_rack_repair_symbols": 12, "data_racks": 2, '
     '"digit_positions": 3, "extra_points": [2], "helper_racks": 3, "k": 7, '
     '"n": 15, "naive_cross_rack_symbols": 40, "nodes_per_rack": 3, "p": 19, '
     '"primitive_root": 2, "r": 8, "racks": 5, "record": "report", '
     '"repair_stretch": 2, "residual_nodes": 1, "savings_ratio": 0.3, '
     '"unity_root": 7}'),
]


@pytest.mark.parametrize("command,flags,line", FROZEN_RECORDS,
                         ids=["plan-p1", "report-p1", "plan-u0", "report-u0"])
def test_plan_and_report_lines_are_frozen(capsys, command, flags, line):
    assert main([command, *flags]) == 0
    assert capsys.readouterr().out == line + "\n"


# sha256 of every verify record, elapsed_s popped, as sorted-key JSON; frozen
# before verify_mds and the repair engine followed the level order.
FROZEN_VERIFY = [
    (P1_FLAGS,
     "1776a7621e0688349d1bb96ac2e0a974b3a508351786365f4f806c671028d09e"),
    (["--racks", "6", "--nodes-per-rack", "2", "--k", "6", "--helpers", "4",
      "--mode", "sample", "--samples", "20", "--seed", "1"],
     "0f6d8bd3ab4a7ea98d7bbe25adb4ccde2afc5e99ea1996a3782d4f368cdf3cf6"),
    (["--racks", "8", "--nodes-per-rack", "3", "--k", "12", "--helpers", "6",
      "--mode", "sample", "--samples", "20", "--seed", "1"],
     "27d27d021f5df5a946620fcde2bf354f779d8de565a410bed16d3631718e3316"),
]


@pytest.mark.parametrize("flags,digest", FROZEN_VERIFY,
                         ids=["p1-exhaustive", "6264-sample", "83126-sample"])
def test_verify_records_are_frozen(capsys, flags, digest):
    code, records = run(capsys, ["verify", *flags])
    assert code == 0
    records[-1].pop("elapsed_s")
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("budget", [1, 7 * 12 * 8])
def test_verify_records_do_not_depend_on_the_jobs_per_encode(capsys, monkeypatch, budget):
    # verify encodes up to one codec chunk of jobs' stripes at a time.  A
    # one-symbol budget makes that one 2-stripe job per encode, and 7
    # stripes of (6,2,6,4) three jobs, so 20 jobs end on a short batch.
    flags, digest = FROZEN_VERIFY[1]
    monkeypatch.setattr("msrr.codec._CHUNK_SYMBOLS", budget)
    test_verify_records_are_frozen(capsys, flags, digest)


@pytest.mark.parametrize("count", [1, 648])
@pytest.mark.parametrize("p", [5, 11, 257, 271, 8191, 65521])
def test_bulk_draw_matches_randrange(p, count):
    # verify's data draw must be randrange, value for value and in the state
    # it leaves, or the frozen verify records change with it.
    one_by_one, bulk = random.Random(p * count), random.Random(p * count)
    expected = [one_by_one.randrange(p) for _ in range(count)]
    assert _draw(bulk, p, count).tolist() == expected
    assert bulk.random() == one_by_one.random()


def test_verify_exhaustive_p1(capsys):
    code, records = run(capsys, ["verify", *P1_FLAGS])
    assert code == 0
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec["record"], []).append(rec)
    assert by_kind["mds"][0]["subsets_checked"] == 70
    assert by_kind["mds"][0]["failures"] == []
    jobs = by_kind["repair_job"]
    assert len(jobs) == 8
    assert all(j["ok"] and j["cross_rack_symbols"] == 6 for j in jobs)
    assert by_kind["summary"][0]["ok"] is True


def test_verify_sample_mode_deterministic(capsys):
    argv = ["verify", *P1_FLAGS, "--mode", "sample", "--samples", "7",
            "--seed", "42"]
    runs = []
    for _ in range(2):
        code, records = run(capsys, argv)
        assert code == 0
        summary = records[-1]
        assert summary["record"] == "summary"
        # Wall time is the one field allowed to differ between runs.
        elapsed = summary.pop("elapsed_s")
        assert isinstance(elapsed, (int, float)) and elapsed >= 0
        runs.append(records)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_sample_mode_refuses_fewer_than_one_sample(capsys, samples):
    assert main(["verify", *P1_FLAGS, "--mode", "sample", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad_samples: ")


def test_pretty_output_is_not_json(capsys):
    assert main(["plan", *P1_FLAGS, "--pretty"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[plan]")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.splitlines()[0])


@pytest.fixture()
def encoded_dir(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(os.urandom(4096))
    out = tmp_path / "shards"
    code, records = run(capsys, [
        "encode", *P1_FLAGS, "--input", str(src), "--out", str(out)])
    assert code == 0
    assert records[0]["stripes"] == 256
    assert records[0]["p"] == 257
    return src, out


def test_decode_with_no_missing_matches_input(tmp_path, capsys, encoded_dir):
    src, out = encoded_dir
    dest = tmp_path / "restored.bin"
    code, records = run(capsys, ["decode", "--in", str(out), "--output", str(dest)])
    assert code == 0
    assert records[0]["missing_shards"] == []
    assert records[0]["checksum_ok"] is True
    assert dest.read_bytes() == src.read_bytes()


def test_decode_after_deleting_shards(tmp_path, capsys, encoded_dir):
    src, out = encoded_dir
    for e, g in [(0, 1), (2, 0), (3, 0), (3, 1)]:
        (out / shard_name(e, g)).unlink()
    dest = tmp_path / "restored.bin"
    code, records = run(capsys, ["decode", "--in", str(out), "--output", str(dest)])
    assert code == 0
    assert len(records[0]["missing_shards"]) == 4
    assert dest.read_bytes() == src.read_bytes()


def test_decode_with_more_than_r_missing_names_them(tmp_path, capsys, encoded_dir):
    _, out = encoded_dir
    for e, g in [(0, 1), (1, 0), (2, 0), (3, 0), (3, 1)]:  # P1 has r = 4
        (out / shard_name(e, g)).unlink()
    dest = tmp_path / "restored.bin"
    assert main(["decode", "--in", str(out), "--output", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert shard_name(1, 0) in captured.err and "r=4" in captured.err
    assert not dest.exists()


@pytest.mark.parametrize("lost", [[], [(0, 0)]], ids=["none-lost", "node-0-0-lost"])
def test_decode_names_the_shard_and_offset_of_a_data_symbol_outside_the_byte_range(
        tmp_path, capsys, lost):
    # 256 < p = 257 passes the shard's symbol check, but no byte maps to it.
    # A read data shard is checked before the solve, so it is named whether
    # or not node (0, 0) is lost and solved from it.
    src, out = tmp_path / "payload.bin", tmp_path / "shards"
    src.write_bytes(random.Random(5).randbytes(5000))
    assert main(["encode", *P1_FLAGS, "--input", str(src), "--out", str(out)]) == 0
    path = out / shard_name(0, 1)
    blob = bytearray(path.read_bytes())
    offset = (300 * 4 + 2) * 2  # stripe 300 of 313, symbol 2
    blob[offset:offset + 2] = (256).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    for e, g in lost:
        (out / shard_name(e, g)).unlink()
    dest = tmp_path / "restored.bin"
    assert main(["decode", "--in", str(out), "--output", str(dest)]) == 2
    assert capsys.readouterr().err == (
        f"error: node_0_1.shard: symbol 256 outside the byte range at offset {offset}\n")
    assert not dest.exists()


ALPHA_TOO_LARGE = ["--racks", "40", "--nodes-per-rack", "2", "--k", "2", "--helpers", "39"]


def test_a_code_past_max_alpha_is_refused_before_any_table_is_built(tmp_path, capsys):
    # alpha = 39^20.  verify and encode refuse it as a parameter error, exit
    # 2 with no traceback, and cache no tables; plan and report build none,
    # so they still describe it.
    alpha = 39 ** 20
    src, out = tmp_path / "payload.bin", tmp_path / "shards"
    src.write_bytes(b"x")
    for argv in (["verify", *ALPHA_TOO_LARGE, "--mode", "sample", "--samples", "1"],
                 ["encode", *ALPHA_TOO_LARGE, "--input", str(src), "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: alpha_too_large: alpha={alpha} exceeds "
                                f"{MAX_ALPHA}, the most whose tables are built\n")
    assert code_tables.cache_info().currsize == 0 and not out.exists()
    for command in ("plan", "report"):
        code, (rec,) = run(capsys, [command, *ALPHA_TOO_LARGE])
        assert code == 0 and rec["alpha"] == alpha


@pytest.mark.parametrize("field,value", [
    ("p", "257"), ("original_file_length_bytes", "5"), ("stripe_count", 1.5)])
def test_decode_refuses_a_mistyped_manifest_field(tmp_path, capsys, encoded_dir,
                                                  field, value):
    _, out = encoded_dir
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[field] = value
    manifest_path.write_text(json.dumps(manifest))
    dest = tmp_path / "restored.bin"
    assert main(["decode", "--in", str(out), "--output", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert field in captured.err
    assert not dest.exists()


def test_repair_rewrites_identical_shard(tmp_path, capsys, encoded_dir):
    _, out = encoded_dir
    target = out / shard_name(0, 0)
    original = target.read_bytes()
    target.unlink()
    code, records = run(capsys, ["repair", "--in", str(out),
                                 "--rack", "0", "--node", "0"])
    assert code == 0
    (rec,) = records
    assert rec["cross_rack_symbols"] == 6
    assert rec["cross_rack_bytes"] == 6 * 256 * 2
    assert rec["helpers"] == [1, 2, 3]
    assert target.read_bytes() == original


def test_repair_with_helper_list(tmp_path, capsys, encoded_dir):
    _, out = encoded_dir
    target = out / shard_name(2, 1)
    original = target.read_bytes()
    target.unlink()
    code, records = run(capsys, ["repair", "--in", str(out), "--rack", "2",
                                 "--node", "1", "--helpers", "0,1,3"])
    assert code == 0
    assert records[0]["helpers"] == [0, 1, 3]
    assert target.read_bytes() == original


def test_repair_refusals_exit_with_usage_error(capsys, encoded_dir):
    _, out = encoded_dir
    assert main(["repair", "--in", str(out), "--rack", "0", "--node", "0"]) == 2
    assert "present" in capsys.readouterr().err


@pytest.mark.parametrize("helpers,message", [
    ("1,2", "need 3 distinct helper racks"),      # P1 repairs from d_bar=3 racks
    ("1,1,2", "need 3 distinct helper racks"),
    ("1,2,9", "invalid helper rack 9"),
    ("1,x", "comma-separated rack numbers"),
])
def test_repair_bad_helpers_exit_with_usage_error(capsys, encoded_dir, helpers,
                                                  message):
    _, out = encoded_dir
    shard = out / shard_name(0, 0)
    original = shard.read_bytes()
    assert main(["repair", "--in", str(out), "--rack", "0", "--node", "0",
                 "--helpers", helpers, "--force"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad_repair_job: ")
    assert message in captured.err
    assert shard.read_bytes() == original


def test_consecutive_calls_share_no_state(capsys, encoded_dir):
    # The parser is built once per process; no flag of one call may stick to
    # the next.
    _, out = encoded_dir
    argv = ["repair", "--in", str(out), "--rack", "0", "--node", "0"]
    assert main(argv + ["--force"]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    assert "present" in capsys.readouterr().err
    assert main(["plan", *P1_FLAGS, "--pretty"]) == 0
    assert capsys.readouterr().out.startswith("[plan]")
    code, records = run(capsys, ["plan", *P1_FLAGS])
    assert code == 0 and records[0]["record"] == "plan"


def test_missing_directory_is_a_usage_error(capsys):
    assert main(["decode", "--in", "/nonexistent-dir", "--output", "x.bin"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture()
def wide_dir(tmp_path, capsys):
    """A complete (6,2,6,4) directory."""
    src = tmp_path / "payload.bin"
    src.write_bytes(os.urandom(4096))
    out = tmp_path / "shards"
    flags = ["--racks", "6", "--nodes-per-rack", "2", "--k", "6", "--helpers", "4"]
    assert main(["encode", *flags, "--input", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.fixture()
def wide_dir_missing_two(wide_dir):
    """The (6,2,6,4) directory with node_0_0 and node_5_1 deleted; returns the
    directory and node_0_0's original bytes."""
    out = wide_dir
    original = (out / shard_name(0, 0)).read_bytes()
    (out / shard_name(0, 0)).unlink()
    (out / shard_name(5, 1)).unlink()
    return out, original


def test_repair_ignores_missing_shards_outside_the_helper_racks(capsys,
                                                                wide_dir_missing_two):
    out, original = wide_dir_missing_two
    code, records = run(capsys, ["repair", "--in", str(out), "--rack", "0",
                                 "--node", "0", "--helpers", "1,2,3,4"])
    assert code == 0
    assert records[0]["helpers"] == [1, 2, 3, 4]
    assert (out / shard_name(0, 0)).read_bytes() == original


def test_repair_refuses_a_helper_rack_with_a_missing_shard(capsys,
                                                           wide_dir_missing_two):
    out, _ = wide_dir_missing_two
    assert main(["repair", "--in", str(out), "--rack", "0", "--node", "0",
                 "--helpers", "1,2,3,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "(5, 1)" in captured.err
    assert not (out / shard_name(0, 0)).exists()


def test_repair_default_helpers_skip_incomplete_racks(capsys, wide_dir):
    out = wide_dir
    original = (out / shard_name(1, 0)).read_bytes()
    (out / shard_name(1, 0)).unlink()
    (out / shard_name(2, 0)).unlink()
    code, records = run(capsys, ["repair", "--in", str(out), "--rack", "1",
                                 "--node", "0"])
    assert code == 0
    assert records[0]["helpers"] == [0, 3, 4, 5]
    assert (out / shard_name(1, 0)).read_bytes() == original


# The 4096-byte (6,2,6,4) payload fills 86 stripes; at 16 stripes per chunk,
# symbol 3 of stripe 20 lies in the second chunk, past what the first wrote.
BAD_SYMBOL_OFFSET = (20 * 8 + 3) * 2


def _truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def _plant_a_bad_symbol(path):
    blob = bytearray(path.read_bytes())
    blob[BAD_SYMBOL_OFFSET:BAD_SYMBOL_OFFSET + 2] = (400).to_bytes(2, "little")  # >= p=257
    path.write_bytes(bytes(blob))


@pytest.fixture()
def small_chunks(monkeypatch):
    monkeypatch.setattr("msrr.codec._CHUNK_SYMBOLS", 16 * 12 * 8)


def test_repair_never_opens_a_non_helper_rack(capsys, wide_dir, small_chunks):
    out = wide_dir
    original = (out / shard_name(0, 0)).read_bytes()
    (out / shard_name(0, 0)).unlink()
    _truncate(out / shard_name(5, 1))
    _plant_a_bad_symbol(out / shard_name(5, 0))
    code, records = run(capsys, ["repair", "--in", str(out), "--rack", "0",
                                 "--node", "0", "--helpers", "1,2,3,4"])
    assert code == 0
    assert records[0]["stripes"] == 86
    assert (out / shard_name(0, 0)).read_bytes() == original


@pytest.mark.parametrize("damage,message", [
    (_truncate, "node_4_1.shard: 100 bytes, expected 1376"),
    (_plant_a_bad_symbol, f"node_4_1.shard: symbol 400 >= p=257 at offset {BAD_SYMBOL_OFFSET}"),
], ids=["truncated", "bad-symbol"])
def test_repair_names_a_damaged_helper_shard_and_leaves_no_file(
        capsys, wide_dir, small_chunks, damage, message):
    out = wide_dir
    target = out / shard_name(0, 0)
    original = target.read_bytes()
    damage(out / shard_name(4, 1))
    names = sorted(path.name for path in out.iterdir())
    argv = ["repair", "--in", str(out), "--rack", "0", "--node", "0",
            "--helpers", "1,2,3,4"]
    # With the target present and --force, a failed repair keeps its bytes.
    assert main(argv + ["--force"]) == 2
    assert sorted(path.name for path in out.iterdir()) == names
    assert target.read_bytes() == original
    target.unlink()
    assert main(argv) == 2
    assert sorted(path.name for path in out.iterdir()) == \
        [name for name in names if name != target.name]
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(message in line for line in errors), errors
