"""Operator commands: plan, encode, decode, repair, verify, report.

Output is one JSON record per line for scripting; --pretty renders the same
records as aligned key/value text.  Exit codes: 0 success, 1 verification
failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys
import time

import numpy as np

from .codec import SWEEP_CAP, Codec, stripes_per_chunk
from .construction import build_constants
from .errors import MsrrError, ParameterError
from .field import FieldCtx
from .params import CodeParams
from .repair import RepairJob, RepairPlan, apply_plan
from .stripe_io import decode_file, encode_file, repair_shard

STRIPES_PER_VERIFY_JOB = 2


def _emit(records, pretty: bool) -> None:
    if pretty:
        for rec in records:
            print(f"[{rec['record']}]")
            for key in sorted(rec):
                if key != "record":
                    print(f"  {key}: {rec[key]}")
    else:
        for rec in records:
            print(json.dumps(rec, sort_keys=True))


def _add_param_flags(sub, min_field_default: int) -> None:
    sub.add_argument("--racks", type=int, required=True, help="rack count")
    sub.add_argument("--nodes-per-rack", type=int, required=True,
                     help="nodes per rack")
    sub.add_argument("--k", type=int, required=True,
                     help="data nodes (total, may end mid-rack)")
    sub.add_argument("--helpers", type=int, required=True,
                     help="helper racks per repair")
    sub.add_argument("--min-field", type=int, default=min_field_default,
                     help="lower bound for the field modulus")


def _params(args) -> CodeParams:
    return CodeParams.from_total_k(args.racks, args.nodes_per_rack, args.k,
                                   args.helpers)


def _param_record(params: CodeParams, field: FieldCtx, constants) -> dict:
    return {
        "racks": params.n_bar, "nodes_per_rack": params.u,
        "k": params.k, "n": params.n, "r": params.r,
        "data_racks": params.k_bar, "residual_nodes": params.u0,
        "helper_racks": params.d_bar,
        "repair_stretch": params.s_bar, "digit_positions": params.m,
        "alpha": params.alpha, "beta": params.beta,
        "p": field.p, "primitive_root": field.primitive_root,
        "unity_root": field.unity_root,
        "extra_points": list(constants.extra_points),
    }


def _cost_record(record: str, args) -> tuple[CodeParams, dict]:
    """Parameters plus the repair costs that plan and report both print."""
    params = _params(args)
    field, costs = FieldCtx.for_code(params, args.min_field), params.repair_symbols()
    rec = {
        "record": record,
        **_param_record(params, field, build_constants(params, field)),
        "cross_rack_repair_symbols": costs["cross_rack_symbols"],
        "access_per_helper_rack": costs["accessed_symbols_per_helper_rack"],
        "alpha_one_rack_per_digit": params.s_bar**params.n_bar,
    }
    return params, rec


def cmd_plan(args) -> int:
    params, rec = _cost_record("plan", args)
    rec["intra_rack_repair_symbols"] = params.repair_symbols()["intra_rack_symbols"]
    _emit([rec], args.pretty)
    return 0


def cmd_report(args) -> int:
    params, rec = _cost_record("report", args)
    # Naive baseline: decode from the u-1 free intra-rack survivors plus
    # k-u+1 whole nodes pulled across racks.
    naive = (params.k - params.u + 1) * params.alpha
    rec["naive_cross_rack_symbols"] = naive
    rec["savings_ratio"] = rec["cross_rack_repair_symbols"] / naive
    _emit([rec], args.pretty)
    return 0


def cmd_encode(args) -> int:
    params = _params(args)
    manifest = encode_file(args.input, args.out, params, args.min_field)
    rec = {
        "record": "encode", "input": args.input, "out_dir": args.out,
        "stripes": manifest.stripe_count, "p": manifest.p,
        "shards": params.n,
        "shard_bytes": manifest.stripe_count * params.alpha
        * manifest.symbol_width_bytes,
        "original_length": manifest.original_file_length_bytes,
        "checksum_sha256": manifest.checksum_sha256,
    }
    _emit([rec], args.pretty)
    return 0


def cmd_decode(args) -> int:
    manifest, length, missing = decode_file(args.in_dir, args.output)
    rec = {
        "record": "decode", "in_dir": args.in_dir, "output": args.output,
        "bytes": length, "missing_shards": [list(node) for node in missing],
        "checksum_ok": True,
    }
    _emit([rec], args.pretty)
    return 0


def cmd_repair(args) -> int:
    helpers = None
    if args.helpers:
        try:
            helpers = [int(x) for x in args.helpers.split(",")]
        except ValueError:
            raise ParameterError("bad_repair_job", "--helpers needs comma-separated "
                                 f"rack numbers, got {args.helpers!r}") from None
    manifest, job, path = repair_shard(
        args.in_dir, args.rack, args.node, helpers=helpers, force=args.force)
    costs = manifest.params.repair_symbols()
    rec = {
        "record": "repair", "rack": args.rack, "node": args.node,
        "helpers": list(job.helpers), "stripes": manifest.stripe_count, **costs,
        "cross_rack_bytes": costs["cross_rack_symbols"] * manifest.stripe_count
        * manifest.symbol_width_bytes,
        "shard": str(path),
    }
    _emit([rec], args.pretty)
    return 0


def _repair_jobs(params: CodeParams, mode: str, samples: int,
                 rng: random.Random):
    if mode == "exhaustive":
        total = params.n * math.comb(params.n_bar - 1, params.d_bar)
        if total > SWEEP_CAP:
            raise ParameterError(
                "cap_exceeded", f"{total} repair jobs exceed the cap {SWEEP_CAP}")
        for e_star in range(params.n_bar):
            for g_star in range(params.u):
                racks = [e for e in range(params.n_bar) if e != e_star]
                for helpers in itertools.combinations(racks, params.d_bar):
                    yield RepairJob.create(params, e_star, g_star, helpers)
    else:
        for _ in range(samples):
            e_star = rng.randrange(params.n_bar)
            g_star = rng.randrange(params.u)
            racks = [e for e in range(params.n_bar) if e != e_star]
            helpers = rng.sample(racks, params.d_bar)
            yield RepairJob.create(params, e_star, g_star, helpers)


def _draw(rng: random.Random, p: int, count: int) -> np.ndarray:
    """[rng.randrange(p) for _ in range(count)] as an array, leaving rng in
    the same state.  randrange(p) is random._randbelow_with_getrandbits: it
    takes 32-bit words, keeps the top p.bit_length() bits of each and
    returns the first below p.  getrandbits(32*need) is need such words,
    the first least significant, so each word yields at most one value, and
    drawing only the deficit again never takes a word past the last value."""
    values, shift = np.empty(0, dtype=np.uint32), 32 - p.bit_length()
    while need := count - values.size:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4")
        words = words >> shift
        values = np.concatenate([values, words[words < p]])
    return values


def cmd_verify(args) -> int:
    if args.mode == "sample" and args.samples < 1:
        raise ParameterError("bad_samples",
                             f"--samples must be at least 1, got {args.samples}")
    params = _params(args)
    codec = Codec(params, min_field=args.min_field)
    started = time.monotonic()
    records = [{"record": "params",
                **_param_record(params, codec.field, codec.constants)}]

    mds = codec.verify_mds(mode=args.mode, samples=args.samples, seed=args.seed)
    records.append({
        "record": "mds", "mode": mds.mode,
        "subsets_checked": mds.subsets_checked,
        "failures": [[list(subset), rk] for subset, rk in mds.failures],
    })

    rng = random.Random(args.seed)
    jobs_checked = 0
    repair_failures = []
    w, p, k, alpha = STRIPES_PER_VERIFY_JOB, codec.p, params.k, params.alpha
    jobs, costs = _repair_jobs(params, args.mode, args.samples, rng), params.repair_symbols()
    batch = max(1, stripes_per_chunk(codec._plan(range(k, params.n)).rows) // w)
    # Each job and then its data are drawn in turn, as one job at a time
    # draws them; one encode_batch takes up to one chunk of jobs' stripes.
    while drawn := [(job, _draw(rng, p, k * alpha * w).reshape(k, alpha, w))
                    for job in itertools.islice(jobs, batch)]:
        vectors = codec.encode_batch(np.concatenate([data for _, data in drawn], axis=2))
        for slot, (job, _) in enumerate(drawn):
            stripes = vectors[:, :, slot * w:(slot + 1) * w]
            recovered = apply_plan(RepairPlan.create(codec, job), stripes)
            target = params.node_index(job.e_star, job.g_star)
            ok = bool(np.array_equal(recovered, stripes[target]))
            jobs_checked += 1
            if not ok:
                repair_failures.append(job)
            records.append({
                "record": "repair_job", "rack": job.e_star, "node": job.g_star,
                "helpers": list(job.helpers), "stripes": w, **costs, "ok": ok,
            })

    ok = mds.ok and not repair_failures
    records.append({
        "record": "summary", "ok": ok,
        "mds_subsets": mds.subsets_checked, "mds_failures": len(mds.failures),
        "repair_jobs": jobs_checked, "repair_failures": len(repair_failures),
        "elapsed_s": round(time.monotonic() - started, 3),
    })
    _emit(records, args.pretty)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state in it, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="msrr",
        description="Rack-aware MDS array codes with minimal cross-rack repair")
    subs = parser.add_subparsers(dest="command", required=True)

    plan = subs.add_parser("plan", help="derive and print code parameters")
    _add_param_flags(plan, 0)
    plan.set_defaults(func=cmd_plan)

    report = subs.add_parser("report", help="bandwidth/access comparison")
    _add_param_flags(report, 0)
    report.set_defaults(func=cmd_report)

    encode = subs.add_parser("encode", help="stripe a file into shards")
    _add_param_flags(encode, 257)
    encode.add_argument("--input", required=True, help="payload file")
    encode.add_argument("--out", required=True, help="shard directory")
    encode.set_defaults(func=cmd_encode)

    decode = subs.add_parser("decode", help="rebuild the file from shards")
    decode.add_argument("--in", dest="in_dir", required=True,
                        help="shard directory")
    decode.add_argument("--output", required=True, help="output file")
    decode.set_defaults(func=cmd_decode)

    repair = subs.add_parser("repair", help="regenerate one shard")
    repair.add_argument("--in", dest="in_dir", required=True,
                        help="shard directory")
    repair.add_argument("--rack", type=int, required=True)
    repair.add_argument("--node", type=int, required=True)
    repair.add_argument("--helpers", default=None,
                        help="comma-separated helper racks")
    repair.add_argument("--force", action="store_true",
                        help="rewrite the shard even if present")
    repair.set_defaults(func=cmd_repair)

    verify = subs.add_parser("verify", help="sweep the MDS and repair checks")
    _add_param_flags(verify, 0)
    verify.add_argument("--mode", choices=("exhaustive", "sample"),
                        default="exhaustive")
    verify.add_argument("--samples", type=int, default=100,
                        help="subset/job count in sample mode")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    for sub in (plan, report, encode, decode, repair, verify):
        sub.add_argument("--pretty", action="store_true",
                         help="human-readable output instead of JSON lines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MsrrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
