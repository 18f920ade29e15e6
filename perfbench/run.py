"""Closed-loop, single-client benchmark of the msrr CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk-small-alpha --seed 1 \
        --seconds 40 --trace 0

Every timed operation is an in-process call to msrr.cli.main(argv) with
stdout captured: the CLI's code path minus interpreter start-up.  With
--trace 0 the run reports the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it wraps the library's public functions from the outside
(perfbench/tracer.py) and reports the per-layer metrics instead.  Every
output is checked; a mismatch or an exception counts as a failed operation
and is never retried.  The last stdout line is the JSON result; the line
before it describes the run (versions, sample counts, tail percentile).

See perfbench/README.md for why each workload exists and which metric each
planned change should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {var: str(NPROC) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)

# Fixed per workload; only the payload bytes and verify seeds depend on
# --seed.  code is (racks, nodes_per_rack, k, helpers).  A cycle is one
# encode, one decode with the r lowest-index nodes erased, one
# fresh-interpreter CLI call of kind `cold`, `verifies` verify calls of
# `samples` samples each, and one repair of every node in turn.  Every
# operation is in every cycle so that its samples spread over the run.
# Sizes keep timed operations between about 40 ms and 3 s on a 2-core
# machine.  BENCHMARK.json omits wide-alpha: its 2-3 s operations fit only
# 3-4 times in a run, too few for steady medians on a shared VM.
WORKLOADS = {
    # alpha=8: ~2*10^4 stripes, time in the per-symbol kernels, the wide
    # right-hand side of the decode solve, and the shard reads of repair.
    "bulk-small-alpha": dict(code=(6, 2, 6, 4), payload=1 << 20,
                             verifies=1, samples=20, cold="repair"),
    # alpha=243, r*alpha=2430: every file operation pays the cubic dense
    # inverse or solve; payload I/O is negligible.
    "wide-alpha": dict(code=(10, 2, 10, 7), payload=128 << 10,
                       verifies=1, samples=1, cold="repair"),
    # alpha=27: many tiny 2-stripe batches plus the dense rank oracle, and
    # the dense int64 parity product in encode.
    "verify-sample": dict(code=(8, 3, 12, 6), payload=1 << 20,
                          verifies=2, samples=20, cold="verify"),
}
SETUP_REPEATS = 3
MIN_COLD = 5
MIN_CYCLES = 3
TAIL_BEYOND = 10
MIB = float(1 << 20)


class Checks:
    """Counts attempted and failed operations; never retries."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def op(self, what):
        self.attempted += 1
        try:
            yield
        except Exception:  # the loop must go on and report the failure
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def code_shape(code):
    """(n, k, r, alpha, beta, d_bar) from the paper's formulas, computed
    here independently of msrr so that the traffic check is an oracle."""
    racks, u, k, d_bar = code
    k_bar, u0 = divmod(k, u)
    s_bar = d_bar - k_bar + 1
    alpha = s_bar ** math.ceil(racks / (u - u0))
    n = racks * u
    return n, k, n - k, alpha, alpha // s_bar, d_bar


def code_flags(code):
    racks, u, k, helpers = code
    return ["--racks", str(racks), "--nodes-per-rack", str(u), "--k", str(k),
            "--helpers", str(helpers)]


def shard(directory, node, u):
    return Path(directory) / f"node_{node // u}_{node % u}.shard"


def dir_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(Path(directory).iterdir())}


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """Highest sample with at least TAIL_BEYOND samples above it, and its
    percentile; the maximum when there are too few samples."""
    ordered = sorted(values)
    if not ordered:
        return float("nan"), float("nan")
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def read_proc_io():
    """(rchar, wchar) of this process: bytes passed through read/write
    syscalls; memory-mapped reads do not appear."""
    fields = dict(line.split(": ") for line in
                  Path("/proc/self/io").read_text().splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


class Bench:
    def __init__(self, name, seed, work, tracer=None):
        from msrr import cli
        self.cli = cli
        self.spec = WORKLOADS[name]
        self.code = self.spec["code"]
        self.flags = code_flags(self.code)
        self.n, self.k, self.r, self.alpha, self.beta, self.d_bar = \
            code_shape(self.code)
        self.u = self.code[1]
        self.work = work
        self.seed = seed
        self.payload = None
        self.verify_seeds = random.Random(~seed)
        self.checks = Checks()
        self.tracer = tracer
        self.times = {"encode": [], "decode": [], "repair": [], "verify": []}
        self.traced_times = {kind: [] for kind in self.times}
        # Traced ops that succeeded: op id -> (kind, seconds, syscall bytes
        # read, syscall bytes written).  Spans of failed ops are ignored.
        self.traced_ops = {}
        self.op_count = 0
        self.cold_times = []
        self.cold_runs = 0
        self.stripes = None
        self.expected_cross_rack = None
        self.shard_bytes = None

    # -- one CLI call ---------------------------------------------------------

    def call(self, kind, argv, timed=True):
        out = io.StringIO()
        traced = self.tracer is not None and self.tracer.installed
        if traced:
            op = self.op_count
            self.op_count += 1
            self.tracer.op = op
            io_before = read_proc_io()
        try:
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                rc = self.cli.main(argv)
                elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.op = None
        expect(rc == 0, f"{kind} exited with {rc}")
        if traced:
            io_after = read_proc_io()
            self.traced_ops[op] = (kind, elapsed, io_after[0] - io_before[0],
                                   io_after[1] - io_before[1])
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        if timed:
            (self.traced_times if traced else self.times)[kind].append(elapsed)
        return records

    # -- operations -------------------------------------------------------------

    def encode(self, out_dir, timed=True):
        (rec,) = self.call("encode", ["encode", *self.flags, "--input",
                                      str(self.work / "payload.bin"),
                                      "--out", str(out_dir)], timed)
        return rec

    def check_encode(self, out_dir):
        expect(dir_bytes(out_dir) == self.ref_files,
               "encoded shards differ from the reference directory")

    def decode(self, in_dir, timed=True):
        out_path = self.work / "decoded.bin"
        (rec,) = self.call("decode", ["decode", "--in", str(in_dir),
                                      "--output", str(out_path)], timed)
        expect(out_path.read_bytes() == self.payload,
               "decoded bytes differ from the payload")
        erased = [[i // self.u, i % self.u] for i in range(self.r)]
        expect(rec["missing_shards"] == erased, "decode saw other erasures")

    def check_repair(self, rec, path):
        expect(rec["cross_rack_bytes"] == self.expected_cross_rack,
               f"cross_rack_bytes {rec['cross_rack_bytes']} != "
               f"d_bar*beta*stripes*width = {self.expected_cross_rack}")
        expect(path.read_bytes() == self.ref_files[path.name],
               f"repaired {path.name} differs from the reference")

    def repair(self, rep_dir, node, timed=True):
        path = shard(rep_dir, node, self.u)
        path.unlink()
        (rec,) = self.call("repair", [
            "repair", "--in", str(rep_dir), "--rack", str(node // self.u),
            "--node", str(node % self.u)], timed)
        self.check_repair(rec, path)

    def verify_argv(self):
        return ["verify", *self.flags, "--mode", "sample", "--samples",
                str(self.spec["samples"]), "--seed",
                str(self.verify_seeds.randrange(1 << 31))]

    def check_verify(self, records):
        samples = self.spec["samples"]
        summary = records[-1]
        expect(summary["record"] == "summary" and summary["ok"] is True,
               f"verify summary not ok: {summary}")
        expect(summary["mds_subsets"] == samples
               and summary["repair_jobs"] == samples,
               f"verify checked fewer than {samples} samples: {summary}")

    def verify(self, timed=True):
        self.check_verify(self.call("verify", self.verify_argv(), timed))

    # -- phases -----------------------------------------------------------------

    def setup_once(self, index):
        """Seeded payload, cold encode of a fresh reference directory, and one
        untimed warm-up of each operation; returns the directory."""
        ref = self.work / f"setup{index}"
        self.payload = random.Random(self.seed).randbytes(self.spec["payload"])
        (self.work / "payload.bin").write_bytes(self.payload)
        with self.checks.op(f"setup {index} encode"):
            rec = self.encode(ref, timed=False)
            width = ((rec["p"] - 1).bit_length() + 7) // 8
            stripes = -(-len(self.payload) // (self.k * self.alpha))
            expect(rec["stripes"] == stripes, "unexpected stripe count")
            self.stripes = stripes
            self.expected_cross_rack = self.d_bar * self.beta * stripes * width
            self.shard_bytes = rec["shard_bytes"]
        deg = self.work / f"degraded{index}"
        shutil.copytree(ref, deg)
        for node in range(self.r):
            shard(deg, node, self.u).unlink()
        with self.checks.op(f"setup {index} decode"):
            self.decode(deg, timed=False)
        rep = self.work / f"repair{index}"
        shutil.copytree(ref, rep)
        self.ref_files = dir_bytes(ref)
        with self.checks.op(f"setup {index} repair"):
            self.repair(rep, self.n - 1, timed=False)
        with self.checks.op(f"setup {index} verify"):
            self.verify(timed=False)
        return ref

    def setup(self):
        """SETUP_REPEATS set-ups; all must give byte-identical shards."""
        seconds, digests = [], []
        for index in range(SETUP_REPEATS):
            start = time.perf_counter()
            ref = self.setup_once(index)
            seconds.append(time.perf_counter() - start)
            digests.append({name: hashlib.sha256(blob).hexdigest()
                            for name, blob in dir_bytes(ref).items()})
        with self.checks.op("determinism self-check"):
            expect(all(d == digests[0] for d in digests),
                   "the same seed built different shard directories")
        self.ref_files = dir_bytes(self.work / "setup0")
        self.degraded = self.work / "degraded0"
        self.rep_dir = self.work / "repair0"
        self.enc_dir = self.work / "encoded"
        return seconds

    def cycle(self):
        with self.checks.op("encode"):
            self.encode(self.enc_dir)
            self.check_encode(self.enc_dir)
        with self.checks.op("decode"):
            self.decode(self.degraded)
        if self.tracer is None:
            self.cold()
        for _ in range(self.spec["verifies"]):
            with self.checks.op("verify"):
                self.verify()
        for node in range(self.n):
            with self.checks.op(f"repair node {node}"):
                self.repair(self.rep_dir, node)

    def loop(self, seconds):
        """Closed loop of at least MIN_CYCLES cycles that ends as close to
        `seconds` as whole cycles allow.  Under tracing, cycles alternate between traced and untraced so the
        tracing overhead is measured in-run."""
        start = time.perf_counter()
        cycles = 0
        elapsed = 0.0
        while cycles < MIN_CYCLES or elapsed + elapsed / cycles / 2 < seconds:
            if self.tracer is not None:
                if cycles % 2 == 0:
                    self.tracer.install()
                else:
                    self.tracer.uninstall()
            self.cycle()
            cycles += 1
            elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.uninstall()
        else:
            while self.cold_runs < MIN_COLD:
                self.cold()
        return cycles

    def cold(self):
        """One fresh-interpreter CLI call, checked like the in-process ones."""
        index = self.cold_runs
        self.cold_runs += 1
        with self.checks.op(f"cold {self.spec['cold']} {index}"):
            if self.spec["cold"] == "repair":
                node = index % self.n
                path = shard(self.rep_dir, node, self.u)
                path.unlink()
                argv = ["repair", "--in", str(self.rep_dir), "--rack",
                        str(node // self.u), "--node", str(node % self.u)]
            else:
                argv = self.verify_argv()
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "msrr.cli", *argv], cwd=ROOT,
                env=CHILD_ENV, capture_output=True, text=True, timeout=120)
            elapsed = time.perf_counter() - start
            expect(proc.returncode == 0,
                   f"cold CLI exited {proc.returncode}: {proc.stderr}")
            records = [json.loads(line) for line in proc.stdout.splitlines()]
            if self.spec["cold"] == "repair":
                self.check_repair(records[0], path)
            else:
                self.check_verify(records)
            self.cold_times.append(elapsed)


def import_ms():
    """Median wall time of `import msrr.cli` in fresh interpreters."""
    script = ("import time; t = time.perf_counter(); import msrr.cli; "
              "print(time.perf_counter() - t)")
    samples = [float(subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=CHILD_ENV, check=True,
        capture_output=True, text=True, timeout=120).stdout)
        for _ in range(MIN_COLD)]
    return 1000.0 * statistics.median(samples)


def end_to_end(bench, setup_seconds):
    times = bench.times
    payload_mib = len(bench.payload) / MIB
    tail_s, tail_pct = tail(times["repair"])
    info = {"repair_tail_percentile": tail_pct,
            "samples": {kind: len(values) for kind, values in times.items()},
            "cold_runs": bench.cold_runs,
            "setup_repeats": len(setup_seconds)}
    metrics = {
        "encode_MiBps": payload_mib / median(times["encode"]),
        "decode_MiBps": payload_mib / median(times["decode"]),
        "repair_MiBps": bench.shard_bytes / MIB / median(times["repair"]),
        "repair_tail_ms": 1000.0 * tail_s,
        "verify_samples_per_s":
            bench.spec["samples"] / median(times["verify"]),
        "setup_s": median(setup_seconds),
        "peak_rss_MiB":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_cold_s": median(bench.cold_times),
    }
    return metrics, info


def per_layer(bench, tracer):
    """Per-op medians over traced operations of every layer metric."""
    per_op = tracer.per_op()
    by_kind = {}
    for op, (kind, seconds, read, written) in bench.traced_ops.items():
        values = dict(per_op.get(op, {}))
        values["stripe_io.read_MiB"] = read / MIB
        values["stripe_io.write_MiB"] = written / MIB
        values["untraced_ms"] = 1000.0 * seconds - tracer.root_ms(op)
        by_kind.setdefault(kind, []).append(values)
    metrics = {}
    for kind, ops in by_kind.items():
        for key in set().union(*ops):
            metrics[f"{kind}.{key}"] = median([v.get(key, 0.0) for v in ops])
        metrics[f"{kind}.trace_overhead_ms"] = 1000.0 * (
            median(bench.traced_times[kind]) - median(bench.times[kind]))
    expected = bench.d_bar * bench.beta * bench.stripes
    for op, (kind, *_) in bench.traced_ops.items():
        if kind == "repair":
            with bench.checks.op(f"traced cross-rack count of op {op}"):
                counted = per_op[op].get("repair.cross_rack_symbols")
                expect(counted == expected,
                       f"helper messages carried {counted} symbols, "
                       f"d_bar*beta*stripes = {expected}")
    metrics["cli.import_ms"] = import_ms()
    return metrics, {"missing": tracer.missing,
                     "traced_ops": len(bench.traced_ops)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "msrr" / "cli.py").is_file():
        print(f"error: no msrr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    os.environ.update(THREAD_ENV)   # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from tracer import Tracer   # perfbench/tracer.py, next to this file

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        bench = Bench(args.workload, args.seed, work, tracer)
        setup_seconds = bench.setup()
        cycles = bench.loop(args.seconds)
        if tracer is None:
            metrics, info = end_to_end(bench, setup_seconds)
        else:
            metrics, info = per_layer(bench, tracer)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            (out / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"ops": bench.traced_ops, **tracer.dump()}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    result = {}
    for entry in declared:
        value = metrics.get(entry["name"], 0.0)
        if not math.isfinite(value):   # no sample: its ops all failed
            value = 0.0
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    unknown = sorted(e["name"] for e in declared if e["name"] not in metrics)
    info.update({
        "workload": args.workload, "code": bench.code,
        "payload_bytes": len(bench.payload), "cycles": cycles,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": NPROC, "not_measured": unknown,
        "storage": "files in the checkout; latencies are page-cache "
                   "latencies, not a device's",
    })
    print(json.dumps({"info": info}))
    checks = bench.checks
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
