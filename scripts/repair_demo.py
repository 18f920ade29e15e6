#!/usr/bin/env python3
"""End-to-end demo: stripe a random file, lose shards, decode and repair.

Runs entirely in a temporary directory and prints what each step moved.
"""

import argparse
import hashlib
import os
import tempfile
import time
from pathlib import Path

from msrr import CodeParams, decode_file, encode_file, repair_shard
from msrr.stripe_io import shard_name


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--racks", type=int, default=4)
    parser.add_argument("--nodes-per-rack", type=int, default=2)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--helpers", type=int, default=3)
    parser.add_argument("--size-mib", type=float, default=4.0)
    args = parser.parse_args()

    params = CodeParams.from_total_k(args.racks, args.nodes_per_rack,
                                     args.k, args.helpers)
    payload = os.urandom(int(args.size_mib * (1 << 20)))
    digest = hashlib.sha256(payload).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "payload.bin"
        src.write_bytes(payload)

        started = time.monotonic()
        manifest = encode_file(src, tmp / "shards", params)
        print(f"encode: {manifest.stripe_count} stripes over "
              f"{params.n} shards, p={manifest.p}, "
              f"{time.monotonic() - started:.2f}s")

        victims = [params.node_pair(i) for i in range(params.r)]
        for e, g in victims:
            (tmp / "shards" / shard_name(e, g)).unlink()
        started = time.monotonic()
        _, length, missing = decode_file(tmp / "shards", tmp / "restored.bin")
        ok = hashlib.sha256((tmp / "restored.bin").read_bytes()).hexdigest() == digest
        print(f"decode: lost {missing}, rebuilt {length} bytes, "
              f"checksum_ok={ok}, {time.monotonic() - started:.2f}s")

        manifest = encode_file(src, tmp / "shards2", params)
        target = tmp / "shards2" / shard_name(0, 0)
        original = target.read_bytes()
        target.unlink()
        started = time.monotonic()
        _, job, _ = repair_shard(tmp / "shards2", 0, 0)
        identical = target.read_bytes() == original
        costs, width = params.repair_symbols(), manifest.symbol_width_bytes
        cross = costs["cross_rack_symbols"]
        print(f"repair: node (0, 0) from helper racks {list(job.helpers)}, "
              f"{cross} cross-rack symbols/stripe "
              f"({cross * manifest.stripe_count * width} bytes total), "
              f"{costs['intra_rack_symbols']} intra-rack symbols/stripe, "
              f"byte_identical={identical}, {time.monotonic() - started:.2f}s")
        naive = (params.k - params.u + 1) * params.alpha
        print(f"traffic vs naive decode: {cross} vs {naive} symbols per stripe "
              f"({cross / naive:.2f}x)")


if __name__ == "__main__":
    main()
