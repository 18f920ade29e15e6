#!/usr/bin/env python3
"""Sweep a parameter grid and tabulate sub-packetization and repair traffic.

For each admissible (racks, nodes-per-rack, residual, helper) combination the
table shows alpha against the one-rack-per-digit baseline s_bar^n_bar, and the
cross-rack repair cost against naively decoding from k - u + 1 remote nodes.
"""

import argparse

from msrr import CodeParams
from msrr.errors import ParameterError

COLUMNS = ("racks u u0 k d alpha baseline cross naive ratio field_p").split()


def rows(max_racks: int, max_u: int):
    from msrr.field import find_field
    for n_bar in range(2, max_racks + 1):
        for u in range(2, max_u + 1):
            for u0 in range(u):
                for k_bar in range(1, n_bar):
                    for d_bar in range(k_bar, n_bar):
                        try:
                            params = CodeParams(n_bar=n_bar, u=u, u0=u0,
                                                k_bar=k_bar, d_bar=d_bar)
                            p = find_field(u, params.n)
                        except ParameterError:
                            continue
                        cross = params.repair_symbols()["cross_rack_symbols"]
                        naive = (params.k - u + 1) * params.alpha
                        yield (n_bar, u, u0, params.k, d_bar, params.alpha,
                               params.s_bar**n_bar, cross, naive,
                               f"{cross / naive:.3f}", p)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-racks", type=int, default=8)
    parser.add_argument("--max-nodes-per-rack", type=int, default=4)
    args = parser.parse_args()

    print(" ".join(f"{c:>8}" for c in COLUMNS))
    for row in rows(args.max_racks, args.max_nodes_per_rack):
        print(" ".join(f"{v:>8}" for v in row))


if __name__ == "__main__":
    main()
