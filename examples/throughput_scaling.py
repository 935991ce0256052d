#!/usr/bin/env python
"""Reproduce the shape of Fig 9: IOzone read throughput vs MCD count.

Runs the IOzone-like benchmark with modulo (round-robin) block
placement — "we replace the standard CRC32 hash function ... with a
static modulo function for distributing the data across the cache
servers" (§5.5) — and shows aggregate read throughput growing with the
number of cache servers while NoCache stays pinned to the single
server's NIC.

Run:  python examples/throughput_scaling.py [--threads N] [--file-mib N]
"""

import argparse

from repro import TestbedConfig, build_gluster_testbed
from repro.core import IMCaConfig
from repro.harness import render_series_table
from repro.util import KiB, MiB, fmt_rate
from repro.workloads import run_iozone


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threads", type=int, default=8, help="IOzone threads (client nodes)")
    ap.add_argument("--file-mib", type=int, default=8, help="file size per thread (MiB)")
    args = ap.parse_args()

    mcd_axis = [0, 1, 2, 4]
    throughputs = []
    for m in mcd_axis:
        tb = build_gluster_testbed(
            TestbedConfig(
                num_clients=args.threads,
                num_mcds=m,
                imca=IMCaConfig(selector="modulo"),
            )
        )
        io = run_iozone(
            tb.sim,
            tb.clients,
            file_size=args.file_mib * MiB,
            record_size=256 * KiB,
        )
        throughputs.append(io.read_throughput)
        label = "NoCache" if m == 0 else f"{m} MCD(s)"
        print(f"  {label:>10}: read {fmt_rate(io.read_throughput)}  "
              f"(write {fmt_rate(io.write_throughput)})")

    print()
    print(render_series_table("MCDs", mcd_axis, {"read throughput": throughputs},
                              {"read throughput": "B/s"}))
    ratio = throughputs[-1] / throughputs[0]
    print(f"\n{mcd_axis[-1]} MCDs deliver {ratio:.2f}x the NoCache read throughput "
          f"(paper: 868/417 = 2.1x with 8 threads)")


if __name__ == "__main__":
    main()
