"""Generate EXPERIMENTS.md: paper-vs-measured for every figure.

Usage::

    python -m repro.harness.experiments_md [scale] [output-path]

Runs every registered experiment at the given scale (default:
``default``) and writes a markdown report with each figure's series
table and the evaluation of the paper's claims.
"""

from __future__ import annotations

import sys
import time

from repro.harness.experiment import all_experiments
from repro.harness.report import render_series_table

#: What the paper reports, quoted per experiment (shown next to ours).
PAPER_CLAIMS: dict[str, list[str]] = {
    "fig1": [
        "Read bandwidth is ordered NFS/RDMA > NFS/IPoIB > NFS/GigE while the "
        "working set fits in server memory.",
        "Bandwidth 'falls off as the server runs out of memory and is forced "
        "to fetch data from the disk'; with 8 GB the cliff moves right of the "
        "4 GB configuration.",
    ],
    "fig5": [
        "At 64 clients with 1 MCD: 82% reduction in total stat time vs NoCache.",
        "Miss rate with >= 2 MCDs is zero; gains beyond 2 MCDs come from "
        "spreading protocol load (23% from 4 to 6 MCDs) — diminishing returns.",
        "GlusterFS + 6 MCDs completes the stat workload 86% faster than "
        "Lustre with 4 data servers; +1 MCD beats Lustre-4DS by 56%.",
    ],
    "fig6a": [
        "1-byte reads: 45% latency reduction with a 2K block, 31% with 8K, "
        "59% with 256B, all vs NoCache.",
        "Lustre-4DS warm is lowest overall (client cache); cold Lustre is "
        "'closer to IMCa in terms of performance'.",
    ],
    "fig6b": [
        "Beyond 8K records NoCache beats IMCa-256 (multiple MCD trips); "
        "NoCache 'has the lowest latency overall as the record size is "
        "further increased'.",
    ],
    "fig6c": [
        "IMCa write latency is worse than NoCache (read-back in the critical "
        "path); the update thread reduces it 'to the same value as without "
        "the cache'.",
    ],
    "fig7": [
        "32 clients, 1-byte reads: 82% reduction with 4 MCDs vs NoCache.",
        "Capacity misses appear with 1 MCD and are reduced by more MCDs.",
        "Lustre cold wins below 32 bytes; IMCa (4 MCD) wins beyond; IMCa's "
        "latency grows more slowly with record size than Lustre's.",
    ],
    "fig8": [
        "Read latency at 32 clients is higher than at 1 client and increases "
        "with record size, driven by growing MCD capacity misses.",
    ],
    "fig9": [
        "868 MB/s with 8 threads and 4 MCDs — almost 2x NoCache (417 MB/s) "
        "and above Lustre-1DS cold (325 MB/s); more cache servers help.",
    ],
    "fig10": [
        "45% read-latency reduction at 32 nodes with 1 MCD over NoCache; the "
        "benefit grows with node count; time still rises linearly (single "
        "MCD serialises the synchronized readers).",
    ],
    "hotspot": [
        "§4.2/Fig 10: the CRC32 map pins every hot key (e.g. a shared "
        "file's ``:stat`` entry) to a single daemon, which serialises the "
        "synchronized readers.",
        "§7 names 'different hashing algorithms' as future work; R-way "
        "replication (reads spread over replicas, writes/purges fan out to "
        "all of them) flattens hot-key load without weakening the §4.3.2 "
        "coherence argument.",
    ],
    "chaos": [
        "§4.4: data is written to the file system before the MCDs, so an MCD "
        "crash can never lose data — 'the failure of one or more MCDs will "
        "not impact the correct functioning of the file system'.",
        "Keys on a failed MCD simply miss and requests fall through to the "
        "server path; performance degrades with the number of failed "
        "daemons and recovers when they return (cold).",
    ],
    "elastic": [
        "§7 names 'dynamically reconfiguring the number of MCDs "
        "depending on the load on the file system' as future work; the "
        "static CRC32+mod map makes any resize remap nearly every key.",
        "§4.4's fault argument (MCDs hold no dirty state, so losing one "
        "only costs hits) extends to planned resizes: with a consistent "
        "ring, adding or draining one of n+1 daemons should disturb "
        "about 1/(n+1) of the key space and nothing else.",
    ],
    "readpath": [
        "§4.3/§5.4: the latency win assumes full hits; a partial hit used "
        "to degrade to a full server read.  Filling only the missing "
        "(coalesced) ranges must improve mean and p99 latency at hit "
        "ratios >= 25% without changing a returned byte.",
        "§4.2's close-to-open consistency window licenses a client-side "
        "hot tier for files held open: repeat reads cost zero round "
        "trips, and the client's own writes invalidate immediately.",
        "Sequential streams prefetch ahead through the server (whose "
        "SMCache unwind populates the array), so the next multi-get "
        "hits; random access never triggers the prefetcher.",
    ],
}


def generate(scale: str = "default") -> str:
    lines: list[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"All experiments run at scale **{scale}** "
        "(regenerate: `python -m repro.harness.experiments_md " + scale + "`).",
        "",
        "The substrate is a calibrated simulator, not the authors' 2008",
        "InfiniBand testbed, so absolute values differ; each table below is",
        "followed by the paper's claims and the measured verdicts on the",
        "corresponding *shape* (who wins, rough factors, crossovers).",
        "",
    ]
    total_pass = total_checks = 0
    for exp in all_experiments():
        t0 = time.time()
        result = exp.run(scale)
        elapsed = time.time() - t0
        lines.append(f"## {exp.figure} — {exp.title} (`{exp.id}`)")
        lines.append("")
        lines.append(exp.description)
        lines.append("")
        for note in result.notes:
            lines.append(f"*{note}*")
            lines.append("")
        lines.append("```")
        lines.append(
            render_series_table(result.x_name, result.x_values, result.series, result.units)
        )
        lines.append("```")
        lines.append("")
        claims = PAPER_CLAIMS.get(exp.id)
        if claims:
            lines.append("**Paper reports:**")
            lines.append("")
            for claim in claims:
                lines.append(f"- {claim}")
            lines.append("")
        lines.append("**Measured verdicts:**")
        lines.append("")
        for c in result.checks:
            mark = "✅" if c.passed else "❌"
            lines.append(f"- {mark} {c.name} — {c.detail}")
            total_checks += 1
            total_pass += c.passed
        for key, value in result.extras.items():
            if isinstance(value, str) and "\n" in value:
                lines.append(f"- extra `{key}`:")
                lines.append("")
                lines.append("```")
                lines.extend(value.splitlines())
                lines.append("```")
            else:
                lines.append(f"- extra `{key}`: {value}")
        lines.append("")
        lines.append(f"*(ran in {elapsed:.1f}s wall time)*")
        lines.append("")
    lines.insert(
        4,
        f"**Overall: {total_pass}/{total_checks} shape checks pass.**",
    )
    lines.insert(5, "")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    scale = argv[1] if len(argv) > 1 else "default"
    out_path = argv[2] if len(argv) > 2 else "EXPERIMENTS.md"
    text = generate(scale)
    with open(out_path, "w") as fh:
        fh.write(text + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv))
