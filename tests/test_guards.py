"""Guards against removed code coming back.

Each row of :data:`GUARDS` is one check: an extended regular expression,
the paths searched for it (a directory is searched recursively), why
what it matches must not return, the change that removed it (as its
CHANGES.md entry names it), and how many lines of those paths must
match — 0 for every row but one.  A new guard is one more row, and a
failure names its reason and the lines that matched.

Each pattern keeps one letter in brackets, so that no row matches the
text of this file, which the widest rows search too.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: What the widest rows search: all code, tests, CI and build notes.
EVERYWHERE = ("src", "tests", "examples", "benchmarks", ".github", ".claude")
FIGURE_RUNNERS = (
    "src/repro/harness/runners.py",
    "src/repro/harness/ablations.py",
    "src/repro/harness/motivation.py",
)
MC_CLIENT = ("src/repro/memcached/client.py",)


@dataclass(frozen=True)
class Guard:
    pattern: str
    paths: tuple[str, ...]
    reason: str
    change: str
    #: Lines of *paths* that must match: exactly this many.
    count: int = 0


GUARDS = [
    Guard(
        r"Batch[G]ate|\b_coalesc[e]\b|transfer_batc[h]|delivery_time_batc[h]"
        r"|coalesc[e]=|singlefligh[t]=|io_gat[e]|cpu_gat[e]|imca\.fastpat[h]|fastpat[h]=",
        EVERYWHERE,
        "Get/stat singleflight is always on and free when alone: no fast-path "
        "knob, same-instant window or scalar twin (DESIGN §15).",
        "one op path: get/stat singleflight",
    ),
    Guard(
        r"reserve_batc[h]|run_batc[h]|TimeWindo[w]|tier[2]",
        EVERYWHERE,
        "One scheduler and one station primitive: no batched station "
        "reservation or second kernel speed tier kept only to be benchmarked.",
        "one benchmark report, and no code kept only to be benchmarked",
    ),
    Guard(
        r"def _[a-z0-9_]*_jo[b]\(|def _(glust[e]r|lustr[e]|buil[d])\(",
        FIGURE_RUNNERS,
        "The figure sweeps are Points measured by harness/sweep.py; only the "
        "feature experiments keep their own jobs and build helpers (DESIGN §4).",
        "the paper's figures are tables of points",
    ),
    Guard(
        r"def _le[g]\(",
        MC_CLIENT,
        "A batch leg is a booked callback (repro.net.rpc.Leg), not a generator "
        "driven by a strand.",
        "a batch leg is a booked callback",
    ),
    Guard(
        r"_primarie[s]: dict\[str, int\] = \{\}",
        MC_CLIENT,
        "A client's owner memo is the membership's table for its selector, "
        "never a private dict.",
        "one key table and one owner table per testbed",
    ),
    Guard(
        r"harness/shardin[g]|harness\.shardin[g]|--shard[s]|max_fill_range[s]|readahead_min_se[q]",
        ("src",),
        "A setting nothing moves off its default is a module constant, and the "
        "sharding layer went with the last one that moved it.",
        "every setting has a caller",
    ),
    Guard(
        r"setdefault\(cls\.index, OrderedDic[t]\(\)\)",
        ("src",),
        "The engine stores a batch in one loop: no LRU built and thrown away "
        "per insert.",
        "one store loop per layer",
    ),
    Guard(
        r"eng\.se[t]\(",
        ("src/repro/memcached/daemon.py",),
        "The daemon hands the engine the whole batch, not one item at a time.",
        "one store loop per layer",
    ),
    Guard(
        r": dict\[str, (dict|list)\[",
        ("src/repro/core/keys.py",),
        "The key table keeps one key list per path; reads, pushes, fills and "
        "purges all slice it (no second per-path dict of the keys).",
        "load only what runs: one string per cached key",
        count=1,
    ),
    Guard(
        r"_latest_fre[e]|def delivery_tim[e]",
        ("src",),
        "A station's backlog is the max of its free heap, and a message is one "
        "pass in Network.transfer (no delivery-time helper).",
        "a message books its queue and nothing else",
    ),
    Guard(
        r"_call_or_non[e]|_call_tracke[d]|_call_deadline[d]|mcd_retrie[s]",
        ("src",),
        "An MCD RPC under a health policy is a callback leg: no strand path, "
        "no deadline raced as a child process, no MCD retries.",
        "one MCD leg under faults",
    ),
    Guard(
        r"uses_hin[t]|_hinte[d]|_NO_MEM[O]|_fanout_widt[h]|replica_pushe[s]",
        ("src",),
        "A key is its own route: no block ordinal rides beside it, and SMCache "
        "estimates no replica legs its client already counts.",
        "a key names its own MCD",
    ),
    Guard(
        r"ReadAheadXlato[r]|WriteBehindXlato[r]|DistributeXlato[r]",
        ("src",),
        "No testbed builds a read-ahead, write-behind or distribute translator: "
        "the client stack is [CMCache] over protocol/client (DESIGN §3).",
        "delete the code nothing runs",
    ),
    Guard(
        r"num_brick[s]|cfg\.stripe_siz[e]",
        ("src",),
        "The GlusterFS testbed has one brick (§5.1), and Lustre's stripe size is "
        "the constant LUSTRE_STRIPE_SIZE: nothing but tests moved either.",
        "delete the code nothing runs",
    ),
    Guard(
        r"Landin[g]",
        ("src",),
        "A strand returns plainly; a child that lands its value later is a "
        "JoinChild calling land(value, at), as every RPC leg does.",
        "delete the code nothing runs",
    ),
    Guard(
        r"has_active_window[s]|holder_coun[t]",
        ("src",),
        "Methods only tests called: a test reads the membership's windows or "
        "the lock's granted set itself.",
        "delete the code nothing runs",
    ),
    Guard(
        r"intervals_equa[l]",
        ("src",),
        "Nothing compares two interval lists as content since "
        "ReadResult.same_content went; only a test called the helper.",
        "a cached read and a block push pay per batch",
    ),
    Guard(
        r"sim\.monito[r]|\bTraceRecor[d]\b|from repro\.sim import[^\n]*\b(Tracer|Metric[s])\b",
        EVERYWHERE,
        "One tracer and one metrics bag, both in obs/: the kernel's own "
        "tracer, its record type and its metrics bag had no caller outside "
        "their tests.",
        "a cache RPC pays its fixed cost once",
    ),
    Guard(
        r"arrival_cp[u]|ArrivalCp[u]|_UNREGISTERE[D]|\brequest_size\(op|command_cp[u]\(",
        ("src", "examples", "benchmarks"),
        "A memcached command is priced once, by its caller (command_cost): "
        "no arrival-CPU declaration on the service, no second pricing pass.",
        "a cache RPC pays its fixed cost once",
    ),
    Guard(
        r"PriorityResourc[e]|\bContaine[r]\b|repro\.sim\.resource[s]|sim/resources\.p[y]",
        EVERYWHERE,
        "The model's stations are analytic FIFOs; the event-driven pool they "
        "are measured against lives in tests/sim/reference_station.py, and "
        "the priority pool and the bulk level had no caller.",
        "shrink sim/ to the kernel the model runs",
    ),
    Guard(
        r"FilterStor[e]|Store\([^)]*capacit[y]",
        EVERYWHERE,
        "The one mailbox (SMCache's update queue) is an unbounded FIFO: no "
        "bounded mode and no predicate getters.",
        "shrink sim/ to the kernel the model runs",
    ),
    Guard(
        r"CountdownLatc[h]|from repro\.sim(\.sync)? import[^\n]*\bLoc[k]\b",
        EVERYWHERE,
        "The workloads' barrier is the one sync primitive; the latch and the "
        "mutex had no caller outside their tests.",
        "shrink sim/ to the kernel the model runs",
    ),
    Guard(
        r"AnyO[f]|\ban[y]_of\(|ConditionValu[e]|class Conditio[n]\b",
        EVERYWHERE,
        "AllOf is the kernel's one condition: a race against a deadline is a "
        "timed leg, and only a test-local reference keeps the old race.",
        "shrink sim/ to the kernel the model runs",
    ),
]


def _files(path: Path):
    if path.is_file():
        yield path
        return
    for f in sorted(path.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            yield f


def _matches(guard: Guard) -> list[str]:
    regex = re.compile(guard.pattern)
    hits = []
    for rel in guard.paths:
        path = ROOT / rel
        # A path that has gone would make its row pass unseen.
        assert path.exists(), f"guarded path {rel} does not exist"
        for f in _files(path):
            text = f.read_bytes().decode("utf-8", errors="replace")
            for n, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{f.relative_to(ROOT)}:{n}: {line.strip()}")
    return hits


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.pattern[:40])
def test_removed_code_stays_removed(guard):
    hits = _matches(guard)
    assert len(hits) == guard.count, (
        f"{guard.reason} (removed by: {guard.change}); "
        f"want {guard.count} matching lines, found {len(hits)}:\n" + "\n".join(hits)
    )

