"""Online statistics, histograms and named counters.

Workloads record per-operation latencies; these classes accumulate them
without retaining every sample (the paper's benchmarks average 1024
operations per record size — at paper scale a naive list would hold tens
of millions of floats).
"""

from __future__ import annotations

import math
from typing import Callable, Optional


class OnlineStats:
    """Welford's online mean/variance with min/max tracking."""

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def merge(self, other: "OnlineStats") -> None:
        """Fold *other* into *self* (parallel variance merge)."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OnlineStats(n={self.n}, mean={self.mean:.3g}, stdev={self.stdev:.3g})"


class Histogram:
    """Log-scaled latency histogram.

    Buckets are powers of ``base`` starting at ``lo``; everything below
    ``lo`` lands in bucket 0 and everything above the top bucket in the
    last.  Exposes approximate percentiles.
    """

    def __init__(self, lo: float = 1e-7, hi: float = 10.0, base: float = 2.0) -> None:
        if not (lo > 0 and hi > lo and base > 1):
            raise ValueError("require lo > 0, hi > lo, base > 1")
        self.lo = lo
        self.base = base
        self._log_lo = math.log(lo, base)
        nbuckets = int(math.ceil(math.log(hi / lo, base))) + 2
        self.counts = [0] * nbuckets
        self.stats = OnlineStats()

    def _bucket(self, x: float) -> int:
        if x <= self.lo:
            return 0
        idx = int(math.log(x, self.base) - self._log_lo) + 1
        return min(idx, len(self.counts) - 1)

    def add(self, x: float) -> None:
        self.counts[self._bucket(x)] += 1
        self.stats.add(x)

    @property
    def n(self) -> int:
        return self.stats.n

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (0 < p <= 100).

        Returns the *upper edge* of the bucket containing that rank —
        ``lo * base**i`` for bucket ``i`` — clamped to the observed
        maximum, so the result never exceeds any recorded sample.  The
        clamp matters at both extremes: bucket 0 collects values at or
        below ``lo`` (which may be far below it), and the overflow
        bucket collects everything above ``hi``; without it those
        buckets would report edges no sample ever reached.
        ``percentile(100)`` therefore equals the exact maximum.
        """
        if not 0 < p <= 100:
            raise ValueError("p must be in (0, 100]")
        if self.n == 0:
            # No samples: any number would be an invention (the clamp
            # below would yield -inf).  Callers wanting a soft default
            # should check ``n`` first, as ``summary()`` does.
            raise ValueError("percentile of an empty histogram is undefined")
        rank = math.ceil(self.n * p / 100.0)
        seen = 0
        edge = self.lo * self.base ** (len(self.counts) - 1)
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                edge = self.lo * self.base ** i
                break
        return min(edge, self.stats.max)

    def summary(self) -> dict[str, float]:
        """``{p50, p95, p99, mean, max}`` — the exporters' digest.

        An empty histogram reports explicit zeros (not the raising
        :meth:`percentile`): exporters tabulate dozens of histograms
        and an idle component must not abort the export.
        """
        if self.n == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
        return {
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "mean": self.stats.mean,
            "max": self.stats.max,
        }

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into *self*; bucketings must be identical.

        A positional merge across different layouts would silently
        misfile every sample, so this raises — naming both layouts so
        the mismatched construction site is findable.
        """
        if (
            other.lo != self.lo
            or other.base != self.base
            or len(other.counts) != len(self.counts)
        ):
            raise ValueError(
                "cannot merge histograms with different bucketings: "
                f"self(lo={self.lo!r}, base={self.base!r}, "
                f"buckets={len(self.counts)}) vs "
                f"other(lo={other.lo!r}, base={other.base!r}, "
                f"buckets={len(other.counts)})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.stats.merge(other.stats)


class Counter:
    """A named bag of integer counters (hits, misses, evictions, ...).

    Every read — :attr:`values`, :meth:`get`, :meth:`as_dict`, ``[]``,
    a merge — first runs the bag's ``pulls``: folds that add the counts
    components keep outside it (:class:`Tally`)."""

    __slots__ = ("_values", "pulls")

    def __init__(self, values: Optional[dict[str, int]] = None) -> None:
        self._values: dict[str, int] = {} if values is None else values
        self.pulls: list[Callable[[dict[str, int]], None]] = []

    @property
    def values(self) -> dict[str, int]:
        values = self._values
        for fold in self.pulls:
            fold(values)
        return values

    def inc(self, name: str, by: int = 1) -> None:
        # In-place add with an EAFP miss branch beats dict.get by ~40%.
        values = self._values
        try:
            values[name] += by
        except KeyError:
            values[name] = by

    def get(self, name: str, default: int = 0) -> int:
        return self.values.get(name, default)

    def merge(self, other: "Counter") -> None:
        for k, v in other.values.items():
            self.inc(k, v)

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)

    def __getitem__(self, name: str) -> int:
        return self.get(name)


class _Unmoved:
    """A tally before its first count: falsy, and the first ``+=`` or
    ``-=`` on it — of 0 too — puts its key into the counter at 0, where
    :meth:`Counter.inc` would have put it, and leaves a plain int."""

    __slots__ = ("values", "key")

    def __init__(self, values: dict[str, int], key: str) -> None:
        self.values = values
        self.key = key

    def __bool__(self) -> bool:
        return False

    def __add__(self, n: int) -> int:
        self.values.setdefault(self.key, 0)
        return n

    def __sub__(self, n: int) -> int:
        self.values.setdefault(self.key, 0)
        return -n


class Tally:
    """Hot counts kept as plain int attributes, read only when asked.

    A subclass lists its counter's tallied keys in ``TALLY`` and counts
    key *k* with ``self._n_<k> += n``, entering no frame.  Its counter,
    when read, adds each attribute to its key and zeroes it.  A key's
    first count — a zero included — puts the key in the counter, at
    the moment and in the place :meth:`Counter.inc` would have, so a
    reader sees eager counting's keys, values and key order."""

    __slots__ = ()

    TALLY: tuple[str, ...] = ()

    def _tally(self, counter: Counter) -> Counter:
        values = counter._values
        for key in self.TALLY:
            setattr(self, "_n_" + key, _Unmoved(values, key))
        counter.pulls.append(self._fold)
        return counter

    def _fold(self, values: dict[str, int]) -> None:
        for key in self.TALLY:
            attr = "_n_" + key
            n = getattr(self, attr)
            if n:
                setattr(self, attr, 0)
                # (A key is missing only from a counter somebody cleared.)
                values[key] = values.get(key, 0) + n
