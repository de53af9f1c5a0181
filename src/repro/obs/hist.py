"""Mergeable log-bucket histograms for latency distributions.

:class:`~repro.sim.stats.RunningStats` answers "what is the mean and
spread"; it cannot answer "what is p99 hop latency", which is the
question every ROADMAP throughput/latency workload actually asks.
:class:`Histogram` answers it with fixed *logarithmic* buckets — eight
linear sub-buckets per power of two, so every bucket is at most 12.5%
wide and a reported quantile is within ~6% of the true value — while
keeping the three properties the rest of the repo demands:

* **cheap to feed** — the hot path is a list append; bucketing
  (``math.frexp`` + dict increments) is deferred and batch-amortized
  at the first readout or when the pending buffer fills, the same
  data-plane/scrape-path split production telemetry clients use
  (benchmark C12 gates the feed cost against a plain counter
  increment and reports the deferred flush cost separately);
* **exactly mergeable** — bucket counts are integers, so folding the
  per-trial snapshots of a fault campaign, or the per-region snapshots
  of a sharded fleet run, back together is integer addition: the merged
  bucket counts, and the quantiles computed from them, equal those of
  one histogram fed every sample;
* **JSON round-trippable** — :meth:`as_dict`/:meth:`from_dict` lose
  nothing the quantiles need, because the quantiles are computed from
  the buckets in the first place.

Values ≤ 0 (a latency can legitimately be exactly zero under virtual
time) land in a dedicated underflow bucket whose representative value
is 0.0.
"""

from __future__ import annotations

import math
from math import frexp as _frexp
from typing import Any

__all__ = ["Histogram", "ZERO_BUCKET"]

#: Bucket index for samples ≤ 0 — far below any frexp-derived index
#: (double exponents span roughly [-1074, 1024]).
ZERO_BUCKET = -(1 << 20)

#: Sub-buckets per power of two (bucket width = 1/8 of the octave).
_SUBDIV = 8

#: Pending samples are bucketed in batches of at most this many, so an
#: unread histogram holds bounded memory (~0.5 MB of floats) however
#: long the run.  Readouts always flush first.
_FLUSH_AT = 65_536

#: The default quantiles :meth:`Histogram.as_dict` reports.
QUANTILES = (0.5, 0.9, 0.99)


class Histogram:
    """A fixed-log-bucket distribution with p50/p90/p99/max readouts."""

    __slots__ = ("_count", "_total", "_min", "_max", "_counts", "_pending")

    def __init__(self) -> None:
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: bucket index -> sample count (int keys; see :func:`bucket_index`)
        self._counts: dict[int, int] = {}
        self._pending: list[float] = []

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def observe(self, value: float, count: int = 1) -> None:
        """Add a sample.  This is the hot path — an append, no math.

        ``count > 1`` records the same value ``count`` times (one call
        per batch instead of one per element); the single-sample path
        stays a bare append.
        """
        pending = self._pending
        if count == 1:
            pending.append(value)
        else:
            pending.extend([value] * count)
        if len(pending) >= _FLUSH_AT:
            self._flush()

    def _flush(self) -> None:
        """Bucket everything pending (batch-amortized, read-triggered)."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self._count += len(pending)
        self._total += sum(pending)
        low, high = min(pending), max(pending)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        counts = self._counts
        get = counts.get
        for value in pending:
            if value > 0.0:
                mantissa, exponent = _frexp(value)
                index = (exponent << 3) | (int(mantissa * 16.0) - 8)
            else:
                index = ZERO_BUCKET
            counts[index] = get(index, 0) + 1

    # ------------------------------------------------------------------
    # Readouts (all flush first, so views are always consistent)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of samples observed."""
        self._flush()
        return self._count

    @property
    def total(self) -> float:
        """Exact sum of everything observed."""
        self._flush()
        return self._total

    @property
    def minimum(self) -> float:
        """Smallest sample (``inf`` when empty)."""
        self._flush()
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample (``-inf`` when empty)."""
        self._flush()
        return self._max

    @property
    def counts(self) -> dict[int, int]:
        """Bucket index -> sample count (live dict, flushed)."""
        self._flush()
        return self._counts

    @property
    def mean(self) -> float:
        """Exact mean of everything observed (0.0 when empty)."""
        self._flush()
        return self._total / self._count if self._count else 0.0

    def quantile(self, q: float) -> float | None:
        """The q-quantile (0 ≤ q ≤ 1), or ``None`` when empty.

        Computed by walking the buckets in index order and returning
        the hit bucket's midpoint, clamped into the exact observed
        ``[min, max]`` — so a single-sample histogram reports the
        sample itself, and p100 is the exact maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        self._flush()
        if self._count == 0:
            return None
        rank = max(1, math.ceil(q * self._count))
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= rank:
                value = bucket_mid(index)
                return min(max(value, self._min), self._max)
        return self._max  # unreachable unless counts drifted

    # ------------------------------------------------------------------
    # Merge / serialization
    # ------------------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram in (exact: bucket counts add)."""
        self._flush()
        other._flush()
        self._count += other._count
        self._total += other._total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        counts = self._counts
        for index, n in other._counts.items():
            counts[index] = counts.get(index, 0) + n
        return self

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable form; ``from_dict`` round-trips it exactly.

        The ``p50/p90/p99`` entries are derived (recomputable from the
        buckets) but included so snapshots are readable on their own.
        """
        self._flush()
        out: dict[str, Any] = {
            "count": self._count,
            "sum": self._total,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "buckets": {
                str(index): self._counts[index]
                for index in sorted(self._counts)
            },
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Histogram":
        """Rebuild from :meth:`as_dict` output (derived fields ignored)."""
        hist = cls()
        hist._count = int(data["count"])
        hist._total = float(data["sum"])
        hist._min = (
            float(data["min"]) if data.get("min") is not None else math.inf
        )
        hist._max = (
            float(data["max"]) if data.get("max") is not None else -math.inf
        )
        hist._counts = {
            int(index): int(n) for index, n in data.get("buckets", {}).items()
        }
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        if not self.count:
            return "Histogram(empty)"
        return (
            f"Histogram(n={self._count}, p50={self.quantile(0.5):.6g}, "
            f"p99={self.quantile(0.99):.6g}, max={self._max:.6g})"
        )


# ----------------------------------------------------------------------
# Bucket geometry (module functions so tests can pin it independently)
# ----------------------------------------------------------------------
def bucket_index(value: float) -> int:
    """The bucket a sample lands in (mirrors the deferred flush)."""
    if value <= 0.0:
        return ZERO_BUCKET
    mantissa, exponent = math.frexp(value)
    return (exponent << 3) | (int(mantissa * 16.0) - 8)


def bucket_bounds(index: int) -> tuple[float, float]:
    """The half-open value interval ``[lo, hi)`` bucket ``index`` covers."""
    if index == ZERO_BUCKET:
        return (-math.inf, 0.0)
    exponent, sub = index >> 3, index & 7
    lo = math.ldexp(0.5 + sub / 16.0, exponent)
    hi = math.ldexp(0.5 + (sub + 1) / 16.0, exponent)
    return (lo, hi)


def bucket_mid(index: int) -> float:
    """The representative (midpoint) value reported for a bucket."""
    if index == ZERO_BUCKET:
        return 0.0
    exponent, sub = index >> 3, index & 7
    return math.ldexp(0.5 + (sub + 0.5) / 16.0, exponent)
