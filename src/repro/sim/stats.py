"""Streaming statistics: the Welford mean/variance accumulator."""

from __future__ import annotations

import math


class RunningStats:
    """Streaming mean/variance/min/max (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Fold another stream's statistics into this one, in place.

        Uses the parallel Welford combination (Chan et al.), so merging
        per-worker partial stats yields the same count/mean/variance as
        one stream would have — this is how per-worker metric snapshots
        are folded back into a campaign-wide registry.  Returns self.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "RunningStats":
        """Rebuild stats from :meth:`as_dict` output (snapshot transport).

        The second moment is reconstructed from the stddev, so a
        round-trip through a snapshot preserves count/mean/variance
        (up to float formatting) — enough for :meth:`merge`.
        """
        stats = cls()
        stats.count = int(data["count"])
        if stats.count:
            stats._mean = float(data["mean"])
            stats._m2 = float(data["stddev"]) ** 2 * max(stats.count - 1, 0)
            stats.minimum = float(data["min"])
            stats.maximum = float(data["max"])
        return stats
