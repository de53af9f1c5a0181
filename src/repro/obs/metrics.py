"""The metrics registry: namespaced counters, gauges, and histograms.

This is the concrete backend for the narrow
:class:`repro.core.metrics.MetricsSink` surface sublayers report into.
One registry typically serves a whole experiment: each stack installs a
:class:`~repro.core.metrics.ScopedMetrics` view per sublayer, so the
ARQ sublayer of host ``a`` and of host ``b`` land at different names
(``dl:a/arq/data_sent`` vs ``dl:b/arq/data_sent``) while sharing one
queryable registry.

Two distribution families coexist behind :meth:`observe` and
:meth:`observe_hist`:

* ``histograms`` — streaming :class:`~repro.sim.stats.RunningStats`
  (count/mean/stddev/min/max): cheap moments, no quantiles;
* ``hists`` — log-bucket :class:`~repro.obs.hist.Histogram`
  (p50/p90/p99/max): what latency-shaped sites (ARQ RTT, queue
  residency, hop crossing time) report into, and what merges *exactly*
  across per-trial and per-region snapshots (integer bucket counts), so
  a campaign's or a sharded fleet's aggregate equals one registry's.
"""

from __future__ import annotations

import fnmatch
from typing import Any

from ..core.instrument import InstrumentedState
from ..core.metrics import SEPARATOR, ScopedMetrics
from ..sim.stats import RunningStats
from .hist import _FLUSH_AT, Histogram


class MetricsRegistry:
    """Counters, gauges, and histograms behind the MetricsSink surface."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, RunningStats] = {}
        self.hists: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # The MetricsSink surface
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        stats = self.histograms.get(name)
        if stats is None:
            stats = self.histograms[name] = RunningStats()
        stats.add(value)

    def observe_hist(self, name: str, value: float) -> None:
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Histogram()
        # Inlined Histogram.observe: the C12 budget holds this call to
        # ~1.5x a counter inc, and the observe() frame alone busts it.
        pending = hist._pending
        pending.append(value)
        if len(pending) >= _FLUSH_AT:
            hist._flush()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def hist(self, name: str) -> Histogram:
        """The named log-bucket histogram, created empty on first use."""
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Histogram()
        return hist

    def hist_summary(
        self, name: str, quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[str, Any]:
        """A JSON-ready latency summary of one log-bucket histogram.

        This is the wall-clock export path the live runtime
        (:mod:`repro.net`) reports through: count, mean, min/max, and
        the requested quantiles (``p50``/``p95``/``p99`` by default),
        all computed from the histogram buckets so a report built from
        merged snapshots is identical to one built from a single registry.
        """
        hist = self.hist(name)
        count = hist.count
        out: dict[str, Any] = {
            "count": count,
            "mean": hist.mean,
            "min": hist.minimum if count else None,
            "max": hist.maximum if count else None,
        }
        for q in quantiles:
            out[f"p{q * 100:g}"] = hist.quantile(q)
        return out

    def names(self, pattern: str = "*") -> list[str]:
        """All metric names matching a glob pattern, sorted."""
        everything = (
            set(self.counters)
            | set(self.gauges)
            | set(self.histograms)
            | set(self.hists)
        )
        return sorted(n for n in everything if fnmatch.fnmatch(n, pattern))

    def scoped(self, prefix: str) -> ScopedMetrics:
        """A view of this registry under a namespace prefix."""
        return ScopedMetrics(self, prefix)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable dump of everything recorded so far."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: stats.as_dict()
                for name, stats in sorted(self.histograms.items())
            },
            "hists": {
                name: hist.as_dict()
                for name, hist in sorted(self.hists.items())
            },
        }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters add, gauges last-write-wins, histograms combine via
        :meth:`~repro.sim.stats.RunningStats.merge` — so a fault
        campaign folds its per-trial snapshots, and the sharded fleet
        conductor its per-region snapshots, into one aggregate.
        Merging the same snapshots in the same order always yields the
        same aggregate, which keeps campaign reports deterministic.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            incoming = RunningStats.from_dict(data)
            stats = self.histograms.get(name)
            if stats is None:
                self.histograms[name] = incoming
            else:
                stats.merge(incoming)
        for name, data in snapshot.get("hists", {}).items():
            hist = self.hists.get(name)
            if hist is None:
                self.hists[name] = Histogram.from_dict(data)
            else:
                hist.merge(Histogram.from_dict(data))

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.hists.clear()

    # ------------------------------------------------------------------
    # Pull collection — for components that only expose instrumented
    # state (the observer reads them; they never see the registry).
    # ------------------------------------------------------------------
    def collect_state(self, prefix: str, state: InstrumentedState) -> int:
        """Copy numeric fields of an instrumented state into gauges.

        Reads use :meth:`~repro.core.instrument.InstrumentedState.snapshot`,
        so collection does not pollute the access log with observer
        reads.  Returns the number of fields collected.
        """
        collected = 0
        for field, value in state.snapshot().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.gauge(prefix + SEPARATOR + field, value)
            collected += 1
        return collected

    def collect_stack(self, stack: Any) -> int:
        """Pull every sublayer's numeric state fields into gauges."""
        collected = 0
        for sublayer in stack.sublayers:
            prefix = f"{stack.name}{SEPARATOR}{sublayer.name}{SEPARATOR}state"
            collected += self.collect_state(prefix, sublayer.state)
        return collected

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A human-readable dump, one metric per line."""
        lines: list[str] = []
        for name in sorted(self.counters):
            lines.append(f"counter  {name} = {self.counters[name]:g}")
        for name in sorted(self.gauges):
            lines.append(f"gauge    {name} = {self.gauges[name]:g}")
        for name in sorted(self.histograms):
            stats = self.histograms[name]
            lines.append(
                f"histo    {name}: n={stats.count} mean={stats.mean:.6g} "
                f"min={stats.minimum:.6g} max={stats.maximum:.6g}"
            )
        for name in sorted(self.hists):
            hist = self.hists[name]
            lines.append(
                f"hist     {name}: n={hist.count} "
                f"p50={hist.quantile(0.5):.6g} p90={hist.quantile(0.9):.6g} "
                f"p99={hist.quantile(0.99):.6g} max={hist.maximum:.6g}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self.histograms)} histograms, "
            f"{len(self.hists)} hists)"
        )
