"""The narrow metrics emitter available to every sublayer.

Observability (``repro.obs``) sits *outside* the layer DAG: it may look
at every layer, but no protocol layer may import it (the staticcheck
layer model enforces this).  Sublayers still need somewhere to report
counters, gauges, and latency samples, so this module defines the one
thing they are allowed to hold: a duck-typed *sink* with three
operations.  The default sink is :data:`NULL_METRICS`, which does
nothing; :class:`repro.obs.MetricsRegistry` implements the same surface
and is installed from the outside (host or stack constructor), keeping
the dependency arrow pointing strictly from the observer to the
observed.

Names are namespaced with ``/`` — a stack installs a
:class:`ScopedMetrics` per sublayer so ``rd`` reporting
``segments_sent`` lands at ``tcp:a/rd/segments_sent`` without ``rd``
knowing where it lives.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

SEPARATOR = "/"


@runtime_checkable
class MetricsSink(Protocol):
    """What a sublayer may assume about the metrics backend."""

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        ...

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its current ``value``."""
        ...

    def observe(self, name: str, value: float) -> None:
        """Add one sample to the streaming-moments distribution ``name``."""
        ...

    def observe_hist(self, name: str, value: float) -> None:
        """Add a sample to the log-bucket histogram ``name``.

        Histograms answer quantile questions (p50/p90/p99/max) that
        streaming moments cannot; latency-shaped sites report here.
        """
        ...


class NullMetrics:
    """The no-op sink: reporting into it costs one method call."""

    __slots__ = ()

    def inc(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def observe_hist(self, name: str, value: float) -> None:
        pass

    def scoped(self, prefix: str) -> "NullMetrics":
        return self

    def __repr__(self) -> str:
        return "NullMetrics()"


#: Shared no-op sink — the default value of ``Sublayer.metrics``.
NULL_METRICS = NullMetrics()


class ScopedMetrics:
    """A view of a sink with every name prefixed by a namespace."""

    __slots__ = ("_sink", "prefix")

    def __init__(self, sink: MetricsSink, prefix: str):
        self._sink = sink
        self.prefix = prefix

    def inc(self, name: str, value: float = 1) -> None:
        self._sink.inc(self.prefix + SEPARATOR + name, value)

    def gauge(self, name: str, value: float) -> None:
        self._sink.gauge(self.prefix + SEPARATOR + name, value)

    def observe(self, name: str, value: float) -> None:
        self._sink.observe(self.prefix + SEPARATOR + name, value)

    def observe_hist(self, name: str, value: float) -> None:
        self._sink.observe_hist(self.prefix + SEPARATOR + name, value)

    def scoped(self, prefix: str) -> "ScopedMetrics":
        return ScopedMetrics(self._sink, self.prefix + SEPARATOR + prefix)

    def __repr__(self) -> str:
        return f"ScopedMetrics({self.prefix!r})"


def scoped(sink: MetricsSink | None, prefix: str) -> MetricsSink:
    """A namespaced view of ``sink``, or the null sink for ``None``."""
    if sink is None:
        return NULL_METRICS
    return ScopedMetrics(sink, prefix)
