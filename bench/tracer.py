"""The benchmark's own span recorder.

Spans are recorded from here only, around calls into each layer's
public functions; nothing under ``src/`` knows it is being timed.  Three
kinds of seam are used:

* ``Stack.span_hook`` — one span per sublayer crossing on the data path,
  named after the sublayer that receives the unit;
* class wrappers installed by :meth:`Tracer.install` on public methods
  (``srv_*``/``nf_*`` of every sublayer class, ``WireCodec.encode``,
  ``Simulator.run``, ``Link.send`` ...), so control-path calls and the
  runtimes show up too;
* instance attributes set by :meth:`Tracer.attach_stack` and
  :meth:`Tracer.attach_endpoint` — a :class:`SpanClock` as each
  sublayer's ``clock`` (a timer callback becomes a root span named after
  the sublayer that armed it), the host's ``on_transmit`` sink and the
  endpoint's datagram transport.

All wrapped code is synchronous, so open spans form one stack.  A span's
self time is its duration minus the durations of the spans opened
directly inside it; the ledger (self time and calls per name) is kept as
spans close, and the first ``max_spans`` spans are kept whole for
``--out``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns
from typing import Any, Callable

#: Stack sublayer name -> reported component.
LAYER_OF = {
    "osr": "transport.osr",
    "rd": "transport.rd",
    "cm": "transport.cm",
    "dm": "transport.dm",
    "recovery": "datalink.recovery",
    "errordetect": "datalink.errordetect",
    "stuffing": "datalink.stuffing",
    "flags": "datalink.flags",
    "encoding": "phys.encoding",
}

#: Span name of the benchmark's own callbacks (payload checks, the next
#: send): subtracted from whichever layer called them, reported nowhere.
DRIVER = "bench.driver"

MAX_SPANS = 50_000


class _SpanContext:
    """The context manager a span hook hands back: push on enter, pop on exit.

    Spans close in the reverse of the order they opened, so one instance
    per name serves every nesting depth.
    """

    __slots__ = ("_name", "_push", "_pop")

    def __init__(self, tracer: "Tracer", name: str):
        self._name = name
        self._push = tracer.push
        self._pop = tracer.pop

    def __enter__(self) -> None:
        self._push(self._name)

    def __exit__(self, *exc: Any) -> None:
        self._pop()


class SpanClock:
    """A ``Clock`` that runs each timer callback inside a named span."""

    __slots__ = ("_clock", "_tracer", "_name")

    def __init__(self, clock: Any, tracer: "Tracer", name: str):
        self._clock = clock
        self._tracer = tracer
        self._name = name

    def now(self) -> float:
        return self._clock.now()

    def call_later(self, delay: float, callback: Callable[[], None]) -> Any:
        return self._clock.call_later(
            delay, self._tracer.wrap(callback, self._name)
        )


class _SpanTransport:
    """A datagram transport whose ``sendto`` is a ``net.socket`` span."""

    def __init__(self, transport: Any, tracer: "Tracer"):
        self._transport = transport
        self.sendto = tracer.wrap(transport.sendto, "net.socket")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._transport, name)


class Tracer:
    """Open-span stack, per-name ledger, and the first spans kept whole."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        #: Operation id stamped on each span: the driver sets it to the
        #: number of operations completed so far.
        self.op = 0
        self.bits_objects = 0
        self._contexts: dict[str, _SpanContext] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (between warm-up and the timed phase)."""
        # Open spans, innermost last: [name, start_ns, child_ns, index].
        self._open: list[list[Any]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.root_ns = 0
        #: Kept spans: [name, start_ns, end_ns, parent index or -1, op].
        self.spans: list[list[Any]] = []
        self.bits_objects = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def push(self, name: str) -> None:
        start = perf_counter_ns()
        spans = self.spans
        if len(spans) < self.max_spans:
            index = len(spans)
            parent = self._open[-1][3] if self._open else -1
            spans.append([name, start, start, parent, self.op])
        else:
            index = -1
        self._open.append([name, start, 0, index])

    def pop(self) -> None:
        end = perf_counter_ns()
        name, start, child_ns, index = self._open.pop()
        duration = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._open:
            self._open[-1][2] += duration
        else:
            self.root_ns += duration
        if index >= 0:
            self.spans[index][2] = end

    def context(self, name: str) -> _SpanContext:
        """The (shared) context manager opening a span called ``name``."""
        context = self._contexts.get(name)
        if context is None:
            context = self._contexts[name] = _SpanContext(self, name)
        return context

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``function`` run inside a span called ``name``."""
        push, pop = self.push, self.pop

        def traced(*args: Any, **kwargs: Any) -> Any:
            push(name)
            try:
                return function(*args, **kwargs)
            finally:
                pop()

        return traced

    def _wrap_sublayer_method(self, function: Callable[..., Any]) -> Callable[..., Any]:
        push, pop = self.push, self.pop

        def traced(sublayer: Any, *args: Any, **kwargs: Any) -> Any:
            push(LAYER_OF.get(sublayer.name) or f"other.{sublayer.name}")
            try:
                return function(sublayer, *args, **kwargs)
            finally:
                pop()

        return traced

    # ------------------------------------------------------------------
    # Seams
    # ------------------------------------------------------------------
    def _patch(self, cls: type, method: str, name: str) -> None:
        setattr(cls, method, self.wrap(getattr(cls, method), name))

    def install(self) -> None:
        """Wrap the public methods of every layer imported so far.

        Class-level and never undone: call it once, after the workload's
        module is imported, in a process that exits after its traced
        phase.  Packages the workload never imported stay unimported.
        """
        from repro.core.bits import Bits
        from repro.core.sublayer import Sublayer
        from repro.obs import MetricsRegistry

        for method in ("inc", "gauge", "observe", "observe_hist"):
            self._patch(MetricsRegistry, method, "obs.registry")

        bits_init = Bits.__init__

        def counted_init(bits: Any, *args: Any, **kwargs: Any) -> None:
            self.bits_objects += 1
            bits_init(bits, *args, **kwargs)

        Bits.__init__ = counted_init  # type: ignore[method-assign]

        #: module -> ((class, method, span name), ...)
        seams = {
            # The socket's send is OSR's application-facing entry (a
            # direct call, not a hop), so it is OSR's span.
            "repro.transport.sublayered.host": (
                ("SubTcpSocket", "send", "transport.osr"),
            ),
            "repro.net.codec": (
                ("WireCodec", "encode", "net.codec.encode"),
                ("WireCodec", "decode", "net.codec.decode"),
            ),
            "repro.net.endpoint": (
                ("UDPEndpoint", "datagram_received", "net.endpoint"),
            ),
            "repro.sim.engine": (("Simulator", "run", "sim.engine"),),
            "repro.sim.link": (
                ("Link", "send", "sim.link"),
                ("Link", "send_batch", "sim.link"),
            ),
            "repro.network.forwarding": (
                ("ForwardingSublayer", "forward", "network.forwarding"),
                ("ForwardingSublayer", "originate", "network.forwarding"),
            ),
            "repro.topo.links": (("FleetChannel", "send", "topo.channel"),),
            "repro.topo.region": (
                ("RegionWorld", "__init__", "topo.region"),
                ("RegionWorld", "schedule_traffic", "topo.region"),
                ("RegionWorld", "result", "topo.region"),
            ),
        }
        for module_name, methods in seams.items():
            module = sys.modules.get(module_name)
            if module is not None:
                for cls, method, name in methods:
                    self._patch(getattr(module, cls), method, name)

        # Service primitives and notification handlers of every sublayer
        # class imported so far: OSR hands segments to RD through
        # ``srv_send`` and hears acks through ``nf_acked``, neither of
        # which is a data-path hop.
        pending, seen = [Sublayer], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for attribute, value in list(vars(cls).items()):
                if attribute.startswith(("srv_", "nf_")) and callable(value):
                    setattr(cls, attribute, self._wrap_sublayer_method(value))

    def attach_stack(self, stack: Any) -> None:
        """Span every hop of ``stack`` and every timer its sublayers arm."""
        layers = {
            sublayer.name: LAYER_OF.get(sublayer.name) or f"other.{sublayer.name}"
            for sublayer in stack.sublayers
        }
        contexts = {name: self.context(layer) for name, layer in layers.items()}

        def hook(direction: str, caller: str, provider: str, sdu: Any, meta: dict) -> Any:
            # The application and wire ends are not layers: their sinks
            # are wrapped where they are installed.
            return contexts.get(provider)

        stack.span_hook = hook
        for sublayer in stack.sublayers:
            sublayer.clock = SpanClock(sublayer.clock, self, layers[sublayer.name])

    def attach_endpoint(self, endpoint: Any) -> None:
        """Span an open endpoint's transmit sink and its socket sends."""
        endpoint.host.on_transmit = self.wrap(
            endpoint.host.on_transmit, "net.endpoint"
        )
        endpoint.transport = _SpanTransport(endpoint.transport, self)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)
