"""Configuration for the static sublayering checker.

The checker is parameterised the same way the runtime litmus tests are:
a declared layer order (T1), a maximum interface width (T2), and an
explicit allowlist for the few places where the repository deliberately
steps outside the discipline.  Everything lives in one
:class:`StaticCheckConfig` value so tests can run the checker against
fixture packages with a different policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.litmus import DEFAULT_MAX_INTERFACE_WIDTH

#: The declared layer order of the repository, bottom-up: a module in
#: tier *t* may only import from tiers <= *t*.  The simulator substrate,
#: verifier, and analyses sit together at the top — they orchestrate
#: protocol stacks and may therefore see everything below them.
#: Observability (``obs``) sits above even those, *outside* the protocol
#: DAG: it may observe (import) every layer, and no layer — protocol or
#: substrate — may import it back; sublayers reach it only through the
#: duck-typed hooks in ``core`` (``metrics`` sink, ``span_hook``,
#: ``Simulator.profiler``).  Fault injection (``faults``) sits above
#: *everything*, including obs: its scenario harness drives whole
#: stacks and reads their telemetry as evidence, so it may import any
#: layer while nothing may import it back — and its fault *sublayers*
#: are ``TRANSPARENT``, exempting them from the composition-order rule.
#: Two runtime orchestrators share the top tier: fleet-scale
#: simulation (``topo``) composes whole router stacks into networks,
#: partitions them into regions, and replays faults through the
#: scenario harness; the live runtime (``net``) hosts the same stacks
#: on an asyncio loop behind real UDP sockets and reports through obs
#: histograms.  Both may import everything below them — profiles,
#: hosts, obs, faults — and nothing imports either back: the sublayers
#: stay runtime-agnostic (a stack reaches its runtime only through the
#: ``core`` clock protocol and the ``on_transmit`` hook, never by
#: importing ``sim`` or ``net``).
DEFAULT_LAYERS: dict[str, int] = {
    "core": 0,
    "phys": 1,
    "datalink": 2,
    "network": 3,
    "transport": 4,
    "sim": 5,
    "verify": 5,
    "analysis": 5,
    "staticcheck": 5,
    "flow": 5,
    "compose": 5,
    "obs": 6,
    "faults": 7,
    "topo": 8,
    "net": 8,
}

#: Deliberate exceptions to the layer-order rule, as
#: ``"importer -> imported"`` prefixes (either side may be a package
#: prefix).  Each entry documents why it is sound:
#:
#: * ``repro.datalink.stacks`` and ``repro.network.topology`` are
#:   *assembly* modules: they wire protocol sublayers onto the simulator
#:   substrate (links, media, engines).  The protocol sublayers
#:   themselves never see the simulator.
#: * ``repro.datalink.framing.lemmas`` states the verified bit-stuffing
#:   properties of Section 4.1 in the verifier's lemma vocabulary; the
#:   framing *mechanisms* do not depend on the verifier.
#: * the three stack construction sites (``repro.datalink.stacks``,
#:   ``repro.transport.sublayered.host``, ``repro.transport.quic.host``)
#:   build through the ``repro.compose`` profile registry; like the
#:   assembly exception above, they orchestrate composition without the
#:   protocol *sublayers* ever seeing the builder.
DEFAULT_ALLOWLIST: frozenset[str] = frozenset(
    {
        "repro.datalink.stacks -> repro.sim",
        "repro.network.topology -> repro.sim",
        "repro.datalink.framing.lemmas -> repro.verify",
        "repro.datalink.stacks -> repro.compose",
        "repro.transport.sublayered.host -> repro.compose",
        "repro.transport.quic.host -> repro.compose",
    }
)


@dataclass(frozen=True)
class StaticCheckConfig:
    """Policy knobs for one static-checker run."""

    #: Tier of each top-level subpackage under the checked root package.
    #: Subpackages not listed are unconstrained (treated as top tier).
    layers: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LAYERS))

    #: ``"importer -> imported"`` module/package prefixes exempt from
    #: the layer-order rule.
    allowlist: frozenset[str] = DEFAULT_ALLOWLIST

    #: Declared :class:`~repro.core.interface.ServiceInterface` widths
    #: above this raise an ``interface-width`` warning (same default as
    #: the runtime T2 check).
    max_interface_width: int = DEFAULT_MAX_INTERFACE_WIDTH

    #: Treat warnings as errors (CLI ``--strict``).
    strict: bool = False

    def tier_of(self, module: str, root: str) -> int:
        """Layer tier of ``module`` (dotted name) under root package ``root``.

        The tier is keyed by the first path segment below the root;
        the root package itself (and unknown segments) are treated as
        top-tier so they may import anything.
        """
        prefix = root + "."
        if not module.startswith(prefix):
            return max(self.layers.values(), default=0) + 1
        segment = module[len(prefix):].split(".", 1)[0]
        if segment in self.layers:
            return self.layers[segment]
        return max(self.layers.values(), default=0) + 1

    def allows(self, importer: str, imported: str) -> bool:
        """True if ``importer -> imported`` matches an allowlist entry."""
        for entry in self.allowlist:
            src, _, dst = entry.partition("->")
            src = src.strip()
            dst = dst.strip()
            if _prefix_match(importer, src) and _prefix_match(imported, dst):
                return True
        return False


def _prefix_match(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")
