"""Discrete-event network simulation substrate.

Provides the engine (:class:`Simulator`), impaired point-to-point links
(:class:`Link`, :class:`DuplexLink`), a shared broadcast medium with
collisions (:class:`BroadcastMedium`), deterministic random streams
(:class:`RngFactory`), event traces (:class:`Trace`), and streaming
statistics (:class:`RunningStats`).  Every experiment in this
repository runs on this substrate.
"""

from .engine import SimClock, Simulator
from .link import DEFAULT_UNIT_BITS, DuplexLink, Link, LinkConfig, LinkStats, unit_size_bits
from .medium import BroadcastMedium, MediumStats, StationPort, Transmission
from .rng import RngFactory, derive_seed
from .stats import RunningStats
from .trace import Trace, TraceEvent

__all__ = [
    "BroadcastMedium",
    "DEFAULT_UNIT_BITS",
    "DuplexLink",
    "Link",
    "LinkConfig",
    "LinkStats",
    "MediumStats",
    "RngFactory",
    "RunningStats",
    "SimClock",
    "Simulator",
    "StationPort",
    "Trace",
    "TraceEvent",
    "Transmission",
    "derive_seed",
    "unit_size_bits",
]
