"""Fungibility coverage: every concrete Sublayer subclass must
``clone_fresh()`` back to its constructor configuration.

``Stack.replace()`` rebuilds every *untouched* sublayer via
``clone_fresh``; a subclass that forgets to override it (or overrides
it and drops a parameter) silently resets configuration in the middle
of a fungibility experiment.  This test discovers every subclass in the
package — new sublayers cannot opt out — builds each with deliberately
non-default configuration, and checks the clone preserves it.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import random

import pytest

import repro
from repro.core.bits import Bits
from repro.core.sublayer import Sublayer


def all_sublayer_classes() -> list[type[Sublayer]]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found: list[type[Sublayer]] = []

    def walk(cls: type) -> None:
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("repro.") and sub not in found:
                found.append(sub)
                walk(sub)

    walk(Sublayer)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


#: Framework base classes: not meant to be composed directly, their
#: concrete subclasses are tested instead.
BASE_CLASSES = {
    "ArqSublayerBase",
    "MacSublayerBase",
    "ShimSublayer",
    "FaultSublayer",
}


def build_cases() -> dict[type[Sublayer], Sublayer]:
    """One deliberately non-default instance per concrete subclass."""
    from repro.core.shim import IdentityShim
    from repro.core.sublayer import PassthroughSublayer
    from repro.datalink.arq import (
        GoBackNArq,
        SelectiveRepeatArq,
        StopAndWaitArq,
    )
    from repro.datalink.errordetect import ErrorDetectSublayer, ParityByte
    from repro.datalink.framing.cobs import CobsFramingSublayer
    from repro.datalink.framing.rules import prefix_rule
    from repro.datalink.framing.sublayers import FlagSublayer, StuffingSublayer
    from repro.datalink.mac import ChannelView, CsmaMac, PureAlohaMac
    from repro.faults.schedule import FaultSchedule
    from repro.faults.sublayers import (
        CorruptBitsFault,
        DelayFault,
        DropFault,
        DuplicateFault,
        NoOpFault,
        ReorderFault,
        StallFault,
        TruncateFault,
    )
    from repro.phys.encodings import Manchester
    from repro.phys.sublayer import EncodingSublayer
    from repro.transport.isn import TimerIsn
    from repro.transport.quic.connection import ConnectionSublayer
    from repro.transport.quic.record import RecordSublayer
    from repro.transport.quic.stream import StreamSublayer
    from repro.transport.sublayered.cm import CmSublayer
    from repro.transport.sublayered.cm_timer import TimerCmSublayer
    from repro.transport.sublayered.dm import DmSublayer
    from repro.transport.sublayered.osr import OsrSublayer
    from repro.transport.sublayered.rd import RdSublayer
    from repro.transport.sublayered.shim import Rfc793Shim

    rule = prefix_rule(Bits.from_string("01111100"), 4)
    channel = ChannelView(lambda: False)
    rng = random.Random(99)

    def cc_factory(mss: int) -> None:  # shared sentinel, never invoked
        raise AssertionError("cc_factory should not run at construction")

    isn = TimerIsn(max_segment_lifetime=2.5)
    fault_schedule = FaultSchedule(probability=0.3, start_unit=2, every=3)
    fault_rng = random.Random(17)

    instances = [
        NoOpFault("fnoop", schedule=fault_schedule, rng=fault_rng, direction="up"),
        DropFault("fdrop", schedule=fault_schedule, rng=fault_rng, direction="both"),
        DuplicateFault(
            "fdup", schedule=fault_schedule, rng=fault_rng, direction="up"
        ),
        ReorderFault(
            "fre", schedule=fault_schedule, rng=fault_rng,
            direction="both", max_hold=0.2,
        ),
        CorruptBitsFault(
            "fcor", schedule=fault_schedule, rng=fault_rng,
            direction="up", flips=5,
        ),
        TruncateFault(
            "ftru", schedule=fault_schedule, rng=fault_rng,
            direction="both", keep=0.25,
        ),
        DelayFault(
            "fdel", schedule=fault_schedule, rng=fault_rng,
            direction="up", delay=0.15, jitter=0.05,
        ),
        StallFault(
            "fsta", schedule=fault_schedule, rng=fault_rng,
            direction="both", blackhole=True,
        ),
        PassthroughSublayer("pt"),
        IdentityShim("idshim"),
        Rfc793Shim("rfcshim"),
        CobsFramingSublayer("cobs"),
        StopAndWaitArq("saw", retransmit_timeout=0.55, max_retries=7),
        GoBackNArq("gbn", retransmit_timeout=0.45, max_retries=9, window=5),
        SelectiveRepeatArq("sr", retransmit_timeout=0.35, max_retries=11, window=6),
        ErrorDetectSublayer("ed", ParityByte()),
        StuffingSublayer("st", rule),
        FlagSublayer("fl", rule, stream_mode=True),
        CsmaMac(
            "csma", address=7, channel=channel,
            max_attempts=3, base_backoff=0.05, rng=rng,
        ),
        PureAlohaMac(
            "aloha", address=9, channel=channel,
            max_attempts=4, base_backoff=0.07, rng=rng,
        ),
        EncodingSublayer("enc", Manchester()),
        StreamSublayer("strm", max_frame_data=512),
        ConnectionSublayer(
            "conn", mtu=900, rto_initial=0.4, rto_max=4.0,
            max_handshake_retries=3, cc_factory=cc_factory, rng=rng,
        ),
        RecordSublayer("rec"),
        CmSublayer("cm", isn_scheme=isn, handshake_timeout=0.7, max_retries=4),
        TimerCmSublayer(
            "tcm", isn_scheme=isn, handshake_timeout=0.8,
            max_retries=5, quiet_interval=12.0,
        ),
        DmSublayer("dm"),
        OsrSublayer(
            "osr", mss=512, recv_buffer=4096,
            cc_factory=cc_factory, probe_interval=0.9,
        ),
        RdSublayer(
            "rd", rto_initial=0.5, rto_min=0.1, rto_max=5.0,
            dupack_threshold=4, sack_enabled=False,
        ),
    ]
    return {type(instance): instance for instance in instances}


CONCRETE = [c for c in all_sublayer_classes() if c.__name__ not in BASE_CLASSES]
CASES = build_cases()

#: Wiring attributes installed by Stack._wire, not constructor config.
WIRING_ATTRS = {"state", "below", "clock", "metrics", "notifications", "stack_name"}


def test_every_concrete_sublayer_has_a_case():
    missing = [c.__name__ for c in CONCRETE if c not in CASES]
    assert not missing, (
        f"no clone_fresh case for {missing}: add a non-default instance "
        "to build_cases() so the fungibility contract stays covered"
    )


@pytest.mark.parametrize("cls", CONCRETE, ids=lambda c: c.__name__)
def test_clone_fresh_preserves_constructor_config(cls):
    original = CASES[cls]
    clone = original.clone_fresh()
    assert type(clone) is cls, (
        f"{cls.__name__}.clone_fresh() produced a {type(clone).__name__}"
    )
    assert clone.name == original.name

    # every constructor parameter stored under its own name must survive
    params = [
        p for p in inspect.signature(cls.__init__).parameters if p != "self"
    ]
    for param in params:
        if not hasattr(original, param):
            continue
        expected = getattr(original, param)
        got = getattr(clone, param, "<missing>")
        assert got is expected or got == expected, (
            f"{cls.__name__}.clone_fresh() dropped {param!r}: "
            f"{expected!r} -> {got!r}"
        )

    # ... and so must every other public attribute set at construction
    for key, expected in vars(original).items():
        if key.startswith("_") or key in WIRING_ATTRS:
            continue
        got = vars(clone).get(key, "<missing>")
        assert got is expected or got == expected, (
            f"{cls.__name__}.clone_fresh() changed {key!r}: "
            f"{expected!r} -> {got!r}"
        )
