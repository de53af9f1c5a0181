"""The full-tier access log of a seeded transfer, pinned.

Litmus T3, ``verify.ownership`` and ``analysis.entanglement`` all read
``AccessLog.records``.  The digests below were computed on the commit
before the state container moved its fields into ``__dict__``; how a
container stores its fields, and how the sublayers update their
connection tables, must not change a single record.
"""

import hashlib

from .helpers import make_pair, transfer

GOLDEN = {
    "a": (813, "ac7526ba0423af058dce486b7c6eb50484d19a477d172aa81e24f77120747902"),
    "b": (863, "5a915d6f46cf9906090ad87ec5d5feeb43a4fc29a8dcdefb5e0c3892fb01f88d"),
}


def digest(log) -> tuple[int, str]:
    sha = hashlib.sha256()
    for r in log.records:
        sha.update(f"{r.actor}|{r.target}|{r.field}|{r.kind}\n".encode())
    return len(log.records), sha.hexdigest()


def lossy_transfer(between=None):
    sim, a, b, _link = make_pair(loss=0.02, seed=7)
    assert a.stack.tier == b.stack.tier == "full"
    if between is not None:
        between(a, b)
    data, received, _sock, _peer = transfer(sim, a, b, nbytes=20_000)
    assert received == data
    return a, b


def test_full_tier_access_log_is_record_for_record_the_parent_commits():
    a, b = lossy_transfer()
    assert {"a": digest(a.access_log), "b": digest(b.access_log)} == GOLDEN


def test_a_round_trip_through_the_metrics_tier_loses_no_records():
    def there_and_back(a, b):
        for host in (a, b):
            host.stack.set_tier("metrics").set_tier("full")

    a, b = lossy_transfer(there_and_back)
    assert {"a": digest(a.access_log), "b": digest(b.access_log)} == GOLDEN


def test_metrics_tier_transfer_records_nothing_then_full_resumes():
    sim, a, b, _link = make_pair(tier="metrics")
    transfer(sim, a, b, nbytes=5_000, close=False)
    for host in (a, b):
        assert host.access_log.records == []
        host.stack.set_tier("full")
        assert host.access_log.records == []
    fields_before = {s.name: s.state.field_names() for s in a.stack.sublayers}
    a.socket_for(12345, 80).send(b"x" * 3_000)
    sim.run(until=sim.now + 5)
    assert b.socket_for(80, 12345).bytes_received()[-3_000:] == b"x" * 3_000
    assert {s.name: s.state.field_names() for s in a.stack.sublayers} == fields_before
    for host in (a, b):
        assert {"osr", "rd", "cm", "dm"} <= host.access_log.actors()
