"""Tests for repro.sim.rng, trace, and stats."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory, derive_seed
from repro.sim.stats import RunningStats
from repro.sim.trace import Trace


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "loss") == derive_seed(1, "loss")

    def test_derive_seed_varies_by_label(self):
        assert derive_seed(1, "loss") != derive_seed(1, "backoff")

    def test_derive_seed_varies_by_root(self):
        assert derive_seed(1, "loss") != derive_seed(2, "loss")

    def test_streams_independent(self):
        factory = RngFactory(0)
        a = [factory.stream("a").random() for _ in range(5)]
        b = [factory.stream("b").random() for _ in range(5)]
        assert a != b

    def test_stream_reused(self):
        factory = RngFactory(0)
        assert factory.stream("a") is factory.stream("a")

    def test_same_label_same_sequence_across_factories(self):
        xs = [RngFactory(9).stream("link").random() for _ in range(3)]
        ys = [RngFactory(9).stream("link").random() for _ in range(3)]
        # fresh factory, fresh stream: first draws match
        assert xs[0] == ys[0]

    def test_fork_independent(self):
        factory = RngFactory(0)
        child = factory.fork("child")
        assert factory.stream("x").random() != child.stream("x").random()


class TestTrace:
    def test_log_uses_sim_time(self):
        sim = Simulator()
        trace = Trace(sim)
        sim.schedule(1.5, lambda: trace.log("tx", size=10))
        sim.run_until_idle()
        assert trace.events[0].time == 1.5

    def test_log_without_sim(self):
        trace = Trace()
        trace.log("x")
        assert trace.events[0].time == 0.0

    def test_event_getitem(self):
        trace = Trace()
        trace.log("tx", size=10)
        assert trace.events[0]["size"] == 10
        with pytest.raises(KeyError):
            trace.events[0]["nope"]

    def test_event_get_default(self):
        trace = Trace()
        trace.log("tx")
        assert trace.events[0].get("size", 0) == 0

    def test_filter_by_category(self):
        trace = Trace()
        trace.log("tx", n=1)
        trace.log("rx", n=2)
        trace.log("tx", n=3)
        assert [e["n"] for e in trace.filter("tx")] == [1, 3]

    def test_filter_by_predicate(self):
        trace = Trace()
        for n in range(5):
            trace.log("tx", n=n)
        big = trace.filter("tx", predicate=lambda e: e["n"] >= 3)
        assert [e["n"] for e in big] == [3, 4]

    def test_count_and_categories(self):
        trace = Trace()
        trace.log("a")
        trace.log("a")
        trace.log("b")
        assert trace.count("a") == 2
        assert trace.categories() == {"a", "b"}

    def test_between(self):
        sim = Simulator()
        trace = Trace(sim)
        for t in (0.5, 1.5, 2.5):
            sim.schedule(t, lambda: trace.log("x"))
        sim.run_until_idle()
        assert len(list(trace.between(1.0, 2.0))) == 1

    def test_clear_and_len(self):
        trace = Trace()
        trace.log("x")
        assert len(trace) == 1
        trace.clear()
        assert len(trace) == 0


class TestStats:
    def test_running_stats_empty(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_running_stats_values(self):
        stats = RunningStats()
        for v in (1.0, 2.0, 3.0, 4.0):
            stats.add(v)
        assert stats.mean == pytest.approx(2.5)
        assert stats.variance == pytest.approx(5.0 / 3.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_running_stats_dict(self):
        stats = RunningStats()
        stats.add(2.0)
        d = stats.as_dict()
        assert d["count"] == 1 and d["mean"] == 2.0
