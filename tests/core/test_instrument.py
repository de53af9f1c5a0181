"""Tests for repro.core.instrument."""

import copy
import pickle

import pytest

from repro.core.instrument import (
    AccessLog,
    InstrumentedState,
    NullAccessLog,
    acting_as,
    current_actor,
)


class TestActorContext:
    def test_no_actor_by_default(self):
        assert current_actor() is None

    def test_acting_as_sets_and_resets(self):
        with acting_as("rd"):
            assert current_actor() == "rd"
        assert current_actor() is None

    def test_nested_actors(self):
        with acting_as("osr"):
            with acting_as("rd"):
                assert current_actor() == "rd"
            assert current_actor() == "osr"

    def test_reset_on_exception(self):
        with pytest.raises(RuntimeError):
            with acting_as("cm"):
                raise RuntimeError
        assert current_actor() is None


class TestInstrumentedState:
    def test_write_then_read(self):
        state = InstrumentedState("rd")
        state.snd_nxt = 5
        assert state.snd_nxt == 5

    def test_read_undeclared_raises(self):
        state = InstrumentedState("rd")
        with pytest.raises(AttributeError):
            state.nothing

    def test_initial_kwargs(self):
        state = InstrumentedState("rd", snd_nxt=0, window=10)
        assert state.window == 10

    def test_accesses_logged_with_actor(self):
        log = AccessLog()
        state = InstrumentedState("rd", log=log)
        with acting_as("rd"):
            state.x = 1
            _ = state.x
        kinds = [(r.actor, r.target, r.field, r.kind) for r in log.records]
        assert ("rd", "rd", "x", "write") in kinds
        assert ("rd", "rd", "x", "read") in kinds

    def test_foreign_actor_recorded(self):
        log = AccessLog()
        state = InstrumentedState("rd", log=log, window=1)
        log.clear()
        with acting_as("osr"):
            _ = state.window
        assert log.records[0].actor == "osr"
        assert log.records[0].target == "rd"

    def test_snapshot_does_not_log(self):
        log = AccessLog()
        state = InstrumentedState("rd", log=log, a=1)
        log.clear()
        assert state.snapshot() == {"a": 1}
        assert log.records == []

    def test_field_names(self):
        state = InstrumentedState("rd", a=1, b=2)
        assert state.field_names() == {"a", "b"}

    def test_repr(self):
        assert "rd" in repr(InstrumentedState("rd", a=1))


class TestQuietState:
    """A container whose log is null reads and writes plain attributes."""

    def test_null_log_container_takes_no_python_level_hooks(self):
        state = InstrumentedState("rd", log=NullAccessLog(), x=1)
        assert isinstance(state, InstrumentedState)
        assert type(state).__getattribute__ is object.__getattribute__
        assert type(state).__setattr__ is object.__setattr__
        state.y = state.x + 1
        assert state.snapshot() == {"x": 1, "y": 2}

    def test_null_log_is_never_called(self):
        class Tripwire(NullAccessLog):
            def record(self, *args):
                raise AssertionError("a quiet container called its log")

        state = InstrumentedState("rd", log=Tripwire(), x=1)
        state.x = state.x + 1
        assert state.x == 2

    @pytest.mark.parametrize("log", [AccessLog, NullAccessLog])
    def test_undeclared_field_message(self, log):
        state = InstrumentedState("rd", log=log(), a=1)
        with pytest.raises(AttributeError, match="state 'rd' has no field 'x'"):
            state.x
        assert getattr(state, "x", "fallback") == "fallback"
        assert not hasattr(state, "__deepcopy__")

    @pytest.mark.parametrize("log", [AccessLog, NullAccessLog])
    def test_views_do_not_depend_on_the_log(self, log):
        state = InstrumentedState("rd", log=log(), b=2, a=1)
        assert state.snapshot() == {"b": 2, "a": 1}
        assert state.field_names() == {"a", "b"}
        assert repr(state) == "InstrumentedState('rd', fields=['a', 'b'])"
        assert state.target_name == "rd"
        assert isinstance(state.access_log, log)

    def test_assigning_the_log_switches_logging_both_ways(self):
        log = AccessLog()
        state = InstrumentedState("rd", log=log, x=1)
        state._log = NullAccessLog()
        state.x = 2
        state.fresh = state.x
        assert [r.kind for r in log.records] == ["write"]
        state._log = log
        assert state.access_log is log
        with acting_as("rd"):
            assert (state.x, state.fresh) == (2, 2)
            state.fresh = 3
        assert [(r.actor, r.field, r.kind) for r in log.records[1:]] == [
            ("rd", "x", "read"), ("rd", "fresh", "read"), ("rd", "fresh", "write"),
        ]  # fmt: skip

    @pytest.mark.parametrize("log", [AccessLog, NullAccessLog])
    def test_copies_keep_fields_target_and_logging(self, log):
        state = InstrumentedState("rd", log=log(), conns={1: "a"})
        for clone in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert type(clone) is type(state)
            assert clone.target_name == "rd"
            assert clone.snapshot() == {"conns": {1: "a"}}
            before = len(clone.access_log.records)
            clone.conns
            assert len(clone.access_log.records) - before == (log is AccessLog)


class TestAccessLog:
    def make_log(self):
        log = AccessLog()
        rd = InstrumentedState("rd", log=log)
        pcb = InstrumentedState("pcb", log=log)
        with acting_as("rd"):
            rd.seq = 1
            pcb.window = 5
        with acting_as("cc"):
            _ = pcb.window
            pcb.window = 6
        return log

    def test_actors(self):
        assert self.make_log().actors() == {"rd", "cc"}

    def test_fields_touched_by(self):
        log = self.make_log()
        assert ("pcb", "window") in log.fields_touched_by("cc")
        assert ("rd", "seq") in log.fields_touched_by("rd")

    def test_writers_and_readers(self):
        log = self.make_log()
        assert log.writers_of("pcb", "window") == {"rd", "cc"}
        assert log.readers_of("pcb", "window") == {"cc"}

    def test_interference_matrix(self):
        matrix = self.make_log().interference_matrix()
        assert matrix[("pcb", "window")] == {"rd", "cc"}

    def test_shared_fields(self):
        shared = self.make_log().shared_fields()
        assert ("pcb", "window") in shared
        assert ("rd", "seq") not in shared

    def test_paused(self):
        log = AccessLog()
        state = InstrumentedState("s", log=log, x=1)
        log.clear()
        with log.paused():
            _ = state.x
        assert log.records == []
        _ = state.x
        assert len(log.records) == 1

    def test_clear(self):
        log = self.make_log()
        log.clear()
        assert log.records == []
