"""Tests for the discrete-event simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import PeriodicTimer, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, simulator):
        fired = []
        simulator.schedule(2.0, lambda: fired.append("b"))
        simulator.schedule(1.0, lambda: fired.append("a"))
        simulator.schedule(3.0, lambda: fired.append("c"))
        simulator.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self, simulator):
        fired = []
        for tag in range(5):
            simulator.schedule(1.0, lambda t=tag: fired.append(t))
        simulator.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self, simulator):
        times = []
        simulator.schedule(1.5, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [1.5]

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self, simulator):
        fired = []

        def outer():
            fired.append(("outer", simulator.now))
            simulator.schedule(1.0, inner)

        def inner():
            fired.append(("inner", simulator.now))

        simulator.schedule(1.0, outer)
        simulator.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_call_soon_runs_after_pending_same_time(self, simulator):
        fired = []
        simulator.schedule(0.0, lambda: fired.append("first"))
        simulator.call_soon(lambda: fired.append("second"))
        simulator.run()
        assert fired == ["first", "second"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        simulator.run()
        assert not fired

    def test_double_cancel_harmless(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_excludes_cancelled(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert simulator.pending == 2
        handle.cancel()
        assert simulator.pending == 1

    def test_cancel_after_fire_leaves_counters_alone(self, simulator):
        # A periodic timer that stops itself from its own callback
        # cancels the handle that is firing right now.  That must not
        # count the event as gone twice: the later non-daemon event
        # still fires, and pending reflects what is really queued.
        fired = []
        timer = PeriodicTimer(simulator, 1.0, lambda: timer.stop(),
                              daemon=False)
        simulator.schedule_at(5.0, lambda: fired.append(simulator.now))
        assert simulator.run() == 2
        assert fired == [5.0]
        assert simulator.pending == 0
        handle = simulator.schedule(1.0, lambda: None)
        simulator.run()
        handle.cancel()
        assert simulator.pending == 0
        assert not handle.cancelled


class TestRunVariants:
    def test_run_until_fires_only_due_events(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(5.0, lambda: fired.append(5))
        count = simulator.run_until(2.0)
        assert count == 1 and fired == [1]
        assert simulator.now == 2.0
        assert simulator.pending == 1

    def test_run_until_inclusive_boundary(self, simulator):
        fired = []
        simulator.schedule(2.0, lambda: fired.append(2))
        simulator.run_until(2.0)
        assert fired == [2]

    def test_run_for_relative(self, simulator):
        simulator.run_until(10.0)
        fired = []
        simulator.schedule(1.0, lambda: fired.append(simulator.now))
        simulator.run_for(2.0)
        assert fired == [11.0]
        assert simulator.now == 12.0

    def test_run_backwards_rejected(self, simulator):
        simulator.run_until(5.0)
        with pytest.raises(SimulationError):
            simulator.run_until(1.0)

    def test_run_max_events(self):
        for max_events in (0, 3):
            simulator = Simulator()
            for _ in range(10):
                simulator.schedule(1.0, lambda: None)
            assert simulator.run(max_events=max_events) == max_events
            assert simulator.pending == 10 - max_events
            assert simulator.events_processed == max_events

    def test_step_returns_false_when_empty(self, simulator):
        assert simulator.step() is False

    def test_events_processed_counter(self, simulator):
        for _ in range(4):
            simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert simulator.events_processed == 4

    def test_determinism_across_instances(self):
        def run_once():
            simulator = Simulator()
            log = []
            simulator.schedule(0.5, lambda: log.append(("a", simulator.now)))
            simulator.schedule(0.5, lambda: simulator.schedule(
                0.25, lambda: log.append(("b", simulator.now))))
            simulator.run()
            return log
        assert run_once() == run_once()


# -- property: the heap against a sorted event-list model ----------------------


program_strategy = st.lists(
    st.one_of(
        # (schedule, delay-seconds, daemon?)
        st.tuples(st.just("schedule"),
                  st.floats(min_value=0.0, max_value=9000.0,
                            allow_nan=False, allow_infinity=False),
                  st.booleans()),
        # cancel the i-th schedule so far (modulo count; may have fired)
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        # run for a stretch of virtual time
        st.tuples(st.just("run_for"), st.floats(min_value=0.0,
                                                max_value=500.0,
                                                allow_nan=False,
                                                allow_infinity=False)),
    ),
    min_size=0, max_size=60)


@settings(max_examples=200, deadline=None)
@given(program=program_strategy)
def test_fires_like_a_sorted_event_list(program):
    """Fire order, ``pending`` and ``events_processed`` match a model.

    The model is the list of scheduled, uncancelled, unfired events in
    ``(time, seq)`` order: ``run_for`` fires its due prefix, and the
    final ``run()`` fires up to the last non-daemon event, leaving
    daemon-only work unfired.
    """
    sim = Simulator()
    log = []
    handles = []
    model_now = 0.0
    live = {}  # seq -> (time, daemon)
    model_log = []

    def fire_model(seqs):
        for seq in seqs:
            model_log.append((live.pop(seq)[0], seq))

    for op in program:
        if op[0] == "schedule":
            _, delay, daemon = op
            seq = len(handles)
            handles.append(sim.schedule(
                delay, lambda seq=seq: log.append((sim.now, seq)),
                daemon=daemon))
            live[seq] = (model_now + delay, daemon)
        elif op[0] == "cancel":
            if handles:
                seq = op[1] % len(handles)
                handles[seq].cancel()
                live.pop(seq, None)
        else:
            horizon = model_now + op[1]
            fire_model(sorted((s for s, (t, _d) in live.items()
                               if t <= horizon),
                              key=lambda s: (live[s][0], s)))
            model_now = horizon
            sim.run_for(op[1])
        assert sim.pending == len(live)
    order = sorted(live, key=lambda s: (live[s][0], s))
    last_nondaemon = max((i for i, s in enumerate(order)
                          if not live[s][1]), default=-1)
    fire_model(order[:last_nondaemon + 1])
    sim.run()
    assert log == model_log
    assert sim.pending == len(live)
    assert sim.events_processed == len(model_log)
