"""Event-ordering edge cases for the :class:`Simulator` heap queue.

The scenarios probe where a bucketed timer queue goes wrong: same-time
order, cancellation, sparse timestamps, timers exactly on power-of-64
bucket edges, and times that are not binary fractions.  Each pins the
queue's ``(time, seq)`` fire order.  The property test against a
sorted event-list model is in ``tests/test_net_simulator.py``.
"""

import pytest

from repro.net.simulator import Simulator


def run_program(program):
    """Apply ``program(sim, log)`` to a fresh simulator; return the log."""
    sim = Simulator()
    log = []
    program(sim, log)
    return log


class TestBackendBasics:
    def test_unknown_backend_rejected(self):
        # There is one queue; the simulator takes no backend selector.
        with pytest.raises(TypeError):
            Simulator(queue="btree")

    def test_fire_order_same_time_is_schedule_order(self):
        def program(sim, log):
            for tag in "abc":
                sim.schedule(1.0, lambda tag=tag: log.append((sim.now, tag)))
            sim.run()
        assert run_program(program) == [(1.0, "a"), (1.0, "b"), (1.0, "c")]

    def test_cancel_is_effective_and_idempotent(self):
        def program(sim, log):
            keep = sim.schedule(1.0, lambda: log.append("keep"))
            drop = sim.schedule(1.0, lambda: log.append("drop"))
            drop.cancel()
            drop.cancel()
            sim.run()
            log.append(sim.pending)
            log.append(keep.cancelled)
        assert run_program(program) == ["keep", 0, False]

    def test_handles_carry_explicit_sequence(self):
        sim = Simulator()
        first = sim.schedule(5.0, lambda: None)
        second = sim.schedule(1.0, lambda: None)
        # Monotonic schedule order, independent of fire order.
        assert second.seq == first.seq + 1

    def test_schedule_during_current_bucket_drain(self):
        # An event scheduled at the current time while its own bucket
        # drains must still fire in this run, after pending same-time
        # events — the call_soon contract.
        def program(sim, log):
            def first():
                log.append("first")
                sim.call_soon(lambda: log.append("soon"))
            sim.schedule(1.0, first)
            sim.schedule(1.0, lambda: log.append("second"))
            sim.run()
        assert run_program(program) == ["first", "second", "soon"]

    def test_run_until_advances_between_sparse_buckets(self):
        def program(sim, log):
            sim.schedule(0.5, lambda: log.append(("a", sim.now)))
            sim.schedule(5000.0, lambda: log.append(("b", sim.now)))
            log.append(sim.run_until(0.5))
            log.append(sim.now)
            log.append(sim.run_until(6000.0))
            log.append(sim.now)
            sim.run()
        assert run_program(program) == [
            ("a", 0.5), 1, 0.5, ("b", 5000.0), 1, 6000.0]


class TestCascadeBoundaries:
    """Timers landing exactly on power-of-64 bucket edges."""

    RESOLUTION = 1.0 / 64
    WHEEL = 64

    def edge_times(self):
        """Bucket starts/ends at every level, and their neighbours."""
        times = []
        for level in range(4):
            span = self.RESOLUTION * self.WHEEL ** level
            horizon = span * self.WHEEL
            for base in (span, horizon, 2 * horizon):
                for nudge in (-span / 2, 0.0, span / 2):
                    time = base + nudge
                    if time > 0:
                        times.append(time)
        return times

    def test_exact_edge_timers_fire_in_order(self):
        times = self.edge_times()

        def program(sim, log):
            for i, time in enumerate(times):
                sim.schedule_at(time, lambda i=i: log.append((sim.now, i)))
            sim.run()
        fired = run_program(program)
        assert len(fired) == len(times)
        assert [t for t, _i in fired] == sorted(t for t, _i in fired)

    def test_timer_exactly_on_level_horizon(self):
        # Timers on, and just before, the first and second power-of-64
        # horizons fire in time order, each exactly at its own time.
        horizon0 = self.RESOLUTION * self.WHEEL
        times = (horizon0, horizon0 - self.RESOLUTION / 4,
                 horizon0 * self.WHEEL)

        def program(sim, log):
            for time in times:
                sim.schedule_at(time, lambda: log.append(sim.now))
            sim.run()
        assert run_program(program) == sorted(times)

    def test_non_binary_resolution_fires_in_order(self):
        # Multiples of 0.1 are not exact binary fractions, and some of
        # them collide; (time, seq) order must still hold exactly.
        times = [k * 0.1 for k in range(1, 40)]
        times += [k * 0.1 + 1e-12 for k in range(1, 40, 3)]
        times += [0.1 * 4 ** level for level in range(1, 4)]

        def program(sim, log):
            handles = [sim.schedule_at(t, lambda i=i: log.append(i))
                       for i, t in enumerate(times)]
            sim.run()
            log[:] = [(handles[i].time, handles[i].seq) for i in log]
        fired = run_program(program)
        assert len(fired) == len(times)
        assert fired == sorted(fired)

    def test_cancelled_timer_in_cascaded_bucket(self):
        def program(sim, log):
            span1 = self.RESOLUTION * self.WHEEL
            victim = sim.schedule_at(3 * span1, lambda: log.append("victim"))
            sim.schedule_at(3 * span1, lambda: log.append("kept"))
            sim.schedule_at(span1 / 2, lambda: victim.cancel())
            sim.run()
        assert run_program(program) == ["kept"]

    def test_same_time_events_across_bucket_creation_orders(self):
        # Two events at one timestamp, scheduled around a cascade: the
        # explicit seq (not identity or arrival bucket) orders them.
        def program(sim, log):
            span1 = self.RESOLUTION * self.WHEEL
            target = 2 * span1

            def late_schedule():
                sim.schedule_at(target, lambda: log.append("late-sched"))
            sim.schedule_at(target, lambda: log.append("early-sched"))
            sim.schedule_at(span1, late_schedule)
            sim.run()
        assert run_program(program) == ["early-sched", "late-sched"]
