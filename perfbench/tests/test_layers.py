"""Tests for the traced run: self-time arithmetic, wrapper removal, counts.

Run with:  python -m pytest perfbench/tests
"""

import itertools
import sys
import types

import numpy as np
import pytest

import layers
import run
import workloads


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    names = np.array([0, 1, 1, 0])      # a and d share name 0
    starts = np.array([0.0, 1.0, 5.0, 6.0])
    ends = np.array([10.0, 4.0, 9.0, 7.0])
    parents = np.array([-1, 0, 0, 2])
    got = layers.self_times(names, starts, ends, parents, count=3)
    # a: 10 - 3 - 4 = 3, d: 1  -> 4;  b: 3, c: 4 - 1 = 3  -> 6;  name 2: 0
    assert got.tolist() == [4.0, 6.0, 0.0]


def test_self_times_sum_to_root_durations():
    rng = np.random.default_rng(7)
    # A random well-nested tree: each span splits its interval among children.
    starts, ends, parents = [0.0], [100.0], [-1]
    for index in itertools.count():
        if index >= len(starts) or len(starts) > 200:
            break
        low, high = starts[index], ends[index]
        cuts = np.sort(rng.uniform(low, high, size=4))
        for s, e in ((cuts[0], cuts[1]), (cuts[2], cuts[3])):
            starts.append(float(s))
            ends.append(float(e))
            parents.append(index)
    n = len(starts)
    got = layers.self_times(np.zeros(n, dtype=np.int64), np.array(starts),
                            np.array(ends), np.array(parents), count=1)
    assert got[0] == pytest.approx(100.0)


def _fake_program(monkeypatch):
    """A tiny 'repro' package: a class, a function, a generator, an importer."""
    lib = types.ModuleType("repro_fake_lib")

    class Engine:
        def run(self, clock, inner):
            clock.tick(1)
            inner()
            clock.tick(1)
            return "ran"

        @classmethod
        def build(cls):
            return cls()

    def work(clock):
        clock.tick(2)

    def stream(clock, n):
        for i in range(n):
            clock.tick(1)
            yield i

    lib.Engine, lib.work, lib.stream = Engine, work, stream
    user = types.ModuleType("repro_fake_user")
    user.work = work                      # ``from repro_fake_lib import work``
    monkeypatch.setitem(sys.modules, "repro_fake_lib", lib)
    monkeypatch.setitem(sys.modules, "repro_fake_user", user)
    return lib, user


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def tick(self, amount):
        self.now += amount

    def __call__(self):
        return self.now


FAKE_POINTS = (
    ("x.run", "repro_fake_lib", "Engine.run"),
    ("x.build", "repro_fake_lib", "Engine.build"),
    ("x.work", "repro_fake_lib", "work"),
    ("x.stream", "repro_fake_lib", "stream"),
    ("x.gone", "repro_fake_lib", "Engine.deleted"),
    ("x.gone", "repro_fake_missing", "anything"),
)


def test_spans_nest_and_self_time_excludes_children(monkeypatch):
    lib, user = _fake_program(monkeypatch)
    clock = FakeClock()
    tracer = layers.Tracer(FAKE_POINTS, clock=clock)
    with tracer:
        engine = lib.Engine.build()
        assert engine.run(clock, lambda: user.work(clock)) == "ran"
        assert list(lib.stream(clock, 3)) == [0, 1, 2]
    summary = tracer.summary()
    assert summary["x.run"] == {"calls": 1, "self_s": 2.0, "steady_self_s": 2.0}
    assert summary["x.work"]["calls"] == 1
    assert summary["x.work"]["self_s"] == 2.0
    assert summary["x.build"]["calls"] == 1
    # One span per generator resumption (3 items + the final stop), plus
    # the call that created the generator.
    assert summary["x.stream"]["calls"] == 5
    assert summary["x.stream"]["self_s"] == 3.0
    assert summary["x.gone"]["calls"] == 0
    assert tracer.absent == ["repro_fake_lib:Engine.deleted",
                             "repro_fake_missing:anything"]


def test_steady_mark_splits_self_time(monkeypatch):
    lib, _user = _fake_program(monkeypatch)
    clock = FakeClock()
    tracer = layers.Tracer(FAKE_POINTS, clock=clock)
    with tracer:
        lib.work(clock)
        tracer.mark_steady()
        lib.work(clock)
        lib.work(clock)
    summary = tracer.summary()["x.work"]
    assert (summary["self_s"], summary["steady_self_s"]) == (6.0, 4.0)


def _snapshot():
    """Every attribute of every loaded repro module and its classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in list(vars(value).items()):
                    seen[(name, attr, key)] = member
    return seen


def _wrapped(value):
    inner = getattr(value, "__func__", value)
    return getattr(inner, layers.WRAPPED_MARK, False)


def test_uninstall_restores_every_entry_point(monkeypatch):
    _fake_program(monkeypatch)
    before = _snapshot()
    tracer = layers.Tracer(layers.ENTRY_POINTS + FAKE_POINTS)
    tracer.install()
    during = _snapshot()
    assert sum(1 for value in during.values() if _wrapped(value)) >= 30
    tracer.uninstall()
    after = _snapshot()
    assert not [key for key, value in after.items() if _wrapped(value)]
    assert all(after[key] is value for key, value in before.items())
    # Names bound by ``from module import fn`` were patched and restored too.
    import repro.sim
    import repro.sim.driver
    assert _wrapped(during[("repro.sim", "figure5_curves")])
    assert repro.sim.figure5_curves is repro.sim.driver.figure5_curves
    assert not _wrapped(repro.sim.figure5_curves)


def test_uninstall_runs_after_a_failing_rep(monkeypatch):
    tracer = layers.Tracer()

    class Broken:
        def setup(self, seed):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        run.run_reps(Broken(), 1, budget=0.0, min_reps=1, tracer=tracer)
    assert not [key for key, value in _snapshot().items() if _wrapped(value)]


def test_every_entry_point_exists_today():
    tracer = layers.Tracer()
    with tracer:
        pass
    assert tracer.absent == []


SMALL = {
    "serve": lambda: workloads.Serve(duration=60.0, rate=5.0,
                                     regular_per_tld=4, special=4,
                                     auth_servers=2, resolvers=2),
    "storm": lambda: workloads.Storm(holders=200),
    "replay": lambda: workloads.Replay(days=1.0, rate=0.05, fixed_points=4,
                                       regular_per_tld=4, special=4,
                                       clients=10),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_for_one_seed(name):
    workload = SMALL[name]()
    tracer = layers.Tracer()
    reps = run.run_reps(workload, 5, budget=0.0, min_reps=2, tracer=tracer)
    assert run.gate(reps) == []
    first, second = (run.layer_counts(rep) for rep in reps)
    assert first == second
    assert sum(first["calls"].values()) > 0
    metrics = run.per_layer(reps, reps)
    assert sorted(metrics) == sorted(m[0] for m in run.PER_LAYER)


def test_catalogue_matches_benchmark_json():
    import json
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
