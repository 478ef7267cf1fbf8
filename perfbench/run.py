"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {serve,storm,replay} --seed N \
        --seconds S --trace {0,1}

Runs the program from ``src/`` of the checkout it sits in.  A run
repeats setup + steady phase of the chosen workload until ``--seconds``
of wall time have passed (at least three times) and reports medians.
Every repetition is correctness-checked, and its program counters must
repeat exactly (they are simulated-time outcomes of one seed).

``--trace 0`` prints every end-to-end metric as a table, then one JSON
line with the metrics ``BENCHMARK.json`` gates.  ``--trace 1`` spends
half the time on untraced repetitions and half on repetitions with the
layer wrappers of ``layers.py`` installed, and reports the per-layer
metrics plus ``trace.overhead_ratio``.  Both write a record, with the
environment, to ``perfbench/results/``; a traced run also writes its
spans there.  The exit code is 0 only if every correctness gate held.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: The metrics ``BENCHMARK.json`` gates, reported by every workload.
END_TO_END = (("setup_s", "s"), ("steady_s", "s"), ("ops_per_s", "ops/s"),
              ("peak_rss_mb", "MB"))

#: Every end-to-end metric the run prints: name, unit, and the workload
#: it belongs to (None: all workloads).
PRINTED = (
    ("setup_s", "s", None), ("steady_s", "s", None),
    ("peak_rss_mb", "MB", None), ("error_ratio", "failed/attempted", None),
    ("ops_per_s", "ops/s", None),
    ("wall_setup_s", "s", None), ("wall_steady_s", "s", None),
    ("host_scale", "ratio", None),
    ("lookups_per_s", "lookups/s", "serve"),
    ("msgs_per_s", "datagrams/s", "serve"),
    ("msgs_per_lookup", "datagrams/lookup", "serve"),
    ("stale_ratio", "stale/lookups", "serve"),
    ("renewals_per_s", "renewals/s", "storm"),
    ("acks_per_s", "acks/s", "storm"),
    ("audit_events_per_s", "events/s", "storm"),
    ("replayed_events_per_s", "events/s", "replay"),
)

#: Every per-layer metric ``--trace 1`` reports: name, unit, better.  A
#: ``<span>.calls`` / ``<span>.self_s`` name is read from the span of
#: that name (``layers.ENTRY_POINTS``); the rest are derived in
#: :func:`per_layer`.
PER_LAYER = (
    ("dnslib.decode.calls", "count", "lower"),
    ("dnslib.decode.self_s", "s", "lower"),
    ("dnslib.encode.calls", "count", "lower"),
    ("dnslib.encode.self_s", "s", "lower"),
    ("dnslib.bytes_per_msg", "bytes", "lower"),
    ("net.dispatch.calls", "count", "lower"),
    ("net.dispatch.self_s", "s", "lower"),
    ("net.timer.scheduled", "count", "lower"),
    ("net.timer.self_s", "s", "lower"),
    ("net.timer.cancelled", "count", "lower"),
    ("net.timer.cancel_ratio", "ratio", "lower"),
    ("net.queue.depth_p50", "events", "lower"),
    ("net.queue.depth_max", "events", "lower"),
    ("net.send.calls", "count", "lower"),
    ("net.send.self_s", "s", "lower"),
    ("net.datagrams.lost", "count", "lower"),
    ("net.datagrams.unreachable", "count", "lower"),
    ("server.auth.calls", "count", "lower"),
    ("server.auth.self_s", "s", "lower"),
    ("server.resolver.calls", "count", "lower"),
    ("server.resolver.self_s", "s", "lower"),
    ("server.resolver.cache_hit_ratio", "ratio", "higher"),
    ("server.resolver.upstream_per_query", "ratio", "lower"),
    ("server.stub.calls", "count", "lower"),
    ("server.stub.self_s", "s", "lower"),
    ("zone.write.calls", "count", "lower"),
    ("zone.write.self_s", "s", "lower"),
    ("core.listening.calls", "count", "lower"),
    ("core.listening.self_s", "s", "lower"),
    ("core.listening.grant_ratio", "ratio", "higher"),
    ("core.lease.grant.calls", "count", "lower"),
    ("core.lease.grant.self_s", "s", "lower"),
    ("core.lease.holders.calls", "count", "lower"),
    ("core.lease.holders.self_s", "s", "lower"),
    ("core.lease.peak_active", "count", "lower"),
    ("core.notify.calls", "count", "lower"),
    ("core.notify.self_s", "s", "lower"),
    ("core.notify.sent", "count", "lower"),
    ("core.notify.retransmissions", "count", "lower"),
    ("core.notify.ack_ratio", "ratio", "higher"),
    ("core.notify.encodes_per_notify", "ratio", "lower"),
    ("obs.trace.calls", "count", "lower"),
    ("obs.trace.self_s", "s", "lower"),
    ("obs.trace.dropped", "count", "lower"),
    ("obs.load.calls", "count", "lower"),
    ("obs.load.self_s", "s", "lower"),
    ("obs.audit.self_s", "s", "lower"),
    ("obs.share", "ratio", "lower"),
    ("sim.replay.self_s", "s", "lower"),
    ("sim.train.self_s", "s", "lower"),
    ("sim.reference.replay.self_s", "s", "lower"),
    ("sim.fast.index.self_s", "s", "lower"),
    ("sim.fast.replay.self_s", "s", "lower"),
    ("sim.fast.sweep.self_s", "s", "lower"),
    ("sim.fast.polling.self_s", "s", "lower"),
    ("sim.columnar.load.self_s", "s", "lower"),
    ("sim.columnar.replay.self_s", "s", "lower"),
    ("sim.columnar.sweep.self_s", "s", "lower"),
    ("sim.columnar.polling.self_s", "s", "lower"),
    ("traces.generate.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

MIN_REPS = 3
MIN_TRACED_REPS = 2


@dataclasses.dataclass
class Rep:
    """One setup + steady repetition: wall times and host-speed factors."""

    setup_s: float
    steady_s: float
    setup_scale: float
    steady_scale: float
    outcome: object
    #: Traced reps only: span summary, queue-depth samples, encoded bytes.
    layers: Optional[dict] = None

    @property
    def scaled_setup_s(self) -> float:
        return self.setup_s * self.setup_scale

    @property
    def scaled_steady_s(self) -> float:
        return self.steady_s * self.steady_scale


def run_reps(workload, seed: int, budget: float, min_reps: int,
             tracer=None) -> List[Rep]:
    """Repeat the workload until ``budget`` seconds and ``min_reps`` are done.

    The host-speed reference is timed before setup, between setup and
    steady phase, and after the steady phase, outside both timings.
    """
    reps: List[Rep] = []
    deadline = time.perf_counter() + budget
    while len(reps) < min_reps or time.perf_counter() < deadline:
        gc.collect()
        speed_before = hostspeed.reference()
        if tracer is not None:
            tracer.reset()
        try:
            if tracer is not None:
                tracer.install()
            started = time.perf_counter()
            state = workload.setup(seed)
            set_up = time.perf_counter()
            speed_between = hostspeed.reference()
            if tracer is not None:
                tracer.mark_steady()
            resumed = time.perf_counter()
            outcome = workload.steady(state)
            done = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        del state
        speed_after = hostspeed.reference()
        layers = None
        if tracer is not None:
            layers = {"spans": tracer.summary(),
                      "depths": sorted(tracer.queue_depths),
                      "encoded_bytes": tracer.encoded_bytes}
        reps.append(Rep(set_up - started, done - resumed,
                        hostspeed.scale(speed_before, speed_between),
                        hostspeed.scale(speed_between, speed_after),
                        outcome, layers))
    return reps


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def median(values) -> float:
    return statistics.median(list(values))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def gate(reps: List[Rep]) -> List[str]:
    """Per-rep correctness failures, plus counts that did not repeat."""
    failures = [f"rep {i}: {message}" for i, rep in enumerate(reps)
                for message in rep.outcome.failures]
    first = reps[0].outcome.counts
    for i, rep in enumerate(reps[1:], start=1):
        if rep.outcome.counts != first:
            changed = sorted(k for k in first
                             if rep.outcome.counts.get(k) != first[k])
            failures.append(f"rep {i}: counts differ from rep 0: {changed}")
    return failures


def end_to_end(workload, reps: List[Rep]) -> Dict[str, float]:
    """Medians over the reps of every timed end-to-end metric, in
    host-speed-scaled seconds, plus the wall-time medians."""
    metrics = {
        "setup_s": median(r.scaled_setup_s for r in reps),
        "steady_s": median(r.scaled_steady_s for r in reps),
        "ops_per_s": median(r.outcome.ops / r.scaled_steady_s for r in reps),
        "wall_setup_s": median(r.setup_s for r in reps),
        "wall_steady_s": median(r.steady_s for r in reps),
        "host_scale": median(r.steady_scale for r in reps),
    }
    headlines = [workload.headline(r.outcome, r.scaled_steady_s,
                                   r.steady_scale) for r in reps]
    for key in headlines[0]:
        metrics[key] = median(h[key] for h in headlines)
    return metrics


def per_layer(traced: List[Rep], untraced: List[Rep]) -> Dict[str, float]:
    """The per-layer metrics: counts from the first traced rep, self
    times as medians over all of them."""
    first = traced[0]
    calls = {name: s["calls"] for name, s in first.layers["spans"].items()}
    counts = first.outcome.counts
    depths = first.layers["depths"]
    sent = counts.get("notifications_sent", 0)
    retransmissions = counts.get("notify_retransmissions", 0)
    derived = {
        "dnslib.bytes_per_msg": _ratio(first.layers["encoded_bytes"],
                                       calls["dnslib.encode"]),
        "net.timer.scheduled": calls["net.timer"],
        "net.timer.cancelled": calls["net.timer.cancel"],
        "net.timer.cancel_ratio": _ratio(calls["net.timer.cancel"],
                                         calls["net.timer"]),
        "net.queue.depth_p50": depths[len(depths) // 2] if depths else 0,
        "net.queue.depth_max": depths[-1] if depths else 0,
        "net.datagrams.lost": counts.get("datagrams_lost", 0),
        "net.datagrams.unreachable": counts.get("datagrams_unreachable", 0),
        "server.resolver.cache_hit_ratio": _ratio(
            counts.get("cache_hits", 0), counts.get("cache_lookups", 0)),
        "server.resolver.upstream_per_query": _ratio(
            counts.get("upstream_queries", 0), counts.get("client_queries", 0)),
        "core.listening.grant_ratio": _ratio(
            counts.get("lease_grants", 0), counts.get("lease_queries", 0)),
        "core.lease.peak_active": counts.get("peak_active_leases", 0),
        "core.notify.sent": sent,
        "core.notify.retransmissions": retransmissions,
        "core.notify.ack_ratio": _ratio(counts.get("acks", 0),
                                        sent + retransmissions),
        "core.notify.encodes_per_notify": _ratio(
            counts.get("wire_encodes", 0), sent),
        "obs.trace.dropped": counts.get("trace_dropped", 0),
        "obs.share": median(
            sum(s["steady_self_s"] for name, s in r.layers["spans"].items()
                if name.startswith("obs.")) / r.steady_s for r in traced),
        "trace.overhead_ratio": (
            median(r.scaled_steady_s for r in traced)
            / median(r.scaled_steady_s for r in untraced) - 1.0),
    }
    metrics: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        span, _, what = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif what == "calls":
            metrics[name] = calls[span]
        else:
            metrics[name] = median(r.layers["spans"][span]["self_s"]
                                   for r in traced)
    return metrics


def layer_counts(rep: Rep) -> dict:
    """Everything in a traced rep that must repeat exactly for one seed."""
    depths = rep.layers["depths"]
    return {"calls": {n: s["calls"] for n, s in rep.layers["spans"].items()},
            "counts": rep.outcome.counts,
            "depths": (len(depths), sum(depths)),
            "encoded_bytes": rep.layers["encoded_bytes"]}


def git_revision() -> Optional[str]:
    """HEAD of the checkout, read from ``.git``; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "git_revision": git_revision()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve", "storm", "replay"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import layers
        import workloads
    except ImportError as error:
        print(f"cannot load the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": environment()}
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        untraced = run_reps(workload, args.seed, args.seconds / 2,
                            MIN_TRACED_REPS)
        tracer = layers.Tracer()
        traced = run_reps(workload, args.seed, args.seconds / 2,
                          MIN_TRACED_REPS, tracer=tracer)
        tracer.save(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")
        reps = untraced + traced
        failures = gate(reps)
        first = layer_counts(traced[0])
        failures += [f"traced rep {i}: per-layer counts differ from rep 0"
                     for i, rep in enumerate(traced[1:], start=1)
                     if layer_counts(rep) != first]
        metrics = per_layer(traced, untraced)
        record["absent"] = tracer.absent
        record["per_layer"] = metrics
        for name, unit, _better in PER_LAYER:
            print(f"{name:40s} {metrics[name]:>16.6g}  {unit}")
        if tracer.absent:
            print("absent entry points: " + ", ".join(tracer.absent))
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _better in PER_LAYER}
    else:
        reps = run_reps(workload, args.seed, args.seconds, MIN_REPS)
        rss = peak_rss_mb()
        failures = gate(reps)
        metrics = end_to_end(workload, reps)
        metrics["peak_rss_mb"] = rss
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END}
    attempted = sum(r.outcome.attempted for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    if args.workload == "replay":
        checked, differing = workloads.reference_check(args.seed)
        attempted += checked
        failed += differing
        if differing:
            failures.append(f"{differing} of {checked} operating points "
                            f"differ from the reference engine")
    if not args.trace:
        metrics["error_ratio"] = failed / attempted
        for name, unit, only in PRINTED:
            shown = (f"{metrics[name]:>16.6g}" if only in (None, args.workload)
                     else f"{'n/a':>16s}")
            print(f"{name:24s} {shown}  {unit}")
        record["end_to_end"] = metrics
        record["counts"] = reps[0].outcome.counts
    record["reps"] = [{"setup_s": r.setup_s, "steady_s": r.steady_s,
                       "setup_scale": r.setup_scale,
                       "steady_scale": r.steady_scale,
                       "phases": r.outcome.phases} for r in reps]
    record["failures"] = failures
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
