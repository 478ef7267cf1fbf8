"""Streaming audit: batch-equivalent verdicts with bounded memory.

Replays the traces of three established benches — the §5.2 Figure 7
testbed, the flash-crowd redirect, and the UDP-loss ablation — through
the :class:`~repro.obs.IncrementalAuditor` one event at a time, and
holds the streaming plane to its two commitments:

* **bit-for-bit equivalence** — the streamed violation list (order,
  kinds, messages) and the check counts must equal what the frozen
  batch oracle (``tests/audit_oracle.py``) computes over the complete
  trace;
* **bounded memory** — the peak number of tracked spans (live leases +
  unretired changes) must stay under the committed per-scenario caps
  below, all far beneath the event counts a batch audit holds.

Peak-span caps are ceilings observed with headroom, not targets: the
fig7 run peaks at ~81 spans over ~640 events, the flash crowd at a
handful, the loss ablation at ~the grant count.
"""

from __future__ import annotations

from repro.obs import AuditLimits, IncrementalAuditor
from repro.sim import Testbed, TestbedConfig, run_figure7_scenario
from tests.audit_oracle import audit_trace as oracle_audit

from benchmarks.bench_abl_udp_loss import CHANGES, run_loss_level
from benchmarks.bench_flash_crowd import run_flash_crowd
from benchmarks.conftest import print_table

#: Committed peak tracked-span ceilings per scenario (see module doc).
PEAK_CAPS = {
    "fig7": 120,
    "flash-crowd": 40,
    "udp-loss": 2 * CHANGES + 10,
}


def fig7_trace():
    testbed = Testbed(TestbedConfig(observability=True))
    run_figure7_scenario(testbed)
    limits = AuditLimits(storage_budget=500, renewal_budget=50.0,
                         max_staleness=10.0)
    return list(testbed.observability.trace.events), limits


def flash_crowd_trace():
    obs = run_flash_crowd(True)["observability"]
    return list(obs.trace.events), AuditLimits(max_staleness=10.0)


def udp_loss_trace():
    _module, _network, obs = run_loss_level(0.3)
    return list(obs.trace.events), AuditLimits(storage_budget=CHANGES)


SCENARIOS = {
    "fig7": fig7_trace,
    "flash-crowd": flash_crowd_trace,
    "udp-loss": udp_loss_trace,
}


def violation_key(violation):
    return (violation.kind, repr(violation.seq), repr(violation.t),
            tuple(violation.events), violation.message)


def stream_scenario(name):
    """Stream one scenario's trace; returns the comparison record."""
    events, limits = SCENARIOS[name]()
    auditor = IncrementalAuditor(limits=limits)
    for event in events:
        auditor.feed(event)
    stream = auditor.report()
    batch = oracle_audit(events, limits=limits)
    return {
        "scenario": name,
        "events": len(events),
        "stream": stream,
        "batch": batch,
        "peak_tracked_spans": auditor.peak_tracked_spans,
        "peak_cap": PEAK_CAPS[name],
    }


def check_record(record):
    """Failure messages for one scenario record (empty = pass)."""
    failures = []
    stream, batch = record["stream"], record["batch"]
    if [violation_key(v) for v in stream.violations] \
            != [violation_key(v) for v in batch.violations]:
        failures.append(f"{record['scenario']}: streamed violations "
                        f"diverge from the batch audit")
    if stream.checks != batch.checks:
        failures.append(f"{record['scenario']}: streamed check counts "
                        f"diverge from the batch audit")
    if stream.ok != batch.ok:
        failures.append(f"{record['scenario']}: streamed verdict "
                        f"{stream.ok} != batch {batch.ok}")
    if record["peak_tracked_spans"] >= record["peak_cap"]:
        failures.append(
            f"{record['scenario']}: peak tracked spans "
            f"{record['peak_tracked_spans']} at or above the committed "
            f"cap {record['peak_cap']}")
    if record["peak_tracked_spans"] * 2 >= record["events"]:
        failures.append(
            f"{record['scenario']}: peak tracked spans not meaningfully "
            f"below the event count")
    return failures


def test_streaming_audit_matches_batch(benchmark):
    records = [benchmark.pedantic(stream_scenario, args=("fig7",),
                                  rounds=1, iterations=1)]
    records.extend(stream_scenario(name)
                   for name in ("flash-crowd", "udp-loss"))

    rows = []
    failures = []
    for record in records:
        failures.extend(check_record(record))
        stream = record["stream"]
        rows.append((record["scenario"], record["events"],
                     len(stream.violations),
                     "yes" if stream.ok else "NO",
                     record["peak_tracked_spans"], record["peak_cap"]))
    print_table("Streaming audit — batch equivalence and memory bounds",
                ("scenario", "events", "violations", "clean",
                 "peak spans", "cap"), rows)
    assert failures == [], failures
