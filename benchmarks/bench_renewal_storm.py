"""Renewal storm: one mapping change into 10^5 synchronized holders.

The classic strong-consistency failure mode the paper's §4.2 budgets
exist to contain: a large holder population whose leases synchronize,
renewing in one burst and then all receiving the CACHE-UPDATE fan-out
for a single mapping change.  The bench drives that scenario through
the *real* middleware (lease table, detection, notification, simulated
network) with the load-attribution plane armed, and holds the run to
four commitments:

* **attribution** — the :class:`repro.obs.load.LoadLedger` must see the
  full query/renewal/notify/retransmit mix through the per-server
  recorder hooks, and its ``peak_p99_server_load`` (the p99 of the
  server's fast-window rate, bucket-interpolated over the ledger's
  log-spaced histogram) must be positive and no higher than
  ``peak_rate``, the highest rate that stream ever reached;
* **storm detection** — the :class:`repro.obs.load.StormDetector` must
  flag at least one renewal-synchronization episode (the synchronized
  renewal burst and the notify fan-out each qualify);
* **audit** — the full protocol audit (completeness, termination,
  causality) over the run's trace must report zero violations;
* **shard invariance** — the columnar load reduction
  (:func:`repro.sim.sharded_load_metrics`) must export byte-identical
  registries at 1, 2, and 8 shards, and a process-pool reduction must
  match the serial one bit for bit.

Any mismatch counts as an *audit violation*; the run fails unless there
are zero.  The full-scale run (10^5 holders) writes ``BENCH_storm.json``
at the repo root; CI re-runs a scaled-down smoke (10^3 holders) through
the same code path.

Run full scale:     python benchmarks/bench_renewal_storm.py
Run the CI smoke:   python benchmarks/bench_renewal_storm.py \
                        --holders 1000 --json /tmp/storm_smoke.json \
                        --min-events-per-sec 500
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core import DNScupConfig, DynamicLeasePolicy, attach_dnscup
from repro.dnslib import (Message, RRType, WireFormatError,
                          make_cache_update_ack)
from repro.net import Host, Network, RetryPolicy, Simulator
from repro.obs import Observability, audit_observability
from repro.server import AuthoritativeServer
from repro.sim import flash_crowd_columnar, sharded_load_metrics
from repro.zone import load_zone

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_storm.json"

#: The full-scale acceptance floor this PR establishes (load-ledger
#: events attributed per wall-clock second, end to end through the
#: simulated protocol run); regressions must stay above it.
MIN_EVENTS_PER_SEC = 2_000

HOLDERS = 100_000

#: Phase schedule (simulated seconds): grants spread over the first
#: window establish the decayed baseline; every holder then renews in
#: one synchronized instant; the mapping change lands a minute later.
GRANT_WINDOW = 300.0
GRANT_BATCHES = 200
RENEW_AT = 600.0
CHANGE_AT = 660.0
LEASE_LENGTH = 3600.0

#: A retransmit timeout below the simulated RTT (2 x 10 ms) forces one
#: deliberate retransmission per notify leg before the ack lands, so
#: the retransmit message class shows real storm traffic.
NOTIFY_RETRY = RetryPolicy(initial_timeout=0.015, max_attempts=4)

ZONE_TEXT = """\
$ORIGIN example.com.
$TTL 3600
@    IN SOA ns1 admin 1 7200 900 604800 300
@    IN NS  ns1
ns1  IN A   10.1.0.1
www  IN A   10.0.0.10
"""

SERVER_ADDRESS = "10.1.0.1"
LEASED_NAME = "www.example.com"

#: The sharded-reduction invariance check: a synthetic flash-crowd
#: columnar trace, reduced at these shard counts.
SHARD_COUNTS = (1, 2, 8)
SHARD_TRACE_CACHES = 4_000


def holder_endpoint(index: int) -> Tuple[str, int]:
    """A unique /16-packed holder address; port 53 like a resolver."""
    return (f"172.{16 + (index >> 16)}.{(index >> 8) & 255}.{index & 255}",
            53)


def bind_echo_holders(network: Network, count: int) -> None:
    """Bind ``count`` minimal ack-answering lease holders.

    Each holder parses the incoming CACHE-UPDATE and returns the real
    protocol acknowledgement (:func:`repro.dnslib.make_cache_update_ack`
    — same message ID, response bit set), which the notification
    module's pending-request matcher settles on.  Responses (QR bit
    already set, e.g. a duplicate ack bounced off the server) are
    ignored, so nothing can ping-pong.
    """
    def on_datagram(payload: bytes, src, dst) -> None:
        if len(payload) < 3 or payload[2] & 0x80:
            return
        try:
            update = Message.from_wire(payload)
        except WireFormatError:
            return
        network.send(make_cache_update_ack(update).to_wire(), dst, src)

    for index in range(count):
        network.bind(holder_endpoint(index), on_datagram)


def audit_shard_invariance() -> int:
    """Byte-compare the columnar load reduction across shard counts.

    Returns the number of mismatched exports (serial 1/2/8 shards must
    all agree, and the 2-shard process-pool run must equal serial).
    """
    trace, _max_lease = flash_crowd_columnar(
        caches=SHARD_TRACE_CACHES, regular_domains=SHARD_TRACE_CACHES // 5,
        duration=86400.0, hot_domains=2, base_rate=2.0 / 86400.0,
        flash_rate=8.0 / 86400.0, cache_fanout=1, seed=2006)

    def export(nshards: int, processes: Optional[int] = None) -> str:
        registry = sharded_load_metrics(trace, nshards, processes=processes)
        buffer = io.StringIO()
        registry.export_json(buffer)
        return buffer.getvalue()

    serial = {n: export(n) for n in SHARD_COUNTS}
    violations = 0
    if len(set(serial.values())) != 1:
        violations += 1
    if export(2, processes=2) != serial[2]:
        violations += 1
    return violations


def run_storm_bench(holders: int, min_events_per_sec: float,
                    json_path: Optional[Path] = None) -> dict:
    """One full bench run: grant, synchronize, change, audit, record."""
    started = time.perf_counter()
    simulator = Simulator()
    obs = Observability.for_simulator(simulator, trace_capacity=1 << 21)
    ledger = obs.enable_load()
    network = Network(simulator, seed=2006)
    obs.observe_network(network)
    zone = load_zone(ZONE_TEXT)
    server = AuthoritativeServer(Host(network, SERVER_ADDRESS), [zone])
    middleware = attach_dnscup(
        server, policy=DynamicLeasePolicy(0.0),
        config=DNScupConfig(observability=obs, notify_retry=NOTIFY_RETRY,
                            lease_capacity=2 * holders))
    bind_echo_holders(network, holders)

    # Phase 1: grants spread across the window build the slow baseline.
    batch = max(1, holders // GRANT_BATCHES)
    granted = 0
    while granted < holders:
        simulator.run_until(GRANT_WINDOW * granted / holders)
        for index in range(granted, min(granted + batch, holders)):
            middleware.table.grant(holder_endpoint(index), LEASED_NAME,
                                   RRType.A, now=simulator.now,
                                   length=LEASE_LENGTH)
        granted += batch

    # Phase 2: every holder renews in one synchronized instant.
    simulator.run_until(RENEW_AT)
    for index in range(holders):
        middleware.table.grant(holder_endpoint(index), LEASED_NAME,
                               RRType.A, now=simulator.now,
                               length=LEASE_LENGTH)

    # Phase 3: one mapping change fans CACHE-UPDATEs to every holder.
    simulator.run_until(CHANGE_AT)
    zone.replace_address(LEASED_NAME, ["10.0.0.99"])
    simulator.run()
    ledger.detector.close_open(simulator.now)
    elapsed = time.perf_counter() - started

    server_id = f"{SERVER_ADDRESS}:53"
    stats = middleware.notification.stats
    events_per_sec = ledger.total / elapsed
    peak_p99 = ledger.server_quantile(server_id, 99.0, "rate")

    audit = audit_observability(obs)
    audit_violations = len(audit.violations)
    shard_mismatches = audit_shard_invariance()
    audit_violations += shard_mismatches

    episodes = ledger.detector.episodes
    record = {
        "bench": "renewal_storm",
        "holders": holders,
        "ledger_events": ledger.total,
        "grants": middleware.table.stats.grants,
        "renewals": middleware.table.stats.renewals,
        "notifications_sent": stats.notifications_sent,
        "retransmissions": stats.retransmissions,
        "acks_received": stats.acks_received,
        "elapsed_seconds": round(elapsed, 3),
        "events_per_sec": round(events_per_sec),
        "peak_p99_server_load": round(0.0 if peak_p99 is None else peak_p99,
                                      3),
        "peak_rate": round(ledger.peak_rate(), 3),
        "quantile_method": "log-bucket",
        "storm_episodes": len(episodes),
        "storm_peak_rates": [round(episode.peak_rate, 3)
                             for episode in episodes],
        "audit_checks": dict(audit.checks),
        "shards_checked": list(SHARD_COUNTS),
        "shard_mismatches": shard_mismatches,
        "audit_violations": audit_violations,
        "min_events_per_sec": min_events_per_sec,
    }
    if json_path is not None:
        json_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"\n== Renewal storm — {holders:,} synchronized holders ==")
    print(f"  attribution     {ledger.total:,} ledger events "
          f"({stats.notifications_sent:,} notifies, "
          f"{stats.retransmissions:,} retransmits, "
          f"{stats.acks_received:,} acks)")
    print(f"  throughput      {events_per_sec:12,.0f} events/s "
          f"(floor {min_events_per_sec:,.0f})")
    print(f"  peak p99 load   {record['peak_p99_server_load']:,.0f} "
          f"events/s on {server_id}")
    print(f"  storms          {len(episodes)} episodes "
          f"(peaks {record['storm_peak_rates']})")
    print(f"  audit           {audit_violations} violations "
          f"(protocol audit + shard invariance)")
    if json_path is not None:
        print(f"  record          {json_path}")
    return record


def check_record(record: dict) -> List[str]:
    """The failure messages a run's record earns (empty = pass)."""
    failures = []
    if record["events_per_sec"] < record["min_events_per_sec"]:
        failures.append(
            f"throughput {record['events_per_sec']:,} events/s below the "
            f"floor {record['min_events_per_sec']:,}")
    if record["storm_episodes"] < 1:
        failures.append("no storm episode detected (expected >= 1)")
    if record["peak_p99_server_load"] <= 0.0:
        failures.append("peak p99 server load not positive")
    if record["peak_p99_server_load"] > record["peak_rate"]:
        failures.append(
            f"peak p99 server load {record['peak_p99_server_load']:,} "
            f"above the peak rate {record['peak_rate']:,}")
    if record["acks_received"] < record["holders"]:
        failures.append(
            f"only {record['acks_received']:,} of {record['holders']:,} "
            f"holders acked the fan-out")
    if record["audit_violations"]:
        failures.append(
            f"{record['audit_violations']} audit violations (expected 0)")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Synchronized renewal-storm benchmark.")
    parser.add_argument("--holders", type=int, default=HOLDERS)
    parser.add_argument("--min-events-per-sec", type=float,
                        default=MIN_EVENTS_PER_SEC)
    parser.add_argument("--json", type=Path, default=None,
                        help="record path (default: BENCH_storm.json at "
                             "the repo root for a full-scale run, none "
                             "otherwise)")
    args = parser.parse_args(argv)
    json_path = args.json
    if json_path is None and args.holders >= HOLDERS:
        json_path = BENCH_JSON
    record = run_storm_bench(args.holders, args.min_events_per_sec,
                             json_path)
    failures = check_record(record)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_storm_smoke():
    """Pytest entry: the CI-sized smoke through the same code path."""
    record = run_storm_bench(1_000, min_events_per_sec=500)
    assert check_record(record) == []
    assert record["renewals"] >= 1_000


if __name__ == "__main__":
    sys.exit(main())
