"""The benchmark's workloads, each a setup phase and a steady phase.

Every workload is built from ``--seed`` alone: :meth:`setup` turns the
seed into the generated inputs plus the topology that consumes them,
and :meth:`steady` runs the measured phase and returns an
:class:`Outcome`.  Everything an outcome counts is simulated-time
behaviour, so for one seed it repeats exactly; only the wall times vary.

Layer entry points (``figure5_curves``, ``generate_requests``,
``audit_observability``, ...) are called through their modules, not
through names bound here, so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time
from typing import Dict, List, Tuple

import repro.obs as robs
import repro.sim as rsim
import repro.traces as rtraces
from repro.core import DNScupConfig, DynamicLeasePolicy, attach_dnscup
from repro.dnslib import Message, RRType, Rcode, WireFormatError, make_cache_update_ack
from repro.net import Host, Network, RetryPolicy, Simulator
from repro.obs import Observability
from repro.server import AuthoritativeServer, StubResolver
from repro.zone import load_zone


@dataclasses.dataclass
class Outcome:
    """What one steady phase did."""

    #: Operations the workload attempted and how many of them failed.
    attempted: int
    failed: int
    #: Correctness-gate messages; empty when every gate held.
    failures: List[str]
    #: Work units behind ``ops_per_s`` (see each workload's docstring).
    ops: int
    #: Program counters; identical on every run of one seed.
    counts: Dict[str, float]
    #: Wall seconds of named sub-phases of the steady phase.
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _subseed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def population(regular_per_tld: int, special: int):
    """The domain population, one global Zipf over all categories.

    Fixed, not drawn from the workload seed: which categories land on
    the hot ranks changes the work per lookup by tens of percent, so
    the seed draws the traffic over one deployment, not the deployment.
    The seeds are those of ``benchmarks/bench_perf_replay.py``.
    """
    return rtraces.assign_global_zipf(
        rtraces.generate_population(rtraces.PopulationConfig(
            regular_per_tld=regular_per_tld, cdn_count=special,
            dyn_count=special, seed=2006)),
        exponent=1.1, seed=99)


# -- serve ---------------------------------------------------------------------


class Serve:
    """The wire-level read/write mix of a DNScup deployment.

    Zipf-popular client lookups (client cache off) go from one stub per
    resolver to the ``RecursiveResolver`` fleet, which resolves them
    from the root down to the ``AuthoritativeServer`` fleet with DNScup
    attached; every domain's change process lands as zone writes that
    fan CACHE-UPDATEs out to lease holders.  Observability is off.  An
    op is one client lookup answered.
    """

    def __init__(self, duration: float = 600.0, rate: float = 20.0,
                 lookups: int = 10_000, regular_per_tld: int = 40,
                 special: int = 30, auth_servers: int = 4, resolvers: int = 8,
                 clients: int = 200):
        self.duration = duration
        self.rate = rate
        self.lookups = lookups
        self.regular_per_tld = regular_per_tld
        self.special = special
        self.auth_servers = auth_servers
        self.resolvers = resolvers
        self.clients = clients

    def setup(self, seed: int):
        rng = random.Random(seed)
        domains = population(self.regular_per_tld, self.special)
        workload = rtraces.WorkloadConfig(
            duration=self.duration, clients=self.clients,
            nameservers=self.resolvers, total_request_rate=self.rate,
            client_cache_seconds=0.0, seed=_subseed(rng))
        # The first ``lookups`` requests, so every seed does as much work.
        requests = list(itertools.islice(
            rtraces.generate_requests(domains, workload), self.lookups))
        scenario = rsim.ProtocolScenario(domains, rsim.ScenarioConfig(
            auth_servers=self.auth_servers, resolvers=self.resolvers,
            network_seed=_subseed(rng)))
        scenario.schedule_changes(self.duration)
        scenario.stubs = [
            StubResolver(host, (resolver.address, 53), cache_seconds=0.0)
            for host, resolver in zip(scenario.stub_hosts,
                                      scenario.resolver_hosts)]
        answered = [0]
        for event in requests:
            stub = scenario.stubs[event.nameserver % len(scenario.stubs)]
            scenario.simulator.schedule_at(
                event.time,
                lambda e=event, s=stub,
                g=self._grader(scenario, event.name, answered):
                s.lookup(e.name, g))
        return scenario, len(requests), answered

    @staticmethod
    def _grader(scenario, name, answered):
        """Count the answer, and grade it against the zone's ground truth."""
        def grade(addresses, rcode) -> None:
            if addresses and rcode == Rcode.NOERROR:
                answered[0] += 1
            current = set(scenario.truth.get(name, ()))
            if addresses and current and not set(addresses) & current:
                scenario.report.stale_answers += 1
            else:
                scenario.report.fresh_answers += 1
        return grade

    def steady(self, state) -> Outcome:
        scenario, issued, answered = state
        scenario.simulator.run()
        notify = [m.notification.stats for m in scenario.middlewares
                  if m is not None]
        listening = [m.listening.stats for m in scenario.middlewares
                     if m is not None]
        caches = [r.cache.stats for r in scenario.resolvers]
        resolver_stats = [r.stats for r in scenario.resolvers]
        net = scenario.network.stats
        sent = sum(s.notifications_sent for s in notify)
        acks = sum(s.acks_received for s in notify)
        counts = {
            "lookups": issued,
            "answered": answered[0],
            "stub_failures": sum(s.stats.failures for s in scenario.stubs),
            "resolutions_failed": sum(s.resolutions_failed
                                      for s in resolver_stats),
            "stale_answers": scenario.report.stale_answers,
            "datagrams_delivered": net.datagrams_delivered,
            "datagrams_lost": net.datagrams_lost,
            "datagrams_unreachable": net.datagrams_unreachable,
            "cache_hits": sum(c.hits + c.negative_hits for c in caches),
            "cache_lookups": sum(c.lookups for c in caches),
            "client_queries": sum(s.client_queries for s in resolver_stats),
            "upstream_queries": sum(s.upstream_queries
                                    for s in resolver_stats),
            "lease_queries": sum(s.dnscup_queries for s in listening),
            "lease_grants": sum(s.grants for s in listening),
            "peak_active_leases": sum(m.table.stats.peak_active
                                      for m in scenario.middlewares
                                      if m is not None),
            "notifications_sent": sent,
            "notify_retransmissions": sum(s.retransmissions for s in notify),
            "notify_failures": sum(s.failures for s in notify),
            "acks": acks,
            "wire_encodes": sum(s.wire_encodes for s in notify),
        }
        failures = []
        unanswered = issued - answered[0]
        if unanswered or counts["stub_failures"] \
                or counts["resolutions_failed"]:
            failures.append(
                f"{unanswered} of {issued} lookups unanswered "
                f"({counts['stub_failures']} stub failures, "
                f"{counts['resolutions_failed']} failed resolutions)")
        if acks != sent or counts["notify_failures"]:
            failures.append(f"{acks} CACHE-UPDATE acks for {sent} sent "
                            f"({counts['notify_failures']} failed)")
        return Outcome(attempted=issued, failed=unanswered,
                       failures=failures, ops=answered[0], counts=counts)

    @staticmethod
    def headline(outcome: Outcome, steady_s: float,
                 scale: float) -> Dict[str, float]:
        """Workload-specific end-to-end metrics of one rep.

        ``steady_s`` is the rep's steady time and ``scale`` the factor
        that maps its wall times to it (see ``hostspeed.py``).
        """
        counts = outcome.counts
        return {
            "lookups_per_s": counts["answered"] / steady_s,
            "msgs_per_s": counts["datagrams_delivered"] / steady_s,
            "msgs_per_lookup": _ratio(counts["datagrams_delivered"],
                                      counts["lookups"]),
            "stale_ratio": _ratio(counts["stale_answers"], counts["lookups"]),
        }


# -- storm ---------------------------------------------------------------------

STORM_ZONE = """\
$ORIGIN example.com.
$TTL 3600
@    IN SOA ns1 admin 1 7200 900 604800 300
@    IN NS  ns1
ns1  IN A   10.1.0.1
www  IN A   10.0.0.10
"""
STORM_SERVER = "10.1.0.1"
STORM_NAME = "www.example.com"


def holder_endpoint(index: int) -> Tuple[str, int]:
    """A unique /16-packed holder address on port 53."""
    return (f"172.{16 + (index >> 16)}.{(index >> 8) & 255}.{index & 255}",
            53)


class Storm:
    """A synchronized renewal storm into one mapping change.

    Holders are granted leases over a window, all renew at one instant,
    and one mapping change then sends every holder a real CACHE-UPDATE,
    which echo holders ack.  The retry timeout sits below the RTT
    (2 x 10 ms), forcing one retransmission per leg.  Trace and load
    ledger are on, and ``audit_observability`` checks the trace at the
    end.  An op is one trace event, each of which the audit checks.
    """

    GRANT_WINDOW = 300.0
    GRANT_BATCHES = 200
    RENEW_AT = 600.0
    CHANGE_AT = 660.0
    LEASE_LENGTH = 3600.0
    RETRY = RetryPolicy(initial_timeout=0.015, max_attempts=4)

    def __init__(self, holders: int = 10_000):
        self.holders = holders

    def setup(self, seed: int):
        rng = random.Random(seed)
        order = list(range(self.holders))
        rng.shuffle(order)
        new_address = f"10.0.{rng.randrange(1, 255)}.{rng.randrange(1, 255)}"
        simulator = Simulator()
        obs = Observability.for_simulator(
            simulator, trace_capacity=max(1 << 16, 16 * self.holders))
        ledger = obs.enable_load()
        network = Network(simulator, seed=_subseed(rng))
        obs.observe_network(network)
        zone = load_zone(STORM_ZONE)
        server = AuthoritativeServer(Host(network, STORM_SERVER), [zone])
        middleware = attach_dnscup(
            server, policy=DynamicLeasePolicy(0.0),
            config=DNScupConfig(observability=obs, notify_retry=self.RETRY,
                                lease_capacity=2 * self.holders))

        def on_datagram(payload: bytes, src, dst) -> None:
            # Ack each CACHE-UPDATE; ignore responses so nothing ping-pongs.
            if len(payload) < 3 or payload[2] & 0x80:
                return
            try:
                update = Message.from_wire(payload)
            except WireFormatError:
                return
            network.send(make_cache_update_ack(update).to_wire(), dst, src)

        for index in order:
            network.bind(holder_endpoint(index), on_datagram)
        return (simulator, network, obs, ledger, zone, middleware,
                [holder_endpoint(i) for i in order], new_address)

    def steady(self, state) -> Outcome:
        (simulator, network, obs, ledger, zone, middleware, holders,
         new_address) = state
        table = middleware.table
        clock = time.perf_counter
        started = clock()
        batch = max(1, len(holders) // self.GRANT_BATCHES)
        for first in range(0, len(holders), batch):
            simulator.run_until(self.GRANT_WINDOW * first / len(holders))
            for holder in holders[first:first + batch]:
                table.grant(holder, STORM_NAME, RRType.A, now=simulator.now,
                            length=self.LEASE_LENGTH)
        simulator.run_until(self.RENEW_AT)
        renew_started = clock()
        for holder in holders:
            table.grant(holder, STORM_NAME, RRType.A, now=simulator.now,
                        length=self.LEASE_LENGTH)
        renewed = clock()
        simulator.run_until(self.CHANGE_AT)
        change_started = clock()
        zone.replace_address(STORM_NAME, [new_address])
        simulator.run()
        ledger.detector.close_open(simulator.now)
        acked_at = clock()
        audit = robs.audit_observability(obs)
        audited = clock()

        notify = middleware.notification
        stats = notify.stats
        acked = {o.cache for o in notify.outcomes if o.acked}
        events = len(obs.trace.events)
        net = network.stats
        counts = {
            "holders": len(holders),
            "grants": table.stats.grants,
            "renewals": table.stats.renewals,
            "peak_active_leases": table.stats.peak_active,
            "notifications_sent": stats.notifications_sent,
            "notify_retransmissions": stats.retransmissions,
            "notify_failures": stats.failures,
            "acks": stats.acks_received,
            "holders_acked": len(acked),
            "wire_encodes": stats.wire_encodes,
            "trace_events": events,
            "trace_dropped": obs.trace.dropped,
            "ledger_events": ledger.total,
            "audit_violations": len(audit.violations),
            "datagrams_delivered": net.datagrams_delivered,
            "datagrams_lost": net.datagrams_lost,
            "datagrams_unreachable": net.datagrams_unreachable,
        }
        never_acked = len(holders) - len(acked)
        failures = []
        if audit.violations:
            failures.append(f"{len(audit.violations)} audit violations")
        if never_acked or stats.acks_received != len(holders):
            failures.append(f"{stats.acks_received} acks from {len(acked)} "
                            f"of {len(holders)} holders")
        return Outcome(
            attempted=len(holders), failed=never_acked + len(audit.violations),
            failures=failures, ops=events, counts=counts,
            phases={"grant_s": renew_started - started,
                    "renew_s": renewed - renew_started,
                    "fanout_s": acked_at - change_started,
                    "audit_s": audited - acked_at})

    @staticmethod
    def headline(outcome: Outcome, steady_s: float,
                 scale: float) -> Dict[str, float]:
        counts, phases = outcome.counts, outcome.phases
        return {
            "renewals_per_s": counts["holders"] / (phases["renew_s"] * scale),
            "acks_per_s": counts["holders_acked"]
            / (phases["fanout_s"] * scale),
            "audit_events_per_s": counts["trace_events"]
            / (phases["audit_s"] * scale),
        }


# -- replay --------------------------------------------------------------------


class Replay:
    """The Figure 5 lease sweep over a paper-shaped week trace.

    The trace has the shape of ``benchmarks/bench_perf_replay.py``
    (460 domains, 150 clients, 3 nameservers, a week, 900 s client
    cache) and is swept at ``fixed_points`` fixed lease lengths, as
    many dynamic thresholds and the polling baseline through
    ``figure5_curves`` with its default engine.  An op is one trace
    event replayed at one operating point.
    """

    def __init__(self, days: float = 7.0, rate: float = 0.7,
                 fixed_points: int = 60, regular_per_tld: int = 40,
                 special: int = 30, clients: int = 150):
        self.days = days
        self.rate = rate
        self.fixed_points = fixed_points
        self.regular_per_tld = regular_per_tld
        self.special = special
        self.clients = clients

    def setup(self, seed: int):
        rng = random.Random(seed)
        domains = population(self.regular_per_tld, self.special)
        duration = self.days * 86400.0
        config = rtraces.WorkloadConfig(
            duration=duration, clients=self.clients, nameservers=3,
            total_request_rate=self.rate, client_cache_seconds=900.0,
            seed=_subseed(rng))
        events = list(rtraces.generate_queries(domains, config))
        fixed, thresholds = self._sweep(events, duration)
        return events, domains, duration, fixed, thresholds

    def _sweep(self, events, duration):
        """Log-spaced lease lengths; thresholds at evenly spaced rate quantiles."""
        rates = sorted(rsim.train_pair_rates(
            sorted(events, key=lambda e: e.time), duration / 7.0).values())
        steps = self.fixed_points - 1
        thresholds = ([0.0]
                      + [rates[int(i / steps * (len(rates) - 1))]
                         for i in range(1, steps)]
                      + [rates[-1] * 2.0])
        return rsim.logspace(10.0, 6 * 86400.0, self.fixed_points), thresholds

    def curves(self, state, **engine):
        """The sweep; ``engine=...`` overrides ``figure5_curves``' default."""
        events, domains, duration, fixed, thresholds = state
        return rsim.figure5_curves(events, domains, duration,
                                   fixed_lengths=fixed,
                                   rate_thresholds=thresholds, **engine)

    def steady(self, state) -> Outcome:
        events = state[0]
        curves = self.curves(state)
        points = len(curves.fixed) + len(curves.dynamic) + 1
        counts = {
            "trace_events": len(events),
            "points": points,
            "pairs": curves.polling.pair_count,
            "upstream": sum(r.upstream_messages for r in
                            curves.fixed + curves.dynamic + [curves.polling]),
            "grants": sum(r.grants for r in curves.fixed + curves.dynamic),
            "lease_seconds": math.fsum(
                r.lease_seconds for r in curves.fixed + curves.dynamic),
        }
        return Outcome(attempted=points, failed=0, failures=[],
                       ops=len(events) * points, counts=counts)

    @staticmethod
    def headline(outcome: Outcome, steady_s: float,
                 scale: float) -> Dict[str, float]:
        return {"replayed_events_per_s": outcome.ops / steady_s}


def reference_check(seed: int) -> Tuple[int, int]:
    """Replay a down-scaled replica with the default and reference engines.

    Returns (operating points checked, points that differ).  Runs
    outside the timed phases: the reference engine is the slow oracle.
    """
    replica = Replay(days=1.0, rate=0.25, fixed_points=12,
                     regular_per_tld=8, special=8, clients=40)
    state = replica.setup(seed)
    fast = replica.curves(state)
    reference = replica.curves(state, engine="reference")
    pairs = list(zip(fast.fixed + fast.dynamic + [fast.polling],
                     reference.fixed + reference.dynamic
                     + [reference.polling]))
    return len(pairs), sum(1 for a, b in pairs if a != b)


WORKLOADS = {"serve": Serve, "storm": Storm, "replay": Replay}
