"""The protocol auditor: one event at a time, bounded memory.

:class:`IncrementalAuditor` checks the invariants listed in
:mod:`repro.obs.audit` online, so it can watch a long-lived live run or
follow a growing JSONL export; :func:`repro.obs.audit_trace` is the
same auditor fed a whole trace at once.

* feed it trace events in emission order (:meth:`feed` /
  :meth:`feed_many`);
* violations that can never be repaired by later events (orphans,
  causality breaches, budget breaches, post-settlement bookkeeping)
  become **permanent** the moment their evidence arrives and are
  returned from :meth:`feed` — the live telemetry plane fails fast on
  them;
* obligations that a later event may still discharge (an unresolved
  ``notify.send``, an unnotified lease holder, an unsettled change)
  are held as **pending** state and materialize as violations only
  when :meth:`report` is asked for a verdict on the prefix seen.

Memory stays bounded by the *in-flight* protocol state, not the trace
length: once a change span was detected, settled and every leg has
resolved, the span is retired — its heavy per-leg state is dropped and
only a small per-seq residue (settle index, counters, the verdict its
retirement issued) survives to classify late events.  The peak number
of tracked spans (unretired changes + live leases + unresolved
untracked legs) is exposed as
:attr:`IncrementalAuditor.peak_tracked_spans` and asserted against
documented bounds in the benches.  Each ack, retransmit or timeout
finds its leg through a FIFO queue keyed like
:func:`repro.obs.spans.build_spans` keys its legs — ``(seq, cache)``,
or ``(0, cache, name, rrtype)`` for untracked legs — so matching is
O(1) per event and a 10^5-leg fan-out audits in linear time.

The wire check is the exception to bounded memory.  A datagram can
still be in flight when its leg times out, so the check needs the
*complete* capture and runs in :meth:`report`; with a ``capture`` the
auditor keeps every leg that carries a message id (id, cache, seq,
send index/time, attempts, ack index/time) until then.  Without one,
nothing outlives its span.

Retirement verdicts are issued as permanent on the assumption that the
trace is *prefix-complete*: no ``notify.send`` for a seq arrives after
that seq's change retired — true of every trace the instrumentation
emits, because the notification module settles a change only once all
its legs resolved and a new change to the same record gets a fresh
seq.  A late send that breaks the assumption reopens the change and
withdraws the violations its retirement issued, so the report stays
exact; they were already returned by :meth:`IncrementalAuditor.feed`,
and ``window_hist`` keeps the window observed at the first retirement.

``tests/audit_oracle.py`` keeps a whole-trace batch auditor as a
test-only second opinion: a Hypothesis property checks that
:meth:`report` equals its verdict on every prefix of tampered traces.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .audit import (
    AuditLimits,
    AuditReport,
    BUDGET_RENEWAL,
    BUDGET_STORAGE,
    CAUSALITY,
    COMPLETENESS,
    FLOAT_SLACK,
    STALENESS,
    TERMINATION,
    WIRE,
    Violation,
    ack_before_send_violation,
    ack_missing_rtt_violation,
    never_settled_violation,
    orphan_violation,
    renewal_budget_violation,
    resolved_after_settled_violation,
    retransmit_attempt_violation,
    retransmit_early_violation,
    rtt_mismatch_violation,
    settled_acked_violation,
    settled_failed_violation,
    settled_window_violation,
    stale_holder_violation,
    storage_budget_violation,
    timeout_before_send_violation,
    unnotified_holder_violation,
    unresolved_leg_violation,
    untracked_unresolved_violation,
)
from .capture import FATE_DELIVERED
from .metrics import Histogram
from .spans import _as_seq
from .trace import (
    CHANGE_DETECTED,
    CHANGE_SETTLED,
    LEASE_EXPIRE,
    LEASE_GRANT,
    LEASE_RENEW,
    LEASE_REVOKE,
    NOTIFY_ACK,
    NOTIFY_RETRANSMIT,
    NOTIFY_SEND,
    NOTIFY_TIMEOUT,
    TraceEvent,
)

_LeaseKey = Tuple[str, str, str]
_LegKey = Tuple[object, ...]
_Handler = Callable[[int, float, Dict[str, object]], None]


def _leg_key(seq: int, cache: str, name: object,
             rrtype: object) -> _LegKey:
    """What an ack/retransmit/timeout must share with its send."""
    return (seq, cache) if seq else (0, cache, name, rrtype)


@dataclasses.dataclass
class _Leg:
    """One notification leg: in flight until an ack or timeout; kept
    after that only as a wire record (a capture was given and the
    send carried a message id)."""

    seq: int
    cache: str
    name: object
    rrtype: object
    msg_id: object
    send_index: int
    send_t: float
    #: Datagram transmissions: the send plus every retransmit.
    attempts: int = 1
    ack_index: Optional[int] = None
    ack_t: Optional[float] = None


@dataclasses.dataclass
class _Lease:
    """The live lease on one (cache, name, rrtype) pair."""

    cache: str
    grant_index: int
    start: float
    length: float


@dataclasses.dataclass
class _Change:
    """Running state for one change seq.

    While *tracked* the span carries its in-flight legs and unnotified
    holders; :meth:`IncrementalAuditor._maybe_retire` slims it down to
    the per-seq residue (settle/ detect indices + counters) once the
    change settled and every leg resolved.
    """

    seq: int
    detected_index: Optional[int] = None
    detected_t: Optional[float] = None
    name: object = None
    rrtype: object = None
    #: Unresolved legs by send index, in send order (resolved legs are
    #: dropped).
    unresolved: Dict[int, _Leg] = dataclasses.field(default_factory=dict)
    #: send_index of every leg, resolved or not (for the never-settled
    #: evidence tuple); emptied at retirement.
    send_indices: List[int] = dataclasses.field(default_factory=list)
    #: Caches notified before the detect event (None once detected).
    pre_detect_caches: Optional[Set[str]] = \
        dataclasses.field(default_factory=set)
    #: holder cache -> grant_index still owed a notify.send
    #: (None before the detect event).
    pending_holders: Optional[Dict[str, int]] = None
    #: ``(send_index, ack_index, ack_t, cache)`` for acks that landed
    #: before the detect event — their staleness check needs
    #: ``detected_t`` and runs retroactively when the detect arrives.
    pre_detect_acks: List[Tuple[int, int, float, str]] = \
        dataclasses.field(default_factory=list)
    acked: int = 0
    failed: int = 0
    ack_max: Optional[float] = None
    settled_index: Optional[int] = None
    settled_t: Optional[float] = None
    settled_window: Optional[float] = None
    settled_acked: Optional[int] = None
    settled_failed: Optional[int] = None
    retired: bool = False
    #: Violations the last retirement made permanent (withdrawn if a
    #: late send reopens the change).
    retirement_verdict: List[Violation] = \
        dataclasses.field(default_factory=list)
    window_observed: bool = False


class IncrementalAuditor:
    """Single-pass, bounded-memory protocol auditor.

    ``window_hist`` (optional) receives one observation per settled
    change — its recomputed consistency window — at retirement time;
    the tail follower uses it for rolling p50/p95 percentiles.
    ``capture`` (optional) is the wire-capture record list the wire
    check runs against in :meth:`report`; a live capture may keep
    growing while events are fed.
    """

    def __init__(self, limits: Optional[AuditLimits] = None,
                 window_hist: Optional[Histogram] = None,
                 capture: Optional[Sequence[Dict[str, object]]] = None
                 ) -> None:
        self.limits = limits or AuditLimits()
        self.window_hist = window_hist
        self.capture = capture
        self._permanent: List[Violation] = []
        #: Permanent violations withdrawn by the event being fed.
        self._withdrawn = 0
        self._checks: Dict[str, int] = {}
        self._pending_checks: Dict[str, int] = {}
        self._events = 0
        self._changes: Dict[int, _Change] = {}
        self._open_changes = 0
        self._leases: Dict[_LeaseKey, _Lease] = {}
        #: Unresolved untracked (seq 0) legs by send index.
        self._untracked: Dict[int, _Leg] = {}
        #: Unresolved legs per matching key, oldest send first.
        self._queues: Dict[_LegKey, Deque[_Leg]] = {}
        #: Legs the wire check will judge (None without a capture).
        self._wire_legs: Optional[List[_Leg]] = \
            [] if capture is not None else None
        # Budget replay state: live lease count and the renewal times
        # inside the sliding window.
        self._budget_active = 0
        self._renew_times: Deque[float] = collections.deque()
        self.peak_tracked_spans = 0
        #: Event name -> handler; other events (transport, push, load)
        #: are only counted.
        self._handlers: Dict[str, _Handler] = {
            NOTIFY_SEND: self._on_send,
            NOTIFY_ACK: self._on_ack,
            NOTIFY_RETRANSMIT: self._on_retransmit,
            NOTIFY_TIMEOUT: self._on_timeout,
            CHANGE_DETECTED: self._on_detected,
            CHANGE_SETTLED: self._on_settled,
            LEASE_GRANT: functools.partial(self._on_lease_start, LEASE_GRANT),
            LEASE_RENEW: functools.partial(self._on_lease_start, LEASE_RENEW),
            LEASE_EXPIRE: functools.partial(self._on_lease_end, LEASE_EXPIRE),
            LEASE_REVOKE: functools.partial(self._on_lease_end, LEASE_REVOKE),
        }

    # -- public surface ------------------------------------------------------

    @property
    def events_audited(self) -> int:
        """Events consumed so far."""
        return self._events

    @property
    def tracked_spans(self) -> int:
        """Live state the auditor is holding: unretired changes plus
        live leases plus unresolved untracked legs."""
        return (self._open_changes + len(self._leases)
                + len(self._untracked))

    @property
    def permanent_violations(self) -> Tuple[Violation, ...]:
        """Violations no later event can repair (fail-fast signal)."""
        return tuple(self._permanent)

    def feed(self, event: TraceEvent) -> List[Violation]:
        """Consume one trace event; return newly-permanent violations."""
        t, name, fields = event
        index = self._events
        self._events += 1
        handler = self._handlers.get(name)
        if handler is None:
            return []
        before = len(self._permanent)
        self._withdrawn = 0
        handler(index, t, fields)
        tracked = self.tracked_spans
        if tracked > self.peak_tracked_spans:
            self.peak_tracked_spans = tracked
        return self._permanent[before - self._withdrawn:]

    def feed_many(self, events: Iterable[TraceEvent]) -> List[Violation]:
        """Consume events in order; return newly-permanent violations."""
        fresh: List[Violation] = []
        for event in events:
            fresh.extend(self.feed(event))
        return fresh

    def pending_violations(self) -> List[Violation]:
        """Obligations still open on the prefix seen so far.

        The verdict on the prefix adds these to the permanent ones:
        unresolved legs, unnotified holders, unsettled fan-outs, and
        bookkeeping checks for spans that settled while legs were still
        in flight.  Non-destructive — feeding more events may discharge
        them.
        """
        pending: List[Violation] = []
        self._pending_checks = {}
        for change in self._changes.values():
            for leg in change.unresolved.values():
                pending.append(unresolved_leg_violation(
                    change.seq, leg.cache, leg.send_t, leg.send_index))
            if change.retired:
                continue
            if change.pending_holders:
                detected_index = change.detected_index
                assert detected_index is not None
                for cache, grant_index in change.pending_holders.items():
                    pending.append(unnotified_holder_violation(
                        change.seq, change.detected_t,
                        detected_index, grant_index, cache,
                        change.name, change.rrtype))
            if change.send_indices and change.settled_index is None:
                self._pending_check(TERMINATION)
                pending.append(never_settled_violation(
                    change.seq, change.detected_t,
                    len(change.send_indices),
                    tuple(change.send_indices)))
            if change.settled_index is not None:
                # Settled while legs were still unresolved: cross-check
                # the bookkeeping against the counts visible so far,
                # without retiring, so a later resolution updates the
                # verdict.
                pending.extend(self._settlement_violations(change))
        for leg in self._untracked.values():
            pending.append(untracked_unresolved_violation(
                leg.cache, leg.send_t, leg.send_index))
        return pending

    def report(self) -> AuditReport:
        """Full verdict over the prefix consumed so far."""
        violations = list(self._permanent)
        violations.extend(self.pending_violations())
        checks = dict(self._checks)
        for kind, amount in self._pending_checks.items():
            checks[kind] = checks.get(kind, 0) + amount
        capture = self.capture
        if capture is not None:
            violations.extend(self._wire_violations(capture))
            if self._wire_legs:
                checks[WIRE] = len(self._wire_legs)
        total = self._events
        violations.sort(key=lambda v: (v.events[0] if v.events else total,
                                       v.kind))
        return AuditReport(
            violations=violations, checks=checks, events_audited=total,
            capture_audited=len(capture) if capture is not None else None)

    def _wire_violations(self, capture: Sequence[Dict[str, object]]
                         ) -> List[Violation]:
        """Each notify.send must leave matching datagrams in the capture:
        enough transmissions for its attempts, and a delivered one
        behind every acknowledgement."""
        by_id: Dict[Tuple[object, str], List[Dict[str, object]]] = {}
        for record in capture:
            if record.get("opcode") != "CACHE-UPDATE" or record.get("qr"):
                continue
            key = (record.get("id"), str(record.get("dst")))
            by_id.setdefault(key, []).append(record)
        out: List[Violation] = []
        for leg in self._wire_legs or ():
            datagrams = by_id.get((leg.msg_id, leg.cache), [])
            where = f"id={leg.msg_id} cache={leg.cache} seq={leg.seq}"
            if not datagrams:
                out.append(Violation(
                    kind=WIRE, seq=leg.seq, t=leg.send_t,
                    events=(leg.send_index,),
                    message=f"notify.send matches no captured datagram "
                            f"({where})"))
                continue
            if len(datagrams) < leg.attempts:
                out.append(Violation(
                    kind=WIRE, seq=leg.seq, t=leg.send_t,
                    events=(leg.send_index,),
                    message=(f"{leg.attempts} attempts but only "
                             f"{len(datagrams)} captured datagrams "
                             f"({where})")))
            if leg.ack_index is not None and not any(
                    d.get("fate") == FATE_DELIVERED for d in datagrams):
                out.append(Violation(
                    kind=WIRE, seq=leg.seq, t=leg.ack_t,
                    events=(leg.send_index, leg.ack_index),
                    message=(f"acknowledged but no captured datagram was "
                             f"delivered ({where})")))
        return out

    # -- bookkeeping ---------------------------------------------------------

    def _check(self, kind: str, amount: int = 1) -> None:
        self._checks[kind] = self._checks.get(kind, 0) + amount

    def _pending_check(self, kind: str, amount: int = 1) -> None:
        self._pending_checks[kind] = \
            self._pending_checks.get(kind, 0) + amount

    def _orphan(self, index: int, reason: str) -> None:
        self._permanent.append(orphan_violation(index, reason))

    def _change_for(self, seq: int) -> _Change:
        change = self._changes.get(seq)
        if change is None:
            change = self._changes[seq] = _Change(seq=seq)
            self._open_changes += 1
        return change

    def _open_leg(self, fields: Dict[str, object]) -> Optional[_Leg]:
        """The oldest unresolved leg this event can belong to."""
        queue = self._queues.get(_leg_key(
            _as_seq(fields), str(fields.get("cache")), fields.get("name"),
            fields.get("rrtype")))
        return queue[0] if queue else None

    def _resolve(self, leg: _Leg) -> Optional[_Change]:
        """Retire ``leg`` from the unresolved state; its change, if
        tracked.  ``leg`` is the head of its queue (:meth:`_open_leg`)."""
        key = _leg_key(leg.seq, leg.cache, leg.name, leg.rrtype)
        queue = self._queues[key]
        queue.popleft()
        if not queue:
            del self._queues[key]
        if not leg.seq:
            del self._untracked[leg.send_index]
            return None
        change = self._changes[leg.seq]
        del change.unresolved[leg.send_index]
        return change

    # -- change-span events --------------------------------------------------

    def _on_detected(self, index: int, t: float,
                     fields: Dict[str, object]) -> None:
        seq = _as_seq(fields)
        if not seq:
            self._orphan(index, "change.detected without seq")
            return
        change = self._change_for(seq)
        if change.detected_index is not None:
            self._orphan(index, f"duplicate change.detected seq={seq}")
            return
        change.detected_index = index
        change.detected_t = t
        change.name = fields.get("name")
        change.rrtype = fields.get("rrtype")
        if change.name is not None:
            # Completeness: snapshot the live holders right now — later
            # events cannot change who held a lease at this detect
            # index, so the snapshot is final.
            rrtype = change.rrtype or ""
            holders = sorted(
                (lease.grant_index, lease.cache)
                for key, lease in self._leases.items()
                if key[1] == change.name and key[2] == rrtype
                and lease.grant_index < index
                and t < lease.start + lease.length)
            self._check(COMPLETENESS, max(len(holders), 1))
            seen = change.pre_detect_caches or set()
            change.pending_holders = {
                cache: grant_index for grant_index, cache in holders
                if cache not in seen}
        else:
            change.pending_holders = {}
        change.pre_detect_caches = None
        if self.limits.max_staleness is not None:
            for send_index, ack_index, ack_t, cache in \
                    change.pre_detect_acks:
                self._check(STALENESS)
                staleness = ack_t - t
                if staleness > self.limits.max_staleness + FLOAT_SLACK:
                    self._permanent.append(stale_holder_violation(
                        seq, cache, ack_t, send_index, ack_index,
                        staleness, self.limits.max_staleness))
        change.pre_detect_acks = []
        self._maybe_retire(change)

    def _on_send(self, index: int, t: float,
                 fields: Dict[str, object]) -> None:
        seq = _as_seq(fields)
        leg = _Leg(seq=seq, cache=str(fields.get("cache")),
                   name=fields.get("name"), rrtype=fields.get("rrtype"),
                   msg_id=fields.get("id"), send_index=index, send_t=t)
        self._check(TERMINATION)
        self._check(CAUSALITY)
        key = _leg_key(seq, leg.cache, leg.name, leg.rrtype)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = collections.deque()
        queue.append(leg)
        if self._wire_legs is not None and leg.msg_id is not None:
            self._wire_legs.append(leg)
        if not seq:
            self._untracked[index] = leg
            return
        change = self._change_for(seq)
        if change.retired:
            self._reopen(change)
        change.unresolved[index] = leg
        change.send_indices.append(index)
        if change.pre_detect_caches is not None:
            change.pre_detect_caches.add(leg.cache)
        elif change.pending_holders:
            change.pending_holders.pop(leg.cache, None)

    def _on_retransmit(self, index: int, t: float,
                       fields: Dict[str, object]) -> None:
        leg = self._open_leg(fields)
        if leg is None:
            self._orphan(index, "retransmit without outstanding send")
            return
        leg.attempts += 1
        attempt = int(fields.get("attempt", 0))
        if t < leg.send_t:
            self._permanent.append(retransmit_early_violation(
                leg.seq, leg.cache, t, leg.send_index, index))
        if attempt < 2:
            self._permanent.append(retransmit_attempt_violation(
                leg.seq, leg.cache, t, leg.send_index, index, attempt))

    def _on_ack(self, index: int, t: float,
                fields: Dict[str, object]) -> None:
        leg = self._open_leg(fields)
        if leg is None:
            self._orphan(index, "ack without outstanding send")
            return
        leg.ack_index = index
        leg.ack_t = t
        raw_rtt = fields.get("rtt")
        rtt = float(raw_rtt) if raw_rtt is not None else None
        if t < leg.send_t:
            self._permanent.append(ack_before_send_violation(
                leg.seq, leg.cache, t, leg.send_index, index))
        if rtt is None:
            self._permanent.append(ack_missing_rtt_violation(
                leg.seq, leg.cache, t, index))
        elif abs((t - leg.send_t) - rtt) > FLOAT_SLACK:
            self._permanent.append(rtt_mismatch_violation(
                leg.seq, leg.cache, leg.send_t, t, leg.send_index,
                index, rtt))
        change = self._resolve(leg)
        if change is None:
            # Untracked legs owe causality only: no staleness bound.
            return
        change.acked += 1
        if change.ack_max is None or t > change.ack_max:
            change.ack_max = t
        if self.limits.max_staleness is not None:
            if change.detected_t is not None:
                self._check(STALENESS)
                staleness = t - change.detected_t
                if staleness > self.limits.max_staleness + FLOAT_SLACK:
                    self._permanent.append(stale_holder_violation(
                        leg.seq, leg.cache, t, leg.send_index, index,
                        staleness, self.limits.max_staleness))
            else:
                change.pre_detect_acks.append(
                    (leg.send_index, index, t, leg.cache))
        if change.settled_index is not None:
            self._permanent.append(resolved_after_settled_violation(
                leg.seq, leg.cache, change.settled_t, index,
                change.settled_index))
        self._maybe_retire(change)

    def _on_timeout(self, index: int, t: float,
                    fields: Dict[str, object]) -> None:
        leg = self._open_leg(fields)
        if leg is None:
            self._orphan(index, "timeout without outstanding send")
            return
        if t < leg.send_t:
            self._permanent.append(timeout_before_send_violation(
                leg.seq, leg.cache, t, leg.send_index, index))
        change = self._resolve(leg)
        if change is None:
            return
        change.failed += 1
        if change.settled_index is not None:
            self._permanent.append(resolved_after_settled_violation(
                leg.seq, leg.cache, change.settled_t, index,
                change.settled_index))
        self._maybe_retire(change)

    def _on_settled(self, index: int, t: float,
                    fields: Dict[str, object]) -> None:
        seq = _as_seq(fields)
        if not seq:
            self._orphan(index, "change.settled without seq")
            return
        change = self._change_for(seq)
        if change.settled_index is not None:
            self._orphan(index, f"duplicate change.settled seq={seq}")
            return
        change.settled_index = index
        change.settled_t = t
        window = fields.get("window")
        change.settled_window = \
            float(window) if window is not None else None
        acked = fields.get("acked")
        change.settled_acked = \
            int(acked) if acked is not None else None
        failed = fields.get("failed")
        change.settled_failed = \
            int(failed) if failed is not None else None
        self._maybe_retire(change)

    def _settlement_violations(self, change: _Change,
                               pending: bool = True) -> List[Violation]:
        """The settle event's bookkeeping vs the counts seen so far."""
        settled_index = change.settled_index
        assert settled_index is not None
        if pending:
            self._pending_check(STALENESS)
        else:
            self._check(STALENESS)
        out: List[Violation] = []
        if change.settled_acked is not None \
                and change.settled_acked != change.acked:
            out.append(settled_acked_violation(
                change.seq, change.settled_t, settled_index,
                change.settled_acked, change.acked))
        if change.settled_failed is not None \
                and change.settled_failed != change.failed:
            out.append(settled_failed_violation(
                change.seq, change.settled_t, settled_index,
                change.settled_failed, change.failed))
        window: Optional[float] = None
        if change.detected_t is not None and change.ack_max is not None:
            window = change.ack_max - change.detected_t
        recorded = change.settled_window
        if (window is None) != (recorded is None) or (
                window is not None and recorded is not None
                and abs(window - recorded) > FLOAT_SLACK):
            out.append(settled_window_violation(
                change.seq, change.settled_t, settled_index,
                recorded, window))
        return out

    def _maybe_retire(self, change: _Change) -> None:
        """Fold a detected, settled, fully-resolved span into permanent
        state.  An undetected span stays open: its settle-window and
        per-ack staleness verdicts hinge on the detect time."""
        if change.retired or change.settled_index is None \
                or change.unresolved or change.detected_index is None:
            return
        verdict = self._settlement_violations(change, pending=False)
        if change.pending_holders:
            detected_index = change.detected_index
            assert detected_index is not None
            for cache, grant_index in change.pending_holders.items():
                verdict.append(unnotified_holder_violation(
                    change.seq, change.detected_t, detected_index,
                    grant_index, cache, change.name, change.rrtype))
        self._permanent.extend(verdict)
        window_hist = self.window_hist
        if window_hist is not None and not change.window_observed:
            if change.detected_t is not None \
                    and change.ack_max is not None:
                window_hist.observe(change.ack_max - change.detected_t)
            change.window_observed = True
        change.retired = True
        change.retirement_verdict = verdict
        change.send_indices = []
        self._open_changes -= 1

    def _reopen(self, change: _Change) -> None:
        """Undo a retirement that a late ``notify.send`` proved early."""
        withdrawn = {id(v) for v in change.retirement_verdict}
        if withdrawn:
            self._permanent = [v for v in self._permanent
                               if id(v) not in withdrawn]
            self._withdrawn += len(withdrawn)
        self._checks[STALENESS] -= 1
        change.retirement_verdict = []
        change.retired = False
        self._open_changes += 1

    # -- lease + budget events -----------------------------------------------

    def _on_lease_start(self, event: str, index: int, t: float,
                        fields: Dict[str, object]) -> None:
        key: _LeaseKey = (str(fields.get("cache")),
                          str(fields.get("name")),
                          str(fields.get("rrtype")))
        length = float(fields.get("length", 0.0))
        current = self._leases.get(key)
        if event == LEASE_RENEW:
            if current is not None:
                # A renewal restarts the term from its own timestamp.
                current.start = t
                current.length = length
            else:
                # Renew without a live lease opens a fresh span, same
                # as build_spans' grant fallthrough.
                self._leases[key] = _Lease(
                    cache=key[0], grant_index=index, start=t,
                    length=length)
            if self.limits.renewal_budget is not None:
                self._check(BUDGET_RENEWAL)
                window = self.limits.renewal_window
                times = self._renew_times
                times.append(t)
                while times[0] <= t - window:
                    times.popleft()
                in_window = len(times)
                allowed = self.limits.renewal_budget * window
                if in_window > allowed + FLOAT_SLACK:
                    self._permanent.append(renewal_budget_violation(
                        t, index, in_window, window,
                        self.limits.renewal_budget))
            return
        # LEASE_GRANT: supersedes any span still open on the pair.
        self._leases[key] = _Lease(cache=key[0], grant_index=index,
                                   start=t, length=length)
        self._budget_active += 1
        if self.limits.storage_budget is not None:
            self._check(BUDGET_STORAGE)
            if self._budget_active > self.limits.storage_budget:
                self._permanent.append(storage_budget_violation(
                    t, index, self._budget_active,
                    self.limits.storage_budget))

    def _on_lease_end(self, event: str, index: int, _t: float,
                      fields: Dict[str, object]) -> None:
        key: _LeaseKey = (str(fields.get("cache")),
                          str(fields.get("name")),
                          str(fields.get("rrtype")))
        if self._leases.pop(key, None) is None:
            self._orphan(index, f"{event} without a live lease")
        self._budget_active = max(0, self._budget_active - 1)


__all__ = ["IncrementalAuditor"]
