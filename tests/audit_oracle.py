"""Reference oracle: the whole-trace batch auditor, frozen for tests.

The library has one auditor, :class:`repro.obs.IncrementalAuditor`
(``repro.obs.audit_trace`` feeds it a whole trace).  This module keeps
an independent second opinion for the property tests: it rebuilds the
complete span set with :func:`repro.obs.build_spans` and then runs each
invariant check over whole spans — the shape the checks had before the
streaming auditor became the only one.  The two implementations share
nothing but the span builder and the violation constructors, so a
divergence on any prefix of any trace points at a real bug in one of
them.

Test-only: nothing under ``src/`` may import it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.audit import (
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
from repro.obs.capture import FATE_DELIVERED
from repro.obs.spans import LeaseSpan, NotificationLeg, SpanSet, build_spans
from repro.obs.trace import (
    LEASE_EXPIRE,
    LEASE_GRANT,
    LEASE_RENEW,
    LEASE_REVOKE,
    TraceEvent,
)


def audit_trace(events: Sequence[TraceEvent],
                capture: Optional[Sequence[Dict[str, object]]] = None,
                limits: Optional[AuditLimits] = None) -> AuditReport:
    """Batch verdict over one complete trace (same contract as
    :func:`repro.obs.audit_trace`)."""
    limits = limits or AuditLimits()
    spans = build_spans(events)
    violations: List[Violation] = []
    checks: Dict[str, int] = {}

    def check(kind: str, amount: int = 1) -> None:
        checks[kind] = checks.get(kind, 0) + amount

    _audit_orphans(spans, violations)
    _audit_changes(spans, limits, violations, check)
    _audit_untracked(spans.untracked, violations, check)
    _audit_budgets(events, limits, violations, check)
    if capture is not None:
        _audit_wire(spans, capture, violations, check)
    violations.sort(key=lambda v: (v.events[0] if v.events else len(events),
                                   v.kind))
    return AuditReport(
        violations=violations, checks=checks, events_audited=len(events),
        capture_audited=len(capture) if capture is not None else None)


def holders_at(spans: SpanSet, name: str, rrtype: str, t: float,
               index: int) -> List[LeaseSpan]:
    """Lease spans live on (name, rrtype) at time ``t``/``index``."""
    return [span for span in spans.leases
            if span.name == name and span.rrtype == rrtype
            and span.covers(t, index)]


def _audit_orphans(spans: SpanSet, violations: List[Violation]) -> None:
    for index, reason in spans.orphans:
        violations.append(orphan_violation(index, reason))


def _audit_leg(leg: NotificationLeg, detected_t: Optional[float],
               limits: AuditLimits, violations: List[Violation],
               check) -> None:
    """Per-leg causality (+ optional staleness bound)."""
    check(CAUSALITY)
    for index, t, attempt in leg.retransmits:
        if t < leg.send_t:
            violations.append(retransmit_early_violation(
                leg.seq, leg.cache, t, leg.send_index, index))
        if attempt < 2:
            violations.append(retransmit_attempt_violation(
                leg.seq, leg.cache, t, leg.send_index, index, attempt))
    if leg.ack_index is not None:
        assert leg.ack_t is not None
        if leg.ack_t < leg.send_t:
            violations.append(ack_before_send_violation(
                leg.seq, leg.cache, leg.ack_t, leg.send_index,
                leg.ack_index))
        if leg.rtt is None:
            violations.append(ack_missing_rtt_violation(
                leg.seq, leg.cache, leg.ack_t, leg.ack_index))
        elif abs((leg.ack_t - leg.send_t) - leg.rtt) > FLOAT_SLACK:
            violations.append(rtt_mismatch_violation(
                leg.seq, leg.cache, leg.send_t, leg.ack_t,
                leg.send_index, leg.ack_index, leg.rtt))
        if limits.max_staleness is not None and detected_t is not None:
            check(STALENESS)
            staleness = leg.ack_t - detected_t
            if staleness > limits.max_staleness + FLOAT_SLACK:
                violations.append(stale_holder_violation(
                    leg.seq, leg.cache, leg.ack_t, leg.send_index,
                    leg.ack_index, staleness, limits.max_staleness))
    if leg.timeout_index is not None and leg.timeout_t is not None \
            and leg.timeout_t < leg.send_t:
        violations.append(timeout_before_send_violation(
            leg.seq, leg.cache, leg.timeout_t, leg.send_index,
            leg.timeout_index))


def _audit_changes(spans: SpanSet, limits: AuditLimits,
                   violations: List[Violation], check) -> None:
    for span in spans.changes:
        # Completeness: every live holder at change time was notified.
        if span.detected_index is not None and span.name is not None:
            notified = {leg.cache for leg in span.legs}
            holders = holders_at(spans, span.name, span.rrtype or "",
                                 span.detected_t or 0.0,
                                 span.detected_index)
            check(COMPLETENESS, max(len(holders), 1))
            for holder in holders:
                if holder.cache not in notified:
                    violations.append(unnotified_holder_violation(
                        span.seq, span.detected_t, span.detected_index,
                        holder.grant_index, holder.cache, span.name,
                        span.rrtype))
        # Termination: every leg resolves, and before the settle event.
        for leg in span.legs:
            check(TERMINATION)
            if not leg.resolved:
                violations.append(unresolved_leg_violation(
                    span.seq, leg.cache, leg.send_t, leg.send_index))
            elif span.settled_index is not None \
                    and leg.resolution_index > span.settled_index:
                violations.append(resolved_after_settled_violation(
                    span.seq, leg.cache, span.settled_t,
                    leg.resolution_index, span.settled_index))
            _audit_leg(leg, span.detected_t, limits, violations, check)
        if span.legs and span.settled_index is None:
            check(TERMINATION)
            violations.append(never_settled_violation(
                span.seq, span.detected_t, len(span.legs),
                tuple(leg.send_index for leg in span.legs)))
        if span.settled_index is not None:
            _audit_settlement(span, violations, check)


def _audit_settlement(span, violations: List[Violation], check) -> None:
    """The settle event's bookkeeping matches the reconstructed tree."""
    check(STALENESS)
    acked = len(span.acked_legs())
    failed = sum(1 for leg in span.legs
                 if leg.resolved and not leg.acked)
    if span.settled_acked is not None and span.settled_acked != acked:
        violations.append(settled_acked_violation(
            span.seq, span.settled_t, span.settled_index,
            span.settled_acked, acked))
    if span.settled_failed is not None and span.settled_failed != failed:
        violations.append(settled_failed_violation(
            span.seq, span.settled_t, span.settled_index,
            span.settled_failed, failed))
    window = span.window()
    recorded = span.settled_window
    if (window is None) != (recorded is None) or (
            window is not None and recorded is not None
            and abs(window - recorded) > FLOAT_SLACK):
        violations.append(settled_window_violation(
            span.seq, span.settled_t, span.settled_index,
            recorded, window))


def _audit_untracked(untracked: Sequence[NotificationLeg],
                     violations: List[Violation], check) -> None:
    """Untracked (seq 0) legs still owe termination and causality."""
    for leg in untracked:
        check(TERMINATION)
        if not leg.resolved:
            violations.append(untracked_unresolved_violation(
                leg.cache, leg.send_t, leg.send_index))
        _audit_leg(leg, None, AuditLimits(), violations, check)


def _audit_budgets(events: Sequence[TraceEvent], limits: AuditLimits,
                   violations: List[Violation], check) -> None:
    if limits.storage_budget is None and limits.renewal_budget is None:
        return
    active = 0
    renew_times: List[float] = []  # used as a sliding-window deque
    window_start = 0
    for index, (t, event, _fields) in enumerate(events):
        if event == LEASE_GRANT:
            active += 1
            if limits.storage_budget is not None:
                check(BUDGET_STORAGE)
                if active > limits.storage_budget:
                    violations.append(storage_budget_violation(
                        t, index, active, limits.storage_budget))
        elif event in (LEASE_EXPIRE, LEASE_REVOKE):
            active = max(0, active - 1)
        elif event == LEASE_RENEW and limits.renewal_budget is not None:
            check(BUDGET_RENEWAL)
            renew_times.append(t)
            while renew_times[window_start] <= t - limits.renewal_window:
                window_start += 1
            in_window = len(renew_times) - window_start
            allowed = limits.renewal_budget * limits.renewal_window
            if in_window > allowed + FLOAT_SLACK:
                violations.append(renewal_budget_violation(
                    t, index, in_window, limits.renewal_window,
                    limits.renewal_budget))


def _audit_wire(spans: SpanSet, capture: Sequence[Dict[str, object]],
                violations: List[Violation], check) -> None:
    """Each notify.send must leave matching datagrams in the capture."""
    by_id: Dict[Tuple[object, str], List[Dict[str, object]]] = {}
    for record in capture:
        if record.get("opcode") != "CACHE-UPDATE" or record.get("qr"):
            continue
        key = (record.get("id"), str(record.get("dst")))
        by_id.setdefault(key, []).append(record)
    legs = [leg for span in spans.changes for leg in span.legs]
    legs.extend(spans.untracked)
    for leg in legs:
        if leg.msg_id is None:
            continue
        check(WIRE)
        datagrams = by_id.get((leg.msg_id, leg.cache), [])
        where = f"id={leg.msg_id} cache={leg.cache} seq={leg.seq}"
        if not datagrams:
            violations.append(Violation(
                kind=WIRE, seq=leg.seq, t=leg.send_t,
                events=(leg.send_index,),
                message=f"notify.send matches no captured datagram "
                        f"({where})"))
            continue
        if len(datagrams) < leg.attempts:
            violations.append(Violation(
                kind=WIRE, seq=leg.seq, t=leg.send_t,
                events=(leg.send_index,),
                message=(f"{leg.attempts} attempts but only "
                         f"{len(datagrams)} captured datagrams ({where})")))
        if leg.acked and not any(d.get("fate") == FATE_DELIVERED
                                 for d in datagrams):
            violations.append(Violation(
                kind=WIRE, seq=leg.seq, t=leg.ack_t,
                events=(leg.send_index, leg.ack_index or leg.send_index),
                message=(f"acknowledged but no captured datagram was "
                         f"delivered ({where})")))
