"""The protocol invariant checker: every run audits its own trace.

DNScup's headline claims are *guarantees*: after a DN2IP change every
leased cache is consistent again within one notification round trip,
live leases never exceed the storage budget, and renewals never exceed
the message budget of the §4 optimizers.  :func:`audit_trace` checks
those guarantees machine-readably over one exported trace (plus,
optionally, the wire capture), emitting a structured
:class:`Violation` per breach:

* **completeness** — every cache holding a live lease on the changed
  record when the change was detected received a ``notify.send``;
* **termination** — every send resolves to an ack or a timeout, and
  does so before the change settles;
* **causality** — no effect precedes its cause (ack/timeout/retransmit
  after the send, time monotone along each leg) and each ack's ``rtt``
  field equals its ack−send timestamp difference exactly;
* **budget.storage / budget.renewal** — replayed lease-table occupancy
  never exceeds the storage-constrained budget; the renewal rate never
  exceeds the communication-constrained budget;
* **staleness** — the ``change.settled`` window equals the recomputed
  last-ack window, no ack lands after settlement, and (when a bound is
  configured) no acked holder stayed stale longer than it;
* **wire** — each ``notify.send`` matches captured CACHE-UPDATE
  datagrams by message ID, with enough transmissions for its attempts
  and a delivered datagram behind every acknowledgement.

There is one auditor: :class:`repro.obs.streaming.IncrementalAuditor`.
:func:`audit_trace` feeds it the whole trace and asks for its report,
so a post-hoc audit, ``repro-obs tail`` and the live telemetry plane
judge a run with the same code.  This module holds the vocabulary they
share: the violation kinds, :class:`Violation`, :class:`AuditLimits`,
:class:`AuditReport` and one constructor per violation message.

The auditor assumes a complete trace (``TraceBus.dropped == 0``):
ring-truncated traces decapitate spans and surface false causality
orphans, which is the honest answer for an unauditable record.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import TraceEvent

#: Violation kinds (a stable contract, PROTOCOL.md §9).
COMPLETENESS = "completeness"
TERMINATION = "termination"
CAUSALITY = "causality"
BUDGET_STORAGE = "budget.storage"
BUDGET_RENEWAL = "budget.renewal"
STALENESS = "staleness"
WIRE = "wire"

VIOLATION_KINDS = frozenset({
    COMPLETENESS, TERMINATION, CAUSALITY,
    BUDGET_STORAGE, BUDGET_RENEWAL, STALENESS, WIRE,
})

#: Slack for comparing a float carried in one event against the same
#: quantity recomputed from two timestamps.  The live emitters record
#: the identical float objects, so exact runs audit at zero slack; the
#: epsilon only forgives decimal re-serialization by foreign tools.
FLOAT_SLACK = 1e-9


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the offending trace events."""

    kind: str
    message: str
    seq: int = 0
    t: Optional[float] = None
    #: Indices into the audited event list of the evidence.
    events: Tuple[int, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form with stable key order."""
        return {"kind": self.kind, "seq": self.seq, "t": self.t,
                "events": list(self.events), "message": self.message}


@dataclasses.dataclass
class AuditLimits:
    """The budgets and bounds the run promised to honour."""

    #: Storage-constrained budget (§4.2.1): maximum live leases the
    #: table may carry — the middleware's ``lease_capacity``.
    storage_budget: Optional[int] = None
    #: Communication-constrained budget (§4.2.2): maximum sustained
    #: renewal rate, renewals/second over :attr:`renewal_window`.
    renewal_budget: Optional[float] = None
    renewal_window: float = 60.0
    #: Bound on per-holder staleness: seconds between change detection
    #: and that holder's acknowledgement (the consistency window each
    #: acked cache experienced).  None skips the bound.
    max_staleness: Optional[float] = None


@dataclasses.dataclass
class AuditReport:
    """The auditor's verdict over one trace."""

    violations: List[Violation]
    #: Facts examined per check family (for "0 violations across N
    #: checks" reporting; a family absent from the dict did not run).
    checks: Dict[str, int]
    events_audited: int
    #: Capture records the wire check ran against (None: no capture).
    capture_audited: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def counts(self) -> Dict[str, int]:
        """Violation kind -> occurrences, sorted by kind."""
        tally: Dict[str, int] = {}
        for violation in self.violations:
            tally[violation.kind] = tally.get(violation.kind, 0) + 1
        return dict(sorted(tally.items()))

    def kinds(self) -> frozenset:
        """The set of violated kinds."""
        return frozenset(v.kind for v in self.violations)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form mirroring ``repro-obs audit --json``."""
        return {
            "ok": self.ok,
            "events_audited": self.events_audited,
            "capture_audited": self.capture_audited,
            "checks": dict(sorted(self.checks.items())),
            "violation_counts": self.counts(),
            "violations": [v.as_dict() for v in self.violations],
        }


# -- violation constructors ---------------------------------------------------
#
# One constructor per message, so the auditor's call sites stay short
# and the test-only reference oracle (``tests/audit_oracle.py``) words
# its violations identically.


def orphan_violation(index: int, reason: str) -> Violation:
    return Violation(kind=CAUSALITY, message=f"orphan event: {reason}",
                     events=(index,))


def unnotified_holder_violation(seq: int, detected_t: Optional[float],
                                detected_index: int, grant_index: int,
                                cache: str, name: object,
                                rrtype: object) -> Violation:
    return Violation(
        kind=COMPLETENESS, seq=seq, t=detected_t,
        events=(detected_index, grant_index),
        message=(f"lease holder {cache} on {name}/{rrtype} never "
                 f"notified for seq={seq}"))


def unresolved_leg_violation(seq: int, cache: str, send_t: float,
                             send_index: int) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=send_t, events=(send_index,),
        message=(f"notify.send to {cache} never resolved "
                 f"to ack or timeout (seq={seq})"))


def resolved_after_settled_violation(seq: int, cache: str,
                                     settled_t: Optional[float],
                                     resolution_index: int,
                                     settled_index: int) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=settled_t,
        events=(resolution_index, settled_index),
        message=(f"leg to {cache} resolved after "
                 f"change.settled (seq={seq})"))


def never_settled_violation(seq: int, detected_t: Optional[float],
                            leg_count: int,
                            send_indices: Tuple[int, ...]) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=detected_t, events=send_indices,
        message=(f"change seq={seq} fanned out to "
                 f"{leg_count} holders but never settled"))


def retransmit_early_violation(seq: int, cache: str, t: float,
                               send_index: int, index: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=t, events=(send_index, index),
        message=f"retransmit before its send (seq={seq} cache={cache})")


def retransmit_attempt_violation(seq: int, cache: str, t: float,
                                 send_index: int, index: int,
                                 attempt: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=t, events=(send_index, index),
        message=(f"retransmit with attempt={attempt} < 2 "
                 f"(seq={seq} cache={cache})"))


def ack_before_send_violation(seq: int, cache: str, ack_t: float,
                              send_index: int, ack_index: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=ack_t, events=(send_index, ack_index),
        message=f"ack timestamped before its send (seq={seq} cache={cache})")


def ack_missing_rtt_violation(seq: int, cache: str, ack_t: float,
                              ack_index: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=ack_t, events=(ack_index,),
        message=f"ack carries no rtt field (seq={seq} cache={cache})")


def rtt_mismatch_violation(seq: int, cache: str, send_t: float,
                           ack_t: float, send_index: int, ack_index: int,
                           rtt: float) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=ack_t, events=(send_index, ack_index),
        message=(f"rtt={rtt!r} but ack-send timestamps give "
                 f"{ack_t - send_t!r} (seq={seq} cache={cache})"))


def stale_holder_violation(seq: int, cache: str, ack_t: float,
                           send_index: int, ack_index: int,
                           staleness: float, bound: float) -> Violation:
    return Violation(
        kind=STALENESS, seq=seq, t=ack_t, events=(send_index, ack_index),
        message=(f"holder stale {staleness:.6g}s > bound "
                 f"{bound:.6g}s (seq={seq} cache={cache})"))


def timeout_before_send_violation(seq: int, cache: str, timeout_t: float,
                                  send_index: int,
                                  timeout_index: int) -> Violation:
    return Violation(
        kind=CAUSALITY, seq=seq, t=timeout_t,
        events=(send_index, timeout_index),
        message=(f"timeout timestamped before its send "
                 f"(seq={seq} cache={cache})"))


def settled_acked_violation(seq: int, settled_t: Optional[float],
                            settled_index: int, claimed: int,
                            actual: int) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=settled_t, events=(settled_index,),
        message=(f"change.settled claims acked={claimed} "
                 f"but the trace shows {actual} (seq={seq})"))


def settled_failed_violation(seq: int, settled_t: Optional[float],
                             settled_index: int, claimed: int,
                             actual: int) -> Violation:
    return Violation(
        kind=TERMINATION, seq=seq, t=settled_t, events=(settled_index,),
        message=(f"change.settled claims failed={claimed} "
                 f"but the trace shows {actual} (seq={seq})"))


def settled_window_violation(seq: int, settled_t: Optional[float],
                             settled_index: int,
                             recorded: Optional[float],
                             window: Optional[float]) -> Violation:
    return Violation(
        kind=STALENESS, seq=seq, t=settled_t, events=(settled_index,),
        message=(f"settled window={recorded!r} but last-ack "
                 f"recomputation gives {window!r} (seq={seq})"))


def untracked_unresolved_violation(cache: str, send_t: float,
                                   send_index: int) -> Violation:
    return Violation(
        kind=TERMINATION, t=send_t, events=(send_index,),
        message=(f"untracked notify.send to {cache} never "
                 f"resolved to ack or timeout"))


def storage_budget_violation(t: float, index: int, active: int,
                             budget: int) -> Violation:
    return Violation(
        kind=BUDGET_STORAGE, t=t, events=(index,),
        message=(f"lease occupancy {active} exceeds the "
                 f"storage budget {budget}"))


def renewal_budget_violation(t: float, index: int, in_window: int,
                             window: float, budget: float) -> Violation:
    return Violation(
        kind=BUDGET_RENEWAL, t=t, events=(index,),
        message=(f"{in_window} renewals in {window:.6g}s exceeds the "
                 f"communication budget of {budget:.6g}/s"))


def audit_trace(events: Iterable[TraceEvent],
                capture: Optional[Sequence[Dict[str, object]]] = None,
                limits: Optional[AuditLimits] = None) -> AuditReport:
    """Run every invariant check over one trace (see module docstring).

    ``capture`` is the wire-capture record list
    (:attr:`repro.obs.WireCapture.records` or
    :func:`repro.obs.load_capture` output); None skips the trace/wire
    cross-check.  ``limits`` supplies the budgets; None checks only the
    budget-free invariants.  This is the streaming auditor fed the
    whole trace at once.
    """
    from .streaming import IncrementalAuditor
    auditor = IncrementalAuditor(limits, capture=capture)
    auditor.feed_many(events)
    return auditor.report()


def audit_observability(obs: Any, limits: Optional[AuditLimits] = None
                        ) -> AuditReport:
    """Audit a live :class:`repro.obs.Observability` bundle in place."""
    if obs.trace.dropped:
        raise ValueError(
            f"trace incomplete: {obs.trace.dropped} events fell off the "
            f"ring — raise trace_capacity to audit this run")
    capture = obs.capture.records if obs.capture is not None else None
    return audit_trace(list(obs.trace.events), capture=capture,
                       limits=limits)
