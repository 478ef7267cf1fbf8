"""Pair-indexed fast replay engine for the trace-driven lease simulation.

:func:`~repro.sim.driver.simulate_lease_trace` is the *reference oracle*:
one pass over the whole trace per sweep point, exactly as §5.1 describes
the experiment.  A Figure 5 sweep (a dozen fixed lease lengths, a dozen
dynamic thresholds, plus the polling baseline) therefore costs
O(sweep × trace) — painful on the week-long traces the paper uses and
prohibitive on anything larger.

This module exploits the structure of the replay instead of brute force:

* **Lease state is per-pair independent.**  A (domain, nameserver) pair's
  absorb/forward decisions depend only on that pair's own query times and
  its (constant) lease length, so the trace can be grouped *once* into
  per-pair timestamp arrays (:class:`PairIndex`) and each sweep point
  evaluated pair by pair.  Within a pair the replay is a greedy scan —
  "forward one query, skip everything inside its lease window" — which
  :func:`_scan_pair_sorted` performs with :func:`bisect.bisect_left`
  jumps, so absorbed queries cost nothing at all.
* **The dynamic sweep collapses to O(pairs).**  Under the dynamic scheme
  a pair either gets the maximal lease (rate ≥ threshold) or none at
  all.  Its contribution at the max lease is computed *once*; sweeping
  the threshold then just moves pairs between the "granted" and
  "polling" buckets, which :func:`fast_dynamic_sweep` does with a single
  rate-ordered walk shared by every threshold.

Bit-identical results are part of the contract: both engines accumulate
``lease_seconds`` as the *exactly-rounded* float sum of per-grant terms
(Shewchuk-style, order independent), so the fast engine returns the very
same :class:`~repro.sim.metrics.LeaseSimResult` the oracle does —
``tests/test_fastreplay.py`` holds it to that on randomized traces.

The one assumption beyond the oracle's contract: the
:data:`~repro.sim.driver.LeaseFn` hook must be *pure* — within a replay
it is a function of ``(pair, rate, max_lease)`` only, so the engine may
evaluate it once per pair instead of once per upstream query.  Every
scheme in :mod:`repro.sim.driver` (fixed, dynamic, polling) satisfies
this.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, List, Sequence, Tuple, Union

from ..dnslib import Name
from ..exactsum import ExactSum
from ..traces.workload import QueryEvent
from .metrics import LeaseSimResult

#: A pair is (domain name, nameserver index) — record × cache.
Pair = Tuple[Name, int]

#: Scheme hook: (pair, trained rate, max lease) -> lease length (0 = none).
LeaseFn = Callable[[Pair, float, float], float]


class PairIndex:
    """A query trace grouped once into per-(domain, nameserver) arrays.

    Building the index is a single pass; every sweep point afterwards
    reads the per-pair timestamp arrays instead of re-walking the trace.
    Input order is preserved within each pair (the oracle replays events
    in the order given), and each pair remembers whether its array is
    time-sorted so the scanner can choose the bisect fast path.
    """

    __slots__ = ("times", "total", "_sorted")

    def __init__(self, events: Sequence[QueryEvent]):
        times: Dict[Pair, List[float]] = {}
        sorted_flags: Dict[Pair, bool] = {}
        for event in events:
            pair = (event.name, event.nameserver)
            bucket = times.get(pair)
            if bucket is None:
                times[pair] = [event.time]
                sorted_flags[pair] = True
            else:
                if sorted_flags[pair] and event.time < bucket[-1]:
                    sorted_flags[pair] = False
                bucket.append(event.time)
        self.times = times
        self.total = sum(len(bucket) for bucket in times.values())
        self._sorted = sorted_flags

    @property
    def pair_count(self) -> int:
        """Distinct (domain, nameserver) pairs in the trace."""
        return len(self.times)

    def scan(self, pair: Pair, length: float, duration: float,
             terms: List[float]) -> int:
        """Replay one pair under a constant lease ``length``.

        Returns the pair's upstream query count and appends each granted
        lease's duration-truncated coverage (the oracle's exact
        ``max(0, min(t + length, duration) - t)`` term) to ``terms`` —
        a caller-shared list so a whole sweep point's terms can be
        summed once with ``math.fsum``.
        """
        times = self.times[pair]
        if self._sorted[pair]:
            return _scan_pair_sorted(times, length, duration, terms)
        return _scan_pair_unsorted(times, length, duration, terms)


def _scan_pair_sorted(times: List[float], length: float, duration: float,
                      terms: List[float]) -> int:
    """Greedy absorb/forward scan over a sorted timestamp array.

    Upstream queries jump past their absorption window — one comparison
    when the window absorbs nothing (sparse pairs), a bisect otherwise —
    so absorbed queries cost nothing and cost is O(upstream × log n)
    rather than O(n).
    """
    upstream = 0
    append = terms.append
    n = len(times)
    last = times[n - 1]
    i = 0
    while i < n:
        t = times[i]
        upstream += 1
        end = t + length
        if end > duration:
            end = duration
        cover = end - t
        append(cover if cover > 0.0 else 0.0)
        expiry = t + length
        i += 1
        if i < n and times[i] < expiry:
            if last < expiry:
                break  # the rest of the pair is absorbed by this lease
            # The oracle absorbs strictly-earlier queries (time < expiry);
            # bisect_left finds the first index with time >= expiry.
            i = bisect_left(times, expiry, i + 1)
    return upstream


def _scan_pair_unsorted(times: List[float], length: float, duration: float,
                        terms: List[float]) -> int:
    """Oracle-order scan for pairs whose events arrived out of order."""
    upstream = 0
    expiry = -math.inf
    for t in times:
        if t < expiry:
            continue
        upstream += 1
        end = min(t + length, duration)
        terms.append(max(0.0, end - t))
        expiry = t + length
    return upstream


def as_pair_index(trace: Union[PairIndex, Sequence[QueryEvent]]) -> PairIndex:
    """Coerce a raw event sequence into a :class:`PairIndex`."""
    if isinstance(trace, PairIndex):
        return trace
    return PairIndex(trace)


def fast_lease_replay(trace: Union[PairIndex, Sequence[QueryEvent]],
                      pair_rates: Dict[Pair, float],
                      max_lease_of: Callable[[Name], float],
                      lease_fn: LeaseFn,
                      duration: float,
                      scheme: str = "custom",
                      parameter: float = 0.0) -> LeaseSimResult:
    """Pair-indexed equivalent of the oracle's one-scheme replay.

    ``lease_fn`` must be pure (see module docstring); it is evaluated
    once per pair.  Returns a result bit-identical to
    :func:`~repro.sim.driver.simulate_lease_trace` on the same inputs.
    """
    index = as_pair_index(trace)
    upstream = 0
    grants = 0
    terms: List[float] = []
    for pair, times in index.times.items():
        rate = pair_rates.get(pair, 0.0)
        length = lease_fn(pair, rate, max_lease_of(pair[0]))
        if length > 0:
            pair_upstream = index.scan(pair, length, duration, terms)
            upstream += pair_upstream
            grants += pair_upstream
        else:
            upstream += len(times)
    return LeaseSimResult(
        scheme=scheme, parameter=parameter, total_queries=index.total,
        upstream_messages=upstream, grants=grants,
        lease_seconds=math.fsum(terms), pair_count=index.pair_count,
        duration=duration)


def fast_polling(trace: Union[PairIndex, Sequence[QueryEvent]],
                 duration: float) -> LeaseSimResult:
    """The no-lease baseline, which needs no replay at all."""
    index = as_pair_index(trace)
    return LeaseSimResult(
        scheme="none", parameter=0.0, total_queries=index.total,
        upstream_messages=index.total, grants=0, lease_seconds=0.0,
        pair_count=index.pair_count, duration=duration)


def fast_dynamic_sweep(trace: Union[PairIndex, Sequence[QueryEvent]],
                       pair_rates: Dict[Pair, float],
                       max_lease_of: Callable[[Name], float],
                       rate_thresholds: Sequence[float],
                       duration: float) -> List[LeaseSimResult]:
    """The whole dynamic-threshold sweep in one O(pairs) pass.

    Every pair's max-lease contribution (upstream count, grant count,
    lease-second terms) is computed exactly once; thresholds are then
    processed in descending order while pairs are admitted into the
    granted set in descending-rate order, so each threshold's totals are
    running sums rather than replays.  Results come back in the caller's
    threshold order, each bit-identical to an oracle run at that
    threshold.
    """
    index = as_pair_index(trace)
    total = index.total
    # Per-pair max-lease precomputation, shared by every threshold.
    entries: List[Tuple[float, int, int, List[float]]] = []
    for pair, times in index.times.items():
        max_lease = max_lease_of(pair[0])
        if max_lease <= 0:
            continue  # never grantable: pure polling at any threshold
        terms: List[float] = []
        pair_upstream = index.scan(pair, max_lease, duration, terms)
        entries.append((pair_rates.get(pair, 0.0), len(times),
                        pair_upstream, terms))
    entries.sort(key=lambda entry: entry[0], reverse=True)

    order = sorted(range(len(rate_thresholds)),
                   key=lambda i: rate_thresholds[i], reverse=True)
    results: List[LeaseSimResult] = [None] * len(rate_thresholds)  # type: ignore[list-item]
    acc = ExactSum()
    granted_total = 0      # queries belonging to granted pairs
    granted_upstream = 0   # of those, the ones a max lease still forwards
    cursor = 0
    for position in order:
        threshold = rate_thresholds[position]
        while cursor < len(entries) and entries[cursor][0] >= threshold:
            _rate, pair_total, pair_upstream, terms = entries[cursor]
            granted_total += pair_total
            granted_upstream += pair_upstream
            acc.add_all(terms)
            cursor += 1
        results[position] = LeaseSimResult(
            scheme="dynamic", parameter=threshold, total_queries=total,
            upstream_messages=(total - granted_total) + granted_upstream,
            grants=granted_upstream, lease_seconds=acc.value(),
            pair_count=index.pair_count, duration=duration)
    return results
