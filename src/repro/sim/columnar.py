"""Columnar lease-replay core: the million-cache engine.

:mod:`repro.sim.fastreplay` (PR 1) made the Figure 5 sweep cheap by
grouping the trace into per-pair timestamp *lists* and scanning each
pair with ``bisect`` jumps.  That still spends one Python loop
iteration per pair per sweep point — fine at 10^3 pairs, prohibitive at
the ROADMAP's million-cache scale.  This module takes the same
per-pair-independence insight all the way to **columns**:

* :class:`ColumnarTrace` stores the whole trace as one CSR block — a
  single ``float64`` timestamp array holding every pair's segment
  back-to-back, plus an ``int64`` offset array — built either from
  :class:`~repro.traces.workload.QueryEvent` objects or straight from
  arrays (the scalable path: no event objects ever exist);
* :func:`columnar_scan` applies a whole sweep point as **vectorized
  column sweeps**: all pairs advance their absorb/forward frontier in
  lockstep, each round resolving one upstream query per still-active
  pair with a vectorized binary search, so the homogeneous runs of
  grants the oracle dispatches one by one become a handful of NumPy
  operations (the few pairs left once the batch thins out finish on
  the scalar bisect path);
* :func:`columnar_dynamic_sweep` reuses one max-lease column scan for
  the entire dynamic-threshold curve, exactly like
  :func:`~repro.sim.fastreplay.fast_dynamic_sweep`.

Bit-identity with :func:`~repro.sim.driver.simulate_lease_trace` is the
same contract PR 1 established, and it holds for the same reason: every
per-grant term is computed with the oracle's own float arithmetic
(vectorized ``float64`` ops are IEEE-754, identical to Python's scalar
floats), and ``lease_seconds`` is the *exactly rounded* sum of those
terms — order independent — so grouping by pair instead of by event
time cannot change the result.  ``tests/test_sim_columnar.py`` enforces
it on randomized traces, and :func:`scan_partials` exposes the scan as
Shewchuk partials so sharded runs (:mod:`repro.sim.shard`) can merge
*exactly* and stay byte-identical at any shard count.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dnslib import Name
from ..exactsum import ExactSum
from ..obs.metrics import LEASE_BUCKETS
from ..traces.workload import QueryEvent
from .metrics import LeaseSimResult

#: A pair is (domain name, nameserver index) — record × cache.
Pair = Tuple[Name, int]

#: Scheme hook: (pair, trained rate, max lease) -> lease length (0 = none).
LeaseFn = Callable[[Pair, float, float], float]

#: Below this many still-active segments the vectorized rounds stop
#: paying for themselves; the scalar bisect scan finishes the tail.
_SCALAR_CUTOFF = 48


class ColumnarTrace:
    """A query trace as CSR columns: one timestamp block, pair offsets.

    ``times[starts[p]:starts[p + 1]]`` is pair ``p``'s query times in
    input order; ``names[p]`` / ``nameservers[p]`` identify the pair.
    ``sorted_mask[p]`` records whether the segment is time-sorted —
    the vectorized scanner requires sorted segments and falls back to
    the oracle-order scalar scan for the (rare) unsorted ones.
    """

    __slots__ = ("times", "starts", "names", "nameservers", "sorted_mask",
                 "total")

    def __init__(self, times: np.ndarray, starts: np.ndarray,
                 names: Sequence[Name], nameservers: np.ndarray,
                 sorted_mask: Optional[np.ndarray] = None):
        self.times = np.ascontiguousarray(times, dtype=np.float64)
        self.starts = np.ascontiguousarray(starts, dtype=np.int64)
        self.names: List[Name] = list(names)
        self.nameservers = np.ascontiguousarray(nameservers, dtype=np.int64)
        if len(self.starts) != len(self.names) + 1:
            raise ValueError("starts must have one entry per pair plus one")
        if len(self.nameservers) != len(self.names):
            raise ValueError("one nameserver index per pair required")
        if self.starts[0] != 0 or self.starts[-1] != len(self.times):
            raise ValueError("starts must span the timestamp block")
        if sorted_mask is None:
            sorted_mask = self._detect_sorted()
        self.sorted_mask = np.ascontiguousarray(sorted_mask, dtype=bool)
        self.total = int(len(self.times))

    def _detect_sorted(self) -> np.ndarray:
        """Which segments are internally non-decreasing in time."""
        seg_sorted = np.ones(self.pair_count, dtype=bool)
        if len(self.times) > 1:
            # Positions where time decreases relative to the previous
            # slot; only decreases *inside* a segment (not across a
            # segment boundary) make that segment unsorted.
            breaks = np.flatnonzero(self.times[1:] < self.times[:-1]) + 1
            if len(breaks):
                owners = np.searchsorted(self.starts, breaks,
                                         side="right") - 1
                inside = self.starts[owners] != breaks
                seg_sorted[np.unique(owners[inside])] = False
        return seg_sorted

    # -- construction --------------------------------------------------------

    @classmethod
    def from_events(cls, events: Sequence[QueryEvent]) -> "ColumnarTrace":
        """Group an event sequence into columns (one pass, order kept)."""
        grouped: Dict[Pair, List[float]] = {}
        for event in events:
            pair = (event.name, event.nameserver)
            bucket = grouped.get(pair)
            if bucket is None:
                grouped[pair] = [event.time]
            else:
                bucket.append(event.time)
        names: List[Name] = []
        nameservers = np.empty(len(grouped), dtype=np.int64)
        starts = np.zeros(len(grouped) + 1, dtype=np.int64)
        chunks: List[List[float]] = []
        for index, (pair, bucket) in enumerate(grouped.items()):
            names.append(pair[0])
            nameservers[index] = pair[1]
            starts[index + 1] = starts[index] + len(bucket)
            chunks.append(bucket)
        times = (np.concatenate([np.asarray(chunk, dtype=np.float64)
                                 for chunk in chunks])
                 if chunks else np.empty(0, dtype=np.float64))
        return cls(times, starts, names, nameservers)

    # -- derived columns -----------------------------------------------------

    @property
    def pair_count(self) -> int:
        """Distinct (domain, nameserver) pairs in the trace."""
        return len(self.names)

    def segment_lengths(self) -> np.ndarray:
        """Queries per pair, as a column."""
        return self.starts[1:] - self.starts[:-1]

    def cache_count(self) -> int:
        """Distinct nameserver (cache) indices in the trace."""
        return int(len(np.unique(self.nameservers)))

    def to_events(self) -> List[QueryEvent]:
        """The trace re-materialized as event objects, pair-grouped.

        For cross-checks against the reference oracle only — at real
        scale the whole point is that these objects never exist.  The
        oracle's results are order-insensitive across pairs (lease state
        is per-pair, ``lease_seconds`` exactly rounded), so pair-grouped
        order reproduces its output bit for bit.
        """
        return [QueryEvent(float(self.times[slot]), 0, self.names[pair],
                           int(self.nameservers[pair]))
                for pair in range(self.pair_count)
                for slot in range(int(self.starts[pair]),
                                  int(self.starts[pair + 1]))]

    def trained_rates(self, training_window: float) -> np.ndarray:
        """Per-pair λ_ij from the training prefix, as a column.

        Matches :func:`~repro.sim.driver.train_pair_rates` bit for bit:
        each pair's rate is ``count(time < window) / window`` in
        ``float64``, pairs absent from the window getting 0.0 (the
        oracle's ``dict.get`` default).
        """
        if training_window <= 0:
            raise ValueError("training window must be positive")
        cumulative = np.zeros(len(self.times) + 1, dtype=np.int64)
        np.cumsum(self.times < training_window, out=cumulative[1:])
        counts = cumulative[self.starts[1:]] - cumulative[self.starts[:-1]]
        return counts / training_window

    def rate_column(self, pair_rates: Dict[Pair, float]) -> np.ndarray:
        """An oracle-style pair-rate dict flattened onto this trace's
        pair order (missing pairs get the oracle's 0.0 default)."""
        return np.fromiter(
            (pair_rates.get((self.names[p], int(self.nameservers[p])), 0.0)
             for p in range(self.pair_count)),
            dtype=np.float64, count=self.pair_count)

    def max_lease_column(self,
                         max_lease_of: Callable[[Name], float]) -> np.ndarray:
        """Per-pair lease ceilings from a per-name policy function."""
        return np.fromiter((max_lease_of(name) for name in self.names),
                           dtype=np.float64, count=self.pair_count)


# -- the vectorized column sweep -----------------------------------------------


def _scan_columns(times: np.ndarray, seg_start: np.ndarray,
                  seg_end: np.ndarray, pair_ids: np.ndarray,
                  lengths: np.ndarray, duration: float,
                  term_chunks: List[np.ndarray],
                  term_pair_chunks: List[np.ndarray]) -> np.ndarray:
    """Advance every segment's absorb/forward frontier in lockstep.

    ``times[seg_start[i]:seg_end[i]]`` is the (sorted) segment of pair
    ``pair_ids[i]``, replayed under constant lease ``lengths[i]``.
    Each round forwards one upstream query per still-active segment and
    jumps its frontier past the lease window with a vectorized binary
    search — the batched form of
    :func:`repro.sim.fastreplay._scan_pair_sorted`, term for term.
    Appends each round's grant terms (and their pair ids) to the chunk
    lists; returns the upstream count per input segment.
    """
    upstream = np.zeros(len(pair_ids), dtype=np.int64)
    rows = np.flatnonzero(seg_start < seg_end)
    frontier = seg_start[rows]
    while len(rows) >= _SCALAR_CUTOFF:
        t = times[frontier]
        expiry = t + lengths[rows]
        cover = np.minimum(expiry, duration) - t
        term_chunks.append(np.maximum(cover, 0.0))
        term_pair_chunks.append(pair_ids[rows])
        upstream[rows] += 1
        nxt = frontier + 1
        end = seg_end[rows]
        open_ = nxt < end
        # Fast path 1: the very next query already escapes the window —
        # the frontier advances by one, no search needed.
        absorb = open_ & (times[np.where(open_, nxt, 0)] < expiry)
        # Fast path 2: the segment's last query is still inside the
        # window, so the whole tail is absorbed and the segment is done.
        done = absorb & (times[np.where(open_, end - 1, 0)] < expiry)
        search = absorb & ~done
        if search.any():
            # bisect_left over [nxt + 1, end): first index with
            # times[j] >= expiry, in lockstep across segments.
            lo = nxt[search] + 1
            hi = end[search]
            want = expiry[search]
            while True:
                active = lo < hi
                if not active.any():
                    break
                mid = (lo + hi) >> 1
                below = active & (times[np.where(active, mid, 0)] < want)
                lo = np.where(below, mid + 1, lo)
                hi = np.where(active & ~below, mid, hi)
            nxt[search] = lo
        keep = open_ & ~done
        rows = rows[keep]
        frontier = nxt[keep]
    # The stragglers: scalar bisect scan per remaining segment.
    for offset in range(len(rows)):
        row = int(rows[offset])
        upstream[row] += _scan_segment_sorted(
            times, int(frontier[offset]), int(seg_end[row]),
            float(lengths[row]), duration, int(pair_ids[row]),
            term_chunks, term_pair_chunks)
    return upstream


def _scan_segment_sorted(times: np.ndarray, frontier: int, end: int,
                         length: float, duration: float, pair_id: int,
                         term_chunks: List[np.ndarray],
                         term_pair_chunks: List[np.ndarray]) -> int:
    """One sorted segment's remaining scan, with searchsorted jumps."""
    upstream = 0
    terms: List[float] = []
    last = float(times[end - 1])
    i = frontier
    while i < end:
        t = float(times[i])
        upstream += 1
        lease_end = t + length
        if lease_end > duration:
            lease_end = duration
        cover = lease_end - t
        terms.append(cover if cover > 0.0 else 0.0)
        expiry = t + length
        i += 1
        if i < end and times[i] < expiry:
            if last < expiry:
                break  # the rest of the segment is absorbed
            i = int(np.searchsorted(times[i + 1:end], expiry,
                                    side="left")) + i + 1
    if terms:
        term_chunks.append(np.asarray(terms, dtype=np.float64))
        term_pair_chunks.append(np.full(len(terms), pair_id, dtype=np.int64))
    return upstream


def _scan_segment_unsorted(times: np.ndarray, start: int, end: int,
                           length: float, duration: float, pair_id: int,
                           term_chunks: List[np.ndarray],
                           term_pair_chunks: List[np.ndarray]) -> int:
    """Oracle-order scan for segments whose events arrived out of order."""
    upstream = 0
    terms: List[float] = []
    expiry = -math.inf
    for i in range(start, end):
        t = float(times[i])
        if t < expiry:
            continue
        upstream += 1
        lease_end = min(t + length, duration)
        terms.append(max(0.0, lease_end - t))
        expiry = t + length
    if terms:
        term_chunks.append(np.asarray(terms, dtype=np.float64))
        term_pair_chunks.append(np.full(len(terms), pair_id, dtype=np.int64))
    return upstream


def scan_arrays(times: np.ndarray, starts: np.ndarray,
                sorted_mask: np.ndarray, lengths: np.ndarray,
                duration: float
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`columnar_scan` on raw CSR arrays.

    The shard workers (:mod:`repro.sim.shard`) replay sub-traces in
    other processes; shipping bare arrays keeps :class:`~repro.dnslib.
    Name` objects — which the scan never reads — out of the pickled
    payload entirely.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    if len(lengths) != len(starts) - 1:
        raise ValueError("one lease length per pair required")
    seg_len = starts[1:] - starts[:-1]
    upstream = np.where(lengths > 0.0, 0, seg_len).astype(np.int64)
    granted = np.flatnonzero((lengths > 0.0) & (seg_len > 0))
    term_chunks: List[np.ndarray] = []
    term_pair_chunks: List[np.ndarray] = []
    if len(granted):
        sorted_rows = granted[sorted_mask[granted]]
        if len(sorted_rows):
            upstream[sorted_rows] += _scan_columns(
                times, starts[sorted_rows], starts[sorted_rows + 1],
                sorted_rows, lengths[sorted_rows], duration,
                term_chunks, term_pair_chunks)
        for row in granted[~sorted_mask[granted]]:
            upstream[row] += _scan_segment_unsorted(
                times, int(starts[row]), int(starts[row + 1]),
                float(lengths[row]), duration, int(row),
                term_chunks, term_pair_chunks)
    if term_chunks:
        terms = np.concatenate(term_chunks)
        term_pairs = np.concatenate(term_pair_chunks)
    else:
        terms = np.empty(0, dtype=np.float64)
        term_pairs = np.empty(0, dtype=np.int64)
    return upstream, terms, term_pairs


def columnar_scan(trace: ColumnarTrace, lengths: np.ndarray,
                  duration: float
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay every pair under its per-pair lease ``lengths`` column.

    ``lengths[p] <= 0`` means pure polling for pair ``p`` (upstream =
    its query count, no terms).  Returns ``(upstream per pair, grant
    terms, term pair ids)``; the terms are the oracle's exact per-grant
    floats, in engine order — reduce them with ``math.fsum`` or
    :class:`~repro.exactsum.ExactSum`, never bare accumulation.
    """
    return scan_arrays(trace.times, trace.starts, trace.sorted_mask,
                       lengths, duration)


def scan_partials(terms: np.ndarray) -> List[float]:
    """A term multiset reduced to Shewchuk partials.

    The partials are an *exact* representation of the sum: folding
    several shards' partials into one :class:`ExactSum` and rounding
    once yields the bit-identical float one ``math.fsum`` over all the
    terms would — the merge contract :mod:`repro.sim.shard` relies on.
    """
    acc = ExactSum()
    acc.add_all(terms.tolist())
    return acc.partials()


# -- sweep-point entry points --------------------------------------------------


def columnar_lease_replay(trace: ColumnarTrace,
                          pair_rates: Optional[np.ndarray],
                          max_lease: np.ndarray,
                          lease_fn: Optional[LeaseFn],
                          duration: float,
                          scheme: str = "custom",
                          parameter: float = 0.0,
                          lengths: Optional[np.ndarray] = None
                          ) -> LeaseSimResult:
    """Columnar equivalent of the oracle's one-scheme replay.

    Either pass ``lengths`` (a precomputed per-pair lease column — the
    fully vectorized path) or a *pure* ``lease_fn`` evaluated once per
    pair against its trained rate and per-pair ceiling.  Returns a
    result bit-identical to
    :func:`~repro.sim.driver.simulate_lease_trace` on the same inputs.
    """
    if lengths is None:
        if lease_fn is None or pair_rates is None:
            raise ValueError("need either lengths or (lease_fn, pair_rates)")
        lengths = np.fromiter(
            (lease_fn((trace.names[p], int(trace.nameservers[p])),
                      float(pair_rates[p]), float(max_lease[p]))
             for p in range(trace.pair_count)),
            dtype=np.float64, count=trace.pair_count)
    else:
        lengths = np.asarray(lengths, dtype=np.float64)
    upstream, terms, _term_pairs = columnar_scan(trace, lengths, duration)
    return LeaseSimResult(
        scheme=scheme, parameter=parameter, total_queries=trace.total,
        upstream_messages=int(np.sum(upstream)),
        grants=int(np.sum(upstream[lengths > 0.0])),
        lease_seconds=math.fsum(terms.tolist()),
        pair_count=trace.pair_count, duration=duration)


def columnar_polling(trace: ColumnarTrace, duration: float) -> LeaseSimResult:
    """The no-lease baseline, which needs no replay at all."""
    return LeaseSimResult(
        scheme="none", parameter=0.0, total_queries=trace.total,
        upstream_messages=trace.total, grants=0, lease_seconds=0.0,
        pair_count=trace.pair_count, duration=duration)


def replay_table(times: np.ndarray, starts: np.ndarray,
                 sorted_mask: np.ndarray, lengths: np.ndarray,
                 duration: float) -> Tuple[int, int, List[float]]:
    """One scheme's replay reduced to its exact, merge-ready numbers.

    Returns ``(upstream messages, grants, lease partials)``.  The
    partials represent ``lease_seconds`` exactly, so per-shard tables
    merge by integer addition plus partial folding — bit-identical to
    replaying the shards' union in one piece.
    """
    upstream, terms, _term_pairs = scan_arrays(times, starts, sorted_mask,
                                               lengths, duration)
    return (int(np.sum(upstream)), int(np.sum(upstream[lengths > 0.0])),
            scan_partials(terms))


#: Bucket bounds for the per-pair renewal-count histogram
#: (``scale.renewals_per_pair``): how many grants one (cache, domain)
#: pair consumed over the run.
RENEWAL_COUNT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                         200.0, 500.0, 1000.0)

#: A picklable bundle of per-shard metric rows: integer counters plus
#: histogram rows of ``(name, bounds, bucket counts, min, max, sum
#: partials)``.  :func:`repro.sim.shard.metric_table_registry` lifts a
#: table into a :class:`repro.obs.Registry`; merging shard registries
#: reproduces the unsharded registry byte for byte.
MetricTable = Dict[str, object]

#: (name, bounds, bucket counts incl. +inf overflow, min, max, partials)
MetricHistogramRow = Tuple[str, Tuple[float, ...], List[int],
                           Optional[float], Optional[float], List[float]]


def _metric_histogram_row(name: str, bounds: Sequence[float],
                          values: np.ndarray) -> MetricHistogramRow:
    """One histogram's merge-ready row from a value column.

    ``np.searchsorted(bounds, v, side="left")`` lands each value in
    the same inclusive-upper-bound bucket ``bisect.bisect_left`` picks
    in :meth:`repro.obs.Histogram.observe`, and the sum ships as
    Shewchuk partials, so shard-merged histograms carry the correctly
    rounded total no matter how the pairs were grouped.
    """
    bound_col = np.asarray(bounds, dtype=np.float64)
    counts = np.bincount(
        np.searchsorted(bound_col, values, side="left"),
        minlength=len(bound_col) + 1).tolist()
    if len(values):
        minimum: Optional[float] = float(values.min())
        maximum: Optional[float] = float(values.max())
    else:
        minimum = maximum = None
    return (name, tuple(float(b) for b in bound_col), counts,
            minimum, maximum, scan_partials(values))


def metric_table(upstream: np.ndarray, terms: np.ndarray,
                 term_pairs: np.ndarray, lengths: np.ndarray,
                 duration: float, total_queries: int) -> MetricTable:
    """Vectorized lease/renewal/staleness metrics from one scan.

    Pure post-processing of :func:`scan_arrays` output — the scan
    itself stays metric-free (zero cost when metrics are off).  Emits:

    * ``scale.lease_term`` — every grant's term length, seconds;
    * ``scale.renewals_per_pair`` — grants consumed per leased pair
      that was granted at least once;
    * ``scale.staleness_exposure`` — per granted pair, the seconds of
      the run *not* covered by one of its lease terms (while a lease
      runs the holder is strongly consistent; exposure is the
      complement DNScup trades against TTL polling);
    * counters for queries, upstream messages, grants, and pair
      populations.

    Per-pair float reductions happen in each pair's own term order
    (``np.bincount`` accumulates element-sequentially), which the
    shard gather preserves — so every row merges byte-identically at
    any shard count.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    pair_count = len(lengths)
    leased = lengths > 0.0
    grants_per_pair = np.asarray(upstream)[leased]
    granted = grants_per_pair[grants_per_pair > 0]
    coverage = np.bincount(term_pairs, weights=terms,
                           minlength=pair_count)
    covered_pairs = np.bincount(term_pairs, minlength=pair_count) > 0
    exposure = duration - coverage[covered_pairs]
    counters: List[Tuple[str, int]] = [
        ("scale.queries", int(total_queries)),
        ("scale.upstream_messages", int(np.sum(upstream))),
        ("scale.lease_grants", int(np.sum(grants_per_pair))),
        ("scale.pairs", int(pair_count)),
        ("scale.leased_pairs", int(np.count_nonzero(leased))),
        ("scale.granted_pairs", int(np.count_nonzero(covered_pairs))),
    ]
    histograms: List[MetricHistogramRow] = [
        _metric_histogram_row("scale.lease_term", LEASE_BUCKETS, terms),
        _metric_histogram_row("scale.renewals_per_pair",
                              RENEWAL_COUNT_BUCKETS,
                              granted.astype(np.float64)),
        _metric_histogram_row("scale.staleness_exposure",
                              LEASE_BUCKETS, exposure),
    ]
    return {"counters": counters, "histograms": histograms}


def scan_metric_table(times: np.ndarray, starts: np.ndarray,
                      sorted_mask: np.ndarray, lengths: np.ndarray,
                      duration: float) -> MetricTable:
    """Replay one lease column and reduce it to its metric table.

    The shard workers call this on their gathered sub-arrays; the rows
    come back picklable and merge exactly (see :func:`metric_table`).
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    upstream, terms, term_pairs = scan_arrays(times, starts, sorted_mask,
                                              lengths, duration)
    return metric_table(upstream, terms, term_pairs, lengths, duration,
                        int(len(times)))


#: Inter-arrival-gap buckets, seconds — log-spaced from sub-second
#: renewal bursts out to the one-day horizon of the scale scenarios.
GAP_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 1800.0,
               3600.0, 21600.0, 86400.0)


def load_metric_table(times: np.ndarray, starts: np.ndarray,
                      sorted_mask: np.ndarray) -> MetricTable:
    """The load-attribution plane's reduction of one (sub)trace.

    The streaming :class:`repro.obs.load.LoadLedger` sees live runs;
    this is its columnar counterpart for replayed traces — pure
    post-processing of the CSR columns, merge-ready per shard:

    * ``load.queries`` / ``load.pairs`` / ``load.active_pairs`` —
      arrival and population counters;
    * ``load.renewals`` — arrivals beyond each active pair's first
      (the lease-conversation view: first contact is query-class,
      the rest renew it);
    * ``load.interarrival_gap`` — within-pair gaps between successive
      arrivals (time-sorted segments only; the rare unsorted segments
      are tallied in ``load.unsorted_pairs`` rather than silently
      skewing the sketch with negative gaps);
    * ``load.arrivals_per_pair`` — the burst-fanout histogram.

    Every row follows the exact-merge discipline of
    :func:`metric_table`: integer bucket adds plus Shewchuk sum
    partials, so shard-merged registries export byte-identically at
    any shard count (pairs never straddle shards).
    """
    times = np.asarray(times, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    seg_lengths = np.diff(starts)
    pair_count = len(seg_lengths)
    active = seg_lengths > 0
    arrivals = seg_lengths[active].astype(np.float64)
    if len(times) > 1:
        pair_of = np.repeat(np.arange(pair_count), seg_lengths)
        gaps = np.diff(times)
        within = np.ones(len(gaps), dtype=bool)
        boundaries = starts[1:-1]
        within[boundaries[(boundaries > 0)
                          & (boundaries < len(times))] - 1] = False
        within &= np.asarray(sorted_mask, dtype=bool)[pair_of[:-1]]
        gaps = gaps[within]
    else:
        gaps = np.empty(0, dtype=np.float64)
    counters: List[Tuple[str, int]] = [
        ("load.queries", int(len(times))),
        ("load.pairs", int(pair_count)),
        ("load.active_pairs", int(np.count_nonzero(active))),
        ("load.renewals", int(len(times)) - int(np.count_nonzero(active))),
        ("load.unsorted_pairs",
         int(np.count_nonzero(~np.asarray(sorted_mask, dtype=bool)
                              & active))),
    ]
    histograms: List[MetricHistogramRow] = [
        _metric_histogram_row("load.interarrival_gap", GAP_BUCKETS, gaps),
        _metric_histogram_row("load.arrivals_per_pair",
                              RENEWAL_COUNT_BUCKETS, arrivals),
    ]
    return {"counters": counters, "histograms": histograms}


def dynamic_sweep_table(times: np.ndarray, starts: np.ndarray,
                        sorted_mask: np.ndarray,
                        pair_rates: np.ndarray, max_lease: np.ndarray,
                        rate_thresholds: Sequence[float],
                        duration: float) -> List[Tuple[int, int, List[float]]]:
    """The dynamic sweep as per-threshold merge-ready rows.

    One max-lease scan serves every threshold: pairs are admitted in
    descending-rate order as thresholds descend, and each threshold's
    row is ``(queries of admitted pairs, upstream of admitted pairs,
    lease partials)``, in the caller's threshold order.  Because a
    pair's admission depends only on its own rate, a shard's rows cover
    exactly its own pairs and rows merge across shards by integer
    addition plus partial folding.
    """
    pair_rates = np.asarray(pair_rates, dtype=np.float64)
    max_lease = np.asarray(max_lease, dtype=np.float64)
    seg_len = starts[1:] - starts[:-1]
    grantable = max_lease > 0.0
    upstream, terms, term_pairs = scan_arrays(
        times, starts, sorted_mask,
        np.where(grantable, max_lease, 0.0), duration)
    # Admission order: descending rate over grantable pairs; pairs that
    # can never hold a lease poll at every threshold.
    candidates = np.flatnonzero(grantable)
    order = candidates[np.argsort(-pair_rates[candidates], kind="stable")]
    rank = np.full(len(seg_len), len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    # Sorting the terms by their pair's admission rank makes every
    # threshold's term set a prefix of one ordering — the accumulator
    # then just advances through it as thresholds descend.
    term_order = np.argsort(rank[term_pairs], kind="stable")
    ordered_terms = terms[term_order]
    term_rank = rank[term_pairs][term_order]
    ordered_rates = pair_rates[order]

    positions = sorted(range(len(rate_thresholds)),
                       key=lambda i: rate_thresholds[i], reverse=True)
    rows: List[Tuple[int, int, List[float]]] = \
        [(0, 0, [])] * len(rate_thresholds)
    acc = ExactSum()
    granted_total = 0      # queries belonging to admitted pairs
    granted_upstream = 0   # of those, the ones a max lease still forwards
    cursor = 0
    term_cursor = 0
    for position in positions:
        threshold = rate_thresholds[position]
        while cursor < len(order) and ordered_rates[cursor] >= threshold:
            pair = order[cursor]
            granted_total += int(seg_len[pair])
            granted_upstream += int(upstream[pair])
            cursor += 1
        while (term_cursor < len(ordered_terms)
               and term_rank[term_cursor] < cursor):
            acc.add(float(ordered_terms[term_cursor]))
            term_cursor += 1
        rows[position] = (granted_total, granted_upstream, acc.partials())
    return rows


def columnar_dynamic_sweep(trace: ColumnarTrace,
                           pair_rates: np.ndarray,
                           max_lease: np.ndarray,
                           rate_thresholds: Sequence[float],
                           duration: float) -> List[LeaseSimResult]:
    """The whole dynamic-threshold sweep from one max-lease column scan.

    Mirrors :func:`~repro.sim.fastreplay.fast_dynamic_sweep`: each
    grantable pair's contribution under its maximal lease is computed
    once (vectorized), thresholds are then walked in descending order
    while pairs are admitted in descending-rate order, and every
    threshold's ``lease_seconds`` closes over the admitted pairs' terms
    through an exactly-rounded accumulator.
    """
    rows = dynamic_sweep_table(trace.times, trace.starts, trace.sorted_mask,
                               pair_rates, max_lease, rate_thresholds,
                               duration)
    return [
        LeaseSimResult(
            scheme="dynamic", parameter=threshold,
            total_queries=trace.total,
            upstream_messages=(trace.total - granted_total)
            + granted_upstream,
            grants=granted_upstream,
            lease_seconds=math.fsum(partials),
            pair_count=trace.pair_count, duration=duration)
        for threshold, (granted_total, granted_upstream, partials)
        in zip(rate_thresholds, rows)]


# -- scalable synthetic generation ---------------------------------------------


def flash_crowd_columnar(caches: int,
                         regular_domains: int,
                         duration: float,
                         hot_domains: int = 1,
                         base_rate: float = 1.0 / 3600.0,
                         flash_start: float = 0.25,
                         flash_length: float = 0.25,
                         flash_rate: float = 1.0 / 60.0,
                         cache_fanout: int = 50,
                         seed: int = 0) -> Tuple[ColumnarTrace, np.ndarray]:
    """A Figure 5-class flash-crowd trace, generated straight to columns.

    The ``hot_domains`` CDN-class records are hit by every cache: a
    Poisson baseline at ``base_rate`` plus a flash crowd at
    ``flash_rate`` inside the ``[flash_start, flash_start +
    flash_length]`` window (fractions of ``duration``).  Each *regular*
    domain is polled at ``base_rate`` by a deterministic contiguous
    window of caches sized so the average cache touches
    ``cache_fanout`` of them.  No event objects are ever materialized:
    per-pair Poisson counts are drawn vectorized, timestamps are
    uniform draws sorted within each pair, and the result lands
    directly in CSR columns.  Returns ``(trace, max-lease column)``
    with the paper's §5.1 ceilings (CDN for hot, regular otherwise).

    Deterministic for a given ``seed`` — the bench and the CI smoke
    rely on that for reproducible floors.
    """
    from ..core.policy import MAX_LEASE_CDN, MAX_LEASE_REGULAR
    if caches < 1 or duration <= 0:
        raise ValueError("need at least one cache and a positive duration")
    rng = np.random.default_rng(seed)
    window_start = flash_start * duration
    window_len = flash_length * duration

    names: List[Name] = []
    ns_chunks: List[np.ndarray] = []
    times_chunks: List[np.ndarray] = []
    starts_chunks: List[np.ndarray] = []
    lease_chunks: List[np.ndarray] = []
    running = 0

    def emit_domain(name: Name, cache_ids: np.ndarray, base_n: np.ndarray,
                    burst_n: Optional[np.ndarray], ceiling: float) -> None:
        nonlocal running
        totals = base_n + burst_n if burst_n is not None else base_n
        keep = totals > 0
        cache_ids, base_n, totals = cache_ids[keep], base_n[keep], totals[keep]
        if burst_n is not None:
            burst_n = burst_n[keep]
        if not len(cache_ids):
            return
        pair_index = np.arange(len(cache_ids))
        times = rng.random(int(np.sum(base_n))) * duration
        owners = np.repeat(pair_index, base_n)
        if burst_n is not None and int(np.sum(burst_n)):
            burst_times = (window_start
                           + rng.random(int(np.sum(burst_n))) * window_len)
            owners = np.concatenate([owners, np.repeat(pair_index, burst_n)])
            times = np.concatenate([times, burst_times])
        order = np.lexsort((times, owners))
        times_chunks.append(times[order])
        offsets = np.zeros(len(cache_ids), dtype=np.int64)
        np.cumsum(totals[:-1], out=offsets[1:])
        starts_chunks.append(offsets + running)
        running += int(np.sum(totals))
        names.extend([name] * len(cache_ids))
        ns_chunks.append(cache_ids.astype(np.int64))
        lease_chunks.append(np.full(len(cache_ids), ceiling,
                                    dtype=np.float64))

    all_caches = np.arange(caches, dtype=np.int64)
    for index in range(hot_domains):
        emit_domain(Name.from_text(f"d{index}.flash.test"), all_caches,
                    rng.poisson(base_rate * duration, size=caches),
                    rng.poisson(flash_rate * window_len, size=caches),
                    float(MAX_LEASE_CDN))
    per_domain = min(caches, max(1, (caches * cache_fanout)
                                 // max(1, regular_domains)))
    for index in range(regular_domains):
        start = (index * per_domain) % max(1, caches - per_domain + 1)
        emit_domain(Name.from_text(f"d{index}.base.test"),
                    all_caches[start:start + per_domain],
                    rng.poisson(base_rate * duration, size=per_domain),
                    None, float(MAX_LEASE_REGULAR))

    if times_chunks:
        times = np.concatenate(times_chunks)
        starts = np.concatenate(
            starts_chunks + [np.asarray([running], dtype=np.int64)])
        nameservers = np.concatenate(ns_chunks)
        max_lease = np.concatenate(lease_chunks)
    else:
        times = np.empty(0, dtype=np.float64)
        starts = np.zeros(1, dtype=np.int64)
        nameservers = np.empty(0, dtype=np.int64)
        max_lease = np.empty(0, dtype=np.float64)
    trace = ColumnarTrace(times, starts, names, nameservers,
                          sorted_mask=np.ones(len(names), dtype=bool))
    return trace, max_lease
