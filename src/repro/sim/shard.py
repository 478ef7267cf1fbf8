"""Domain-partitioned sharded replay with exact, byte-stable merges.

The columnar engine (:mod:`repro.sim.columnar`) replays pairs
independently, which means the trace can be *partitioned by domain* and
each partition replayed in its own process: a pair's absorb/forward
decisions, its admission under the dynamic scheme, and its lease-second
terms never reference another pair.  This module supplies that layer:

* :func:`shard_of_name` assigns every domain to a shard by CRC-32 of
  its lowercased text — stable across processes, machines and
  ``PYTHONHASHSEED``, so a given trace always partitions identically;
* :func:`shard_sweep_tasks` slices one :class:`~repro.sim.columnar.
  ColumnarTrace` into per-shard CSR arrays (a vectorized gather — no
  event objects, no :class:`~repro.dnslib.Name` objects in the
  payload);
* :func:`sharded_figure5_sweep` runs the whole fixed + dynamic sweep
  per shard — serially or on a ``multiprocessing`` pool — and merges
  the per-shard tables into :class:`~repro.sim.metrics.LeaseSimResult`
  rows.

**The merge is exact, so shard count cannot change a single bit.**
Integer counters add associatively; ``lease_seconds`` is carried as
Shewchuk partials (:meth:`~repro.exactsum.ExactSum.partials`),
an *exact* representation of each shard's term sum, and folding all
shards' partials into one accumulator before rounding once yields the
identical float a single-shard run computes.  The shard-invariance
property test (``tests/test_sim_shard.py``) holds 1-, 2- and 8-shard
runs to byte-identical metrics JSON.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import zlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..dnslib import Name
from ..exactsum import ExactSum
from ..obs.metrics import Registry
from .columnar import (ColumnarTrace, MetricTable, dynamic_sweep_table,
                       load_metric_table, replay_table, scan_metric_table)
from .metrics import LeaseSimResult

#: One worker payload: everything a shard needs to run the full sweep.
#: Plain arrays and floats only — cheap to pickle, nothing process-local.
_SweepTask = Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                   np.ndarray, Tuple[float, ...], Tuple[float, ...], float]


def shard_of_name(name: Name, nshards: int) -> int:
    """The shard owning ``name``: CRC-32 of the lowercased dotted text.

    Deliberately *not* ``hash()``: Python's string hash is salted per
    process, while the shard layout must be identical in every worker,
    rerun and machine for the merge (and its audit trail) to be
    byte-stable.
    """
    if nshards < 1:
        raise ValueError("need at least one shard")
    return zlib.crc32(".".join(name.key).encode("utf-8")) % nshards


def shard_pair_ids(trace: ColumnarTrace,
                   nshards: int) -> List[np.ndarray]:
    """Pair ids per shard, preserving the trace's pair order within
    each shard (all pairs of one domain land on one shard)."""
    shard_col = np.fromiter(
        (shard_of_name(name, nshards) for name in trace.names),
        dtype=np.int64, count=trace.pair_count)
    return [np.flatnonzero(shard_col == shard) for shard in range(nshards)]


def gather_subtrace(trace: ColumnarTrace, pair_ids: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One shard's ``(times, starts, sorted_mask)`` CSR arrays.

    A vectorized gather: each selected pair's segment is copied
    back-to-back into a fresh timestamp block, preserving within-pair
    order (the bit-identity contract replays each pair in input order).
    """
    seg_len = trace.segment_lengths()[pair_ids]
    starts = np.zeros(len(pair_ids) + 1, dtype=np.int64)
    np.cumsum(seg_len, out=starts[1:])
    # Source index for destination slot j of pair i:
    # trace.starts[pair_ids[i]] + (j - starts[i]).
    source = (np.repeat(trace.starts[pair_ids] - starts[:-1], seg_len)
              + np.arange(int(starts[-1]), dtype=np.int64))
    return trace.times[source], starts, trace.sorted_mask[pair_ids]


@dataclasses.dataclass
class ShardSweep:
    """One shard's sweep outcome: exact, merge-ready, byte-stable.

    ``fixed`` holds one ``(upstream, grants, lease partials)`` row per
    fixed lease length; ``dynamic`` one ``(granted queries, granted
    upstream, lease partials)`` row per threshold.  All values are
    exact — integers and Shewchuk partials — so any merge order gives
    the same result.
    """

    shard: int
    total_queries: int
    pair_count: int
    fixed: List[Tuple[int, int, List[float]]]
    dynamic: List[Tuple[int, int, List[float]]]


def _sweep_shard(task: _SweepTask) -> ShardSweep:
    """Worker: one shard's full fixed + dynamic sweep (pure function)."""
    (shard, times, starts, sorted_mask, pair_rates, max_lease,
     fixed_lengths, rate_thresholds, duration) = task
    fixed: List[Tuple[int, int, List[float]]] = []
    for length in fixed_lengths:
        # The fixed scheme's lease_fn is min(length, ceiling) per pair;
        # np.minimum is the same IEEE-754 selection, vectorized.
        fixed.append(replay_table(times, starts, sorted_mask,
                                  np.minimum(length, max_lease), duration))
    dynamic = dynamic_sweep_table(times, starts, sorted_mask, pair_rates,
                                  max_lease, rate_thresholds, duration)
    return ShardSweep(shard=shard, total_queries=int(len(times)),
                      pair_count=len(starts) - 1, fixed=fixed,
                      dynamic=dynamic)


def shard_sweep_tasks(trace: ColumnarTrace, pair_rates: np.ndarray,
                      max_lease: np.ndarray,
                      fixed_lengths: Sequence[float],
                      rate_thresholds: Sequence[float],
                      duration: float, nshards: int) -> List[_SweepTask]:
    """Slice a trace and its per-pair columns into worker payloads."""
    pair_rates = np.asarray(pair_rates, dtype=np.float64)
    max_lease = np.asarray(max_lease, dtype=np.float64)
    tasks: List[_SweepTask] = []
    for shard, pair_ids in enumerate(shard_pair_ids(trace, nshards)):
        times, starts, sorted_mask = gather_subtrace(trace, pair_ids)
        tasks.append((shard, times, starts, sorted_mask,
                      pair_rates[pair_ids], max_lease[pair_ids],
                      tuple(fixed_lengths), tuple(rate_thresholds),
                      duration))
    return tasks


def run_shard_sweeps(tasks: Sequence[_SweepTask],
                     processes: Optional[int] = None) -> List[ShardSweep]:
    """Run every shard task, serially or on a ``multiprocessing`` pool.

    ``processes=None`` (or 1, or a single task) runs in-process — the
    workers are pure functions of their payload, so the results are
    bit-identical either way; a pool only changes wall-clock time.
    """
    if processes is None or processes <= 1 or len(tasks) <= 1:
        return [_sweep_shard(task) for task in tasks]
    with multiprocessing.get_context().Pool(
            processes=min(processes, len(tasks))) as pool:
        return pool.map(_sweep_shard, tasks)


def merge_shard_sweeps(sweeps: Sequence[ShardSweep],
                       fixed_lengths: Sequence[float],
                       rate_thresholds: Sequence[float],
                       duration: float
                       ) -> Tuple[List[LeaseSimResult],
                                  List[LeaseSimResult], LeaseSimResult]:
    """Fold per-shard tables into global ``(fixed, dynamic, polling)``.

    Deterministic and exact: integer counters add, lease partials fold
    into one :class:`ExactSum` per sweep point and round once.  Shards
    are processed in shard order for a stable audit trail, though any
    order would produce the same bits.
    """
    ordered = sorted(sweeps, key=lambda sweep: sweep.shard)
    total = 0
    pair_count = 0
    for sweep in ordered:
        total += sweep.total_queries
        pair_count += sweep.pair_count
    fixed_results: List[LeaseSimResult] = []
    for index, length in enumerate(fixed_lengths):
        upstream = 0
        grants = 0
        acc = ExactSum()
        for sweep in ordered:
            row_upstream, row_grants, partials = sweep.fixed[index]
            upstream += row_upstream
            grants += row_grants
            acc.add_all(partials)
        fixed_results.append(LeaseSimResult(
            scheme="fixed", parameter=length, total_queries=total,
            upstream_messages=upstream, grants=grants,
            lease_seconds=acc.value(), pair_count=pair_count,
            duration=duration))
    dynamic_results: List[LeaseSimResult] = []
    for index, threshold in enumerate(rate_thresholds):
        granted_total = 0
        granted_upstream = 0
        acc = ExactSum()
        for sweep in ordered:
            row_total, row_upstream, partials = sweep.dynamic[index]
            granted_total += row_total
            granted_upstream += row_upstream
            acc.add_all(partials)
        dynamic_results.append(LeaseSimResult(
            scheme="dynamic", parameter=threshold, total_queries=total,
            upstream_messages=(total - granted_total) + granted_upstream,
            grants=granted_upstream, lease_seconds=acc.value(),
            pair_count=pair_count, duration=duration))
    polling = LeaseSimResult(
        scheme="none", parameter=0.0, total_queries=total,
        upstream_messages=total, grants=0, lease_seconds=0.0,
        pair_count=pair_count, duration=duration)
    return fixed_results, dynamic_results, polling


def sharded_figure5_sweep(trace: ColumnarTrace, pair_rates: np.ndarray,
                          max_lease: np.ndarray,
                          fixed_lengths: Sequence[float],
                          rate_thresholds: Sequence[float],
                          duration: float, nshards: int,
                          processes: Optional[int] = None
                          ) -> Tuple[List[LeaseSimResult],
                                     List[LeaseSimResult], LeaseSimResult]:
    """The full Figure 5 sweep, domain-partitioned across ``nshards``.

    Returns ``(fixed, dynamic, polling)`` results bit-identical to the
    single-trace columnar engine — and therefore to the reference
    oracle — at *any* shard count.
    """
    tasks = shard_sweep_tasks(trace, pair_rates, max_lease, fixed_lengths,
                              rate_thresholds, duration, nshards)
    sweeps = run_shard_sweeps(tasks, processes=processes)
    return merge_shard_sweeps(sweeps, fixed_lengths, rate_thresholds,
                              duration)


def sharded_lease_replay(trace: ColumnarTrace, lengths: np.ndarray,
                         duration: float, nshards: int,
                         scheme: str = "custom", parameter: float = 0.0,
                         processes: Optional[int] = None) -> LeaseSimResult:
    """One scheme's replay (a precomputed per-pair lease column),
    domain-partitioned across ``nshards`` with the exact merge."""
    lengths = np.asarray(lengths, dtype=np.float64)
    total = 0
    pair_count = 0
    upstream = 0
    grants = 0
    acc = ExactSum()
    shard_ids = shard_pair_ids(trace, nshards)
    tables = run_shard_replays(trace, lengths, duration, shard_ids,
                               processes=processes)
    for pair_ids, (row_upstream, row_grants, partials) in zip(shard_ids,
                                                              tables):
        seg_total = int(np.sum(trace.segment_lengths()[pair_ids]))
        total += seg_total
        pair_count += len(pair_ids)
        upstream += row_upstream
        grants += row_grants
        acc.add_all(partials)
    return LeaseSimResult(
        scheme=scheme, parameter=parameter, total_queries=total,
        upstream_messages=upstream, grants=grants,
        lease_seconds=acc.value(), pair_count=pair_count,
        duration=duration)


def _replay_shard(task: Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, float]
                  ) -> Tuple[int, int, List[float]]:
    """Worker: one shard's single-scheme replay table."""
    times, starts, sorted_mask, lengths, duration = task
    return replay_table(times, starts, sorted_mask, lengths, duration)


def metric_table_registry(table: MetricTable,
                          registry: Optional[Registry] = None) -> Registry:
    """Lift a :data:`~repro.sim.columnar.MetricTable` into a registry.

    Counters load with :meth:`~repro.obs.metrics.Counter.inc`;
    histogram rows load through
    :meth:`~repro.obs.metrics.Histogram.add_exact`, so the registry
    stays on the exact-sum path and :meth:`Registry.merge` combines
    shard registries byte-identically in any grouping.
    """
    if registry is None:
        registry = Registry()
    counters = table["counters"]
    histograms = table["histograms"]
    assert isinstance(counters, list) and isinstance(histograms, list)
    for name, value in counters:
        registry.counter(name).inc(value)
    for name, bounds, counts, minimum, maximum, partials in histograms:
        registry.histogram(name, bounds).add_exact(
            counts, partials, minimum=minimum, maximum=maximum)
    return registry


def merge_metric_tables(tables: Sequence[MetricTable]) -> Registry:
    """Fold per-shard metric tables into one merged registry.

    Tables fold in the given order for a stable audit trail, but every
    row is exact (integer counts, Shewchuk sum partials), so any order
    — and any shard count — yields byte-identical
    :meth:`~repro.obs.metrics.Registry.export_json` output.
    """
    merged = Registry()
    for table in tables:
        merged.merge(metric_table_registry(table))
    return merged


def _metric_shard(task: Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, float]) -> MetricTable:
    """Worker: one shard's scan reduced to its metric table."""
    times, starts, sorted_mask, lengths, duration = task
    return scan_metric_table(times, starts, sorted_mask, lengths, duration)


def sharded_scan_metrics(trace: ColumnarTrace, lengths: np.ndarray,
                         duration: float, nshards: int,
                         processes: Optional[int] = None) -> Registry:
    """Scale-run telemetry from a domain-partitioned columnar scan.

    Replays one lease column per shard (serially or on a pool — same
    contract as :func:`run_shard_sweeps`), reduces each shard to a
    :data:`~repro.sim.columnar.MetricTable`, and merges the tables into
    a single :class:`~repro.obs.metrics.Registry` whose exported JSON
    is byte-identical at any shard count.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    tasks = []
    for pair_ids in shard_pair_ids(trace, nshards):
        times, starts, sorted_mask = gather_subtrace(trace, pair_ids)
        tasks.append((times, starts, sorted_mask, lengths[pair_ids],
                      duration))
    if processes is None or processes <= 1 or len(tasks) <= 1:
        tables = [_metric_shard(task) for task in tasks]
    else:
        with multiprocessing.get_context().Pool(
                processes=min(processes, len(tasks))) as pool:
            tables = pool.map(_metric_shard, tasks)
    return merge_metric_tables(tables)


def _load_shard(task: Tuple[np.ndarray, np.ndarray, np.ndarray]
                ) -> MetricTable:
    """Worker: one shard's columns reduced to its load metric table."""
    times, starts, sorted_mask = task
    return load_metric_table(times, starts, sorted_mask)


def sharded_load_metrics(trace: ColumnarTrace, nshards: int,
                         processes: Optional[int] = None) -> Registry:
    """Load-attribution telemetry from a domain-partitioned reduction.

    The columnar counterpart of the live
    :class:`repro.obs.load.LoadLedger`: each shard reduces its gathered
    sub-columns with :func:`~repro.sim.columnar.load_metric_table`
    (serially or on a pool — same contract as
    :func:`sharded_scan_metrics`), and the merged
    :class:`~repro.obs.metrics.Registry` exports byte-identically at
    any shard count because every row is integer bucket counts plus
    Shewchuk sum partials and pairs never straddle shards.
    """
    tasks = []
    for pair_ids in shard_pair_ids(trace, nshards):
        tasks.append(gather_subtrace(trace, pair_ids))
    if processes is None or processes <= 1 or len(tasks) <= 1:
        tables = [_load_shard(task) for task in tasks]
    else:
        with multiprocessing.get_context().Pool(
                processes=min(processes, len(tasks))) as pool:
            tables = pool.map(_load_shard, tasks)
    return merge_metric_tables(tables)


def run_shard_replays(trace: ColumnarTrace, lengths: np.ndarray,
                      duration: float, shard_ids: Sequence[np.ndarray],
                      processes: Optional[int] = None
                      ) -> List[Tuple[int, int, List[float]]]:
    """Per-shard replay tables for one lease column (see
    :func:`run_shard_sweeps` for the serial/pool contract)."""
    tasks = []
    for pair_ids in shard_ids:
        times, starts, sorted_mask = gather_subtrace(trace, pair_ids)
        tasks.append((times, starts, sorted_mask, lengths[pair_ids],
                      duration))
    if processes is None or processes <= 1 or len(tasks) <= 1:
        return [_replay_shard(task) for task in tasks]
    with multiprocessing.get_context().Pool(
            processes=min(processes, len(tasks))) as pool:
        return pool.map(_replay_shard, tasks)
