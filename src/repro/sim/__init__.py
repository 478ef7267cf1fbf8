"""Evaluation harnesses: trace-driven lease simulation and the testbed."""

from .driver import (
    Figure5Curves,
    TraceSimConfig,
    default_max_lease_of,
    dynamic_lease_fn,
    figure5_curves,
    fixed_lease_fn,
    logspace,
    no_lease_fn,
    simulate_lease_trace,
    train_pair_rates,
)
from .columnar import (
    ColumnarTrace,
    GAP_BUCKETS,
    columnar_dynamic_sweep,
    columnar_lease_replay,
    columnar_polling,
    columnar_scan,
    load_metric_table,
    scan_metric_table,
    flash_crowd_columnar,
)
from ..exactsum import ExactSum
from .fastreplay import (
    PairIndex,
    fast_dynamic_sweep,
    fast_lease_replay,
    fast_polling,
)
from .shard import (
    ShardSweep,
    gather_subtrace,
    merge_metric_tables,
    merge_shard_sweeps,
    metric_table_registry,
    shard_of_name,
    shard_pair_ids,
    sharded_figure5_sweep,
    sharded_lease_replay,
    sharded_load_metrics,
    sharded_scan_metrics,
)
from .metrics import (
    ConsistencyReport,
    LeaseSimResult,
    StalenessSample,
    interpolate_at_query_rate,
    interpolate_at_storage,
)
from .scenario import ProtocolScenario, ScenarioConfig
from .testbed import Testbed, TestbedConfig, run_figure7_scenario
from .livetestbed import LiveTestbed, make_live_testbed

__all__ = [
    "simulate_lease_trace", "figure5_curves", "Figure5Curves",
    "fixed_lease_fn", "dynamic_lease_fn", "no_lease_fn",
    "train_pair_rates", "default_max_lease_of", "logspace",
    "TraceSimConfig",
    "PairIndex", "ExactSum", "fast_lease_replay", "fast_dynamic_sweep",
    "fast_polling",
    "ColumnarTrace", "columnar_scan", "columnar_lease_replay",
    "columnar_dynamic_sweep", "columnar_polling", "flash_crowd_columnar",
    "scan_metric_table", "load_metric_table", "GAP_BUCKETS",
    "ShardSweep", "shard_of_name", "shard_pair_ids", "gather_subtrace",
    "merge_shard_sweeps", "sharded_figure5_sweep", "sharded_lease_replay",
    "metric_table_registry", "merge_metric_tables", "sharded_scan_metrics",
    "sharded_load_metrics",
    "LeaseSimResult", "ConsistencyReport", "StalenessSample",
    "interpolate_at_storage", "interpolate_at_query_rate",
    "ProtocolScenario", "ScenarioConfig",
    "Testbed", "TestbedConfig", "run_figure7_scenario",
    "LiveTestbed", "make_live_testbed",
]
