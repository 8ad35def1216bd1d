"""Internet-wide SNMPv3 scanning over the simulated fabric.

Mirrors the paper's §3.2 measurement setup:

* :mod:`repro.scanner.records` — the observation records a scan produces;
* :mod:`repro.scanner.zmap` — the ZMap-equivalent scan parameters: probe
  rate, source addresses and the target-permutation seed;
* :mod:`repro.scanner.executor` — the scan engine: permuted targets,
  one probe per IP, partitioned into deterministic shards that run
  inline or on a worker pool and yield bounded observation batches;
* :mod:`repro.scanner.metrics` — per-shard/per-scan execution metrics;
* :mod:`repro.scanner.campaign` — orchestration of the paper's four
  campaigns (two IPv4 scans, two IPv6 scans) including the interim events
  between paired scans (device reboots, CPE address churn).
"""

from repro.scanner.records import ScanObservation, ScanResult
from repro.scanner.zmap import ZmapConfig
from repro.scanner.executor import (
    ExecutionOptions,
    ExecutorConfig,
    RetryPolicy,
    ScanExecution,
    ShardedScanExecutor,
)
from repro.scanner.metrics import ExecutorMetrics, ShardMetrics
from repro.scanner.campaign import CampaignResult, ScanCampaign, ScanStream

__all__ = [
    "CampaignResult",
    "ExecutionOptions",
    "ExecutorConfig",
    "ExecutorMetrics",
    "RetryPolicy",
    "ScanCampaign",
    "ScanExecution",
    "ScanObservation",
    "ScanResult",
    "ScanStream",
    "ShardMetrics",
    "ShardedScanExecutor",
    "ZmapConfig",
]
