"""Performance — the scan engine at one and at four worker processes.

Runs the full four-scan campaign serially and on four workers over
identical topologies, verifies the engine's worker-count determinism
contract (1-worker and 4-worker runs byte-identical), and records both
wall times in ``BENCH_executor.json`` at the repo root.

``EXECUTOR_BENCH_QUICK=1`` restricts the sweep to the 1/300-scale
topology (the CI configuration); the full run adds 1/100 scale.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.scanner.campaign import SCAN_LABELS, ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_executor.json"
SEED = 2021

QUICK = os.environ.get("EXECUTOR_BENCH_QUICK") == "1"
DIVISORS = (300.0,) if QUICK else (300.0, 100.0)

_results: dict = {}


def _run_campaign(divisor: float, workers: int):
    """Fresh topology + campaign; returns (result, scan wall time)."""
    cfg = TopologyConfig.paper_scale(divisor=divisor, seed=SEED)
    topo = build_topology(cfg)
    campaign = ScanCampaign(
        topology=topo, config=cfg, options=ExecutionOptions(workers=workers)
    )
    started = time.perf_counter()
    result = campaign.run()
    return result, time.perf_counter() - started


def _scan_fingerprint(scan):
    return (
        scan.observations,
        scan.multi_responders,
        scan.targets_probed,
        scan.probe_bytes_sent,
        scan.reply_bytes_received,
    )


@pytest.mark.parametrize("divisor", DIVISORS)
def test_bench_executor_worker_identity(divisor):
    serial, t_serial = _run_campaign(divisor, workers=1)
    sharded, t_sharded = _run_campaign(divisor, workers=4)

    # Determinism contract: worker count never changes results.
    for label in SCAN_LABELS:
        assert _scan_fingerprint(serial.scans[label]) == \
            _scan_fingerprint(sharded.scans[label]), label

    probes = sum(s.targets_probed for s in serial.scans.values())
    key = f"divisor_{divisor:g}"
    cores = os.cpu_count() or 1
    _results[key] = {
        "targets_probed": probes,
        "responsive_v4_1": serial.scans["v4-1"].responsive_count,
        "executor_serial_seconds": round(t_serial, 3),
        "executor_workers4_seconds": round(t_sharded, 3),
        "probes_per_second_serial": round(probes / t_serial),
        "workers4_deterministic": True,
        # Honesty flag: a 4-worker wall time measured on fewer than 4
        # cores says nothing about parallel speedup — workers time-slice.
        "workers4_underprovisioned": cores < 4,
    }
    print(f"\n1/{divisor:g} scale: {probes} probes | "
          f"executor w1 {t_serial:.2f}s, executor w4 {t_sharded:.2f}s")

    payload = {
        "benchmark": "scan-engine-worker-count-identity",
        "seed": SEED,
        "quick": QUICK,
        "cpu_count": os.cpu_count(),
        "results": dict(sorted(_results.items())),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
