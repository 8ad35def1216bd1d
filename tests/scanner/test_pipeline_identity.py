"""Per-probe-vs-batch byte identity for the staged scan pipeline.

Batching may never change a single output bit: every observation
(address, recv time, engine triplet, reply count, wire bytes), every scan
aggregate and every shard counter must match the per-probe reference
loop in :mod:`tests.scanner.oracle` — at every worker count, under every
fault profile, across the generated topology's adversarial
personalities, with and without retry policies, at every window
geometry.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import ExecutionOptions, RetryPolicy
from repro.topology.config import TopologyConfig
from repro.topology.generator import TopologyGenerator
from tests.scanner.oracle import per_probe_loop

#: Small but adversarial-rich world: chaos-profile sweeps still hit
#: garbage/malformed/amplifying/rebooting agents and load balancers.
DIVISOR = 4000.0

COUNTER_FIELDS = (
    "targets", "probes_sent", "replies", "observations",
    "dropped_loss", "dropped_reply_loss", "dropped_no_endpoint",
    "dropped_rate_limited", "retries", "timed_out", "unparsed",
    "breaker_tripped", "duplicated", "reordered", "truncated",
    "corrupted", "probe_bytes", "reply_bytes",
)


def run_campaign(pipeline: bool, *, window=None, workers=None,
                 fault_profile=None, retry=None, num_shards=4, batch_size=16):
    topology = TopologyGenerator(
        config=TopologyConfig(seed=1177, scale_divisor=DIVISOR)
    ).build()
    campaign = ScanCampaign(
        topology=topology,
        options=ExecutionOptions(
            workers=workers,
            num_shards=num_shards,
            batch_size=batch_size,
            window=window,
            fault_profile=fault_profile,
            retry=retry,
        ),
    )
    with nullcontext() if pipeline else per_probe_loop():
        result = campaign.run()
    fingerprint = []
    for label in sorted(result.scans):
        scan = result.scans[label]
        for observation in scan.observations.values():
            fingerprint.append((
                label,
                str(observation.address),
                observation.recv_time,
                None if observation.engine_id is None else observation.engine_id.raw,
                observation.engine_boots,
                observation.engine_time,
                observation.response_count,
                observation.wire_bytes,
            ))
        fingerprint.append((
            label, scan.targets_probed, scan.probe_bytes_sent,
            scan.reply_bytes_received, tuple(sorted(
                (str(a), n) for a, n in scan.multi_responders.items()
            )),
        ))
    counters = {
        label: [
            tuple(getattr(shard, f) for f in COUNTER_FIELDS)
            for shard in sorted(metrics.shards, key=lambda s: s.shard_index)
        ]
        for label, metrics in result.metrics.items()
    }
    return fingerprint, counters


def assert_identical(**case):
    batch_fp, batch_counters = run_campaign(True, **case)
    oracle_fp, oracle_counters = run_campaign(False, **case)
    assert batch_fp == oracle_fp
    assert batch_counters == oracle_counters


@pytest.mark.parametrize(
    "fault_profile", [None, "conformance", "rate-limited", "chaos"]
)
def test_identity_across_fault_profiles(fault_profile):
    assert_identical(fault_profile=fault_profile)


def test_identity_with_two_workers_under_chaos():
    assert_identical(fault_profile="chaos", workers=2)


def test_identity_with_retries():
    assert_identical(retry=RetryPolicy(max_retries=2, timeout=1.0))


def test_identity_with_retries_and_breaker_under_chaos():
    """Chaos loss rates trip the circuit breaker mid-shard; the per-target
    retry path must account streaks and trips exactly like the per-probe loop."""
    retry = RetryPolicy(max_retries=2, timeout=0.5, breaker_threshold=2)
    batch_fp, batch_counters = run_campaign(
        True, fault_profile="chaos", retry=retry
    )
    oracle_fp, oracle_counters = run_campaign(
        False, fault_profile="chaos", retry=retry
    )
    assert batch_fp == oracle_fp
    assert batch_counters == oracle_counters
    tripped = sum(
        shard[COUNTER_FIELDS.index("breaker_tripped")]
        for shards in batch_counters.values()
        for shard in shards
    )
    assert tripped > 0  # the scenario genuinely exercised the breaker


@pytest.mark.parametrize("window", [1, 7, 100_000])
def test_identity_is_window_invariant(window):
    """window=1 degenerates to per-probe staging; 100k exceeds every
    shard (one mega-batch); 7 leaves ragged final windows."""
    assert_identical(fault_profile="chaos", window=window)


def test_identity_with_batch_size_one():
    """batch_size=1 streams observations one per IPC batch."""
    assert_identical(fault_profile="chaos", batch_size=1)
