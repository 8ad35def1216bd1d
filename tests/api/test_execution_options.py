"""The consolidated :class:`ExecutionOptions` surface on the facade.

One blessed object carries every execution knob; the flat keyword
aliases that predated it are gone.  These tests pin the contract:
options construction is silent, flat execution kwargs are rejected,
per-round overrides work, and every campaign — whatever its options —
runs the one engine and reports its metrics.
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.api import ExecutionOptions, Session
from repro.scanner import ExecutionOptions as scanner_reexport
from repro.scanner.campaign import SCAN_LABELS, ScanCampaign
from repro.scanner.executor import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_NUM_SHARDS,
    DEFAULT_WINDOW,
)
from repro.scanner.metrics import ExecutorMetrics
from repro.topology.config import TopologyConfig
from repro.topology.generator import TopologyGenerator

SCALE = 4000.0

#: The pre-ExecutionOptions flat aliases, retired from the facade.
RETIRED_FLAT_KWARGS = (
    "workers", "num_shards", "batch_size", "loss_probability",
    "fault_profile", "retry", "profile",
)


def test_options_object_is_the_facade_export():
    assert repro.ExecutionOptions is ExecutionOptions
    assert scanner_reexport is ExecutionOptions


def test_session_accepts_options_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        session = Session(
            scale=SCALE, options=ExecutionOptions(workers=1, batch_size=8)
        )
    assert session.options.workers == 1
    assert session.options.batch_size == 8


def test_mixing_options_and_flat_kwargs_is_an_error():
    with pytest.raises(TypeError, match="workers"):
        Session(scale=SCALE, options=ExecutionOptions(workers=1), workers=2)
    for name in RETIRED_FLAT_KWARGS:
        with pytest.raises(TypeError, match=name):
            Session(scale=SCALE, **{name: None})


def test_campaign_rejects_mixed_styles_too():
    topology = TopologyGenerator(
        config=TopologyConfig(seed=9, scale_divisor=SCALE)
    ).build()
    with pytest.raises(TypeError, match="workers"):
        ScanCampaign(
            topology=topology, options=ExecutionOptions(workers=1), workers=2
        )
    for name in RETIRED_FLAT_KWARGS:
        with pytest.raises(TypeError, match=name):
            ScanCampaign(topology=topology, **{name: None})


def test_executor_config_fills_documented_defaults():
    config = ExecutionOptions(workers=2).executor_config(seed=123)
    assert config.workers == 2
    assert config.num_shards == DEFAULT_NUM_SHARDS
    assert config.batch_size == DEFAULT_BATCH_SIZE
    assert config.window == DEFAULT_WINDOW
    assert config.seed == 123


def test_fault_profile_alone_reports_executor_metrics():
    topology = TopologyGenerator(
        config=TopologyConfig(seed=9, scale_divisor=SCALE)
    ).build()
    campaign = ScanCampaign(
        topology=topology, options=ExecutionOptions(fault_profile="conformance")
    )
    result = campaign.run()
    assert set(result.metrics) == set(SCAN_LABELS)
    assert all(isinstance(m, ExecutorMetrics) for m in result.metrics.values())
    assert sum(m.faults_injected for m in result.metrics.values()) > 0


def test_run_campaign_accepts_a_per_round_override():
    session = Session(scale=SCALE)
    result = session.run_campaign(
        options=ExecutionOptions(workers=1, num_shards=2)
    )
    # The override's geometry ran this round; the session default is untouched.
    assert all(m.num_shards == 2 for m in result.metrics.values())
    assert session.options == ExecutionOptions()


def test_session_and_override_produce_identical_observations():
    def fingerprint(result):
        return {
            label: sorted(
                (str(o.address), o.recv_time, o.engine_boots, o.engine_time)
                for o in scan.observations.values()
            )
            for label, scan in result.scans.items()
        }

    via_session = Session(
        scale=SCALE, options=ExecutionOptions(workers=1)
    ).run_campaign()
    via_override = Session(scale=SCALE).run_campaign(
        options=ExecutionOptions(workers=1)
    )
    assert fingerprint(via_session) == fingerprint(via_override)
