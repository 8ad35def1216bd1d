"""Tests for the stable repro.api Session facade."""

import pytest

from repro.api import ExecutionOptions, Session
from repro.scanner.metrics import ExecutorMetrics


@pytest.fixture(scope="module")
def session():
    return Session(scale=1000, seed=21, options=ExecutionOptions(workers=1))


class TestChaining:
    def test_stage_methods_chain_and_cache(self, session):
        assert session.scan() is session
        campaign = session.campaign
        assert session.scan().filter().aliases() is session
        # Rerunning a stage must not recompute.
        assert session.campaign is campaign

    def test_accessors_run_prerequisites_lazily(self):
        lazy = Session(scale=1000, seed=21, options=ExecutionOptions(workers=1))
        assert lazy._campaign is None
        records = lazy.valid_v4
        assert records
        assert lazy._campaign is not None

    def test_topology_built_once(self, session):
        assert session.topology is session.topology


class TestResults:
    def test_campaign_has_all_four_scans(self, session):
        assert set(session.campaign.scans) == {"v4-1", "v4-2", "v6-1", "v6-2"}

    def test_filtering_matches_direct_pipeline(self, session):
        from repro.pipeline.filters import FilterPipeline

        direct = FilterPipeline().run(*session.campaign.scan_pair(4))
        assert session.valid_v4 == direct.valid
        assert session.pipeline(4).stats == direct.stats

    def test_alias_sets_cover_valid_addresses(self, session):
        addresses = {a for g in session.alias_sets.sets for a in g}
        assert {r.address for r in session.valid_v4} <= addresses

    def test_vendor_census_counts_every_device(self, session):
        census = session.vendor_census()
        assert sum(count for __, count in census) == session.alias_sets.count
        # Largest first.
        counts = [count for __, count in census]
        assert counts == sorted(counts, reverse=True)

    def test_executor_metrics_exposed(self, session):
        assert set(session.metrics) == set(session.campaign.scans)
        for metrics in session.metrics.values():
            assert metrics.probes_sent > 0


class TestEngines:
    def test_workers_do_not_change_results(self, session):
        parallel = Session(scale=1000, seed=21, options=ExecutionOptions(workers=4))
        assert parallel.campaign.scans["v4-1"].observations == \
            session.campaign.scans["v4-1"].observations
        assert parallel.valid_v4 == session.valid_v4

    def test_default_session_reports_executor_metrics(self):
        default = Session(scale=1000, seed=21)
        assert set(default.metrics) == {"v6-1", "v6-2", "v4-1", "v4-2"}
        assert all(
            isinstance(m, ExecutorMetrics) and m.probes_sent > 0
            for m in default.metrics.values()
        )

    def test_stream_scans_yields_all_four(self):
        streaming = Session(scale=1000, seed=21)
        seen = []
        for stream in streaming.stream_scans():
            count = sum(len(batch) for batch in stream.batches())
            seen.append((stream.label, count))
        assert [label for label, __ in seen] == ["v6-1", "v6-2", "v4-1", "v4-2"]
        assert all(count > 0 for __, count in seen)


class TestTopLevelExports:
    def test_blessed_names_importable_from_repro(self):
        import repro

        for name in (
            "Session", "ScanObservation", "ScanResult", "CampaignResult",
            "ScanStream", "ValidRecord", "MergedObservation", "PipelineResult",
            "ShardedScanExecutor", "ExecutorConfig", "ExecutorMetrics",
            "FilterStats",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)
