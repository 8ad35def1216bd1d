"""Session facade integration with the persistent store."""

import pytest

from repro.api import ExecutionOptions, Session, Store, StoreQuery

SERIAL = ExecutionOptions(workers=1)


class TestSessionStore:
    def test_store_accepts_path(self, tmp_path):
        session = Session(scale=1500, seed=5, options=SERIAL,
                          store=tmp_path / "obs")
        assert isinstance(session.store, Store)
        assert (tmp_path / "obs").is_dir()

    def test_store_accepts_store_object(self, tmp_path):
        store = Store(root=tmp_path / "obs")
        session = Session(scale=1500, seed=5, options=SERIAL, store=store)
        assert session.store is store

    def test_run_campaign_auto_ingests(self, tmp_path):
        session = Session(scale=1500, seed=5, options=SERIAL,
                          store=tmp_path / "obs")
        result = session.run_campaign()
        assert session.store is not None
        assert session.store.rounds() == [1]
        for label, scan in result.scans.items():
            rebuilt = session.store.scan_result(1, label)
            assert rebuilt.observations == scan.observations

    def test_repeat_rounds_accumulate(self, tmp_path):
        session = Session(scale=1500, seed=5, options=SERIAL,
                          store=tmp_path / "obs")
        session.run_campaign()
        session.run_campaign()
        session.run_campaign(round_id=9)
        assert session.store.rounds() == [1, 2, 9]

    def test_scan_stage_ingests_when_store_present(self, tmp_path):
        session = Session(scale=1500, seed=5, options=SERIAL,
                          store=tmp_path / "obs")
        session.scan()
        assert session.store.rounds() == [1]
        # The cached campaign is not re-ingested by later stage calls.
        session.scan()
        assert session.store.rounds() == [1]

    def test_store_query_helper(self, tmp_path):
        session = Session(scale=1500, seed=5, options=SERIAL,
                          store=tmp_path / "obs")
        session.run_campaign()
        query = session.store_query()
        assert isinstance(query, StoreQuery)
        assert query.device_count > 0

    def test_store_query_without_store_raises(self):
        session = Session(scale=1500, seed=5, options=SERIAL)
        with pytest.raises(ValueError, match="store"):
            session.store_query()

    def test_no_store_still_works(self):
        session = Session(scale=1500, seed=5, options=SERIAL)
        assert session.store is None
        assert session.run_campaign().scans

    def test_store_kwarg_is_keyword_only(self, tmp_path):
        with pytest.raises(TypeError):
            Session(1500, 5, tmp_path / "obs")
