"""Performance — the persistent store: ingest rate, query latency, size.

Runs a multi-round campaign into a fresh store and records the numbers
in ``BENCH_store.json`` at the repo root:

* ingest throughput (observations per second, batch path);
* point-query latency: ``history`` over a seeded sample of stored and
  absent addresses, served by scanning each candidate block's raw
  packed address column and decoding only the matching row, measured
  before and after compaction;
* a point-lookup floor: the same sample through a test-side oracle that
  decodes every block whose footer range covers the key (the lookup the
  store used to run), timed in the same run — ``history`` must return
  identical answers and be at least 60x faster.  The ratio does not
  depend on the machine, so the quick configuration holds it too;
* timeline-query latency (full summary over every folded round);
* storage density: segment bytes per observation versus the JSONL
  export of the same rounds, asserting the >= 3x reduction the
  columnar format is there to provide.

``STORE_BENCH_QUICK=1`` restricts the sweep to a 1/1000-scale topology
and two rounds (the CI configuration); the full run uses 1/300 scale
and three rounds.
"""

import ipaddress
import json
import os
import random
import time
from pathlib import Path

from repro.io.exports import export_scan_jsonl
from repro.scanner.campaign import ScanCampaign
from repro.store import SegmentReader, Store, StoredObservation, StoreQuery
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_store.json"
SEED = 2021

QUICK = os.environ.get("STORE_BENCH_QUICK") == "1"
DIVISOR = 1000.0 if QUICK else 300.0
ROUNDS = 2 if QUICK else 3
QUERY_REPEATS = 25
#: Point lookups per sample: half stored addresses, half absent ones.
LOOKUPS = 40
#: history must beat the decode-every-candidate-block oracle by this much.
MIN_LOOKUP_SPEEDUP = 60.0


def _timed(fn, repeats=1):
    started = time.perf_counter()
    for __ in range(repeats):
        result = fn()
    return result, (time.perf_counter() - started) / repeats


def _lookup_sample(store):
    rng = random.Random(SEED)
    stored = sorted({o.observation.address for o in store.observations()}, key=int)
    present = rng.sample(stored, LOOKUPS // 2)
    absent = []
    while len(absent) < LOOKUPS - len(present):
        address = ipaddress.IPv4Address(rng.getrandbits(32))
        if address not in stored:
            absent.append(address)
    return present + absent


def _catalogue(store):
    """(round, label, segment readers) in the order ``history`` walks."""
    return [
        (rid, label, [SegmentReader(p) for p in store.segment_paths(rid, label)])
        for rid in store.rounds()
        for label in store.labels(rid)
    ]


def _decode_all_history(catalogue, address):
    """Oracle: ``Store.history`` as a lookup that decodes every block
    whose footer range covers the key and compares row objects."""
    sightings = []
    for rid, label, readers in catalogue:
        for reader in readers:
            found = next(
                (
                    obs
                    for block in reader.blocks
                    if block.may_contain(address)
                    for obs in reader.read_block(block)
                    if obs.address == address
                ),
                None,
            )
            if found is not None:
                sightings.append(
                    StoredObservation(round_id=rid, label=label, observation=found)
                )
                break
    return sightings


def test_bench_store(tmp_path):
    cfg = TopologyConfig.paper_scale(divisor=DIVISOR, seed=SEED)
    topo = build_topology(cfg)
    store = Store(root=tmp_path / "obs")

    # -- ingest ------------------------------------------------------------
    rows = 0
    ingest_seconds = 0.0
    results = []
    for __ in range(ROUNDS):
        # One campaign object per round against the same topology: agent
        # reboot/churn state persists, so rounds genuinely differ.
        result = ScanCampaign(topology=topo, config=cfg).run()
        results.append(result)
        started = time.perf_counter()
        stats = store.ingest_campaign(result)
        ingest_seconds += time.perf_counter() - started
        rows += sum(s.rows for s in stats)
    assert rows > 0

    # -- storage density vs JSONL ------------------------------------------
    jsonl_bytes = 0
    for index, result in enumerate(results):
        for label, scan in result.scans.items():
            path = tmp_path / f"r{index}-{label}.jsonl"
            export_scan_jsonl(scan, path)
            jsonl_bytes += path.stat().st_size
    segment_bytes = store.stats()["segment_bytes"]
    assert segment_bytes * 3 <= jsonl_bytes, (
        f"segment format not >=3x smaller than JSONL: "
        f"{segment_bytes} vs {jsonl_bytes} bytes"
    )

    # -- query latency, before and after compaction ------------------------
    sample = _lookup_sample(store)
    query = StoreQuery(store=store)

    def lookups():
        return [query.history(address) for address in sample]

    history, t_point = _timed(lookups)
    assert any(history)
    catalogue = _catalogue(store)
    oracle, t_oracle = _timed(lambda: [_decode_all_history(catalogue, a) for a in sample])
    assert history == oracle
    speedup = t_oracle / t_point
    assert speedup >= MIN_LOOKUP_SPEEDUP, (
        f"history only {speedup:.1f}x faster than decoding every candidate "
        f"block ({t_point / LOOKUPS * 1e3:.2f} vs {t_oracle / LOOKUPS * 1e3:.2f} ms)"
    )
    summary, t_timeline = _timed(query.timeline_summary, QUERY_REPEATS)
    assert summary["rounds"] == list(range(1, ROUNDS + 1))

    __, t_compact = _timed(store.compact)
    history_after, t_point_after = _timed(lookups)
    assert history_after == history
    __, t_timeline_after = _timed(query.timeline_summary, QUERY_REPEATS)

    payload = {
        "benchmark": "store-ingest-query-density",
        "seed": SEED,
        "quick": QUICK,
        "cpu_count": os.cpu_count() or 1,
        "scale_divisor": DIVISOR,
        "rounds": ROUNDS,
        "observations": rows,
        "ingest_seconds": round(ingest_seconds, 3),
        "ingest_observations_per_second": round(rows / ingest_seconds),
        "point_queries": LOOKUPS,
        "point_query_seconds": round(t_point / LOOKUPS, 6),
        "point_query_seconds_after_compact": round(t_point_after / LOOKUPS, 6),
        "point_query_decode_all_seconds": round(t_oracle / LOOKUPS, 6),
        "point_query_speedup": round(speedup, 1),
        "timeline_query_seconds": round(t_timeline, 6),
        "timeline_query_seconds_after_compact": round(t_timeline_after, 6),
        "compact_seconds": round(t_compact, 3),
        "segment_bytes": segment_bytes,
        "jsonl_bytes": jsonl_bytes,
        "segment_bytes_per_observation": round(segment_bytes / rows, 1),
        "jsonl_bytes_per_observation": round(jsonl_bytes / rows, 1),
        "density_vs_jsonl": round(jsonl_bytes / segment_bytes, 2),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nstore bench 1/{DIVISOR:g} x{ROUNDS} rounds: {rows} rows | "
          f"ingest {rows / ingest_seconds:.0f} rows/s | "
          f"point {t_point / LOOKUPS * 1e6:.0f}us ({speedup:.1f}x), timeline {t_timeline * 1e3:.1f}ms | "
          f"{segment_bytes / rows:.0f} B/row vs JSONL "
          f"{jsonl_bytes / rows:.0f} B/row ({jsonl_bytes / segment_bytes:.1f}x)")
