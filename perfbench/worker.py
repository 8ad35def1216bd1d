"""One unit of a workload, run in a fresh process.

``run.py`` starts this script once per repetition so that each unit
starts cold and its peak RSS is its own.  The script drives the program
only through its public entry points, runs the workload's output checks
and prints one JSON object as the last line of its standard output.

    python3 perfbench/worker.py <unit> '<json parameters>'

Units: ``report`` (paper-report), ``observatory``, ``build-store`` and
``serve-traced`` (query-history).
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import threading
import time
from pathlib import Path

import checks
import loadgen
from layers import install, layer_metrics
from tracing import Tracer

#: The ``repro schedule`` job shape: a daily sweep, and a churn re-probe
#: every 6 h starting 12 h in.  Jitter is the CLI default.
SWEEP_PERIOD = 86_400.0
REPROBE_PERIOD = 21_600.0
JITTER = 60.0

#: Endpoints the observatory's reader cycles through; all are cached.
READER_MIX = (
    "rounds",
    "device-count",
    "vendor-census",
    "timeline-summary",
    "reboot-events",
    "integrity",
    "stats",
)


def _jobs() -> tuple:
    from repro.service.scheduler import JobSpec

    return (
        JobSpec(name="sweep", kind="sweep", period=SWEEP_PERIOD, jitter=JITTER),
        JobSpec(name="reprobe", kind="reprobe", period=REPROBE_PERIOD,
                offset=SWEEP_PERIOD / 2.0, jitter=JITTER),
    )


def _tracer(params: dict) -> "Tracer | None":
    if not params["trace"]:
        return None
    tracer = Tracer()
    install(tracer)
    return tracer


def _finish_trace(tracer: Tracer, params: dict, start: float, end: float,
                  extra: dict) -> dict:
    tracer.dump(Path(params["trace_out"]))
    extra = dict(extra, unattributed_s=tracer.unattributed(start, end))
    return layer_metrics(tracer, extra)


# -- paper-report ----------------------------------------------------------


def funnel(pipeline: object) -> dict:
    """The Table 1 funnel of one family, as :func:`checks.check_funnel`
    takes it: the pipeline's ``FilterStats`` plus its valid records."""
    stats = pipeline.stats  # type: ignore[attr-defined]
    return {
        "input_first": stats.input_first,
        "input_second": stats.input_second,
        "removed": dict(stats.removed),
        "valid_engine_id_count": stats.valid_engine_id_count,
        "valid_count": stats.valid_count,
        "valid_records": len(pipeline.valid),  # type: ignore[attr-defined]
    }


def report(params: dict) -> dict:
    """``repro report``: build, campaign, filter, alias, fingerprint and
    every table and figure, comparators on."""
    from repro.experiments import ExperimentContext
    from repro.experiments import report as report_module
    from repro.topology.config import TopologyConfig

    ready = time.monotonic()
    tracer = _tracer(params)
    config = TopologyConfig.paper_scale(divisor=params["scale"], seed=params["seed"])
    start = time.perf_counter()
    ctx = ExperimentContext.create(config)
    text = report_module.render_full_report(ctx, include_comparators=True)
    end = time.perf_counter()

    results = {"sections": checks.check_report_sections(text)}
    for family, pipeline in (("IPv4", ctx.pipeline_v4), ("IPv6", ctx.pipeline_v6)):
        results[f"funnel {family}"] = checks.check_funnel(family, funnel(pipeline))
    for label, sets, records in (
        ("IPv4 alias sets", ctx.alias_v4, ctx.valid_v4),
        ("IPv6 alias sets", ctx.alias_v6, ctx.valid_v6),
        ("dual-stack alias sets", ctx.alias_dual, ctx.valid_v4 + ctx.valid_v6),
    ):
        results[label] = checks.check_partition(
            label,
            [[str(a) for a in group] for group in sets.sets],
            [str(r.address) for r in records],
        )
    out = {
        "setup_s": ready - params["t0"],
        "report_s": end - start,
        "sha256": checks.sha256_text(text),
        "checks": results,
    }
    if tracer is not None:
        out["layers"] = _finish_trace(tracer, params, start, end, {
            "topology.devices": len(ctx.topology.devices),
            "alias.sets": ctx.alias_dual.count,
        })
    return out


# -- observatory -----------------------------------------------------------


def observatory(params: dict) -> dict:
    """A scheduler loop over a lazy world and a store, with one open-loop
    reader thread querying the store while it is written."""
    from repro.api import Session, TopologyOptions
    from repro.clock import ManualClock
    from repro.service.query import QueryService

    store = Path(params["dir"])
    session = Session(scale=params["scale"], seed=params["seed"], store=store,
                      topology=TopologyOptions(lazy=True))
    world = session.topology
    scheduler = session.scheduler(jobs=_jobs(), clock=ManualClock(0.0))
    service = QueryService(store=store)
    ready = time.monotonic()
    tracer = _tracer(params)

    stop = threading.Event()
    samples: list = []
    reader = threading.Thread(
        target=loadgen.open_loop,
        args=(service.request, READER_MIX, params["rate"], stop, samples),
        daemon=True,
    )
    firings = []
    start = time.perf_counter()
    reader.start()
    try:
        for _ in range(params["firings"]):
            began = time.perf_counter()
            (run,) = scheduler.run(max_runs=1)
            firings.append((run, time.perf_counter() - began))
    finally:
        end = time.perf_counter()
        stop.set()
        reader.join(timeout=120)
    if reader.is_alive():
        raise RuntimeError("the reader thread did not stop")

    errors = [f"{endpoint}: {outcome!r}" for endpoint, _, _, outcome in samples
              if isinstance(outcome, Exception)]
    answered = [(endpoint, outcome) for endpoint, _, _, outcome in samples
                if not isinstance(outcome, Exception)]
    results = {
        "integrity": checks.check_integrity(
            [o.value for e, o in answered if e == "integrity"]),
        "generations": checks.check_monotone(
            "reader", [o.generation for _, o in answered]),
        "rounds": checks.check_rounds(service.request("rounds").value, params["firings"]),
    }
    sweeps = [wall for run, wall in firings if run.kind == "sweep"]
    reprobes = [wall for run, wall in firings if run.kind == "reprobe"]
    out = {
        "setup_s": ready - params["t0"],
        "loop_s": end - start,
        "sweep_s": sweeps,
        "reprobe_s": reprobes,
        "fingerprints": [run.fingerprint for run, _ in firings],
        "lag_ms": [lag * 1e3 for _, lag, _, _ in samples],
        "latency_ms": [latency * 1e3 for _, _, latency, _ in samples],
        "request_errors": errors,
        "checks": results,
    }
    if tracer is not None:
        summary = service.metrics_summary()
        runs = [run for run, _ in firings]
        out["layers"] = _finish_trace(tracer, params, start, end, {
            "topology.devices": len(world.devices),
            "topology.lazy.derivations": world.derivations,
            "topology.lazy.membership_derivations": world.membership_derivations,
            "topology.lazy.peak_resident": world.peak_resident,
            "service.scheduler.firings": len(runs),
            "service.scheduler.skipped_firings": sum(r.skipped_firings for r in runs),
            "service.scheduler.reprobe_targets": sum(
                r.targets for r in runs if r.kind == "reprobe"),
            "service.scheduler.sweep_s": statistics.median(sweeps),
            "service.scheduler.reprobe_s": statistics.median(reprobes),
            "service.query.cache_hit_ratio": summary["hit_ratio"],
            "service.query.shed": summary["shed"],
            "service.query.reader_p50_ms": statistics.median(out["latency_ms"]),
            "service.query.reader_p95_ms": loadgen.percentile(out["latency_ms"], 0.95),
        })
    return out


# -- query-history ---------------------------------------------------------


def _serialize(stored: object) -> dict:
    """The JSON form ``/v1/history`` answers with, one row per sighting."""
    obs = stored.observation  # type: ignore[attr-defined]
    engine = obs.engine_id
    return {
        "round": stored.round_id,  # type: ignore[attr-defined]
        "label": stored.label,  # type: ignore[attr-defined]
        "address": str(obs.address),
        "recv_time": obs.recv_time,
        "engine_id": engine.raw.hex() if engine is not None else None,
        "engine_boots": obs.engine_boots,
        "engine_time": obs.engine_time,
        "response_count": obs.response_count,
    }


def build_store(params: dict) -> dict:
    """Build a multi-round store (sweeps + re-probes, then compaction)
    and the reference answers for the addresses the client will ask.

    ``setup_s`` ends when the store is compacted: the reference answers
    are the benchmark's own work, not the program's."""
    import ipaddress

    from repro.api import Session, TopologyOptions
    from repro.clock import ManualClock

    session = Session(scale=params["scale"], seed=params["seed"], store=params["dir"],
                      topology=TopologyOptions(lazy=True))
    scheduler = session.scheduler(jobs=_jobs(), clock=ManualClock(0.0))
    scheduler.run(max_runs=params["firings"])
    store = session.store
    store.compact()
    ready = time.monotonic()

    # Reference answers from one full scan of the store: every sighting
    # of an address in catalogue order, which is what history returns.
    reference: dict[str, list] = {}
    for stored in store.observations():
        reference.setdefault(str(stored.observation.address), []).append(_serialize(stored))
    responsive = sorted(reference)
    silent = sorted(str(a) for a in session.topology.plan.iter_v4_targets()
                    if str(a) not in reference)
    rng = random.Random(params["seed"])
    half = min(params["addresses"] // 2, len(responsive), len(silent))
    chosen = rng.sample(responsive, half) + rng.sample(silent, half)
    rng.shuffle(chosen)
    failures = []
    for address in chosen[: params["history_checks"]]:
        direct = [_serialize(s) for s in store.history(ipaddress.ip_address(address))]
        failures += checks.check_history(address, 200, direct, reference.get(address, []))
    expected = {address: reference.get(address, []) for address in chosen}
    Path(params["expected"]).write_text(
        json.dumps({"addresses": chosen, "expected": expected}), encoding="utf-8")
    return {
        "setup_s": ready - params["t0"],
        "rows": store.stats()["rows"],
        "segments": store.stats()["segments"],
        "checks": {"history reference": failures},
    }


def serve_traced(params: dict) -> dict:
    """query-history with ``ServiceHttpServer`` in this process: batches
    untraced, then the same number traced."""
    from repro.service.http import ServiceHttpServer
    from repro.service.query import QueryService

    data = json.loads(Path(params["expected"]).read_text(encoding="utf-8"))
    addresses, expected = data["addresses"], data["expected"]
    batches = loadgen.batches(addresses, params["batch"])
    count = params["batches"]
    if count < 1 or len(batches) < 2 * count:
        raise ValueError(f"need {2 * count} batches of distinct addresses, have {len(batches)}")
    service = QueryService(store=params["dir"])
    walls: dict[str, list[float]] = {"plain": [], "traced": []}
    failures: list[str] = []
    requests = 0
    with ServiceHttpServer(service=service) as server:
        server.start()
        host, port = server.address
        tracer = None
        request_seconds: dict = {}
        overheads = []
        for index, batch in enumerate(batches[: 2 * count]):
            if index == count:
                tracer = Tracer()
                request_seconds = install(tracer)
                start = time.perf_counter()
            wall, answers = loadgen.closed_loop(host, port, batch, params["connections"])
            walls["traced" if tracer else "plain"].append(wall)
            failures += [problem for answer in answers
                         for problem in checks.check_answer(answer, expected)]
            requests += len(answers)
            if tracer is not None:
                overheads += [latency - request_seconds[address]
                              for address, status, _, latency in answers
                              if address in request_seconds]
        end = time.perf_counter()
    summary = service.metrics_summary()
    return {
        "requests": requests,
        "checks": {"history answers": failures},
        "layers": _finish_trace(tracer, params, start, end, {
            "trace.overhead_ratio": statistics.median(walls["traced"])
            / statistics.median(walls["plain"]),
            "service.query.cache_hit_ratio": summary["hit_ratio"],
            "service.query.shed": summary["shed"],
            "service.http.overhead_ms": statistics.median(overheads) * 1e3,
        }),
    }


UNITS = {
    "report": report,
    "observatory": observatory,
    "build-store": build_store,
    "serve-traced": serve_traced,
}


if __name__ == "__main__":
    unit, raw = sys.argv[1], sys.argv[2]
    print(json.dumps(UNITS[unit](json.loads(raw))))
