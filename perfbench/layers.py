"""Which public functions make up each layer, and the per-layer metrics.

:func:`install` wraps the layer boundaries named in ``README.md`` with
spans and counters; :func:`layer_metrics` turns one traced run into the
per-layer numbers.  Every workload reports every metric in
:data:`PER_LAYER`; a layer a workload does not run reads 0.
"""

from __future__ import annotations

import importlib
from typing import Any

from tracing import Tracer, wrap_function, wrap_method

#: Filters of the §4.4 pipeline in Table 1 order (``FilterStats.removed``).
FILTERS = (
    "missing-engine-id",
    "inconsistent-engine-id",
    "short-engine-id",
    "promiscuous-engine-id",
    "unroutable-ipv4-engine-id",
    "unregistered-mac",
    "zero-time-or-boots",
    "future-engine-time",
    "inconsistent-boots",
    "inconsistent-reboot-time",
)

#: (module, function) of every table/figure ``render_full_report`` calls.
SECTIONS = (
    ("repro.experiments.tables", "table1"),
    ("repro.experiments.tables", "table2"),
    ("repro.experiments.tables", "table3"),
    ("repro.experiments.figures_engine", "figure4"),
    ("repro.experiments.figures_engine", "figure5"),
    ("repro.experiments.figures_engine", "figure6"),
    ("repro.experiments.figures_engine", "figure7"),
    ("repro.experiments.figures_engine", "figure8"),
    ("repro.experiments.figures_engine", "figure19"),
    ("repro.experiments.figures_alias", "section51"),
    ("repro.experiments.figures_alias", "figure9"),
    ("repro.experiments.figures_alias", "section52"),
    ("repro.experiments.figures_alias", "section53"),
    ("repro.experiments.figures_alias", "section54"),
    ("repro.experiments.figures_vendor", "figure10"),
    ("repro.experiments.figures_vendor", "figure11"),
    ("repro.experiments.figures_vendor", "figure12"),
    ("repro.experiments.figures_vendor", "figure13"),
    ("repro.experiments.figures_vendor", "figure14"),
    ("repro.experiments.figures_vendor", "figure15"),
    ("repro.experiments.figures_vendor", "figure16"),
    ("repro.experiments.figures_vendor", "figure17"),
    ("repro.experiments.figures_vendor", "figure18"),
    ("repro.experiments.figures_vendor", "figure20"),
    ("repro.experiments.figures_vendor", "section62"),
    ("repro.experiments.figures_vendor", "section8"),
    ("repro.experiments.lab", "run_lab_experiment"),
)


def _section_metric(function: str) -> str:
    return "lab" if function == "run_lab_experiment" else function


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: "tuple[tuple[str, str, str], ...]" = (
    ("unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.devices", "count", "higher"),
    ("topology.lazy.derivations", "count", "lower"),
    ("topology.lazy.membership_derivations", "count", "lower"),
    ("topology.lazy.peak_resident", "count", "lower"),
    ("scanner.campaign_s", "s", "lower"),
    ("scanner.targeted_s", "s", "lower"),
    ("scanner.targets", "count", "higher"),
    ("scanner.observations", "count", "higher"),
    ("scanner.response_ratio", "ratio", "higher"),
    ("scanner.probes_per_s", "1/s", "higher"),
    ("pipeline.filter_s", "s", "lower"),
    ("pipeline.kept_ratio", "ratio", "higher"),
    ("pipeline.removed.non-overlapping", "count", "lower"),
    *((f"pipeline.removed.{name}", "count", "lower") for name in FILTERS),
    ("alias.snmpv3_s", "s", "lower"),
    ("alias.midar_s", "s", "lower"),
    ("alias.speedtrap_s", "s", "lower"),
    ("alias.router_names_s", "s", "lower"),
    ("alias.sets", "count", "higher"),
    ("fingerprint.vendor_s", "s", "lower"),
    ("fingerprint.vendor_calls", "count", "lower"),
    ("fingerprint.nmap_s", "s", "lower"),
    ("experiments.render_s", "s", "lower"),
    *((f"experiments.section.{_section_metric(fn)}_s", "s", "lower") for _, fn in SECTIONS),
    ("store.ingest_s", "s", "lower"),
    ("store.ingest_rows", "count", "higher"),
    ("store.timeline_fold_s", "s", "lower"),
    ("store.index_build_s", "s", "lower"),
    ("store.history_s", "s", "lower"),
    ("store.blocks_decoded", "count", "lower"),
    ("store.rows_decoded_per_row_returned", "ratio", "lower"),
    ("service.scheduler.self_s", "s", "lower"),
    ("service.scheduler.firings", "count", "higher"),
    ("service.scheduler.skipped_firings", "count", "lower"),
    ("service.scheduler.reprobe_targets", "count", "higher"),
    ("service.scheduler.sweep_s", "s", "lower"),
    ("service.scheduler.reprobe_s", "s", "lower"),
    ("service.query.request_s", "s", "lower"),
    ("service.query.cache_hit_ratio", "ratio", "higher"),
    ("service.query.miss_s", "s", "lower"),
    ("service.query.shed", "count", "lower"),
    ("service.query.reader_p50_ms", "ms", "lower"),
    ("service.query.reader_p95_ms", "ms", "lower"),
    ("service.http.overhead_ms", "ms", "lower"),
)


def install(tracer: Tracer) -> "dict[object, float]":
    """Wrap every layer boundary of the program with spans and counters.

    Returns a map from each ``QueryService.request`` argument to the
    seconds that call took, which the HTTP overhead is measured against.
    """
    from repro.alias.dns_names import RouterNamesResolver
    from repro.alias.midar import MidarResolver
    from repro.alias.snmpv3 import resolve_aliases, resolve_dual_stack
    from repro.alias.speedtrap import SpeedtrapResolver
    from repro.experiments.report import render_full_report
    from repro.fingerprint.nmap import NmapEngine
    from repro.fingerprint.vendor import vendor_of_alias_set
    from repro.pipeline.filters import FilterPipeline
    from repro.scanner.campaign import ScanCampaign
    from repro.service.query import QueryService
    from repro.service.scheduler import ServiceScheduler
    from repro.store.segment import SegmentReader
    from repro.store.store import Store
    from repro.topology.generator import build_topology

    request_seconds: dict[object, float] = {}

    def scans(result: Any) -> None:
        for scan in result.scans.values():
            scanned(scan)

    def scanned(scan: Any) -> None:
        tracer.count("scanner.targets", scan.targets_probed)
        tracer.count("scanner.observations", len(scan.observations))

    def filtered(result: Any) -> None:
        stats = result.stats
        tracer.count("pipeline.input", stats.valid_count + sum(stats.removed.values()))
        tracer.count("pipeline.kept", stats.valid_count)
        tracer.count("pipeline.removed.non-overlapping", stats.non_overlapping)
        for name, count in stats.removed.items():
            tracer.count(f"pipeline.removed.{name}", count)

    def served(args: tuple, kwargs: dict, response: Any, duration: float) -> None:
        if not response.cached:
            tracer.count("service.query.miss_s", duration)
        argument = args[2] if len(args) > 2 else kwargs.get("argument")
        request_seconds[argument] = duration

    def wrap(owner: Any, attr: str, name: str, on_result: Any = None) -> None:
        wrap_method(tracer, owner, attr, name, on_result)

    wrap_function(tracer, build_topology, "topology.build")
    wrap(ScanCampaign, "run", "scanner.campaign", lambda a, k, r, d: scans(r))
    wrap(ScanCampaign, "run_targeted", "scanner.targeted", lambda a, k, r, d: scanned(r))
    wrap(FilterPipeline, "run", "pipeline.filter", lambda a, k, r, d: filtered(r))
    wrap_function(tracer, resolve_aliases, "alias.snmpv3")
    wrap_function(tracer, resolve_dual_stack, "alias.snmpv3")
    wrap(MidarResolver, "resolve", "alias.midar")
    wrap(SpeedtrapResolver, "resolve", "alias.speedtrap")
    wrap(RouterNamesResolver, "resolve", "alias.router_names")
    wrap_function(tracer, vendor_of_alias_set, "fingerprint.vendor")
    wrap(NmapEngine, "fingerprint", "fingerprint.nmap")
    wrap_function(tracer, render_full_report, "experiments.render")
    for module, function in SECTIONS:
        wrap_function(
            tracer,
            getattr(importlib.import_module(module), function),
            f"experiments.section.{_section_metric(function)}",
        )
    wrap(Store, "ingest_scan_batches", "store.ingest",
         lambda a, k, r, d: tracer.count("store.ingest_rows", r.rows))
    wrap(Store, "timelines", "store.timeline_fold")
    wrap(Store, "index", "store.index_build")
    wrap(Store, "history", "store.history",
         lambda a, k, r, d: tracer.count("store.rows_returned", len(r)))
    wrap(ServiceScheduler, "run", "service.scheduler")
    wrap(QueryService, "request", "service.query.request", served)

    read_block = SegmentReader.read_block

    def counted_read_block(self: Any, block: Any) -> Any:
        rows = read_block(self, block)
        tracer.count("store.blocks_decoded")
        tracer.count("store.rows_decoded", len(rows))
        return rows

    SegmentReader.read_block = counted_read_block  # type: ignore[method-assign]
    return request_seconds


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, extra: "dict[str, float]") -> "dict[str, float]":
    """Per-layer values of one traced run; ``extra`` supplies what the
    worker read from the program's objects (lazy-world counters, query
    metrics, firing walls, overhead and unattributed time)."""
    s = tracer.self_s
    c = tracer.counters
    campaign_s = s.get("scanner.campaign", 0.0) + s.get("scanner.targeted", 0.0)
    values = {
        "topology.build_s": s.get("topology.build", 0.0),
        "scanner.campaign_s": s.get("scanner.campaign", 0.0),
        "scanner.targeted_s": s.get("scanner.targeted", 0.0),
        "scanner.targets": c.get("scanner.targets", 0),
        "scanner.observations": c.get("scanner.observations", 0),
        "scanner.response_ratio": _ratio(
            c.get("scanner.observations", 0), c.get("scanner.targets", 0)),
        "scanner.probes_per_s": _ratio(c.get("scanner.targets", 0), campaign_s),
        "pipeline.filter_s": s.get("pipeline.filter", 0.0),
        "pipeline.kept_ratio": _ratio(c.get("pipeline.kept", 0), c.get("pipeline.input", 0)),
        "alias.snmpv3_s": s.get("alias.snmpv3", 0.0),
        "alias.midar_s": s.get("alias.midar", 0.0),
        "alias.speedtrap_s": s.get("alias.speedtrap", 0.0),
        "alias.router_names_s": s.get("alias.router_names", 0.0),
        "fingerprint.vendor_s": s.get("fingerprint.vendor", 0.0),
        "fingerprint.vendor_calls": float(tracer.calls.get("fingerprint.vendor", 0)),
        "fingerprint.nmap_s": s.get("fingerprint.nmap", 0.0),
        "experiments.render_s": s.get("experiments.render", 0.0),
        "store.ingest_s": s.get("store.ingest", 0.0),
        "store.ingest_rows": c.get("store.ingest_rows", 0),
        "store.timeline_fold_s": s.get("store.timeline_fold", 0.0),
        "store.index_build_s": s.get("store.index_build", 0.0),
        "store.history_s": s.get("store.history", 0.0),
        "store.blocks_decoded": c.get("store.blocks_decoded", 0),
        "store.rows_decoded_per_row_returned": _ratio(
            c.get("store.rows_decoded", 0), c.get("store.rows_returned", 0)),
        "service.scheduler.self_s": s.get("service.scheduler", 0.0),
        "service.query.request_s": s.get("service.query.request", 0.0),
        "service.query.miss_s": c.get("service.query.miss_s", 0.0),
    }
    for name in ("non-overlapping", *FILTERS):
        values[f"pipeline.removed.{name}"] = c.get(f"pipeline.removed.{name}", 0)
    for _, function in SECTIONS:
        metric = _section_metric(function)
        values[f"experiments.section.{metric}_s"] = s.get(f"experiments.section.{metric}", 0.0)
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}
