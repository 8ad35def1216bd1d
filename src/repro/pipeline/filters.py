"""The ten filtering steps of §4.4, in the paper's order.

Each filter is a named step that consumes a list of records and reports
how many it removed.  The full pipeline is:

1.  **missing-engine-id** — unparseable replies and empty engine IDs;
2.  **inconsistent-engine-id** — the two scans returned different engine
    IDs for the same address (address churn between scans);
3.  **short-engine-id** — fewer than four bytes (cannot be unique; the
    four-byte threshold keeps IPv4-based engine IDs);
4.  **promiscuous-engine-id** — the same engine-ID *data* value appears
    under multiple vendors' enterprise numbers (factory defaults);
5.  **unroutable-ipv4-engine-id** — IPv4-format engine IDs embedding
    reserved/private/multicast addresses;
6.  **unregistered-mac** — MAC-format engine IDs whose OUI is not in the
    IEEE registry;
7.  **zero-time-or-boots** — engine time or engine boots of zero in
    either scan;
8.  **future-engine-time** — engine time exceeding the receive clock
    (a last-reboot before the epoch / in the future);
9.  **inconsistent-boots** — engine boots differ between the scans (the
    device rebooted; its reset engine time cannot be trusted);
10. **inconsistent-reboot-time** — derived last reboot times differ by
    more than the threshold (default 10 s, the knee of Figure 8).

``FilterPipeline(skip={...})`` disables individual steps for the
filter-ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.net.addresses import is_routable_ipv4
from repro.oui.registry import OuiRegistry, default_registry
from repro.pipeline.records import (
    MergedObservation,
    ValidRecord,
    merge_scan_pair,
    merge_scan_stream,
)
from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.engine_id import EngineIdFormat

#: Minimum engine-ID length in bytes (keeps IPv4-based engine IDs).
MIN_ENGINE_ID_BYTES = 4

#: Default last-reboot consistency threshold in seconds (Figure 8's knee).
DEFAULT_REBOOT_THRESHOLD = 10.0

FILTER_NAMES = (
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

#: Steps that only need a valid engine ID (Table 1's "valid engine ID"
#: column is counted after these).
_ENGINE_ID_STEPS = FILTER_NAMES[:6]


@dataclass
class FilterStats:
    """Removal counts per step plus the headline intermediate counts."""

    input_first: int = 0
    input_second: int = 0
    non_overlapping: int = 0
    removed: dict[str, int] = field(default_factory=dict)
    valid_engine_id_count: int = 0
    valid_count: int = 0

    def removed_total(self) -> int:
        return sum(self.removed.values())


@dataclass
class PipelineResult:
    """Filtered records plus the bookkeeping for Table 1."""

    valid: list[ValidRecord]
    stats: FilterStats


class FilterPipeline:
    """Configurable §4.4 pipeline.  Arguments are keyword-only."""

    def __init__(
        self,
        *,
        registry: "OuiRegistry | None" = None,
        reboot_threshold: float = DEFAULT_REBOOT_THRESHOLD,
        skip: "frozenset[str] | set[str]" = frozenset(),
    ) -> None:
        unknown = set(skip) - set(FILTER_NAMES)
        if unknown:
            raise ValueError(f"unknown filter names in skip: {sorted(unknown)}")
        self.registry = registry or default_registry()
        self.reboot_threshold = reboot_threshold
        self.skip = frozenset(skip)

    # -- public ------------------------------------------------------------

    def run(self, first: ScanResult, second: ScanResult) -> PipelineResult:
        """Merge a scan pair and run all (non-skipped) filters."""
        stats = FilterStats(
            input_first=first.responsive_count, input_second=second.responsive_count
        )
        records, stats.non_overlapping = merge_scan_pair(first, second)
        return self._run_filters(records, stats)

    def run_stream(
        self,
        first: Iterable[ScanObservation],
        second: Iterable[ScanObservation],
    ) -> PipelineResult:
        """Run the pipeline over observation *iterables*.

        Equivalent to :meth:`run` on materialized scans but bounded in
        memory: the join buffers only the first scan's address index,
        the per-record filters (nine of the ten) stream, and only
        records that survive the streaming steps are buffered for the
        one cross-record filter (``promiscuous-engine-id``) and the
        consistency steps.  Accepts a :class:`ScanResult`, a JSONL
        reader (:func:`repro.io.iter_scan_jsonl`), or a flattened
        executor batch stream on either side.
        """
        merge = merge_scan_stream(first, second)
        stats = FilterStats()
        result = self._run_filters(merge, stats)
        stats.input_first = merge.input_first
        stats.input_second = merge.input_second
        stats.non_overlapping = merge.non_overlapping
        return result

    # -- filter core --------------------------------------------------------

    def _run_filters(
        self, records: Iterable[MergedObservation], stats: FilterStats
    ) -> PipelineResult:
        """Apply the ten steps to a merged-record stream.

        Steps 1–3 stream record-by-record while the promiscuity map
        (engine-ID data value → enterprise numbers, the only cross-record
        state) accumulates over *every* input record, as the paper
        computes it over the full merged population.  Survivors are then
        ordered by address and steps 4–10 applied in sequence.
        """
        counts = dict.fromkeys(FILTER_NAMES, 0)
        streaming_steps = [
            name for name in FILTER_NAMES[:3] if name not in self.skip
        ]
        predicates = self._predicates()
        enterprises_by_data: dict[bytes, set[int]] = {}
        survivors: list[MergedObservation] = []
        for record in records:
            engine_id = record.engine_id
            if engine_id is not None and engine_id.enterprise is not None:
                data = engine_id.data
                if data:
                    enterprises_by_data.setdefault(data, set()).add(
                        engine_id.enterprise
                    )
            for name in streaming_steps:
                if not predicates[name](record):
                    counts[name] += 1
                    break
            else:
                survivors.append(record)
        survivors.sort(key=lambda m: int(m.address))
        promiscuous = frozenset(
            data for data, ents in enterprises_by_data.items() if len(ents) > 1
        )
        predicates["promiscuous-engine-id"] = (
            lambda r: self._data_key(r) not in promiscuous
        )
        remaining = survivors
        for name in FILTER_NAMES[3:]:
            if name not in self.skip:
                remaining, counts[name] = _apply(predicates[name], remaining)
            if name == _ENGINE_ID_STEPS[-1]:
                # Table 1's "valid engine ID" checkpoint, taken after the
                # last engine-ID step whether or not it ran.
                stats.valid_engine_id_count = len(remaining)
        stats.removed = counts
        stats.valid_count = len(remaining)
        valid = [
            ValidRecord(
                address=r.address,
                engine_id=r.first.engine_id,
                engine_boots=r.first.engine_boots,
                last_reboot_first=r.first.last_reboot_time,
                last_reboot_second=r.second.last_reboot_time,
                recv_time_first=r.first.recv_time,
                recv_time_second=r.second.recv_time,
                engine_time_first=r.first.engine_time,
                engine_time_second=r.second.engine_time,
            )
            for r in remaining
        ]
        return PipelineResult(valid=valid, stats=stats)

    def _predicates(self) -> "dict[str, Callable[[MergedObservation], bool]]":
        """Per-record keep-predicates; the promiscuity one is bound later."""
        return {
            "missing-engine-id": self._keep_present_engine_id,
            "inconsistent-engine-id": lambda r: r.consistent_engine_id,
            "short-engine-id": lambda r: r.engine_id is not None
            and len(r.engine_id.raw) >= MIN_ENGINE_ID_BYTES,
            "promiscuous-engine-id": lambda r: True,
            "unroutable-ipv4-engine-id": self._keep_routable_ipv4,
            "unregistered-mac": self._keep_registered_mac,
            "zero-time-or-boots": self._keep_nonzero_time,
            "future-engine-time": self._keep_past_engine_time,
            "inconsistent-boots": lambda r: r.first.engine_boots == r.second.engine_boots,
            "inconsistent-reboot-time": lambda r: r.reboot_time_delta
            <= self.reboot_threshold,
        }

    # -- predicates ------------------------------------------------------------

    @staticmethod
    def _keep_present_engine_id(record: MergedObservation) -> bool:
        return (
            record.first.engine_id is not None
            and record.second.engine_id is not None
            and len(record.first.engine_id.raw) > 0
            and len(record.second.engine_id.raw) > 0
        )

    @staticmethod
    def _keep_routable_ipv4(record: MergedObservation) -> bool:
        engine_id = record.engine_id
        if engine_id is None or engine_id.format is not EngineIdFormat.IPV4:
            return True
        return is_routable_ipv4(engine_id.ip)

    def _keep_registered_mac(self, record: MergedObservation) -> bool:
        engine_id = record.engine_id
        if engine_id is None or engine_id.format is not EngineIdFormat.MAC:
            return True
        return self.registry.is_registered(engine_id.mac)

    @staticmethod
    def _keep_nonzero_time(record: MergedObservation) -> bool:
        return all(
            obs.engine_time > 0 and obs.engine_boots > 0
            for obs in (record.first, record.second)
        )

    @staticmethod
    def _keep_past_engine_time(record: MergedObservation) -> bool:
        return (
            record.first.engine_time <= record.first.recv_time
            and record.second.engine_time <= record.second.recv_time
        )

    # -- promiscuity ---------------------------------------------------------------

    @staticmethod
    def _data_key(record: MergedObservation) -> "bytes | None":
        if record.engine_id is None:
            return None
        return record.engine_id.data


def _apply(
    predicate: Callable[[MergedObservation], bool], records: list[MergedObservation]
) -> tuple[list[MergedObservation], int]:
    kept = [r for r in records if predicate(r)]
    return kept, len(records) - len(kept)
