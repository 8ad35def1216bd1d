"""Secondary indexes over a store's observations.

One sequential pass over the segment files builds the inverted views
the serving workloads need:

* **engine ID → addresses** — which IPs ever answered with an engine ID
  (the §5 alias-resolution join key);
* **device rollups** — per *device* (distinct engine ID) groupings by
  IANA enterprise number, by MAC-OUI vendor, and by the paper's final
  vendor verdict (:func:`repro.fingerprint.vendor.infer_vendor`), which
  back the Figure 11/12 censuses straight from the store.

Per-address history is not indexed here: the longitudinal point query
(:meth:`repro.store.store.Store.history`) reads it straight from the
segments, searching each candidate block's packed address column.

The index is an in-memory structure rebuilt from segments on demand and
cached by the :class:`~repro.store.store.Store`; it holds no state of
its own that could drift from the segment files, so compaction (which
preserves every row) never invalidates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fingerprint.vendor import infer_vendor
from repro.net.addresses import IPAddress
from repro.snmp.engine_id import EngineId

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.store.store import Store

#: Rollup bucket for engine IDs too short to carry an enterprise number.
NO_ENTERPRISE = -1


@dataclass
class StoreIndex:
    """Materialized inverted views over every stored observation."""

    engine_to_ips: "dict[bytes, set[IPAddress]]" = field(default_factory=dict)
    devices_by_enterprise: "dict[int, set[bytes]]" = field(default_factory=dict)
    devices_by_oui: "dict[str, set[bytes]]" = field(default_factory=dict)
    devices_by_vendor: "dict[str, set[bytes]]" = field(default_factory=dict)
    rows_indexed: int = 0

    @classmethod
    def build(cls, store: "Store") -> "StoreIndex":
        """One pass over the store; vendor inference once per engine ID."""
        index = cls()
        engines: dict[bytes, EngineId] = {}
        for stored in store.observations():
            index.rows_indexed += 1
            engine_id = stored.observation.engine_id
            if engine_id is None:
                continue
            raw = engine_id.raw
            index.engine_to_ips.setdefault(raw, set()).add(stored.observation.address)
            engines.setdefault(raw, engine_id)
        for raw, engine_id in engines.items():
            enterprise = (
                engine_id.enterprise
                if engine_id.enterprise is not None
                else NO_ENTERPRISE
            )
            index.devices_by_enterprise.setdefault(enterprise, set()).add(raw)
            verdict = infer_vendor(engine_id)
            if verdict.oui_vendor is not None:  # set only for MAC-format IDs
                index.devices_by_oui.setdefault(verdict.oui_vendor, set()).add(raw)
            index.devices_by_vendor.setdefault(verdict.vendor, set()).add(raw)
        return index

    @property
    def device_count(self) -> int:
        """Distinct engine IDs — the store's 'devices before de-aliasing'."""
        return len(self.engine_to_ips)

    def vendor_census(self) -> "list[tuple[str, int]]":
        """(vendor, device count), largest first — Figure 11 from the index."""
        return sorted(
            ((vendor, len(devs)) for vendor, devs in self.devices_by_vendor.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )

    def enterprise_census(self) -> "list[tuple[int, int]]":
        """(enterprise number, device count), largest first."""
        return sorted(
            (
                (enterprise, len(devs))
                for enterprise, devs in self.devices_by_enterprise.items()
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )

    def oui_census(self) -> "list[tuple[str, int]]":
        """(MAC-OUI vendor, device count) for MAC-format engine IDs."""
        return sorted(
            ((vendor, len(devs)) for vendor, devs in self.devices_by_oui.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )


__all__ = ["NO_ENTERPRISE", "StoreIndex"]
