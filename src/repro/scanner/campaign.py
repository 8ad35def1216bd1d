"""Scan-campaign orchestration.

Reproduces the paper's measurement schedule (Table 1): two IPv6 scans on
consecutive days, then two IPv4 scans roughly a week apart.  Between the
paired scans the simulated Internet keeps living:

* devices flagged ``reboot_between_scans`` restart at a random moment in
  the campaign window (feeding the "inconsistent engine boots" filter);
* DHCP-pool CPE re-address — either swapping addresses with another
  churned device in the same AS (the same IP then answers with a
  *different* engine ID: the "inconsistent engine ID" filter) or moving
  to a fresh address (shrinking the scan-overlap set).

IPv4 scans target every address in the simulated address plan (equivalent
to probing the full routable space — unassigned addresses never answer);
IPv6 scans target the IPv6 Hitlist view only, as the paper does.

Every scan runs on the one engine, the sharded batch pipeline of
:mod:`repro.scanner.executor`, whose results are byte-identical for any
worker count at a fixed seed; :meth:`ScanCampaign.run_streaming` exposes
it as an incremental per-scan observation stream.  Sequential layouts
plan each scan over its whole target list (``execute``), streamed
layouts window by window (``execute_stream``).

Streamed layouts (``TopologyConfig(layout="streamed")``) change the
campaign's memory shape, not its semantics.  A
:class:`~repro.topology.lazy.LazyTopology` never materializes the world:
fabric endpoints resolve at probe time, reboot/churn events are pure
functions of ``(seed, device, address)``, dataset membership is a
per-address roll, and targets stream through the windowed executor
(``execute_stream``), so peak memory is bounded by one planning window.
An eagerly built streamed ``Topology`` takes the same code path minus
the resolver, and produces byte-identical scans — the differential
suites in ``tests/topology/test_lazy_identity.py`` and
``tests/scanner/test_streaming_campaign.py`` hold the two worlds equal.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.net.addresses import IPAddress
from repro.net.transport import Handler, LinkProfile, NetworkFabric
from repro.scanner.executor import (
    ExecutionOptions,
    ScanExecution,
    ShardedScanExecutor,
    ShardSpec,
    StreamingScanExecution,
    _ScanParams,
)
from repro.scanner.metrics import ExecutorMetrics, ShardMetrics
from repro.scanner.pool import WorkerPool
from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.constants import SNMP_PORT
from repro.topology import timeline
from repro.topology.config import TopologyConfig
from repro.topology.datasets import (
    RouterDatasets,
    StreamedRouterDatasets,
    build_router_datasets,
)
from repro.topology.lazy import (
    CHURN_PROBABILITY,
    DeviceSlot,
    LazyTopology,
    StreamPlan,
    derive_churn_rotation,
    reboot_time,
)
from repro.topology.model import Device, Topology

#: Scan labels in chronological order.
SCAN_LABELS = ("v6-1", "v6-2", "v4-1", "v4-2")

_SCHEDULE = {
    "v6-1": (6, timeline.SCAN1_V6_START, 20000.0),
    "v6-2": (6, timeline.SCAN2_V6_START, 20000.0),
    "v4-1": (4, timeline.SCAN1_V4_START, 5000.0),
    "v4-2": (4, timeline.SCAN2_V4_START, 5000.0),
}

#: Probability that a DHCP-pool device re-addresses within the inter-scan
#: gap, per address family (6 days for IPv4, 1 day for IPv6).  One table
#: for both campaign paths: the sequential scheduler rolls it from the
#: campaign RNG, the streamed one through per-address pure functions.
_CHURN_PROB = CHURN_PROBABILITY


@dataclass
class CampaignResult:
    """All four scans plus the per-scan ground-truth address bindings."""

    scans: dict[str, ScanResult] = field(default_factory=dict)
    #: Per-scan ``address -> device id`` ground truth.  Lazy campaigns
    #: leave these empty — their ground truth is a pure function, so
    #: query ``topology.owner_of``/``binding_of`` instead of a snapshot.
    bindings: dict[str, dict[IPAddress, int]] = field(default_factory=dict)
    datasets: "RouterDatasets | StreamedRouterDatasets | None" = None
    #: Per-scan execution metrics, one entry per scan label.
    metrics: dict[str, ExecutorMetrics] = field(default_factory=dict)

    def scan_pair(self, version: int) -> tuple[ScanResult, ScanResult]:
        """The (scan 1, scan 2) pair for one address family."""
        prefix = f"v{version}"
        return self.scans[f"{prefix}-1"], self.scans[f"{prefix}-2"]


@dataclass
class ScanStream:
    """One scan of a streaming campaign run, in schedule order.

    ``execution`` exposes the observation batches (consume before
    advancing to the next stream — the campaign mutates fabric bindings
    between scans) plus the execution metrics.
    """

    label: str
    ip_version: int
    started_at: float
    bindings: dict[IPAddress, int]
    execution: "ScanExecution | StreamingScanExecution"
    #: Batch observers attached via :meth:`attach_sink`.
    sinks: "list[Callable[[list[ScanObservation]], object]]" = field(
        default_factory=list
    )
    #: Campaign-installed hook run when the stream is exhausted (or
    #: abandoned): finalizes per-scan edge metrics such as derive time.
    finalize: "Callable[[], None] | None" = None

    def attach_sink(
        self, sink: "Callable[[list[ScanObservation]], object]"
    ) -> "ScanStream":
        """Mirror every consumed batch into ``sink`` (e.g. a JSONL writer).

        Lets one pass over the stream feed several consumers — the CLI
        tees batches to disk while a store ingests the same stream.  Sink
        time lands in the scan's ``ingest_time`` edge metric.
        """
        self.sinks.append(sink)
        return self

    def batches(self) -> Iterator[list[ScanObservation]]:
        iterator = self.execution.batches()
        if not self.sinks and self.finalize is None:
            return iterator
        metrics = self.execution.metrics

        def teed() -> Iterator[list[ScanObservation]]:
            try:
                for batch in iterator:
                    if self.sinks:
                        ingest_started = time.perf_counter()
                        for sink in self.sinks:
                            sink(batch)
                        metrics.ingest_time += (
                            time.perf_counter() - ingest_started
                        )
                    yield batch
            finally:
                if self.finalize is not None:
                    self.finalize()

        return teed()

    def observations(self) -> Iterator[ScanObservation]:
        for batch in self.batches():
            yield from batch


class ScanCampaign:
    """Runs the four-scan measurement campaign against a topology.

    Arguments are keyword-only.  Execution shape (workers, geometry,
    retries, faults, link loss) comes from one
    :class:`~repro.scanner.executor.ExecutionOptions` object; unset
    fields take engine defaults.
    """

    def __init__(
        self,
        *,
        topology: "Topology | LazyTopology | None" = None,
        config: "TopologyConfig | None" = None,
        options: "ExecutionOptions | None" = None,
    ) -> None:
        if topology is None:
            raise TypeError("ScanCampaign requires a topology")
        if options is None:
            options = ExecutionOptions()
        self.topology = topology
        self._lazy = isinstance(topology, LazyTopology)
        self._streamed = (
            self._lazy or getattr(topology, "layout", "sequential") == "streamed"
        )
        if config is not None:
            self.config = config
        elif self._lazy:
            self.config = topology.config  # type: ignore[union-attr]
        elif self._streamed:
            streamed_config = getattr(topology, "stream_config", None)
            self.config = streamed_config or TopologyConfig(
                seed=topology.seed, layout="streamed"
            )
        else:
            self.config = TopologyConfig(seed=topology.seed)
        self._plan: "StreamPlan | None" = None
        if self._lazy:
            self._plan = topology.plan  # type: ignore[union-attr]
        elif self._streamed:
            self._plan = getattr(topology, "stream_plan", None)
            if self._plan is None:
                # An eagerly-built streamed Topology that lost its plan
                # attribute (e.g. crossed a pickle boundary): rebuild it —
                # the plan is a pure function of the config.
                self._plan = StreamPlan(config=self.config)
        self.options = options
        self._rng = random.Random(topology.seed ^ 0x5CA7)
        self._fabric = NetworkFabric(
            seed=topology.seed ^ 0xFAB,
            default_profile=LinkProfile(
                loss_probability=(
                    0.02
                    if options.loss_probability is None
                    else options.loss_probability
                ),
                base_latency=0.08,
                jitter=0.04,
            ),
        )
        if options.fault_profile is not None:
            self._fabric.set_fault_profile(options.fault_profile)
        self._executor_config = options.executor_config(topology.seed)
        # address -> device id, the campaign's live view (mutated by churn).
        self._binding: dict[IPAddress, int] = {}
        # Ground truth overlaid with the live binding, kept in sync at the
        # two binding write sites so ``owner_of`` is a single dict lookup.
        # Streamed layouts derive ownership from the plan arithmetic plus a
        # churn-override overlay instead of materializing the whole map.
        self._owner_map: dict[IPAddress, int] = (
            {} if self._streamed else topology.address_owners()  # type: ignore[union-attr]
        )
        self._stream_overrides: dict[IPAddress, int] = {}
        self._reboot_times: dict[int, float] = {}
        self._rebooted: set[int] = set()
        self._datasets: "RouterDatasets | StreamedRouterDatasets | None" = None
        # Per-family sorted target lists (sequential layout only); the
        # address plan is campaign-constant, so compute each family once.
        self._target_lists: dict[int, list[IPAddress]] = {}
        # Lazy-resolver handler cache: keeps the most recently answering
        # devices strongly referenced so the topology's canonical weak map
        # reuses one object per device across a probe window.
        self._handler_cache: "OrderedDict[int, tuple[Device, Handler]]" = (
            OrderedDict()
        )
        # Follow the lazy topology's residency cap so one knob bounds
        # both strong-reference pools; non-lazy campaigns never resolve.
        self._handler_cache_cap = (
            topology.max_resident
            if self._lazy
            else max(4096, self.config.stream_max_resident)
        )

    # -- public -----------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute all four scans in chronological order.

        Per-scan :class:`ExecutorMetrics` land in ``result.metrics``.  A
        parallel run forks its worker pool once, right after campaign
        setup, and reuses it for all four scans.
        """
        result = CampaignResult()
        self._setup(result)
        with self._pool_scope() as pool:
            for label in SCAN_LABELS:
                derive_base = (
                    self.topology.derive_seconds if self._lazy else 0.0  # type: ignore[union-attr]
                )
                version, start, rate, targets = self._advance_to(label, result)
                execution = self._execute_scan(pool, label, version,
                                               start, rate, targets)
                result.scans[label] = execution.result()
                result.metrics[label] = execution.metrics
                if self._lazy:
                    execution.metrics.derive_time = (
                        self.topology.derive_seconds - derive_base  # type: ignore[union-attr]
                    )
        return result

    def run_streaming(self) -> Iterator[ScanStream]:
        """Yield one :class:`ScanStream` per scan, in schedule order.

        Each stream's batches must be consumed before requesting the
        next stream: the inter-scan events (reboots, churn) rebind
        fabric endpoints in place.  The worker pool (if any) stays alive
        across all four streams and shuts down when the generator
        finishes.
        """
        result = CampaignResult()
        self._setup(result)
        with self._pool_scope() as pool:
            for label in SCAN_LABELS:
                derive_base = (
                    self.topology.derive_seconds if self._lazy else 0.0  # type: ignore[union-attr]
                )
                version, start, rate, targets = self._advance_to(label, result)
                execution = self._execute_scan(
                    pool, label, version, start, rate, targets
                )
                finalize: "Callable[[], None] | None" = None
                if self._lazy:
                    topology = self.topology

                    def finalize(
                        metrics: ExecutorMetrics = execution.metrics,
                        base: float = derive_base,
                        topology: LazyTopology = topology,  # type: ignore[assignment]
                    ) -> None:
                        # Derivation happens while batches stream, so the
                        # edge is only known once this scan is drained.
                        metrics.derive_time = topology.derive_seconds - base

                yield ScanStream(
                    label=label,
                    ip_version=version,
                    started_at=start,
                    bindings=result.bindings[label],
                    execution=execution,
                    finalize=finalize,
                )

    def run_targeted(
        self,
        targets: "list[IPAddress]",
        *,
        label: str,
        ip_version: int,
        start_time: float,
        rate_pps: float = 5000.0,
    ) -> ScanResult:
        """One ad-hoc scan of an explicit target list over the campaign world.

        The service scheduler's re-probe primitive: scans exactly
        ``targets`` at virtual ``start_time`` without replaying the
        four-scan schedule.  The first call performs campaign setup
        (datasets, initial bindings, reboot schedule); reboots due by
        ``start_time`` are applied before probing, so successive targeted
        scans at increasing virtual times observe the world aging.
        Deterministic in ``(seed, targets, start_time)``.
        """
        if self._datasets is None:
            self._setup(CampaignResult())
        self._apply_due_reboots(start_time)
        return self._execute_scan(
            None, label, ip_version, start_time, rate_pps, targets
        ).result()

    # -- schedule ---------------------------------------------------------------

    def _setup(self, result: CampaignResult) -> None:
        """One-time campaign setup: datasets, initial bindings, reboots.

        This is the expensive half of the schedule.  A parallel run forks
        its worker pool immediately *after* this point, so the children
        inherit the built topology state copy-on-write and only ever
        replay the cheap per-scan events themselves.

        Streamed layouts have almost nothing to set up: dataset
        membership, reboot times and churn are pure functions, and a lazy
        world resolves fabric endpoints at probe time instead of binding
        them up front.
        """
        if self._streamed:
            assert self._plan is not None
            datasets = StreamedRouterDatasets(
                seed=self.topology.seed,
                config=self.config,
                plan=self._plan,
                device_for=self._device_for_slot,
                # Lazy worlds answer dataset membership from the cheap
                # membership records; eager-streamed worlds already hold
                # every device, so the default device path is free.
                membership_for=(
                    self.topology.membership_at if self._lazy else None  # type: ignore[union-attr]
                ),
            )
            result.datasets = datasets
            self._datasets = datasets
            if self._lazy:
                self._fabric.set_resolver(self._resolve_endpoint)
            else:
                self._bind_initial()
            return
        eager_datasets = build_router_datasets(self.topology, self.config)  # type: ignore[arg-type]
        result.datasets = eager_datasets
        self._datasets = eager_datasets
        self._bind_initial()
        self._schedule_reboots()

    def _advance_to(
        self, label: str, result: CampaignResult
    ) -> "tuple[int, float, float, list[IPAddress] | Iterator[IPAddress]]":
        """Apply one scan's interim events; return its schedule and targets.

        Must be called once per label, in ``SCAN_LABELS`` order, after
        :meth:`_setup`.  Deterministic given the post-setup state: worker
        replicas forked at pool creation replay these exact events (same
        RNG stream, same order) to reconstruct per-scan state locally.
        """
        version, start, rate = _SCHEDULE[label]
        if label.endswith("-2"):
            self._apply_churn(version)
        self._apply_due_reboots(start)
        assert self._datasets is not None
        targets = self._targets(version, self._datasets)
        result.bindings[label] = dict(self._binding)
        return version, start, rate, targets

    @contextmanager
    def _pool_scope(self) -> "Iterator[WorkerPool | None]":
        """A campaign-lifetime worker pool, or ``None`` on the serial path.

        Forks exactly here — after :meth:`_setup`, before the first
        scan's events — so every child holds a replica of the campaign in
        its pristine post-setup state (see :class:`_CampaignShardRunner`).
        """
        workers = self._executor_config.workers
        if (
            self._streamed
            # Streamed campaigns parallelize per planning window with
            # ephemeral pools: a fork-time replica of a lazy world would
            # freeze one window's resident devices for the whole run.
            or workers <= 1
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            yield None
            return
        pool = WorkerPool(workers=workers, runner=_CampaignShardRunner(self))
        try:
            yield pool
        finally:
            pool.close()

    def _make_executor(
        self, pool: "WorkerPool | None" = None
    ) -> ShardedScanExecutor:
        owner_of: "Callable[[IPAddress], int | None]"
        owner_of_batch: "Callable[[list[IPAddress]], list[int | None]]"
        if self._lazy:
            # Plan arithmetic plus the derived churn overlays; identical
            # to the eager-streamed overlay below by construction, which
            # keeps the two modes' shard plans byte-identical.
            owner_of = self.topology.owner_of  # type: ignore[union-attr]
            owner_of_batch = self.topology.owners_of  # type: ignore[union-attr]
        elif self._streamed:
            owner_of = self._stream_owner_of
            owner_of_batch = self._stream_owners_of
        else:
            owner_of = self._owner_map.get
            owner_of_batch = self._owner_map_owners

        return ShardedScanExecutor(
            fabric=self._fabric,
            devices=self.topology.devices,
            owner_of=owner_of,
            config=self._executor_config,
            pool=pool,
            owner_of_batch=owner_of_batch,
            # Lazy worlds fast-reject closed devices at the fabric, so
            # their agents keep virgin state through every shard —
            # narrowing the snapshot set to open devices skips the
            # dominant materialization cost without touching results.
            snapshot_filter=(
                self.topology.open_device_ids if self._lazy else None  # type: ignore[union-attr]
            ),
        )

    def _execute_scan(
        self,
        pool: "WorkerPool | None",
        label: str,
        version: int,
        start: float,
        rate: float,
        targets: "list[IPAddress] | Iterator[IPAddress]",
    ) -> "ScanExecution | StreamingScanExecution":
        """One scan's execution handle: windowed for streamed layouts."""
        if self._streamed:
            return self._make_executor().execute_stream(
                targets, label=label, ip_version=version,
                start_time=start, rate_pps=rate,
            )
        return self._make_executor(pool).execute(
            list(targets), label=label, ip_version=version,
            start_time=start, rate_pps=rate,
        )

    # -- setup -------------------------------------------------------------------

    @staticmethod
    def _handler_for(device: Device) -> "Callable[..., list[bytes]]":
        """The datagram handler a device answers with.

        Load-balancer VIPs answer through their :class:`AgentPool` (the
        scheduling policy picks a backend engine); everything else
        answers with its own agent.
        """
        if device.agent_pool is not None:
            return device.agent_pool.handle_datagram
        return device.agent.handle_datagram

    def _bind_initial(self) -> None:
        for device in self.topology.devices.values():
            if not device.snmp_open:
                continue
            for interface in device.interfaces:
                if not interface.snmp_reachable:
                    continue
                self._binding[interface.address] = device.device_id
                self._owner_map[interface.address] = device.device_id
                self._fabric.bind(
                    interface.address, "udp", SNMP_PORT, self._handler_for(device)
                )

    def _schedule_reboots(self) -> None:
        window_start = timeline.SCAN1_V6_START
        window_end = timeline.SCAN2_V4_START + timeline.SCAN2_V4_DURATION
        for device in self.topology.devices.values():
            if device.reboot_between_scans:
                self._reboot_times[device.device_id] = self._rng.uniform(
                    window_start, window_end
                )

    # -- interim events ------------------------------------------------------------

    def _apply_due_reboots(self, now: float) -> None:
        if self._lazy:
            # Live devices reboot now; devices derived later apply their
            # (pure-function) reboot time at materialization.
            self.topology.advance_clock(now)  # type: ignore[union-attr]
            return
        if self._streamed:
            seed = self.topology.seed
            rebooted = self._rebooted
            for device in self.topology.devices.values():
                if not device.reboot_between_scans \
                        or device.device_id in rebooted:
                    continue
                when = reboot_time(seed, device.device_id)
                if when <= now:
                    device.agent.reboot(when)
                    rebooted.add(device.device_id)
            return
        for device_id, when in self._reboot_times.items():
            if when <= now and device_id not in self._rebooted:
                self.topology.devices[device_id].agent.reboot(when)
                self._rebooted.add(device_id)

    def _apply_churn(self, version: int) -> None:
        """Re-address DHCP-pool devices before the family's second scan.

        The sequential path rolls churn from the campaign RNG over the
        live binding map; the streamed paths derive it per AS from
        per-address pure functions (:func:`derive_churn_rotation`) — the
        lazy view as an ownership overlay consulted at probe time, the
        eager-streamed world as an explicit fabric rebind — so both
        modes agree address for address.
        """
        if self._lazy:
            self.topology.activate_churn(version)  # type: ignore[union-attr]
            return
        if self._streamed:
            assert self._plan is not None
            seed = self.topology.seed
            devices = self.topology.devices
            for as_plan in self._plan.plans:
                members = (
                    devices[as_plan.device_id_base + index]
                    for index in range(as_plan.n_devices)
                )
                rotation = derive_churn_rotation(seed, version, members)
                if not rotation:
                    continue
                for address in rotation:
                    self._fabric.unbind(address, "udp", SNMP_PORT)
                for address, new_owner in rotation.items():
                    device = devices[new_owner]
                    self._binding[address] = new_owner
                    self._stream_overrides[address] = new_owner
                    self._fabric.bind(
                        address, "udp", SNMP_PORT, self._handler_for(device)
                    )
            return
        prob = _CHURN_PROB[version]
        pools: dict[int, list[IPAddress]] = {}
        for address, device_id in self._binding.items():
            device = self.topology.devices[device_id]
            if device.dhcp_pool and address.version == version \
                    and self._rng.random() < prob:
                pools.setdefault(device.asn, []).append(address)
        for asn, addresses in pools.items():
            if len(addresses) < 2:
                continue
            owners = [self._binding[a] for a in addresses]
            rotated = owners[1:] + owners[:1]
            for address, new_owner in zip(addresses, rotated):
                self._fabric.unbind(address, "udp", SNMP_PORT)
            for address, new_owner in zip(addresses, rotated):
                device = self.topology.devices[new_owner]
                self._binding[address] = new_owner
                self._owner_map[address] = new_owner
                self._fabric.bind(
                    address, "udp", SNMP_PORT, self._handler_for(device)
                )

    # -- targets ----------------------------------------------------------------------

    def _targets(
        self,
        version: int,
        datasets: "RouterDatasets | StreamedRouterDatasets",
    ) -> "list[IPAddress] | Iterator[IPAddress]":
        if self._streamed:
            assert isinstance(datasets, StreamedRouterDatasets)
            assert self._plan is not None
            if version == 4:
                # The full slot sweep — every address the plan *could*
                # assign, whether or not the owning device bound it; the
                # streamed analogue of probing the routable space.
                return self._plan.iter_v4_targets()
            return datasets.iter_hitlist_targets_v6()
        assert isinstance(datasets, RouterDatasets)
        # The target list per family is fixed for the whole campaign —
        # churn rotates owners among existing addresses, never mints new
        # ones — so both scans of a pair share one sorted list.  Safe to
        # hand out repeatedly: the shard planner copies before shuffling.
        cached = self._target_lists.get(version)
        if cached is not None:
            return cached
        if version == 4:
            # Equivalent to scanning all routable IPv4 space: unassigned
            # addresses cannot answer, so only the plan's addresses matter.
            targets = sorted(
                self.topology.all_addresses(4), key=int  # type: ignore[union-attr]
            )
        else:
            targets = sorted(datasets.hitlist_targets_v6, key=int)
        self._target_lists[version] = targets
        return targets

    # -- streamed-layout plumbing -------------------------------------------------

    def _device_for_slot(self, slot: DeviceSlot) -> Device:
        """Materialize one slot (dataset membership, churn derivation)."""
        if self._lazy:
            return self.topology.device_at(slot)  # type: ignore[union-attr]
        return self.topology.devices[slot.device_id]

    def _stream_owner_of(self, address: IPAddress) -> "int | None":
        """Eager-streamed ownership: churn overrides over plan arithmetic."""
        override = self._stream_overrides.get(address)
        if override is not None:
            return override
        assert self._plan is not None
        slot = self._plan.locate(address)
        return None if slot is None else slot.device_id

    def _stream_owners_of(
        self, addresses: "list[IPAddress]"
    ) -> "list[int | None]":
        """Batch form of :meth:`_stream_owner_of`: plan sweep + overlay."""
        assert self._plan is not None
        owners = self._plan.owner_ids(addresses)
        overrides = self._stream_overrides
        if overrides:
            override_get = overrides.get
            for position, address in enumerate(addresses):
                override = override_get(address)
                if override is not None:
                    owners[position] = override
        return owners

    def _owner_map_owners(
        self, addresses: "list[IPAddress]"
    ) -> "list[int | None]":
        """Sequential-layout batch ownership: one C-speed map over the dict."""
        return list(map(self._owner_map.get, addresses))

    def _resolve_endpoint(
        self, address: IPAddress, protocol: str, port: int
    ) -> "Handler | None":
        """Fabric resolver for lazy worlds: derive the answering device.

        Called on every delivery to an unbound address; the fabric never
        caches what we return, so residency policy lives here.  A small
        LRU of ``(device, handler)`` pairs keeps recently probed devices
        strongly referenced — the lazy topology's canonical weak map then
        guarantees that retries and multi-interface probes inside a
        window hit the *same* agent object, preserving session-state
        byte-identity with the eager world.
        """
        if protocol != "udp" or port != SNMP_PORT:
            return None
        device = self.topology.binding_of(address)  # type: ignore[union-attr]
        if device is None:
            return None
        cache = self._handler_cache
        key = device.device_id
        entry = cache.get(key)
        if entry is None or entry[0] is not device:
            entry = (device, self._handler_for(device))
            cache[key] = entry
        cache.move_to_end(key)
        while len(cache) > self._handler_cache_cap:
            cache.popitem(last=False)
        return entry[1]


class _CampaignShardRunner:
    """Worker-side campaign replayer for the persistent pool.

    Captured by the pool's children at fork time — immediately after
    :meth:`ScanCampaign._setup`, before any scan's interim events.  Each
    worker therefore owns a copy-on-write replica of the fully built
    campaign and replays the cheap per-label events (churn, reboot
    application) itself, in ``SCAN_LABELS`` order.  The replica's RNG
    state matches the parent's at fork, so the replay — bindings, fabric
    handlers, targets, shard plan — is byte-identical to the parent's own
    advance, without re-pushing any state through the task pipe.
    """

    def __init__(self, campaign: ScanCampaign) -> None:
        self._campaign = campaign
        #: Throwaway bindings sink for the replica's `_advance_to` calls.
        self._result = CampaignResult()
        self._cursor = 0
        self._scans: "dict[str, tuple[ShardedScanExecutor, list[ShardSpec], _ScanParams]]" = {}

    def _advance(self, label: str) -> None:
        campaign = self._campaign
        while True:
            if self._cursor >= len(SCAN_LABELS):
                raise KeyError(f"unknown scan label {label!r}")
            current = SCAN_LABELS[self._cursor]
            self._cursor += 1
            version, start, rate, targets = campaign._advance_to(
                current, self._result
            )
            executor = campaign._make_executor()
            execution = executor.execute(
                targets, label=current, ip_version=version,
                start_time=start, rate_pps=rate,
            )
            self._scans[current] = (executor, execution._plan, execution._params)
            if current == label:
                return

    def run_shard(
        self, scan_key: str, shard_index: int, batch_size: int
    ) -> "tuple[Iterator[list[ScanObservation]], ShardMetrics]":
        if scan_key not in self._scans:
            self._advance(scan_key)
        executor, plan, params = self._scans[scan_key]
        return executor.stream_shard(plan[shard_index], params, batch_size)
