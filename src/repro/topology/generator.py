"""The synthetic Internet generator.

Builds a :class:`~repro.topology.model.Topology` from a
:class:`~repro.topology.config.TopologyConfig`:

1. **ASes** — region assignment by weight, one IPv4 /16 and one IPv6 /32
   each, an rDNS naming convention, a primary router vendor drawn from the
   regional market share, and a vendor-dominance level from a Beta
   distribution (Figure 17's shape);
2. **Routers** — per-AS counts from a bounded power-law (Figure 20),
   interface counts from a lognormal with a dual-stack boost (Figure 9),
   vendor from the AS's dominance model, engine IDs from the per-vendor
   format policy, uptimes from the Figure 13 mixture, plus every
   behavioural quirk population of §4.4/§8;
3. **Servers and CPE** — single-interface devices distributed across ASes,
   Net-SNMP / consumer vendor mixes, looser clocks, DHCP churn pools.

Two layouts share one set of derivation helpers:

* ``layout="sequential"`` (the default) threads a single seeded RNG and
  sequential address cursors through every device, in creation order —
  identical configs produce byte-identical Internets, and the draw order
  is load-bearing for seed stability.
* ``layout="streamed"`` derives each device from an *independent* RNG
  keyed on ``(seed, asn, slot)`` with arithmetic address slots, so the
  same device can be rebuilt in isolation at probe time
  (:class:`repro.topology.lazy.LazyTopology`) or eagerly via ``build()``
  — the two paths are byte-identical by construction because they call
  the same ``derive_*`` functions with the same RNG streams.

The ``derive_*`` module functions take every input explicitly
(config, RNG, allocator, shared populations); the generator class is a
thin sequential driver around them.
"""

from __future__ import annotations

import ipaddress
import math
import random
import zlib
from dataclasses import dataclass
from typing import Protocol

from repro.net.mac import MacAddress
from repro.oui.enterprise import enterprise_number, has_enterprise_number
from repro.oui.registry import OuiRegistry, default_registry
from repro.snmp.agent import AgentBehavior, SnmpAgent
from repro.snmp.loadbalancer import AgentPool, BalancingPolicy
from repro.snmp.engine_id import EngineId
from repro.topology import timeline
from repro.topology.config import REGION_AS_WEIGHTS, TopologyConfig
from repro.topology.model import (
    AutonomousSystem,
    Device,
    DeviceType,
    Interface,
    Region,
    Topology,
)

#: First-octet values usable for AS IPv4 /16 allocations (globally
#: routable unicast /8s only).
_USABLE_FIRST_OCTETS = [
    o
    for o in range(1, 224)
    if o not in (10, 100, 127, 169, 172, 192, 198, 203)
]

_RDNS_STYLES = ("iface-router", "router-iface", "flat", "opaque")

#: Software "vendors" whose boxes carry other makers' NICs.
NIC_SUBSTITUTES = {"Net-SNMP": ("Intel", "Realtek", "Supermicro", "Mellanox")}


@dataclass
class _VendorMacAllocator:
    """Hands out unique per-vendor MAC blocks."""

    registry: OuiRegistry

    def __post_init__(self) -> None:
        self._counters: dict[str, int] = {}

    NIC_SUBSTITUTES = NIC_SUBSTITUTES

    def next_mac(self, vendor: str, count: int = 1) -> MacAddress:
        """Allocate ``count`` consecutive MACs; return the first."""
        substitutes = self.NIC_SUBSTITUTES.get(vendor)
        if substitutes is not None:
            rotation = self._counters.get(vendor, 0)
            self._counters[vendor] = rotation + 1
            vendor = substitutes[rotation % len(substitutes)]
        index = self._counters.get(vendor, 1)
        self._counters[vendor] = index + count
        block, offset = divmod(index, 1 << 24)
        return self.registry.make_mac(vendor, block, offset)


class DeviceAllocator(Protocol):
    """Resource allocation surface the derivation helpers draw from.

    The sequential implementation threads global cursors (MAC counters,
    per-AS host counters, a device-id counter); the streamed slot
    implementation computes everything arithmetically from the device's
    slot so allocation is a pure function of ``(seed, asn, slot)``.
    """

    def next_mac(self, vendor: str, count: int = 1) -> MacAddress: ...

    def alloc_v4(self, asys: AutonomousSystem) -> ipaddress.IPv4Address: ...

    def alloc_v6(self, asys: AutonomousSystem) -> ipaddress.IPv6Address: ...

    def alloc_v6_eui64(self, asys: AutonomousSystem,
                       mac: MacAddress) -> ipaddress.IPv6Address: ...

    def next_device_id(self) -> int: ...

    def iface_cap(self, protocol: str) -> int: ...


class _SequentialAllocator:
    """Classic global-cursor allocation: order of creation is identity."""

    def __init__(self, *, config: TopologyConfig, registry: OuiRegistry) -> None:
        self._config = config
        self._macs = _VendorMacAllocator(registry)
        self._next_id = 1

    def next_mac(self, vendor: str, count: int = 1) -> MacAddress:
        return self._macs.next_mac(vendor, count)

    def alloc_v4(self, asys: AutonomousSystem) -> ipaddress.IPv4Address:
        index = asys.next_host  # type: ignore[attr-defined]
        asys.next_host = index + 1  # type: ignore[attr-defined]
        base = int(asys.ipv4_prefix.network_address)
        offset = 1 + index
        if offset >= asys.ipv4_prefix.num_addresses - 1:
            raise ValueError(f"AS{asys.asn} IPv4 prefix exhausted")
        return ipaddress.IPv4Address(base + offset)

    def alloc_v6_eui64(self, asys: AutonomousSystem,
                       mac: MacAddress) -> ipaddress.IPv6Address:
        """A SLAAC address: per-AS /64 subnet + modified EUI-64 host bits."""
        from repro.net.eui64 import eui64_interface_id

        index = asys.next_host
        asys.next_host = index + 1
        base = int(asys.ipv6_prefix.network_address)
        subnet = (index % 4096) << 64
        return ipaddress.IPv6Address(base + subnet + eui64_interface_id(mac))

    def alloc_v6(self, asys: AutonomousSystem) -> ipaddress.IPv6Address:
        # Reuse the same per-AS counter; v6 space never runs out.
        index = asys.next_host  # type: ignore[attr-defined]
        asys.next_host = index + 1  # type: ignore[attr-defined]
        base = int(asys.ipv6_prefix.network_address)
        # Spread hosts across /64s the way real plans do.
        subnet, host = divmod(index, 16)
        return ipaddress.IPv6Address(base + (subnet << 64) + host + 1)

    def next_device_id(self) -> int:
        device_id = self._next_id
        self._next_id = device_id + 1
        return device_id

    def iface_cap(self, protocol: str) -> int:
        return self._config.router_iface_max


@dataclass(frozen=True)
class SharedPopulations:
    """Cross-device engine-ID populations, a pure function of the config."""

    shared_bug_engine_id: EngineId
    cpe_shared_ids: tuple[EngineId, ...]
    promiscuous_data: tuple[bytes, ...]


def derive_shared_populations(cfg: TopologyConfig) -> SharedPopulations:
    """Pre-build the cloned-firmware engine IDs and promiscuous data."""
    cpe_shared: list[EngineId] = []
    for i in range(cfg.cpe_shared_engine_models):
        vendor = ("Thomson", "Broadcom", "Netgear")[i % 3]
        enterprise = enterprise_for(vendor)
        cpe_shared.append(EngineId.from_octets(enterprise, bytes([0x42 + i]) * 8))
    promiscuous = tuple(
        bytes([0xA0 + i, 0x00, 0x00, 0x00, 0x00, 0x01])
        for i in range(cfg.promiscuous_models)
    )
    return SharedPopulations(
        shared_bug_engine_id=EngineId(bytes.fromhex("8000000903000000000000")),
        cpe_shared_ids=tuple(cpe_shared),
        promiscuous_data=promiscuous,
    )


def enterprise_for(vendor: str) -> int:
    if has_enterprise_number(vendor):
        return enterprise_number(vendor)
    # Long-tail vendors without an embedded PEN get a deterministic
    # high private number, as many small vendors do in reality.
    return 50_000 + (zlib.crc32(vendor.encode()) % 10_000)


# -- per-device derivation ------------------------------------------------------
#
# Every helper below is a pure function of its arguments: config, an RNG
# positioned at the device's stream, an allocator, and the shared
# populations.  The sequential layout passes one global RNG through all of
# them in creation order; the streamed layout passes a per-device RNG.


def derive_router(cfg: TopologyConfig, rng: random.Random, alloc: DeviceAllocator,
                  shared: SharedPopulations, asys: AutonomousSystem,
                  primary: str, dominance: float) -> Device:
    region_share = cfg.router_vendor_share[asys.region]
    if rng.random() < dominance:
        vendor = primary
    else:
        others = {v: w for v, w in region_share.items() if v != primary and w > 0}
        if not others:
            vendor = primary
        else:
            vendor = rng.choices(list(others), weights=list(others.values()))[0]

    # Protocol mix and interface count.
    roll = rng.random()
    if roll < cfg.router_dual_frac:
        protocol = "dual"
    elif roll < cfg.router_dual_frac + cfg.router_v6_only_frac:
        protocol = "v6"
    else:
        protocol = "v4"
    n_ifaces = int(rng.lognormvariate(cfg.router_iface_mu, cfg.router_iface_sigma)) + 1
    if protocol == "dual":
        n_ifaces = int(n_ifaces * cfg.dual_stack_iface_boost) + 2
    n_ifaces = min(n_ifaces, alloc.iface_cap(protocol))

    first_mac = alloc.next_mac(vendor, n_ifaces)
    open_prob = asys.router_open_rate
    if vendor == "Juniper":
        open_prob *= cfg.juniper_open_factor
    snmp_open = rng.random() < open_prob

    interfaces: list[Interface] = []
    for i in range(n_ifaces):
        mac = first_mac.successor(i)
        if protocol == "v4":
            address: "ipaddress.IPv4Address | ipaddress.IPv6Address" = alloc.alloc_v4(asys)
        elif protocol == "v6":
            address = (
                alloc.alloc_v6_eui64(asys, mac)
                if rng.random() < cfg.eui64_v6_frac
                else alloc.alloc_v6(asys)
            )
        else:
            if i % 3:
                address = alloc.alloc_v4(asys)
            elif rng.random() < cfg.eui64_v6_frac:
                address = alloc.alloc_v6_eui64(asys, mac)
            else:
                address = alloc.alloc_v6(asys)
        reachable = rng.random() >= cfg.acl_interface_frac
        interfaces.append(
            Interface(address=address, mac=mac, snmp_reachable=reachable)
        )

    engine_id = derive_engine_id(cfg, rng, shared, vendor, DeviceType.ROUTER,
                                 first_mac, interfaces)
    agent, extras = derive_agent(cfg, rng, vendor, DeviceType.ROUTER, engine_id,
                                 skew_sigma=cfg.router_skew_sigma)
    return finish_device(
        cfg, rng, alloc, DeviceType.ROUTER, vendor, asys, interfaces, agent,
        snmp_open, dhcp_pool=False, extras=extras,
        open_tcp=rng.random() < cfg.router_open_tcp_frac,
    )


def derive_endhost(cfg: TopologyConfig, rng: random.Random, alloc: DeviceAllocator,
                   shared: SharedPopulations, asys: AutonomousSystem,
                   device_type: DeviceType, vendor: str) -> Device:
    if device_type is DeviceType.SERVER:
        roll = rng.random()
        dual = roll < cfg.server_dual_frac
        v6 = not dual and roll < cfg.server_dual_frac + cfg.server_v6_frac
        skew_sigma = cfg.server_skew_sigma
        snmp_open = rng.random() < cfg.server_snmp_open
        dhcp = False
        open_tcp = rng.random() < cfg.server_open_tcp_frac
    else:
        roll = rng.random()
        dual = roll < cfg.cpe_dual_frac
        v6 = not dual and roll < cfg.cpe_dual_frac + cfg.cpe_v6_frac
        skew_sigma = (
            cfg.cpe_skew_tight_sigma
            if rng.random() < cfg.cpe_skew_tight_frac
            else cfg.cpe_skew_sigma
        )
        snmp_open = rng.random() < cfg.cpe_snmp_open
        dhcp = rng.random() < cfg.cpe_dhcp_churn_frac
        open_tcp = rng.random() < cfg.cpe_open_tcp_frac

    if device_type is DeviceType.SERVER and rng.random() < cfg.server_multi_ip_frac:
        n_addrs = rng.randint(2, cfg.server_multi_ip_max)
    elif device_type is DeviceType.CPE and not dhcp \
            and rng.random() < cfg.cpe_multi_ip_frac:
        n_addrs = rng.randint(2, cfg.cpe_multi_ip_max)
    else:
        n_addrs = 1

    # Reserve the whole MAC block before deriving successor NICs, so
    # neighbouring devices never reuse an address.
    mac = alloc.next_mac(vendor, count=max(1, n_addrs))

    def alloc_v6_for(nic_mac: MacAddress) -> ipaddress.IPv6Address:
        if rng.random() < cfg.eui64_v6_frac:
            return alloc.alloc_v6_eui64(asys, nic_mac)
        return alloc.alloc_v6(asys)

    interfaces = []
    if dual:
        interfaces.append(Interface(alloc.alloc_v4(asys), mac=mac))
        interfaces.append(Interface(alloc_v6_for(mac), mac=mac))
        n_addrs = max(0, n_addrs - 2)
    elif v6:
        for i in range(n_addrs):
            nic = mac.successor(i)
            interfaces.append(Interface(alloc_v6_for(nic), mac=nic))
        n_addrs = 0
    for i in range(n_addrs):
        interfaces.append(Interface(alloc.alloc_v4(asys), mac=mac.successor(i)))

    engine_id = derive_engine_id(cfg, rng, shared, vendor, device_type, mac, interfaces)
    agent, extras = derive_agent(cfg, rng, vendor, device_type, engine_id,
                                 skew_sigma=skew_sigma)
    return finish_device(
        cfg, rng, alloc, device_type, vendor, asys, interfaces, agent, snmp_open,
        dhcp_pool=dhcp, extras=extras, open_tcp=open_tcp,
    )


def derive_load_balancer(cfg: TopologyConfig, rng: random.Random,
                         alloc: DeviceAllocator, asys: AutonomousSystem) -> Device:
    """A VIP fronting a pool of Net-SNMP backends (§9 extension)."""
    n_backends = rng.randint(cfg.lb_backends_min, cfg.lb_backends_max)
    backends = []
    for __ in range(n_backends):
        engine_id = EngineId.net_snmp_random(rng.randbytes(8))
        agent, __extras = derive_agent(
            cfg, rng, "Net-SNMP", DeviceType.SERVER, engine_id,
            skew_sigma=cfg.server_skew_sigma,
        )
        backends.append(agent)
    policy = (
        BalancingPolicy.SOURCE_HASH
        if rng.random() < cfg.lb_source_hash_frac
        else BalancingPolicy.ROUND_ROBIN
    )
    pool = AgentPool(backends=backends, policy=policy)
    vip = Interface(alloc.alloc_v4(asys), mac=alloc.next_mac("Net-SNMP"))
    return Device(
        device_id=alloc.next_device_id(),
        device_type=DeviceType.LOAD_BALANCER,
        vendor="Net-SNMP",
        asn=asys.asn,
        region=asys.region,
        interfaces=[vip],
        agent=backends[0],
        snmp_open=rng.random() < cfg.server_snmp_open,
        open_tcp_ports=(80, 443),
        os_family="Linux",
        agent_pool=pool,
    )


def derive_engine_id(cfg: TopologyConfig, rng: random.Random,
                     shared: SharedPopulations, vendor: str,
                     device_type: DeviceType, mac: MacAddress,
                     interfaces: list[Interface]) -> EngineId:
    from repro.topology.config import ENGINE_ID_POLICY

    # Cloned-firmware / buggy populations first.
    if vendor == "Cisco" and rng.random() < cfg.cisco_shared_bug_frac:
        return shared.shared_bug_engine_id
    if device_type is DeviceType.CPE and shared.cpe_shared_ids \
            and rng.random() < cfg.cpe_shared_engine_frac:
        return rng.choice(shared.cpe_shared_ids)
    if rng.random() < cfg.promiscuous_frac and shared.promiscuous_data:
        data = rng.choice(shared.promiscuous_data)
        enterprise = enterprise_for(vendor)
        return EngineId(
            (0x80000000 | enterprise).to_bytes(4, "big") + b"\x03" + data
        )

    policy_key = vendor
    if device_type is DeviceType.CPE and f"{vendor}-CPE" in ENGINE_ID_POLICY:
        policy_key = f"{vendor}-CPE"
    policy = ENGINE_ID_POLICY.get(policy_key, (("mac", 1.0),))
    # IPv6-visible CPE frequently derive the engine ID from their IPv4
    # WAN address — the paper finds >15% IPv4-format engine IDs in its
    # IPv6 scans, revealing dual-stack deployments.
    if device_type is DeviceType.CPE and any(
        i.version == 6 for i in interfaces
    ) and rng.random() < 0.18:
        policy = (("ipv4", 1.0),)
    formats = [f for f, __ in policy]
    weights = [w for __, w in policy]
    fmt = rng.choices(formats, weights=weights)[0]
    enterprise = enterprise_for(vendor)

    if fmt == "mac":
        return EngineId.from_mac(enterprise, mac)
    if fmt == "ipv4":
        v4_addrs = [i.address for i in interfaces if i.version == 4]
        if v4_addrs and rng.random() < 0.85:
            address = v4_addrs[0]
        else:
            # Embed an RFC1918 address: the device manages a private
            # LAN behind a NAT.  Feeds the unroutable filter — and the
            # NAT-inference extension (§9 future work).
            address = ipaddress.IPv4Address(
                f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            )
        return EngineId.from_ipv4(enterprise, address)
    if fmt == "text":
        return EngineId.from_text(enterprise, f"snmp-{rng.randrange(1 << 30):08x}")
    if fmt == "octets":
        return EngineId.from_octets(enterprise, rng.randbytes(8))
    if fmt == "net-snmp":
        return EngineId.net_snmp_random(rng.randbytes(8))
    if fmt == "legacy":
        # Mostly sparse bit patterns with a dense minority: the
        # positively skewed Hamming-weight distribution of Figure 6.
        # AUDITED (PR 3): ANDing two independent draws is a deliberate
        # bias, not a bug — each bit is 1 with probability 0.25, so a
        # byte's expected weight drops from 4 to 2, reproducing the
        # low-weight mode of the figure.  Two RNG draws per byte is
        # also load-bearing for seeded-stream stability: replacing it
        # with one draw would shift every later draw and regenerate
        # the topology.  Both draws use the seeded generator, so
        # determinism is unaffected.
        if rng.random() < 0.7:
            data = bytes(
                rng.getrandbits(8) & rng.getrandbits(8)
                for __ in range(8)
            )
        else:
            data = rng.randbytes(8)
        return EngineId.legacy(enterprise, data)
    raise ValueError(f"unknown engine-ID format policy: {fmt!r}")


def sample_uptime(cfg: TopologyConfig, rng: random.Random) -> float:
    day = timeline.SECONDS_PER_DAY
    segments = ((0.0, 30.0), (30.0, 105.0), (105.0, 365.0),
                (365.0, cfg.uptime_max_days))
    seg = rng.choices(segments, weights=cfg.uptime_weights)[0]
    return rng.uniform(seg[0] * day, seg[1] * day)


def derive_agent(cfg: TopologyConfig, rng: random.Random, vendor: str,
                 device_type: DeviceType, engine_id: EngineId,
                 skew_sigma: float) -> tuple[SnmpAgent, dict]:
    uptime = sample_uptime(cfg, rng)
    boot_time = timeline.SCAN1_V4_START - uptime
    age_years = uptime / timeline.SECONDS_PER_YEAR + rng.uniform(0.0, 6.0)
    boots = 1 + _poisson(rng, age_years * cfg.boots_per_year)

    implicit_v3 = (
        vendor in cfg.implicit_v3_vendors
        and rng.random() < cfg.implicit_v3_frac
    )
    # Adversarial personalities ride behind an opt-in knob: the guard
    # short-circuits before any RNG draw when the fraction is zero, so
    # legacy seeded streams are untouched.
    garbage_reports = False
    engine_id_pad_to = 0
    response_delay = 0.0
    reboot_after_handles = 0
    if cfg.adversarial_frac > 0.0 and rng.random() < cfg.adversarial_frac:
        kind = rng.choice(("garbage", "pad", "delay", "reboot-handles"))
        if kind == "garbage":
            garbage_reports = True
        elif kind == "pad":
            engine_id_pad_to = rng.choice((3, 4, 33, 40))
        elif kind == "delay":
            response_delay = rng.uniform(0.5, 3.0)
        else:
            reboot_after_handles = rng.randint(2, 6)
    behavior = AgentBehavior(
        amplification_count=(
            rng.randint(2, cfg.amplification_max)
            if rng.random() < cfg.amplification_frac
            else 1
        ),
        v3_enabled=not implicit_v3,
        v3_enabled_by_community=implicit_v3,
        report_zero_time=rng.random() < cfg.zero_time_frac,
        report_empty_engine_id=rng.random() < cfg.empty_engine_frac,
        future_time_offset=(
            2 ** 31 if rng.random() < cfg.future_time_frac else 0
        ),
        clock_skew=rng.gauss(0.0, skew_sigma),
        malformed=rng.random() < cfg.malformed_frac,
        garbage_reports=garbage_reports,
        engine_id_pad_to=engine_id_pad_to,
        response_delay=response_delay,
        reboot_after_handles=reboot_after_handles,
    )
    agent = SnmpAgent(
        engine_id=engine_id,
        boot_time=boot_time,
        engine_boots=boots,
        behavior=behavior,
        # The operator "only" configured a read community; v3
        # discovery rides along implicitly (the lab finding).
        communities=(b"public",) if implicit_v3 else (),
    )
    extras = {
        "reboot_between_scans": rng.random() < cfg.reboot_between_scans_frac,
    }
    return agent, extras


def finish_device(cfg: TopologyConfig, rng: random.Random, alloc: DeviceAllocator,
                  device_type: DeviceType, vendor: str,
                  asys: AutonomousSystem, interfaces: list[Interface],
                  agent: SnmpAgent, snmp_open: bool, dhcp_pool: bool,
                  extras: dict, open_tcp: bool) -> Device:
    device_id = alloc.next_device_id()

    sequential = rng.random() < cfg.sequential_ip_id_frac
    ip_id_rate = (
        math.exp(rng.uniform(math.log(cfg.ip_id_rate_low), math.log(cfg.ip_id_rate_high)))
        if sequential
        else 0.0
    )
    if device_type is DeviceType.ROUTER:
        ports = (22, 23) if open_tcp else ()
    elif device_type is DeviceType.SERVER:
        ports = (22, 80, 443) if open_tcp else ()
    else:
        ports = (80, 7547) if open_tcp else ()

    os_family = {
        "Cisco": "IOS", "Juniper": "JunOS", "Huawei": "VRP", "H3C": "Comware",
        "Net-SNMP": "Linux", "MikroTik": "RouterOS", "Brocade": "NetIron",
    }.get(vendor, "embedded")

    from repro.net.addresses import is_routable_ipv4
    from repro.snmp.engine_id import EngineIdFormat

    engine_id = agent.engine_id
    is_nat = (
        engine_id.format is EngineIdFormat.IPV4
        and engine_id.ip is not None
        and not is_routable_ipv4(engine_id.ip)
    )
    device = Device(
        device_id=device_id,
        device_type=device_type,
        vendor=vendor,
        asn=asys.asn,
        region=asys.region,
        interfaces=interfaces,
        agent=agent,
        snmp_open=snmp_open,
        dhcp_pool=dhcp_pool,
        open_tcp_ports=ports,
        ip_id_rate=ip_id_rate,
        ip_id_random=not sequential and rng.random() < 0.6,
        os_family=os_family,
        nat_gateway=is_nat,
    )
    device.reboot_between_scans = extras["reboot_between_scans"]  # type: ignore[attr-defined]
    return device


class TopologyGenerator:
    """Deterministic topology builder.  Arguments are keyword-only."""

    def __init__(self, *, config: "TopologyConfig | None" = None,
                 registry: "OuiRegistry | None" = None) -> None:
        self.config = config or TopologyConfig()
        self.registry = registry or default_registry()
        self._rng = random.Random(self.config.seed)
        self._alloc = _SequentialAllocator(config=self.config, registry=self.registry)
        self._shared: "SharedPopulations | None" = None

    # -- public API ---------------------------------------------------------

    def build(self) -> Topology:
        """Generate the full topology."""
        cfg = self.config
        if cfg.layout == "streamed":
            return self._build_streamed()
        ases = self._build_ases()
        as_list = list(ases.values())
        router_counts = self._router_counts_per_as(as_list)
        devices: dict[int, Device] = {}

        shared = self._shared_populations()

        for asys, n_routers in zip(as_list, router_counts):
            asys.router_open_rate = self._open_rate_for(n_routers)
            primary, dominance = self._as_vendor_profile(asys.region, n_routers)
            for __ in range(n_routers):
                device = derive_router(cfg, self._rng, self._alloc, shared,
                                       asys, primary, dominance)
                devices[device.device_id] = device
                asys.device_ids.append(device.device_id)

        self._scatter_endhosts(as_list, router_counts, devices, DeviceType.SERVER, cfg.n_servers)
        self._scatter_endhosts(as_list, router_counts, devices, DeviceType.CPE, cfg.n_cpe)
        n_lbs = round(cfg.n_servers * cfg.lb_frac_of_servers)
        self._scatter_load_balancers(as_list, router_counts, devices, n_lbs)

        return Topology(ases=ases, devices=devices, seed=cfg.seed,
                        epoch=timeline.REFERENCE_TIME)

    def _build_streamed(self) -> Topology:
        """Eagerly materialize the streamed layout.

        Same per-slot derivation as :class:`repro.topology.lazy.LazyTopology`
        — the differential test suites assert the two are byte-identical.
        """
        from repro.topology.lazy import StreamPlan, build_as_objects, derive_device

        cfg = self.config
        plan = StreamPlan(config=cfg)
        shared = self._shared_populations()
        ases = build_as_objects(plan)
        devices: dict[int, Device] = {}
        for slot in plan.iter_slots():
            device = derive_device(cfg, self.registry, plan, slot, shared, ases)
            devices[device.device_id] = device
            ases[slot.asn].device_ids.append(device.device_id)
        topology = Topology(ases=ases, devices=devices, seed=cfg.seed,
                            epoch=timeline.REFERENCE_TIME, layout="streamed")
        topology.stream_plan = plan  # type: ignore[attr-defined]
        topology.stream_config = cfg  # type: ignore[attr-defined]
        return topology

    def _shared_populations(self) -> SharedPopulations:
        if self._shared is None:
            self._shared = derive_shared_populations(self.config)
        return self._shared

    # -- AS construction --------------------------------------------------------

    def _build_ases(self) -> dict[int, AutonomousSystem]:
        cfg = self.config
        rng = self._rng
        regions = list(REGION_AS_WEIGHTS)
        weights = [REGION_AS_WEIGHTS[r] for r in regions]
        ases: dict[int, AutonomousSystem] = {}
        for index in range(cfg.n_ases):
            asn = 64500 + index
            region = rng.choices(regions, weights=weights)[0]
            first = _USABLE_FIRST_OCTETS[index // 256 % len(_USABLE_FIRST_OCTETS)]
            second = index % 256
            v4 = ipaddress.ip_network(f"{first}.{second}.0.0/16")
            v6 = ipaddress.ip_network((int(ipaddress.IPv6Address("2a00::"))
                                       + (index << 96), 32))
            style = rng.choices(_RDNS_STYLES, weights=(0.35, 0.30, 0.15, 0.20))[0]
            asys = AutonomousSystem(
                asn=asn,
                region=region,
                ipv4_prefix=v4,
                ipv6_prefix=v6,
                name=f"AS{asn}",
                rdns_suffix=f"net{asn}.example",
            )
            asys.rdns_style = style
            ases[asn] = asys
        return ases

    #: Mild per-region AS-size multiplier reconciling the regional router
    #: totals of Figure 15 with the region AS-count weights (AF/OC hold few
    #: routers spread over comparatively many networks).
    _REGION_SIZE_FACTOR = {
        Region.EU: 1.10, Region.NA: 1.05, Region.AS: 1.05,
        Region.SA: 1.10, Region.AF: 0.35, Region.OC: 0.33,
    }

    def _router_counts_per_as(self, as_list: list[AutonomousSystem]) -> list[int]:
        """Power-law router counts per AS.

        Calibrated to the paper's §6.4.1 tail fractions (18% of networks
        hold 5+ routers, 6.8% hold 20+, 1.7% hold 100+): a Pareto with
        ``alpha ~= 0.8`` and ``x_m ~= 0.6``, truncated, then rescaled so the
        counts sum to the configured router total.
        """
        cfg = self.config
        rng = self._rng
        alpha = cfg.router_per_as_alpha
        high = max(20.0, cfg.n_routers * 0.03)
        low = 0.6
        raw: list[float] = []
        for asys in as_list:
            u = rng.random()
            x = (low ** -alpha - u * (low ** -alpha - high ** -alpha)) ** (-1.0 / alpha)
            raw.append(x * self._REGION_SIZE_FACTOR[asys.region])
        scale = cfg.n_routers / sum(raw)
        counts = [max(1, round(x * scale)) for x in raw]
        # Trim or pad the largest AS so the total lands on target.
        delta = cfg.n_routers - sum(counts)
        counts[max(range(len(counts)), key=counts.__getitem__)] += delta
        return counts

    def _open_rate_for(self, n_routers: int) -> float:
        """AS-level SNMP exposure policy, inversely tied to network size:
        backbones segregate management traffic, small shops often do not.
        This produces Figure 10's wide coverage spread while keeping the
        overall responsive fraction near 16%."""
        cfg = self.config
        mixture = (
            cfg.large_as_open_rates
            if n_routers >= cfg.large_as_threshold
            else cfg.as_router_open_rates
        )
        rates = [r for r, __ in mixture]
        weights = [w for __, w in mixture]
        return self._rng.choices(rates, weights=weights)[0]

    #: Vendors eligible to dominate a very large network (Figure 16: every
    #: top-10 AS is run on Cisco or Huawei, one partly on UNIX routers).
    _MAJOR_VENDORS = ("Cisco", "Huawei", "Net-SNMP")

    def _as_vendor_profile(self, region: Region, n_routers: int) -> tuple[str, float]:
        """Primary vendor and dominance level for one AS.

        Small networks draw their primary vendor from the full regional
        market share; large networks (the Figure 16 population) only from
        the major vendors — niche vendors do not run 5k-router backbones.
        """
        cfg = self.config
        share = dict(cfg.router_vendor_share[region])
        if n_routers >= max(20, cfg.router_per_as_max // 3):
            share = {v: share.get(v, 0.0) for v in self._MAJOR_VENDORS}
        vendors = [v for v, w in share.items() if w > 0]
        weights = [share[v] for v in vendors]
        primary = self._rng.choices(vendors, weights=weights)[0]
        if self._rng.random() < cfg.single_vendor_as_frac:
            return primary, 1.0
        dominance = self._rng.betavariate(cfg.dominance_beta_a, cfg.dominance_beta_b)
        return primary, min(1.0, max(0.3, dominance))

    # -- servers / CPE ----------------------------------------------------------------

    def _scatter_endhosts(
        self,
        as_list: list[AutonomousSystem],
        router_counts: list[int],
        devices: dict[int, Device],
        device_type: DeviceType,
        total: int,
    ) -> None:
        cfg = self.config
        rng = self._rng
        weights = [rc + 2.0 for rc in router_counts]
        share = cfg.server_vendor_share if device_type is DeviceType.SERVER else cfg.cpe_vendor_share
        vendors = list(share)
        vendor_weights = [share[v] for v in vendors]
        chosen_as = rng.choices(range(len(as_list)), weights=weights, k=total)
        shared = self._shared_populations()
        for as_index in chosen_as:
            asys = as_list[as_index]
            vendor = rng.choices(vendors, weights=vendor_weights)[0]
            device = derive_endhost(cfg, rng, self._alloc, shared, asys,
                                    device_type, vendor)
            devices[device.device_id] = device
            asys.device_ids.append(device.device_id)

    def _scatter_load_balancers(
        self,
        as_list: list[AutonomousSystem],
        router_counts: list[int],
        devices: dict[int, Device],
        total: int,
    ) -> None:
        """Create VIPs fronting pools of Net-SNMP backends (§9 extension)."""
        cfg = self.config
        rng = self._rng
        weights = [rc + 2.0 for rc in router_counts]
        for as_index in rng.choices(range(len(as_list)), weights=weights, k=total):
            asys = as_list[as_index]
            device = derive_load_balancer(cfg, rng, self._alloc, asys)
            devices[device.device_id] = device
            asys.device_ids.append(device.device_id)


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's algorithm for small lambda; normal approximation above."""
    if lam <= 0:
        return 0
    if lam > 30:
        return max(0, int(rng.gauss(lam, math.sqrt(lam)) + 0.5))
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def build_topology(config: "TopologyConfig | None" = None) -> Topology:
    """One-call convenience wrapper."""
    return TopologyGenerator(config=config).build()
