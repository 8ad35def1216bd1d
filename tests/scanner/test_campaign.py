"""Integration tests for the four-scan campaign."""

import ipaddress

import pytest

from repro.scanner.campaign import SCAN_LABELS, ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.scanner.metrics import ExecutorMetrics
from repro.snmp.agent import SnmpAgent
from repro.snmp.constants import SNMP_PORT
from repro.snmp.engine_id import EngineId
from repro.snmp.loadbalancer import AgentPool, BalancingPolicy
from repro.topology import timeline
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology
from repro.topology.model import Device, DeviceType, Interface, Region, Topology


@pytest.fixture(scope="module")
def campaign_result():
    cfg = TopologyConfig.tiny(seed=21)
    topo = build_topology(cfg)
    return topo, ScanCampaign(topology=topo, config=cfg).run()


class TestCampaign:
    def test_all_four_scans_present(self, campaign_result):
        __, result = campaign_result
        assert set(result.scans) == set(SCAN_LABELS)

    def test_scan_times_follow_paper_schedule(self, campaign_result):
        __, result = campaign_result
        assert result.scans["v6-1"].started_at == timeline.SCAN1_V6_START
        assert result.scans["v4-2"].started_at == timeline.SCAN2_V4_START
        assert result.scans["v6-1"].started_at < result.scans["v4-1"].started_at

    def test_v4_targets_all_assigned_addresses(self, campaign_result):
        topo, result = campaign_result
        assert result.scans["v4-1"].targets_probed == len(topo.all_addresses(4))

    def test_v6_targets_hitlist_only(self, campaign_result):
        topo, result = campaign_result
        assert result.scans["v6-1"].targets_probed == len(
            result.datasets.hitlist_targets_v6
        )
        assert result.scans["v6-1"].targets_probed < len(topo.all_addresses(6))

    def test_closed_devices_never_respond(self, campaign_result):
        topo, result = campaign_result
        responsive = set(result.scans["v4-1"].observations)
        for device in topo.devices.values():
            if not device.snmp_open:
                for interface in device.interfaces:
                    assert interface.address not in responsive

    def test_acl_interfaces_never_respond(self, campaign_result):
        topo, result = campaign_result
        responsive = set(result.scans["v4-1"].observations) | set(
            result.scans["v4-2"].observations
        )
        for device in topo.devices.values():
            for interface in device.interfaces:
                if not interface.snmp_reachable:
                    assert interface.address not in responsive

    def test_reboots_between_v4_scans_bump_boots(self, campaign_result):
        topo, result = campaign_result
        scan1, scan2 = result.scan_pair(4)
        bumped = 0
        for address, obs1 in scan1.observations.items():
            obs2 = scan2.observations.get(address)
            if obs2 is None or obs1.engine_id is None or obs2.engine_id is None:
                continue
            if obs1.engine_id.raw == obs2.engine_id.raw \
                    and obs2.engine_boots > obs1.engine_boots:
                bumped += 1
        assert bumped > 0

    def test_churn_creates_inconsistent_engine_ids(self, campaign_result):
        __, result = campaign_result
        scan1, scan2 = result.scan_pair(4)
        inconsistent = sum(
            1
            for address, obs1 in scan1.observations.items()
            if (obs2 := scan2.observations.get(address)) is not None
            and obs1.engine_id is not None
            and obs2.engine_id is not None
            and obs1.engine_id.raw != obs2.engine_id.raw
        )
        assert inconsistent > 0

    def test_bindings_recorded_per_scan(self, campaign_result):
        topo, result = campaign_result
        for label in SCAN_LABELS:
            assert result.bindings[label]
        # Churned addresses differ between the v4 bindings.
        changed = {
            a
            for a, d in result.bindings["v4-1"].items()
            if result.bindings["v4-2"].get(a) not in (None, d)
        }
        assert changed

    def test_metrics_cover_all_four_scans(self, campaign_result):
        __, result = campaign_result
        assert set(result.metrics) == set(SCAN_LABELS)
        for label, metrics in result.metrics.items():
            assert isinstance(metrics, ExecutorMetrics)
            assert metrics.probes_sent == result.scans[label].targets_probed

    def test_open_router_interfaces_respond(self, campaign_result):
        topo, result = campaign_result
        responsive = set(result.scans["v4-1"].observations) | set(
            result.scans["v4-2"].observations
        )
        missing = 0
        total = 0
        for device in topo.devices.values():
            if device.device_type is not DeviceType.ROUTER or not device.snmp_open:
                continue
            for interface in device.interfaces:
                if interface.version == 4 and interface.snmp_reachable:
                    total += 1
                    if interface.address not in responsive:
                        missing += 1
        # Only packet loss (2% per direction, two scans) may hide them.
        assert total == 0 or missing / total < 0.05


def _pooled_device(device_id: int, address: str) -> Device:
    backends = [
        SnmpAgent(engine_id=EngineId(bytes([0x80, 0, 0, 9, 3, 0, 0, 0, device_id, n])))
        for n in (1, 2)
    ]
    return Device(
        device_id=device_id,
        device_type=DeviceType.LOAD_BALANCER,
        vendor="Cisco",
        asn=1,
        region=Region.EU,
        interfaces=[Interface(address=ipaddress.ip_address(address))],
        agent=backends[0],
        dhcp_pool=True,
        agent_pool=AgentPool(backends=backends),
    )


class TestChurnRebinding:
    def test_churn_rebinds_pooled_devices_through_their_pool(self):
        """Regression: churn used to rebind a load-balancer VIP to its
        first backend agent directly, silently bypassing the pool's
        scheduling policy after re-addressing."""
        devices = {
            1: _pooled_device(1, "192.0.2.1"),
            2: _pooled_device(2, "192.0.2.2"),
        }
        topo = Topology(ases={}, devices=devices, seed=9)
        campaign = ScanCampaign(topology=topo)
        campaign._bind_initial()
        campaign._rng.random = lambda: 0.0  # force churn for every candidate
        campaign._apply_churn(4)
        # Addresses swapped owners...
        addr1 = ipaddress.ip_address("192.0.2.1")
        addr2 = ipaddress.ip_address("192.0.2.2")
        assert campaign._binding[addr1] == 2
        assert campaign._binding[addr2] == 1
        # ...and each rebound handler is the new owner's *pool*, not a
        # bare backend agent.
        for address, owner in ((addr1, 2), (addr2, 1)):
            handler = campaign._fabric._endpoints[(address, "udp", SNMP_PORT)]
            assert handler.__self__ is devices[owner].agent_pool



class TestRoundRobinVipsAcrossScans:
    """Regression: the sharded engine restores each pool's round-robin
    counter after every shard, so a VIP probed once per scan used to
    answer scan 2 from scan 1's backend — no VIP ever changed engine ID
    between the paired scans.  The backend position now also moves with
    arrival time, standing in for other clients' traffic."""

    @staticmethod
    def _flips(workers: int) -> "tuple[int, int]":
        cfg = TopologyConfig.paper_scale(divisor=300, seed=2021)
        topo = build_topology(cfg)
        result = ScanCampaign(
            topology=topo, config=cfg, options=ExecutionOptions(workers=workers)
        ).run()
        scan1, scan2 = result.scan_pair(4)
        vips = {
            interface.address
            for device in topo.devices.values()
            if device.agent_pool is not None
            and device.agent_pool.policy is BalancingPolicy.ROUND_ROBIN
            for interface in device.interfaces
            if interface.address.version == 4
        }
        both = [
            address for address in vips
            if address in scan1.observations and address in scan2.observations
            and scan1.observations[address].engine_id is not None
            and scan2.observations[address].engine_id is not None
        ]
        flipped = sum(
            scan1.observations[a].engine_id != scan2.observations[a].engine_id
            for a in both
        )
        return flipped, len(both)

    def test_round_robin_vips_change_engine_id_between_scans(self):
        serial = self._flips(workers=1)
        flipped, answered = serial
        assert answered >= 10
        assert flipped * 3 >= answered, serial
        assert self._flips(workers=2) == serial
