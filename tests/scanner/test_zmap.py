"""The ZMap-style scan contract, held by the one scan engine.

One probe per target, a seeded per-label permutation, a fixed virtual
probe rate, and every reply captured — malformed ones included — as an
observation.  :meth:`ShardedScanExecutor.scan` is the engine under test.
"""

import ipaddress

import pytest

from repro.net.transport import LinkProfile, NetworkFabric
from repro.scanner.executor import ShardedScanExecutor
from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.agent import AgentBehavior, SnmpAgent
from repro.snmp.constants import SNMP_PORT
from repro.snmp.engine_id import EngineId
from repro.net.mac import MacAddress


def make_agent(mac="00:00:0c:00:00:01", **kwargs):
    return SnmpAgent(
        engine_id=EngineId.from_mac(9, MacAddress(mac)),
        boot_time=0.0,
        engine_boots=3,
        **kwargs,
    )


@pytest.fixture
def fabric():
    return NetworkFabric(seed=4, default_profile=LinkProfile(loss_probability=0.0))


def bind(fabric, address, agent):
    addr = ipaddress.ip_address(address)
    fabric.bind(addr, "udp", SNMP_PORT, agent.handle_datagram)
    return addr


def scanner_for(fabric):
    return ShardedScanExecutor(fabric=fabric, devices={})


class TestScan:
    def test_responsive_target_observed(self, fabric):
        addr = bind(fabric, "192.0.2.1", make_agent())
        scanner = scanner_for(fabric)
        result = scanner.scan([addr], label="t", ip_version=4, start_time=100.0)
        assert result.responsive_count == 1
        obs = result.observations[addr]
        assert obs.engine_boots == 3
        assert obs.engine_time == 100  # boot at t=0, probe at t=100
        assert obs.engine_id.raw == make_agent().engine_id.raw

    def test_silent_target_not_observed(self, fabric):
        scanner = scanner_for(fabric)
        target = ipaddress.ip_address("192.0.2.99")
        result = scanner.scan([target], label="t", ip_version=4, start_time=0.0)
        assert result.responsive_count == 0
        assert result.targets_probed == 1

    def test_one_probe_per_target(self, fabric):
        addr = bind(fabric, "192.0.2.1", make_agent())
        execution = scanner_for(fabric).execute(
            [addr], label="t", ip_version=4, start_time=0.0
        )
        result = execution.result()
        assert execution.metrics.probes_sent == 1
        assert result.targets_probed == 1

    def test_rate_controls_virtual_duration(self, fabric):
        targets = [ipaddress.ip_address(f"192.0.2.{i}") for i in range(1, 101)]
        scanner = scanner_for(fabric)
        result = scanner.scan(targets, label="t", ip_version=4, start_time=0.0,
                              rate_pps=50.0)
        assert result.finished_at == pytest.approx(100 / 50.0)

    def test_family_mismatch_rejected(self, fabric):
        scanner = scanner_for(fabric)
        with pytest.raises(ValueError):
            scanner.scan(
                [ipaddress.ip_address("2001:db8::1")],
                label="t", ip_version=4, start_time=0.0,
            )

    def test_amplifier_counted(self, fabric):
        agent = make_agent(behavior=AgentBehavior(amplification_count=7))
        addr = bind(fabric, "192.0.2.1", agent)
        result = scanner_for(fabric).scan([addr], label="t", ip_version=4, start_time=0.0)
        assert result.multi_responders[addr] == 7
        assert result.observations[addr].response_count == 7

    def test_malformed_reply_recorded_without_engine_id(self, fabric):
        agent = make_agent(behavior=AgentBehavior(malformed=True))
        addr = bind(fabric, "192.0.2.1", agent)
        result = scanner_for(fabric).scan([addr], label="t", ip_version=4, start_time=0.0)
        obs = result.observations[addr]
        assert obs.engine_id is None
        assert not obs.parsed

    def test_shuffle_is_deterministic_per_label(self, fabric):
        targets = [ipaddress.ip_address(f"192.0.2.{i}") for i in range(1, 50)]
        for addr in targets:
            bind(fabric, str(addr), make_agent(mac=f"00:00:0c:00:01:{int(addr) % 250:02x}"))
        scanner = scanner_for(fabric)
        a = scanner.scan(targets, label="x", ip_version=4, start_time=0.0)
        fabric2 = NetworkFabric(seed=4, default_profile=LinkProfile(loss_probability=0.0))
        for addr in targets:
            bind(fabric2, str(addr), make_agent(mac=f"00:00:0c:00:01:{int(addr) % 250:02x}"))
        b = scanner_for(fabric2).scan(targets, label="x", ip_version=4, start_time=0.0)
        assert {a: o.recv_time for a, o in a.observations.items()} == {
            a: o.recv_time for a, o in b.observations.items()
        }

    def test_ipv6_scan(self, fabric):
        addr = ipaddress.ip_address("2001:db8::5")
        fabric.bind(addr, "udp", SNMP_PORT, make_agent().handle_datagram)
        result = scanner_for(fabric).scan([addr], label="v6", ip_version=6, start_time=0.0)
        assert result.responsive_count == 1


class TestScanResult:
    def make_obs(self, address="192.0.2.1", **kwargs):
        defaults = dict(
            address=ipaddress.ip_address(address),
            recv_time=1000.0,
            engine_id=EngineId(b"\x80\x00\x00\x09\x01\x02"),
            engine_boots=2,
            engine_time=400,
        )
        defaults.update(kwargs)
        return ScanObservation(**defaults)

    def test_last_reboot_derivation(self):
        obs = self.make_obs(recv_time=1000.0, engine_time=400)
        assert obs.last_reboot_time == 600.0

    def test_first_observation_kept(self):
        result = ScanResult(label="t", ip_version=4, started_at=0.0)
        first = self.make_obs(engine_time=100)
        second = self.make_obs(engine_time=999)
        result.add(first)
        result.add(second)
        assert result.observations[first.address].engine_time == 100

    def test_unique_engine_ids_ignores_unparsed(self):
        result = ScanResult(label="t", ip_version=4, started_at=0.0)
        result.add(self.make_obs(address="192.0.2.1"))
        result.add(self.make_obs(address="192.0.2.2", engine_id=None))
        assert result.unique_engine_ids() == 1
        assert result.responsive_count == 2
