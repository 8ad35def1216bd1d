"""Adversarial-personality hardening: broken firmware must never crash
the scan path.

The agent personalities under test (``garbage_reports``,
``engine_id_pad_to``, ``response_delay``, ``reboot_after_handles``) model
firmware actually seen by Internet-wide scans.  The manager-side client,
the scanner's observe path and the sharded executor must all treat their
replies as data — counted, skipped or filtered, never a crash.
"""

import ipaddress

from hypothesis import given, settings, strategies as st

from repro.asn1.oid import Oid
from repro.net.mac import MacAddress
from repro.net.packet import Datagram
from repro.net.transport import LinkProfile, NetworkFabric
from repro.scanner.executor import ShardedScanExecutor
from repro.snmp.agent import AgentBehavior, SnmpAgent, UsmUser
from repro.snmp.client import SnmpClient
from repro.snmp.engine_id import EngineId
from repro.snmp.usm import AuthProtocol

SYS_DESCR = Oid((1, 3, 6, 1, 2, 1, 1, 1, 0))
PROBER = ipaddress.ip_address("198.51.100.9")
TARGET = ipaddress.ip_address("192.0.2.1")


def make_agent(**behavior_kwargs):
    return SnmpAgent(
        engine_id=EngineId.from_mac(9, MacAddress("00:00:0c:f0:0d:01")),
        boot_time=0.0,
        engine_boots=2,
        behavior=AgentBehavior(**behavior_kwargs),
        communities=(b"public",),
        users=(UsmUser(b"u", AuthProtocol.HMAC_SHA1_96, "some-password"),),
    )


AUTH_USER = UsmUser(b"u", AuthProtocol.HMAC_SHA1_96, "some-password")


class TestGarbageReports:
    def test_discovery_returns_none(self):
        client = SnmpClient(agent=make_agent(garbage_reports=True))
        assert client.discover(now=10.0) is None

    def test_v2c_get_returns_none(self):
        client = SnmpClient(agent=make_agent(garbage_reports=True))
        assert client.get_v2c(b"public", SYS_DESCR) is None

    def test_v3_noauth_returns_nothing(self):
        client = SnmpClient(agent=make_agent(garbage_reports=True))
        assert client.get_v3_noauth(b"u", SYS_DESCR) == (None, None)

    def test_v3_auth_returns_none(self):
        client = SnmpClient(agent=make_agent(garbage_reports=True))
        assert client.get_v3_auth(AUTH_USER, SYS_DESCR) is None

    def test_garbage_is_not_silence(self):
        """The reply arrives on the wire — it is garbage, not a timeout."""
        agent = make_agent(garbage_reports=True)
        replies = agent.handle(
            SnmpClient(agent=make_agent()).discover(now=0.0) and b"" or b"", now=0.0
        )
        assert replies == []  # empty payload is ignored, sanity check
        from repro.snmp.messages import build_discovery_probe

        replies = agent.handle(build_discovery_probe(1).encode(), now=0.0)
        assert len(replies) == 1 and len(replies[0]) > 0

    def test_scanner_observe_counts_unparsed(self):
        """A garbage Report becomes an engine-id-less observation."""
        agent = make_agent(garbage_reports=True)
        fabric = NetworkFabric(seed=1, default_profile=LinkProfile())
        fabric.bind(TARGET, "udp", 161, agent.handle_datagram)
        scan = ShardedScanExecutor(fabric=fabric, devices={}).scan(
            [TARGET], label="t", ip_version=4, start_time=0.0
        )
        observation = scan.observations[TARGET]
        assert observation.engine_id is None
        assert observation.response_count == 1


class TestOddEngineIds:
    def test_oversized_engine_id_disclosed(self):
        client = SnmpClient(agent=make_agent(engine_id_pad_to=64))
        result = client.discover(now=5.0)
        assert result is not None
        assert len(result.engine_id) == 64

    def test_undersized_engine_id_disclosed(self):
        client = SnmpClient(agent=make_agent(engine_id_pad_to=3))
        result = client.discover(now=5.0)
        assert result is not None
        assert len(result.engine_id) == 3

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=200))
    def test_any_pad_length_survives_full_exchange(self, pad_to):
        client = SnmpClient(agent=make_agent(engine_id_pad_to=pad_to))
        result = client.discover(now=5.0)
        assert result is not None
        assert len(result.engine_id) == pad_to
        # The authenticated path keys off the reported ID; it must not
        # crash even when that ID is nonsense.
        value, engine_id = client.get_v3_noauth(b"nobody", SYS_DESCR)
        assert engine_id is not None and len(engine_id) == pad_to


class TestSlowResponder:
    def test_fabric_stretches_arrival_times(self):
        fast, slow = make_agent(), make_agent(response_delay=3.0)
        arrivals = {}
        for name, agent in (("fast", fast), ("slow", slow)):
            fabric = NetworkFabric(seed=42, default_profile=LinkProfile(jitter=0.0))
            fabric.bind(TARGET, "udp", 161, agent.handle_datagram)
            from repro.snmp.messages import encode_discovery_probe

            probe = Datagram(PROBER, TARGET, 40000, 161, encode_discovery_probe(1))
            [(__, arrival)] = fabric.inject(probe, now=0.0)
            arrivals[name] = arrival
        assert arrivals["slow"] - arrivals["fast"] == 3.0


class TestMidScanReboot:
    def test_boots_bump_under_probe_load(self):
        agent = make_agent(reboot_after_handles=3)
        client = SnmpClient(agent=agent)
        boots = []
        for i in range(9):
            result = client.discover(now=float(i))
            assert result is not None
            boots.append(result.engine_boots)
        # Started at 2 and rebooted on every third handled request.
        assert boots[0] == 2
        assert boots[-1] == 5
        assert boots == sorted(boots)

    def test_engine_time_resets_on_reboot(self):
        agent = make_agent(reboot_after_handles=2)
        client = SnmpClient(agent=agent)
        client.discover(now=100.0)
        result = client.discover(now=100.0)  # second handle triggers reboot
        assert result.engine_time == 0
