"""Tests for the snmpEngine MIB group and engine-time wrap behaviour."""


from repro.asn1.oid import Oid
from repro.net.mac import MacAddress
from repro.snmp import constants
from repro.snmp.agent import SnmpAgent, UsmUser
from repro.snmp.client import SnmpClient
from repro.snmp.engine_id import EngineId
from repro.snmp.mib import build_system_mib, install_engine_group
from repro.snmp.usm import AuthProtocol

USER = UsmUser(b"ops", AuthProtocol.HMAC_SHA1_96, "mib-walk-pass")


def make_agent(boot_time=0.0, boots=7):
    agent = SnmpAgent(
        engine_id=EngineId.from_mac(9, MacAddress("00:00:0c:33:44:55")),
        boot_time=boot_time,
        engine_boots=boots,
        users=(USER,),
        mib=build_system_mib("r", "r", Oid("1.3.6.1.4.1.9.1.1"), lambda: boot_time),
    )
    install_engine_group(agent.mib, agent)
    return agent


class TestEngineGroup:
    def test_engine_id_readable_over_mib(self):
        agent = make_agent()
        value = SnmpClient(agent=agent).get_v3_auth(USER, constants.OID_SNMP_ENGINE_ID)
        assert value == agent.engine_id.raw

    def test_engine_boots_live(self):
        agent = make_agent(boots=7)
        client = SnmpClient(agent=agent)
        assert client.get_v3_auth(USER, constants.OID_SNMP_ENGINE_BOOTS) == 7
        agent.reboot(now=500.0)
        assert client.get_v3_auth(USER, constants.OID_SNMP_ENGINE_BOOTS, now=600.0) == 8

    def test_engine_time_tracks_clock(self):
        agent = make_agent(boot_time=100.0)
        value = SnmpClient(agent=agent).get_v3_auth(
            USER, constants.OID_SNMP_ENGINE_TIME, now=350.0
        )
        assert value == 250

    def test_mib_values_match_discovery(self):
        """The MIB view and the USM header tell one story."""
        agent = make_agent(boot_time=0.0, boots=7)
        client = SnmpClient(agent=agent)
        discovery = client.discover(now=1234.0)
        assert client.get_v3_auth(USER, constants.OID_SNMP_ENGINE_BOOTS, now=1234.0) \
            == discovery.engine_boots
        mib_time = client.get_v3_auth(USER, constants.OID_SNMP_ENGINE_TIME, now=1234.0)
        assert abs(mib_time - discovery.engine_time) <= 1


class TestEngineTimeWrap:
    def test_wrap_increments_boots(self):
        """RFC 3414 §2.2.2: the 31-bit engine time wraps into boots."""
        agent = make_agent(boot_time=0.0, boots=1)
        far_future = float(constants.ENGINE_TIME_MAX) + 10_000.0
        value = agent.engine_time(far_future)
        assert 0 <= value <= constants.ENGINE_TIME_MAX
        assert agent.engine_boots == 2

    def test_double_wrap(self):
        agent = make_agent(boot_time=0.0, boots=1)
        value = agent.engine_time(2.0 * (constants.ENGINE_TIME_MAX + 1) + 55.0)
        assert agent.engine_boots == 3
        assert 0 <= value <= constants.ENGINE_TIME_MAX

    def test_normal_uptimes_unaffected(self):
        agent = make_agent(boot_time=0.0, boots=1)
        assert agent.engine_time(5_000_000.0) == 5_000_000
        assert agent.engine_boots == 1
