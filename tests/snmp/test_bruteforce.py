"""Unit tests for offline USM password recovery (§8)."""

import pytest

from repro.asn1.oid import Oid
from repro.net.mac import MacAddress
from repro.snmp.agent import SnmpAgent, UsmUser
from repro.snmp.bruteforce import CapturedMessage, UsmBruteForcer
from repro.snmp.client import SnmpClient
from repro.snmp.constants import OID_SYS_DESCR
from repro.snmp.engine_id import EngineId
from repro.snmp.messages import build_discovery_probe
from repro.snmp.mib import build_system_mib
from repro.snmp.usm import AuthProtocol

PASSWORD = "autumn-leaves-2021"
USER = UsmUser(b"monitor", AuthProtocol.HMAC_SHA1_96, PASSWORD)


def make_agent(mac="00:00:0c:0a:0b:01"):
    agent = SnmpAgent(
        engine_id=EngineId.from_mac(9, MacAddress(mac)),
        boot_time=0.0,
        engine_boots=2,
        users=(USER,),
    )
    agent.mib = build_system_mib("router", "r1", Oid("1.3.6.1.4.1.9.1.1"), lambda: 0.0)
    return agent


def capture_authenticated_exchange(agent):
    """Sniff a legitimate manager's authenticated GET off the wire."""
    client = SnmpClient(agent=agent)
    discovery = client.discover(now=50.0)
    # Rebuild the signed request exactly as the client sends it.
    from repro.snmp import constants, pdu as pdu_mod
    from repro.snmp.messages import ScopedPdu, SnmpV3Message, UsmSecurityParameters
    from repro.snmp.usm import compute_mac, localized_key_from_password

    message = SnmpV3Message(
        msg_id=77,
        flags=constants.FLAG_REPORTABLE | constants.FLAG_AUTH,
        security=UsmSecurityParameters(
            engine_id=discovery.engine_id,
            engine_boots=discovery.engine_boots,
            engine_time=discovery.engine_time,
            user_name=USER.name,
            auth_params=b"\x00" * 12,
        ),
        scoped_pdu=ScopedPdu(
            context_engine_id=discovery.engine_id,
            context_name=b"",
            pdu=pdu_mod.get_request(77, OID_SYS_DESCR),
        ),
    )
    blob = message.encode()
    key = localized_key_from_password(PASSWORD, discovery.engine_id, USER.auth_protocol)
    mac = compute_mac(key, blob, USER.auth_protocol)
    return blob.replace(b"\x00" * 12, mac, 1)


class TestForgeHelper:
    def test_forged_capture_cracks(self):
        from repro.snmp.bruteforce import forge_authenticated_get

        wire = forge_authenticated_get(
            engine_id=b"\x80\x00\x00\x09\x03\x00\x00\x0c\x01\x02\x03",
            engine_boots=5, engine_time=777,
            user_name=b"noc", password="forged-pass",
        )
        capture = CapturedMessage.from_wire(wire)
        result = UsmBruteForcer().crack(capture, ["nope", "forged-pass"])
        assert result.cracked

    def test_forged_capture_authenticates_against_agent(self):
        """A forged manager message is accepted by the matching agent —
        it is byte-for-byte what a real NMS would send."""
        agent = make_agent()
        from repro.snmp.bruteforce import forge_authenticated_get
        from repro.snmp.messages import SnmpV3Message

        discovery = SnmpClient(agent=agent).discover(now=10.0)
        wire = forge_authenticated_get(
            engine_id=discovery.engine_id,
            engine_boots=discovery.engine_boots,
            engine_time=discovery.engine_time,
            user_name=USER.name,
            password=PASSWORD,
        )
        replies = agent.handle(wire, now=10.0)
        assert replies
        reply = SnmpV3Message.decode(replies[0])
        assert reply.scoped_pdu.pdu.is_response


class TestCapturedMessage:
    def test_dissection(self):
        wire = capture_authenticated_exchange(make_agent())
        capture = CapturedMessage.from_wire(wire)
        assert capture.user_name == b"monitor"
        assert len(capture.auth_params) == 12
        assert capture.engine_id.startswith(b"\x80\x00\x00\x09")

    def test_zeroed_restores_mac_input(self):
        wire = capture_authenticated_exchange(make_agent())
        capture = CapturedMessage.from_wire(wire)
        assert b"\x00" * 12 in capture.zeroed()
        assert capture.zeroed() != capture.raw

    def test_unauthenticated_capture_rejected(self):
        probe = build_discovery_probe(1).encode()
        with pytest.raises(ValueError):
            CapturedMessage.from_wire(probe)


class TestBruteForce:
    def test_crack_with_password_in_dictionary(self):
        wire = capture_authenticated_exchange(make_agent())
        capture = CapturedMessage.from_wire(wire)
        forcer = UsmBruteForcer()
        result = forcer.crack(capture, ["wrong1", "wrong2", PASSWORD, "later"])
        assert result.cracked
        assert result.password == PASSWORD
        assert result.guesses_tried == 3

    def test_crack_fails_without_password(self):
        wire = capture_authenticated_exchange(make_agent())
        capture = CapturedMessage.from_wire(wire)
        result = UsmBruteForcer().crack(capture, ["a", "b", "c"])
        assert not result.cracked
        assert result.guesses_tried == 3

    def test_stretch_cache_amortizes_across_engines(self):
        """The §8 warning: one stretched dictionary attacks every engine."""
        captures = [
            CapturedMessage.from_wire(
                capture_authenticated_exchange(make_agent(mac=f"00:00:0c:0a:0b:{i:02x}"))
            )
            for i in range(1, 4)
        ]
        forcer = UsmBruteForcer()
        dictionary = ["wrongA", "wrongB", PASSWORD]
        results = forcer.crack_many(captures, dictionary)
        assert all(r.cracked for r in results.values())
        # Three engines, three guesses — but only three stretches total.
        assert forcer.cache_size == 3

    def test_verified_guess_validates_against_agent(self):
        """The recovered password really authenticates."""
        agent = make_agent()
        wire = capture_authenticated_exchange(agent)
        result = UsmBruteForcer().crack(
            CapturedMessage.from_wire(wire), ["x", PASSWORD]
        )
        recovered = UsmUser(b"monitor", AuthProtocol.HMAC_SHA1_96, result.password)
        value = SnmpClient(agent=agent).get_v3_auth(recovered, OID_SYS_DESCR, now=60.0)
        assert value == b"router"

    def test_md5_protocol_supported(self):
        forcer = UsmBruteForcer(protocol=AuthProtocol.HMAC_MD5_96)
        assert len(forcer.stretch("pw")) == 16
