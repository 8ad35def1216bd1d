"""The constructors converted to keyword-only, after their shims retired.

The positional forms lived for a deprecation cycle behind a
``DeprecationWarning``; they now raise ``TypeError``, and keyword
construction is silent.  API001 enforces the keyword-only shape
statically — these tests pin the runtime behaviour.
"""

from __future__ import annotations

import warnings

import pytest

from repro.alias.midar import MidarResolver
from repro.alias.ratelimit import IcmpRateLimitOracle
from repro.alias.speedtrap import SpeedtrapResolver
from repro.snmp.agent import SnmpAgent
from repro.snmp.client import SnmpClient
from repro.snmp.engine_id import EngineId
from repro.topology.config import TopologyConfig
from repro.topology.generator import TopologyGenerator, build_topology


@pytest.fixture(scope="module")
def topology():
    return build_topology(TopologyConfig.paper_scale(divisor=3000, seed=11))


@pytest.fixture()
def agent():
    return SnmpAgent(engine_id=EngineId(b"\x80\x00\x00\x09\x03\x02\x11\x22\x33\x44\x55"))


def assert_rejects_positional(factory):
    with pytest.raises(TypeError, match="positional"):
        factory()


def assert_silent(factory):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return factory()


def test_topology_generator_shim():
    config = TopologyConfig.paper_scale(divisor=3000, seed=11)
    assert_rejects_positional(lambda: TopologyGenerator(config))
    modern = assert_silent(lambda: TopologyGenerator(config=config))
    assert modern.config is config


def test_snmp_agent_shim():
    engine_id = EngineId(b"\x80\x00\x00\x09\x03\x02\x11\x22\x33\x44\x55")
    assert_rejects_positional(lambda: SnmpAgent(engine_id, 5.0, 3))
    modern = assert_silent(
        lambda: SnmpAgent(engine_id=engine_id, boot_time=5.0, engine_boots=3)
    )
    assert modern.engine_id == engine_id
    assert modern.boot_time == 5.0
    assert modern.engine_boots == 3


def test_snmp_agent_requires_engine_id():
    with pytest.raises(TypeError):
        SnmpAgent()


def test_snmp_client_shim(agent):
    assert_rejects_positional(lambda: SnmpClient(agent))
    modern = assert_silent(lambda: SnmpClient(agent=agent))
    assert modern._agent is agent
    with pytest.raises(TypeError):
        SnmpClient(agent, agent=agent)


def test_alias_resolver_shims(topology):
    for cls in (MidarResolver, SpeedtrapResolver, IcmpRateLimitOracle):
        assert_rejects_positional(lambda: cls(topology))
        modern = assert_silent(lambda: cls(topology=topology))
        assert type(modern) is cls


def test_shim_rejects_ambiguous_and_excess_arguments(topology):
    with pytest.raises(TypeError):
        MidarResolver(topology, topology=topology)
    with pytest.raises(TypeError):
        MidarResolver(topology, 99, "extra")
    with pytest.raises(TypeError):
        MidarResolver(topology, 99)  # (topology, seed) no longer maps through
