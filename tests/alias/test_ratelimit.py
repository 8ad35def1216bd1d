"""Unit tests for ICMP rate-limit alias resolution (§7.2 comparator)."""

import pytest

from repro.alias.ratelimit import IcmpRateLimitOracle, RateLimitResolver
from repro.alias.sets import evaluate_against_truth
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology


@pytest.fixture(scope="module")
def topo():
    return build_topology(TopologyConfig.tiny(seed=71))


@pytest.fixture(scope="module")
def oracle(topo):
    return IcmpRateLimitOracle(topology=topo)


def multi_iface_router(topo, oracle, min_ifaces=2):
    for device in topo.routers():
        v4 = [i.address for i in device.ipv4_interfaces]
        if len(v4) >= min_ifaces and oracle._responsive[device.device_id]:
            return device, v4
    raise AssertionError("no responsive multi-interface router")


class TestOracle:
    def test_limiter_enforces_rate(self, topo, oracle):
        device, addrs = multi_iface_router(topo, oracle)
        rate = oracle.rate_of(addrs[0])
        # Hammer at 4x the limit for one second: roughly `rate` replies
        # (plus burst) must survive.
        replies = sum(
            oracle.probe(addrs[0], 1_000.0 + i / (4 * rate))
            for i in range(int(4 * rate))
        )
        assert replies <= rate * 1.5
        assert replies >= rate * 0.5

    def test_limiter_shared_across_interfaces(self, topo, oracle):
        device, addrs = multi_iface_router(topo, oracle)
        rate = oracle.rate_of(addrs[0])
        # Drain through interface A, then B is immediately limited too.
        t = 5_000.0
        for i in range(int(rate)):
            oracle.probe(addrs[0], t)
        assert not oracle.probe(addrs[1], t)

    def test_slow_probing_never_lost(self, topo, oracle):
        device, addrs = multi_iface_router(topo, oracle)
        assert all(oracle.probe(addrs[0], 9_000.0 + i * 1.0) for i in range(10))


class TestResolver:
    @pytest.fixture(scope="class")
    def resolver(self, oracle):
        return RateLimitResolver(oracle)

    def test_find_limit_close_to_truth(self, topo, oracle, resolver):
        device, addrs = multi_iface_router(topo, oracle)
        true_rate = oracle.rate_of(addrs[0])
        measured = resolver.find_limit(addrs[0], start=100_000.0)
        assert measured is not None
        assert 0.5 * true_rate < measured < 2.0 * true_rate

    def test_unresponsive_target_no_limit(self, topo, oracle, resolver):
        silent = next(
            d for d in topo.devices.values()
            if not oracle._responsive[d.device_id]
        )
        assert resolver.find_limit(silent.interfaces[0].address) is None

    def test_pair_test_accepts_true_aliases(self, topo, oracle, resolver):
        device, addrs = multi_iface_router(topo, oracle)
        assert resolver.pair_test(addrs[0], addrs[1], start=1_000_000.0)

    def test_pair_test_rejects_distinct_devices(self, topo, oracle, resolver):
        a, __ = multi_iface_router(topo, oracle)
        other = next(
            d for d in topo.routers()
            if d.device_id != a.device_id
            and d.ipv4_interfaces
            and oracle._responsive[d.device_id]
        )
        assert not resolver.pair_test(
            a.ipv4_interfaces[0].address,
            other.ipv4_interfaces[0].address,
            start=2_000_000.0,
        )

    def test_resolve_small_candidate_set(self, topo, oracle, resolver):
        device, addrs = multi_iface_router(topo, oracle, min_ifaces=3)
        other = next(
            d for d in topo.routers()
            if d.device_id != device.device_id and d.ipv4_interfaces
        )
        candidates = addrs[:3] + [other.ipv4_interfaces[0].address]
        sets = resolver.resolve(candidates, start=10_000_000.0)
        ev = evaluate_against_truth(sets, topo.true_alias_sets(4))
        assert ev.precision == 1.0
        assert sets.non_singleton_count >= 1
