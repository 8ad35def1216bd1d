"""Unit tests for the counter-based resolvers (MIDAR / Speedtrap)."""

import pytest

from repro.alias.ipid import CounterOracle, monotonic_bounds_test
from repro.alias.midar import MidarResolver
from repro.alias.sets import evaluate_against_truth
from repro.alias.speedtrap import SpeedtrapResolver
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology
from repro.topology.model import DeviceType


class TestMonotonicBoundsTest:
    def test_shared_counter_passes(self):
        samples = [(float(t), 100 + 7 * t) for t in range(8)]
        assert monotonic_bounds_test(samples, 1 << 16)

    def test_wrap_tolerated(self):
        samples = [(0.0, 65500), (1.0, 65530), (2.0, 20), (3.0, 60)]
        assert monotonic_bounds_test(samples, 1 << 16)

    def test_two_distinct_counters_fail(self):
        # Interleaved values from counters at offsets 1000 and 40000.
        samples = [(0.0, 1000), (0.5, 40000), (1.0, 1010), (1.5, 40010)]
        assert not monotonic_bounds_test(samples, 1 << 16, max_step_fraction=0.1)

    def test_short_sequences_pass(self):
        assert monotonic_bounds_test([], 1 << 16)
        assert monotonic_bounds_test([(0.0, 5)], 1 << 16)


@pytest.fixture(scope="module")
def topo():
    cfg = TopologyConfig.tiny(seed=31)
    cfg.sequential_ip_id_frac = 0.9  # dense signal for accuracy tests
    return build_topology(cfg)


class TestOracle:
    def test_shared_counter_across_interfaces(self, topo):
        oracle = CounterOracle(topo, modulus=1 << 16, seed=1)
        router = next(
            d for d in topo.routers()
            if len(d.ipv4_interfaces) >= 2 and d.ip_id_rate > 0
        )
        a, b = router.ipv4_interfaces[0].address, router.ipv4_interfaces[1].address
        va = oracle.probe(a, 100.0)
        vb = oracle.probe(b, 100.5)
        if va is not None and vb is not None:
            assert (vb - va) % (1 << 16) < 1000

    def test_unknown_address_unanswered(self, topo):
        import ipaddress

        oracle = CounterOracle(topo, modulus=1 << 16, seed=1)
        assert oracle.probe(ipaddress.ip_address("203.0.113.199"), 0.0) is None

    def test_counter_advances_with_time(self, topo):
        oracle = CounterOracle(
            topo, modulus=1 << 16,
            responsive_prob={t: 1.0 for t in DeviceType}, seed=1,
        )
        device = next(d for d in topo.devices.values() if d.ip_id_rate > 1.0)
        addr = device.interfaces[0].address
        v1 = oracle.probe(addr, 0.0)
        v2 = oracle.probe(addr, 100.0)
        assert (v2 - v1) % (1 << 16) > 50


class TestMidar:
    def test_groups_shared_counter_router(self, topo):
        candidates = [
            i.address
            for d in topo.routers()
            for i in d.ipv4_interfaces
        ]
        sets = MidarResolver(topology=topo).resolve(candidates)
        ev = evaluate_against_truth(sets, topo.true_alias_sets(4))
        assert ev.precision > 0.9
        assert ev.recall > 0.15  # bounded by responsiveness + counter styles

    def test_random_ip_id_devices_stay_singletons(self, topo):
        random_device = next(
            d for d in topo.routers()
            if d.ip_id_random and len(d.ipv4_interfaces) >= 2
        )
        candidates = [i.address for i in random_device.ipv4_interfaces]
        sets = MidarResolver(topology=topo).resolve(candidates)
        assert sets.non_singleton_count == 0

    def test_ignores_v6_candidates(self, topo):
        v6 = topo.all_addresses(6)[:5]
        sets = MidarResolver(topology=topo).resolve(v6)
        assert sets.count == 0

    def test_all_candidates_accounted_for(self, topo):
        candidates = topo.all_addresses(4)[:200]
        sets = MidarResolver(topology=topo).resolve(candidates)
        grouped = {a for g in sets.sets for a in g}
        assert grouped == set(candidates)


class TestSpeedtrap:
    def test_v6_resolution_precision(self, topo):
        candidates = [
            i.address for d in topo.routers() for i in d.ipv6_interfaces
        ]
        sets = SpeedtrapResolver(topology=topo).resolve(candidates)
        ev = evaluate_against_truth(sets, topo.true_alias_sets(6))
        assert ev.precision > 0.9

    def test_lower_coverage_than_midar(self, topo):
        v4 = [i.address for d in topo.routers() for i in d.ipv4_interfaces]
        v6 = [i.address for d in topo.routers() for i in d.ipv6_interfaces]
        midar = MidarResolver(topology=topo).resolve(v4)
        speedtrap = SpeedtrapResolver(topology=topo).resolve(v6)
        if v6 and v4:
            midar_rate = midar.addresses_in_non_singletons / max(1, len(v4))
            speed_rate = speedtrap.addresses_in_non_singletons / max(1, len(v6))
            assert speed_rate <= midar_rate + 0.05
