"""ICMP rate-limit alias resolution (§7.2: Vermeulen et al., PAM 2020).

Routers rate-limit the ICMP replies they originate, and the limiter is
typically *shared across interfaces*.  Probing two candidate addresses
simultaneously at a rate just under the limiter's threshold produces a
distinctive signature: if the addresses share a device, the combined
load crosses the threshold and **both** probe trains see correlated
loss; if they are distinct devices, each train stays under its own
limiter and loss stays at baseline.

:class:`IcmpRateLimitOracle` simulates the router side (token-bucket
limiter per device); :class:`RateLimitResolver` implements the
measurement: per-address baseline calibration, paired stress probing,
and a loss-correlation verdict.  As the paper notes for all prior alias
techniques, coverage is partial — devices that do not answer ICMP, or
whose limiters are generous, yield no signal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.alias.sets import AliasSets
from repro.net.addresses import IPAddress
from repro.net.ratelimit import RateLimit, TokenBucket
from repro.topology.model import DeviceType, Topology

#: Back-compat alias: the per-device limiter is now the shared
#: :class:`repro.net.ratelimit.TokenBucket`.
_TokenBucket = TokenBucket


class IcmpRateLimitOracle:
    """Answers echo probes subject to each device's shared limiter.

    Arguments are keyword-only.
    """

    #: Common limiter configurations (replies/second).
    RATE_CLASSES = (50.0, 100.0, 200.0)

    def __init__(self, *, topology: "Topology | None" = None,
                 seed: int = 0x1C41) -> None:
        if topology is None:
            raise TypeError("IcmpRateLimitOracle requires a topology")
        self.topology = topology
        rng = random.Random(seed ^ topology.seed)
        self._buckets: dict[int, TokenBucket] = {}
        self._responsive: dict[int, bool] = {}
        for device in topology.devices.values():
            rate = rng.choice(self.RATE_CLASSES)
            self._buckets[device.device_id] = TokenBucket(
                RateLimit(rate=rate, burst=rate * 0.2), 0.0
            )
            base = 0.85 if device.device_type is DeviceType.ROUTER else 0.6
            self._responsive[device.device_id] = rng.random() < base

    def rate_of(self, address: IPAddress) -> "float | None":
        device = self.topology.device_of_address(address)
        if device is None:
            return None
        return self._buckets[device.device_id].rate

    def probe(self, address: IPAddress, now: float) -> bool:
        """One echo request; ``True`` when an echo reply comes back."""
        device = self.topology.device_of_address(address)
        if device is None or not self._responsive[device.device_id]:
            return False
        return self._buckets[device.device_id].admit(now)


@dataclass
class RateLimitResolver:
    """Calibrate, stress in pairs, and merge on correlated loss."""

    oracle: IcmpRateLimitOracle
    calibration_probes: int = 60
    stress_seconds: float = 2.0
    loss_increase_threshold: float = 0.25

    def find_limit(self, address: IPAddress, start: float = 0.0) -> "float | None":
        """Binary-search the per-address reply rate (replies/s).

        Returns ``None`` for unresponsive targets.
        """
        if not self.oracle.probe(address, start):
            return None
        low, high = 1.0, 2048.0
        t = start + 100.0
        while high / low > 1.25:
            mid = (low * high) ** 0.5
            losses = self._loss_at_rate([address], mid, t)
            t += 100.0
            if losses > 0.1:
                high = mid
            else:
                low = mid
        return (low * high) ** 0.5

    def _loss_at_rate(self, addresses: "list[IPAddress]", rate: float, start: float) -> float:
        """Probe the address group round-robin at a combined ``rate``."""
        total = int(self.stress_seconds * rate)
        if total <= 0:
            return 0.0
        lost = 0
        interval = 1.0 / rate
        for i in range(total):
            now = start + i * interval
            if not self.oracle.probe(addresses[i % len(addresses)], now):
                lost += 1
        return lost / total

    def pair_test(self, left: IPAddress, right: IPAddress, start: float = 0.0) -> bool:
        """Do the two addresses share a limiter?

        Each side is stressed *alone* at ~70% of its measured limit
        (baseline), then *together* at the same per-address rate.  Shared
        limiters see the combined 140% load and loss jumps; independent
        limiters stay clean.
        """
        limit_left = self.find_limit(left, start)
        limit_right = self.find_limit(right, start + 5_000.0)
        if limit_left is None or limit_right is None:
            return False
        rate = 0.7 * min(limit_left, limit_right)
        base_left = self._loss_at_rate([left], rate, start + 10_000.0)
        base_right = self._loss_at_rate([right], rate, start + 20_000.0)
        combined = self._loss_at_rate([left, right], 2 * rate, start + 30_000.0)
        baseline = max(base_left, base_right)
        return combined - baseline > self.loss_increase_threshold

    def resolve(self, candidates: "list[IPAddress]", start: float = 0.0) -> AliasSets:
        """Pairwise testing with union-find over limit-compatible pairs."""
        from repro.alias.ipid import _UnionFind

        limits: dict[IPAddress, float] = {}
        testable = []
        t = start
        for address in candidates:
            limit = self.find_limit(address, t)
            t += 50_000.0
            if limit is not None:
                limits[address] = limit
                testable.append(address)
        uf = _UnionFind(testable)
        for i, left in enumerate(testable):
            for right in testable[i + 1 :]:
                if uf.find(left) == uf.find(right):
                    continue
                # Sieve: shared limiters must show similar limits.
                if abs(limits[left] - limits[right]) > 0.3 * limits[left]:
                    continue
                t += 50_000.0
                if self.pair_test(left, right, t):
                    uf.union(left, right)
        groups = uf.groups()
        grouped = {a for g in groups for a in g}
        for address in candidates:
            if address not in grouped:
                groups.append(frozenset({address}))
        return AliasSets(sets=groups, technique="icmp-rate-limit")
