"""Load-balanced SNMP endpoints: one VIP fronting several engines.

The paper's conclusion names "inferring NAT and load balancers in the
wild" as future work for the SNMPv3 technique.  A load balancer breaks
the protocol's one-engine-per-address assumption: successive probes to
the same virtual IP reach *different* backend devices and therefore
return different engine IDs — a distinctive, detectable signature (and a
population the two-scan consistency filter silently discards today).

:class:`AgentPool` models the VIP side: a scheduling policy (round-robin
or source-hash) dispatches each datagram to one backend agent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.net.packet import Datagram
from repro.snmp.agent import SnmpAgent


class BalancingPolicy(enum.Enum):
    """Dispatch policies seen in front of real services."""

    ROUND_ROBIN = "round-robin"
    SOURCE_HASH = "source-hash"


@dataclass
class AgentPool:
    """A virtual IP fronting several SNMP engines.

    With ``ROUND_ROBIN``, consecutive probes from anywhere rotate through
    the backends — the easiest signature to detect.  ``SOURCE_HASH`` pins
    each client to one backend, which hides the pool from a single-vantage
    prober (the detection experiment quantifies exactly this blind spot).
    """

    backends: list[SnmpAgent]
    policy: BalancingPolicy = BalancingPolicy.ROUND_ROBIN
    _rr_counter: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("an AgentPool needs at least one backend")

    def pick(self, datagram: Datagram, now: float = 0.0) -> SnmpAgent:
        """Select the backend that will see this datagram, arriving at ``now``.

        Round-robin starts from ``(counter + int(now)) % n``: a real VIP's
        rotation position depends on every other client's traffic between
        two of our probes, not only on ours.  Folding the arrival time in
        models that background traffic deterministically, so a VIP probed
        once per scan still moves between scans even when the prober
        restores the counter (the sharded engine snapshots and restores
        it around each shard) or the pool sees no other probe of ours.
        """
        if self.policy is BalancingPolicy.SOURCE_HASH:
            # Source-IP affinity (not 5-tuple): one client always lands on
            # the same backend, hiding the pool from a single vantage.
            return self.backends[int(datagram.src) % len(self.backends)]
        return self._next_round_robin(now)

    def _next_round_robin(self, now: float) -> SnmpAgent:
        backend = self.backends[
            (self._rr_counter + int(now)) % len(self.backends)
        ]
        self._rr_counter += 1
        return backend

    def handle_datagram(self, datagram: Datagram, now: float) -> list[bytes]:
        """Fabric adapter mirroring :meth:`SnmpAgent.handle_datagram`."""
        return self.pick(datagram, now).handle(datagram.payload, now)

    def handle_discovery(
        self,
        payload: bytes,
        msg_id: int,
        request_id: int,
        now: float,
        source: "object | None" = None,
    ) -> list[bytes]:
        """Hinted fast path mirroring :meth:`SnmpAgent.handle_discovery`.

        Backend selection matches :meth:`pick` exactly: ``source`` is the
        probe's source address (what ``datagram.src`` would have been), so
        source-hash affinity and the round-robin position advance just as
        they would on the :meth:`handle_datagram` path.
        """
        if self.policy is BalancingPolicy.SOURCE_HASH:
            backend = self.backends[int(source) % len(self.backends)]  # type: ignore[call-overload]
        else:
            backend = self._next_round_robin(now)
        return backend.handle_discovery(payload, msg_id, request_id, now, source)

    @property
    def engine_ids(self) -> list[bytes]:
        """Ground truth: every engine ID behind the VIP."""
        return [agent.engine_id.raw for agent in self.backends]

    def __len__(self) -> int:
        return len(self.backends)
