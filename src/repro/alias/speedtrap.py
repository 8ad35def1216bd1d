"""Speedtrap-style IPv6 alias resolution (§5.3 comparator).

Speedtrap (Luckie et al., 2013) elicits fragmented IPv6 responses and
reads the 32-bit fragment identification, which — like the IPv4 IP-ID —
is often drawn from one counter shared across a router's interfaces.
Fewer stacks produce fragmentable replies at all, so coverage is lower
than MIDAR's; the resolution machinery is otherwise identical with a
32-bit modulus.
"""

from __future__ import annotations

from repro.alias.ipid import CounterAliasResolver, CounterOracle
from repro.alias.sets import AliasSets
from repro.net.addresses import IPAddress
from repro.topology.model import DeviceType, Topology

#: The IPv6 fragment identification field is 32 bits.
FRAG_ID_MODULUS = 1 << 32


class SpeedtrapResolver:
    """Run Speedtrap-style resolution over IPv6 candidate addresses.

    Arguments are keyword-only.
    """

    def __init__(self, *, topology: "Topology | None" = None,
                 seed: int = 0x5BEED) -> None:
        if topology is None:
            raise TypeError("SpeedtrapResolver requires a topology")
        self._oracle = CounterOracle(
            topology,
            modulus=FRAG_ID_MODULUS,
            rate_scale=0.25,  # frag-ID counters advance far slower
            responsive_prob={
                DeviceType.ROUTER: 0.45,
                DeviceType.SERVER: 0.40,
                DeviceType.CPE: 0.15,
                DeviceType.IOT: 0.10,
            },
            seed=seed,
        )
        self._engine = CounterAliasResolver(
            oracle=self._oracle,
            technique="speedtrap",
            estimation_probes=5,
            estimation_spacing=20.0,
            pair_probes=4,
        )

    def resolve(self, candidates: "list[IPAddress]") -> AliasSets:
        """Infer alias sets among IPv6 candidates."""
        v6 = [a for a in candidates if a.version == 6]
        return self._engine.resolve(v6)
