"""ZMap-equivalent scan parameters.

The paper's scanner (§3.2–3.3) sends exactly one well-formed SNMPv3
synchronization probe per target IP, in a pseudo-random target
permutation, at a fixed packet rate, and captures every reply with its
arrival timestamp.  :class:`ZmapConfig` holds those parameters; the one
engine that runs them is
:class:`~repro.scanner.executor.ShardedScanExecutor`.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass

from repro.net.addresses import IPAddress

#: Source addresses of the paper's probers: one well-connected server per
#: address family.
DEFAULT_SOURCE_V4 = ipaddress.ip_address("203.0.113.77")
DEFAULT_SOURCE_V6 = ipaddress.ip_address("2001:db8:5ca0::77")


@dataclass(frozen=True)
class ZmapConfig:
    """Engine parameters (§3.2: 5 kpps for IPv4, 20 kpps for IPv6)."""

    rate_pps: float = 5000.0
    source_v4: IPAddress = DEFAULT_SOURCE_V4
    source_v6: IPAddress = DEFAULT_SOURCE_V6
    source_port: int = 39321
    shuffle_seed: int = 0xC0FFEE
