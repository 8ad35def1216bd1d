#!/usr/bin/env python3
"""Quickstart: scan a small simulated Internet and fingerprint devices.

Runs the paper's whole method end to end through the stable
:mod:`repro.api` facade:

1. generate the simulated Internet,
2. launch the two-scan IPv4/IPv6 SNMPv3 campaigns on the sharded engine,
3. filter responses (§4.4),
4. resolve aliases including dual-stack devices (§5),
5. fingerprint vendors (§6),

and prints the headline numbers.  Takes a couple of seconds.
"""

from repro.api import Session


def main() -> None:
    session = Session(scale=1000, seed=2021)
    config = session.config
    print(f"generating simulated Internet ({config.n_ases} ASes, "
          f"{config.n_routers} routers, ~{config.n_servers + config.n_cpe} end hosts)...")

    session.scan().filter().aliases()

    scan1, scan2 = session.campaign.scan_pair(4)
    print(f"\nIPv4 scans: {scan1.targets_probed} targets probed, "
          f"{scan1.responsive_count} / {scan2.responsive_count} responsive")
    for metrics in session.metrics.values():
        print(f"  {metrics.summary()}")
    print(f"after filtering: {len(session.valid_v4)} IPv4 and "
          f"{len(session.valid_v6)} IPv6 records with valid engine ID + time")

    devices = session.alias_sets
    split = devices.split_by_protocol()
    print(f"\nalias resolution: {devices.count} devices "
          f"({devices.non_singleton_count} with multiple IPs)")
    print(f"  IPv4-only {len(split['v4'])}, IPv6-only {len(split['v6'])}, "
          f"dual-stack {len(split['dual'])}")

    print("\ntop vendors (all devices):")
    for vendor, count in session.vendor_census()[:8]:
        print(f"  {vendor:<14} {count}")


if __name__ == "__main__":
    main()
