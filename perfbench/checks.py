"""Output checks for the three workloads.

Every check takes plain data (strings, numbers, lists, dicts) and returns
a list of failure messages, empty when the output is correct.  The
workers extract that data from the program's public objects; the
self-tests feed the same functions deliberately corrupted copies.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Every section ``render_full_report`` prints with comparators on, in
#: order.  A missing or reordered heading is a failed output.
REPORT_SECTIONS = (
    "Table 1: SNMPv3 measurement campaigns",
    "Table 2: router datasets and SNMPv3 overlap",
    "Table 3 (Appendix A): alias resolution variants",
    "Figure 4: number of IPs per engine ID",
    "Figure 5: engine ID format distribution",
    "Figure 6: relative Hamming weight (randomness)",
    "Figure 7: last reboot time of top-3 engine IDs",
    "Figure 8: |delta last reboot| between scans",
    "Section 5.1: alias sets",
    "Figure 9: IPs per alias set",
    "Section 5.2: Router Names comparison",
    "Section 5.3: MIDAR / Speedtrap comparison",
    "Section 5.4: combined de-alias coverage",
    "Figure 10: SNMPv3 coverage per AS",
    "Figure 11: vendor popularity (all devices)",
    "Figure 12: router vendor popularity",
    "Figure 13: time since last reboot (routers)",
    "Figure 14: router vendors per AS",
    "Figure 15: regional vendor popularity",
    "Figure 16: top-10 networks by router count",
    "Figure 17: vendor dominance per AS",
    "Figure 18: vendor dominance per region",
    "Figure 19 (Appendix B): (last reboot, boots) tuple uniqueness",
    "Figure 20 (Appendix C): routers per AS per region",
    "Section 6.2.3: Nmap comparison",
    "Section 8: response amplification",
    "Section 6.2.1: lab validation",
)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report_sections(text: str) -> "list[str]":
    """Every section heading is present, once, in paper order."""
    failures = []
    cursor = 0
    for title in REPORT_SECTIONS:
        heading = f"\n{title}\n"
        count = text.count(heading)
        if count != 1:
            failures.append(f"report section {title!r} appears {count} times")
            continue
        position = text.index(heading)
        if position < cursor:
            failures.append(f"report section {title!r} is out of order")
        cursor = position
    return failures


def check_funnel(family: str, funnel: dict) -> "list[str]":
    """The Table 1 funnel of one family only ever shrinks.

    ``funnel`` holds the pipeline's ``FilterStats`` fields plus the
    number of valid records: ``input_first``, ``input_second``,
    ``removed`` (filter name -> count, in pipeline order),
    ``valid_engine_id_count``, ``valid_count`` and ``valid_records``.
    The engine-ID checkpoint is taken after the sixth filter.
    """
    failures = []
    removed = list(funnel["removed"].items())
    merged = funnel["valid_count"] + sum(count for _, count in removed)
    stages = [("merged scan pair", merged)]
    left = merged
    for name, count in removed:
        if count < 0:
            failures.append(f"{family}: filter {name} removed {count} records")
        left -= count
        stages.append((f"after {name}", left))
    widest = min(funnel["input_first"], funnel["input_second"])
    if merged > widest:
        failures.append(
            f"{family}: {merged} merged records exceed the smaller scan ({widest})"
        )
    for (name_a, a), (name_b, b) in zip(stages, stages[1:]):
        if b > a or b < 0:
            failures.append(f"{family}: funnel grows from {name_a} ({a}) to {name_b} ({b})")
    checkpoint = stages[min(6, len(stages) - 1)][1]
    if funnel["valid_engine_id_count"] != checkpoint:
        failures.append(
            f"{family}: valid-engine-ID count {funnel['valid_engine_id_count']} "
            f"!= funnel after six filters {checkpoint}"
        )
    if not (funnel["valid_count"] == left == funnel["valid_records"]):
        failures.append(
            f"{family}: valid count {funnel['valid_count']}, funnel end {left} and "
            f"valid records {funnel['valid_records']} disagree"
        )
    return failures


def check_partition(label: str, sets: "list[list[str]]", records: "list[str]") -> "list[str]":
    """Alias sets are disjoint and together hold exactly the valid records."""
    failures = []
    seen: set[str] = set()
    duplicated = 0
    for group in sets:
        if not group:
            failures.append(f"{label}: empty alias set")
        for address in group:
            if address in seen:
                duplicated += 1
            seen.add(address)
    if duplicated:
        failures.append(f"{label}: {duplicated} addresses sit in more than one alias set")
    wanted = set(records)
    if seen != wanted:
        failures.append(
            f"{label}: alias sets cover {len(seen - wanted)} addresses that are not "
            f"valid records and miss {len(wanted - seen)} that are"
        )
    return failures


def check_same(label: str, values: "list[object]") -> "list[str]":
    """Every repetition of one seed produced the same output."""
    distinct = {json.dumps(value, sort_keys=True) for value in values}
    if len(distinct) > 1:
        return [f"{label} differs between repetitions of one seed ({len(distinct)} variants)"]
    return []


def check_recorded(path: Path, label: str, value: object) -> "list[str]":
    """Compare with the value an earlier run of the same seed recorded.

    The first run of a seed records its value; later runs in the same
    checkout must reproduce it.  Nothing is hard-coded, so a change that
    re-derives the program's outputs only needs a fresh checkout.
    """
    if path.exists():
        recorded = json.loads(path.read_text(encoding="utf-8"))
        if recorded != value:
            return [f"{label} differs from an earlier run of the same seed"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(value, sort_keys=True), encoding="utf-8")
    temporary.replace(path)
    return []


def check_integrity(samples: "list[dict]") -> "list[str]":
    """Every ``integrity`` answer read a consistent snapshot."""
    bad = [s for s in samples if s.get("consistent") is not True]
    if bad:
        return [f"{len(bad)} of {len(samples)} integrity samples are inconsistent"]
    return []


def check_monotone(label: str, generations: "list[int]") -> "list[str]":
    """A reader never sees the store generation go backwards."""
    for before, after in zip(generations, generations[1:]):
        if after < before:
            return [f"{label}: generation went back from {before} to {after}"]
    return []


def check_rounds(rounds: "list[int]", firings: int) -> "list[str]":
    """Each firing ingested exactly one round, numbered from 1."""
    wanted = list(range(1, firings + 1))
    if rounds != wanted:
        return [f"round list {rounds} != {wanted}"]
    return []


def check_history(address: str, status: int, value: object, expected: "list[dict]") -> "list[str]":
    """One ``/v1/history`` answer: status 200 and the reference rows."""
    if status != 200:
        return [f"history {address}: HTTP status {status}"]
    if value != expected:
        kind = "silent address answered" if not expected else "answer differs from reference"
        return [f"history {address}: {kind}"]
    return []


def check_answer(answer: "tuple[str, int, bytes, float]", expected: dict) -> "list[str]":
    """One ``(address, status, body, latency_s)`` reply of the HTTP
    client, against the reference rows of its address."""
    address, status, body, _ = answer
    value = json.loads(body)["value"] if status == 200 else None
    return check_history(address, status, value, expected[address])
