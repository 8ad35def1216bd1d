"""Per-probe reference loop: the oracle the batch pipeline is held to.

The executor runs every shard through the batch-staged pipeline of
:mod:`repro.scanner.pipeline`.  This module keeps the plain per-probe
loop it replaced — encode one probe, build one datagram, inject it, fully
decode the first reply, decide on a retry, repeat — as a test-side
reference.  :func:`per_probe_loop` installs it in place of the pipeline
by monkeypatching the executor module, so identity suites and benches
can run the same campaign both ways and compare every output bit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.asn1 import ber
from repro.net.packet import Datagram
from repro.scanner import executor
from repro.scanner.records import ScanObservation
from repro.snmp.constants import SNMP_PORT
from repro.snmp.engine_id import EngineId
from repro.snmp.messages import encode_discovery_probe, parse_discovery_response


def observe(target, replies) -> ScanObservation:
    """Parse the first ``(datagram, arrival)`` reply; count the rest."""
    first_reply, arrival = replies[0]
    try:
        parsed = parse_discovery_response(first_reply.payload)
    except ber.BerDecodeError:
        return ScanObservation(
            address=target,
            recv_time=arrival,
            engine_id=None,
            response_count=len(replies),
            wire_bytes=first_reply.wire_size,
        )
    return ScanObservation(
        address=target,
        recv_time=arrival,
        engine_id=EngineId(parsed.engine_id),
        engine_boots=parsed.engine_boots,
        engine_time=parsed.engine_time,
        response_count=len(replies),
        wire_bytes=first_reply.wire_size,
    )


def probe_targets_per_probe(
    view, spec, params, retry, window, owner_of, shard, timings, profile
) -> Iterator[ScanObservation]:
    """Drop-in for ``probe_targets_pipelined``: one probe at a time.

    ``window`` is accepted for signature compatibility and ignored.
    """
    source = params.source
    sport = params.source_port
    start_time = params.start_time
    interval = params.interval
    inject = view.inject
    timeout = retry.timeout
    retrying = retry.max_retries > 0
    encode_elapsed = 0.0
    inject_elapsed = 0.0
    decode_elapsed = 0.0
    # Consecutive unanswered probes per device (circuit breaker).
    dead_streak: dict[object, int] = {}
    try:
        for global_index, target in spec.items:
            send_time = start_time + global_index * interval
            if profile:
                stage_started = time.perf_counter()
                payload = encode_discovery_probe(global_index + 1)
                encode_elapsed += time.perf_counter() - stage_started
            else:
                payload = encode_discovery_probe(global_index + 1)
            if retrying and retry.breaker_threshold:
                breaker_key = owner_of(target)
                if breaker_key is None:
                    breaker_key = target
                allow_retries = (
                    dead_streak.get(breaker_key, 0) < retry.breaker_threshold
                )
            else:
                breaker_key = None
                allow_retries = retrying
            observation = None
            attempt = 0
            while True:
                datagram = Datagram(
                    src=source,
                    dst=target,
                    sport=sport,
                    dport=SNMP_PORT,
                    payload=payload,
                    sent_at=send_time,
                )
                if profile:
                    stage_started = time.perf_counter()
                    replies = inject(datagram, now=send_time)
                    inject_elapsed += time.perf_counter() - stage_started
                else:
                    replies = inject(datagram, now=send_time)
                if timeout is not None and replies:
                    on_time = [
                        entry for entry in replies
                        if entry[1] - send_time <= timeout
                    ]
                    shard.timed_out += len(replies) - len(on_time)
                    replies = on_time
                if replies:
                    if profile:
                        stage_started = time.perf_counter()
                        observation = observe(target, replies)
                        decode_elapsed += time.perf_counter() - stage_started
                    else:
                        observation = observe(target, replies)
                    if observation.engine_id is not None:
                        break
                if not allow_retries or attempt >= retry.max_retries:
                    break
                attempt += 1
                shard.retries += 1
                send_time = retry.retry_send_time(send_time, attempt)
            if observation is not None:
                if observation.engine_id is None:
                    shard.unparsed += 1
                yield observation
            if breaker_key is not None:
                if observation is None:
                    streak = dead_streak.get(breaker_key, 0) + 1
                    dead_streak[breaker_key] = streak
                    if streak == retry.breaker_threshold:
                        shard.breaker_tripped += 1
                else:
                    dead_streak[breaker_key] = 0
    finally:
        timings.encode += encode_elapsed
        timings.inject += inject_elapsed
        timings.decode += decode_elapsed


@contextmanager
def per_probe_loop() -> Iterator[None]:
    """Run every executor shard through the per-probe loop while active.

    Worker pools fork inside the block, so their children inherit the
    patched probe path too.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "probe_targets_pipelined", probe_targets_per_probe)
        yield
