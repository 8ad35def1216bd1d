"""Load generators and latency statistics.

* :func:`open_loop` sends on a fixed schedule whatever the replies do
  (independent readers), timing each request from when it was due.
* :func:`closed_loop` keeps a fixed number of HTTP connections busy,
  each sending its next request only after the previous reply (callers
  that wait), timing each request from when it was sent.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from typing import Any, Callable
from urllib.parse import quote


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(count: int, q: float) -> int:
    """Samples above the nearest-rank ``q`` percentile of ``count``."""
    return count - max(1, math.ceil(q * count))


def batches(items: list, size: int) -> "list[list]":
    """Consecutive whole batches of ``size`` items; a short rest is dropped."""
    return [items[i:i + size] for i in range(0, len(items) - size + 1, size)]


def open_loop(send: Callable[[str], Any], mix: "tuple[str, ...]", rate: float,
              stop: threading.Event, samples: list) -> None:
    """Call ``send(endpoint)`` at ``rate`` per second, cycling ``mix``,
    until ``stop`` is set.

    Appends ``(endpoint, lag_s, latency_s, outcome)`` per request: the
    lag is how late the generator sent it, the latency runs from the due
    time to the reply, and the outcome is the reply or the exception.
    One thread both generates and sends, so a slow reply delays the
    requests behind it, and that delay counts in their latency.
    """
    period = 1.0 / rate
    start = time.perf_counter()
    sent_count = 0
    while True:
        due = start + sent_count * period
        wait = due - time.perf_counter()
        if wait > 0 and stop.wait(wait):
            break
        if stop.is_set():
            break
        endpoint = mix[sent_count % len(mix)]
        sent = time.perf_counter()
        try:
            outcome = send(endpoint)
        except Exception as error:  # noqa: BLE001 - a failed request is a sample
            outcome = error
        done = time.perf_counter()
        samples.append((endpoint, sent - due, done - due, outcome))
        sent_count += 1


def closed_loop(host: str, port: int, addresses: "list[str]",
                connections: int) -> "tuple[float, list[tuple[str, int, bytes, float]]]":
    """Fetch ``/v1/history`` for every address over ``connections``
    keep-alive connections; returns the wall time and, per request,
    ``(address, status, body, latency_s)`` (status 0 on a transport error).
    """
    lock = threading.Lock()
    pending = iter(addresses)
    answers: list[tuple[str, int, bytes, float]] = []

    def client() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            while True:
                with lock:
                    address = next(pending, None)
                if address is None:
                    return
                sent = time.perf_counter()
                try:
                    connection.request("GET", f"/v1/history?arg={quote(address)}")
                    reply = connection.getresponse()
                    status, body = reply.status, reply.read()
                except (OSError, http.client.HTTPException) as error:
                    status, body = 0, str(error).encode()
                    connection.close()
                latency = time.perf_counter() - sent
                with lock:
                    answers.append((address, status, body, latency))
        finally:
            connection.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(connections)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("an HTTP client did not finish within 120 s")
    return wall, answers
