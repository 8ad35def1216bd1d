"""Compact columnar IPC format for scan observations.

The worker→parent boundary of the parallel executor used to pickle every
:class:`~repro.scanner.records.ScanObservation` dataclass individually,
which made the fork-pool path *slower* than serial — per-instance pickle
overhead dwarfed the probe loop itself.  This module packs a batch of
observations into one struct-packed byte blob instead:

* a one-byte **flags** column (address family, engine-ID presence),
* a packed big-endian **address** column (4 or 16 bytes per row),
* a ``float64`` **receive-time** column (exact round-trip),
* four **adaptive-width integer** columns (boots, time, response count,
  wire bytes) — each column picks the narrowest of ``int8/16/32/64``
  that holds its min/max, with a bigint escape for the arbitrary-size
  integers corrupted BER can legitimately decode to,
* an **engine-ID** column for parsed rows.

The two variable-length columns (bigint escape, engine IDs) share one
layout: a ``u16`` length per value, then the values back to back.  So
checking a blob's framing is a constant number of C-level calls per
column (one ``struct`` unpack of the lengths and one ``sum``), never a
Python loop over rows, and the ``k``-th value starts ``sum(lengths[:k])``
bytes into the value run.

Encoding is lossless and order-preserving: ``decode_observations(
encode_observations(batch)) == batch`` for every observation the scan
path can produce (property-tested in ``tests/scanner/test_wire.py``).
A typical discovery batch shrinks well over 3x versus per-instance
pickling — measured by ``benchmarks/test_bench_parallel.py``.

:func:`find_observation` answers a point lookup without decoding the
batch: it checks the same layout as :func:`decode_observations` (one
private framing pass, so both reject the same malformed blobs), finds
the key in the raw packed address column and builds only the matching
row.  The store's segment reader serves ``history(ip)`` with it.

Blobs are a pure function of observation content and batch boundaries —
both of which the staged batch pipeline reproduces exactly (executor
``batch_size`` chunking is independent of the probe-loop shape) — so
pipeline on/off, any worker count and any window size all put identical
bytes on the wire.  The persistent store leans on the same property for
its segment determinism.
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Iterator, NamedTuple, Sequence

from repro.net.addresses import IPAddress
from repro.scanner.records import ScanObservation
from repro.snmp.engine_id import EngineId

#: Format version byte, bumped on any incompatible layout change.
WIRE_VERSION = 2

_FLAG_V6 = 0x01
_FLAG_PARSED = 0x02
#: Every valid flag byte; deleting these from a flags column leaves it empty.
_KNOWN_FLAGS = bytes((0, _FLAG_V6, _FLAG_PARSED, _FLAG_V6 | _FLAG_PARSED))

#: Narrowest-first struct codes for the adaptive integer columns.
_INT_CODES: tuple[tuple[str, int, int], ...] = (
    ("b", -(1 << 7), (1 << 7) - 1),
    ("h", -(1 << 15), (1 << 15) - 1),
    ("i", -(1 << 31), (1 << 31) - 1),
    ("q", -(1 << 63), (1 << 63) - 1),
)
#: Column code for the variable-length bigint fallback.
_BIGINT = 0xFF
#: Byte width of each fixed-width integer column code.
_INT_WIDTHS = {ord(code): struct.calcsize("<" + code) for code, __, __ in _INT_CODES}

_HEADER = struct.Struct("<BI")


class WireFormatError(ValueError):
    """Raised when a blob is not a valid observation batch."""


def _encode_lengths(values: "list[bytes]") -> bytes:
    """A variable-length column: the u16 lengths, then the values."""
    return struct.pack(f"<{len(values)}H", *map(len, values)) + b"".join(values)


def _encode_int_column(values: "list[int]") -> bytes:
    """One column: a width-code byte followed by the packed values."""
    if values:
        lo, hi = min(values), max(values)
        for code, cmin, cmax in _INT_CODES:
            if cmin <= lo and hi <= cmax:
                return bytes([ord(code)]) + struct.pack(
                    f"<{len(values)}{code}", *values
                )
    # Arbitrary-precision escape: corrupted-but-parseable BER replies can
    # decode to integers wider than 64 bits, and they must round-trip.
    raws: "list[bytes]" = []
    for value in values:
        if value >= 0:
            width = value.bit_length() // 8 + 1
        else:
            width = (value + 1).bit_length() // 8 + 1
        raws.append(value.to_bytes(width, "big", signed=True))
    return bytes([_BIGINT]) + _encode_lengths(raws)


def encode_observations(observations: "Sequence[ScanObservation]") -> bytes:
    """Pack a batch of observations into one columnar blob."""
    count = len(observations)
    flags = bytearray(count)
    addresses = bytearray()
    boots: "list[int]" = []
    times: "list[int]" = []
    responses: "list[int]" = []
    wire_bytes: "list[int]" = []
    engine_ids: "list[bytes]" = []
    for row, obs in enumerate(observations):
        flag = 0
        if obs.address.version == 6:
            flag |= _FLAG_V6
            addresses += int(obs.address).to_bytes(16, "big")
        else:
            addresses += int(obs.address).to_bytes(4, "big")
        if obs.engine_id is not None:
            flag |= _FLAG_PARSED
            engine_ids.append(obs.engine_id.raw)
        flags[row] = flag
        boots.append(obs.engine_boots)
        times.append(obs.engine_time)
        responses.append(obs.response_count)
        wire_bytes.append(obs.wire_bytes)
    return b"".join(
        (
            _HEADER.pack(WIRE_VERSION, count),
            bytes(flags),
            bytes(addresses),
            struct.pack(f"<{count}d", *(obs.recv_time for obs in observations)),
            _encode_int_column(boots),
            _encode_int_column(times),
            _encode_int_column(responses),
            _encode_int_column(wire_bytes),
            _encode_lengths(engine_ids),
        )
    )


class _Lengths(NamedTuple):
    """A variable-length column: where its values start, and their lengths."""

    start: int  # offset of the first value
    lengths: "tuple[int, ...]"

    def item(self, blob: bytes, index: int) -> bytes:
        begin = self.start + sum(self.lengths[:index])
        return blob[begin : begin + self.lengths[index]]

    def items(self, blob: bytes) -> "Iterator[bytes]":
        begin = self.start
        for length in self.lengths:
            end = begin + length
            yield blob[begin:end]
            begin = end


class _IntColumn(NamedTuple):
    """Where one adaptive-width integer column's values sit in a blob."""

    code: str  # struct format character; empty for the bigint escape
    start: int  # offset of the first packed value
    bigints: "_Lengths | None"  # the values of a bigint-escape column

    def value(self, blob: bytes, row: int) -> int:
        if self.bigints is not None:
            return int.from_bytes(self.bigints.item(blob, row), "big", signed=True)
        size = _INT_WIDTHS[ord(self.code)]
        (value,) = struct.unpack_from("<" + self.code, blob, self.start + row * size)
        return value

    def values(self, blob: bytes, count: int) -> "list[int]":
        if self.bigints is not None:
            return [int.from_bytes(raw, "big", signed=True) for raw in self.bigints.items(blob)]
        return list(struct.unpack_from(f"<{count}{self.code}", blob, self.start))


class _Frame(NamedTuple):
    """The checked layout of one blob: where every column lives."""

    count: int
    flags: bytes
    v6_rows: int
    addresses: int  # offset of the address column
    recv_times: int  # offset of the receive-time column
    ints: "tuple[_IntColumn, ...]"  # boots, engine time, responses, wire bytes
    engine_ids: _Lengths  # one value per parsed row


def _frame_lengths(
    blob: bytes, offset: int, count: int, what: str
) -> "tuple[_Lengths, int]":
    """Check the ``count``-value variable-length column at ``offset``."""
    start = offset + 2 * count
    if start > len(blob):
        raise WireFormatError(f"truncated {what} length column")
    lengths = struct.unpack_from(f"<{count}H", blob, offset)
    end = start + sum(lengths)
    if end > len(blob):
        raise WireFormatError(f"truncated {what} column")
    return _Lengths(start, lengths), end


def _frame_int_column(blob: bytes, offset: int, count: int) -> "tuple[_IntColumn, int]":
    if offset >= len(blob):
        raise WireFormatError("truncated integer column")
    code = blob[offset]
    offset += 1
    if code == _BIGINT:
        bigints, end = _frame_lengths(blob, offset, count, "bigint")
        return _IntColumn("", offset, bigints), end
    if code not in _INT_WIDTHS:
        raise WireFormatError(f"unknown integer column code {code:#04x}")
    end = offset + count * _INT_WIDTHS[code]
    if end > len(blob):
        raise WireFormatError("truncated integer column body")
    return _IntColumn(chr(code), offset, None), end


def _frame(blob: bytes) -> _Frame:
    """Check the whole layout of a blob without building rows.

    Both :func:`decode_observations` and :func:`find_observation` read
    through this, so a blob one of them rejects the other rejects too.
    """
    if len(blob) < _HEADER.size:
        raise WireFormatError("truncated batch header")
    version, count = _HEADER.unpack_from(blob, 0)
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    offset = _HEADER.size
    flags = blob[offset : offset + count]
    if len(flags) != count:
        raise WireFormatError("truncated flags column")
    if flags.translate(None, _KNOWN_FLAGS):
        raise WireFormatError("unknown row flag")
    offset += count
    addresses = offset
    v6_rows = flags.count(_FLAG_V6) + flags.count(_FLAG_V6 | _FLAG_PARSED)
    offset += 4 * count + 12 * v6_rows
    if offset > len(blob):
        raise WireFormatError("truncated address column")
    recv_times = offset
    offset += 8 * count
    if offset > len(blob):
        raise WireFormatError("truncated receive-time column")
    ints: "list[_IntColumn]" = []
    for __ in range(4):
        column, offset = _frame_int_column(blob, offset, count)
        ints.append(column)
    parsed_rows = flags.count(_FLAG_PARSED) + flags.count(_FLAG_V6 | _FLAG_PARSED)
    engine_ids, offset = _frame_lengths(blob, offset, parsed_rows, "engine-ID")
    if offset != len(blob):
        raise WireFormatError("trailing bytes after observation batch")
    return _Frame(count, flags, v6_rows, addresses, recv_times, tuple(ints), engine_ids)


def decode_observations(blob: bytes) -> "list[ScanObservation]":
    """Unpack a columnar blob back into observation records."""
    frame = _frame(blob)
    count = frame.count
    addresses: "list[IPAddress]" = []
    offset = frame.addresses
    for flag in frame.flags:
        if flag & _FLAG_V6:
            addresses.append(ipaddress.IPv6Address(blob[offset : offset + 16]))
            offset += 16
        else:
            addresses.append(ipaddress.IPv4Address(blob[offset : offset + 4]))
            offset += 4
    recv_times = struct.unpack_from(f"<{count}d", blob, frame.recv_times)
    boots, etimes, responses, wire_bytes = (c.values(blob, count) for c in frame.ints)
    engine_ids = frame.engine_ids.items(blob)
    observations: "list[ScanObservation]" = []
    for row, flag in enumerate(frame.flags):
        engine_id = None
        if flag & _FLAG_PARSED:
            engine_id = EngineId(next(engine_ids))
        observations.append(
            ScanObservation(
                address=addresses[row],
                recv_time=recv_times[row],
                engine_id=engine_id,
                engine_boots=boots[row],
                engine_time=etimes[row],
                response_count=responses[row],
                wire_bytes=wire_bytes[row],
            )
        )
    return observations


def _find_row(blob: bytes, frame: _Frame, key: bytes) -> "tuple[int, int] | None":
    """(row, address offset) of the first row whose packed address is ``key``."""
    want_v6 = len(key) == 16
    start = frame.addresses
    if frame.v6_rows in (0, frame.count):
        # One family: the column is a fixed stride, so a C-level substring
        # search plus an alignment check finds the row without building
        # any object.  Unaligned hits straddle two rows (or sit inside a
        # v6 row) and are skipped.
        if frame.count == 0 or (frame.v6_rows == frame.count) != want_v6:
            return None
        stride = len(key)
        pos = blob.find(key, start, frame.recv_times)
        while pos != -1:
            if (pos - start) % stride == 0:
                return (pos - start) // stride, pos
            pos = blob.find(key, pos + 1, frame.recv_times)
        return None
    offset = start
    for row, flag in enumerate(frame.flags):
        width = 16 if flag & _FLAG_V6 else 4
        if width == len(key) and blob[offset : offset + width] == key:
            return row, offset
        offset += width
    return None


def find_observation(blob: bytes, address: IPAddress) -> "ScanObservation | None":
    """The first row of a blob whose address is ``address``, or ``None``.

    Answers exactly what scanning :func:`decode_observations` for the
    first matching row would, and rejects the same malformed blobs with
    the same :class:`WireFormatError`, but decodes only the matching row:
    the key is found in the raw packed address column.
    """
    frame = _frame(blob)
    found = _find_row(blob, frame, address.packed)
    if found is None:
        return None
    row, offset = found
    flag = frame.flags[row]
    stored: IPAddress
    if flag & _FLAG_V6:
        stored = ipaddress.IPv6Address(blob[offset : offset + 16])
    else:
        stored = ipaddress.IPv4Address(blob[offset : offset + 4])
    if stored != address:
        # A scoped IPv6 key packs like its unscoped form, yet no stored
        # row (which never carries a scope) equals it.
        return None
    engine_id = None
    if flag & _FLAG_PARSED:
        parsed_before = frame.flags.count(_FLAG_PARSED, 0, row) + frame.flags.count(
            _FLAG_V6 | _FLAG_PARSED, 0, row
        )
        engine_id = EngineId(frame.engine_ids.item(blob, parsed_before))
    (recv_time,) = struct.unpack_from("<d", blob, frame.recv_times + 8 * row)
    boots, etime, responses, wire_bytes = (c.value(blob, row) for c in frame.ints)
    return ScanObservation(
        address=stored,
        recv_time=recv_time,
        engine_id=engine_id,
        engine_boots=boots,
        engine_time=etime,
        response_count=responses,
        wire_bytes=wire_bytes,
    )

__all__ = [
    "WIRE_VERSION",
    "WireFormatError",
    "decode_observations",
    "encode_observations",
    "find_observation",
]
