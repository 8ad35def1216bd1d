"""Round-trip tests for the columnar IPC observation format."""

import ipaddress
import pickle
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.scanner.records import ScanObservation
from repro.scanner.wire import (
    WIRE_VERSION,
    WireFormatError,
    decode_observations,
    encode_observations,
    find_observation,
)
from repro.snmp.engine_id import EngineId


def _obs(
    address="192.0.2.1",
    recv_time=1234.5,
    engine_id=b"\x80\x00\x00\x09\x03\x00\x00\x0c\x01\x02\x03",
    engine_boots=1,
    engine_time=1000,
    response_count=1,
    wire_bytes=64,
):
    return ScanObservation(
        address=ipaddress.ip_address(address),
        recv_time=recv_time,
        engine_id=None if engine_id is None else EngineId(engine_id),
        engine_boots=engine_boots,
        engine_time=engine_time,
        response_count=response_count,
        wire_bytes=wire_bytes,
    )


def _random_obs(rng):
    if rng.random() < 0.5:
        address = str(ipaddress.IPv4Address(rng.getrandbits(32)))
    else:
        address = str(ipaddress.IPv6Address(rng.getrandbits(128)))
    parsed = rng.random() < 0.8
    engine_id = bytes(
        rng.getrandbits(8) for __ in range(rng.randint(0, 40))
    ) if parsed else None
    magnitude = rng.choice((1 << 6, 1 << 14, 1 << 30, 1 << 62, 1 << 100))
    return _obs(
        address=address,
        recv_time=rng.random() * 1e6,
        engine_id=engine_id,
        engine_boots=rng.randint(-magnitude, magnitude),
        engine_time=rng.randint(-magnitude, magnitude),
        response_count=rng.randint(1, 300),
        wire_bytes=rng.randint(0, 5000),
    )


class TestRoundTrip:
    def test_empty_batch(self):
        assert decode_observations(encode_observations([])) == []

    def test_single_observation(self):
        batch = [_obs()]
        assert decode_observations(encode_observations(batch)) == batch

    def test_mixed_families_and_unparsed(self):
        batch = [
            _obs(),
            _obs(address="2001:db8::1", engine_id=b"", engine_boots=0),
            _obs(address="198.51.100.7", engine_id=None, engine_time=-3),
            _obs(address="2001:db8::ffff", response_count=250, wire_bytes=65507),
        ]
        assert decode_observations(encode_observations(batch)) == batch

    def test_randomized_batches_round_trip(self):
        """Property test over the whole value space the scan can produce."""
        rng = random.Random(2021)
        for __ in range(50):
            batch = [_random_obs(rng) for __ in range(rng.randint(0, 40))]
            assert decode_observations(encode_observations(batch)) == batch

    def test_bigint_escape(self):
        """Corrupted-but-parseable BER can yield arbitrary-size integers."""
        batch = [
            _obs(engine_boots=1 << 200, engine_time=-(1 << 90)),
            _obs(engine_boots=-1, engine_time=0),
        ]
        assert decode_observations(encode_observations(batch)) == batch

    def test_adaptive_width_boundaries(self):
        for value in (127, 128, -128, -129, 32767, 32768, 2**31 - 1,
                      2**31, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1):
            batch = [_obs(engine_boots=value)]
            assert decode_observations(encode_observations(batch)) == batch

    def test_order_preserved(self):
        batch = [_obs(address=f"192.0.2.{i}") for i in range(1, 20)]
        assert decode_observations(encode_observations(batch)) == batch

    def test_compact_versus_per_instance_pickle(self):
        """The reason this module exists: well over 3x smaller."""
        rng = random.Random(7)
        batch = [_random_obs(rng) for __ in range(256)]
        blob = encode_observations(batch)
        pickled = sum(len(pickle.dumps(obs)) for obs in batch)
        assert len(blob) * 3 <= pickled


class TestMalformedBlobs:
    def test_truncated_header(self):
        with pytest.raises(WireFormatError):
            decode_observations(b"\x01")

    def test_unsupported_version(self):
        blob = bytearray(encode_observations([_obs()]))
        blob[0] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            decode_observations(bytes(blob))

    @pytest.mark.parametrize("cut", [6, 9, 12, -10, -3, -1])
    def test_truncated_body(self, cut):
        blob = encode_observations([_obs(), _obs(address="2001:db8::9")])
        with pytest.raises(WireFormatError):
            decode_observations(blob[:cut])

    def test_trailing_bytes_rejected(self):
        blob = encode_observations([_obs()])
        with pytest.raises(WireFormatError, match="trailing"):
            decode_observations(blob + b"\x00")


# -- point lookups ------------------------------------------------------------

_V4 = st.builds(ipaddress.IPv4Address, st.integers(0, (1 << 32) - 1))
_V6 = st.builds(ipaddress.IPv6Address, st.integers(0, (1 << 128) - 1))
#: A small pool, so batches repeat addresses and keys collide across rows.
_POOL = st.sampled_from(
    [ipaddress.ip_address(a) for a in (
        "10.0.0.1", "10.0.0.2", "0.0.0.0", "1.2.3.4", "2001:db8::a00:1", "::",
    )]
)
_INTS = st.one_of(st.integers(-3, 300), st.integers(-(1 << 80), 1 << 80))


def _rows(addresses):
    return st.lists(
        st.builds(
            ScanObservation,
            address=addresses,
            recv_time=st.floats(allow_nan=False, allow_infinity=False),
            engine_id=st.none() | st.builds(EngineId, st.binary(max_size=24)),
            engine_boots=_INTS,
            engine_time=_INTS,
            response_count=_INTS,
            wire_bytes=_INTS,
        ),
        max_size=12,
    )


#: Single-family batches take the substring-search path, mixed ones the
#: flag walk; both must see v4/v6 keys, parsed/unparsed rows and bigints.
_BATCHES = st.one_of(
    _rows(_V4 | _POOL.filter(lambda a: a.version == 4)),
    _rows(_V6 | _POOL.filter(lambda a: a.version == 6)),
    _rows(_V4 | _V6 | _POOL),
)


def _probe_keys(batch):
    """Every stored address, plus every 4- and 16-byte window of the
    packed address column: windows that straddle two rows or sit inside
    a v6 row occur in the raw bytes without being a row's address."""
    column = b"".join(obs.address.packed for obs in batch)
    keys = {obs.address for obs in batch}
    for width, family in ((4, ipaddress.IPv4Address), (16, ipaddress.IPv6Address)):
        for offset in range(len(column) - width + 1):
            keys.add(family(column[offset : offset + width]))
    keys.add(ipaddress.ip_address("203.0.113.9"))
    keys.add(ipaddress.ip_address("2001:db8:ffff::9"))
    return keys


def _first(rows, address):
    return next((obs for obs in rows if obs.address == address), None)


class TestFindObservation:
    @settings(max_examples=200, deadline=None)
    @given(_BATCHES)
    def test_matches_the_first_decoded_row(self, batch):
        blob = encode_observations(batch)
        rows = decode_observations(blob)
        for key in _probe_keys(batch):
            assert find_observation(blob, key) == _first(rows, key)

    def test_unaligned_hits_are_skipped(self):
        batch = [_obs(address="1.2.3.4"), _obs(address="5.6.7.8")]
        blob = encode_observations(batch)
        assert find_observation(blob, ipaddress.ip_address("3.4.5.6")) is None
        assert find_observation(blob, ipaddress.ip_address("5.6.7.8")) == batch[1]

    def test_v4_key_inside_a_v6_row_is_not_a_match(self):
        batch = [_obs(address="2001:db8::a00:1"), _obs(address="10.0.0.2")]
        blob = encode_observations(batch)
        assert find_observation(blob, ipaddress.ip_address("10.0.0.1")) is None
        assert find_observation(blob, ipaddress.ip_address("10.0.0.2")) == batch[1]

    def test_first_duplicate_wins(self):
        batch = [_obs(engine_boots=1), _obs(engine_boots=2)]
        found = find_observation(encode_observations(batch), batch[0].address)
        assert found is not None and found.engine_boots == 1

    def test_scoped_key_never_matches(self):
        blob = encode_observations([_obs(address="fe80::1")])
        assert find_observation(blob, ipaddress.ip_address("fe80::1%eth0")) is None

    def test_empty_batch(self):
        assert find_observation(encode_observations([]), ipaddress.ip_address("10.0.0.1")) is None


def _outcome(fn, *args):
    """('error', None) when ``fn`` rejects the blob, else ('ok', result)."""
    try:
        return "ok", fn(*args)
    except WireFormatError:
        return "error", None


def _same_row(a, b):
    # Compared through the codec: a bit flip can turn a receive time into
    # NaN, which never compares equal to itself.
    return (a is None) == (b is None) and (
        a is None or encode_observations([a]) == encode_observations([b])
    )


class TestFailClosed:
    """Truncated or bit-flipped blobs: :func:`find_observation` rejects
    exactly the blobs :func:`decode_observations` rejects, and where both
    accept one they agree on every row."""

    @staticmethod
    def _check(original, corrupted):
        decoded, rows = _outcome(decode_observations, corrupted)
        keys = {obs.address for obs in original} | {ipaddress.ip_address("203.0.113.9")}
        if rows is not None:
            keys |= {obs.address for obs in rows}
        for key in keys:
            found, row = _outcome(find_observation, corrupted, key)
            assert found == decoded, key
            if rows is not None:
                assert _same_row(row, _first(rows, key)), key

    @settings(max_examples=200, deadline=None)
    @given(_BATCHES.filter(bool), st.data())
    def test_truncations(self, batch, data):
        blob = encode_observations(batch)
        cut = data.draw(st.integers(0, len(blob) - 1))
        self._check(batch, blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(_BATCHES.filter(bool), st.data())
    def test_bit_flips(self, batch, data):
        blob = bytearray(encode_observations(batch))
        bit = data.draw(st.integers(0, len(blob) * 8 - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
        self._check(batch, bytes(blob))

    def test_unknown_integer_column_code(self):
        blob = bytearray(encode_observations([_obs()]))
        code_offset = 5 + 1 + 4 + 8  # header, flags, address, receive time
        assert blob[code_offset] == ord("b")
        blob[code_offset] = ord("c")
        for fn, args in ((decode_observations, ()), (find_observation, (_obs().address,))):
            with pytest.raises(WireFormatError, match="integer column code"):
                fn(bytes(blob), *args)

    def test_unknown_row_flag(self):
        blob = bytearray(encode_observations([_obs()]))
        blob[5] |= 0x04
        for fn, args in ((decode_observations, ()), (find_observation, (_obs().address,))):
            with pytest.raises(WireFormatError, match="flag"):
                fn(bytes(blob), *args)


# -- variable-length columns (wire format 2) ----------------------------------

#: ``[_obs()]`` as wire format 1 wrote it: each engine ID carried its own
#: u16 length prefix inline.  Format 2 moved the lengths into a column.
_V1_BLOB = bytes.fromhex(
    "010100000002c000020100000000004a9340620168e803620162400b00800000090300000c010203"
)

_BIGINTS = st.one_of(
    st.integers(-(1 << 200), -(1 << 63) - 1),
    st.integers(1 << 63, 1 << 200),
    st.integers(-300, 300),
)
_WIDE_ROWS = st.lists(
    st.builds(
        ScanObservation,
        address=_V4 | _V6 | _POOL,
        recv_time=st.floats(allow_nan=False, allow_infinity=False),
        engine_id=st.none() | st.builds(EngineId, st.binary(max_size=64)),
        engine_boots=_BIGINTS,
        engine_time=_INTS,
        response_count=_BIGINTS,
        wire_bytes=_INTS,
    ),
    min_size=1,
    max_size=12,
)


def _engine_id_lengths(batch):
    """Byte range of the engine-ID length column: the blob's tail is the
    u16 lengths followed by the engine IDs themselves."""
    raws = [obs.engine_id.raw for obs in batch if obs.engine_id is not None]
    blob = encode_observations(batch)
    start = len(blob) - sum(map(len, raws)) - 2 * len(raws)
    return start, start + 2 * len(raws)


class TestVariableLengthColumns:
    def test_format_1_blob_is_rejected(self):
        assert WIRE_VERSION == 2
        for fn, args in ((decode_observations, ()), (find_observation, (_obs().address,))):
            with pytest.raises(WireFormatError, match="version 1"):
                fn(_V1_BLOB, *args)

    def test_engine_ids_follow_their_length_column(self):
        raws = [b"\x80\x00\x00\x09\x03abc", b"", b"\x01" * 64]
        batch = [_obs(engine_id=raw) for raw in raws] + [_obs(engine_id=None)]
        blob = encode_observations(batch)
        tail = struct.pack("<3H", 8, 0, 64) + b"".join(raws)
        assert blob.endswith(tail)
        assert decode_observations(blob) == batch

    def test_bigint_values_follow_their_length_column(self):
        batch = [_obs(engine_boots=1 << 70), _obs(engine_boots=-1)]
        blob = encode_observations(batch)
        column = bytes([0xFF]) + struct.pack("<2H", 9, 1) + (1 << 70).to_bytes(9, "big") + b"\xff"
        assert column in blob
        assert decode_observations(blob) == batch

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_ROWS)
    def test_round_trip_with_bigints_and_long_engine_ids(self, batch):
        blob = encode_observations(batch)
        rows = decode_observations(blob)
        assert rows == batch
        for key in {obs.address for obs in batch} | {ipaddress.ip_address("203.0.113.9")}:
            assert find_observation(blob, key) == _first(rows, key)

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_ROWS.filter(lambda b: any(o.engine_id is not None for o in b)), st.data())
    def test_engine_id_length_flip_is_rejected(self, batch, data):
        """Any one-bit change to a length moves the column's end, so the
        blob no longer ends where its last engine ID does."""
        start, end = _engine_id_lengths(batch)
        bit = data.draw(st.integers(start * 8, end * 8 - 1))
        blob = bytearray(encode_observations(batch))
        blob[bit // 8] ^= 1 << (bit % 8)
        for fn, args in ((decode_observations, ()), (find_observation, (batch[0].address,))):
            with pytest.raises(WireFormatError):
                fn(bytes(blob), *args)

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_ROWS, st.data())
    def test_bigint_length_flip_fails_closed(self, batch, data):
        batch = [_obs(engine_boots=1 << 70)] + batch
        blob = bytearray(encode_observations(batch))
        # Boots, the first integer column, is a bigint escape: a length
        # flip there shifts every column after it.
        offset = 5 + len(batch) + sum(len(o.address.packed) for o in batch) + 8 * len(batch)
        assert blob[offset] == 0xFF
        bit = data.draw(st.integers((offset + 1) * 8, (offset + 1 + 2 * len(batch)) * 8 - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
        TestFailClosed._check(batch, bytes(blob))
