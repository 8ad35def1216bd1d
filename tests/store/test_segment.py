"""Segment file format: round trips, footer pruning, corruption handling."""

import ipaddress
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.scanner.records import ScanObservation
from repro.scanner.wire import WireFormatError, encode_observations
from repro.snmp.engine_id import EngineId
from repro.store.segment import (
    SEGMENT_VERSION,
    SegmentError,
    SegmentMeta,
    SegmentReader,
    iter_segment,
    read_segment_meta,
    segment_fingerprint,
    write_segment,
)

from tests.store.conftest import make_engine, make_obs

#: On-disk footer entry: block offset, length, rows, min/max address.
FOOTER_ENTRY = struct.Struct("<QII16s16s")

META = SegmentMeta(
    round_id=3, label="v4-1", ip_version=4, started_at=1234.5, part=0
)


FORMAT_2_SEGMENT = bytes.fromhex(
    "5253454702460000007b2269705f76657273696f6e223a342c226c6162656c223a2276"
    "342d31222c2270617274223a302c22726f756e64223a332c22737461727465645f6174"
    "223a313233342e357d5600000001030000000002020a0100010a0100020a0100030000"
    "000000408f400000000000488f400000000000508f40620001026200070e6201010162"
    "4040400b0080000009030000000000010b008000000903000000000002010000006ac5"
    "f043530000000000000056000000030000000000000000000000000000000a01000100"
    "00000000000000000000000a0100033800000047455352"
)


def sample_rows(n=10):
    return [
        make_obs(
            f"10.1.{i // 250}.{i % 250 + 1}",
            1000.0 + i,
            make_engine(i) if i % 3 else None,
            boots=i,
            engine_time=i * 7,
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_rows_and_meta_survive(self, tmp_path):
        path = tmp_path / "a.seg"
        rows = sample_rows(25)
        assert write_segment(path, META, rows, block_rows=8) == 25
        assert read_segment_meta(path) == META
        assert list(iter_segment(path)) == rows

    def test_empty_segment_is_valid(self, tmp_path):
        path = tmp_path / "empty.seg"
        assert write_segment(path, META, []) == 0
        reader = SegmentReader(path)
        assert reader.rows == 0
        assert list(reader.observations()) == []
        assert reader.lookup(ipaddress.ip_address("10.1.0.1")) is None

    def test_ipv6_and_malformed_rows(self, tmp_path):
        path = tmp_path / "v6.seg"
        rows = [
            make_obs("2001:db8::1", 10.0, make_engine(1)),
            make_obs("2001:db8::2", 11.0, None),
        ]
        write_segment(path, META, rows)
        assert list(iter_segment(path)) == rows

    def test_block_chunking_invisible_to_readers(self, tmp_path):
        rows = sample_rows(30)
        small, large = tmp_path / "s.seg", tmp_path / "l.seg"
        write_segment(small, META, rows, block_rows=4)
        write_segment(large, META, rows, block_rows=1000)
        assert list(iter_segment(small)) == list(iter_segment(large))
        assert len(SegmentReader(small).blocks) == 8
        assert len(SegmentReader(large).blocks) == 1

    def test_deterministic_bytes(self, tmp_path):
        rows = sample_rows(17)
        p1, p2 = tmp_path / "1.seg", tmp_path / "2.seg"
        write_segment(p1, META, rows, block_rows=5)
        write_segment(p2, META, iter(rows), block_rows=5)
        assert p1.read_bytes() == p2.read_bytes()
        assert segment_fingerprint([p1]) == segment_fingerprint([p2])


class TestFooterIndex:
    def test_lookup_prunes_blocks(self, tmp_path):
        path = tmp_path / "a.seg"
        rows = sample_rows(40)
        write_segment(path, META, rows, block_rows=10)
        reader = SegmentReader(path)
        for row in rows:
            assert reader.lookup(row.address) == row
        assert reader.lookup(ipaddress.ip_address("203.0.113.1")) is None

    def test_footer_ranges_cover_blocks(self, tmp_path):
        path = tmp_path / "a.seg"
        write_segment(path, META, sample_rows(23), block_rows=10)
        reader = SegmentReader(path)
        assert [b.rows for b in reader.blocks] == [10, 10, 3]
        for block in reader.blocks:
            decoded = reader.read_block(block)
            addresses = [int(o.address) for o in decoded]
            assert block.min_address == min(addresses)
            assert block.max_address == max(addresses)


class TestCorruption:
    def test_not_a_segment(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"not a segment at all")
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.seg"
        write_segment(path, META, sample_rows(3))
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_format_2_file_is_rejected(self, tmp_path):
        """A segment written before the wire codec moved its lengths into
        a column (``sample_rows(3)`` under ``META``, format 2)."""
        path = tmp_path / "v2.seg"
        path.write_bytes(FORMAT_2_SEGMENT)
        assert SEGMENT_VERSION == 3
        with pytest.raises(SegmentError, match="segment version 2"):
            SegmentReader(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.seg"
        write_segment(path, META, sample_rows(6))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_bad_end_magic(self, tmp_path):
        path = tmp_path / "m.seg"
        write_segment(path, META, sample_rows(3))
        data = bytearray(path.read_bytes())
        data[-4:] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_footer_overrun(self, tmp_path):
        path = tmp_path / "f.seg"
        write_segment(path, META, sample_rows(3))
        data = bytearray(path.read_bytes())
        # Claim a footer longer than the file.
        data[-8:-4] = struct.pack("<I", 1 << 20)
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentError):
            SegmentReader(path)

    @pytest.mark.parametrize("how", ["file-cut", "footer-cut"])
    def test_truncated_block_fails_lookup_closed(self, tmp_path, how):
        """A lookup into a truncated block raises; it never answers None."""
        path = tmp_path / "b.seg"
        rows = sample_rows(20)
        write_segment(path, META, rows, block_rows=10)
        if how == "file-cut":
            # The footer was read at open; the block bytes vanish after.
            reader = SegmentReader(path)
            last = reader.blocks[-1]
            with path.open("r+b") as handle:
                handle.truncate(last.offset + last.length - 1)
        else:
            # The footer claims one byte fewer than the block holds.
            last = SegmentReader(path).blocks[-1]
            data = bytearray(path.read_bytes())
            entry = len(data) - 8 - FOOTER_ENTRY.size  # last entry, before the trailer
            fields = list(FOOTER_ENTRY.unpack_from(data, entry))
            fields[1] -= 1
            FOOTER_ENTRY.pack_into(data, entry, *fields)
            path.write_bytes(bytes(data))
            reader = SegmentReader(path)
            assert reader.blocks[-1].length == last.length - 1
        for row in rows[10:]:
            with pytest.raises((SegmentError, WireFormatError)):
                reader.lookup(row.address)

    def test_bad_block_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_segment(tmp_path / "x.seg", META, [], block_rows=0)


# -- whole-file fuzz -----------------------------------------------------------

_ADDRESSES = st.one_of(
    st.builds(ipaddress.IPv4Address, st.integers(0, (1 << 32) - 1)),
    st.builds(ipaddress.IPv6Address, st.integers(0, (1 << 128) - 1)),
    st.sampled_from([ipaddress.ip_address(a) for a in ("10.0.0.1", "::", "0.0.0.0")]),
)
_INTS = st.one_of(st.integers(-3, 300), st.integers(-(1 << 80), 1 << 80))
_ROWS = st.lists(
    st.builds(
        ScanObservation,
        address=_ADDRESSES,
        recv_time=st.floats(allow_nan=False, allow_infinity=False),
        engine_id=st.none() | st.builds(EngineId, st.binary(max_size=24)),
        engine_boots=_INTS,
        engine_time=_INTS,
        response_count=_INTS,
        wire_bytes=_INTS,
    ),
    max_size=20,
)
_METAS = st.builds(
    SegmentMeta,
    round_id=st.integers(0, 1 << 40),
    label=st.text(max_size=12),
    ip_version=st.sampled_from([4, 6]),
    started_at=st.floats(allow_nan=False, allow_infinity=False),
    part=st.integers(0, 1000),
)
_SEGMENTS = st.tuples(_METAS, _ROWS, st.integers(1, 6))

#: What a corrupt segment may raise: anything else is an escape.
_CLEAN = (SegmentError, WireFormatError)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.seg"


def _write(path, segment):
    meta, rows, block_rows = segment
    write_segment(path, meta, rows, block_rows=block_rows)
    return path.read_bytes()


def _regions(data):
    """Byte ranges of the head, meta, blocks, footer and trailer."""
    (meta_len,) = struct.unpack_from("<I", data, 5)
    (footer_len,) = struct.unpack_from("<I", data, len(data) - 8)
    meta_end = 9 + meta_len
    footer_start = len(data) - 8 - footer_len
    return {
        "head": (0, 9),
        "meta": (9, meta_end),
        "blocks": (meta_end, footer_start),
        "footer": (footer_start, len(data) - 8),
        "trailer": (len(data) - 8, len(data)),
    }


def _keys(rows):
    return {o.address for o in rows} | {
        ipaddress.ip_address("203.0.113.9"),
        ipaddress.ip_address("2001:db8:ffff::9"),
    }


def _read_everything(path, keys):
    reader = SegmentReader(path)
    rows = list(reader.observations())
    return reader.meta, rows, [reader.lookup(key) for key in keys]


def _first(rows, address):
    return next((o for o in rows if o.address == address), None)


def _same_row(a, b):
    # Through the codec: a flipped receive time can be NaN, never == itself.
    return (a is None) == (b is None) and (
        a is None or encode_observations([a]) == encode_observations([b])
    )


def _flip(data, bit):
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


class TestFailClosedFiles:
    """Truncated or bit-flipped segment files written by ``write_segment``.

    Damage to the head, meta, footer or trailer must surface as a clean
    corruption error from opening, reading or looking up — never as a
    ``struct.error``/``IndexError``/``UnicodeDecodeError`` and never as a
    silently short or wrong answer.  Damage inside block payloads is the
    wire codec's to catch; where a full read accepts the file, every point
    lookup must agree with it.
    """

    @settings(max_examples=200, deadline=None)
    @given(_SEGMENTS, st.data())
    def test_truncation_at_any_offset(self, fuzz_path, segment, data):
        intact = _write(fuzz_path, segment)
        cut = data.draw(st.integers(0, len(intact) - 1))
        fuzz_path.write_bytes(intact[:cut])
        with pytest.raises(_CLEAN):
            _read_everything(fuzz_path, _keys(segment[1]))

    @settings(max_examples=400, deadline=None)
    @given(
        _SEGMENTS,
        st.sampled_from(["head", "meta", "footer", "trailer"]),
        st.data(),
    )
    def test_framing_bit_flips(self, fuzz_path, segment, region, data):
        intact = _write(fuzz_path, segment)
        start, end = _regions(intact)[region]
        bit = data.draw(st.integers(start * 8, end * 8 - 1))
        fuzz_path.write_bytes(_flip(intact, bit))
        with pytest.raises(_CLEAN):
            _read_everything(fuzz_path, _keys(segment[1]))

    @settings(max_examples=400, deadline=None)
    @given(_SEGMENTS.filter(lambda s: s[1]), st.data())
    def test_block_payload_bit_flips(self, fuzz_path, segment, data):
        intact = _write(fuzz_path, segment)
        start, end = _regions(intact)["blocks"]
        bit = data.draw(st.integers(start * 8, end * 8 - 1))
        fuzz_path.write_bytes(_flip(intact, bit))
        keys = _keys(segment[1])
        reader = SegmentReader(fuzz_path)
        try:
            rows = list(reader.observations())
        except _CLEAN:
            for key in keys:  # may raise a clean error, nothing else
                try:
                    reader.lookup(key)
                except _CLEAN:
                    pass
            return
        for key in keys | {o.address for o in rows}:
            assert _same_row(reader.lookup(key), _first(rows, key)), key
