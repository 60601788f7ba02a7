"""Container format round-trips and corruption handling."""

import io
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaseqrng.io import (
    _HEADER,
    KIND_BITS,
    KIND_REPORT,
    KIND_SAMPLES,
    BadMagicError,
    FormatError,
    TruncatedFileError,
    UnsupportedVersionError,
    _write_container,
    read_bits,
    read_report,
    read_samples,
    write_bits,
    write_report,
    write_samples,
)
from phaseqrng.model import BitStream, SampleBlock

from conftest import pack_bits


def _sample_block(codes, bits=8, seed=7):
    return SampleBlock(
        samples=np.asarray(codes, dtype=np.int16),
        adc_bits=bits,
        sample_rate_hz=500e6,
        adc_scale=3.2e-4,
        origin="simulated",
        rng_seed=seed,
    )


def _container_parts(blob: bytes):
    magic, version, kind, meta_len, payload_len = _HEADER.unpack(blob[: _HEADER.size])
    meta_end = _HEADER.size + meta_len
    return {
        "magic": magic,
        "version": version,
        "kind": kind,
        "meta": blob[_HEADER.size : meta_end],
        "payload": blob[meta_end : meta_end + payload_len],
        "payload_len": payload_len,
    }


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def test_samples_payload_bytes_are_twos_complement():
    buf = io.BytesIO()
    write_samples(_sample_block([-128, 0, 127]), buf)
    parts = _container_parts(buf.getvalue())
    assert parts["magic"] == b"QRNG"
    assert parts["payload"] == bytes([0x80, 0x00, 0x7F])


def test_samples_roundtrip_preserves_everything():
    block = _sample_block([-128, -1, 0, 1, 127], seed=123456789)
    buf = io.BytesIO()
    n = write_samples(block, buf)
    assert n == len(buf.getvalue())
    buf.seek(0)
    back = read_samples(buf)
    np.testing.assert_array_equal(back.samples, block.samples)
    assert back.adc_bits == block.adc_bits
    assert back.sample_rate_hz == block.sample_rate_hz
    assert back.adc_scale == block.adc_scale
    assert back.origin == "simulated"
    assert back.rng_seed == 123456789


def test_samples_roundtrip_through_file(tmp_path):
    block = _sample_block(np.arange(-100, 100))
    path = tmp_path / "samples.qrng"
    write_samples(block, path)
    back = read_samples(path)
    np.testing.assert_array_equal(back.samples, block.samples)
    # a second serialisation of the read-back block is byte-identical
    buf1, buf2 = io.BytesIO(), io.BytesIO()
    write_samples(block, buf1)
    write_samples(back, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_empty_block_writes_header_only_payload():
    buf = io.BytesIO()
    write_samples(_sample_block([]), buf)
    parts = _container_parts(buf.getvalue())
    assert parts["payload_len"] == 0
    buf.seek(0)
    back = read_samples(buf)
    assert len(back) == 0


def test_sixteen_bit_samples_use_two_bytes():
    block = _sample_block([-2048, 2047], bits=12)
    buf = io.BytesIO()
    write_samples(block, buf)
    parts = _container_parts(buf.getvalue())
    assert parts["payload_len"] == 4
    buf.seek(0)
    back = read_samples(buf)
    np.testing.assert_array_equal(back.samples, [-2048, 2047])
    assert back.adc_bits == 12


@given(
    codes=st.lists(st.integers(min_value=-128, max_value=127), max_size=300),
    rate=st.floats(min_value=1.0, max_value=1e10),
    scale=st.floats(min_value=1e-9, max_value=1.0),
)
def test_samples_roundtrip_property(codes, rate, scale):
    block = SampleBlock(
        samples=np.asarray(codes, dtype=np.int16),
        adc_bits=8,
        sample_rate_hz=rate,
        adc_scale=scale,
        origin="imported",
        rng_seed=None,
    )
    buf = io.BytesIO()
    write_samples(block, buf)
    buf.seek(0)
    back = read_samples(buf)
    np.testing.assert_array_equal(back.samples, block.samples)
    # repr round-trip keeps float metadata exact
    assert back.sample_rate_hz == rate
    assert back.adc_scale == scale
    assert back.rng_seed is None


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def _good_blob():
    buf = io.BytesIO()
    write_samples(_sample_block([1, 2, 3]), buf)
    return bytearray(buf.getvalue())


def test_bad_magic_rejected():
    blob = _good_blob()
    blob[:4] = b"JUNK"
    with pytest.raises(BadMagicError):
        read_samples(io.BytesIO(bytes(blob)))


def test_unsupported_version_rejected():
    blob = _good_blob()
    blob[4:6] = struct.pack("<H", 99)
    with pytest.raises(UnsupportedVersionError):
        read_samples(io.BytesIO(bytes(blob)))


def test_truncated_payload_rejected():
    blob = _good_blob()
    with pytest.raises(TruncatedFileError):
        read_samples(io.BytesIO(bytes(blob[:-1])))


def test_truncated_header_rejected():
    with pytest.raises(TruncatedFileError):
        read_samples(io.BytesIO(b"QRN"))


def test_wrong_kind_rejected():
    buf = io.BytesIO()
    write_samples(_sample_block([1]), buf)
    buf.seek(0)
    with pytest.raises(FormatError):
        read_bits(buf)


@pytest.mark.parametrize(
    "key, value",
    [("adc_scale", "nan"), ("adc_scale", "inf"), ("sample_rate_hz", "inf")],
)
def test_non_finite_sample_metadata_rejected(key, value):
    # NaN and inf pass a bare "<= 0" check; an imported block must not
    # reach the entropy budget with either
    meta = {"sample_rate_hz": "500000000.0", "adc_bits": 8,
            "adc_scale": "0.00032", "origin": "imported", "n_samples": 3}
    meta[key] = value
    buf = io.BytesIO()
    _write_container(buf, KIND_SAMPLES, meta, bytes([1, 2, 3]))
    buf.seek(0)
    with pytest.raises(ValueError, match=f"{key} must be finite and > 0"):
        read_samples(buf)


_SAMPLE_META = b"sample_rate_hz=500000000.0\nadc_bits=8\nadc_scale=0.00032\nn_samples=3"


@pytest.mark.parametrize("reader, kind, meta, payload", [
    pytest.param(read_samples, KIND_SAMPLES,
                 _SAMPLE_META.replace(b"bits=8", b"bits=12").replace(b"=3", b"=2"),
                 bytes(3), id="12-bit-payload-one-byte-short"),
    pytest.param(read_samples, KIND_SAMPLES, _SAMPLE_META + b"\norigin=\xff",
                 bytes(3), id="metadata-not-utf8"),
    pytest.param(read_samples, KIND_SAMPLES, _SAMPLE_META.replace(b"=3", b"=xx"),
                 bytes(3), id="n_samples-not-a-number"),
    pytest.param(read_bits, KIND_BITS, b"count=x", bytes(1), id="count-not-a-number"),
    pytest.param(read_report, KIND_REPORT, b"encoding=json", b"{not json",
                 id="report-payload-not-json"),
])
def test_malformed_containers_raise_format_errors(reader, kind, meta, payload):
    blob = _HEADER.pack(b"QRNG", 1, kind, len(meta), len(payload)) + meta + payload
    with pytest.raises(FormatError):
        reader(io.BytesIO(blob))


def test_format_errors_are_value_errors():
    # callers that catch ValueError must see every container failure
    assert issubclass(BadMagicError, ValueError)
    assert issubclass(UnsupportedVersionError, ValueError)
    assert issubclass(TruncatedFileError, ValueError)


# ---------------------------------------------------------------------------
# bits
# ---------------------------------------------------------------------------


def test_bits_payload_packing():
    stream = pack_bits([1, 0, 1])
    buf = io.BytesIO()
    write_bits(stream, buf)
    parts = _container_parts(buf.getvalue())
    assert parts["payload"] == bytes([0b101])
    assert b"count=3" in parts["meta"]


def test_bits_roundtrip_with_provenance():
    stream = replace(
        pack_bits([1, 1, 0, 1, 0, 0, 0, 1, 1]),
        provenance={"source_sha256": "ab" * 32, "extraction_ratio": "0.6999"},
    )
    buf = io.BytesIO()
    write_bits(stream, buf)
    buf.seek(0)
    back = read_bits(buf)
    assert back.count == 9
    assert back.bits == stream.bits
    assert back.provenance["source_sha256"] == "ab" * 32
    assert back.provenance["extraction_ratio"] == "0.6999"


@pytest.mark.parametrize(
    "brk", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_metadata_roundtrips_every_line_break_but_newline(brk):
    # the writer rejects only "\n", so every other str.splitlines() break must
    # read back as written, in keys and values, at either end or inside
    provenance = {f"k{brk}": f"a{brk}b", "v": f"{brk}x{brk}", f"{brk}": brk}
    buf = io.BytesIO()
    write_bits(replace(pack_bits([1]), provenance=provenance), buf)
    buf.seek(0)
    assert read_bits(buf).provenance == provenance


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=500))
def test_bits_roundtrip_property(bits):
    stream = pack_bits(bits)
    buf = io.BytesIO()
    write_bits(stream, buf)
    buf.seek(0)
    back = read_bits(buf)
    assert back.count == len(bits)
    np.testing.assert_array_equal(back.as_bit_array(), bits)


def test_bits_count_payload_mismatch_rejected():
    stream = pack_bits(np.ones(16))
    buf = io.BytesIO()
    write_bits(stream, buf)
    blob = bytearray(buf.getvalue())
    # shrink the payload but leave count=16 in the metadata
    payload_len = len(blob) - _HEADER.size - len(_container_parts(bytes(blob))["meta"])
    assert payload_len == 2
    blob[11:19] = struct.pack("<Q", 1)
    with pytest.raises(TruncatedFileError):
        read_bits(io.BytesIO(bytes(blob[:-1])))


def test_bits_payload_longer_than_count_rejected():
    # 3 bits take one byte; three more zero bytes, declared in the header, are
    # a payload that disagrees with its metadata
    buf = io.BytesIO()
    write_bits(pack_bits([1, 0, 1]), buf)
    blob = bytearray(buf.getvalue())
    blob[11:19] = struct.pack("<Q", 4)
    with pytest.raises(FormatError, match="header says 3 bits"):
        read_bits(io.BytesIO(bytes(blob) + bytes(3)))


def test_bits_writer_drops_zero_slack_bytes():
    # a BitStream may carry zero bytes past its count, as bytes or as the
    # extractor's read-only view; the file holds only the bytes read_bits accepts
    for wrap in (bytes, lambda b: memoryview(np.frombuffer(b, np.uint8))):
        buf = io.BytesIO()
        write_bits(BitStream(wrap(bytes([0b101, 0, 0])), 3), buf)
        assert _container_parts(buf.getvalue())["payload"] == bytes([0b101])
        buf.seek(0)
        assert read_bits(buf) == pack_bits([1, 0, 1])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_roundtrip():
    report = {
        "qcnr": 3.38,
        "min_entropy_bits": 5.817341541048783,
        "tests": [{"name": "frequency", "pass_rate": 0.99}],
    }
    buf = io.BytesIO()
    write_report(report, buf)
    buf.seek(0)
    assert read_report(buf) == report


def test_report_file_roundtrip(tmp_path):
    path = tmp_path / "run.report"
    write_report({"a": 1}, path)
    assert read_report(path) == {"a": 1}
