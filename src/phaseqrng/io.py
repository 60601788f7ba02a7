"""Bit-exact persistence for sample blocks, bit streams and reports.

Single container format, little-endian throughout:

    offset  size  field
    0       4     magic  b"QRNG"
    4       2     format version (currently 1)
    6       1     payload kind: 1=samples, 2=bits, 3=report
    7       4     metadata length in bytes
    11      8     payload length in bytes
    19      -     metadata: UTF-8 "key=value" lines
    ...     -     payload

Sample payloads are two's-complement signed integers at the declared ADC bit
width, padded to whole bytes (1 byte per sample up to 8 bits, 2 bytes up to
16).  Bit payloads are packed LSB-first within each byte.  Report payloads
are UTF-8 JSON.

Every malformed container raises a :class:`FormatError` subclass: bad magic,
version or kind, truncation, metadata not UTF-8 or lacking a parsable key, a
payload whose length disagrees with its metadata, or a report not JSON.
"""

from __future__ import annotations

import contextlib
import csv
import json
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .model import BitStream, SampleBlock

MAGIC = b"QRNG"
VERSION = 1

KIND_SAMPLES = 1
KIND_BITS = 2
KIND_REPORT = 3

_HEADER = struct.Struct("<4sHBIQ")


class FormatError(ValueError):
    """Base class for malformed container files."""


class BadMagicError(FormatError):
    pass


class UnsupportedVersionError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


def _encode_metadata(meta: dict) -> bytes:
    lines = []
    for key, value in meta.items():
        key = str(key)
        if "=" in key or "\n" in key:
            raise ValueError(f"illegal metadata key {key!r}")
        value = str(value)
        if "\n" in value:
            raise ValueError(f"illegal metadata value for {key!r}")
        lines.append(f"{key}={value}")
    return "\n".join(lines).encode("utf-8")


def _decode_metadata(raw: bytes) -> dict[str, str]:
    meta: dict[str, str] = {}
    text = raw.decode("utf-8")
    for line in text.split("\n"):  # the writer's only separator; keep "\r" etc.
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"malformed metadata line {line!r}")
        meta[key] = value
    return meta


def _write_container(sink: BinaryIO, kind: int, meta: dict, payload: bytes | memoryview) -> int:
    meta_bytes = _encode_metadata(meta)
    header = _HEADER.pack(MAGIC, VERSION, kind, len(meta_bytes), len(payload))
    sink.write(header)
    sink.write(meta_bytes)
    sink.write(payload)
    return len(header) + len(meta_bytes) + len(payload)


def _read_exact(source: BinaryIO, n: int, what: str) -> bytes:
    data = source.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"truncated file: expected {n} bytes of {what}")
    return data


@contextlib.contextmanager
def _read_container(source, expect_kind: int):
    """Yield the metadata dict and payload of a container (path or binary file).

    A missing key or a ValueError in the ``with`` body leaves as a FormatError.
    """
    with _opened(source, "rb") as f:
        header = _read_exact(f, _HEADER.size, "header")
        magic, version, kind, meta_len, payload_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}")
        if version != VERSION:
            raise UnsupportedVersionError(f"unsupported format version {version}")
        if kind != expect_kind:
            raise FormatError(f"payload kind {kind}, expected {expect_kind}")
        raw_meta = _read_exact(f, meta_len, "metadata")
        payload = _read_exact(f, payload_len, "payload")
    try:
        yield _decode_metadata(raw_meta), payload
    except KeyError as exc:
        raise FormatError(f"missing metadata key {exc}") from exc
    except FormatError:
        raise
    except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"malformed container: {exc}") from exc


@contextlib.contextmanager
def _opened(sink_or_path, mode: str):
    """Open a path, or pass an already-open binary file object through."""
    if isinstance(sink_or_path, (str, Path)):
        with open(sink_or_path, mode) as f:
            yield f
    else:
        yield sink_or_path


def _sample_dtype(adc_bits: int) -> np.dtype:
    return np.dtype("<i1") if adc_bits <= 8 else np.dtype("<i2")


def write_samples(block: SampleBlock, sink) -> int:
    """Write a SampleBlock; returns the number of bytes written."""
    meta = {
        "sample_rate_hz": repr(block.sample_rate_hz),
        "adc_bits": block.adc_bits,
        "adc_scale": repr(block.adc_scale),
        "origin": block.origin,
        "n_samples": len(block),
    }
    if block.rng_seed is not None:
        meta["rng_seed"] = block.rng_seed
    payload = block.samples.astype(_sample_dtype(block.adc_bits)).tobytes()
    with _opened(sink, "wb") as f:
        return _write_container(f, KIND_SAMPLES, meta, payload)


def read_samples(source) -> SampleBlock:
    with _read_container(source, KIND_SAMPLES) as (meta, payload):
        adc_bits, n_samples = int(meta["adc_bits"]), int(meta["n_samples"])
        dtype = _sample_dtype(adc_bits)
        if len(payload) != n_samples * dtype.itemsize:
            raise TruncatedFileError(
                f"payload holds {len(payload)} bytes, header says {n_samples} "
                f"samples of {dtype.itemsize}"
            )
        seed = meta.get("rng_seed")
        return SampleBlock(
            samples=np.frombuffer(payload, dtype=dtype).astype(np.int16),
            adc_bits=adc_bits,
            sample_rate_hz=float(meta["sample_rate_hz"]),
            adc_scale=float(meta["adc_scale"]),
            origin=meta.get("origin", "imported"),
            rng_seed=int(seed) if seed is not None else None,
        )


def write_bits(stream: BitStream, sink) -> int:
    """Write a BitStream; returns the number of bytes written."""
    meta = {"count": stream.count}
    for key, value in stream.provenance.items():
        meta[f"prov_{key}"] = value
    with _opened(sink, "wb") as f:  # only the bytes that hold count bits, as read_bits wants
        return _write_container(f, KIND_BITS, meta, stream.bits[: -(-stream.count // 8)])


def read_bits(source) -> BitStream:
    with _read_container(source, KIND_BITS) as (meta, payload):
        count = int(meta["count"])
        if len(payload) != -(-count // 8):  # the whole bytes that hold count bits
            error = TruncatedFileError if 8 * len(payload) < count else FormatError
            raise error(f"payload holds {len(payload)} bytes, header says {count} bits")
        provenance = {
            key[len("prov_") :]: value
            for key, value in meta.items()
            if key.startswith("prov_")
        }
        return BitStream(bits=payload, count=count, provenance=provenance)


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV file: the header row, then ``rows``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: dict, sink) -> int:
    """Write a JSON-serialisable report dict under the container format."""
    payload = json.dumps(report, sort_keys=True, indent=2).encode("utf-8")
    with _opened(sink, "wb") as f:
        return _write_container(f, KIND_REPORT, {"encoding": "json"}, payload)


def read_report(source) -> dict:
    with _read_container(source, KIND_REPORT) as (_, payload):
        return json.loads(payload.decode("utf-8"))
