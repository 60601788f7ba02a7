"""Toeplitz-hashing randomness extractor.

The extractor multiplies each ``n_in``-bit input block by a fixed binary
Toeplitz matrix ``T`` (``n_out x n_in``) over GF(2).  The matrix is described
by ``n_in + n_out - 1`` seed bits: the first column of ``T`` is
``seed[0 : n_out]`` (top to bottom) and the first row is
``seed[n_out - 1 : n_in + n_out - 1]`` (left to right); column and row share
the corner element ``seed[n_out - 1]``, i.e. ``T[i, j] = seed[n_out-1-i+j]``.

A Toeplitz matrix-vector product is a slice of a convolution, so blocks are
hashed by a real-FFT circular correlation of length >= n_in + n_out - 1, at
which no wrapped term reaches the kept lags, in O(n log n) without forming
``T``.  The counts are small integers (bounded by n_in), so rounding them to
the nearest integer before reducing mod 2 is exact.

A sample block streams through in chunks of 64 input blocks: each chunk's
codes are serialised, hashed and packed straight into the output, so the
memory beyond one chunk's work is the packed output alone.

Security note: the hash itself is deterministic and carries no entropy
accounting — choosing ``n_out`` within the leftover-hash budget (see
:func:`phaseqrng.entropy.extraction_ratio`) is what makes the output close
to uniform.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .model import BitStream, EntropyReport, SampleBlock

__all__ = ["ToeplitzSeed", "samples_to_bits", "extract_stream"]

# Input blocks serialised, hashed and packed at a time.  64 * n_out bits is a
# whole number of bytes, so the packed chunks join up byte-exact.  At n_in
# 4096 a chunk's float64 arrays are about 4 MB each; at 256 blocks (14 MB)
# the allocator returned them to the system after each chunk and faulted
# them in again, 20 000 page faults and a slower hash on 1.4e7 input bits.
_CHUNK_BLOCKS = 64


def _next_fast_len(target: int) -> int:
    """Smallest 2^i 3^j 5^k >= target: the lengths pocketfft's real FFT does fastest."""
    best = 1 << (target - 1).bit_length()
    odd = 1
    while odd < best:  # each 3^j 5^k below the best so far, times the least power of 2
        p35 = odd
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        odd *= 5
    return best


@dataclass(frozen=True)
class ToeplitzSeed:
    """Seed bits defining one Toeplitz matrix, plus the RNG seed that made them."""

    bits: np.ndarray
    n_in: int
    n_out: int
    seed_rng: int

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        if self.n_in < 1 or self.n_out < 1:
            raise ValueError("n_in and n_out must be >= 1")
        if self.n_out > self.n_in:
            raise ValueError("n_out cannot exceed n_in")
        if bits.size != self.n_in + self.n_out - 1:
            raise ValueError(
                f"need exactly n_in + n_out - 1 = {self.n_in + self.n_out - 1} "
                f"seed bits, got {bits.size}"
            )
        if bits.size and bits.max() > 1:
            raise ValueError("seed bits must be 0/1")

    @classmethod
    def generate(cls, n_in: int, n_out: int, seed_rng: int) -> "ToeplitzSeed":
        """Draw the seed bits from a seeded PCG64 stream (reproducible)."""
        rng = np.random.default_rng(seed_rng)
        bits = rng.integers(0, 2, size=n_in + n_out - 1, dtype=np.uint8)
        return cls(bits=bits, n_in=n_in, n_out=n_out, seed_rng=seed_rng)


def samples_to_bits(codes: np.ndarray, adc_bits: int) -> np.ndarray:
    """Serialise ADC codes to bits: two's complement, LSB first.

    The convention is fixed so that independently written tooling can agree
    bit-for-bit on the extractor input.
    """
    # "<u2" wraps the codes to 16-bit two's complement; unpack 16 bits
    # LSB-first per sample, keep the low adc_bits of each
    bits16 = np.unpackbits(codes.astype("<u2").view(np.uint8).reshape(-1, 2),
                           axis=1, bitorder="little")
    return bits16[:, :adc_bits].reshape(-1)


def extract_stream(
    samples: SampleBlock, report: EntropyReport, seed: ToeplitzSeed
) -> BitStream:
    """Run the extractor over a sample block.

    Samples are serialised to bits, split into n_in-bit blocks (the final
    partial block is discarded), each block is Toeplitz-hashed, and the
    outputs are concatenated in order.  ``_CHUNK_BLOCKS`` blocks are
    serialised, hashed and packed at a time, so only the packed output grows
    with the input.
    """
    ratio = seed.n_out / seed.n_in
    if ratio > report.extraction_ratio * (1 + 1e-12):
        raise ValueError(
            "extraction exceeds entropy budget: "
            f"n_out/n_in = {ratio:.6f} > extraction_ratio = "
            f"{report.extraction_ratio:.6f}"
        )
    if samples.adc_bits != report.samples_bits:
        raise ValueError(
            f"sample width {samples.adc_bits} does not match entropy report "
            f"({report.samples_bits} bits)"
        )
    b, n_in, n_out = samples.adc_bits, seed.n_in, seed.n_out
    n_blocks = samples.samples.size * b // n_in
    provenance = {
        # the codes are C-contiguous, so their buffer is the int16 bytes
        "source_sha256": hashlib.sha256(samples.samples).hexdigest(),
        "seed_sha256": hashlib.sha256(seed.bits).hexdigest(),
        "seed_rng": seed.seed_rng,
        "extraction_ratio": repr(report.extraction_ratio),
    }
    # y[i] = sum_j seed[n_out-1-i+j] * x[j] is the reversed seed convolved
    # with x at lag n_in - 1 + i; its spectrum serves every chunk
    n = _next_fast_len(n_in + n_out - 1)
    seed_spectrum = np.fft.rfft(seed.bits[::-1].astype(np.float64), n)
    payload = np.empty(-(-n_blocks * n_out // 8), dtype=np.uint8)
    # every chunk's blocks go into the head of one zero-padded float64 buffer;
    # numpy.fft pads and converts a uint8 input itself more slowly
    padded = np.zeros((min(_CHUNK_BLOCKS, n_blocks), n))
    for k in range(0, n_blocks, _CHUNK_BLOCKS):
        m = min(_CHUNK_BLOCKS, n_blocks - k)
        # the chunk's first bit is bit `skip` of sample `first`: a chunk edge
        # falls mid-sample unless adc_bits divides k * n_in
        first, skip = divmod(k * n_in, b)
        last = -(-(k + m) * n_in // b)
        bits = samples_to_bits(samples.samples[first:last], b)[skip : skip + m * n_in]
        padded[:m, :n_in] = bits.reshape(m, n_in)
        spectrum = np.fft.rfft(padded[:m], axis=1)
        spectrum *= seed_spectrum
        conv = np.fft.irfft(spectrum, n, axis=1)
        del spectrum  # each m-by-n array is freed as soon as it is used
        counts = np.rint(conv[:, n_in - 1 : n_in - 1 + n_out])
        del conv
        packed = np.packbits((counts.astype(np.int64) & 1).astype(np.uint8),
                             bitorder="little")
        # k * n_out is a multiple of 8, so each chunk starts on a whole byte
        payload[k * n_out // 8 :][: packed.size] = packed
    return BitStream(payload.tobytes(), n_blocks * n_out, provenance)
