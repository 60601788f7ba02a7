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

A sample block streams through one buffer of 8 input blocks per usable CPU
(16 on two), made once per call.  The calling thread serialises the next
blocks into it; a thread per usable CPU hashes its split of 8 rows straight
into the packed output, and at one CPU the calling thread hashes them
itself.  Each split is exact on its own, so the output bytes do not depend
on the thread count, and beyond the buffer only the packed output grows.
That output is handed to the ``BitStream`` as a read-only buffer, not
copied.  Only a hash imports ``concurrent.futures``: simulate, calibrate
and stability do not.

Security note: the hash itself is deterministic and carries no entropy
accounting — choosing ``n_out`` within the leftover-hash budget (see
:func:`phaseqrng.entropy.extraction_ratio`) is what makes the output close
to uniform.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .model import BitStream, EntropyReport, SampleBlock

__all__ = ["ToeplitzSeed", "samples_to_bits", "extract_stream"]

# Input blocks in flight per hashing thread: the fewest whose output,
# 8 * n_out bits, is a whole number of bytes, so each thread's packed split
# starts on a byte and the splits join up byte-exact.  At n_in 4096 and
# n_out 2878 (configs/pipeline.json) the in-flight blocks and their spectra
# take about 0.92 MB a thread.
_CHUNK_BLOCKS = 8
# Hashing threads at most, so the in-flight buffer stays within 64 blocks
_MAX_WORKERS = 8


def _worker_count() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


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


def _hash_chunk(padded, spectrum, seed_spectrum, n_in, n_out, out) -> None:
    """Hash the blocks in ``padded`` and pack their output bits into ``out``.

    Runs on a pool thread, or at one worker on the calling thread.  The
    spectrum goes into ``spectrum``, the inverse FFT back into ``padded``,
    the integer counts into the spectrum's spent buffer and their parities
    into the head of ``padded``'s, so the packed bits are all it allocates.
    Every ufunc runs on contiguous rows: on a broadcast or strided operand
    NumPy takes ~130 kB of buffers per call, and how those overlapped across
    threads set the traced peak.
    """
    np.fft.rfft(padded, axis=1, out=spectrum)
    for row in spectrum:
        row *= seed_spectrum
    np.fft.irfft(spectrum, padded.shape[1], axis=1, out=padded)
    np.rint(padded, out=padded)
    counts = spectrum.view(np.int64)[:, :n_out]  # n_out < n + 2 int64 a row
    counts[...] = padded[:, n_in - 1 : n_in - 1 + n_out]
    parity = padded.reshape(-1).view(np.uint8)[: counts.size].reshape(counts.shape)
    np.copyto(parity, counts, casting="unsafe")  # the low bit survives the wrap
    parity &= 1
    out[:] = np.packbits(parity, bitorder="little")


def extract_stream(
    samples: SampleBlock, report: EntropyReport, seed: ToeplitzSeed
) -> BitStream:
    """Run the extractor over a sample block.

    Samples are serialised to bits, split into n_in-bit blocks (the final
    partial block is discarded), each block is Toeplitz-hashed, and the
    outputs are concatenated in order.  ``_CHUNK_BLOCKS`` blocks a usable
    CPU are in flight, each CPU's split hashed by its own thread (by the
    calling thread at one CPU), so only the packed output grows with the
    input.  ``bits`` of the result is a read-only view of that output.
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
    # with x at lag n_in - 1 + i; its spectrum serves every block
    n = _next_fast_len(n_in + n_out - 1)
    seed_spectrum = np.fft.rfft(seed.bits[::-1].astype(np.float64), n)
    workers = min(_worker_count(), _MAX_WORKERS)
    chunk = _CHUNK_BLOCKS * workers  # blocks in flight, one split a worker
    rows = min(chunk, n_blocks)
    payload = np.empty(-(-n_blocks * n_out // 8), np.uint8)
    # One allocation holds the in-flight blocks' spectra and their
    # zero-padded float64 rows (numpy.fft pads and converts a uint8 input
    # itself more slowly).  The calling thread makes it, so it is not in the
    # workers' malloc arenas, and frees it in one piece: separate per-thread
    # arrays left heap holes that grew pipeline's peak RSS by 6%.
    spec_size = rows * (n // 2 + 1) * 16  # the rows after it start 16-byte aligned
    buf = np.empty(spec_size + rows * n * 8, np.uint8)
    spectra = buf[:spec_size].view(np.complex128).reshape(rows, n // 2 + 1)
    padded = buf[spec_size:].view(np.float64).reshape(rows, n)

    def hash_split(k: int, s: int, e: int) -> None:
        # blocks k + s to k + e; 8 divides k + s, so out starts on a whole byte
        out = payload[(k + s) * n_out // 8 : -(-(k + e) * n_out // 8)]
        _hash_chunk(padded[s:e], spectra[s:e], seed_spectrum, n_in, n_out, out)

    from concurrent.futures import ThreadPoolExecutor  # on first use: see above
    with ThreadPoolExecutor(workers, thread_name_prefix="phaseqrng") as pool:
        # at one worker the builtin map hashes on this thread; the pool starts none
        hash_map = pool.map if workers > 1 else map
        for k in range(0, n_blocks, chunk):
            m = min(chunk, n_blocks - k)
            # the first bit is bit `skip` of sample `first`: a buffer edge
            # falls mid-sample unless adc_bits divides k * n_in
            first, skip = divmod(k * n_in, b)
            last = -(-(k + m) * n_in // b)
            bits = samples_to_bits(samples.samples[first:last], b)[skip : skip + m * n_in]
            padded[:m, :n_in] = bits.reshape(m, n_in)
            padded[:m, n_in:] = 0.0  # np.empty, or the last inverse FFT
            starts = range(0, m, _CHUNK_BLOCKS)
            # reading every result raises a worker's exception here
            list(hash_map(hash_split, [k] * len(starts), starts, [*starts[1:], m]))
    del buf, spectra, padded  # the hash's scratch goes before the BitStream is made
    payload.flags.writeable = False
    return BitStream(memoryview(payload), n_blocks * n_out, provenance)
