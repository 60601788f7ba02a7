"""Toeplitz-hashing randomness extractor.

The extractor multiplies each ``n_in``-bit input block by a fixed binary
Toeplitz matrix ``T`` (``n_out x n_in``) over GF(2).  The matrix is described
by ``n_in + n_out - 1`` seed bits: the first column of ``T`` is
``seed[0 : n_out]`` (top to bottom) and the first row is
``seed[n_out - 1 : n_in + n_out - 1]`` (left to right); column and row share
the corner element ``seed[n_out - 1]``, i.e. ``T[i, j] = seed[n_out-1-i+j]``.

A Toeplitz matrix-vector product is a slice of a convolution, so blocks are
hashed by a real-FFT circular correlation of length n >= n_in + n_out - 1, at
which no wrapped term reaches the kept lags, in O(n log n) without forming
``T``.  The counts are integers in [0, n_in], so rounding them to the
nearest integer before reducing mod 2 is exact while the FFT's error stays
below 1/2.

Each FFT row carries K blocks as the digits of one base-2^w number,
w = ``n_in.bit_length()``: every count lies below 2^w, so the row's
correlation holds each block's counts in its own w bits, and block j's
parity is bit w*j of the rounded result.  For a length-n FFT convolution of
``a`` and ``b``, Percival (Math. Comp. 72, 387-395, 2003) bounds the error of
every output by

    ||a||_2 ||b||_2 ((1 + u)^(3m) (1 + u sqrt(5))^(3m+1) (1 + beta)^(3m) - 1),

m = log2 n, u = 2^-53, beta the error of the twiddle factors (taken as u).
Here ||a||_2 <= sqrt(n) for the seed, ||b||_2 <= sqrt(n_in) D for a row
whose largest entry is D = (2^(wK) - 1) / (2^w - 1), and the 1/n scaling of
the inverse transform adds at most u n_in D.  K is the most blocks for which
the sum stays below 1/4: half the 1/2 that rounding allows, for pocketfft's
radix-3 and radix-5 passes, which the radix-2 bound does not cover.  At n_in
4096 and n 7200 (``configs/pipeline.json``) that is K = 3, with values below
2^39 and a bound of 6.7e-3; K = 1 is the plain, one-block-a-row hash.  The
1/4 margin is also checked as the program runs: every buffer's largest
distance from a kept value to its nearest integer must stay below it, or
the hash fails with ``ValueError``.  The check can see the error: at any K
that the bound allows, the values stay below 2^51, where a float's spacing
is finer than 1/4.  At K = 3 that distance was 1.5e-5 on
``configs/pipeline.json``; with K forced to 4 the first buffer's reached
0.31.

Codes arrive in chunks, a ``SampleBlock``'s as one and a simulated stream's
as it is made; a sample or a block may straddle a chunk edge.  One loop
serialises each chunk in pieces of the codes that fill the rest of one
buffer of 8 rows of K blocks, none past the last whole block, and copies
them in; the buffer is made once per call, and the calling thread hashes it
straight into the packed output whenever it holds the next rows' blocks.
The output is all that grows with the input, and it is handed to the
``BitStream`` as a read-only buffer, not copied.

Security note: the hash itself is deterministic and carries no entropy
accounting — choosing ``n_out`` within the leftover-hash budget (see
:func:`phaseqrng.entropy.extraction_ratio`) is what makes the output close
to uniform.  That budget takes the Toeplitz seed as uniform and independent
of the codes; ``pipeline`` draws it from PCG64 seeded with
``pipeline.extractor_seed``, or else with ``run.seed``'s extractor sub-seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .model import BitStream, EntropyReport, SampleBlock

__all__ = ["ToeplitzSeed", "samples_to_bits", "extract_stream"]

# FFT rows in flight: with 8 rows of K blocks each buffer's output, 8 K n_out
# bits, is a whole number of bytes, so it starts on a byte of the packed
# output.  At n_in 4096 and n_out 2878 the rows and their spectra take
# 0.92 MB and the staged bits 0.1 MB.
_CHUNK_ROWS = 8
# unit roundoff of float64
_EPS = 2.0**-53


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


def _digits_per_row(n_in: int, n: int) -> int:
    """K: the most n_in-bit blocks one length-n FFT row hashes exactly.

    The bound is Percival's, set out in the module docstring.
    """
    m = np.log2(n)
    growth = np.expm1(6 * m * np.log1p(_EPS) + (3 * m + 1) * np.log1p(_EPS * np.sqrt(5.0)))
    per_entry = np.sqrt(n * n_in) * growth + n_in * _EPS  # the error per unit of D
    w, k = n_in.bit_length(), 1
    while per_entry * (((1 << (w * (k + 1))) - 1) // ((1 << w) - 1)) < 0.25:
        k += 1
    return k


def _hash_rows(staged, m, k, padded, spectra, seed_spectrum, n_in, n_out, out) -> None:
    """Hash the first ``m`` blocks in ``staged`` and pack their output bits into ``out``.

    ``staged`` holds 0/1 bits, block after block; row r of ``padded`` takes
    blocks r k to r k + k - 1 as its base-2^w digits (see the module
    docstring), a short last row with zero digits.  The spectra go into
    ``spectra``, the inverse FFT back into ``padded``, the rounded counts into
    the spectra's spent buffer, their rounding residues back into ``padded``
    and the parities into ``staged``, so the packed bits are all it
    allocates.  A residue of 1/4 or more raises ``ValueError``: the bound
    that set K did not hold, and a count may have rounded to a wrong integer.
    """
    r, w = -(-m // k), n_in.bit_length()
    staged[m * n_in : r * k * n_in] = 0
    digits = staged[: r * k * n_in].reshape(r, k, n_in)
    row = padded[:r]
    packed = row[:, :n_in]
    np.copyto(packed, digits[:, k - 1])
    for j in range(k - 2, -1, -1):  # Horner's rule: exact, every value is below 2^53
        packed *= float(1 << w)
        packed += digits[:, j]
    row[:, n_in:] = 0.0  # np.empty, or the last inverse FFT
    spectrum = spectra[:r]
    np.fft.rfft(row, axis=1, out=spectrum)
    for line in spectrum:  # row by row: a broadcast operand takes ~130 kB of buffers
        line *= seed_spectrum
    np.fft.irfft(spectrum, padded.shape[1], axis=1, out=row)
    kept = row[:, n_in - 1 : n_in - 1 + n_out]
    counts = spectra.view(np.int64)[:r, :n_out]  # n_out < n + 2 int64 a row
    np.rint(kept, out=counts, casting="unsafe")
    kept -= counts
    residue = np.abs(kept, out=kept).max()
    if residue >= 0.25:
        raise ValueError(f"Toeplitz hash inexact: a count's rounding residue is "
                         f"{residue:.3g}, at or above the 1/4 margin ({k} blocks a row)")
    parity = staged[: r * k * n_out].reshape(r, k, n_out)
    for j in range(k):
        np.copyto(parity[:, j], counts, casting="unsafe")  # the low bit survives the wrap
        counts >>= w
    parity &= 1
    out[:] = np.packbits(parity.reshape(-1)[: m * n_out], bitorder="little")


def extract_stream(
    samples: SampleBlock, report: EntropyReport, seed: ToeplitzSeed
) -> BitStream:
    """Run the extractor over the codes of ``samples``.

    ``samples`` is a ``SampleBlock`` or any stream like it: ``len()`` codes
    of ``adc_bits`` bits, read once, in order, from the C-contiguous int16
    arrays of its ``chunks``.  The codes are serialised to bits, split into
    n_in-bit blocks (the final partial block is discarded), each block is
    Toeplitz-hashed, and the outputs are concatenated in order.  The calling
    thread hashes ``_CHUNK_ROWS`` FFT rows at a time, so only the packed
    output grows with the input; ``bits`` of the result is a read-only view
    of it.  ``source_sha256`` is the digest of every code read.
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
    n_blocks = len(samples) * b // n_in
    # y[i] = sum_j seed[n_out-1-i+j] * x[j] is the reversed seed convolved
    # with x at lag n_in - 1 + i; its spectrum serves every block
    n = _next_fast_len(n_in + n_out - 1)
    seed_spectrum = np.fft.rfft(seed.bits[::-1].astype(np.float64), n)
    k = _digits_per_row(n_in, n)
    rows = min(_CHUNK_ROWS, -(-n_blocks // k))
    payload = np.empty(-(-n_blocks * n_out // 8), np.uint8)
    # One allocation holds the rows' spectra and their zero-padded float64
    # values (numpy.fft pads and converts a uint8 input itself more slowly)
    spec_size = rows * (n // 2 + 1) * 16  # the rows after it start 16-byte aligned
    buf = np.empty(spec_size + rows * n * 8, np.uint8)
    spectra = buf[:spec_size].view(np.complex128).reshape(rows, n // 2 + 1)
    padded = buf[spec_size:].view(np.float64).reshape(rows, n)
    staged = np.empty(rows * k * n_in, np.uint8)  # the next rows' bits
    source = hashlib.sha256()
    done = fill = 0  # blocks hashed, bits staged
    left = n_blocks * n_in  # bits still to stage
    for chunk in samples.chunks:
        source.update(chunk)
        i, bits = 0, staged[:0]  # the next code to serialise; the piece's unstaged bits
        while left and (bits.size or i < chunk.size):
            if not bits.size:  # the codes that fill the buffer, none past the last block
                take = -(-min(staged.size - fill, left) // b)
                bits, i = samples_to_bits(chunk[i : i + take], b), i + take
            step = min(bits.size, staged.size - fill, left)
            staged[fill : fill + step], bits = bits[:step], bits[step:]
            fill, left = fill + step, left - step
            if fill == staged.size or not left:  # the next rows' blocks are in
                m = fill // n_in
                # done is a multiple of 8 K, so out starts on a whole byte
                out = payload[done * n_out // 8 : -(-(done + m) * n_out // 8)]
                _hash_rows(staged, m, k, padded, spectra, seed_spectrum, n_in, n_out, out)
                done, fill = done + m, 0
    del buf, spectra, padded, staged  # the hash's scratch goes before the BitStream is made
    payload.flags.writeable = False
    provenance = {
        "source_sha256": source.hexdigest(),
        "seed_sha256": hashlib.sha256(seed.bits).hexdigest(),
        "seed_rng": seed.seed_rng,
        "extraction_ratio": repr(report.extraction_ratio),
    }
    return BitStream(memoryview(payload), n_blocks * n_out, provenance)
