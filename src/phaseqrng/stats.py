"""Statistical validation: autocorrelation and a NIST SP800-22 subset.

:func:`autocorrelation` and the block variance share one exact sum,
:class:`CentredLagSums`, which a stream of codes can also feed chunk by chunk.

The implemented SP800-22 tests are Frequency (monobit), Block Frequency,
Runs, Longest Run of Ones, Cumulative Sums (forward and reverse), Spectral
(FFT), Serial (two p-values) and Approximate Entropy — the tests whose
statistics are self-contained.  Each is one function that maps a sequence
to one or two p-values.  Given a 0/1 bit array, it packs the array eight
bits a byte, as a ``BitStream`` stores them; :func:`nist_subset` hands the
same functions each disjoint sequence's bytes, copied out of the stream, and
aggregates the SP800-22 acceptance numbers: the pass rate (fraction of
sequences with p >= 0.01) and a 10-bin chi-squared uniformity p-value over
the per-sequence p-values.

The tests never unpack a bit a byte.  Frequency, block frequency and runs
count ones through a popcount table (runs counts those of x ^ (x >> 1), the
bit across each byte edge carried in); cumulative sums walks per-byte
tables of the net step and of the lowest and highest running sums; the
longest run ANDs shifted words that tile each block (64-bit for 128-bit
blocks), and the serial and approximate-entropy pattern counts shift int64
window words.  The spectral test gathers each byte's eight +-1 values into a
float buffer, and ``np.fft.rfft`` writes into a spectrum buffer; both are
made once per :func:`nist_subset` call.

Counts, run categories and partial sums are exact integers in small integer
dtypes, so the p-values built on them match the SP800-22 formulas bit for
bit.  The long-run tables are the published constants for M = 8, 128, 10^4.

Every chi-squared shape the tests use is an integer or a half-integer, so the
upper incomplete gamma function is a finite sum of closed-form terms
(:func:`_igamc`), and the normal CDF is ``math.erfc`` (:func:`_ndtr`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TestReport",
    "MIN_VALUES_PER_LAG",
    "CentredLagSums",
    "autocorrelation",
    "frequency_test",
    "block_frequency_test",
    "runs_test",
    "longest_run_test",
    "cumulative_sums_test",
    "spectral_test",
    "serial_test",
    "approximate_entropy_test",
    "nist_subset",
    "uniformity_pvalue",
    "pass_rate_band",
    "NIST_SUBSET_TESTS",
]

# SP800-22 per-sequence significance: a sequence passes a test at p >= it
SIGNIFICANCE = 0.01
# fewest values per lag an autocorrelation takes, here and in ``runs.pipeline``
MIN_VALUES_PER_LAG = 10


@dataclass(frozen=True)
class TestReport:
    test_name: str
    per_sequence_pvalues: tuple
    pass_rate: float
    uniformity_pvalue: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "per_sequence_pvalues", tuple(float(p) for p in self.per_sequence_pvalues)
        )
        for p in self.per_sequence_pvalues:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p-value {p} outside [0, 1]")
        if not 0.0 <= self.pass_rate <= 1.0:
            raise ValueError("pass_rate outside [0, 1]")
        if not 0.0 <= self.uniformity_pvalue <= 1.0:
            raise ValueError("uniformity_pvalue outside [0, 1]")


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _igamc(a: float, x: float) -> float:
    """Regularised upper incomplete gamma Q(a, x) for integer or half-integer a > 0.

    Q is erfc(sqrt(x)) at half-integer a, plus the n = floor(a) Poisson-like
    terms w_k = exp(-x) x^v / Gamma(v + 1), v = k + a - n, k < n (Abramowitz &
    Stegun 6.5.13, 26.4.4-5).  The largest term is taken in log space, by
    Stirling's series once v >= 16, and the others as products of the ratios
    x / v going away from it, until they fall below 1e-20 of it; every term
    is positive and at most the largest, so the sum neither cancels nor
    overflows.
    """
    if not x > 0.0:
        return 1.0 if x == 0.0 else math.nan
    half = a % 1.0
    n = int(a - half)
    q = math.erfc(math.sqrt(x)) if half else 0.0
    if n == 0:
        return q
    m = min(max(int(x - half), 0), n - 1)  # the largest term: v <= x < v + 1, or an end
    v = m + half
    if v < 16.0:
        log_peak = v * math.log(x) - x - math.lgamma(v + 1.0)
    else:  # v ln(x/v) - (x - v), without the cancellation, less ln Gamma's tail
        t, w = (x - v) / v, 1.0 / (v * v)
        stirling = (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w / 1680))) / v
        log_peak = -v * (t - math.log1p(t)) - 0.5 * math.log(2.0 * math.pi * v) - stirling
    total = term = 1.0  # the terms in units of the largest
    for k in range(m, 0, -1):  # w_{k-1} = w_k v_k / x, falling ever faster
        term *= (k + half) / x
        total += term
        if term < 1e-20:
            break
    term = 1.0
    for k in range(m + 1, n):  # w_k = w_{k-1} x / v_k, likewise
        term *= x / (k + half)
        total += term
        if term < 1e-20:
            break
    return q + math.exp(log_peak) * total


# ---------------------------------------------------------------------------
# raw-signal diagnostics
# ---------------------------------------------------------------------------

# values per window of the lag sums: 2^16 int16 codes less the first make
# products below 2^32, so every window's float64 sum is below 2^48, exact
_SUM_CHUNK = 1 << 16


class CentredLagSums:
    """n^2 C_k for k = 0..max_lag, where C_k = sum_i (x_i - xbar)(x_{i+k} - xbar).

    Fed chunk by chunk with :meth:`add`: y = x - x_0 in float64 goes through
    windows of 2^16 first indices, each held until the max_lag values after it
    have arrived, giving T = sum y, S_k = sum y_i y_{i+k} and, over the first
    and last k values, H_k and E_k:
    n^2 C_k = n^2 S_k - n T (2T - H_k - E_k) + (n - k) T^2.  On 8- and 16-bit
    integers each window's sum is an exact integer, carried as a Python int,
    so the result does not depend on chunking, order, BLAS or threads, and a
    ratio of two is correctly rounded.  Other input is summed in the same
    windows whatever its chunking, so a whole array rounds as it always has.
    Only the window, 2^16 + max_lag float64 values, is kept.
    """

    def __init__(self, max_lag: int):
        self.max_lag = max_lag
        self.n = 0  # values added
        self._shift = None  # x_0; its dtype picks exact or float sums
        self._num = int
        self._total = 0
        self._sums = [0] * (max_lag + 1)
        self._head = np.empty(max_lag)  # the first max_lag values of y
        self._window = None  # y from the first unsummed index on
        self._fill = 0

    def add(self, x) -> None:
        """Append the values of the one-dimensional array ``x``."""
        x = np.asarray(x)
        if x.size == 0:
            return
        if self._shift is None:
            self._shift = x[0]
            exact = x.dtype.kind in "biu" and x.dtype.itemsize <= 2
            self._num = int if exact else float
            self._total, self._sums = self._num(0), [self._num(0)] * len(self._sums)
            self._window = np.empty(_SUM_CHUNK + self.max_lag)
        lag, window = self.max_lag, self._window
        i = 0
        while i < x.size:
            k = min(x.size - i, window.size - self._fill)
            y = window[self._fill : self._fill + k]
            np.subtract(x[i : i + k], self._shift, out=y, dtype=np.float64)  # int16 would overflow
            if self.n < lag:
                h = min(lag - self.n, k)
                self._head[self.n : self.n + h] = y[:h]
            self._fill, self.n, i = self._fill + k, self.n + k, i + k
            if self._fill == window.size:  # the next max_lag values are in
                self._total, self._sums = self._summed(
                    self._total, self._sums, window, _SUM_CHUNK)
                window[:lag] = window[_SUM_CHUNK:]
                self._fill = lag

    def _summed(self, total, sums: list, y: np.ndarray, count: int):
        """T and S_k plus those of window ``y``, over its first ``count`` indices."""
        num, sums = self._num, list(sums)
        total += num(y[:count].sum())
        for k in range(len(sums)):
            m = max(min(count, y.size - k), 0)
            # einsum sums on this thread: a BLAS dot of 10^4 values or more
            # enters threaded OpenBLAS, which stalled 0.5-8 ms a call in some
            # processes and splits a float sum differently by thread count
            sums[k] += num(np.einsum("i,i->", y[:m], y[k : k + m]))
        return total, sums

    def sums(self) -> list:
        """n^2 C_k for k = 0..max_lag over the values added so far."""
        n, lag, num = self.n, self.max_lag, self._num
        y = self._window[: self._fill] if self.n else np.empty(0)
        total, sums = self._total, self._sums
        for a in range(0, y.size, _SUM_CHUNK):  # the window or two still held
            total, sums = self._summed(total, sums, y[a:], min(_SUM_CHUNK, y.size - a))
        head = self._head[: min(lag, n)].cumsum()
        tail = y[max(y.size - lag, 0) :][::-1].cumsum()
        edges = [num(0)] + [num(h) + num(e) for h, e in zip(head, tail)]  # H_k + E_k
        return [n * n * s - n * total * (2 * total - e) + (n - k) * total * total
                for k, (s, e) in enumerate(zip(sums, edges))]

    def autocorrelation(self) -> np.ndarray:
        """r(0..max_lag) = C_k / C_0: correctly rounded on integer codes and bits."""
        if self.n < MIN_VALUES_PER_LAG * self.max_lag:
            raise ValueError(f"need at least {MIN_VALUES_PER_LAG}*max_lag samples")
        acov = self.sums()
        if not acov[0] > 0:
            raise ValueError("zero variance: autocorrelation undefined")
        return np.array([c / acov[0] for c in acov])


def autocorrelation(samples, max_lag: int) -> np.ndarray:
    """Biased normalised autocorrelation r(0..max_lag), r(0) = 1.

    r(k) = C_k / C_0 of :class:`CentredLagSums`: correctly rounded on
    integer codes and bits.
    """
    x = np.asarray(samples)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    sums = CentredLagSums(max_lag)
    sums.add(x)
    return sums.autocorrelation()


# ---------------------------------------------------------------------------
# SP800-22 subset — each test takes a 0/1 array or a sequence's packed bits
# ---------------------------------------------------------------------------

# each byte's bits in sequence order, least significant first as a BitStream
# packs them; their count, their +-1 steps, and the steps' running sums
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_POPCOUNT = _BYTE_BITS.sum(axis=1, dtype=np.uint8)
_STEPS = 2 * _BYTE_BITS.astype(np.int8) - 1
_PREFIX = _STEPS.cumsum(axis=1, dtype=np.int8)
# a byte's net step, and its lowest and highest running sum less that net
_NET = _PREFIX[:, -1]
_LOW = _PREFIX.min(axis=1) - _NET
_HIGH = _PREFIX.max(axis=1) - _NET
# each byte's eight steps as one int64, so that one gather moves all eight
_STEP_WORDS = _STEPS.view(np.int64).ravel()


class _Packed:
    """One sequence for the tests: ``n`` bits packed LSB first, pad bits zero.

    ``x`` (n float64) and ``spectrum`` (n // 2 + 1 complex128) are the
    spectral test's buffers, which it makes when they are None;
    :func:`nist_subset` makes them once and shares them between its sequences.
    """

    def __init__(self, packed: np.ndarray, n: int, x=None, spectrum=None):
        self.packed, self.n = packed, n
        self.x, self.spectrum = x, spectrum

    @classmethod
    def of(cls, bits) -> "_Packed":
        """``bits`` itself if it is a ``_Packed``, else its 0/1 array packed."""
        if isinstance(bits, cls):
            return bits
        eps = np.asarray(bits, dtype=np.uint8)
        if eps.ndim != 1 or eps.size == 0:
            raise ValueError("bits must be a nonempty one-dimensional 0/1 array")
        if eps.max() > 1:
            raise ValueError("bits must be 0/1")
        return cls(np.packbits(eps, bitorder="little"), eps.size)

    def ones(self) -> int:
        return int(np.take(_POPCOUNT, self.packed).sum(dtype=np.int64))


def _sequence_bytes(data, start: int, n: int) -> np.ndarray:
    """Bits ``start:start + n`` of the LSB-first bytes ``data``, packed from bit 0."""
    first, shift = divmod(start, 8)
    raw = np.frombuffer(data, np.uint8, -(-(shift + n) // 8), first)
    packed = raw[: -(-n // 8)] >> shift  # a copy, even at shift 0
    if shift:
        packed[: raw.size - 1] |= raw[1:] << (8 - shift)
    if n % 8:
        packed[-1] &= (1 << n % 8) - 1
    return packed


def frequency_test(bits) -> float:
    """Monobit test: p = erfc(|S_n|/sqrt(n) / sqrt(2))."""
    seq = _Packed.of(bits)
    s = 2.0 * float(seq.ones()) - seq.n
    s_obs = abs(s) / math.sqrt(seq.n)
    return math.erfc(s_obs / math.sqrt(2.0))


def block_frequency_test(bits, block_len: int = 128) -> float:
    seq = _Packed.of(bits)
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    n_blocks = seq.n // block_len
    if n_blocks < 1:
        raise ValueError("sequence shorter than one block")
    # ones before each block edge: the whole bytes', then the edge byte's low bits
    edges = np.arange(n_blocks + 1) * block_len
    before = np.zeros(seq.packed.size + 1, np.min_scalar_type(seq.n))
    np.cumsum(np.take(_POPCOUNT, seq.packed), dtype=before.dtype, out=before[1:])
    low_bits = np.take(seq.packed, edges >> 3, mode="clip") & ((1 << (edges & 7)) - 1)
    ones = np.diff(before[edges >> 3] + np.take(_POPCOUNT, low_bits))
    pi = ones / block_len
    chi_sq = 4.0 * block_len * float(np.sum((pi - 0.5) ** 2))
    return _igamc(n_blocks / 2.0, chi_sq / 2.0)


def runs_test(bits) -> float:
    seq = _Packed.of(bits)
    n, x = seq.n, seq.packed
    pi = seq.ones() / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):  # n < 16 admits one run
        return 0.0
    # bit i of x ^ (x >> 1) is b_i != b_{i+1}; bit 7 takes b_{i+1} from the
    # next byte, and the last bit's comparison with the zero after it is dropped
    nxt = np.zeros_like(x)
    nxt[:-1] = x[1:] << 7
    changes = int(np.take(_POPCOUNT, x ^ ((x >> 1) | nxt)).sum(dtype=np.int64))
    v_obs = 1 + changes - int(x[(n - 1) >> 3] >> ((n - 1) & 7) & 1)
    num = abs(v_obs - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return math.erfc(num / den)


_LONGEST_RUN_TABLES = (
    # (min_n, block_len, categories, probabilities)
    (750_000, 10_000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_run_counts(packed: np.ndarray, n_blocks: int, block_len: int,
                        lo: int, hi: int) -> np.ndarray:
    """How many of the first ``n_blocks`` blocks have each longest run of ones,
    clipped to [lo, hi]: counts for lo, lo + 1, ..., hi.

    ``block_len`` is a multiple of 8, so a block is whole words of the widest
    of 1, 2 or 8 bytes that tiles it.  After step k, bit i of ``run`` is the
    AND of bits i .. i+k-1, with a word's top bit taken from the next word of
    the same block only, so that no run crosses a block edge.
    """
    width = math.gcd(block_len // 8, 8)
    run = packed[: n_blocks * block_len // 8].view(f"<u{width}").reshape(n_blocks, -1).copy()
    carry, shifted = np.zeros_like(run), np.empty_like(run)
    at_least = [n_blocks]  # blocks with a run of k or more, for k = lo .. hi
    for k in range(2, hi + 1):
        np.left_shift(run[:, 1:], 8 * width - 1, out=carry[:, :-1])
        np.right_shift(run, 1, out=shifted)
        shifted |= carry
        run &= shifted
        if k > lo:
            at_least.append(np.count_nonzero(np.bitwise_or.reduce(run, axis=1)))
    return -np.diff(at_least + [0])


def longest_run_test(bits) -> float:
    """Longest-run-of-ones test; needs at least 128 bits."""
    seq = _Packed.of(bits)
    n = seq.n
    if n < 128:
        raise ValueError("longest-run test needs at least 128 bits")
    for min_n, block_len, cats, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    n_blocks = n // block_len
    v = _longest_run_counts(seq.packed, n_blocks, block_len, cats[0], cats[-1])
    expected = n_blocks * np.asarray(probs)
    chi_sq = float(np.sum((v - expected) ** 2 / expected))
    k = len(cats) - 1
    return _igamc(k / 2.0, chi_sq / 2.0)


def _cusum_pvalue(z: float, n: int) -> float:
    sqrt_n = math.sqrt(n)
    # a term whose arguments all lie beyond +-40 is exactly 0: both CDFs are
    # 0 or both 1, so only |k| <= k_max is summed
    k_max = int((40.0 * sqrt_n / z + 3.0) / 4.0) + 1
    k_lo = max(int(math.floor((-n / z + 1.0) / 4.0)), -k_max)
    k_lo2 = max(int(math.floor((-n / z - 3.0) / 4.0)), -k_max)  # <= k_lo
    k_hi = min(int(math.floor((n / z - 1.0) / 4.0)), k_max)
    # both sums difference the CDF at the odd multiples of z / sqrt(n), so
    # each value is taken once, walking up k
    term1 = term2 = 0.0
    below = _ndtr((4 * k_lo2 - 1) * z / sqrt_n)
    for k in range(k_lo2, k_hi + 1):
        mid = _ndtr((4 * k + 1) * z / sqrt_n)
        above = _ndtr((4 * k + 3) * z / sqrt_n)
        if k >= k_lo:
            term1 += mid - below
        term2 += above - mid
        below = above
    return min(max(1.0 - term1 + term2, 0.0), 1.0)


def cumulative_sums_test(bits) -> tuple[float, float]:
    """Cumulative-sums test, forward and reverse p-values."""
    seq = _Packed.of(bits)
    n = seq.n
    full, tail = divmod(n, 8)
    x = seq.packed[:full]
    ends = np.cumsum(np.take(_NET, x), dtype=np.min_scalar_type(-n - 1))  # |S_k| <= n
    lo = int((ends + np.take(_LOW, x)).min(initial=0))  # S_0 = 0 too
    hi = int((ends + np.take(_HIGH, x)).max(initial=0))
    s_n = int(ends[-1]) if full else 0
    if tail:  # the partial byte's running sums, from the whole bytes' S_k
        sums = s_n + _PREFIX[seq.packed[full], :tail].astype(np.int64)
        lo, hi, s_n = min(lo, int(sums.min())), max(hi, int(sums.max())), int(sums[-1])
    z_rev = max(s_n - lo, hi - s_n)  # the reverse partial sums are S_n - S_k, k < n
    return _cusum_pvalue(float(max(-lo, hi)), n), _cusum_pvalue(float(z_rev), n)


def spectral_test(bits) -> float:
    """Discrete Fourier transform (spectral) test."""
    seq = _Packed.of(bits)
    n = seq.n
    x = np.empty(n) if seq.x is None else seq.x
    out = np.empty(n // 2 + 1, np.complex128) if seq.spectrum is None else seq.spectrum
    full, tail = divmod(n, 8)
    # eight int8 +-1 a byte, gathered into the spectrum buffer ahead of the transform
    steps = out.view(np.int64)[:full]
    np.take(_STEP_WORDS, seq.packed[:full], out=steps)
    np.copyto(x[: 8 * full], steps.view(np.int8))
    if tail:
        x[8 * full :] = _STEPS[seq.packed[full], :tail]
    np.fft.rfft(x, out=out)
    # the moduli go into x, which the transform no longer needs
    spectrum = np.abs(out[: n // 2], out=x[: n // 2])
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(spectrum < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return math.erfc(abs(d) / math.sqrt(2.0))


@functools.lru_cache
def _bit_reversal(m: int) -> np.ndarray:
    """v with its m bits in reverse order, for v = 0 .. 2^m - 1."""
    v = np.arange(1 << m)
    reversed_ = np.zeros_like(v)
    for b in range(m):
        reversed_ |= ((v >> b) & 1) << (m - 1 - b)
    reversed_.flags.writeable = False
    return reversed_


def _pattern_counts(packed: np.ndarray, n: int, m: int) -> np.ndarray:
    """Counts of all overlapping m-bit patterns (1 <= m <= 57) in the circular
    extension of the ``n`` packed bits; a pattern's first bit is its top one.

    The window at bit 8j + r is word j, the little-endian int64 of the bytes
    from j on, shifted right by r: its first bit lands lowest, so the counts
    are made by that reversed value and put back in order by bit reversal.
    """
    if m > 57:
        raise ValueError("pattern length m above 57 is not supported")
    n_words = -(-n // 8)
    ext = np.zeros(n_words + 8, np.uint8)
    ext[:n_words] = packed
    # the first m - 1 bits again from bit n on, where the pad bits are zero
    head = int.from_bytes(packed[:8].tobytes(), "little") & ((1 << (m - 1)) - 1)
    ext[n >> 3 : (n >> 3) + 8] |= np.frombuffer((head << (n & 7)).to_bytes(8, "little"), np.uint8)
    words = ext[:n_words].astype(np.int64)
    window = np.empty_like(words)
    for k in range(1, -(-(m + 7) // 8)):  # the bytes a window from bit 7 of byte j reaches
        np.left_shift(ext[k : k + n_words], 8 * k, out=window, dtype=np.int64)
        words |= window
    counts = np.zeros(1 << m, np.int64)
    for r in range(8):  # the windows at bits 8j + r, j = 0 .. n_words - 1
        np.right_shift(words, r, out=window)
        window &= (1 << m) - 1
        counts += np.bincount(window, minlength=1 << m)
        if r >= (n & 7 or 8):  # the last one starts past the last bit
            counts[window[-1]] -= 1
    return counts[_bit_reversal(m)]


def _fold(counts: np.ndarray) -> np.ndarray:
    """(m-1)-bit counts from m-bit ones: the (m-1)-bit window at a position is
    the m-bit one there less its last, least significant, bit."""
    return counts.reshape(-1, 2).sum(axis=1)


def _psi_sq(counts: np.ndarray, n: int) -> float:
    if counts.size == 1:  # m = 0
        return 0.0
    counts = counts.astype(np.float64)
    return float(counts.size / n * np.sum(counts**2) - n)


def serial_test(bits, m: int = 8) -> tuple[float, float]:
    """Serial test: p-values for the first and second psi-square differences.

    For a statistically meaningful result keep m below log2(n) - 2; the hard
    requirement is only that m-bit windows fit the sequence.
    """
    seq = _Packed.of(bits)
    n = seq.n
    if m < 2:
        raise ValueError("serial test needs m >= 2")
    if m >= n:
        raise ValueError("pattern length m too large for the sequence")
    counts_m = _pattern_counts(seq.packed, n, m)
    counts_m1 = _fold(counts_m)
    psi_m = _psi_sq(counts_m, n)
    psi_m1 = _psi_sq(counts_m1, n)
    psi_m2 = _psi_sq(_fold(counts_m1), n)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = _igamc(2 ** (m - 2), d1 / 2.0)
    p2 = _igamc(2 ** (m - 3), d2 / 2.0)
    return p1, p2


def approximate_entropy_test(bits, m: int = 6) -> float:
    """Approximate-entropy test.

    Keep m below log2(n) - 5 for statistical validity; the hard requirement
    is only that (m+1)-bit windows fit the sequence.
    """
    seq = _Packed.of(bits)
    n = seq.n
    if m < 1:
        raise ValueError("approximate-entropy test needs m >= 1")
    if m + 1 >= n:
        raise ValueError("pattern length m too large for the sequence")

    def phi(counts: np.ndarray) -> float:
        c = counts[counts > 0].astype(np.float64) / n
        return float(np.sum(c * np.log(c)))

    counts_m1 = _pattern_counts(seq.packed, n, m + 1)
    ap_en = phi(_fold(counts_m1)) - phi(counts_m1)
    chi_sq = 2.0 * n * (math.log(2.0) - ap_en)
    return _igamc(2 ** (m - 1), chi_sq / 2.0)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def uniformity_pvalue(pvalues) -> float:
    """10-bin chi-squared test that p-values are uniform on (0, 1)."""
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        raise ValueError("no p-values")
    bins = np.minimum((p * 10).astype(int), 9)
    counts = np.bincount(bins, minlength=10)
    expected = p.size / 10.0
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    return _igamc(9 / 2.0, chi_sq / 2.0)


def pass_rate_band(n_sequences: int) -> tuple[float, float]:
    """Three-sigma binomial band for the expected pass rate.

    With per-sequence significance alpha = ``SIGNIFICANCE``, pass rates are
    expected inside (1-alpha) +- 3 sqrt(alpha(1-alpha)/n).
    """
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    p0 = 1.0 - SIGNIFICANCE
    delta = 3.0 * math.sqrt(p0 * SIGNIFICANCE / n_sequences)
    return max(0.0, p0 - delta), min(1.0, p0 + delta)


# (name, callable, report rows: one per p-value the callable returns)
NIST_SUBSET_TESTS = (
    ("frequency", frequency_test, ("frequency",)),
    ("block_frequency", block_frequency_test, ("block_frequency",)),
    ("runs", runs_test, ("runs",)),
    ("longest_run", longest_run_test, ("longest_run",)),
    ("cumulative_sums", cumulative_sums_test,
     ("cumulative_sums_forward", "cumulative_sums_reverse")),
    ("spectral", spectral_test, ("spectral",)),
    ("serial", serial_test, ("serial_1", "serial_2")),
    ("approximate_entropy", approximate_entropy_test, ("approximate_entropy",)),
)


def nist_subset(bits, n_sequences: int, seq_len_bits: int) -> list[TestReport]:
    """Run the SP800-22 subset over disjoint sequences of a ``BitStream``.

    Tests yielding two p-values per sequence (cumulative sums, serial)
    produce two report rows.  ``seq_len_bits`` must be at least 128 so every
    test in the subset is applicable.  Each sequence's bytes are copied out
    of the stream, shifted to start at bit 0 when it starts mid-byte, and
    every function in ``NIST_SUBSET_TESTS`` runs on them in turn, so only one
    sequence is held at a time.  The spectral test's float and spectrum
    buffers are made once a call and reused by every sequence.
    """
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    if seq_len_bits < 128:
        raise ValueError("seq_len_bits must be >= 128")
    n = n_sequences * seq_len_bits
    if bits.count < n:
        raise ValueError(f"insufficient bits: need {n}, have {bits.count}")
    x = np.empty(seq_len_bits)
    spectrum = np.empty(seq_len_bits // 2 + 1, np.complex128)
    pvalues = np.array([  # one row per sequence, one column per report row
        np.hstack([func(seq) for _, func, _ in NIST_SUBSET_TESTS])
        for seq in (_Packed(_sequence_bytes(bits.bits, i, seq_len_bits), seq_len_bits,
                            x, spectrum)
                    for i in range(0, n, seq_len_bits))
    ])
    names = [row for _, _, rows in NIST_SUBSET_TESTS for row in rows]
    return [
        TestReport(
            test_name=name,
            per_sequence_pvalues=tuple(ps),
            pass_rate=float(np.mean(ps >= SIGNIFICANCE)),
            uniformity_pvalue=uniformity_pvalue(ps),
        )
        for name, ps in zip(names, pvalues.T)
    ]
