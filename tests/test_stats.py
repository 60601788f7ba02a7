"""Signal diagnostics and the NIST SP800-22 subset.

The worked-example p-values below are the published examples from the
SP800-22 test descriptions (rev 1a), evaluated to full precision.  Where the
implementation is vectorised, a naive pure-Python oracle computes the same
statistic independently.  The tests work on packed bytes, and the
longest-run, cumulative-sums, serial and approximate-entropy ones compute
their statistics as exact small integers; the float and int64 per-bit
formulations they replaced are kept here as references, and every p-value
must equal theirs exactly.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import welch
from scipy.special import gammaincc

from phaseqrng import stats
from phaseqrng.sim import SimulationRun, simulate
from phaseqrng.model import LaserNoiseModel, SampleBlock, SignalChainConfig
from phaseqrng.stats import (
    NIST_SUBSET_TESTS,
    TestReport as StatsReport,
    _LONGEST_RUN_TABLES,
    _cusum_pvalue,
    _fold,
    _longest_run_counts,
    _pattern_counts,
    approximate_entropy_test,
    autocorrelation,
    block_frequency_test,
    cumulative_sums_test,
    frequency_test,
    longest_run_test,
    nist_subset,
    pass_rate_band,
    runs_test,
    serial_test,
    spectral_test,
    uniformity_pvalue,
)

from conftest import on_threads, pack_bits


def _bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------


def test_autocorrelation_r0_is_one():
    x = np.random.default_rng(0).standard_normal(1000)
    r = autocorrelation(x, max_lag=10)
    assert r[0] == pytest.approx(1.0, abs=1e-12)
    assert r.size == 11


def test_autocorrelation_matches_naive_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(400)
    r = autocorrelation(x, max_lag=20)
    xc = x - x.mean()
    denom = float(xc @ xc)
    for k in range(21):
        naive = float(xc[: len(xc) - k] @ xc[k:]) / denom
        assert r[k] == pytest.approx(naive, abs=1e-10)


def test_autocorrelation_detects_perfect_correlation():
    x = np.sin(np.linspace(0, 40 * np.pi, 4000))
    r = autocorrelation(x, max_lag=200)
    period = 200  # samples per sine period
    assert r[period] > 0.9
    assert r[period // 2] < -0.9  # anti-phase at half a period


def test_autocorrelation_iid_bound():
    x = np.random.default_rng(24680).standard_normal(100_000)
    r = autocorrelation(x, max_lag=50)
    assert np.abs(r[1:]).max() < 4.0 / math.sqrt(100_000)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=50, max_size=300))
@settings(max_examples=40)
def test_autocorrelation_bounded_by_one(xs):
    x = np.asarray(xs)
    if float(np.var(x)) <= 1e-20:
        return  # constant inputs are rejected, covered below
    r = autocorrelation(x, max_lag=5)
    assert (np.abs(r) <= 1.0 + 1e-9).all()


def test_autocorrelation_validation():
    with pytest.raises(ValueError, match="zero variance"):
        autocorrelation(np.ones(100), max_lag=5)
    with pytest.raises(ValueError, match="10\\*max_lag"):
        autocorrelation(np.arange(40.0), max_lag=10)
    with pytest.raises(ValueError):
        autocorrelation(np.arange(100.0), max_lag=0)


def test_lag_sums_refuse_fewer_than_ten_values_a_lag():
    # the accumulator owns the length rule: 50 values cannot give 100 lags
    sums = stats.CentredLagSums(100)
    sums.add(np.arange(50.0))
    with pytest.raises(ValueError, match="10\\*max_lag"):
        sums.autocorrelation()
    sums.add(np.arange(950.0))
    assert sums.autocorrelation().size == 101


def test_autocorrelation_bytes_do_not_depend_on_blas_threads():
    # BLAS ddot (``x @ y``) splits a long sum across its threads, which
    # changes the rounding of float input, so that goes through einsum;
    # the int16 sums go through ddot, but every partial sum is exact
    src = str(Path(stats.__file__).resolve().parents[1])
    code = (
        "import numpy as np; from phaseqrng.stats import autocorrelation; "
        "rng = np.random.default_rng(7); "
        "x = rng.standard_normal(1_000_000); "
        "codes = rng.integers(-32768, 32768, 1_000_000).astype(np.int16); "
        "print(autocorrelation(x, 100).tobytes().hex(), "
        "autocorrelation(codes, 100).tobytes().hex())"
    )
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def _exact_lag_sums(x, max_lag):
    # n^2 times the lag sums of the centred integers, as Python ints
    n = x.size
    ints = np.array([int(v) for v in x], dtype=object)
    d = n * ints - int(x.sum(dtype=np.int64))  # n (x_i - xbar), exactly
    return [np.dot(d[: n - k], d[k:]) for k in range(max_lag + 1)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_autocorrelation_bytes_do_not_depend_on_the_worker_count(workers):
    # r(0..100) of int16 codes, over the whole range, against Fraction, from
    # 1 to 3 threads at once: the lag sums are exact integers that no BLAS
    # thread splits, so each caller gets the exact ratio rounded once
    x = np.random.default_rng(9).integers(-32768, 32768, 20_000).astype(np.int16)
    lag_sums = _exact_lag_sums(x, 100)
    expected = np.array([float(Fraction(c, lag_sums[0])) for c in lag_sums])
    for r in on_threads(lambda: autocorrelation(x, 100), workers):
        assert r.tobytes() == expected.tobytes()


@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(["int16", "uint8", "float64"]),
       max_lag=st.sampled_from([0, 1, 7, 100]), n=st.integers(1_000, 140_000),
       n_cuts=st.integers(0, 12), ones=st.integers(0, 120))
@settings(max_examples=25, deadline=None)
def test_lag_sums_fed_in_chunks_equal_the_whole_array(seed, dtype, max_lag, n, n_cuts,
                                                     ones):
    # chunk edges anywhere, the first ``ones`` chunks one value each (the head
    # of max_lag values spans them), and n past one or two 2^16-value windows:
    # every sum is that of the whole array, float sums too, byte for byte
    rng = np.random.default_rng(seed)
    if dtype == "float64":
        x = rng.standard_normal(n) + 3.0
    else:
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        x = rng.integers(lo, hi, n, endpoint=True).astype(dtype)
    edges = sorted({*range(min(ones, n)), *rng.integers(0, n, n_cuts).tolist()})
    whole, chunked = stats.CentredLagSums(max_lag), stats.CentredLagSums(max_lag)
    whole.add(x)
    for a, b in zip([0, *edges], [*edges, n]):
        chunked.add(x[a:b])
    assert chunked.n == whole.n == n
    assert list(map(repr, chunked.sums())) == list(map(repr, whole.sums()))
    if max_lag:
        assert chunked.autocorrelation().tobytes() == autocorrelation(x, max_lag).tobytes()


@given(seed=st.integers(0, 2**32 - 1), max_lag=st.integers(1, 20),
       n_extra=st.integers(0, 2800), first=st.sampled_from([-32768, 32767, None]),
       bits=st.booleans())
@settings(max_examples=30, deadline=None)
def test_autocorrelation_and_variance_are_exact_sums_correctly_rounded(
        seed, max_lag, n_extra, first, bits):
    # int16 codes from both ends of the range (an int16 difference of them
    # overflows), or 0/1 bits; r(k) and the code variance are ratios of exact
    # integer sums, so each must be that exact ratio rounded once
    rng = np.random.default_rng(seed)
    n = 10 * max_lag + n_extra
    if bits:
        x = rng.integers(0, 2, n).astype(np.uint8)
        x[1] = 1 - x[0]
    else:
        ends = rng.choice([-32768, 32767], n)
        x = np.where(rng.random(n) < 0.5, ends, rng.integers(-32768, 32768, n)).astype(np.int16)
        x[1:3] = -32768, 32767
        if first is not None:
            x[0] = first
    lag_sums = _exact_lag_sums(x, max_lag)
    expected = [float(Fraction(c, lag_sums[0])) for c in lag_sums]
    assert autocorrelation(x, max_lag).tolist() == expected
    block = SampleBlock(x, adc_bits=16, sample_rate_hz=1.0, adc_scale=1.0)
    assert block.variance_volts() == float(Fraction(lag_sums[0], n * n * (n - 1)))


def test_autocorrelation_leaves_its_input_unchanged():
    x = np.random.default_rng(8).standard_normal(5000) + 3.0
    before = x.copy()
    autocorrelation(x, max_lag=20)
    assert np.array_equal(x, before)


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.float64])
def test_autocorrelation_peak_memory_does_not_grow_with_its_input(dtype):
    # the sums go through 2^16 values at a time: no copy of the input, no
    # FFT scratch (about four copies), so the peak is the same at any length
    n = 1_000_000
    x = np.random.default_rng(9).integers(0, 2, n).astype(dtype)
    autocorrelation(x[:10_000], max_lag=100)  # one-time set-up
    assert _traced_peak(autocorrelation, x, 100) <= 1.5e6


def test_variance_volts_peak_memory_does_not_grow_with_the_block():
    # exact sums over fixed chunks: a float64 copy of the codes and np.var's
    # temporary would be 16 MB here
    codes = np.random.default_rng(10).integers(-2048, 2048, 1_000_000).astype(np.int16)
    block = SampleBlock(codes, adc_bits=12, sample_rate_hz=1e9, adc_scale=1e-4)
    block.variance_volts()  # one-time set-up
    assert _traced_peak(block.variance_volts) <= 1e6


def test_autocorrelation_of_codes_equals_that_of_volts():
    # r ignores the ADC scale, so ``runs.pipeline`` passes the stored codes
    run = SimulationRun(
        model=LaserNoiseModel(7.376218323586745, 4389.668615984405, 2.47e-4),
        chain=SignalChainConfig(conversion_gain_a=9.5e6, electronic_noise_f=1.3732e-6),
        duration=2e-4,
        seed=12,
    )
    block = simulate(run)
    r_codes = autocorrelation(block.samples, max_lag=100)
    r_volts = autocorrelation(block.volts(), max_lag=100)
    np.testing.assert_allclose(r_codes, r_volts, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# spectrum of the simulated chain
# ---------------------------------------------------------------------------


def test_psd_of_simulated_chain_rolls_off_at_cutoff():
    # electronic noise through the single-pole TIA, sampled at 5 GS/s so the
    # 500 MHz corner is well inside Nyquist: the half-power crossing of the
    # measured PSD must sit within 20% of the configured cutoff
    chain = SignalChainConfig(
        delay_td=540e-12,
        conversion_gain_a=1.0,
        electronic_noise_f=1e-6,
        tia_cutoff_hz=500e6,
        adc_bits=8,
        adc_range_sigmas=5.0,
        sample_rate_hz=5e9,
    )
    run = SimulationRun(
        model=LaserNoiseModel(0.0, 0.0, 0.0),
        chain=chain,
        duration=8e-5,
        seed=99,
        oversample_factor=4,
    )
    block = simulate(run)
    freqs, pxx = welch(block.volts(), fs=5e9, nperseg=4096)
    plateau = pxx[(freqs > 1e7) & (freqs < 1e8)].mean()
    half = plateau / 2.0
    nb = 100
    usable = len(freqs[1:]) // nb * nb
    f_band = freqs[1 : usable + 1].reshape(nb, -1).mean(axis=1)
    p_band = pxx[1 : usable + 1].reshape(nb, -1).mean(axis=1)
    below = np.nonzero(p_band < half)[0]
    i = below[below > 5][0]
    f1, f2, p1, p2 = f_band[i - 1], f_band[i], p_band[i - 1], p_band[i]
    f3db = f1 + (half - p1) * (f2 - f1) / (p2 - p1)
    assert f3db == pytest.approx(500e6, rel=0.20)


# ---------------------------------------------------------------------------
# SP800-22 worked examples
# ---------------------------------------------------------------------------


def test_frequency_worked_example():
    assert frequency_test(_bits("1011010101")) == pytest.approx(
        0.5270892568655381, rel=1e-12
    )


def test_frequency_against_independent_formula():
    rng = np.random.default_rng(11)
    for _ in range(20):
        eps = rng.integers(0, 2, int(rng.integers(10, 2000)), dtype=np.uint8)
        n = eps.size
        s = abs(2.0 * int(eps.sum()) - n)
        expected = math.erfc(s / math.sqrt(n) / math.sqrt(2.0))
        assert frequency_test(eps) == pytest.approx(expected, abs=1e-12)


def test_block_frequency_worked_example():
    p = block_frequency_test(_bits("0110011010"), block_len=3)
    assert p == pytest.approx(0.8012519569012009, rel=1e-12)


def test_runs_worked_example():
    assert runs_test(_bits("1001101011")) == pytest.approx(
        0.14723225536366571, rel=1e-12
    )


def test_runs_prescreen_fails_biased_input():
    bits = np.ones(1000, dtype=np.uint8)
    bits[:10] = 0
    assert runs_test(bits) == 0.0
    # below 16 bits the bound 2/sqrt(n) exceeds 1/2, so constant input passes
    # the prescreen; it is one run, and erfc(inf) = 0
    for n in (1, 10, 15):
        assert runs_test(np.zeros(n, np.uint8)) == 0.0
        assert runs_test(np.ones(n, np.uint8)) == 0.0


def test_spectral_worked_example():
    assert spectral_test(_bits("1001010011")) == pytest.approx(
        0.4681599098544281, rel=1e-12
    )


def test_serial_worked_example():
    p1, p2 = serial_test(_bits("0011011101"), m=3)
    assert p1 == pytest.approx(0.8087921354109989, rel=1e-12)
    assert p2 == pytest.approx(0.6703200460356398, rel=1e-12)


def test_approximate_entropy_worked_example():
    p = approximate_entropy_test(_bits("0100110101"), m=3)
    assert p == pytest.approx(0.2619611048816654, rel=1e-12)


def test_cumulative_sums_small_example():
    # forward statistic of 1011010111 is z = 4; the series is evaluated with
    # floor-convention summation bounds (checked against the naive oracle)
    p_fwd, p_rev = cumulative_sums_test(_bits("1011010111"))
    assert p_fwd == pytest.approx(0.4115847182525979, rel=1e-12)
    assert 0.0 <= p_rev <= 1.0


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

# every chi-squared shape the battery takes, up to block frequency at 10^5
# and 10^6 bits (781 and 7812 blocks of 128)
_IGAMC_SHAPES = [k / 2 for k in range(1, 129)] + [390.5, 3906.0]
_IGAMC_SCALES = (1e-3, 0.1, 0.5, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5, 2.0, 3.0)


def _decimal_igamc(n, x):
    """Q(n, x) = exp(-x) sum_{k<n} x^k / k! in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(x)
        term = total = Decimal(1)
        for k in range(1, n):
            term = term * x / k
            total += term
        return float(total * (-x).exp())


def test_igamc_matches_exact_sums_and_reference():
    # integer shapes against the same finite sum done exactly, half-integer
    # ones against SciPy's general-shape evaluation
    for a in _IGAMC_SHAPES:
        for x in [a * s + dx for s in _IGAMC_SCALES for dx in (0.0, 0.37)]:
            ref = _decimal_igamc(int(a), x) if a % 1 == 0 else float(gammaincc(a, x))
            if ref > 1e-12:
                assert stats._igamc(a, x) == pytest.approx(ref, rel=1e-12, abs=0), (a, x)


def test_igamc_limits():
    assert stats._igamc(4.5, 0.0) == 1.0
    assert math.isnan(stats._igamc(4.5, -1e-300))
    assert stats._igamc(0.5, 2.0) == math.erfc(math.sqrt(2.0))
    assert stats._igamc(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert stats._igamc(3906.0, 1e5) == 0.0


# ---------------------------------------------------------------------------
# naive dual-route oracles for the vectorised internals
# ---------------------------------------------------------------------------


def _naive_longest_run(row):
    best = cur = 0
    for b in row:
        cur = cur + 1 if b else 0
        best = max(best, cur)
    return best


def _packed(bits):
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")


def test_longest_run_category_matches_naive():
    rng = np.random.default_rng(13)
    for _, block_len, cats, _ in _LONGEST_RUN_TABLES:
        random_rows = rng.random((40, block_len)) < rng.choice([0.5, 0.9], (40, 1))
        # one run of each length 0 .. cats[-1] + 1 on zeros, then all ones
        planted = np.zeros((cats[-1] + 3, block_len), dtype=bool)
        for length, row in enumerate(planted[:-1]):
            start = rng.integers(0, block_len - length + 1)
            row[start : start + length] = True
        planted[-1] = True
        # runs that end at a block's last bit and go on from the next one's
        # first: each block counts only its own part
        edges = np.zeros((4, block_len), dtype=bool)
        edges[0, -cats[-1] :] = edges[1, : cats[-1]] = True
        edges[2, -2:] = edges[3, :1] = True
        blocks = np.vstack([random_rows, planted, edges]).astype(np.uint8)
        naive = [min(max(_naive_longest_run(row), cats[0]), cats[-1]) for row in blocks]
        # a block alone, and all at once: each block's own category is counted
        for row, category in zip(blocks, naive):
            counts = _longest_run_counts(_packed(row), 1, block_len, cats[0], cats[-1])
            assert counts.tolist() == [int(c == category) for c in cats]
        counts = _longest_run_counts(_packed(blocks.ravel()), len(blocks), block_len,
                                     cats[0], cats[-1])
        assert counts.tolist() == np.bincount(np.subtract(naive, cats[0]),
                                              minlength=len(cats)).tolist()
        assert naive[40] == cats[0] and naive[-5] == cats[-1]


def _naive_pattern_counts(eps, m):
    from collections import Counter

    ext = list(eps) + list(eps[: m - 1])
    c = Counter(
        int("".join(str(b) for b in ext[i : i + m]), 2) for i in range(len(eps))
    )
    out = np.zeros(1 << m, dtype=np.int64)
    for v, k in c.items():
        out[v] = k
    return out


def test_pattern_counts_match_naive():
    # lengths off and on a byte edge; m up to 17, whose windows span three bytes
    rng = np.random.default_rng(14)
    for _ in range(30):
        eps = rng.integers(0, 2, int(rng.integers(16, 200)), dtype=np.uint8)
        m = int(rng.choice([1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 17]))
        counts = _pattern_counts(_packed(eps), eps.size, m)
        np.testing.assert_array_equal(counts, _naive_pattern_counts(eps, m))
        if m >= 2:  # serial and ApEn fold the m-bit counts to m - 1 bits
            np.testing.assert_array_equal(
                _fold(counts), _naive_pattern_counts(eps, m - 1)
            )
    # total count equals the (circular) sequence length
    eps = rng.integers(0, 2, 100, dtype=np.uint8)
    assert _pattern_counts(_packed(eps), 100, 3).sum() == 100
    # the circular extension of a sequence shorter than a window's bytes
    eps = _bits("011")
    for m in (1, 2):
        np.testing.assert_array_equal(_pattern_counts(_packed(eps), 3, m),
                                      _naive_pattern_counts(eps, m))


def _naive_cusum_pvalue(z, n):
    from scipy.stats import norm

    total = 1.0
    for k in range(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1):
        total -= norm.cdf((4 * k + 1) * z / math.sqrt(n)) - norm.cdf(
            (4 * k - 1) * z / math.sqrt(n)
        )
    for k in range(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1):
        total += norm.cdf((4 * k + 3) * z / math.sqrt(n)) - norm.cdf(
            (4 * k + 1) * z / math.sqrt(n)
        )
    return total


def test_cusum_pvalue_matches_naive():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(50, 5000))
        z = float(rng.integers(3, int(math.sqrt(n) * 3)))
        assert _cusum_pvalue(z, n) == pytest.approx(_naive_cusum_pvalue(z, n), abs=1e-12)


def test_cusum_statistic_from_definition():
    rng = np.random.default_rng(16)
    # a run of ones, then balanced pairs: the reverse sums peak only once
    # they take in the first bit, at the start of the sequence
    head_peak = np.r_[np.ones(40), np.tile([0, 1], 480)].astype(np.uint8)
    # 128 ones: S_n = 128 does not fit int8, whose largest value is 127
    ones = np.ones(128, np.uint8)
    for eps in (rng.integers(0, 2, 1000, dtype=np.uint8), head_peak, 1 - head_peak, ones):
        x = 2.0 * eps - 1.0
        z_fwd = float(np.abs(np.cumsum(x)).max())
        z_rev = float(np.abs(np.cumsum(x[::-1])).max())
        p_fwd, p_rev = cumulative_sums_test(eps)
        assert p_fwd == pytest.approx(_cusum_pvalue(z_fwd, eps.size), rel=1e-12)
        assert p_rev == pytest.approx(_cusum_pvalue(z_rev, eps.size), rel=1e-12)


# ---------------------------------------------------------------------------
# the per-bit formulations the packed tests replaced, as references
# ---------------------------------------------------------------------------


def _sliding_pattern_counts(eps, m):
    ext = np.concatenate([eps, eps[: m - 1]])
    windows = np.lib.stride_tricks.sliding_window_view(ext, m)
    weights = 1 << np.arange(m - 1, -1, -1)
    return np.bincount(windows @ weights, minlength=1 << m)


def _longest_run_per_block(blocks):
    idx = np.arange(blocks.shape[1])
    # index of the most recent zero at or before each position (-1 if none)
    last_zero = np.maximum.accumulate(np.where(blocks == 0, idx, -1), axis=1)
    return ((idx - last_zero) * blocks).max(axis=1)


def _reference_longest_run_test(eps):
    for min_n, block_len, cats, probs in _LONGEST_RUN_TABLES:
        if eps.size >= min_n:
            break
    n_blocks = eps.size // block_len
    blocks = eps[: n_blocks * block_len].reshape(n_blocks, block_len)
    clipped = np.clip(_longest_run_per_block(blocks), cats[0], cats[-1])
    v = np.array([np.count_nonzero(clipped == c) for c in cats], dtype=np.float64)
    expected = n_blocks * np.asarray(probs)
    chi_sq = float(np.sum((v - expected) ** 2 / expected))
    return stats._igamc((len(cats) - 1) / 2.0, chi_sq / 2.0)


def _reference_cumulative_sums_test(eps):
    x = 2.0 * eps.astype(np.float64) - 1.0
    z_fwd = float(np.abs(np.cumsum(x)).max())
    z_rev = float(np.abs(np.cumsum(x[::-1])).max())
    return _cusum_pvalue(z_fwd, eps.size), _cusum_pvalue(z_rev, eps.size)


def _reference_frequency_test(eps):
    s_obs = abs(2.0 * float(eps.sum()) - eps.size) / math.sqrt(eps.size)
    return math.erfc(s_obs / math.sqrt(2.0))


def _reference_block_frequency_test(eps, block_len=128):
    n_blocks = eps.size // block_len
    pi = eps[: n_blocks * block_len].reshape(n_blocks, block_len).mean(axis=1)
    chi_sq = 4.0 * block_len * float(np.sum((pi - 0.5) ** 2))
    return stats._igamc(n_blocks / 2.0, chi_sq / 2.0)


def _reference_runs_test(eps):
    n = eps.size
    pi = float(eps.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n) or pi in (0.0, 1.0):
        return 0.0
    v_obs = 1 + int(np.count_nonzero(eps[1:] != eps[:-1]))
    num = abs(v_obs - 2.0 * n * pi * (1.0 - pi))
    return math.erfc(num / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))


def _reference_spectral_test(eps):
    n = eps.size
    spectrum = np.abs(np.fft.rfft(2.0 * eps - 1.0))[: n // 2]
    n1 = int(np.count_nonzero(spectrum < math.sqrt(math.log(1.0 / 0.05) * n)))
    d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return math.erfc(abs(d) / math.sqrt(2.0))


def _reference_psi_sq(eps, m):
    if m == 0:
        return 0.0
    counts = _sliding_pattern_counts(eps, m).astype(np.float64)
    return float(counts.size / eps.size * np.sum(counts**2) - eps.size)


def _reference_serial_test(eps, m=8):
    psi_m, psi_m1, psi_m2 = (_reference_psi_sq(eps, k) for k in (m, m - 1, m - 2))
    return (stats._igamc(2 ** (m - 2), (psi_m - psi_m1) / 2.0),
            stats._igamc(2 ** (m - 3), (psi_m - 2.0 * psi_m1 + psi_m2) / 2.0))


def _reference_approximate_entropy_test(eps, m=6):
    n = eps.size

    def phi(k):
        counts = _sliding_pattern_counts(eps, k)
        c = counts[counts > 0].astype(np.float64) / n
        return float(np.sum(c * np.log(c)))

    chi_sq = 2.0 * n * (math.log(2.0) - (phi(m) - phi(m + 1)))
    return stats._igamc(2 ** (m - 1), chi_sq / 2.0)


def _rewritten_pvalues(eps):
    return tuple(np.hstack([func(eps) for _, func, _ in NIST_SUBSET_TESTS]).tolist())


def _reference_pvalues(eps):
    return (_reference_frequency_test(eps), _reference_block_frequency_test(eps),
            _reference_runs_test(eps), _reference_longest_run_test(eps),
            *_reference_cumulative_sums_test(eps), _reference_spectral_test(eps),
            *_reference_serial_test(eps), _reference_approximate_entropy_test(eps))


@given(
    # lengths of the M = 8 and the M = 128 longest-run tables
    n=st.one_of(st.integers(128, 6_271), st.integers(6_272, 40_000)),
    kind=st.sampled_from(["fair", "p0.3", "p0.9", "runs"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(  # 60 examples, or the "ci" profile's 600 (tests/conftest.py)
    max_examples=(settings.default.max_examples
                  if settings.get_current_profile_name() == "ci" else 60),
    deadline=None,
)
def test_exact_kernels_match_reference_pvalues(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "runs":  # alternating runs of geometric length, mean 16
        lengths = rng.geometric(1 / 16, n)
        eps = ((np.arange(n) + int(rng.integers(2))) % 2).repeat(lengths)[:n]
    else:
        eps = rng.random(n) < {"fair": 0.5, "p0.3": 0.3, "p0.9": 0.9}[kind]
    eps = eps.astype(np.uint8)
    assert _rewritten_pvalues(eps) == _reference_pvalues(eps)


def test_exact_kernels_match_reference_at_sp800_22_length():
    # 10^6 bits, the standard's sequence length: the M = 10^4 longest-run table
    eps = np.random.default_rng(20).integers(0, 2, 1_000_000, dtype=np.uint8)
    assert _rewritten_pvalues(eps) == _reference_pvalues(eps)


# ---------------------------------------------------------------------------
# degenerate inputs
# ---------------------------------------------------------------------------


def test_all_ones_fails_every_test():
    bits = pack_bits(np.ones(10 * 256, dtype=np.uint8))
    reports = nist_subset(bits, n_sequences=10, seq_len_bits=256)
    assert len(reports) == 10
    for r in reports:
        assert r.pass_rate == 0.0, r.test_name


def test_alternating_bits_fail_serial_and_runs():
    eps = np.tile(np.array([0, 1], dtype=np.uint8), 512)
    assert runs_test(eps) < 1e-6  # twice the expected number of runs
    p1, _ = serial_test(eps, m=8)
    assert p1 < 1e-6
    # but the monobit count is perfectly balanced
    assert frequency_test(eps) == pytest.approx(1.0)


def test_bits_validation():
    with pytest.raises(ValueError):
        frequency_test(np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        frequency_test(np.zeros(0, dtype=np.uint8))
    with pytest.raises(ValueError, match="at least 128"):
        longest_run_test(np.ones(100, dtype=np.uint8) * 0)
    with pytest.raises(ValueError, match="m >= 2"):
        serial_test(_bits("0101"), m=1)
    with pytest.raises(ValueError, match="too large"):
        serial_test(_bits("0101"), m=4)
    with pytest.raises(ValueError, match="too large"):
        approximate_entropy_test(_bits("0101"), m=3)
    with pytest.raises(ValueError, match="above 57"):  # a window is read from 8 bytes
        serial_test(np.zeros(100, np.uint8), m=58)
    with pytest.raises(ValueError):
        block_frequency_test(_bits("0101"), block_len=8)
    with pytest.raises(ValueError, match="block_len must be >= 1"):  # not ZeroDivisionError
        block_frequency_test(np.zeros(256, np.uint8), block_len=0)
    with pytest.raises(ValueError, match="block_len must be >= 1"):
        block_frequency_test(np.zeros(256, np.uint8), block_len=-8)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_uniformity_pvalue_limits():
    perfect = np.repeat(np.linspace(0.05, 0.95, 10), 10)
    assert uniformity_pvalue(perfect) == pytest.approx(1.0, rel=1e-12)
    concentrated = np.full(100, 0.05)
    assert uniformity_pvalue(concentrated) < 1e-12
    with pytest.raises(ValueError):
        uniformity_pvalue([])


def test_uniformity_pvalue_binning_is_closed_at_one():
    # p = 1.0 exactly must land in the top bin, not out of range
    ps = list(np.linspace(0.05, 0.95, 10)) * 10
    ps[0] = 1.0
    assert 0.0 <= uniformity_pvalue(ps) <= 1.0


def test_pass_rate_band_reference():
    lo, hi = pass_rate_band(100)
    assert lo == pytest.approx(0.99 - 3 * math.sqrt(0.99 * 0.01 / 100), rel=1e-12)
    assert lo == pytest.approx(0.96015, abs=5e-6)
    assert hi == 1.0  # clamped
    lo2, _ = pass_rate_band(1000)
    assert lo2 > lo  # band tightens with more sequences
    with pytest.raises(ValueError):
        pass_rate_band(0)


def test_test_report_validation():
    with pytest.raises(ValueError):
        StatsReport("x", (1.5,), 0.5, 0.5)
    with pytest.raises(ValueError):
        StatsReport("x", (0.5,), 1.5, 0.5)


def test_nist_subset_row_names_and_order():
    rng = np.random.default_rng(17)
    bits = pack_bits(rng.integers(0, 2, 2 * 256, dtype=np.uint8))
    reports = nist_subset(bits, n_sequences=2, seq_len_bits=256)
    assert [r.test_name for r in reports] == [
        "frequency",
        "block_frequency",
        "runs",
        "longest_run",
        "cumulative_sums_forward",
        "cumulative_sums_reverse",
        "spectral",
        "serial_1",
        "serial_2",
        "approximate_entropy",
    ]
    assert all(len(r.per_sequence_pvalues) == 2 for r in reports)


def test_nist_subset_on_ideal_bits():
    rng = np.random.default_rng(13579)
    bits = pack_bits(rng.integers(0, 2, 20 * 2048, dtype=np.uint8))
    reports = nist_subset(bits, n_sequences=20, seq_len_bits=2048)
    lo, _ = pass_rate_band(20)
    for r in reports:
        assert r.pass_rate >= lo, r.test_name
        assert r.uniformity_pvalue >= 1e-4, r.test_name


def test_nist_subset_unpacks_only_the_tested_head():
    # 7 x 1025 bits end mid-byte; the long stream has 10x that many bits, and
    # the bits after the head share its last byte
    rng = np.random.default_rng(19)
    stream = rng.integers(0, 2, 10 * 7 * 1025, dtype=np.uint8)
    inputs = [pack_bits(stream[:count]) for count in (7 * 1025, stream.size)]
    for bits in inputs:  # one-time set-up
        nist_subset(bits, n_sequences=7, seq_len_bits=1025)
    # each side's smallest peak of three calls, so allocator noise cannot
    # fill the margin
    peaks, reports = [], []
    for bits in inputs:
        side = []
        for _ in range(3):
            tracemalloc.start()
            try:
                report = nist_subset(bits, n_sequences=7, seq_len_bits=1025)
                side.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(min(side))
        reports.append(report)
    assert reports[0] == reports[1]
    # unpacking the whole stream would add one byte a bit, 64 575 bytes
    assert peaks[1] < peaks[0] + 1025


def test_nist_subset_holds_one_sequence_at_a_time():
    # 7 and then 70 sequences of 1025 bits: unpacking every tested bit at
    # once adds a byte a bit, testing one sequence at a time only its p-values
    rng = np.random.default_rng(23)
    bits = pack_bits(rng.integers(0, 2, 70 * 1025, dtype=np.uint8))
    nist_subset(bits, n_sequences=7, seq_len_bits=1025)  # one-time set-up
    peaks = []
    for n_sequences in (7, 70):
        side = []  # the smallest peak of three calls, as above
        for _ in range(3):
            tracemalloc.start()
            try:
                nist_subset(bits, n_sequences=n_sequences, seq_len_bits=1025)
                side.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(min(side))
    assert peaks[1] - peaks[0] < 0.5 * 63 * 1025


@pytest.mark.parametrize("seq_len_bits", [128, 1025, 2048, 100_000])
def test_nist_subset_equals_the_tests_on_unpacked_slices(seq_len_bits):
    # nist_subset runs the tests on each sequence's packed bytes, shifted
    # when it starts mid-byte (1025 bits), with the spectral buffers shared;
    # each p-value must be the one its test gives on the 0/1 slice
    rng = np.random.default_rng(seq_len_bits)
    n_sequences = 3 if seq_len_bits == 100_000 else 9
    stream = rng.integers(0, 2, n_sequences * seq_len_bits + 5, dtype=np.uint8)
    stream[seq_len_bits : 2 * seq_len_bits] = rng.random(seq_len_bits) < 0.4  # a biased one
    bits = pack_bits(stream)
    reports = nist_subset(bits, n_sequences, seq_len_bits)
    expected = [
        np.hstack([func(bits.as_bit_array(i, i + seq_len_bits))
                   for _, func, _ in NIST_SUBSET_TESTS]).tolist()
        for i in range(0, n_sequences * seq_len_bits, seq_len_bits)
    ]
    got = np.array([r.per_sequence_pvalues for r in reports]).T.tolist()
    assert got == expected


def test_nist_subset_validation():
    rng = np.random.default_rng(18)
    bits = pack_bits(rng.integers(0, 2, 1000, dtype=np.uint8))
    with pytest.raises(ValueError, match="insufficient bits"):
        nist_subset(bits, n_sequences=10, seq_len_bits=256)
    with pytest.raises(ValueError, match=">= 128"):
        nist_subset(bits, n_sequences=2, seq_len_bits=100)
    with pytest.raises(ValueError):
        nist_subset(bits, n_sequences=0, seq_len_bits=256)


def test_meta_uniformity_of_frequency_test():
    # 50 independent batches of 100 ideal sequences: the 10-bin uniformity
    # p-value clears 1e-4 every time (expected true rate is well above 99%)
    ok = 0
    for k in range(50):
        g = np.random.default_rng(1000 + k)
        ps = [frequency_test(g.integers(0, 2, 256, dtype=np.uint8)) for _ in range(100)]
        if uniformity_pvalue(ps) >= 1e-4:
            ok += 1
    assert ok >= 49


def test_subset_registry_shape():
    names = [name for name, _, _ in NIST_SUBSET_TESTS]
    assert names == [
        "frequency",
        "block_frequency",
        "runs",
        "longest_run",
        "cumulative_sums",
        "spectral",
        "serial",
        "approximate_entropy",
    ]
    assert sum(len(rows) for _, _, rows in NIST_SUBSET_TESTS) == 10
