"""Min-entropy accounting and the leftover-hash extraction budget."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from phaseqrng.calib import qcnr_from_fit
from phaseqrng.entropy import (
    drifted_min_entropy,
    entropy_report,
    extraction_ratio,
    gaussian_bin_probabilities,
    generation_rate,
    min_entropy_gaussian,
    min_entropy_quantum,
    quantum_variance,
)
from phaseqrng.model import SignalChainConfig, VarianceFit

# the reference chain's ADC range and the configs' security and block size
REF_BUDGET = dict(range_sigmas=5.0, security_eps=2.0**-50, n_in=4096)


# ---------------------------------------------------------------------------
# quantum_variance
# ---------------------------------------------------------------------------


def test_quantum_variance_reference():
    assert quantum_variance(1.0, 3.38) == pytest.approx(0.771689497716895, rel=1e-12)


def test_quantum_variance_limits():
    assert quantum_variance(2.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    # QCNR -> infinity: everything is quantum
    assert quantum_variance(2.0, 1e12) == pytest.approx(2.0, rel=1e-9)
    # QCNR -> 0+: nothing is
    assert quantum_variance(2.0, 1e-12) == pytest.approx(0.0, abs=1e-9)


def test_quantum_variance_validation():
    with pytest.raises(ValueError):
        quantum_variance(-1.0, 3.38)
    with pytest.raises(ValueError):
        quantum_variance(1.0, 0.0)


@given(
    sigma_sq=st.floats(min_value=1e-9, max_value=1e9),
    qcnr=st.floats(min_value=1e-6, max_value=1e6),
)
def test_quantum_variance_below_total(sigma_sq, qcnr):
    q = quantum_variance(sigma_sq, qcnr)
    assert 0 <= q < sigma_sq


# ---------------------------------------------------------------------------
# binning and min-entropy
# ---------------------------------------------------------------------------


def test_bin_probabilities_sum_to_one():
    probs = gaussian_bin_probabilities(0.9, (-5.0, 5.0), 8)
    assert probs.size == 256
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0).all()


def test_bin_probabilities_match_trapezoid_oracle():
    # integrate the normal pdf over each bin with dense trapezoids instead of
    # the closed-form CDF; both routes must agree tightly
    sigma, n_bits = 0.87, 4
    lo, hi = -4.4, 4.4
    probs = gaussian_bin_probabilities(sigma, (lo, hi), n_bits)
    edges = np.linspace(lo, hi, (1 << n_bits) + 1)
    oracle = np.empty(1 << n_bits)
    for k in range(1 << n_bits):
        grid = np.linspace(edges[k], edges[k + 1], 4001)
        oracle[k] = np.trapezoid(norm.pdf(grid, scale=sigma), grid)
    oracle[0] += norm.cdf(lo / sigma)
    oracle[-1] += norm.sf(hi / sigma)
    np.testing.assert_allclose(probs, oracle, atol=1e-9)


def test_bin_probabilities_edge_bins_absorb_tails():
    # very wide Gaussian: nearly all the mass saturates into the edge bins
    probs = gaussian_bin_probabilities(100.0, (-1.0, 1.0), 8)
    assert probs[0] > 0.49
    assert probs[-1] > 0.49
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_min_entropy_reference_value():
    sigma_q = math.sqrt(quantum_variance(1.0, 3.38))
    h = min_entropy_gaussian(sigma_q, (-5.0, 5.0), 8)
    assert h == pytest.approx(5.817341541048783, abs=1e-9)
    assert 5.5 <= h <= 5.9


def test_min_entropy_binary_fair_limit():
    # enormous sigma: the two bins of a 1-bit ADC are hit 50/50
    assert min_entropy_gaussian(1e6, (-1.0, 1.0), 1) > 0.999


def test_min_entropy_vanishes_for_tiny_sigma():
    # all the mass lands in the single bin containing zero (pick a range
    # where zero is interior to a bin)
    assert min_entropy_gaussian(1e-9, (-1.1, 0.9), 2) < 1e-6


def test_min_entropy_tiny_sigma_on_symmetric_range_splits_evenly():
    # a symmetric range with an even bin count places a bin edge exactly at
    # zero, so a vanishing Gaussian splits 50/50 across the two centre bins
    assert min_entropy_gaussian(1e-9, (-5.0, 5.0), 8) == pytest.approx(1.0, abs=1e-9)


def test_min_entropy_below_adc_resolution():
    # pigeonhole: an n-bit quantiser can never yield n bits of min-entropy
    for sigma in (0.1, 0.5, 1.0, 3.0):
        assert min_entropy_gaussian(sigma, (-5.0, 5.0), 8) < 8.0


@given(st.data())
@settings(max_examples=40)
def test_min_entropy_monotone_in_sigma(data):
    # within the non-saturating regime, more quantum noise -> more entropy
    lo = data.draw(st.floats(min_value=0.01, max_value=0.19))
    hi = data.draw(st.floats(min_value=lo * 1.01, max_value=0.2))
    h_lo = min_entropy_gaussian(lo, (-1.0, 1.0), 8)
    h_hi = min_entropy_gaussian(hi, (-1.0, 1.0), 8)
    assert h_hi >= h_lo - 1e-12


@given(
    log_sigma=st.floats(min_value=-5.0, max_value=3.0),
    # -0.5 is a symmetric range, the credit's own case: with an even bin
    # count 0 is a bin edge, and the two bins beside it tie up to rounding
    low=st.one_of(st.just(-0.5), st.floats(min_value=-1.2, max_value=0.2)),
    span=st.floats(min_value=1e-3, max_value=1e3),
    n_bits=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_min_entropy_is_the_largest_of_all_bins(log_sigma, low, span, n_bits):
    # the credit evaluates only the edge bins and the bins around 0; from
    # low = -1.2 to 0.2 zero may also lie outside the range
    sigma, v_range = span * 10.0**log_sigma, (low * span, (low + 1.0) * span)
    probs = gaussian_bin_probabilities(sigma, v_range, n_bits)
    assert min_entropy_gaussian(sigma, v_range, n_bits) == float(-np.log2(probs.max()))


def test_bin_probabilities_validation():
    with pytest.raises(ValueError):
        gaussian_bin_probabilities(0.0, (-1.0, 1.0), 8)
    with pytest.raises(ValueError):
        gaussian_bin_probabilities(1.0, (1.0, -1.0), 8)
    with pytest.raises(ValueError):
        gaussian_bin_probabilities(1.0, (-1.0, 1.0), 0)
    with pytest.raises(ValueError):
        gaussian_bin_probabilities(1.0, (-1.0, 1.0), 17)


# ---------------------------------------------------------------------------
# extraction ratio / generation rate
# ---------------------------------------------------------------------------


def test_extraction_ratio_reference():
    r = extraction_ratio(5.6, 8, security_eps=2.0**-50, n_in=10**6)
    assert r == pytest.approx(0.6999, rel=1e-12)


def test_extraction_ratio_penalty_shrinks_with_block_size():
    r_small = extraction_ratio(5.6, 8, security_eps=2.0**-50, n_in=4096)
    r_large = extraction_ratio(5.6, 8, security_eps=2.0**-50, n_in=10**6)
    assert r_small < r_large < 5.6 / 8


def test_extraction_ratio_approaches_entropy_fraction():
    r = extraction_ratio(8.0, 8, security_eps=0.4999, n_in=10**12)
    assert r == pytest.approx(1.0, abs=1e-9)


def test_extraction_ratio_never_exceeds_one():
    assert extraction_ratio(8.0, 8, security_eps=0.9, n_in=100) <= 1.0


def test_extraction_ratio_block_too_small():
    with pytest.raises(ValueError, match="block too small"):
        extraction_ratio(5.6, 8, security_eps=2.0**-50, n_in=100)


def test_extraction_ratio_needs_one_output_bit_per_block():
    # 0.785/8 - 100/1024 is positive, but keeps 0.48 bit of a 1024-bit block
    with pytest.raises(ValueError, match="block too small"):
        extraction_ratio(0.785, 8, security_eps=2.0**-50, n_in=1024)
    # one bit per block is the smallest budget (every term is dyadic, so exact)
    assert extraction_ratio(101 * 8 / 1024, 8, security_eps=2.0**-50, n_in=1024) == 1 / 1024


def test_extraction_ratio_validation():
    with pytest.raises(ValueError):
        extraction_ratio(0.0, 8, security_eps=2.0**-50, n_in=4096)
    with pytest.raises(ValueError):  # more entropy than bits
        extraction_ratio(9.0, 8, security_eps=2.0**-50, n_in=4096)
    with pytest.raises(ValueError):
        extraction_ratio(5.6, 8, security_eps=1.5, n_in=4096)
    with pytest.raises(ValueError):
        extraction_ratio(5.6, 8, security_eps=2.0**-50, n_in=0)


@given(
    h=st.floats(min_value=0.5, max_value=8.0),
    log2_eps=st.integers(min_value=-128, max_value=-10),
    n_in=st.integers(min_value=2048, max_value=10**7),
)
def test_extraction_ratio_below_entropy_fraction(h, log2_eps, n_in):
    assume((h / 8 + 2.0 * log2_eps / n_in) * n_in >= 1)  # one output bit per block
    r = extraction_ratio(h, 8, security_eps=2.0**log2_eps, n_in=n_in)
    assert 0 < r < h / 8


def test_generation_rate_values():
    assert generation_rate(5.6, 500e6) == 2.8e9
    assert generation_rate(0.0, 500e6) == 0.0
    assert generation_rate(8.0, 500e6) == 4.0e9
    with pytest.raises(ValueError):
        generation_rate(-1.0, 500e6)


@given(
    sigma_sq=st.floats(min_value=1e-12, max_value=1e6),
    qcnr=st.floats(min_value=1e-3, max_value=1e3),
    adc_bits=st.integers(min_value=1, max_value=16),
    range_sigmas=st.floats(min_value=0.5, max_value=10.0),
)
def test_min_entropy_quantum_is_free_of_the_variance(sigma_sq, qcnr, adc_bits, range_sigmas):
    # the ADC range, the quantum share and the total signal all scale with
    # the total sigma
    v_half = range_sigmas * math.sqrt(sigma_sq)
    grid = (-v_half, v_half)
    scaled = min(
        min_entropy_gaussian(math.sqrt(quantum_variance(sigma_sq, qcnr)), grid, adc_bits),
        min_entropy_gaussian(math.sqrt(sigma_sq), grid, adc_bits),
    )
    assert min_entropy_quantum(qcnr, adc_bits, range_sigmas) == pytest.approx(
        scaled, rel=1e-11
    )


@given(
    qcnr=st.floats(min_value=1e-3, max_value=1e3),
    adc_bits=st.integers(min_value=1, max_value=16),
    range_sigmas=st.floats(min_value=0.5, max_value=10.0),
)
def test_min_entropy_quantum_never_exceeds_the_codes_own(qcnr, adc_bits, range_sigmas):
    # the codes clip the total signal, and no side information raises their
    # min-entropy: the oracle bins N(0, 1) on the same grid, every bin
    edges = np.linspace(-range_sigmas, range_sigmas, (1 << adc_bits) + 1)
    probs = np.diff(norm.cdf(edges))
    probs[[0, -1]] += norm.cdf(-range_sigmas)
    codes_own = -math.log2(probs.max())
    assert min_entropy_quantum(qcnr, adc_bits, range_sigmas) <= codes_own + 1e-12


# ---------------------------------------------------------------------------
# drifted_min_entropy
# ---------------------------------------------------------------------------


def test_drifted_min_entropy_at_quadrature_is_the_calibrated_credit(ref_fit):
    chain = SignalChainConfig()
    power = 2.47e-4
    full = ref_fit.ac * power**2 + ref_fit.aq * power + ref_fit.f
    assert drifted_min_entropy(full, power, ref_fit, chain) == min_entropy_quantum(
        qcnr_from_fit(ref_fit, power), chain.adc_bits, chain.adc_range_sigmas)


def test_drifted_min_entropy_falls_with_the_quadrature_error(ref_fit):
    power = 2.47e-4
    full = ref_fit.ac * power**2 + ref_fit.aq * power + ref_fit.f
    h = [drifted_min_entropy(ref_fit.f + (full - ref_fit.f) * cos_sq, power, ref_fit,
                             SignalChainConfig()) for cos_sq in (1.0, 0.5, 0.1, 0.0)]
    assert h[0] > h[1] > h[2] > h[3] == 0.0


def test_drifted_min_entropy_without_classical_or_electronic_noise_raises():
    # the QCNR aq P / (ac P^2 + f) has no denominator: calib refuses it
    with pytest.raises(ValueError, match="zero denominator"):
        drifted_min_entropy(1e-5, 1e-3, VarianceFit(0.0, 0.01, 0.0, 1.0), SignalChainConfig())


# ---------------------------------------------------------------------------
# entropy_report assembly
# ---------------------------------------------------------------------------


def test_entropy_report_reference_point():
    rep = entropy_report(1.0, 3.38, adc_bits=8, **REF_BUDGET)
    assert rep.sigma_sq_quantum == pytest.approx(0.771689497716895, rel=1e-12)
    assert rep.min_entropy_bits == pytest.approx(5.817341541048783, abs=1e-9)
    # Eq. for the budget holds exactly given eps=2^-50, n_in=4096
    penalty = 2.0 * 50 / 4096
    assert rep.extraction_ratio == pytest.approx(
        rep.min_entropy_bits / 8 - penalty, rel=1e-12
    )


def test_entropy_report_scale_invariance():
    # H depends only on sigma_q / sigma_total (both scale with the signal)
    a = entropy_report(1.0, 3.38, adc_bits=8, **REF_BUDGET)
    b = entropy_report(1e-5, 3.38, adc_bits=8, **REF_BUDGET)
    assert a.min_entropy_bits == pytest.approx(b.min_entropy_bits, rel=1e-12)


def test_entropy_report_override_reduces_budget():
    rep = entropy_report(1.0, 3.38, adc_bits=8, range_sigmas=5.0, security_eps=2.0**-50,
                         n_in=10**6, min_entropy_override=5.6)
    assert rep.min_entropy_bits == 5.6
    assert rep.extraction_ratio == pytest.approx(0.6999, rel=1e-12)


def test_entropy_report_override_cannot_exceed_recomputed():
    with pytest.raises(ValueError, match="override exceeds"):
        entropy_report(1.0, 3.38, adc_bits=8, **REF_BUDGET, min_entropy_override=5.83)
    with pytest.raises(ValueError):
        entropy_report(1.0, 3.38, adc_bits=8, **REF_BUDGET, min_entropy_override=0.0)


def test_entropy_report_credits_an_override_at_most_at_the_recomputed_value():
    # an override within the 1e-9 acceptance tolerance is not credited above H
    h = entropy_report(1.0, 3.38, adc_bits=8, **REF_BUDGET).min_entropy_bits
    rep = entropy_report(1.0, 3.38, adc_bits=8, **REF_BUDGET, min_entropy_override=h + 9e-10)
    assert rep.min_entropy_bits == h


def test_entropy_report_validation():
    with pytest.raises(ValueError):
        entropy_report(0.0, 3.38, adc_bits=8, **REF_BUDGET)
    with pytest.raises(ValueError, match="sigma_sq_total must be > 0"):
        entropy_report(math.nan, 3.38, adc_bits=8, **REF_BUDGET)


@given(qcnr=st.floats(min_value=0.2, max_value=50.0))
@settings(max_examples=30)
def test_entropy_report_internally_consistent(qcnr):
    rep = entropy_report(2.5e-6, qcnr, adc_bits=8, **REF_BUDGET)
    assert rep.sigma_sq_quantum <= rep.sigma_sq_total
    assert 0 < rep.min_entropy_bits < 8
    assert rep.extraction_ratio <= rep.min_entropy_bits / 8
