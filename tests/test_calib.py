"""Variance-vs-power fitting, QCNR estimators and the quadrature search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseqrng.calib import (
    find_quadrature,
    fit_report_text,
    fit_variance_vs_power,
    qcnr_attenuation,
    qcnr_from_fit,
    qcnr_optimal_power,
)
from phaseqrng.model import VarianceFit

from conftest import AC_REF, AQ_REF, F_REF


def _exact_points(ac, aq, f, powers):
    return powers, [ac * p**2 + aq * p + f for p in powers]


REF_POWERS = np.geomspace(1e-5, 1e-3, 10)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_reference_coefficients_exactly():
    fit = fit_variance_vs_power(*_exact_points(AC_REF, AQ_REF, F_REF, REF_POWERS))
    assert fit.ac == pytest.approx(AC_REF, rel=1e-6)
    assert fit.aq == pytest.approx(AQ_REF, rel=1e-6)
    assert fit.f == pytest.approx(F_REF, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_unit_coefficients():
    fit = fit_variance_vs_power(*_exact_points(1.0, 1.0, 1.0, [1, 2, 3, 4, 5]))
    assert fit.ac == pytest.approx(1.0, rel=1e-9)
    assert fit.aq == pytest.approx(1.0, rel=1e-9)
    assert fit.f == pytest.approx(1.0, rel=1e-9)


def test_fit_needs_four_points():
    with pytest.raises(ValueError, match="at least 4"):
        fit_variance_vs_power(*_exact_points(1, 1, 1, [1, 2, 3]))


def test_fit_needs_three_distinct_powers():
    with pytest.raises(ValueError, match="rank deficient"):
        fit_variance_vs_power([1.0, 1.0, 2.0, 2.0], [3.0, 3.0, 7.0, 7.0])


def test_fit_rejects_strongly_negative_coefficient():
    # variance decreasing in power cannot be ac*P^2 + aq*P + f with aq >= 0
    powers = [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(ValueError, match="model mismatch"):
        fit_variance_vs_power(powers, [5.0 - p for p in powers])


def test_fit_clamps_tiny_negative_to_zero():
    # data generated with f=0 plus symmetric jitter: the unconstrained
    # solution may dip just below zero, which must clamp rather than raise
    powers = np.linspace(1.0, 5.0, 9)
    jitter = 1e-9 * np.array([1, -1, 1, -1, 1, -1, 1, -1, 1])
    fit = fit_variance_vs_power(powers, powers**2 + 2.0 * powers + jitter)
    assert fit.ac >= 0 and fit.aq >= 0 and fit.f >= 0
    assert fit.f <= 1e-8
    assert fit.r_squared > 0.999999


def test_fit_r_squared_degrades_with_noise():
    rng = np.random.default_rng(12)
    powers = np.linspace(0.1, 1.0, 20)
    clean = 2.0 * powers**2 + 1.0 * powers + 0.5
    noisy = clean * (1.0 + 0.05 * rng.standard_normal(20))
    fit = fit_variance_vs_power(powers, noisy)
    assert 0.9 < fit.r_squared < 1.0


def test_fit_reports_the_standard_error_of_aq():
    # against np.polyfit's residual-scaled covariance, computed on its own
    rng = np.random.default_rng(12)
    powers = np.linspace(0.1, 1.0, 20)
    noisy = (2.0 * powers**2 + 1.0 * powers + 0.5) * (1.0 + 0.05 * rng.standard_normal(20))
    _, cov = np.polyfit(powers, noisy, 2, cov=True)
    assert fit_variance_vs_power(powers, noisy).aq_se == pytest.approx(
        math.sqrt(cov[1, 1]), rel=1e-9)
    assert fit_variance_vs_power(*_exact_points(1.0, 1.0, 1.0, [1, 2, 3, 4, 5])).aq_se < 1e-9


def test_fit_input_validation():
    powers, variances = _exact_points(1, 1, 1, [1, 2, 3, 4])
    with pytest.raises(ValueError, match=">= 0"):
        fit_variance_vs_power([-1.0, *powers[1:]], variances)
    with pytest.raises(ValueError, match=">= 0"):
        fit_variance_vs_power(powers, [-1.0, *variances[1:]])
    with pytest.raises(ValueError, match="one length"):
        fit_variance_vs_power(powers, variances[:-1])


@given(
    ac=st.floats(min_value=1e-2, max_value=1e3),
    aq=st.floats(min_value=1e-4, max_value=10.0),
    f=st.floats(min_value=1e-4, max_value=1.0),
)
@settings(max_examples=50)
def test_fit_roundtrips_exact_quadratics(ac, aq, f):
    fit = fit_variance_vs_power(*_exact_points(ac, aq, f, np.linspace(0.5, 2.0, 8)))
    assert fit.ac == pytest.approx(ac, rel=1e-5)
    assert fit.aq == pytest.approx(aq, rel=1e-5)
    # the floor is many orders below the quadratic term at these powers, so
    # its recovery is limited by the conditioning of the design matrix
    assert fit.f == pytest.approx(f, rel=1e-4, abs=1e-9 * ac)


# ---------------------------------------------------------------------------
# QCNR estimators
# ---------------------------------------------------------------------------


def _ref_fit():
    return VarianceFit(ac=AC_REF, aq=AQ_REF, f=F_REF, r_squared=1.0)


def test_qcnr_optimal_reference():
    p_star, q_max = qcnr_optimal_power(_ref_fit())
    assert p_star == pytest.approx(2.469405135090878e-4, rel=1e-12)
    assert q_max == pytest.approx(3.4023554584852467, rel=1e-12)
    # the headline operating point: peak QCNR ~ 3.4 around 0.247 mW
    assert q_max == pytest.approx(3.40, abs=0.05)
    assert p_star == pytest.approx(2.47e-4, rel=0.02)


def test_qcnr_optimal_unit_case():
    p_star, q_max = qcnr_optimal_power(VarianceFit(ac=1.0, aq=2.0, f=1.0, r_squared=1.0))
    assert p_star == pytest.approx(1.0, rel=1e-12)
    assert q_max == pytest.approx(1.0, rel=1e-12)


def test_qcnr_from_fit_matches_peak_at_p_star():
    fit = _ref_fit()
    p_star, q_max = qcnr_optimal_power(fit)
    assert qcnr_from_fit(fit, p_star) == pytest.approx(q_max, rel=1e-12)
    # stationarity: numerically flat around the analytic optimum
    h = 1e-7 * p_star
    slope = (qcnr_from_fit(fit, p_star + h) - qcnr_from_fit(fit, p_star - h)) / (2 * h)
    assert abs(slope) * p_star / q_max < 1e-6


def test_qcnr_from_fit_decreases_away_from_peak():
    fit = _ref_fit()
    p_star, q_max = qcnr_optimal_power(fit)
    assert qcnr_from_fit(fit, p_star / 10) < q_max
    assert qcnr_from_fit(fit, p_star * 10) < q_max


def test_qcnr_from_fit_validation():
    with pytest.raises(ValueError):
        qcnr_from_fit(_ref_fit(), 0.0)
    with pytest.raises(ValueError, match="zero denominator"):
        qcnr_from_fit(VarianceFit(ac=0.0, aq=1.0, f=0.0, r_squared=1.0), 1.0)


def test_qcnr_optimal_requires_interior_optimum():
    assert qcnr_optimal_power(VarianceFit(ac=0.0, aq=1.0, f=1.0, r_squared=1.0)) is None
    assert qcnr_optimal_power(VarianceFit(ac=1.0, aq=1.0, f=0.0, r_squared=1.0)) is None


def test_qcnr_attenuation_values():
    assert qcnr_attenuation(4.38, 1.0) == pytest.approx(3.38, rel=1e-12)
    assert qcnr_attenuation(2.0, 2.0) == 0.0
    assert qcnr_attenuation(0.9, 1.0) == 0.0  # negative excess clamps
    with pytest.raises(ValueError):
        qcnr_attenuation(1.0, 0.0)


@given(
    sigma_sq=st.floats(min_value=1e-9, max_value=1e3),
    sigma_sq_att=st.floats(min_value=1e-9, max_value=1e3),
    scale=st.floats(min_value=1e-6, max_value=1e6),
)
def test_qcnr_attenuation_scale_invariant(sigma_sq, sigma_sq_att, scale):
    a = qcnr_attenuation(sigma_sq, sigma_sq_att)
    b = qcnr_attenuation(sigma_sq * scale, sigma_sq_att * scale)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# quadrature search
# ---------------------------------------------------------------------------


def _fringe(phis, offset=0.0, amp=1.0, floor=0.1):
    # variance fringe of a phase scan: maximum at phi = pi/2 + offset
    return [(float(p), floor + amp * math.sin(p - offset) ** 2) for p in phis]


def test_find_quadrature_on_clean_fringe():
    phis = np.linspace(0.0, math.pi, 17)
    phi2 = find_quadrature(_fringe(phis))
    assert phi2 == pytest.approx(math.pi / 2, abs=1e-6)


def test_find_quadrature_tracks_offset():
    phis = np.linspace(0.0, math.pi, 33)
    phi2 = find_quadrature(_fringe(phis, offset=0.2))
    assert phi2 == pytest.approx(math.pi / 2 + 0.2, abs=0.02)


def test_find_quadrature_accepts_unsorted_input():
    phis = list(np.linspace(0.0, math.pi, 17))
    fringe = _fringe(phis)
    fringe.reverse()
    assert find_quadrature(fringe) == pytest.approx(math.pi / 2, abs=1e-6)


def test_find_quadrature_needs_eight_points():
    phis = np.linspace(0.0, math.pi, 7)
    with pytest.raises(ValueError, match="at least 8"):
        find_quadrature(_fringe(phis))


def test_find_quadrature_needs_pi_span():
    phis = np.linspace(0.0, 2.0, 12)  # < pi
    with pytest.raises(ValueError, match="span at least pi"):
        find_quadrature(_fringe(phis))


def test_find_quadrature_rejects_flat_fringe():
    phis = np.linspace(0.0, math.pi, 17)
    flat = [(float(p), 0.5) for p in phis]
    with pytest.raises(ValueError, match="no interference contrast"):
        find_quadrature(flat)


def test_find_quadrature_tie_breaks_toward_smaller_phase():
    # a smooth fringe spanning two full periods has equal maxima at pi/2 and
    # 3*pi/2; the first (smaller phase) must win
    phis = np.linspace(0.0, 2.0 * math.pi, 17)
    phi2 = find_quadrature(_fringe(phis))
    assert phi2 == pytest.approx(math.pi / 2, abs=1e-9)


def test_find_quadrature_boundary_maximum_returns_grid_point():
    # monotone fringe: the maximum sits on the scan boundary
    phis = np.linspace(0.0, math.pi, 12)
    fringe = [(float(p), 0.1 + p) for p in phis]
    assert find_quadrature(fringe) == pytest.approx(math.pi)


@given(offset=st.floats(min_value=-0.3, max_value=0.3))
@settings(max_examples=40)
def test_find_quadrature_within_grid_step(offset):
    phis = np.linspace(0.0, math.pi, 21)
    phi2 = find_quadrature(_fringe(phis, offset=offset))
    step = phis[1] - phis[0]
    assert abs(phi2 - (math.pi / 2 + offset)) < step


# ---------------------------------------------------------------------------
# persistence helpers
# ---------------------------------------------------------------------------


def test_fit_report_text_contents():
    text = fit_report_text(_ref_fit())
    assert "ac_v2_per_w2 = 22.519" in text
    assert "aq_v2_per_w = 0.03784" in text
    assert "aq_se_v2_per_w = 0.0\n" in text  # an exact fit leaves no doubt
    assert "f_v2 = 1.3732e-06" in text
    assert "r_squared = 1.0" in text
    assert "qcnr_peak = 3.40" in text
    assert text.endswith("\n")


def test_fit_report_text_omits_undefined_peak():
    text = fit_report_text(VarianceFit(ac=0.0, aq=1.0, f=1.0, r_squared=1.0))
    assert "qcnr_peak" not in text
