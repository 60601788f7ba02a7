"""Calibration: variance-vs-power fit, QCNR estimators, quadrature search.

The workhorse is an ordinary least-squares fit of

    sigma^2(P) = AC*P^2 + AQ*P + F

to measured (power, variance) pairs.  From the fitted coefficients the
quantum-to-classical noise ratio at power P is

    QCNR(P) = AQ*P / (AC*P^2 + F)

maximised at P* = sqrt(F/AC) with peak value AQ / (2*sqrt(AC*F)).  An
independent, fit-free estimate comes from the attenuation method: comparing
the variance at a given detected power against the variance with the same
detected power but the quantum noise suppressed by attenuating a brighter
source,

    QCNR_exp = (sigma^2 - sigma_att^2) / sigma_att^2.
"""

from __future__ import annotations

import math

import numpy as np

from .model import VarianceFit

__all__ = [
    "MIN_FRINGE_POINTS",
    "fit_variance_vs_power",
    "qcnr_from_fit",
    "qcnr_optimal_power",
    "qcnr_attenuation",
    "find_quadrature",
    "fit_report_text",
]


def fit_variance_vs_power(powers, variances) -> VarianceFit:
    """Ordinary least-squares fit of the quadratic variance model.

    ``powers`` and ``variances`` are the measured sweep, one entry per point.
    Coefficients that come out slightly negative — within their own standard
    error — are clamped to zero; a strongly negative coefficient means the
    data do not follow the model and raises instead.
    """
    powers = np.asarray(powers, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    if powers.ndim != 1 or powers.shape != variances.shape:
        raise ValueError("powers and variances must be 1-D and of one length")
    if len(powers) < 4:
        raise ValueError("need at least 4 sweep points")
    if (powers < 0).any() or (variances < 0).any():
        raise ValueError("powers and variances must be >= 0")
    if len(set(powers.tolist())) < 3:  # np.unique would import numpy.ma
        raise ValueError("rank deficient: need at least 3 distinct powers")

    design = np.column_stack([powers**2, powers, np.ones_like(powers)])
    coef, _, _, _ = np.linalg.lstsq(design, variances, rcond=None)

    # standard errors from the residuals (for the clamping tolerance and
    # aq_se); the 4-point minimum above leaves at least one degree of freedom
    resid = variances - design @ coef
    s2 = float(resid @ resid) / (len(powers) - 3)
    cov = s2 * np.linalg.inv(design.T @ design)
    ses = np.sqrt(np.maximum(np.diag(cov), 0.0))

    clamped = coef.copy()
    for i in range(3):
        if coef[i] < 0:
            tol = max(3.0 * ses[i], 1e-12 * float(np.abs(coef).max()))
            if -coef[i] <= tol:
                clamped[i] = 0.0
            else:
                raise ValueError(
                    "model mismatch: fitted coefficient "
                    f"{('ac', 'aq', 'f')[i]} = {coef[i]:.3e} strongly negative"
                )

    predicted = clamped[0] * powers**2 + clamped[1] * powers + clamped[2]
    ss_res = float(np.sum((variances - predicted) ** 2))
    ss_tot = float(np.sum((variances - variances.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return VarianceFit(
        ac=float(clamped[0]),
        aq=float(clamped[1]),
        f=float(clamped[2]),
        r_squared=r_squared,
        aq_se=float(ses[1]),
    )


def qcnr_from_fit(fit: VarianceFit, power: float) -> float:
    """QCNR(P) = AQ*P / (AC*P^2 + F) from fitted coefficients."""
    if power <= 0:
        raise ValueError("power must be > 0")
    denom = fit.ac * power**2 + fit.f
    if denom <= 0:
        raise ValueError("zero denominator: ac*P^2 + f must be > 0")
    return fit.aq * power / denom


def qcnr_optimal_power(fit: VarianceFit) -> tuple[float, float] | None:
    """Analytic argmax and maximum of QCNR(P): (sqrt(F/AC), AQ/(2 sqrt(AC F))).

    ``None`` when ac or f is 0: QCNR then has no interior optimum.
    """
    if fit.ac <= 0 or fit.f <= 0:
        return None
    p_star = math.sqrt(fit.f / fit.ac)
    q_max = fit.aq / (2.0 * math.sqrt(fit.ac * fit.f))
    return p_star, q_max


def qcnr_attenuation(sigma_sq: float, sigma_sq_att: float) -> float:
    """Attenuation-method QCNR: (sigma^2 - sigma_att^2) / sigma_att^2.

    A small negative excess (direct variance below the attenuated one, which
    can happen within estimator noise in the classical-dominated regime) is
    clamped to zero.
    """
    if sigma_sq_att <= 0:
        raise ValueError("sigma_sq_att must be > 0")
    return max(0.0, (sigma_sq - sigma_sq_att) / sigma_sq_att)


# fewest points a fringe scan may have, here and in ``runs.FringeConfig``
MIN_FRINGE_POINTS = 8


def find_quadrature(fringe: list[tuple[float, float]]) -> float:
    """Locate the variance maximum of a fringe scan.

    Fits a parabola through the maximum point and its two neighbours and
    returns the vertex phase.  Ties break toward the smaller phase.  Raises
    when the fringe has no contrast (max - min below three times the
    point-to-point noise estimate).
    """
    if len(fringe) < MIN_FRINGE_POINTS:
        raise ValueError(f"need at least {MIN_FRINGE_POINTS} fringe points")
    pts = sorted(fringe, key=lambda t: t[0])
    phis = np.array([p for p, _ in pts], dtype=np.float64)
    vs = np.array([v for _, v in pts], dtype=np.float64)
    if phis[-1] - phis[0] < math.pi - 1e-9:
        raise ValueError("fringe must span at least pi radians")

    # point-to-point noise from second differences (robust to the smooth
    # fringe shape, exact zero for a constant scan)
    d2 = np.diff(vs, n=2)
    noise = float(np.sqrt(np.mean(d2**2) / 6.0))
    contrast = float(vs.max() - vs.min())
    if contrast <= 3.0 * noise:
        raise ValueError("no interference contrast: fringe is flat")

    i = int(np.argmax(vs))  # argmax takes the first (smallest-phi) maximum
    if i == 0 or i == len(vs) - 1:
        return float(phis[i])
    x0, x1, x2 = phis[i - 1 : i + 2]
    y0, y1, y2 = vs[i - 1 : i + 2]
    # vertex of the parabola through the three points
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a >= 0:  # degenerate curvature; fall back to the grid maximum
        return float(phis[i])
    vertex = -b / (2.0 * a)
    lo, hi = float(phis[i - 1]), float(phis[i + 1])
    return float(min(max(vertex, lo), hi))


def fit_report_text(fit: VarianceFit) -> str:
    """Human-readable fit record (key = value lines)."""
    lines = [
        f"ac_v2_per_w2 = {fit.ac!r}",
        f"aq_v2_per_w = {fit.aq!r}",
        f"aq_se_v2_per_w = {fit.aq_se!r}",
        f"f_v2 = {fit.f!r}",
        f"r_squared = {fit.r_squared!r}",
    ]
    peak = qcnr_optimal_power(fit)
    if peak is not None:
        p_star, q_max = peak
        lines.append(f"qcnr_peak = {q_max!r}")
        lines.append(f"qcnr_peak_power_w = {p_star!r}")
    return "\n".join(lines) + "\n"
