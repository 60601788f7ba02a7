"""Min-entropy of the quantised signal and the safe extraction budget.

The measured voltage variance mixes quantum noise with classical and
electronic contributions.  Only the quantum part is credited:

    sigma_q^2 = sigma^2 / (1 + 1/QCNR)

The ADC maps ``[-R, R]`` (``R = range_sigmas * sigma_total``) onto ``2^n``
equal bins; a zero-mean Gaussian with std ``sigma_q`` is binned accordingly
(edge bins absorb the saturated tails) and the min-entropy per sample is

    H_inf = -log2(max_bin_probability)

``R`` and ``sigma_q`` both scale with ``sigma_total``, so ``H_inf`` depends only
on the QCNR, ``n`` and ``range_sigmas``.

The real codes clip the tails of the total signal, not of its quantum share,
and the codes' min-entropy given any side information is at most their own.
So the credit is capped at ``H_inf`` of ``N(0, sigma_total^2)`` on the same
grid.  The cap binds only for a narrow range: there the quantum share's edge
bins hold less than the total signal's.  At ``R = 5`` the uncapped term stays
below it by ``-log2(1 + 1/QCNR) / 2``.

The extractor output fraction follows the leftover hash lemma:
``H_inf/n  -  2*log2(1/eps)/n_in`` per raw bit, for extractor input blocks of
``n_in`` bits and statistical distance ``eps`` from uniform.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import calib
from .model import EntropyReport, SignalChainConfig, VarianceFit
from .stats import _ndtr

__all__ = [
    "quantum_variance",
    "gaussian_bin_probabilities",
    "min_entropy_gaussian",
    "min_entropy_quantum",
    "drifted_min_entropy",
    "extraction_ratio",
    "generation_rate",
    "entropy_report",
]

DEFAULT_EXTRACTOR_N_IN = 4096


def quantum_variance(sigma_sq: float, qcnr: float) -> float:
    """Quantum share of a measured variance given the QCNR."""
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be >= 0")
    if qcnr <= 0:
        raise ValueError("qcnr must be > 0")
    return sigma_sq / (1.0 + 1.0 / qcnr)


def _bin_grid(
    sigma_q: float, v_range: tuple[float, float], n_bits: int
) -> tuple[float, float, int]:
    """Check the arguments; return the low edge, the bin width and the bin count.

    Edge i is ``v_min + i * width`` and the top edge is ``v_max``, as in
    ``np.linspace``.
    """
    v_min, v_max = v_range
    if sigma_q <= 0:
        raise ValueError("sigma_q must be > 0")
    if not v_max > v_min:
        raise ValueError("v_max must exceed v_min")
    if not 1 <= int(n_bits) <= 16:
        raise ValueError("n_bits must be in [1, 16]")
    n = 1 << int(n_bits)
    return float(v_min), (v_max - v_min) / n, n


def gaussian_bin_probabilities(
    sigma_q: float, v_range: tuple[float, float], n_bits: int
) -> np.ndarray:
    """Probability of each of the 2^n_bits ADC bins under N(0, sigma_q^2).

    The two edge bins absorb the tail mass beyond the range, mirroring a
    saturating quantiser.
    """
    v_min, width, n = _bin_grid(sigma_q, v_range, n_bits)
    edges = np.arange(n + 1) * width + v_min
    edges[-1] = v_range[1]
    cdf = np.array([_ndtr(e) for e in (edges / sigma_q).tolist()])
    probs = np.diff(cdf)
    probs[0] += cdf[0]
    probs[-1] += 1.0 - cdf[-1]
    return probs


def min_entropy_gaussian(
    sigma_q: float, v_range: tuple[float, float], n_bits: int
) -> float:
    """Min-entropy in bits/sample of the quantised Gaussian (Eq. H_inf).

    The most likely bin is an edge bin, which holds a tail, or else the bin
    holding 0; its two neighbours join the candidates in case rounding ties
    them.  Only those bins are evaluated, exactly as in
    :func:`gaussian_bin_probabilities`, so the cost does not grow with n_bits.
    """
    v_min, width, n = _bin_grid(sigma_q, v_range, n_bits)
    i0 = min(max(math.floor(-v_min / width), 0), n - 1)  # the bin holding 0
    bins = {0, n - 1, *range(max(i0 - 1, 0), min(i0 + 2, n))}
    cdf = {j: _ndtr((j * width + v_min if j < n else v_range[1]) / sigma_q)
           for i in bins for j in (i, i + 1)}
    probs = {i: cdf[i + 1] - cdf[i] for i in bins}
    probs[0] += cdf[0]
    probs[n - 1] += 1.0 - cdf[n]
    return float(-np.log2(max(probs.values())))


def min_entropy_quantum(qcnr: float, adc_bits: int, range_sigmas: float) -> float:
    """Min-entropy (bits/sample) of the quantum share, in units of the total sigma.

    The ADC range is +-``range_sigmas`` total sigmas, so the total variance
    scales the range and the quantum share alike and drops out.  The credit
    is at most the codes' own min-entropy (see the module docstring).
    """
    sigma_q = math.sqrt(quantum_variance(1.0, qcnr))
    grid = (-range_sigmas, range_sigmas)
    return min(min_entropy_gaussian(sigma_q, grid, adc_bits),
               min_entropy_gaussian(1.0, grid, adc_bits))


def drifted_min_entropy(
    sigma_sq: float, power: float, fit: VarianceFit, chain: SignalChainConfig
) -> float:
    """Min-entropy of a point drifted off quadrature, from its measured variance.

    The quadrature error is inferred from how far ``sigma_sq`` sits below the
    calibrated maximum: its cos^2 roll-off scales both phase-noise terms of
    ``fit``, and the electronic floor f is unaffected by the drift.  The
    QCNR of the drifted point comes from :func:`calib.qcnr_from_fit`.
    """
    phase_var_max = fit.aq * power + fit.ac * power**2
    if phase_var_max <= 0 or sigma_sq <= 0:
        return 0.0
    cos_sq = min(max((sigma_sq - fit.f) / phase_var_max, 0.0), 1.0)
    qcnr = calib.qcnr_from_fit(replace(fit, ac=fit.ac * cos_sq, aq=fit.aq * cos_sq), power)
    if qcnr <= 0.0:
        return 0.0
    return min_entropy_quantum(qcnr, chain.adc_bits, chain.adc_range_sigmas)


def extraction_ratio(
    h_min: float,
    sample_bits: int,
    security_eps: float,
    n_in: int,
) -> float:
    """Leftover-hash output fraction per raw input bit.

    ``h_min/sample_bits`` minus the finite-block penalty
    ``2*log2(1/eps)/n_in``, below 1 since the penalty is positive.  Raises
    if the penalty leaves less than one output bit per ``n_in``-bit block.
    """
    if not 0 < h_min <= sample_bits:
        raise ValueError("h_min must lie in (0, sample_bits]")
    if not 0 < security_eps < 1:
        raise ValueError("security_eps must lie in (0, 1)")
    if n_in < 1:
        raise ValueError("n_in must be >= 1")
    penalty = 2.0 * math.log2(1.0 / security_eps) / n_in
    ratio = h_min / sample_bits - penalty
    if ratio * n_in < 1:
        raise ValueError(
            f"block too small for requested security: ratio {ratio:.3e} gives "
            f"{ratio * n_in:.3g} < 1 output bit per {n_in}-bit block (penalty {penalty:.3e})"
        )
    return ratio


def generation_rate(h_min: float, sample_rate_hz: float) -> float:
    """Potential randomness rate in bits/second: H_inf * f_s."""
    if h_min < 0 or sample_rate_hz < 0:
        raise ValueError("inputs must be nonnegative")
    return h_min * sample_rate_hz


def entropy_report(
    sigma_sq_total: float,
    qcnr: float,
    *,
    adc_bits: int,
    range_sigmas: float,
    security_eps: float,
    n_in: int,
    min_entropy_override: float | None = None,
) -> EntropyReport:
    """Assemble the full entropy accounting for one operating point.

    H_inf comes from :func:`min_entropy_quantum`.  ``min_entropy_override``
    substitutes an externally supplied estimate of H_inf (it must not exceed
    the recomputed value by more than 1e-9, and is credited at most at it)
    for deriving the extraction budget; the recomputation is otherwise
    authoritative.
    """
    if not sigma_sq_total > 0:
        raise ValueError("sigma_sq_total must be > 0")
    h_min = min_entropy_quantum(qcnr, adc_bits, range_sigmas)
    if min_entropy_override is not None:
        if min_entropy_override > h_min + 1e-9:
            raise ValueError(
                "min_entropy_override exceeds the recomputed min-entropy "
                f"({min_entropy_override:.4f} > {h_min:.4f})"
            )
        if min_entropy_override <= 0:
            raise ValueError("min_entropy_override must be > 0")
        h_min = min(float(min_entropy_override), h_min)
    ratio = extraction_ratio(h_min, adc_bits, security_eps, n_in)
    return EntropyReport(
        qcnr=qcnr,
        sigma_sq_total=sigma_sq_total,
        sigma_sq_quantum=quantum_variance(sigma_sq_total, qcnr),
        min_entropy_bits=h_min,
        samples_bits=adc_bits,
        extraction_ratio=ratio,
    )
