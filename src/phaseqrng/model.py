"""Domain types for the laser / interferometer / detector physics.

The signal chain is a CW laser whose optical phase diffuses (quantum
spontaneous-emission noise plus slower classical jitter), an unbalanced
Mach-Zehnder interferometer with delay ``T_d`` that converts the phase
difference into an intensity, and a photodiode/TIA front end that turns the
intensity into a voltage digitised by an ADC.

Everything in this module is a plain immutable value object; the time-domain
realisation of the process lives in :mod:`phaseqrng.sim`.

Conventions
-----------
* SI units throughout: watts, volts, seconds, radians.
* Phase noise is modelled by two independent Wiener processes.  Over the
  interferometer delay ``T_d`` the phase difference ``dtheta`` is Gaussian
  with variance ``Q/P + C`` where ``Q = quantum_diffusion_q * T_d`` and
  ``C = classical_diffusion_c * T_d``.
* The measured voltage variance at optical power ``P`` decomposes as

      sigma^2 = AC * P^2 + AQ * P + F

  with ``AQ = A * q * T_d`` (quantum, power-linear), ``AC = A * c * T_d``
  (classical, power-quadratic) and ``F`` the electronic noise floor.  ``A``
  is the conversion-gain scale of the detector chain in V^2/(W rad)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import stats

__all__ = [
    "LaserNoiseModel",
    "SignalChainConfig",
    "VarianceFit",
    "EntropyReport",
    "SampleBlock",
    "BitStream",
    "phase_difference_variance",
    "predicted_variance",
    "variance_coefficients",
    "attenuated_model",
]


@dataclass(frozen=True)
class LaserNoiseModel:
    """Diffusion rates of the laser phase plus the optical power.

    Parameters
    ----------
    quantum_diffusion_q : float
        Quantum (spontaneous-emission) phase diffusion scale, in
        rad^2 * W / s.  Multiplied by the interferometer delay it gives the
        power-normalised quantum phase variance ``Q``; the realised variance
        contribution is ``Q / P``.
    classical_diffusion_c : float
        Classical phase diffusion rate in rad^2 / s; over the delay it
        contributes ``C = classical_diffusion_c * T_d`` independent of power.
    power_p : float
        Optical power at the interferometer input, in watts.
    """

    quantum_diffusion_q: float
    classical_diffusion_c: float
    power_p: float

    def __post_init__(self) -> None:
        if self.quantum_diffusion_q < 0:
            raise ValueError("quantum_diffusion_q must be >= 0")
        if self.classical_diffusion_c < 0:
            raise ValueError("classical_diffusion_c must be >= 0")
        if self.power_p < 0:
            raise ValueError("power_p must be >= 0")


@dataclass(frozen=True)
class SignalChainConfig:
    """Static parameters of the interferometer + detector + ADC chain."""

    delay_td: float = 540e-12
    quadrature_offset: float = 0.0
    conversion_gain_a: float = 1.0
    electronic_noise_f: float = 0.0
    tia_cutoff_hz: float = 500e6
    adc_bits: int = 8
    adc_range_sigmas: float = 5.0
    sample_rate_hz: float = 500e6

    def __post_init__(self) -> None:
        if self.delay_td <= 0:
            raise ValueError("delay_td must be > 0")
        if not 1 <= int(self.adc_bits) <= 16:
            raise ValueError("adc_bits must be in [1, 16]")
        if self.conversion_gain_a < 0:
            raise ValueError("conversion_gain_a must be >= 0")
        if self.adc_range_sigmas <= 0:
            raise ValueError("adc_range_sigmas must be > 0")
        if self.tia_cutoff_hz <= 0:
            raise ValueError("tia_cutoff_hz must be > 0")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be > 0")
        if self.electronic_noise_f < 0:
            raise ValueError("electronic_noise_f must be >= 0")


@dataclass(frozen=True)
class VarianceFit:
    """Quadratic fit sigma^2(P) = ac*P^2 + aq*P + f with goodness of fit.

    ``aq_se`` is the least-squares standard error of ``aq``; 0 for a fit
    given by hand.
    """

    ac: float
    aq: float
    f: float
    r_squared: float
    aq_se: float = 0.0

    def __post_init__(self) -> None:
        if self.r_squared > 1.0 + 1e-12:
            raise ValueError("r_squared cannot exceed 1")


@dataclass(frozen=True)
class EntropyReport:
    """Min-entropy accounting for one operating point.

    ``extraction_ratio`` is the fraction of raw bits the extractor may keep;
    it is never allowed to exceed ``min_entropy_bits / samples_bits``.
    """

    qcnr: float
    sigma_sq_total: float
    sigma_sq_quantum: float
    min_entropy_bits: float
    samples_bits: int
    extraction_ratio: float

    def __post_init__(self) -> None:
        if self.sigma_sq_quantum > self.sigma_sq_total * (1 + 1e-12):
            raise ValueError("sigma_sq_quantum cannot exceed sigma_sq_total")
        if not 0.0 <= self.min_entropy_bits <= self.samples_bits:
            raise ValueError("min_entropy_bits must lie in [0, samples_bits]")
        if not 0.0 < self.extraction_ratio <= 1.0:
            raise ValueError("extraction_ratio must lie in (0, 1]")
        budget = self.min_entropy_bits / self.samples_bits
        if self.extraction_ratio > budget * (1 + 1e-12):
            raise ValueError(
                "extraction_ratio exceeds the entropy budget "
                f"({self.extraction_ratio:.6f} > {budget:.6f})"
            )


_SAMPLE_ORIGINS = ("simulated", "imported")


@dataclass(frozen=True)
class SampleBlock:
    """A block of signed ADC codes plus the metadata needed to interpret it.

    ``samples`` is an int16 array (wide enough for any adc_bits <= 16); every
    value must be representable in ``adc_bits``.  ``adc_scale`` converts codes
    to volts.  A C-contiguous int16 array is kept as given, not copied, and
    marked read-only; any other input is cast, and rejected if the cast
    would change a value.
    """

    samples: np.ndarray
    adc_bits: int
    sample_rate_hz: float
    adc_scale: float
    origin: str = "simulated"
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.dtype != np.int16:  # simulate and read_samples give int16
            with np.errstate(invalid="ignore"):  # NaN and inf fail the check
                cast = arr.astype(np.int16)
            if not np.array_equal(cast, arr):
                raise ValueError("samples must be integers in the int16 range")
            arr = cast
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        if not 1 <= int(self.adc_bits) <= 16:
            raise ValueError("adc_bits must be in [1, 16]")
        for name in ("adc_scale", "sample_rate_hz"):  # NaN fails both bounds
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.origin not in _SAMPLE_ORIGINS:
            raise ValueError(f"origin must be one of {_SAMPLE_ORIGINS}")
        lo, hi = self.code_range()
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise ValueError(
                f"samples outside the {self.adc_bits}-bit range [{lo}, {hi}]"
            )

    def code_range(self) -> tuple[int, int]:
        half = 1 << (self.adc_bits - 1)
        return -half, half - 1

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def chunks(self) -> tuple[np.ndarray]:
        """The codes as one chunk, read as a simulated stream's chunks are."""
        return (self.samples,)

    def volts(self) -> np.ndarray:
        """Samples converted to volts."""
        return self.samples.astype(np.float64) * self.adc_scale

    def variance_volts(self) -> float:
        """Sample variance of the block in V^2, from exact sums of the codes."""
        n = self.samples.size
        if n < 2:
            raise ValueError("need at least 2 samples for a variance")
        sums = stats.CentredLagSums(0)
        sums.add(self.samples)
        n2_c0 = sums.sums()[0]  # n^2 (n - 1) var, in codes
        return n2_c0 / (n * n * (n - 1)) * self.adc_scale ** 2

    def saturation_fraction(self) -> float:
        """Fraction of samples pinned at either end of the code range."""
        if self.samples.size == 0:
            return 0.0
        lo, hi = self.code_range()
        n_sat = int(np.count_nonzero((self.samples == lo) | (self.samples == hi)))
        return n_sat / self.samples.size


@dataclass(frozen=True)
class BitStream:
    """Packed extracted bits.  Bits are stored LSB-first within each byte.

    ``bits`` is a read-only bytes-like object: ``bytes`` as read from a
    container, or a read-only ``memoryview`` of the extractor's output, which
    is handed over without a copy.  Both compare, slice and feed ``hashlib``
    as bytes do.
    """

    bits: bytes | memoryview
    count: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.count > 8 * len(self.bits):
            raise ValueError("count exceeds packed storage")
        # trailing pad bits (beyond count) must be zero; read as a little-endian
        # integer from byte count // 8 on, they are its bits from count % 8 up
        full_bytes, rem = divmod(self.count, 8)
        if int.from_bytes(self.bits[full_bytes:], "little") >> rem:
            raise ValueError("trailing pad bits must be zero")

    def __len__(self) -> int:
        return self.count

    def as_bit_array(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Bits ``start:stop`` (a slice of ``range(count)``) as a uint8 array of 0/1."""
        start, stop, _ = slice(start, stop).indices(self.count)
        first = start // 8
        arr = np.frombuffer(self.bits, np.uint8, max(-(-stop // 8) - first, 0), first)
        return np.unpackbits(arr, bitorder="little")[start - 8 * first : stop - 8 * first]


def phase_difference_variance(model: LaserNoiseModel, td: float) -> float:
    """Variance of the interferometer phase difference over delay ``td``.

    Returns ``Q/P + C`` with ``Q = quantum_diffusion_q * td`` and
    ``C = classical_diffusion_c * td`` (rad^2).  Undefined at zero power
    because the quantum term diverges.
    """
    if td <= 0:
        raise ValueError("td must be > 0")
    if model.power_p <= 0:
        raise ValueError("quantum term undefined at P=0")
    q = model.quantum_diffusion_q * td
    c = model.classical_diffusion_c * td
    return q / model.power_p + c


def predicted_variance(fit: VarianceFit, power: float) -> float:
    """Evaluate the fitted variance model ``ac*P^2 + aq*P + f`` (V^2)."""
    if power < 0:
        raise ValueError("power must be >= 0")
    return fit.ac * power**2 + fit.aq * power + fit.f


def variance_coefficients(
    model: LaserNoiseModel, chain: SignalChainConfig
) -> tuple[float, float, float]:
    """(AC, AQ, F) implied by a model + chain configuration.

    AC = A*c*T_d, AQ = A*q*T_d, F = electronic noise.  These are the
    coefficients the calibration fit should recover from simulated data.
    """
    a = chain.conversion_gain_a
    td = chain.delay_td
    ac = a * model.classical_diffusion_c * td
    aq = a * model.quantum_diffusion_q * td
    return ac, aq, chain.electronic_noise_f


def attenuated_model(model: LaserNoiseModel, detected_power: float) -> LaserNoiseModel:
    """Model seen by the detector when the source is attenuated.

    The laser runs at ``model.power_p`` (which sets the quantum phase noise)
    and an attenuator drops the detected power to ``detected_power``.  The
    phase statistics are unchanged, so expressed at the detected power the
    effective quantum diffusion scales by ``detected_power / source_power``
    and the quantum variance term is suppressed by the attenuation factor.
    """
    if model.power_p <= 0:
        raise ValueError("source power must be > 0")
    if not 0 < detected_power <= model.power_p:
        raise ValueError("detected_power must be in (0, source power]")
    scale = detected_power / model.power_p
    return replace(
        model,
        quantum_diffusion_q=model.quantum_diffusion_q * scale,
        power_p=detected_power,
    )
