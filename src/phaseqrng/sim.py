"""Seeded time-domain simulator of the full signal chain.

Pipeline per internal step (running at ``sample_rate * oversample_factor``):

1. advance the laser phase: two independent Wiener processes (quantum with
   diffusion ``q/P``, classical with diffusion ``c``) merged into a single
   Gaussian increment stream;
2. form the interferometer phase difference ``dtheta(t) = theta(t) -
   theta(t - T_d)`` with a delay of ``L`` internal steps;
3. photocurrent ``~ P * sin(dtheta + quadrature_offset)``, scaled to volts,
   plus any rf tones;
4. single-pole low-pass at the TIA cutoff, read only at the kept samples:
   an ``ovs``-tap FIR (weights ``alpha * rho^j``) into an output-rate
   AR(1) with coefficient ``r = rho^ovs``;
5. the electronic noise enters that AR(1)'s input: filtered and decimated,
   white noise is exactly AR(1) in ``r`` with variance ``F`` (n draws on its
   own sub-stream, not n * ovs); a doubling scan then solves the AR(1);

then per output sample:

6. remove the model DC ``amp * sin(offset) * exp(-s / 2)``, exact for
   Gaussian ``dtheta`` of variance ``s = Q/P + C`` over the ``L`` steps;
7. quantise to ``adc_bits`` over ``+-range_sigmas * sigma_pred``, where
   ``sigma_pred^2`` is the model variance at the run's operating point: to
   first order ``(AC P^2 + AQ P) cos^2(offset) + F``, with the exact Gaussian
   second-order term that carries it at a fringe extremum, plus the power of
   each rf tone through the filter.

No output sample depends on a statistic of the whole block, so a run is a
prefix of the same run with a longer duration.  All seven steps run in one
pass, a chunk of output rows at a time (:func:`_chunks` lays them out), in
reused buffers that carry the last ``L`` cumulative phases and the AR(1)
state between chunks.  The phase normals come from a Python generator,
:func:`_phase_draws`: while the calling thread runs a chunk, its one-worker
thread pool draws the next chunk's, from the same NumPy generator in the
same order, into a second buffer.  A run streamed alone has a source of its
own; :func:`simulate_variances` shares one across its points, so each
point's first chunk is drawn while the point before it finishes.
:func:`code_stream` hands out each chunk's int16 codes as they are made, so
it holds only the chunk buffers, whatever the length or the oversampling;
:func:`simulate` collects them into one array (2 bytes a sample).  Neither
the chunking nor the worker moves a byte of the output.

Gain bookkeeping
----------------
All variance coefficients are referred to the measurement plane (after the
TIA filter), because that is where the calibration fits them.  A single-pole
IIR with smoothing ``alpha`` transmits white-noise variance with factor
``g0 = alpha / (2 - alpha)`` and transmits the variance of an L-step
moving-sum (Wiener delay difference, triangular autocovariance) with factor

    kappa_d = g0 * (L + 2 * sum_{m=1}^{L-1} rho^m (L - m)) / L,   rho = 1 - alpha.

The signal amplitude is pre-compensated by ``1/sqrt(kappa_d)`` (plus the
delay-rounding correction ``sqrt(T_d / (L dt))``) and the electronic noise
enters with its post-filter variance ``F``, so the post-filter variance
matches ``AC P^2 + AQ P + F`` with AC, AQ, F exactly as configured.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Callable, Generator, Iterable, Iterator, NamedTuple

import numpy as np

from . import entropy as _entropy
from .model import (
    LaserNoiseModel, SampleBlock, SignalChainConfig, VarianceFit,
    phase_difference_variance, predicted_variance, variance_coefficients,
)

__all__ = [
    "CodeStream",
    "SimulationRun",
    "StabilityPoint",
    "code_stream",
    "model_sigma",
    "simulate",
    "simulate_variances",
    "simulate_stability",
    "derive_seed",
]

# Seed-derivation namespaces, every one in the package: the simulator's own
# sub-streams (2, 4, 12) and the orchestration's in ``runs`` (3, 5-11).
# 1 and 9 are unused.
NS_PHASE = 2
NS_FRINGE = 3
NS_STABILITY = 4
NS_SWEEP = 5
NS_SWEEP_ATT = 6
NS_PIPELINE = 7
NS_EXTRACTOR = 8
NS_STAB_FREE = 10
NS_STAB_RECAL = 11
NS_ELECTRONIC = 12

# Output rows per chunk of steps 1-7, whose buffers are reused.  A row may
# round differently in its last bit by where it falls in a BLAS block (the
# FIR matvec) or a chunk (the AR(1) scan); no checked code was seen to move.
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SimulationRun:
    model: LaserNoiseModel
    chain: SignalChainConfig
    duration: float
    oversample_factor: int = 8
    seed: int = 0
    rf_tones: tuple[tuple[float, float], ...] = ()

    @property
    def n_samples(self) -> int:
        """Output samples in ``duration``, rounded to the nearest."""
        return int(round(self.duration * self.chain.sample_rate_hz))

    def __post_init__(self) -> None:
        # a count of 2**63 or more cannot size an array
        if not 0 < self.duration * self.chain.sample_rate_hz < 2**63:
            raise ValueError("duration must be > 0 and give a sample count below 2**63")
        if int(self.oversample_factor) < 4:
            raise ValueError("oversample_factor must be >= 4")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        dt = 1.0 / (self.chain.sample_rate_hz * self.oversample_factor)
        if dt >= self.chain.delay_td:
            raise ValueError(
                "internal step must be shorter than the interferometer delay; "
                "raise oversample_factor or sample_rate"
            )
        for freq, _ in self.rf_tones:
            # decimated, such a tone is a constant or an alternating offset
            # whose variance depends on its phase, not half its power
            half_cycles = 2.0 * freq / self.chain.sample_rate_hz
            if abs(half_cycles - round(half_cycles)) < 1e-9:
                raise ValueError(
                    f"rf tone at {freq:g} Hz aliases to DC or Nyquist: its "
                    "frequency is a multiple of half the sample rate"
                )


class StabilityPoint(NamedTuple):
    time: float
    variance: float
    applied_phi2: float
    min_entropy: float


def derive_seed(seed: int, *keys: int) -> int:
    """Deterministic 64-bit sub-seed for a named sub-stream."""
    ss = np.random.SeedSequence([int(seed), *map(int, keys)])
    return int(ss.generate_state(1, np.uint64)[0])


def _filter_gains(chain: SignalChainConfig, ovs: int):
    """``(dt, alpha, rho, kappa_d, L)``: the single-pole TIA at the step ``dt``."""
    dt = 1.0 / (chain.sample_rate_hz * ovs)
    alpha = 1.0 - math.exp(-2.0 * math.pi * chain.tia_cutoff_hz * dt)
    rho = 1.0 - alpha
    g0 = alpha / (1.0 + rho)
    L = max(1, round(chain.delay_td / dt))
    m = np.arange(1, L)
    kappa_d = g0 * (L + 2.0 * float(np.sum(rho**m * (L - m)))) / L
    return dt, alpha, rho, kappa_d, L


def model_sigma(run: SimulationRun) -> float:
    """Predicted standard deviation (volts) of the decimated analog voltage.

    :func:`simulate` sets the ADC range from it.  Exact for the Gaussian
    phase difference, not just first order: lags ``k`` of ``dtheta`` covary
    by ``c_k = s (1 - |k|/L)``, so ``sin(dtheta + offset)`` covaries by
    ``exp(-s) (cos^2(offset) sinh(c_k) + sin^2(offset) (cosh(c_k) - 1))``,
    and the filter weights lag ``k`` by ``rho^|k|``.  The
    first-order part alone is ``(AC P^2 + AQ P) cos^2(offset)``, which
    vanishes at a fringe extremum where the second-order part does not.
    ``F`` is already post-filter, and each rf tone passes the single pole
    with its gain at the tone frequency.
    """
    chain, model = run.chain, run.model
    dt, alpha, rho, _, L = _filter_gains(chain, run.oversample_factor)
    ac, aq, var = variance_coefficients(model, chain)
    if model.power_p > 0:
        s = phase_difference_variance(model, L * dt)
        k = np.arange(1 - L, L)
        w = rho ** np.abs(k)
        c = s * (1.0 - np.abs(k) / L)
        cos_sq = math.cos(chain.quadrature_offset) ** 2
        # 2 sinh^2(c/2) is cosh(c) - 1 without the cancellation at small c
        cov = cos_sq * np.sinh(c) + (1.0 - cos_sq) * 2.0 * np.sinh(c / 2.0) ** 2
        # (AC P^2 + AQ P) is amp^2 g0 sum(w c), the first-order variance
        p = model.power_p
        var += (ac * p**2 + aq * p) * math.exp(-s) * float(w @ cov) / float(w @ c)
    for freq, amplitude in run.rf_tones:
        cos_w = math.cos(2.0 * math.pi * freq * dt)
        var += 0.5 * amplitude**2 * alpha**2 / (1.0 - 2.0 * rho * cos_w + rho**2)
    return math.sqrt(var)


def _chunks(run: SimulationRun, n_samples: int, dt: float) -> Iterator[tuple[int, int, int]]:
    """``(r0, r1, pad)`` of each chunk of steps 1-5 at the internal step ``dt``.

    The chunk holds output rows ``[r0, r1)`` of ``ovs`` internal samples,
    each ending on a kept sample's step; row ``i`` ends on output sample
    ``i``, and the rows before 0 settle the filter.  The first chunk, the
    longest, leads with ``pad`` DC steps; the others have none.
    """
    ovs = run.oversample_factor
    # settle ~8 filter time constants past the delay buffer
    n_settle = int(math.ceil(8.0 / (2.0 * math.pi * run.chain.tia_cutoff_hz * dt)))
    # front-pad with the DC so that every row of ovs internal samples ends
    # on a kept one; no step after the last kept sample is computed
    pad = -(n_settle + 1) % ovs
    settle = (pad + n_settle + 1) // ovs - 1
    for r0 in range(-settle, n_samples, _CHUNK_ROWS):
        yield r0, min(r0 + _CHUNK_ROWS, n_samples), pad if r0 == -settle else 0


def _phase_draws(runs: Iterable[SimulationRun]) -> Generator[np.ndarray, None, None]:
    """Each chunk's phase buffer for a sequence of runs, drawn one ahead.

    A buffer is the caller's until it takes the next: ``[:L]`` holds the
    run's last L cumulative phases (on its first chunk, L more normals), then
    the chunk's normals; a run without phase noise has none.  One worker
    thread draws the next chunk, the next run's first included, into the
    other buffer before a chunk is handed out, so one draw is in flight at a
    time.  It starts at the first chunk and ends with the generator.
    """
    from concurrent.futures import ThreadPoolExecutor

    def submitted():  # each chunk's draw, submitted into the spare buffer when read
        nonlocal spare
        for run in runs:
            # a run under one sample is refused by code_stream before any draw
            if run.model.power_p <= 0 or run.n_samples < 1:
                continue
            ovs = run.oversample_factor
            dt, _, _, _, L = _filter_gains(run.chain, ovs)
            rng = np.random.default_rng(derive_seed(run.seed, NS_PHASE))
            history = size = 0  # the first draw fills the history too
            for r0, r1, pad in _chunks(run, run.n_samples, dt):
                size = size or L + (r1 - r0) * ovs  # the first chunk's, for all
                if spare.size < size:
                    spare = np.empty(size)
                stop = L + (r1 - r0) * ovs - pad
                draw = pool.submit(rng.standard_normal, out=spare[history:stop])
                yield draw, spare, history, stop
                history = L

    spare, held, held_stop = np.empty(0), np.empty(0), 0
    draws = submitted()
    pool = ThreadPoolExecutor(1)
    try:
        pending = next(draws, None)
        while pending is not None:
            draw, theta, history, stop = pending
            draw.result()
            theta[:history] = held[held_stop - history : held_stop]
            spare, held, held_stop = held, theta, stop
            pending = next(draws, None)  # into the buffer just given back
            yield theta
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _analog_chain(run: SimulationRun, n_samples: int,
                  draws: Iterator[np.ndarray] | None = None) -> Iterator[np.ndarray]:
    """Decimated analog voltage (volts) about the model DC, chunk by chunk.

    Each chunk's output rows are a view of one reused buffer, which the next
    chunk overwrites (see the module docstring).  The phase normals come from
    ``draws``, or else from a source of this run's own that ends with the
    chunks.
    """
    if draws is None:
        with closing(_phase_draws((run,))) as draws:
            yield from _analog_chain(run, n_samples, draws)
        return
    model, chain, ovs = run.model, run.chain, run.oversample_factor
    dt, alpha, rho, kappa_d, L = _filter_gains(chain, ovs)
    taps = alpha * rho ** np.arange(ovs - 1, -1, -1.0)
    r, f = rho**ovs, chain.electronic_noise_f
    noise = np.random.default_rng(derive_seed(run.seed, NS_ELECTRONIC))
    dc = 0.0
    if model.power_p > 0:
        # combined Wiener increments for the two independent phase processes,
        # whose delay difference has variance s over the L-step buffer
        s = phase_difference_variance(model, L * dt)
        sd = math.sqrt(s / L)
        # amplitude pre-compensation: delay-buffer rounding and filter
        # attenuation of the phase-difference spectrum (see module docstring)
        amp = (
            math.sqrt(chain.conversion_gain_a)
            * model.power_p
            * math.sqrt(chain.delay_td / (L * dt))
            / math.sqrt(kappa_d)
        )
        # E[sin(x + offset)] = sin(offset) * exp(-var(x) / 2) for Gaussian x
        dc = amp * math.sin(chain.quadrature_offset) * math.exp(-s / 2.0)
    # the AR(1) state starts at the DC, so no DC transient reaches the output
    y_last = dc
    j0 = 0  # the internal step of v[0]
    for r0, r1, pad in _chunks(run, n_samples, dt):
        if j0 == 0:  # the first chunk, the longest
            rows, buf = np.empty(r1 - r0), np.empty((r1 - r0) * ovs)
        w = buf[: (r1 - r0) * ovs]
        w[:pad] = dc
        v = w[pad:]
        if model.power_p > 0:
            m = v.size
            theta = next(draws)  # the last L phases, then this chunk's normals
            if j0 == 0:  # the run's first L phases
                theta[:L] *= sd
                np.cumsum(theta[:L], out=theta[:L])
            inc = theta[L : L + m]
            inc *= sd
            inc[0] += theta[L - 1]
            np.cumsum(inc, out=inc)
            np.subtract(inc, theta[:m], out=v)
            v += chain.quadrature_offset
            np.sin(v, out=v)
            v *= amp
        else:
            v.fill(0.0)
        for freq, amplitude in run.rf_tones:
            t = (np.arange(j0, j0 + v.size) + L) * dt
            v += amplitude * np.sin(2.0 * math.pi * freq * t)
        # the pole read every ovs steps: an ovs-tap FIR into an AR(1) in r
        x = rows[: w.size // ovs]
        np.matmul(w.reshape(-1, ovs), taps, out=x)
        x[0] += r * y_last
        k = max(-r0, 0)  # step 5 on the chunk's output rows, in order
        if f > 0 and k < x.size:
            e = noise.standard_normal(out=buf[: x.size - k])
            first = int(r0 <= 0)  # the first output sample: the stationary law
            e[:first] *= math.sqrt(f)
            e[first:] *= math.sqrt(f * (1.0 - r * r))
            x[k:] += e
        # x[i] += r x[i-1] by recursive doubling (Blelloch 1990) until r = 0
        step, r_step = 1, r
        while step < x.size and r_step > 0.0:
            x[step:] += np.multiply(x[:-step], r_step, out=buf[: x.size - step])
            r_step, step = r_step * r_step, 2 * step
        y_last = x[-1]
        x[k:] -= dc
        j0 += v.size
        yield x[k:]


@dataclass(frozen=True)
class CodeStream:
    """A run's int16 codes, made as ``chunks`` is read: once, in order.

    ``len()`` of them in all, ``_CHUNK_ROWS`` or fewer a chunk; each chunk
    is a view of one reused buffer, valid until the next is read.  A run
    with phase noise, streamed alone, has a :func:`_phase_draws` source of
    its own, whose one-worker thread pool is shut down with ``chunks``: when
    it is read to the end, raises, is closed or is collected.
    """

    chunks: Generator[np.ndarray, None, None]
    n_samples: int
    adc_bits: int
    adc_scale: float

    def __len__(self) -> int:
        return self.n_samples


def code_stream(run: SimulationRun, *, _draws: Iterator[np.ndarray] | None = None) -> CodeStream:
    """The run's codes as a stream; bit-identical for identical runs.

    A run's codes are a prefix of the same run with a longer duration.  The
    run is checked here, before any code is made.  The phase normals come
    from ``_draws``, a point loop's :func:`_phase_draws`, or a source of its own.
    """
    chain, n_samples = run.chain, run.n_samples
    if n_samples < 1:
        raise ValueError("duration shorter than one output sample")

    # the ADC range is set at this operating point from the model's sigma
    sigma_configured = model_sigma(run)
    if sigma_configured <= 0.0:
        raise ValueError("sigma_configured <= 0: the configured chain is silent")

    half_range = chain.adc_range_sigmas * sigma_configured
    adc_scale = 2.0 * half_range / (1 << chain.adc_bits)
    return CodeStream(_quantise(run, n_samples, adc_scale, _draws), n_samples,
                      chain.adc_bits, adc_scale)


def _quantise(run: SimulationRun, n_samples: int, adc_scale: float,
              draws: Iterator[np.ndarray] | None) -> Generator[np.ndarray, None, None]:
    """Steps 6-7 on each chunk of :func:`_analog_chain`, into one int16 buffer."""
    half = 1 << (run.chain.adc_bits - 1)
    codes = np.empty(min(_CHUNK_ROWS, n_samples), np.int16)
    for x in _analog_chain(run, n_samples, draws):
        x /= adc_scale
        np.rint(x, out=x)
        np.clip(x, -half, half - 1, out=x)
        chunk = codes[: x.size]
        chunk[...] = x
        yield chunk


def simulate(run: SimulationRun, *, _draws: Iterator[np.ndarray] | None = None) -> SampleBlock:
    """Produce one SampleBlock: the codes of :func:`code_stream`, collected."""
    stream = code_stream(run, _draws=_draws)
    codes = np.empty(len(stream), np.int16)
    i = 0
    for chunk in stream.chunks:
        codes[i : i + chunk.size] = chunk
        i += chunk.size
    return SampleBlock(
        samples=codes,
        adc_bits=stream.adc_bits,
        sample_rate_hz=run.chain.sample_rate_hz,
        adc_scale=stream.adc_scale,
        origin="simulated",
        rng_seed=run.seed,
    )


def simulate_variances(
    run: SimulationRun,
    namespace: int,
    variants: Iterable[tuple[LaserNoiseModel, SignalChainConfig]],
) -> list[float]:
    """Measured variance of one seeded sub-run of ``run`` per (model, chain).

    Point ``i`` runs with seed ``derive_seed(run.seed, namespace, i)``.  The
    points are independent of each other; every sweep, fringe and stability
    point is measured here, one :func:`simulate` call each.  One
    :func:`_phase_draws` source serves the whole loop and ends with it, so
    each point's first chunk is drawn while the point before it finishes; a
    loop without phase noise starts no worker.
    """
    runs = [replace(run, model=model, chain=chain, seed=derive_seed(run.seed, namespace, i))
            for i, (model, chain) in enumerate(variants)]
    with closing(_phase_draws(runs)) as draws:
        return [simulate(sub, _draws=draws).variance_volts() for sub in runs]


def simulate_stability(
    run: SimulationRun,
    phase_drift_rate: float,
    power_drift: Callable[[float], float] | None,
    recalibration_period: float | None,
    total_time: float,
    report_interval: float,
) -> list[StabilityPoint]:
    """Drifted long-term run, one short measurement at each report time.

    The report times are ``0, report_interval, ...`` up to ``total_time``.
    The interferometer phase drifts at ``phase_drift_rate`` away from the
    operating point, and ``power_drift(t)`` scales the power.  With a
    ``recalibration_period`` (``None`` runs free), each recalibration
    re-centres the phase (fringe-scan servo) before the first measurement
    that follows it.  Each report point carries the measured variance and
    the min-entropy that :func:`entropy.drifted_min_entropy` credits it.
    """

    def operating_point(t: float) -> tuple[float, float]:
        last_recal = 0.0
        if recalibration_period is not None:
            last_recal = math.floor(t / recalibration_period) * recalibration_period
        scale = 1.0 if power_drift is None else float(power_drift(t))
        delta = run.chain.quadrature_offset + phase_drift_rate * (t - last_recal)
        return run.model.power_p * scale, delta

    fit = VarianceFit(*variance_coefficients(run.model, run.chain), r_squared=1.0)
    # a drifted power keeps the sign of aq P + ac P^2, so crediting the
    # undrifted point fails, before any simulation, when any point would
    p = run.model.power_p
    _entropy.drifted_min_entropy(predicted_variance(fit, p), p, fit, run.chain)
    times = [k * report_interval
             for k in range(math.floor(total_time / report_interval) + 1)]
    operating = [operating_point(t) for t in times]
    variances = simulate_variances(run, NS_STABILITY, (
        (replace(run.model, power_p=power), replace(run.chain, quadrature_offset=delta))
        for power, delta in operating
    ))
    return [
        StabilityPoint(
            time=t,
            variance=sigma_sq,
            applied_phi2=math.pi / 2.0 + delta,
            min_entropy=_entropy.drifted_min_entropy(sigma_sq, power, fit, run.chain),
        )
        for t, (power, delta), sigma_sq in zip(times, operating, variances)
    ]
