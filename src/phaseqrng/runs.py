"""Run orchestration: the config parser and the calibrate/pipeline/stability runs.

:func:`load_config` checks and parses a whole JSON config into frozen
dataclasses (defaults as in ``configs/README.md``) before any simulation.
:func:`calibrate`, :func:`pipeline` and :func:`stability` run from it and
return result dataclasses; rendering them is the CLI's job.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import calib, entropy, extract, stats
from .model import (
    BitStream, EntropyReport, LaserNoiseModel, SignalChainConfig, VarianceFit,
    attenuated_model, predicted_variance,
)
from .sim import (
    NS_EXTRACTOR, NS_FRINGE, NS_PIPELINE, NS_STAB_FREE, NS_STAB_RECAL, NS_SWEEP,
    NS_SWEEP_ATT, SimulationRun, StabilityPoint, code_stream, derive_seed,
    simulate_stability, simulate_variances,
)


class ConfigError(ValueError):
    """A config that cannot be read or that fails validation."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass(frozen=True)
class SweepConfig:
    """``sweep``: the variance-vs-power calibration sweep."""

    powers: tuple[float, ...] = tuple(np.geomspace(1e-5, 1e-3, 10).tolist())
    samples_per_point: int = 1_000_000
    source_power: float = 0.1  # bright source of the attenuation method, W

    def __post_init__(self) -> None:
        object.__setattr__(self, "powers", tuple(sorted(self.powers)))
        _check(len(self.powers) >= 4, "need at least 4 powers")
        _check(len(set(self.powers)) >= 3,
               "rank deficient: need at least 3 distinct powers")
        _check(all(0.0 < p <= self.source_power for p in self.powers),
               "every power must lie in (0, source_power]")
        _check(self.samples_per_point >= 2, "samples_per_point must be >= 2")


@dataclass(frozen=True)
class FringeConfig:
    """``fringe``: the quadrature-locating fringe scan over [0, pi]."""

    n_points: int = 17
    samples_per_point: int = 200_000

    def __post_init__(self) -> None:
        _check(self.n_points >= calib.MIN_FRINGE_POINTS,
               f"n_points must be >= {calib.MIN_FRINGE_POINTS}")
        _check(self.samples_per_point >= 2, "samples_per_point must be >= 2")


@dataclass(frozen=True)
class EntropyConfig:
    """``entropy``: the extraction budget."""

    n_in: int = entropy.DEFAULT_EXTRACTOR_N_IN
    security_eps_log2: float = -50.0
    min_entropy_override: float | None = None

    def __post_init__(self) -> None:
        _check(self.security_eps_log2 < 0.0 and 2.0**self.security_eps_log2 > 0.0,
               "security_eps_log2 must be negative and above -1075")
        _check(self.n_in > -2.0 * self.security_eps_log2,
               "n_in must exceed -2 * security_eps_log2 (the hashing penalty)")
        _check(self.min_entropy_override is None or self.min_entropy_override > 0,
               "min_entropy_override must be > 0")


@dataclass(frozen=True)
class PipelineConfig:
    """``pipeline``: output sizing and the statistical battery."""

    n_output_bits: int
    n_sequences: int = 100
    seq_len_bits: int = 100_000
    extractor_seed: int | None = None

    def __post_init__(self) -> None:
        _check(self.n_sequences >= 1, "n_sequences must be >= 1")
        _check(self.seq_len_bits >= 128, "seq_len_bits must be >= 128")
        need = self.n_sequences * self.seq_len_bits
        _check(self.n_output_bits >= need,
               f"insufficient bits: the battery needs n_sequences * seq_len_bits "
               f"= {need}, n_output_bits is {self.n_output_bits}")
        _check(self.extractor_seed is None or 0 <= self.extractor_seed < 2**64,
               "extractor_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SineDrift:
    """``stability.power_drift``: power scaled by 1 + a*sin(2*pi*t/T)."""

    type: str
    relative_amplitude: float
    period_s: float

    def __post_init__(self) -> None:
        _check(self.type == "sine", 'must be null or {"type": "sine", '
               '"relative_amplitude": a, "period_s": T}')
        _check(-1.0 < self.relative_amplitude < 1.0,
               "relative_amplitude must lie in (-1, 1)")
        _check(self.period_s > 0, "period_s must be > 0")

    def __call__(self, t: float) -> float:
        phase = 2.0 * math.pi * t / self.period_s
        return 1.0 + self.relative_amplitude * math.sin(phase)


@dataclass(frozen=True)
class StabilityConfig:
    """``stability``: the drift scenario, run free and recalibrated."""

    phase_drift_rate: float = 0.0
    recalibration_period: float = 120.0
    total_time: float = 3600.0
    report_interval: float = 30.0
    power_drift: SineDrift | None = None

    def __post_init__(self) -> None:
        _check(self.recalibration_period > 0, "recalibration_period must be > 0")
        _check(self.report_interval > 0, "report_interval must be > 0")
        _check(math.isfinite(self.total_time / self.report_interval),
               "total_time / report_interval must be a finite report count")
        _check(self.total_time >= 10.0 * self.report_interval,
               "total_time must cover at least 10 report intervals")


@dataclass(frozen=True)
class Config:
    """A whole parsed config; absent sections are ``None``, bar ``entropy``."""

    run: SimulationRun
    sweep: SweepConfig | None = None
    fringe: FringeConfig | None = None
    entropy: EntropyConfig = field(default_factory=EntropyConfig)
    pipeline: PipelineConfig | None = None
    stability: StabilityConfig | None = None


_OPTIONAL_SECTIONS = dict(
    sweep=SweepConfig, fringe=FringeConfig, entropy=EntropyConfig,
    pipeline=PipelineConfig, stability=StabilityConfig,
)


def load_config(path, seed: int | None = None) -> Config:
    """Read, parse and check a JSON config; ``seed`` overrides ``run.seed``."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # a 5000-digit integer, brackets nested too deep
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for name in raw:
        if name not in ("model", "chain", "run", *_OPTIONAL_SECTIONS):
            raise ConfigError(f"config section {name!r}: unknown section")
    for name in ("model", "chain", "run"):
        if name not in raw:
            raise ConfigError(f"config section '{name}' is missing")
    run_raw = raw["run"]
    if seed is not None and isinstance(run_raw, dict):
        run_raw = {**run_raw, "seed": seed}
    model = _section("model", raw["model"], LaserNoiseModel)
    chain = _section("chain", raw["chain"], SignalChainConfig)
    run = _section("run", run_raw, SimulationRun, model=model, chain=chain)
    cfg = Config(run, **{
        name: _section(name, raw[name], cls)
        for name, cls in _OPTIONAL_SECTIONS.items() if name in raw
    })
    # every stability point is one run of run.duration, and a variance takes
    # two samples
    if cfg.stability is not None and run.n_samples < 2:
        raise ConfigError("config section 'run': duration must give at least 2 "
                          "samples at chain.sample_rate_hz for a 'stability' variance")
    # each sweep or fringe point is a sub-run of samples_per_point; a budget
    # keeps at least one output bit per n_in-bit block, so no fit sizes the
    # main run above its size at n_out = 1
    sized = [(f"'{name}': samples_per_point", getattr(cfg, name).samples_per_point, "")
             for name in ("sweep", "fringe") if getattr(cfg, name) is not None]
    if cfg.pipeline is not None:
        sized.append(("'pipeline': n_output_bits", _main_samples(cfg, 1),
                      " at entropy.n_in bits a block"))
    for key, n_samples, per in sized:
        try:
            _sized(run, n_samples)
        except (ValueError, OverflowError):  # OverflowError: beyond float range
            raise ConfigError(f"config section {key} must give a sample count "
                              f"below 2**63{per}") from None
    return cfg


def _section(name: str, raw, cls, **given):
    try:
        return _build(cls, raw, given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section '{name}': {exc}") from exc


def _build(cls, raw, given: dict):
    """Instantiate dataclass ``cls`` from a JSON object plus ``given`` fields."""
    if not isinstance(raw, dict):
        raise ValueError(f"must be an object, not {json.dumps(raw)}")
    keys = [f for f in fields(cls) if f.init and f.name not in given]
    unknown = sorted(set(raw) - {f.name for f in keys})
    if unknown:
        raise ValueError("unknown key " + ", ".join(map(repr, unknown)))
    hints = typing.get_type_hints(cls)
    kwargs = dict(given)
    for f in keys:
        if f.name in raw:
            kwargs[f.name] = _value(raw[f.name], hints[f.name], f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{f.name} is required")
    return cls(**kwargs)


def _value(value, hint, key: str):
    """Check one JSON value against a field annotation and convert it."""
    if type(None) in typing.get_args(hint):  # ``X | None``
        hint = typing.get_args(hint)[0]
        if value is None and is_dataclass(hint):
            return None  # an optional sub-object may be null; a scalar may not
    if is_dataclass(hint):
        try:
            return _build(hint, value, {})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from exc
    want = {int: "an integer", float: "a number", str: "a string"}.get(hint, "a list")
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{key} entries must be lists of {len(args)} numbers")
        return tuple(_value(v, a, key) for v, a in zip(value, args))
    if hint is str and isinstance(value, str):
        return value
    # not numbers: booleans, NaN, Infinity, ints beyond float range; 1e6 is an int
    if type(value) is int and (hint is int or (hint is float and abs(value) < 2**1000)):
        return hint(value)
    if type(value) is float and hint in (int, float) and math.isfinite(value):
        if hint is float or value.is_integer():
            return hint(value)
    raise ValueError(f"{key} must be {want}, not {json.dumps(value)}")


def _require(section, name: str):
    if section is None:
        raise ConfigError(f"config section '{name}' is missing")
    return section


def _sized(run: SimulationRun, n_samples: int) -> SimulationRun:
    """``run`` with the duration of ``n_samples`` samples."""
    return replace(run, duration=n_samples / run.chain.sample_rate_hz)


def _variances(run: SimulationRun, n_samples: int, namespace: int, variants):
    """Variance of ``n_samples`` per (model, chain), one seeded sub-run each."""
    return simulate_variances(_sized(run, n_samples), namespace, variants)


def sweep_direct(run: SimulationRun, sweep: SweepConfig) -> list[float]:
    """Measured variance at each sweep power."""
    return _variances(run, sweep.samples_per_point, NS_SWEEP, [
        (replace(run.model, power_p=p), run.chain) for p in sweep.powers
    ])


@dataclass(frozen=True)
class Calibration:
    """Result of :func:`calibrate`."""

    quadrature_phase: float | None  # None when the config has no fringe scan
    variances: list[float]  # direct sweep, one per ``SweepConfig.powers``
    attenuated_variances: list[float]
    fit: VarianceFit


def calibrate(cfg: Config) -> Calibration:
    """Optional fringe scan to lock quadrature, then both power sweeps."""
    sweep = _require(cfg.sweep, "sweep")
    run = cfg.run
    quad_phi = None
    if cfg.fringe is not None:
        phis = np.linspace(0.0, math.pi, cfg.fringe.n_points).tolist()
        variances = _variances(run, cfg.fringe.samples_per_point, NS_FRINGE, [
            (run.model, replace(run.chain, quadrature_offset=phi - math.pi / 2.0))
            for phi in phis
        ])
        quad_phi = calib.find_quadrature(list(zip(phis, variances)))
        run = replace(
            run, chain=replace(run.chain, quadrature_offset=quad_phi - math.pi / 2.0)
        )
    variances = sweep_direct(run, sweep)
    fit = calib.fit_variance_vs_power(sweep.powers, variances)
    # the attenuation method's QCNR cross-check: the source runs bright at
    # source_power, attenuated down to the detected power of each direct point
    bright = replace(run.model, power_p=sweep.source_power)
    attenuated = _variances(run, sweep.samples_per_point, NS_SWEEP_ATT, [
        (attenuated_model(bright, p), run.chain) for p in sweep.powers
    ])
    return Calibration(quad_phi, variances, attenuated, fit)


# autocorrelation lags, and the most and the fewest values of each series
_MAX_LAG = 100
_HEAD = 1_000_000
_MIN_HEAD = stats.MIN_VALUES_PER_LAG * _MAX_LAG


def _main_samples(cfg: Config, n_out: int) -> int:
    """The main run's sample count at ``n_out`` output bits a block: whole
    ``n_in``-bit blocks for ``n_output_bits`` and for the autocorrelation
    head, and never fewer samples than the head."""
    blocks = -(-max(cfg.pipeline.n_output_bits, _MIN_HEAD) // n_out)
    return max(-(-blocks * cfg.entropy.n_in // cfg.run.chain.adc_bits), _MIN_HEAD)


@dataclass(frozen=True)
class PipelineResult:
    """Result of :func:`pipeline`."""

    fit: VarianceFit
    entropy: EntropyReport
    extractor: extract.ToeplitzSeed
    bits: BitStream
    raw_autocorr: np.ndarray  # lags 0..100 of the raw samples
    bits_autocorr: np.ndarray  # lags 0..100 of the extracted bits
    battery: list[stats.TestReport]
    pass_band: tuple[float, float]


def pipeline(cfg: Config) -> PipelineResult:
    """Direct power sweep -> fit -> main run -> entropy -> extract -> battery."""
    sweep = _require(cfg.sweep, "sweep")
    pipe = _require(cfg.pipeline, "pipeline")
    run, ent = cfg.run, cfg.entropy
    # the QCNR is taken at the operating power: check it before the sweep
    if run.model.power_p <= 0:
        raise ConfigError("config section 'model': power_p must be > 0 for pipeline")

    fit = calib.fit_variance_vs_power(sweep.powers, sweep_direct(run, sweep))
    # a quantum term within 3 standard errors of 0 is the sweep's noise, and
    # crediting it would credit the electronic noise as entropy
    if not fit.aq > 3.0 * fit.aq_se:
        raise ValueError(
            "the sweep does not resolve a quantum term: "
            f"aq = {fit.aq:.3e} +/- {fit.aq_se:.3e} V^2/W"
        )
    # H_inf depends only on the QCNR and the ADC (an override above it, or a
    # budget under one output bit per n_in-bit block, fails here), so the
    # budget is fixed before the main run, which it sizes
    report = entropy.entropy_report(
        predicted_variance(fit, run.model.power_p),
        calib.qcnr_from_fit(fit, run.model.power_p),
        adc_bits=run.chain.adc_bits, range_sigmas=run.chain.adc_range_sigmas,
        security_eps=2.0**ent.security_eps_log2, n_in=ent.n_in,
        min_entropy_override=ent.min_entropy_override,
    )
    n_out = math.floor(report.extraction_ratio * ent.n_in)
    main = _sized(run, _main_samples(cfg, n_out))  # below load_config's bound
    stream = code_stream(replace(main, seed=derive_seed(run.seed, NS_PIPELINE)))

    ext_seed = pipe.extractor_seed
    if ext_seed is None:  # not configured: derived from the run seed
        ext_seed = derive_seed(run.seed, NS_EXTRACTOR)
    extractor = extract.ToeplitzSeed.generate(ent.n_in, n_out, ext_seed)
    # the codes go from the simulator to the extractor chunk by chunk, never
    # held whole; the raw autocorrelation sums the head as it passes
    raw = stats.CentredLagSums(_MAX_LAG)

    def head_first(chunks):
        for chunk in chunks:
            raw.add(chunk[: _HEAD - raw.n])
            yield chunk

    try:
        bits = extract.extract_stream(
            replace(stream, chunks=head_first(stream.chunks)), report, extractor
        )
    finally:
        # a run the extractor left unread ends here, and with it the draw
        # worker that this run, streamed alone, owns
        stream.chunks.close()
    # diagnostic heads as stored (codes, bits): r ignores the ADC scale
    raw_r = raw.autocorrelation()
    del raw  # its window goes before the battery
    ext_r = stats.autocorrelation(bits.as_bit_array(stop=_HEAD), _MAX_LAG)
    battery = stats.nist_subset(bits, pipe.n_sequences, pipe.seq_len_bits)
    return PipelineResult(
        fit, report, extractor, bits, raw_r, ext_r, battery,
        stats.pass_rate_band(pipe.n_sequences),
    )


@dataclass(frozen=True)
class StabilityResult:
    """Result of :func:`stability`: the same report times, two runs."""

    free: list[StabilityPoint]
    recalibrated: list[StabilityPoint]


def stability(cfg: Config) -> StabilityResult:
    """The drift scenario once free-running and once with recalibration."""
    stab = _require(cfg.stability, "stability")
    run = cfg.run
    free, recalibrated = (
        simulate_stability(
            replace(run, seed=derive_seed(run.seed, namespace)),
            stab.phase_drift_rate, stab.power_drift, period,
            stab.total_time, stab.report_interval,
        )
        for namespace, period in (
            (NS_STAB_FREE, None), (NS_STAB_RECAL, stab.recalibration_period)
        )
    )
    return StabilityResult(free, recalibrated)
