"""Config parsing: the whole file is checked before any simulation starts.

A malformed config must make ``cli.main`` exit 1 with a single
``error: config section '<name>'...`` line on stderr, within a second and
before any simulation; the simulator is replaced by a function that fails
the test if it is ever called.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CONFIGS

from phaseqrng import cli, runs, sim

# every section and every key present, so each mutation below hits a parsed
# field
VALID = {
    "model": {
        "quantum_diffusion_q": 7.376218323586745,
        "classical_diffusion_c": 4389.668615984405,
        "power_p": 2.47e-4,
    },
    "chain": {
        "delay_td": 5.4e-10,
        "quadrature_offset": 0.0,
        "conversion_gain_a": 9.5e6,
        "electronic_noise_f": 1.3732e-6,
        "tia_cutoff_hz": 5.0e8,
        "adc_bits": 8,
        "adc_range_sigmas": 5.0,
        "sample_rate_hz": 5.0e8,
    },
    "run": {
        "duration": 4e-5,
        "seed": 1,
        "oversample_factor": 8,
        "rf_tones": [[1e7, 1e-4]],
    },
    "sweep": {
        "powers": [3e-5, 1e-4, 3e-4, 1e-3],
        "samples_per_point": 50_000,
        "source_power": 0.1,
    },
    "fringe": {"n_points": 9, "samples_per_point": 30_000},
    "entropy": {
        "n_in": 1024,
        "security_eps_log2": -50,
        "min_entropy_override": 5.0,
    },
    "pipeline": {
        "n_output_bits": 30_000,
        "n_sequences": 20,
        "seq_len_bits": 1500,
        "extractor_seed": 5,
    },
    "stability": {
        "phase_drift_rate": 1e-3,
        "recalibration_period": 40.0,
        "total_time": 200.0,
        "report_interval": 20.0,
        "power_drift": {"type": "sine", "relative_amplitude": 0.1, "period_s": 600.0},
    },
}

DRIFT = ("stability", "power_drift")

# (section path, key) -> the JSON kind the key takes
KINDS = {
    **{(("model",), k): "float" for k in VALID["model"]},
    **{(("chain",), k): "float" for k in VALID["chain"] if k != "adc_bits"},
    (("chain",), "adc_bits"): "int",
    (("run",), "duration"): "float",
    (("run",), "seed"): "int",
    (("run",), "oversample_factor"): "int",
    (("run",), "rf_tones"): "pairs",
    (("sweep",), "powers"): "floats",
    (("sweep",), "samples_per_point"): "int",
    (("sweep",), "source_power"): "float",
    (("fringe",), "n_points"): "int",
    (("fringe",), "samples_per_point"): "int",
    (("entropy",), "n_in"): "int",
    (("entropy",), "security_eps_log2"): "float",
    (("entropy",), "min_entropy_override"): "float",
    **{(("pipeline",), k): "int" for k in VALID["pipeline"]},
    **{(("stability",), k): "float" for k in VALID["stability"] if k != "power_drift"},
    (("stability",), "power_drift"): "object",
    (DRIFT, "type"): "str",
    (DRIFT, "relative_amplitude"): "float",
    (DRIFT, "period_s"): "float",
}

REQUIRED = [
    (("model",), "quantum_diffusion_q"),
    (("model",), "classical_diffusion_c"),
    (("model",), "power_p"),
    (("run",), "duration"),
    (("pipeline",), "n_output_bits"),
    (DRIFT, "type"),
    (DRIFT, "relative_amplitude"),
    (DRIFT, "period_s"),
]

# sections the pipeline command cannot do without
REQUIRED_SECTIONS = ["model", "chain", "run", "sweep", "pipeline"]

OUT_OF_RANGE = [
    (("model",), "power_p", -1e-4),
    (("model",), "quantum_diffusion_q", -1.0),
    (("model",), "classical_diffusion_c", -1.0),
    (("chain",), "delay_td", 0.0),
    (("chain",), "conversion_gain_a", -1.0),
    (("chain",), "tia_cutoff_hz", 0.0),
    (("chain",), "adc_bits", 0),
    (("chain",), "adc_bits", 17),
    (("chain",), "adc_range_sigmas", 0.0),
    (("chain",), "sample_rate_hz", 0.0),
    (("chain",), "electronic_noise_f", -1e-6),
    (("run",), "duration", 0.0),
    (("run",), "oversample_factor", 3),
    (("run",), "seed", -1),
    (("run",), "seed", 2**64),
    (("run",), "rf_tones", [[5e8, 1e-4]]),
    (("run",), "rf_tones", [[1e7, 1e-4], [2.5e8, 1e-4]]),
    (("sweep",), "powers", [1e-4, 2e-4, 3e-4]),
    (("sweep",), "powers", [0.0, 1e-4, 2e-4, 3e-4]),
    (("sweep",), "source_power", 1e-4),
    (("sweep",), "samples_per_point", 1),
    (("fringe",), "n_points", 7),
    (("fringe",), "samples_per_point", 0),
    (("entropy",), "n_in", 0),
    (("entropy",), "n_in", 100),
    (("entropy",), "security_eps_log2", 0.0),
    (("entropy",), "security_eps_log2", 5000.0),
    (("entropy",), "security_eps_log2", -2000.0),
    (("entropy",), "min_entropy_override", 0.0),
    (("pipeline",), "n_output_bits", 29_999),
    (("pipeline",), "seq_len_bits", 127),
    (("pipeline",), "n_sequences", 0),
    (("pipeline",), "extractor_seed", -1),
    (("pipeline",), "extractor_seed", 2**64),
    (("stability",), "recalibration_period", 0.0),
    (("stability",), "report_interval", 0.0),
    (("stability",), "total_time", 199.0),
    (DRIFT, "relative_amplitude", 1.0),
    (DRIFT, "relative_amplitude", -2.5),
    (DRIFT, "period_s", 0.0),
    (DRIFT, "type", "linear"),
]

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_NOT_NUMBER = st.one_of(_SCALARS, st.lists(st.integers(), max_size=2))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NUMBER = st.one_of(st.integers(), st.floats(allow_nan=False))
_BAD_PAIR = st.one_of(
    _SCALARS,
    st.lists(st.floats(0, 1), max_size=1),
    st.lists(st.floats(0, 1), min_size=3, max_size=4),
    st.lists(st.text(max_size=2), min_size=2, max_size=2),
)
WRONG = {
    "float": st.one_of(_NOT_NUMBER, _NON_FINITE),
    "int": st.one_of(
        _NOT_NUMBER,
        _NON_FINITE,
        st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
    ),
    "floats": st.one_of(_SCALARS, _NUMBER, st.lists(_NOT_NUMBER, min_size=1, max_size=5)),
    "pairs": st.one_of(_SCALARS, _NUMBER, st.lists(_BAD_PAIR, min_size=1, max_size=2)),
    "object": st.one_of(st.booleans(), _NUMBER, st.text(max_size=4), st.lists(st.integers())),
    "str": st.one_of(st.none(), st.booleans(), _NUMBER, st.lists(st.text(max_size=2))),
}


def _at(cfg: dict, path: tuple) -> dict:
    for name in path:
        cfg = cfg[name]
    return cfg


@st.composite
def malformed(draw):
    """A copy of VALID with one defect, and the section the error must name."""
    cfg = copy.deepcopy(VALID)
    defect = draw(st.sampled_from(["type", "unknown", "missing", "range", "section"]))
    if defect == "type":
        path, key = draw(st.sampled_from(sorted(KINDS)))
        _at(cfg, path)[key] = draw(WRONG[KINDS[path, key]])
    elif defect == "unknown":
        path = draw(st.sampled_from(sorted({p for p, _ in KINDS})))
        known = {k for p, k in KINDS if p == path}
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in known))
        _at(cfg, path)[key] = draw(_NUMBER)
    elif defect == "missing":
        path, key = draw(st.sampled_from(REQUIRED))
        del _at(cfg, path)[key]
    elif defect == "range":
        path, key, value = draw(st.sampled_from(OUT_OF_RANGE))
        _at(cfg, path)[key] = value
    elif draw(st.booleans()):
        path = (draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in cfg)),)
        cfg[path[0]] = {}
    else:
        path = (draw(st.sampled_from(REQUIRED_SECTIONS)),)
        del cfg[path[0]]
    return cfg, path[0]


def _no_simulation(*args, **kwargs):
    raise AssertionError("a simulation started")


def run_cli(cfg: dict, command: str):
    """(exit code, stderr, seconds) of one command on ``cfg``, simulator off."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with (
            pytest.MonkeyPatch.context() as mp,
            contextlib.redirect_stderr(err),
            contextlib.redirect_stdout(io.StringIO()),
        ):
            for module in (sim, runs):  # every run, collected or streamed, starts here
                mp.setattr(module, "code_stream", _no_simulation)
            t0 = time.perf_counter()
            rc = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
            elapsed = time.perf_counter() - t0
    return rc, err.getvalue(), elapsed


def assert_fails_fast(cfg: dict, command: str, section: str) -> None:
    rc, err, elapsed = run_cli(cfg, command)
    assert rc == 1, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: config section {section!r}"), err
    assert elapsed < 1.0


@settings(max_examples=300, deadline=None)
@given(case=malformed())
def test_malformed_config_fails_fast_with_one_line(case):
    cfg, section = case
    assert_fails_fast(cfg, "pipeline", section)


def _with(section: str, **values) -> dict:
    cfg = copy.deepcopy(VALID)
    cfg[section].update(values)
    return cfg


@pytest.mark.parametrize(
    "command, section, cfg",
    [
        ("pipeline", "entropy", _with("entropy", n_in=None)),
        ("pipeline", "entropy", _with("entropy", extraction_ratio="0.5")),
        ("pipeline", "sweep", _with("sweep", powers=5)),
        ("stability", "stability", _with("stability", power_drift={"type": "sine"})),
        ("pipeline", "sweep", _with("sweep", bogus=1)),
        ("calibrate", "fringe", _with("fringe", bogus=1)),
        ("pipeline", "entropy", _with("entropy", bogus=1)),
        ("pipeline", "pipeline", _with("pipeline", bogus=1)),
        ("stability", "stability", _with("stability", bogus=1)),
        ("stability", "stability", _with("stability", recalibration_period=0)),
        ("stability", "stability", _with("stability", recalibration_period=None)),
        ("pipeline", "pipeline", _with("pipeline", n_output_bits=20_000)),
        ("pipeline", "pipeline", _with("pipeline", seq_len_bits=100)),
        (
            "stability",
            "stability",
            _with("stability", power_drift={
                "type": "sine", "relative_amplitude": 1.0, "period_s": 600.0}),
        ),
        ("simulate", "run", _with("run", rf_tones=[[0.0, 1e-4]])),
        ("simulate", "run", _with("run", rf_tones=[[7.5e8, 1e-4]])),
        ("simulate", "run", _with("run", duration=1e300)),
        ("simulate", "chain", _with("chain", conversion_gain_a=-1.0)),
        ("pipeline", "model", _with("model", power_p=0.0)),
    ],
)
def test_known_bad_configs_fail_before_simulation(command, section, cfg):
    assert_fails_fast(cfg, command, section)


def parse(cfg: dict, seed=None) -> runs.Config:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        return runs.load_config(path, seed)


def test_valid_config_parses_every_section():
    cfg = parse(VALID, seed=9)
    assert cfg.run.seed == 9
    assert cfg.run.rf_tones == ((1e7, 1e-4),)
    assert cfg.sweep.powers == (3e-5, 1e-4, 3e-4, 1e-3)
    assert cfg.fringe == runs.FringeConfig(n_points=9, samples_per_point=30_000)
    assert cfg.entropy.security_eps_log2 == -50.0
    assert cfg.pipeline.extractor_seed == 5
    assert cfg.stability.power_drift(150.0) == pytest.approx(1.1)


def test_absent_sections_take_documented_defaults():
    cfg = parse(
        {k: VALID[k] for k in ("model", "chain", "run")}
        | {"sweep": {}, "fringe": {}, "stability": {"power_drift": None}}
    )
    assert cfg.sweep.powers == tuple(np.geomspace(1e-5, 1e-3, 10).tolist())
    assert (cfg.sweep.samples_per_point, cfg.sweep.source_power) == (1_000_000, 0.1)
    assert cfg.fringe == runs.FringeConfig(n_points=17, samples_per_point=200_000)
    assert cfg.entropy == runs.EntropyConfig(n_in=4096, security_eps_log2=-50.0)
    assert cfg.pipeline is None
    assert cfg.stability.power_drift is None
    assert cfg.stability.recalibration_period == 120.0


def test_integral_floats_are_accepted_for_integer_keys():
    cfg = parse(_with("sweep", samples_per_point=1e6))
    assert cfg.sweep.samples_per_point == 1_000_000
    assert isinstance(cfg.sweep.samples_per_point, int)


@pytest.mark.parametrize("name", ["simulate.json", "pipeline.json", "stability.json"])
def test_checked_in_configs_parse(name):
    runs.load_config(CONFIGS / name)
