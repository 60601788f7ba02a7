"""Byte-identity grid: digests of small runs over the whole parameter space.

The ``GOLDEN`` digests of ``test_cli.py`` and ``test_acceptance.py`` share one
chain (8-bit ADC, 500 MS/s, 500 MHz TIA, ovs 8, no rf tones, no fringe).  This
table spans the rest: ovs, the TIA cutoff (down to the 80 kHz slow filter),
the electronic noise F, the power (0 included), the quadrature offset, 0-2
rf tones, every ADC width 1-16 and lengths either side of ``sim._CHUNK_ROWS``.
Each case asserts the sha256 of its codes and ``adc_scale``.  Three more cases
run a ``calibrate`` with a fringe scan, a ``stability`` with phase and sine
power drift, and the imported-sample tail (``read_samples``, budget,
``extract_stream``, battery, both autocorrelations).

A refactor must keep every digest.  A declared change re-records the table in
its own commit:

    PYTHONPATH=src python tests/test_grid.py
"""

import contextlib
import hashlib
import io as _io
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import CONV_GAIN, DELAY_TD, F_REF, artifact_digests, make_ref_model

from phaseqrng import calib, cli, entropy, extract, sim, stats
from phaseqrng import io as qio
from phaseqrng.model import SignalChainConfig, VarianceFit, variance_coefficients

DIGESTS = Path(__file__).resolve().parent / "grid_digests.json"

_ROWS = sim._CHUNK_ROWS
LENGTHS = (1, 300, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1)
TONES = ((), ((37e6, 2e-3),), ((37e6, 2e-3), (123.4e6, 5e-4)))


def grid_runs() -> dict[str, sim.SimulationRun]:
    """The 48 seeded cases, keyed by a name that spells out each one."""
    rng = random.Random(9)  # stdlib draws are stable across Python versions
    runs = {}
    for i in range(48):
        n = LENGTHS[i % len(LENGTHS)]
        bits = 1 + i % 16
        ovs = rng.choice((4, 5, 8, 16))
        rate = rng.choice((500e6, 1e9))
        tia = rng.choice((500e6, 130e6, 8e4))
        f = rng.choice((F_REF, 0.0, 1e-5))
        power = rng.choice((2.47e-4, 0.0, 3e-5, 1e-3))
        offset = rng.choice((0.0, 0.4, -1.1, math.pi / 2))
        tones = rng.choice(TONES)
        if power == 0.0 and f == 0.0 and not tones:
            f = F_REF  # a silent chain has no ADC range
        chain = SignalChainConfig(
            delay_td=DELAY_TD, quadrature_offset=offset, conversion_gain_a=CONV_GAIN,
            electronic_noise_f=f, tia_cutoff_hz=tia, adc_bits=bits,
            adc_range_sigmas=rng.choice((5.0, 3.0)), sample_rate_hz=rate,
        )
        name = (f"{i:02d}-n{n}-b{bits}-ovs{ovs}-fs{rate:g}-tia{tia:g}-f{f:g}-p{power:g}"
                f"-q{offset:.3g}-t{len(tones)}")
        runs[name] = sim.SimulationRun(
            model=make_ref_model(power), chain=chain, duration=n / rate,
            oversample_factor=ovs, seed=1000 + i, rf_tones=tones,
        )
    return runs


def codes_digest(run: sim.SimulationRun) -> str:
    block = sim.simulate(run)
    return hashlib.sha256(block.samples.tobytes() + repr(block.adc_scale).encode()).hexdigest()


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(_io.StringIO()):
        return cli.main(argv)


def fringe_calibrate_digests(tmp: Path) -> dict[str, str]:
    """``calibrate`` with a fringe scan, off quadrature by 0.5 rad."""
    model = make_ref_model(2.47e-4)
    cfg = {
        "model": {"quantum_diffusion_q": model.quantum_diffusion_q,
                  "classical_diffusion_c": model.classical_diffusion_c,
                  "power_p": model.power_p},
        "chain": {"delay_td": DELAY_TD, "conversion_gain_a": CONV_GAIN,
                  "electronic_noise_f": F_REF, "quadrature_offset": 0.5, "adc_bits": 10},
        "run": {"duration": 1e-5, "seed": 5},
        "fringe": {"n_points": 9, "samples_per_point": 5000},
        "sweep": {"powers": [3e-5, 1e-4, 3e-4, 1e-3], "samples_per_point": 5000},
    }
    path = tmp / "fringe.json"
    path.write_text(json.dumps(cfg))
    out = tmp / "fit.txt"
    assert _quiet(["calibrate", "--config", str(path), "--out", str(out)]) == 0
    return artifact_digests(out)


def drifted_stability_digests(tmp: Path) -> dict[str, str]:
    """``stability`` with phase drift, recalibration and a sine power drift."""
    model = make_ref_model(2.47e-4)
    cfg = {
        "model": {"quantum_diffusion_q": model.quantum_diffusion_q,
                  "classical_diffusion_c": model.classical_diffusion_c,
                  "power_p": model.power_p},
        "chain": {"delay_td": DELAY_TD, "conversion_gain_a": CONV_GAIN,
                  "electronic_noise_f": F_REF, "adc_bits": 10},
        "run": {"duration": 1e-5, "seed": 13},
        "stability": {"phase_drift_rate": 2e-3, "recalibration_period": 45.0,
                      "total_time": 300.0, "report_interval": 20.0,
                      "power_drift": {"type": "sine", "relative_amplitude": 0.3,
                                      "period_s": 170.0}},
    }
    path = tmp / "stability.json"
    path.write_text(json.dumps(cfg))
    out = tmp / "stability.csv"
    assert _quiet(["stability", "--config", str(path), "--out", str(out)]) == 0
    return artifact_digests(out)


def imported_block_digests(tmp: Path) -> dict[str, str]:
    """A sample file through the budget, the extractor and the diagnostics.

    The steps are those of the imported-sample bench workload, at a small
    scale: 10-bit codes, and sequences that start and end mid-byte.
    """
    power = 2.47e-4
    chain = SignalChainConfig(delay_td=DELAY_TD, conversion_gain_a=CONV_GAIN,
                              electronic_noise_f=F_REF, adc_bits=10)
    run = sim.SimulationRun(model=make_ref_model(power), chain=chain,
                            duration=30_000 / chain.sample_rate_hz, seed=31)
    samples = tmp / "samples.qrng"
    qio.write_samples(sim.simulate(run), samples)

    block = qio.read_samples(samples)
    fit = VarianceFit(*variance_coefficients(run.model, chain), r_squared=1.0)
    report = entropy.entropy_report(
        block.variance_volts(), calib.qcnr_from_fit(fit, power),
        adc_bits=block.adc_bits, range_sigmas=chain.adc_range_sigmas,
        security_eps=2.0**-50, n_in=1024,
    )
    n_out = math.floor(report.extraction_ratio * 1024)
    bits = extract.extract_stream(block, report, extract.ToeplitzSeed.generate(1024, n_out, 1))
    out = tmp / "bits.qrng"
    qio.write_bits(bits, out)
    battery = stats.nist_subset(bits, 6, 1283)
    r_raw = stats.autocorrelation(block.volts()[:20_000], 100)
    r_ext = stats.autocorrelation(bits.as_bit_array()[:20_000].astype(np.float64), 100)
    qio.write_report({
        "entropy": {k: getattr(report, k) for k in (
            "qcnr", "sigma_sq_total", "min_entropy_bits", "extraction_ratio")},
        "n_out": n_out,
        "nist": [[r.test_name, list(r.per_sequence_pvalues), r.pass_rate,
                  r.uniformity_pvalue] for r in battery],
        "r_raw": r_raw.tolist(),
        "r_extracted": r_ext.tolist(),
    }, str(out) + ".report")
    return artifact_digests(out)


def record() -> dict:
    """Every digest of the grid, as the tests compare them."""
    with tempfile.TemporaryDirectory() as tmp:
        a, b, c = Path(tmp, "fringe"), Path(tmp, "imported"), Path(tmp, "stability")
        for d in (a, b, c):
            d.mkdir()
        return {
            "codes": {name: codes_digest(run) for name, run in GRID.items()},
            "calibrate_fringe": fringe_calibrate_digests(a),
            "imported_block": imported_block_digests(b),
            "stability_drift": drifted_stability_digests(c),
        }


GRID = grid_runs()
RECORDED = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def test_grid_spans_the_parameter_space():
    runs = list(GRID.values())
    assert {r.chain.adc_bits for r in runs} == set(range(1, 17))
    assert {r.oversample_factor for r in runs} == {4, 5, 8, 16}
    assert {len(r.rf_tones) for r in runs} == {0, 1, 2}
    assert {r.chain.tia_cutoff_hz for r in runs} >= {8e4}
    assert {r.model.power_p for r in runs} >= {0.0}
    assert {r.chain.electronic_noise_f for r in runs} >= {0.0}
    assert {round(r.duration * r.chain.sample_rate_hz) for r in runs} == set(LENGTHS)
    assert list(RECORDED["codes"]) == list(GRID)


@pytest.mark.parametrize("name", list(GRID))
def test_grid_codes_match_recorded_digests(name):
    assert codes_digest(GRID[name]) == RECORDED["codes"][name]


def test_fringe_calibrate_matches_recorded_digests(tmp_path):
    assert fringe_calibrate_digests(tmp_path) == RECORDED["calibrate_fringe"]


def test_drifted_stability_matches_recorded_digests(tmp_path):
    assert drifted_stability_digests(tmp_path) == RECORDED["stability_drift"]


def test_imported_block_matches_recorded_digests(tmp_path):
    assert imported_block_digests(tmp_path) == RECORDED["imported_block"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"recorded {DIGESTS}")
