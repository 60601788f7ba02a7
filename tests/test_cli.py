"""End-to-end tests for the command-line interface.

Each test drives ``cli.main`` in-process with a JSON config written under a
tmp directory, then checks the exit code, the console output, and the files
left behind.  Scales are deliberately small (tens of thousands of samples per
run) so the whole module finishes in a few seconds; the expensive commands run
once in module-scoped fixtures and several tests share the artifacts.
"""

import copy
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import AC_REF, AQ_REF, CONFIGS, CONV_GAIN, DELAY_TD, F_REF, artifact_digests

from phaseqrng import calib, cli, entropy, extract, runs, sim, stats
from phaseqrng import io as qio
from phaseqrng.model import SampleBlock, VarianceFit, predicted_variance

BASE_CONFIG = {
    "model": {
        "quantum_diffusion_q": AQ_REF / (CONV_GAIN * DELAY_TD),
        "classical_diffusion_c": AC_REF / (CONV_GAIN * DELAY_TD),
        "power_p": 2.47e-4,
    },
    "chain": {
        "delay_td": DELAY_TD,
        "conversion_gain_a": CONV_GAIN,
        "electronic_noise_f": F_REF,
        "tia_cutoff_hz": 500e6,
        "adc_bits": 8,
        "adc_range_sigmas": 5.0,
        "sample_rate_hz": 500e6,
    },
    "run": {"duration": 4e-5, "seed": 71},
}

# small but honest pipeline scale: 4-point sweep, 1024-sample blocks, 20
# sequences of 1500 bits for the statistical battery
PIPELINE_SECTIONS = {
    "sweep": {
        "powers": [3e-5, 1e-4, 3e-4, 1e-3],
        "samples_per_point": 50_000,
        "source_power": 0.1,
    },
    "entropy": {"n_in": 1024, "security_eps_log2": -50},
    "pipeline": {"n_output_bits": 30_000, "n_sequences": 20, "seq_len_bits": 1500},
}


def write_config(dirpath, name="config.json", **sections):
    """Write BASE_CONFIG with per-section overrides; None drops a section."""
    cfg = copy.deepcopy(BASE_CONFIG)
    for key, value in sections.items():
        if value is None:
            cfg.pop(key, None)
        elif isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = dirpath / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _python(*args):
    """Run a fresh interpreter on this checkout's package; return its stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    # every command pays its imports at start-up, and SciPy's were over half
    # of them; it is a test dependency only
    code = ("import sys, phaseqrng.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy')))")
    assert _python("-c", code).strip() == "[]"


def test_cli_import_leaves_concurrent_futures_unimported():
    # the simulator imports its one-worker thread pool at first use, in a
    # run with phase noise, so importing the CLI pays for none of it
    code = "import sys, phaseqrng.cli; print('concurrent.futures' in sys.modules)"
    assert _python("-c", code).strip() == "False"


def test_variance_fit_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, about 10 ms in every
    # calibrate and pipeline run
    code = ("import sys, phaseqrng.cli; from phaseqrng.calib import fit_variance_vs_power; "
            "fit_variance_vs_power([1.0, 2.0, 3.0, 3.0], [1.0, 2.0, 3.0, 3.5]); "
            "print('numpy.ma' in sys.modules)")
    assert _python("-c", code).strip() == "False"


# ---------------------------------------------------------------------------
# config loading and validation (exit code 1)
# ---------------------------------------------------------------------------


def test_missing_config_file_fails(tmp_path, capsys):
    rc = cli.main(
        ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"model": }')
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config parse error at line" in err
    assert "column" in err


@pytest.mark.parametrize("text", ["[" * 200_000, '{"model": ' + "9" * 5000 + "}"],
                         ids=["nested", "long_integer"])
def test_unparsable_config_fails_in_one_line(tmp_path, capsys, text):
    # nested too deep for the decoder, or an integer past Python's digit limit
    path = tmp_path / "unparsable.json"
    path.write_text(text)
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config parse error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "c.json", "--out", "o", "--seed", "abc"],
    ["simulate", "--config", "c.json"],
    [],
], ids=["bad_seed", "no_out", "no_command"])
def test_usage_errors_exit_1_in_one_line(capsys, argv):
    # exit 2 is the statistical failure; a bad command line is a usage error
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["-h"])
    assert exit_info.value.code == 0
    assert "simulate" in capsys.readouterr().out


def test_config_root_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config root must be a JSON object" in capsys.readouterr().err


def test_missing_model_section_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, model=None)
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config section 'model' is missing" in capsys.readouterr().err


def test_invalid_chain_value_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, chain={"adc_bits": 0})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config section 'chain'" in capsys.readouterr().err


def test_unknown_run_key_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, run={"duration": 4e-5, "seed": 1, "bogus": 2})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config section 'run'" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, run={"duration": 4e-5, "seed": -1})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config section 'run'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_readable_sample_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "samples.qrng"
    rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    block = qio.read_samples(str(out))
    assert len(block) == 20_000  # 4e-5 s at 500 MS/s
    assert block.adc_bits == 8
    assert block.origin == "simulated"
    stdout = capsys.readouterr().out
    for label in (
        "samples written",
        "measured variance",
        "predicted variance",
        "saturation fraction",
    ):
        assert label in stdout


def test_simulate_measured_tracks_predicted(tmp_path, capsys):
    # the prediction includes the power of an rf tone through the filter
    for run in ({}, {"rf_tones": [[8e7, 5e-3]]}):
        cfg = write_config(tmp_path, run=run)
        out = tmp_path / "samples.qrng"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        measured = float(re.search(r"measured variance\s*:\s*(\S+)", stdout).group(1))
        predicted = float(re.search(r"predicted variance\s*:\s*(\S+)", stdout).group(1))
        assert measured == pytest.approx(predicted, rel=0.10)
        assert qio.read_samples(str(out)).variance_volts() == pytest.approx(
            measured, rel=1e-6
        )


def test_simulate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a.qrng", tmp_path / "b.qrng"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out_cfg = tmp_path / "cfg_seed.qrng"
    out_override = tmp_path / "override.qrng"
    out_same = tmp_path / "same.qrng"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_cfg)]) == 0
    assert (
        cli.main(["simulate", "--config", cfg, "--out", str(out_override), "--seed", "72"])
        == 0
    )
    assert (
        cli.main(["simulate", "--config", cfg, "--out", str(out_same), "--seed", "71"])
        == 0
    )
    assert out_override.read_bytes() != out_cfg.read_bytes()
    assert out_same.read_bytes() == out_cfg.read_bytes()


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def calibrate_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("calibrate")
    cfg = write_config(
        tmp,
        sweep={
            "powers": [1e-5, 3e-5, 1e-4, 3e-4, 1e-3],
            "samples_per_point": 100_000,
            "source_power": 0.1,
        },
        fringe={"n_points": 9, "samples_per_point": 30_000},
    )
    out = tmp / "fit.txt"
    import io as _io
    import contextlib

    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["calibrate", "--config", cfg, "--out", str(out)])
    return rc, out, buf.getvalue()


def test_calibrate_succeeds(calibrate_run):
    rc, _, _ = calibrate_run
    assert rc == 0


def test_calibrate_recovers_noise_coefficients(calibrate_run):
    _, out, _ = calibrate_run
    text = out.read_text()
    values = dict(
        (k.strip(), float(v)) for k, v in (line.split("=") for line in text.splitlines())
    )
    assert values["ac_v2_per_w2"] == pytest.approx(AC_REF, rel=0.08)
    assert values["aq_v2_per_w"] == pytest.approx(AQ_REF, rel=0.05)
    assert 0.0 < values["aq_se_v2_per_w"] < values["aq_v2_per_w"] / 3.0
    assert values["f_v2"] == pytest.approx(F_REF, rel=0.10)
    assert values["r_squared"] > 0.999
    assert values["qcnr_peak"] == pytest.approx(3.40, rel=0.10)
    assert values["qcnr_peak_power_w"] == pytest.approx(2.47e-4, rel=0.10)


def test_calibrate_locates_quadrature(calibrate_run):
    _, _, stdout = calibrate_run
    match = re.search(r"quadrature phase\s*:\s*(\S+)", stdout)
    assert match is not None
    assert float(match.group(1)) == pytest.approx(math.pi / 2, abs=0.05)


def test_calibrate_sweep_csv_roundtrips(calibrate_run):
    _, out, _ = calibrate_run
    with open(str(out) + ".sweep.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert reader.fieldnames == ["power_w", "variance_v2", "n_samples"]
    # repr() round-trips exactly: the configured powers come back unchanged
    assert [float(r["power_w"]) for r in rows] == [1e-5, 3e-5, 1e-4, 3e-4, 1e-3]
    assert all(int(r["n_samples"]) == 100_000 for r in rows)
    assert all(float(r["variance_v2"]) > 0 for r in rows)


def test_calibrate_qcnr_csv_cross_checks_methods(calibrate_run):
    _, out, _ = calibrate_run
    with open(str(out) + ".qcnr.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["power_w", "qcnr_fit", "qcnr_attenuation"]
    assert len(rows) == 6
    fit_col = [float(r[1]) for r in rows[1:]]
    att_col = [float(r[2]) for r in rows[1:]]
    # the attenuation measurement estimates the same ratio the fit predicts
    for fit_q, att_q in zip(fit_col, att_col):
        assert att_q == pytest.approx(fit_q, rel=0.25)
    # QCNR peaks near 2.47e-4 W, i.e. at the fourth of the five sweep powers
    assert max(range(5), key=fit_col.__getitem__) == 3


def test_calibrate_without_fringe_skips_quadrature(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        sweep={
            "powers": [3e-5, 1e-4, 3e-4, 1e-3],
            "samples_per_point": 30_000,
            "source_power": 0.1,
        },
    )
    rc = cli.main(["calibrate", "--config", cfg, "--out", str(tmp_path / "fit.txt")])
    assert rc == 0
    assert "quadrature phase" not in capsys.readouterr().out


def test_calibrate_empty_fringe_scans_with_defaults(tmp_path, capsys, monkeypatch):
    seen = {}
    simulate_variances = runs.simulate_variances

    def fake_variances(run, namespace, variants):
        if namespace != sim.NS_FRINGE:
            return simulate_variances(run, namespace, variants)
        seen["n_points"] = len(variants)
        seen["samples"] = round(run.duration * run.chain.sample_rate_hz)
        # the fringe sin^2(phi) + 0.1 at phi = offset + pi/2
        return [math.cos(chain.quadrature_offset) ** 2 + 0.1 for _, chain in variants]

    monkeypatch.setattr(runs, "simulate_variances", fake_variances)
    cfg = write_config(
        tmp_path,
        sweep={"powers": [3e-5, 1e-4, 3e-4, 1e-3], "samples_per_point": 20_000},
        fringe={},
    )
    rc = cli.main(["calibrate", "--config", cfg, "--out", str(tmp_path / "fit.txt")])
    assert rc == 0
    assert seen == {"n_points": 17, "samples": 200_000}
    assert "quadrature phase" in capsys.readouterr().out


def test_calibrate_fringe_points_are_seeded_sub_runs(tmp_path, monkeypatch):
    # no golden digest covers the fringe scan: pin point i to its own sub-run
    fringe = []
    monkeypatch.setattr(
        calib, "find_quadrature", lambda points: fringe.extend(points) or math.pi / 2
    )
    cfg = runs.load_config(write_config(
        tmp_path,
        sweep={"powers": [3e-5, 1e-4, 3e-4, 1e-3], "samples_per_point": 10_000},
        fringe={"n_points": 8, "samples_per_point": 3_000},
    ))
    runs.calibrate(cfg)
    run = cfg.run
    assert [phi for phi, _ in fringe] == np.linspace(0.0, math.pi, 8).tolist()
    for i, (phi, variance) in enumerate(fringe):
        point = replace(
            run,
            chain=replace(run.chain, quadrature_offset=phi - math.pi / 2),
            duration=3_000 / run.chain.sample_rate_hz,
            seed=sim.derive_seed(run.seed, sim.NS_FRINGE, i),
        )
        assert variance == sim.simulate(point).variance_volts()


def test_calibrate_needs_four_powers(tmp_path, capsys):
    cfg = write_config(
        tmp_path, sweep={"powers": [1e-4, 2e-4, 3e-4], "samples_per_point": 10_000}
    )
    rc = cli.main(["calibrate", "--config", cfg, "--out", str(tmp_path / "fit.txt")])
    assert rc == 1
    assert "need at least 4 powers" in capsys.readouterr().err


def _no_simulation(*args, **kwargs):
    raise AssertionError("a simulation started")


def test_calibrate_rejects_rank_deficient_sweep(tmp_path, capsys, monkeypatch):
    # fewer than 3 distinct powers is caught by the config, before any run
    cfg = write_config(
        tmp_path,
        sweep={"powers": [1e-4, 1e-4, 2e-4, 2e-4], "samples_per_point": 20_000},
    )
    for module in (sim, runs):  # every run, collected or streamed, starts here
        monkeypatch.setattr(module, "code_stream", _no_simulation)
    t0 = time.perf_counter()
    rc = cli.main(["calibrate", "--config", cfg, "--out", str(tmp_path / "fit.txt")])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert "rank deficient" in err
    assert elapsed < 1.0


def test_calibrate_without_interior_optimum_prints_no_peak(tmp_path, capsys, monkeypatch):
    # with no electronic noise the fitted f can clamp to 0, and QCNR then
    # rises with power to the end of the sweep: there is no peak to print
    monkeypatch.setattr(
        calib, "fit_variance_vs_power",
        lambda powers, variances: VarianceFit(
            ac=AC_REF, aq=AQ_REF, f=0.0, r_squared=0.9999),
    )
    cfg = write_config(
        tmp_path,
        sweep={"powers": [3e-5, 1e-4, 3e-4, 1e-3], "samples_per_point": 10_000},
    )
    out = tmp_path / "fit.txt"
    rc = cli.main(["calibrate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert set(artifact_digests(out)) == {"", ".sweep.csv", ".qcnr.csv"}
    assert "qcnr_peak" not in out.read_text()
    assert "QCNR peak" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp, **PIPELINE_SECTIONS)
    out = tmp / "bits.qrng"
    import io as _io
    import contextlib

    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["pipeline", "--config", cfg, "--out", str(out)])
    return rc, out, buf.getvalue()


def test_pipeline_succeeds(pipeline_run):
    rc, _, _ = pipeline_run
    assert rc == 0


def test_pipeline_runs_without_scipy(pipeline_run, tmp_path):
    # with SciPy's import blocked, a fresh process writes the same files
    _, ref, _ = pipeline_run
    out = tmp_path / ref.name
    code = ("import sys; sys.modules['scipy'] = None; from phaseqrng.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    _python("-c", code, "pipeline", "--config", write_config(tmp_path, **PIPELINE_SECTIONS),
            "--out", str(out))
    assert artifact_digests(out) == artifact_digests(ref)


def test_pipeline_delivers_requested_bits(pipeline_run):
    _, out, _ = pipeline_run
    bits = qio.read_bits(str(out))
    # at least the requested amount, at most two extra extractor blocks
    assert 30_000 <= bits.count <= 32_000


def test_pipeline_report_file(pipeline_run):
    _, out, _ = pipeline_run
    report = qio.read_report(str(out) + ".report")
    assert set(report) == {"fit", "qcnr", "entropy", "extractor", "nist", "pass_rate_band"}
    assert report["fit"]["r_squared"] > 0.999
    assert 0.0 < report["fit"]["aq_se"] < report["fit"]["aq"] / 3.0
    assert 5.5 < report["entropy"]["min_entropy_bits"] < 5.9
    assert 0.0 < report["entropy"]["extraction_ratio"] < 0.75
    assert report["extractor"]["n_in"] == 1024
    assert report["extractor"]["n_out"] >= 1
    assert len(report["nist"]) == 10
    lo, hi = report["pass_rate_band"]
    expect_lo, expect_hi = stats.pass_rate_band(20)
    assert lo == pytest.approx(expect_lo, abs=1e-12)
    assert hi == pytest.approx(expect_hi, abs=1e-12)
    assert all(row["pass_rate"] >= lo for row in report["nist"])


def test_pipeline_autocorr_csv(pipeline_run):
    _, out, _ = pipeline_run
    with open(str(out) + ".autocorr.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["lag", "r_raw", "r_extracted"]
    assert len(rows) == 102  # header + lags 0..100
    assert float(rows[1][1]) == 1.0 and float(rows[1][2]) == 1.0
    tail = [abs(float(r[2])) for r in rows[2:]]
    assert max(tail) < 0.05


def test_pipeline_nist_csv(pipeline_run):
    _, out, _ = pipeline_run
    with open(str(out) + ".nist.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["test", "pass_rate", "uniformity_pvalue"]
    names = [r[0] for r in rows[1:]]
    assert names == [
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
    for _, rate, unif in rows[1:]:
        assert 0.0 <= float(rate) <= 1.0
        assert 0.0 <= float(unif) <= 1.0


def test_pipeline_console_summary(pipeline_run):
    _, _, stdout = pipeline_run
    for label in (
        "calibration",
        "min-entropy",
        "extraction ratio",
        "generation rate",
        "extracted bits",
        "pass-rate band",
    ):
        assert label in stdout
    assert stdout.count("[ok]") == 10


def test_pipeline_seed_override_changes_bits(pipeline_run, tmp_path):
    _, out, _ = pipeline_run
    cfg = write_config(tmp_path, **PIPELINE_SECTIONS)
    out2 = tmp_path / "bits2.qrng"
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(out2), "--seed", "72"])
    assert rc == 0
    a = qio.read_bits(str(out))
    b = qio.read_bits(str(out2))
    assert a.bits != b.bits


@pytest.fixture
def simulate_calls(monkeypatch):
    """Every run simulated during the test, in order, streamed or collected."""
    calls = []
    real_code_stream = sim.code_stream

    def counting_code_stream(run, *args, **kwargs):
        calls.append(run)
        return real_code_stream(run, *args, **kwargs)

    # the sweep points' ``simulate`` streams through sim's, the main run
    # through runs' own name for it
    monkeypatch.setattr(sim, "code_stream", counting_code_stream)
    monkeypatch.setattr(runs, "code_stream", counting_code_stream)
    return calls


def test_pipeline_runs_no_attenuated_sweep(tmp_path, simulate_calls):
    # only calibrate reads the attenuation cross-check
    cfg = write_config(tmp_path, **PIPELINE_SECTIONS)
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "bits.qrng")])
    assert rc == 0
    # one run per direct sweep point, then the main run
    assert len(simulate_calls) == len(PIPELINE_SECTIONS["sweep"]["powers"]) + 1


def test_pipeline_budgets_once_before_the_main_run(tmp_path, monkeypatch):
    # the credit comes from the fit alone, so the main run is never reduced
    # to a variance and is sized to exactly the blocks the output needs
    measured = []
    real_variance = SampleBlock.variance_volts
    monkeypatch.setattr(SampleBlock, "variance_volts",
                        lambda block: measured.append(len(block)) or real_variance(block))
    cfg = runs.load_config(write_config(tmp_path, **PIPELINE_SECTIONS))
    result = runs.pipeline(cfg)
    assert len(measured) == len(cfg.sweep.powers)
    fit, power, ent = result.fit, cfg.run.model.power_p, cfg.entropy
    assert result.entropy == entropy.entropy_report(
        predicted_variance(fit, power), calib.qcnr_from_fit(fit, power),
        adc_bits=cfg.run.chain.adc_bits, range_sigmas=cfg.run.chain.adc_range_sigmas,
        security_eps=2.0**ent.security_eps_log2, n_in=ent.n_in,
    )
    n_out, head = result.extractor.n_out, stats.MIN_VALUES_PER_LAG * 100
    blocks = max(math.ceil(cfg.pipeline.n_output_bits / n_out), math.ceil(head / n_out))
    assert blocks * ent.n_in >= head * cfg.run.chain.adc_bits  # the head bound does not bind
    assert result.bits.count == blocks * n_out


def test_pipeline_frees_the_main_run_before_the_battery(tmp_path, monkeypatch):
    # the main run's codes pass through one reused chunk buffer: once the
    # extractor and the raw autocorrelation head have read them, the battery
    # runs without it
    buffers, alive = [], []
    real_code_stream, real_nist_subset = runs.code_stream, stats.nist_subset

    def code_stream(run):
        stream = real_code_stream(run)

        def chunks():
            for chunk in stream.chunks:
                buffers.append(weakref.ref(chunk.base))
                yield chunk

        return replace(stream, chunks=chunks())

    def nist_subset(*args):
        alive.append(any(ref() is not None for ref in buffers))
        return real_nist_subset(*args)

    monkeypatch.setattr(runs, "code_stream", code_stream)  # the main run only
    monkeypatch.setattr(stats, "nist_subset", nist_subset)
    runs.pipeline(runs.load_config(write_config(tmp_path, **PIPELINE_SECTIONS)))
    assert len(buffers) > 1
    assert alive == [False]


def test_pipeline_never_holds_an_int16_array_of_the_main_run(tmp_path, monkeypatch):
    # 1.78e6 codes make 10^7 bits: an int16 array of them would be 3.56 MB.
    # The extractor's packed output is made before it reads a code, so from
    # the main run's start to the extractor's return the traced peak, less
    # that output, would hold such an array whole had one ever been made
    sections = copy.deepcopy(PIPELINE_SECTIONS)
    sections["entropy"]["n_in"] = 4096
    sections["pipeline"] = {"n_output_bits": 10_000_000, "n_sequences": 1,
                            "seq_len_bits": 1500}
    cfg = runs.load_config(write_config(tmp_path, **sections))
    seen = {}
    real_code_stream, real_extract_stream = runs.code_stream, extract.extract_stream

    def code_stream(run):
        seen["start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return real_code_stream(run)

    def extract_stream(codes, *args):
        bits = real_extract_stream(codes, *args)
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        seen["codes"], seen["output"] = len(codes), len(bits.bits)
        return bits

    monkeypatch.setattr(runs, "code_stream", code_stream)
    monkeypatch.setattr(extract, "extract_stream", extract_stream)
    tracemalloc.start()
    try:
        runs.pipeline(cfg)
    finally:
        tracemalloc.stop()
    assert seen["codes"] > 1_700_000
    held = seen["peak"] - seen["start"] - seen["output"]
    assert held < 2 * seen["codes"], seen


def test_pipeline_rejects_override_above_budget_before_main_run(
    tmp_path, capsys, simulate_calls
):
    # H_inf does not depend on the variance, so the budget rejects the
    # override right after the sweep
    sections = copy.deepcopy(PIPELINE_SECTIONS)
    sections["entropy"]["min_entropy_override"] = 7.9
    cfg = write_config(tmp_path, **sections)
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "bits.qrng")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "override exceeds" in err
    assert len(simulate_calls) == len(PIPELINE_SECTIONS["sweep"]["powers"])


def test_pipeline_rejects_a_budget_under_one_bit_per_block_after_the_sweep(
    tmp_path, capsys, simulate_calls
):
    # 0.785/8 - 100/1024 leaves 0.48 output bit per 1024-bit block; a main run
    # sized for one bit a block would be 3.84e6 samples the extractor rejects
    sections = copy.deepcopy(PIPELINE_SECTIONS)
    sections["entropy"]["min_entropy_override"] = 0.785
    cfg = write_config(tmp_path, **sections)
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "bits.qrng")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: block too small")
    assert len(simulate_calls) == len(PIPELINE_SECTIONS["sweep"]["powers"])


@pytest.mark.parametrize("seed", [3, 4, 10])
def test_pipeline_rejects_a_sweep_with_no_quantum_term(tmp_path, capsys, simulate_calls,
                                                       seed):
    # no optical signal: the fitted aq is the sweep's noise, and at these
    # seeds it came out positive and was credited as quantum entropy
    sections = copy.deepcopy(PIPELINE_SECTIONS)
    sections["chain"] = {"conversion_gain_a": 0.0}
    sections["sweep"] = {"samples_per_point": 100_000, "source_power": 0.1}
    cfg = write_config(tmp_path, **sections)
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "bits.qrng"),
                   "--seed", str(seed)])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "does not resolve a quantum term" in err
    assert len(simulate_calls) == len(runs.load_config(cfg).sweep.powers)


def test_pipeline_rejects_short_output_for_suite(tmp_path, capsys):
    sections = copy.deepcopy(PIPELINE_SECTIONS)
    sections["pipeline"]["n_output_bits"] = 5_000  # suite needs 20 * 1500
    cfg = write_config(tmp_path, **sections)
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "bits.qrng")])
    assert rc == 1
    assert "insufficient bits" in capsys.readouterr().err


def test_pipeline_sizes_main_run_for_autocorrelation_heads(
    tmp_path, capsys, monkeypatch, simulate_calls
):
    # 128 output bits from 64-bit blocks need only a 32-sample main run, but
    # each 100-lag autocorrelation needs 1000 values of its series
    sections = copy.deepcopy(PIPELINE_SECTIONS)
    sections["sweep"]["samples_per_point"] = 20_000
    sections["entropy"] = {"n_in": 64, "security_eps_log2": -1}
    sections["pipeline"] = {"n_output_bits": 128, "n_sequences": 1, "seq_len_bits": 128}
    cfg = write_config(tmp_path, **sections)
    out = tmp_path / "bits.qrng"
    read, real_extract_stream = [], extract.extract_stream
    monkeypatch.setattr(extract, "extract_stream",
                        lambda codes, *args: read.append(len(codes))
                        or real_extract_stream(codes, *args))
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(out)])
    assert rc in (0, 2), capsys.readouterr().err  # 2: the one sequence failed
    main_run = simulate_calls[-1]
    assert round(main_run.duration * main_run.chain.sample_rate_hz) == 1000
    assert read == [1000]  # the extractor reads the main run's stream whole
    assert qio.read_bits(str(out)).count >= 1000


def test_pipeline_requires_output_bit_count(tmp_path, capsys):
    sections = copy.deepcopy(PIPELINE_SECTIONS)
    del sections["pipeline"]["n_output_bits"]
    cfg = write_config(tmp_path, **sections)
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "bits.qrng")])
    assert rc == 1
    assert "n_output_bits is required" in capsys.readouterr().err


def test_pipeline_statistical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force an unattainable pass band so the battery verdict must fail;
    # this exercises the exit-code-2 path without fabricating test results
    monkeypatch.setattr(stats, "pass_rate_band", lambda n: (1.000001, 1.0))
    cfg = write_config(tmp_path, **PIPELINE_SECTIONS)
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "bits.qrng")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "statistical failure" in err
    assert "pass rate below band" in err


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

STABILITY_HEADER = [
    "time_s",
    "variance_norecal_v2",
    "min_entropy_norecal_bits",
    "phi2_norecal_rad",
    "variance_recal_v2",
    "min_entropy_recal_bits",
    "phi2_recal_rad",
]


@pytest.fixture(scope="module")
def stability_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stability")
    cfg = write_config(
        tmp,
        run={"duration": 2e-5, "seed": 91},
        stability={
            "phase_drift_rate": math.pi / 600,
            "recalibration_period": 40.0,
            "total_time": 200.0,
            "report_interval": 20.0,
        },
    )
    out = tmp / "stability.csv"
    import io as _io
    import contextlib

    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["stability", "--config", cfg, "--out", str(out)])
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    return rc, rows, buf.getvalue(), out


def test_stability_series_shape(stability_run):
    rc, rows, stdout, _ = stability_run
    assert rc == 0
    assert rows[0] == STABILITY_HEADER
    assert len(rows) == 12  # header + t = 0, 20, ..., 200
    times = [float(r[0]) for r in rows[1:]]
    assert times == [20.0 * k for k in range(11)]
    assert "report points" in stdout


def test_stability_recalibration_holds_entropy(stability_run):
    _, rows, _, _ = stability_run
    h_recal = [float(r[5]) for r in rows[1:]]
    h_free = [float(r[2]) for r in rows[1:]]
    assert max(h_recal) - min(h_recal) < 0.05
    assert min(h_free) < min(h_recal) - 0.1


def test_stability_free_run_variance_decays(stability_run):
    _, rows, _, _ = stability_run
    v_free = [float(r[1]) for r in rows[1:]]
    v_recal = [float(r[4]) for r in rows[1:]]
    assert v_free[-1] < 0.6 * v_free[0]
    assert v_recal[-1] > 0.9 * v_recal[0]


def test_stability_without_classical_or_electronic_noise_fails_in_one_line(
    tmp_path, capsys, simulate_calls
):
    # the QCNR aq P / (ac P^2 + f) of each point has a zero denominator, which
    # the config alone decides: it fails before any simulation
    cfg = write_config(
        tmp_path, model={"classical_diffusion_c": 0.0}, chain={"electronic_noise_f": 0.0},
        run={"duration": 2e-6}, stability={"total_time": 200.0, "report_interval": 20.0},
    )
    rc = cli.main(["stability", "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: zero denominator")
    assert simulate_calls == []


def test_stability_rejects_bad_power_drift(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        run={"duration": 2e-5, "seed": 91},
        stability={"power_drift": {"type": "linear"}},
    )
    rc = cli.main(["stability", "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "power_drift" in capsys.readouterr().err


def test_stability_rejects_nonpositive_interval(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        run={"duration": 2e-5, "seed": 91},
        stability={"report_interval": 0.0, "total_time": 100.0},
    )
    rc = cli.main(["stability", "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "report_interval" in capsys.readouterr().err


def test_stability_report_count_that_overflows_fails_in_one_line(
    tmp_path, capsys, simulate_calls
):
    # total_time / report_interval is inf: no report time can be counted
    cfg = write_config(tmp_path, stability={"total_time": 1e300, "report_interval": 1e-10})
    rc = cli.main(["stability", "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "total_time / report_interval" in err
    assert simulate_calls == []


@pytest.mark.parametrize("command, sections, key", [
    ("simulate", {"run": {"duration": 1e20}}, "duration"),
    ("calibrate", {"sweep": {**PIPELINE_SECTIONS["sweep"], "samples_per_point": 10**30}},
     "'sweep': samples_per_point"),
    ("calibrate", {"sweep": PIPELINE_SECTIONS["sweep"], "fringe": {"samples_per_point": 10**30}},
     "'fringe': samples_per_point"),
    ("calibrate", {"sweep": {**PIPELINE_SECTIONS["sweep"], "samples_per_point": 10**400}},
     "'sweep': samples_per_point"),
    ("pipeline", {**PIPELINE_SECTIONS,
                  "pipeline": {**PIPELINE_SECTIONS["pipeline"], "n_output_bits": 10**20}},
     "'pipeline': n_output_bits"),
    ("pipeline", {**PIPELINE_SECTIONS,
                  "pipeline": {**PIPELINE_SECTIONS["pipeline"], "n_output_bits": 10**400}},
     "'pipeline': n_output_bits"),
    ("pipeline", {**PIPELINE_SECTIONS,
                  "entropy": {**PIPELINE_SECTIONS["entropy"], "n_in": 10**30}},
     "entropy.n_in"),
    ("pipeline", {**PIPELINE_SECTIONS,
                  "entropy": {**PIPELINE_SECTIONS["entropy"], "n_in": 10**400}},
     "entropy.n_in"),
], ids=["duration", "samples_per_point", "fringe_samples_per_point",
        "samples_per_point_beyond_float", "n_output_bits", "n_output_bits_beyond_float",
        "n_in", "n_in_beyond_float"])
def test_sample_count_too_large_to_index_fails_in_one_line(
    tmp_path, capsys, simulate_calls, command, sections, key
):
    # 2**63 samples or more cannot size an array; the line names the key set
    cfg = write_config(tmp_path, **sections)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "sample count below 2**63" in err and key in err, err
    assert command == "simulate" or "duration" not in err
    assert simulate_calls == []


def test_main_run_the_budget_cannot_size_fails_in_one_line(tmp_path, capsys, simulate_calls):
    # ceil(7e19 / 8) samples is below 2**63, but a budget may keep one
    # output bit per 1024-bit block, so the main run could need 7e19 * 128
    sections = {**PIPELINE_SECTIONS,
                "pipeline": {**PIPELINE_SECTIONS["pipeline"], "n_output_bits": 7 * 10**19}}
    cfg = write_config(tmp_path, **sections)
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "bits.qrng")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "'pipeline': n_output_bits must give a sample count below 2**63" in err, err
    assert simulate_calls == []  # checked at load, before the sweep
    assert not (tmp_path / "bits.qrng").exists()


def test_inexact_toeplitz_hash_fails_in_one_line(tmp_path, capsys, monkeypatch):
    # four 13-bit digits a row at n_in 4096 put the counts near 2^52, where
    # the FFT's error passes the 1/4 margin; no bits may be written
    monkeypatch.setattr(extract, "_digits_per_row", lambda n_in, n: 4)
    cfg = write_config(tmp_path, **{
        **PIPELINE_SECTIONS,
        "entropy": {**PIPELINE_SECTIONS["entropy"], "n_in": 4096},
        "pipeline": {**PIPELINE_SECTIONS["pipeline"], "n_output_bits": 300_000},
    })
    out = tmp_path / "bits.qrng"
    rc = cli.main(["pipeline", "--config", cfg, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Toeplitz hash inexact" in err and "1/4 margin" in err, err
    assert not out.exists()


def test_sample_count_no_memory_can_hold_fails_in_one_line(tmp_path, capsys, monkeypatch):
    # 5e16 int16 codes are 88.8 PiB, beyond any 64-bit address space: the
    # codes array cannot be allocated, and no chunk is made
    streams = []
    real_code_stream = sim.code_stream

    def recording_code_stream(run, *args, **kwargs):
        streams.append(real_code_stream(run, *args, **kwargs))
        return streams[-1]

    monkeypatch.setattr(sim, "code_stream", recording_code_stream)
    cfg = write_config(tmp_path, run={"duration": 1e8, "seed": 71})
    out = tmp_path / "samples.qrng"
    rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "88.8 PiB" in err
    assert [s.n_samples for s in streams] == [5 * 10**16]
    assert inspect.getgeneratorstate(streams[0].chunks) == inspect.GEN_CREATED
    assert not out.exists()


COMMANDS =["simulate", "calibrate", "pipeline", "stability"]


@pytest.mark.parametrize("command, case", [
    *(pytest.param(c, "missing", id=c) for c in COMMANDS),
    *(pytest.param(c, "directory", id=f"{c}-out-is-a-directory") for c in COMMANDS),
    *(pytest.param(c, "read-only", id=f"{c}-out-dir-not-writable") for c in COMMANDS),
    *(pytest.param(c, "slash", id=f"{c}-out-ends-in-a-slash") for c in COMMANDS),
    *(pytest.param(c, "dot", id=f"{c}-out-ends-in-a-dot") for c in COMMANDS),
    pytest.param("calibrate", ".sweep.csv", id="calibrate-sibling-is-a-directory"),
    pytest.param("pipeline", ".report", id="pipeline-sibling-is-a-directory"),
    *(pytest.param(c, "locked", id=f"{c}-out-not-writable") for c in COMMANDS),
    pytest.param("calibrate", "locked.qcnr.csv", id="calibrate-sibling-not-writable"),
    pytest.param("pipeline", "locked.report", id="pipeline-sibling-not-writable"),
])
def test_out_in_missing_directory_fails_before_any_run(
    tmp_path, capsys, monkeypatch, command, case
):
    # the suffixes checked up front are those of the files the command writes
    _, suffixes = cli._COMMANDS[command]
    assert set(suffixes) == set(GOLDEN[command]) - {""}
    for module in (sim, runs):  # every run, collected or streamed, starts here
        monkeypatch.setattr(module, "code_stream", _no_simulation)
    if case == "read-only":  # root ignores mode bits, so chmod cannot set this up
        monkeypatch.setattr(os, "access", lambda path, mode: mode != os.W_OK)
    sections = {
        "simulate": {},
        "calibrate": {"sweep": PIPELINE_SECTIONS["sweep"]},
        "pipeline": PIPELINE_SECTIONS,
        "stability": {"stability": {"total_time": 200.0, "report_interval": 20.0}},
    }[command]
    cfg = write_config(tmp_path, **sections)
    # Path("d/") and Path("d/.") are Path("d"), whose parent exists
    out = {"missing": tmp_path / "missing" / "out", "directory": tmp_path,
           "read-only": tmp_path / "out", "slash": f"{tmp_path}/missing/",
           "dot": f"{tmp_path}/missing/."}.get(case, tmp_path / "fit.txt")
    if case.startswith("."):  # a file written next to --out is a directory
        Path(str(out) + case).mkdir()
    if case.startswith("locked"):  # an existing output file refuses writes
        locked = str(out) + case.removeprefix("locked")
        Path(locked).write_text("")
        access = os.access
        monkeypatch.setattr(os, "access",
                            lambda path, mode: str(path) != locked and access(path, mode))
    rc = cli.main([command, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    start, reason = {
        "missing": ("error: output directory", "does not exist"),
        "read-only": ("error: output directory", "is not writable"),
    }.get(case, ("error: output path", "is a directory"))
    if case.startswith("locked"):  # named by the file, not by its directory
        start, reason = f"error: output path {locked} ", "is not writable"
    assert err.startswith(start) and reason in err


# ---------------------------------------------------------------------------
# golden digests: refactors must leave every output byte unchanged
# ---------------------------------------------------------------------------

GOLDEN = {
    "calibrate": {
        "": "b292f7a6deb1570d282cdbe610f55383a98403e8cc0276beff711918759cb563",
        ".qcnr.csv": "20780b0f62e18e25ce6b2c88fc11308208513bfea9a2c106d7a9e536852d5dc1",
        ".sweep.csv": "92f5aee5eb36bef68020c6134a8cf3600a3c13aaafca5e229ffbe8de1aa0968d",
    },
    "pipeline": {
        "": "9f65ec0b299c9bcd724354a25c4be7d31d943a08dcaf3d5f1b83f3ecc5ba3903",
        ".autocorr.csv": "e9944b1b515dc2f4657233956c12bbe5fabdf55b9aff5700780c073f2edf632d",
        ".nist.csv": "bfa4d0f4b175c17e2210ad74978bafabebf96392e574907c3358d367f2f46ecf",
        ".report": "ef697337a0f95307f9ba4e7257e10285b8e2df15e77242a3e633c9fcb8d8c1a4",
    },
    "stability": {
        "": "2d5ca8ef081119265df8dea274e91c620516d0a40cbb825c9fb8f3080aca1cfa",
    },
    "simulate": {
        "": "c47f3d5068e62a41c2696132b49e8c2a46ac2254ff34edffa7315553164e2e50",
    },
}


def test_calibrate_artifacts_match_golden_digests(calibrate_run):
    _, out, _ = calibrate_run
    assert artifact_digests(out) == GOLDEN["calibrate"]


def test_pipeline_artifacts_match_golden_digests(pipeline_run):
    _, out, _ = pipeline_run
    assert artifact_digests(out) == GOLDEN["pipeline"]


def test_stability_series_matches_golden_digest(stability_run):
    *_, out = stability_run
    assert artifact_digests(out) == GOLDEN["stability"]


def test_simulate_reference_config_matches_golden_digest(tmp_path):
    out = tmp_path / "samples.qrng"
    cfg = str(CONFIGS / "simulate.json")
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert artifact_digests(out) == GOLDEN["simulate"]
