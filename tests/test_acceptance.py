"""Acceptance gate: nine end-to-end criteria at stated tolerances.

Each test prints exactly one ``ACCEPTANCE <n> <name>: PASS/FAIL`` line with
the realized numbers (visible with ``pytest -s`` or on failure), then asserts.
The reference runs are the checked-in ``configs/pipeline.json`` and
``configs/stability.json``, read as they are: ``calibrate`` on the pipeline
config (at seed 3), the full 10^7-bit ``pipeline`` and the hour-long
``stability`` run each execute once in a module-scoped fixture and are
shared between criteria.

Everything here is seeded; reruns are bit-identical.
"""

import contextlib
import csv
import io as _io
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from conftest import (
    AC_REF, AQ_REF, CONFIGS, F_REF, artifact_digests, hash_bits, toeplitz_matrix,
)

from phaseqrng import calib, cli, entropy, extract, runs, stats
from phaseqrng import io as qio
from phaseqrng.model import BitStream, SampleBlock
from phaseqrng.sim import simulate


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} — {detail}", flush=True)


def run_cli(*argv: str) -> tuple[int, float]:
    """Exit code and wall time of one in-process CLI command, its output muted."""
    t0 = time.monotonic()
    with contextlib.redirect_stdout(_io.StringIO()):
        rc = cli.main(list(argv))
    return rc, time.monotonic() - t0


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table1_sweep():
    """``calibrate`` on configs/pipeline.json at seed 3: the ten-point direct
    and attenuated sweeps, 10^6 samples a point."""
    cfg = runs.load_config(CONFIGS / "pipeline.json", seed=3)
    t0 = time.monotonic()
    cal = runs.calibrate(cfg)
    elapsed = time.monotonic() - t0
    return cfg.sweep.powers, cal.variances, cal.attenuated_variances, cal.fit, elapsed


@pytest.fixture(scope="module")
def pipeline_artifacts(tmp_path_factory):
    """``pipeline`` on configs/pipeline.json: 100 sequences x 10^5 bits."""
    out = tmp_path_factory.mktemp("acceptance_pipeline") / "bits.qrng"
    rc, elapsed = run_cli(
        "pipeline", "--config", str(CONFIGS / "pipeline.json"), "--out", str(out)
    )
    report = qio.read_report(str(out) + ".report")
    return {"rc": rc, "out": out, "report": report, "elapsed": elapsed}


@pytest.fixture(scope="module")
def stability_artifacts(tmp_path_factory):
    """``stability`` on configs/stability.json: the hour, free and recalibrated."""
    out = tmp_path_factory.mktemp("acceptance_stability") / "stability.csv"
    rc, _ = run_cli(
        "stability", "--config", str(CONFIGS / "stability.json"), "--out", str(out)
    )
    return {"rc": rc, "out": out}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_calibration_recovery(table1_sweep):
    *_, fit, elapsed = table1_sweep
    errs = {
        "ac": abs(fit.ac - AC_REF) / AC_REF,
        "aq": abs(fit.aq - AQ_REF) / AQ_REF,
        "f": abs(fit.f - F_REF) / F_REF,
    }
    ok = (
        all(e < 0.02 for e in errs.values())
        and fit.r_squared >= 0.99
        and elapsed < 120.0
    )
    report_line(
        1,
        "calibration-recovery",
        ok,
        f"ac err {errs['ac']:.2%}, aq err {errs['aq']:.2%}, f err {errs['f']:.2%}, "
        f"R^2={fit.r_squared:.6f}, sweep {elapsed:.1f} s",
    )
    assert errs["ac"] < 0.02
    assert errs["aq"] < 0.02
    assert errs["f"] < 0.02
    assert fit.r_squared >= 0.99
    assert elapsed < 120.0


def test_criterion_2_qcnr_consistency(table1_sweep):
    powers, variances, att_variances, fit, _ = table1_sweep
    rel_gaps = []
    for power, variance, var_att in zip(powers, variances, att_variances):
        q_fit = calib.qcnr_from_fit(fit, power)
        if q_fit <= 1.0:
            continue
        q_att = calib.qcnr_attenuation(variance, var_att)
        rel_gaps.append(abs(q_att - q_fit) / q_fit)
    p_star, q_max = calib.qcnr_optimal_power(fit)
    ok = (
        rel_gaps
        and max(rel_gaps) < 0.10
        and abs(q_max - 3.40) <= 0.05
        and abs(p_star - 2.47e-4) / 2.47e-4 <= 0.02
    )
    report_line(
        2,
        "qcnr-consistency",
        bool(ok),
        f"max fit/attenuation gap {max(rel_gaps):.2%} over {len(rel_gaps)} powers "
        f"with QCNR>1, peak {q_max:.4f} at {p_star:.4e} W",
    )
    assert rel_gaps, "no sweep power has QCNR > 1"
    assert max(rel_gaps) < 0.10
    assert abs(q_max - 3.40) <= 0.05
    assert abs(p_star - 2.47e-4) / 2.47e-4 <= 0.02


def test_criterion_3_min_entropy():
    t0 = time.monotonic()
    sigma_sq_q = entropy.quantum_variance(1.0, 3.38)
    h = entropy.min_entropy_gaussian(math.sqrt(sigma_sq_q), (-5.0, 5.0), 8)

    probs = entropy.gaussian_bin_probabilities(math.sqrt(sigma_sq_q), (-5.0, 5.0), 8)
    edges = np.linspace(-5.0, 5.0, 257)
    sigma = math.sqrt(sigma_sq_q)
    oracle = np.empty(256)
    for k in range(256):
        grid = np.linspace(edges[k], edges[k + 1], 2001)
        oracle[k] = np.trapezoid(norm.pdf(grid, scale=sigma), grid)
    oracle[0] += norm.cdf(edges[0] / sigma)
    oracle[-1] += norm.sf(edges[-1] / sigma)
    worst = float(np.max(np.abs(probs - oracle)))
    elapsed = time.monotonic() - t0

    ok = 5.5 <= h <= 5.9 and worst <= 1e-9 and elapsed < 1.0
    report_line(
        3,
        "min-entropy",
        ok,
        f"H_inf={h:.6f} bits in [5.5, 5.9], oracle gap {worst:.2e}, {elapsed:.2f} s",
    )
    assert 5.5 <= h <= 5.9
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_4_generation_rate():
    rate = entropy.generation_rate(5.6, 500e6)
    ok = rate == 2.8e9
    report_line(4, "generation-rate", ok, f"generation_rate(5.6, 500e6) = {rate!r}")
    assert rate == 2.8e9


def test_criterion_5_oversampling_autocorrelation(pipeline_artifacts):
    t0 = time.monotonic()
    run = runs.load_config(CONFIGS / "pipeline.json").run
    at_band = simulate(replace(run, duration=4e-4, seed=501))
    # sampled at 10x the TIA cutoff
    oversampled = simulate(replace(
        run, chain=replace(run.chain, sample_rate_hz=5e9), duration=4e-5, seed=502,
    ))
    r_band = stats.autocorrelation(at_band.volts(), 1)[1]
    r_over = stats.autocorrelation(oversampled.volts(), 1)[1]

    # post-extraction lags 1..100 on the first 10^6 pipeline output bits
    bits = qio.read_bits(str(pipeline_artifacts["out"]))
    n_checked = min(bits.count, 1_000_000)
    bit_arr = bits.as_bit_array()[:n_checked].astype(np.float64)
    r_ext = stats.autocorrelation(bit_arr, 100)
    bound = 4.0 / math.sqrt(n_checked)
    worst_ext = float(np.max(np.abs(r_ext[1:])))
    elapsed = time.monotonic() - t0
    total = elapsed + pipeline_artifacts["elapsed"]

    ok = (
        abs(r_over) > 5.0 * abs(r_band)
        and worst_ext <= bound
        and total < 300.0
    )
    report_line(
        5,
        "oversampling-autocorrelation",
        ok,
        f"lag-1 r {r_over:+.4f} oversampled vs {r_band:+.4f} at-band "
        f"(ratio {abs(r_over) / abs(r_band):.0f}x), extracted max|r(1..100)| "
        f"{worst_ext:.2e} <= {bound:.2e}, {total:.1f} s",
    )
    assert abs(r_over) > 5.0 * abs(r_band)
    assert worst_ext <= bound
    assert total < 300.0


def test_criterion_6_statistical_suite(pipeline_artifacts):
    rc = pipeline_artifacts["rc"]
    report = pipeline_artifacts["report"]
    lo, hi = report["pass_rate_band"]
    rows = report["nist"]
    worst_rate = min(r["pass_rate"] for r in rows)
    worst_unif = min(r["uniformity_pvalue"] for r in rows)
    bits = qio.read_bits(str(pipeline_artifacts["out"]))
    ok = (
        rc == 0
        and len(rows) == 10
        and bits.count >= 10_000_000
        and all(lo <= r["pass_rate"] <= hi for r in rows)
        and worst_unif >= 1e-4
    )
    report_line(
        6,
        "statistical-suite",
        ok,
        f"{bits.count} bits, 100 seq x 10^5: worst pass rate {worst_rate:.4f} in "
        f"[{lo:.4f}, {hi:.4f}], worst uniformity p {worst_unif:.4f} >= 1e-4",
    )
    assert rc == 0
    assert len(rows) == 10
    assert bits.count >= 10_000_000
    for r in rows:
        assert lo <= r["pass_rate"] <= hi, r["test"]
        assert r["uniformity_pvalue"] >= 1e-4, r["test"]


def test_criterion_7_stability(stability_artifacts):
    assert stability_artifacts["rc"] == 0
    out = stability_artifacts["out"]

    with open(out, newline="") as f:
        rows = list(csv.reader(f))[1:]
    h_recal = [float(r[5]) for r in rows]
    v_free = [float(r[1]) for r in rows]
    h_range = max(h_recal) - min(h_recal)

    # smooth the free-running variance into six 20-point block means
    blocks = [sum(v_free[20 * k : 20 * (k + 1)]) / 20.0 for k in range(6)]
    monotone = all(a > b for a, b in zip(blocks, blocks[1:]))

    ok = h_range < 1.0 and monotone
    report_line(
        7,
        "stability",
        ok,
        f"recalibrated min-entropy range {h_range:.4f} bits over the hour, "
        f"free-run smoothed variance {blocks[0]:.3e} -> {blocks[-1]:.3e} "
        f"({'monotone' if monotone else 'NOT monotone'})",
    )
    assert h_range < 1.0
    assert monotone


def test_criterion_8_extractor_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260817)

    # production hash (extract_stream) vs explicit matrix-vector product over GF(2)
    mismatches = 0
    for _ in range(1000):
        n_in = int(rng.integers(2, 65))
        n_out = int(rng.integers(1, n_in + 1))
        seed = extract.ToeplitzSeed.generate(n_in, n_out, int(rng.integers(2**32)))
        block = rng.integers(0, 2, size=n_in, dtype=np.uint8)
        expected = (toeplitz_matrix(seed) @ block) % 2
        if not np.array_equal(hash_bits(seed, block), expected):
            mismatches += 1

    # GF(2) linearity: T(x xor y) == T(x) xor T(y), 2500 blocks per stream
    violations = 0
    for n_in, n_out in ((16, 8), (64, 32), (64, 64), (48, 1)):
        seed = extract.ToeplitzSeed.generate(n_in, n_out, int(rng.integers(2**32)))
        x = rng.integers(0, 2, size=2500 * n_in, dtype=np.uint8)
        y = rng.integers(0, 2, size=2500 * n_in, dtype=np.uint8)
        lhs = hash_bits(seed, x ^ y).reshape(2500, n_out)
        rhs = (hash_bits(seed, x) ^ hash_bits(seed, y)).reshape(2500, n_out)
        violations += int((lhs != rhs).any(axis=1).sum())
    elapsed = time.monotonic() - t0

    ok = mismatches == 0 and violations == 0 and elapsed < 30.0
    report_line(
        8,
        "extractor-correctness",
        ok,
        f"1000 oracle cases: {mismatches} mismatches; 10000 linearity pairs: "
        f"{violations} violations; {elapsed:.1f} s",
    )
    assert mismatches == 0
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_9_format_roundtrips(tmp_path):
    rng = np.random.default_rng(990)

    samples = rng.integers(-2048, 2048, size=1_000_000, dtype=np.int16)
    block = SampleBlock(
        samples=samples,
        adc_bits=12,
        sample_rate_hz=500e6,
        adc_scale=3.2e-4,
        origin="imported",
        rng_seed=990,
    )
    path_a = tmp_path / "samples_a.qrng"
    path_b = tmp_path / "samples_b.qrng"
    qio.write_samples(block, str(path_a))
    back = qio.read_samples(str(path_a))
    qio.write_samples(back, str(path_b))
    samples_ok = (
        np.array_equal(back.samples, block.samples)
        and back.adc_scale == block.adc_scale
        and path_a.read_bytes() == path_b.read_bytes()
    )

    payload = rng.integers(0, 256, size=125_000, dtype=np.uint8).tobytes()
    stream = BitStream(bits=payload, count=1_000_000)
    path_c = tmp_path / "bits_a.qrng"
    path_d = tmp_path / "bits_b.qrng"
    qio.write_bits(stream, str(path_c))
    back_bits = qio.read_bits(str(path_c))
    qio.write_bits(back_bits, str(path_d))
    bits_ok = (
        back_bits.bits == stream.bits
        and back_bits.count == stream.count
        and path_c.read_bytes() == path_d.read_bytes()
    )

    ok = samples_ok and bits_ok
    report_line(
        9,
        "format-roundtrips",
        ok,
        "10^6 samples and 10^6 bits round-trip byte-exact "
        f"(samples {'ok' if samples_ok else 'MISMATCH'}, "
        f"bits {'ok' if bits_ok else 'MISMATCH'})",
    )
    assert samples_ok
    assert bits_ok


# sha256 of the artifacts of the checked-in configs/pipeline.json and
# configs/stability.json, run by the fixtures above at their own seeds; a
# refactor must keep them
GOLDEN = {
    "pipeline": {
        "": "8560a35012840f32e538febebabbd27e9ede8288780410f8e4e713fc9d6d493d",
        ".autocorr.csv": "1bcd1053ea795a7c44460e8b6561f81306e2c447a7491ec2ed3dbad5e7ac67ec",
        ".nist.csv": "512bde06cc762e2e81a4eaadbde580e9b7069f0301fdffc41726c49d89197de4",
        ".report": "bd4664932dec4ecd08e83f4dc48bebb4f2a30bd2b8fb77b80997ecf98a3d61ca",
    },
    "stability": {
        "": "da1ed6c75ebbc6a6049afc1435abacc70bdf14f988fa05771f78df193a3f7402",
    },
}


def test_reference_artifacts_match_golden_digests(pipeline_artifacts, stability_artifacts):
    assert artifact_digests(pipeline_artifacts["out"]) == GOLDEN["pipeline"]
    assert artifact_digests(stability_artifacts["out"]) == GOLDEN["stability"]
