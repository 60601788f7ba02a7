"""Command line: argument parsing, rendering of results and exit codes.

    simulate   run the signal-chain simulator, write a sample file
    calibrate  fringe scan + variance-vs-power sweep, write fit + QCNR CSV
    pipeline   simulate -> calibrate -> entropy -> extract -> validate
    stability  drifted long-term run with and without recalibration

Each takes ``--config <json> --out <path>`` and an optional ``--seed``
overriding the run seed.  :func:`phaseqrng.runs.load_config` parses the whole
config before any work starts, and the runs live in :mod:`phaseqrng.runs`.
Exit codes: 0 success (``-h`` included), 1 usage, configuration or
validation failure, or an array no memory can hold, reported on one
``error:`` line, 2 statistical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import calib, entropy, io as qio, runs
from .sim import model_sigma, simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STATISTICAL = 2


def cmd_simulate(cfg: runs.Config, out: str) -> int:
    run = cfg.run
    block = simulate(run)
    n_bytes = qio.write_samples(block, out)

    predicted = model_sigma(run) ** 2  # the variance the ADC range is set from
    measured = block.variance_volts()
    print(f"samples written      : {len(block)} ({n_bytes} bytes)")
    print(f"measured variance    : {measured:.6e} V^2")
    print(f"predicted variance   : {predicted:.6e} V^2")
    print(f"saturation fraction  : {block.saturation_fraction():.2e}")
    return EXIT_OK


def cmd_calibrate(cfg: runs.Config, out: str) -> int:
    result = runs.calibrate(cfg)
    fit = result.fit
    if result.quadrature_phase is not None:
        print(f"quadrature phase     : {result.quadrature_phase:.4f} rad")

    Path(out).write_text(calib.fit_report_text(fit))
    powers = cfg.sweep.powers
    sweep_csv = out + ".sweep.csv"
    qio.write_csv(
        sweep_csv,
        ["power_w", "variance_v2", "n_samples"],
        ([repr(p), repr(v), cfg.sweep.samples_per_point]
         for p, v in zip(powers, result.variances)),
    )
    qcnr_csv = out + ".qcnr.csv"
    qio.write_csv(
        qcnr_csv,
        ["power_w", "qcnr_fit", "qcnr_attenuation"],
        ([repr(p), repr(calib.qcnr_from_fit(fit, p)),
          repr(calib.qcnr_attenuation(v, v_att))]
         for p, v, v_att in zip(powers, result.variances,
                                result.attenuated_variances)),
    )

    print(f"fit: ac = {fit.ac:.4f} V^2/W^2, aq = {fit.aq:.6f} V^2/W, "
          f"f = {fit.f:.4e} V^2, R^2 = {fit.r_squared:.6f}")
    peak = calib.qcnr_optimal_power(fit)
    if peak is not None:
        p_star, q_max = peak
        print(f"QCNR peak            : {q_max:.3f} at {p_star:.3e} W")
    print(f"reports              : {out}, {sweep_csv}, {qcnr_csv}")
    return EXIT_OK


def cmd_pipeline(cfg: runs.Config, out: str) -> int:
    result = runs.pipeline(cfg)
    fit, report, extractor = result.fit, result.entropy, result.extractor
    rate = entropy.generation_rate(report.min_entropy_bits,
                                   cfg.run.chain.sample_rate_hz)
    print(f"calibration          : ac={fit.ac:.4f} aq={fit.aq:.6f} "
          f"f={fit.f:.4e} R^2={fit.r_squared:.6f}")
    print(f"QCNR at {cfg.run.model.power_p:.3e} W : {report.qcnr:.3f}")
    print(f"min-entropy          : {report.min_entropy_bits:.3f} bits/sample")
    print(f"extraction ratio     : {report.extraction_ratio:.4f}")
    print(f"generation rate      : {rate:.3e} bit/s")

    qio.write_bits(result.bits, out)
    print(f"extracted bits       : {result.bits.count} -> {out}")
    print(f"raw lag-1 autocorr   : {result.raw_autocorr[1]:+.4f}")
    qio.write_csv(
        out + ".autocorr.csv",
        ["lag", "r_raw", "r_extracted"],
        ([lag, repr(float(r_raw)), repr(float(r_ext))] for lag, (r_raw, r_ext)
         in enumerate(zip(result.raw_autocorr, result.bits_autocorr))),
    )

    lo, hi = result.pass_band
    battery = result.battery
    qio.write_csv(
        out + ".nist.csv",
        ["test", "pass_rate", "uniformity_pvalue"],
        ([r.test_name, repr(r.pass_rate), repr(r.uniformity_pvalue)] for r in battery),
    )
    print(f"pass-rate band       : [{lo:.4f}, {hi:.4f}] over "
          f"{cfg.pipeline.n_sequences} sequences")
    for r in battery:
        mark = "ok" if r.pass_rate >= lo else "FAIL"
        print(f"  {r.test_name:<26} pass_rate={r.pass_rate:.4f} "
              f"uniformity_p={r.uniformity_pvalue:.4f} [{mark}]")

    qio.write_report(
        {
            "fit": {"ac": fit.ac, "aq": fit.aq, "aq_se": fit.aq_se, "f": fit.f,
                    "r_squared": fit.r_squared},
            "qcnr": report.qcnr,
            "entropy": {k: getattr(report, k) for k in (
                "sigma_sq_total", "sigma_sq_quantum", "min_entropy_bits",
                "extraction_ratio")},
            "extractor": {"n_in": extractor.n_in, "n_out": extractor.n_out,
                          "seed_rng": extractor.seed_rng},
            "nist": [{"test": r.test_name, "pass_rate": r.pass_rate,
                      "uniformity_pvalue": r.uniformity_pvalue} for r in battery],
            "pass_rate_band": [lo, hi],
        },
        out + ".report",
    )

    failed = [r for r in battery if r.pass_rate < lo]
    if failed:
        names = ", ".join(r.test_name for r in failed)
        print(f"statistical failure  : pass rate below band for {names}",
              file=sys.stderr)
        return EXIT_STATISTICAL
    return EXIT_OK


def cmd_stability(cfg: runs.Config, out: str) -> int:
    result = runs.stability(cfg)
    qio.write_csv(
        out,
        ["time_s", "variance_norecal_v2", "min_entropy_norecal_bits",
         "phi2_norecal_rad", "variance_recal_v2", "min_entropy_recal_bits",
         "phi2_recal_rad"],
        ([repr(v) for v in (a.time, a.variance, a.min_entropy, a.applied_phi2,
                            b.variance, b.min_entropy, b.applied_phi2)]
         for a, b in zip(result.free, result.recalibrated)),
    )

    h_recal = [p.min_entropy for p in result.recalibrated]
    h_free = [p.min_entropy for p in result.free]
    print(f"report points        : {len(h_recal)} over "
          f"{cfg.stability.total_time:.0f} s")
    print(f"entropy w/ recal     : min {min(h_recal):.3f}, max {max(h_recal):.3f} "
          f"(range {max(h_recal) - min(h_recal):.3f} bits)")
    print(f"entropy w/o recal    : min {min(h_free):.3f}, max {max(h_free):.3f}")
    print(f"series written       : {out}")
    return EXIT_OK


# each command and the suffixes of the files it writes next to ``--out``
_COMMANDS = {
    "simulate": (cmd_simulate, ()),
    "calibrate": (cmd_calibrate, (".sweep.csv", ".qcnr.csv")),
    "pipeline": (cmd_pipeline, (".autocorr.csv", ".nist.csv", ".report")),
    "stability": (cmd_stability, ()),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it: one line and exit 1, not argparse's 2
        raise ValueError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="phaseqrng",
        description="Phase-noise QRNG simulation and post-processing pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the run seed from the config")
    try:
        args = parser.parse_args(argv)
        cfg = runs.load_config(args.config, args.seed)
        # Path drops a trailing "/" or ".", which would name the directory
        if os.path.basename(args.out) in ("", ".", ".."):
            raise ValueError(f"output path {args.out} is a directory")
        out_dir = Path(args.out).parent
        if not out_dir.is_dir():
            raise ValueError(f"output directory {out_dir} does not exist")
        command, suffixes = _COMMANDS[args.command]
        for path in (args.out, *(args.out + suffix for suffix in suffixes)):
            if Path(path).is_dir():
                raise ValueError(f"output path {path} is a directory")
            # open() on an existing file we may not write fails only after the run
            if os.path.exists(path) and not os.access(path, os.W_OK):
                raise ValueError(f"output path {path} is not writable")
        if not os.access(out_dir, os.W_OK):
            raise ValueError(f"output directory {out_dir} is not writable")
        return command(cfg, args.out)
    except ValueError as exc:  # usage, runs.ConfigError and library validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # NumPy names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
