"""The ``extract_bulk`` workload: post-process an imported sample file.

This is the path the README promises for real digitiser data, with no
simulator in it:

    io.read_samples -> entropy.entropy_report -> extract.ToeplitzSeed.generate
    -> extract.extract_stream -> io.write_bits -> stats.nist_subset
    + stats.autocorrelation -> io.write_report

The quantum-to-classical noise ratio is the one the config's model and chain
imply at their operating power, i.e. what a calibration at that point would
report.  Run it as its own process:

    PYTHONPATH=src python3 bench/bulk.py --config configs/pipeline.json \\
        --samples in.qrng --out bits.qrng --extractor-seed 1

It writes ``<out>`` (packed bits) and ``<out>.report`` (JSON report).

All calls into the package go through module attributes, so that
``spans.py`` can trace them by patching those attributes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from phaseqrng import entropy, extract, io as qio, model, stats

N_SEQUENCES = 80
SEQ_LEN_BITS = 100_000
MAX_LAG = 100
AUTOCORR_SAMPLES = 1_000_000


def operating_point(cfg: dict) -> tuple[model.LaserNoiseModel, model.SignalChainConfig]:
    return (
        model.LaserNoiseModel(**cfg["model"]),
        model.SignalChainConfig(**cfg["chain"]),
    )


def reference_qcnr(cfg: dict) -> float:
    """QCNR = aq P / (ac P^2 + f) at the config's operating power."""
    laser, chain = operating_point(cfg)
    ac, aq, f = model.variance_coefficients(laser, chain)
    p = laser.power_p
    return aq * p / (ac * p**2 + f)


def run(config_path: str, samples_path: str, out_path: str, extractor_seed: int) -> int:
    with open(config_path) as fh:
        cfg = json.load(fh)
    ent = cfg.get("entropy", {})
    n_in = int(ent.get("n_in", entropy.DEFAULT_EXTRACTOR_N_IN))
    security_eps = 2.0 ** float(ent.get("security_eps_log2", -50))

    block = qio.read_samples(samples_path)
    report = entropy.entropy_report(
        block.variance_volts(),
        reference_qcnr(cfg),
        adc_bits=block.adc_bits,
        range_sigmas=cfg["chain"]["adc_range_sigmas"],
        security_eps=security_eps,
        n_in=n_in,
    )
    n_out = max(1, math.floor(report.extraction_ratio * n_in))
    seed = extract.ToeplitzSeed.generate(n_in, n_out, extractor_seed)
    bits = extract.extract_stream(block, report, seed)
    qio.write_bits(bits, out_path)

    battery = stats.nist_subset(bits, N_SEQUENCES, SEQ_LEN_BITS)
    r_raw = stats.autocorrelation(block.volts()[:AUTOCORR_SAMPLES], MAX_LAG)
    r_ext = stats.autocorrelation(
        bits.as_bit_array()[:AUTOCORR_SAMPLES].astype(np.float64), MAX_LAG
    )
    qio.write_report(
        {
            "entropy": {
                "qcnr": report.qcnr,
                "sigma_sq_total": report.sigma_sq_total,
                "min_entropy_bits": report.min_entropy_bits,
                "extraction_ratio": report.extraction_ratio,
            },
            "extractor": {"n_in": n_in, "n_out": n_out, "seed_rng": extractor_seed},
            "nist": [
                {"test": r.test_name, "pass_rate": r.pass_rate,
                 "uniformity_pvalue": r.uniformity_pvalue}
                for r in battery
            ],
            "autocorrelation": {
                "r_raw": [float(r) for r in r_raw],
                "r_extracted": [float(r) for r in r_ext],
            },
        },
        out_path + ".report",
    )
    print(f"extracted bits: {bits.count} -> {out_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--samples", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--extractor-seed", type=int, required=True)
    args = parser.parse_args(argv)
    return run(args.config, args.samples, args.out, args.extractor_seed)


if __name__ == "__main__":
    sys.exit(main())
