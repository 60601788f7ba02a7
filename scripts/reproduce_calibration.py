"""Recover the noise-model coefficients from a simulated power sweep.

Runs the variance-vs-power sweep of ``configs/pipeline.json`` (direct and
attenuated at each power), fits sigma^2 = ac*P^2 + aq*P + f, and prints the
recovered coefficients next to the ones the config injects, plus the QCNR
curve from both measurement methods.

Usage: python3 scripts/reproduce_calibration.py [--seed N] [--samples N]
"""

import argparse
import pathlib
from dataclasses import replace

from phaseqrng import calib, runs
from phaseqrng.model import variance_coefficients

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "pipeline.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--samples", type=int, default=1_000_000,
                        help="samples per sweep point")
    args = parser.parse_args()

    cfg = runs.load_config(CONFIG, seed=args.seed)
    cfg = replace(cfg, sweep=replace(cfg.sweep, samples_per_point=args.samples))
    print(f"sweeping {len(cfg.sweep.powers)} powers, {args.samples} samples each, "
          f"seed {args.seed} ...")
    result = runs.calibrate(cfg)
    fit = result.fit

    print("\ncoefficient   injected      recovered     rel. error")
    injected = variance_coefficients(cfg.run.model, cfg.run.chain)
    recovered_all = (fit.ac, fit.aq, fit.f)
    for name, want, recovered in zip(("ac", "aq", "f "), injected, recovered_all):
        print(f"  {name}          {want:<12.6g}  {recovered:<12.6g}  "
              f"{abs(recovered - want) / want:.3%}")
    print(f"  R^2 = {fit.r_squared:.6f}")

    p_star, q_max = calib.qcnr_optimal_power(fit)
    print(f"\nQCNR peak {q_max:.3f} at P = {p_star:.3e} W")
    print("\npower (W)     QCNR (fit)    QCNR (attenuation)")
    for point, var_att in zip(result.points, result.attenuated_variances):
        q_fit = calib.qcnr_from_fit(fit, point.power)
        q_att = calib.qcnr_attenuation(point.variance, var_att)
        print(f"  {point.power:<11.3e} {q_fit:<13.3f} {q_att:.3f}")


if __name__ == "__main__":
    main()
