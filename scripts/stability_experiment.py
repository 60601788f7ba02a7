"""Hour-long drift run with and without periodic recalibration.

Runs the drift scenario of ``configs/stability.json``: the interferometer
quadrature point drifts at a constant rate; one run lets it wander freely
while the other re-locks every recalibration period.  Prints a summary row
every 5 minutes of variance and min-entropy for both.

Usage: python3 scripts/stability_experiment.py
"""

import pathlib

from phaseqrng import runs

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "stability.json"


def main() -> None:
    cfg = runs.load_config(CONFIG)
    stab = cfg.stability
    result = runs.stability(cfg)
    free, recal = result.free, result.recalibrated

    print(f"drift {stab.phase_drift_rate:.2e} rad/s, recalibration every "
          f"{stab.recalibration_period:.0f} s, "
          f"{len(free)} report points over {stab.total_time:.0f} s\n")
    print("t (s)    var free (V^2)  H free   var recal (V^2)  H recal")
    for a, b in zip(free, recal):
        if a.time % 300.0 != 0.0:
            continue
        print(f"{a.time:7.0f}  {a.variance:<15.3e} {a.min_entropy:<8.3f} "
              f"{b.variance:<16.3e} {b.min_entropy:.3f}")

    h_recal = [p.min_entropy for p in recal]
    h_free = [p.min_entropy for p in free]
    print(f"\nmin-entropy range over the hour: "
          f"{max(h_recal) - min(h_recal):.4f} bits with recalibration, "
          f"{max(h_free) - min(h_free):.4f} bits without")


if __name__ == "__main__":
    main()
