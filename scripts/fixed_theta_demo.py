"""Single trial of the fixed-feedback pathology: twin-peak ambiguity.

With theta held fixed the pair likelihood is even in phi - theta, so
the posterior cannot tell phi_true from its mirror 2*theta - phi_true.
This script runs one trial, reports when the rival peak first reaches
half the main peak's height, and prints the final two-peak structure
plus a coarse sample of the MAP trajectory around that onset.
"""

import argparse

from su11sim import (
    MODE_FIXED,
    PhaseGrid,
    ProtocolConfig,
    make_model,
    run_trial,
    scheme_for_mode,
)
from su11sim.posterior import PEAK_MIN_SEPARATION


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=0.70)
    ap.add_argument("--phi-true", type=float, default=0.75)
    ap.add_argument("--mean-photons", type=float, default=4.0)
    ap.add_argument("--measurements", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    config = ProtocolConfig(
        mode=MODE_FIXED,
        measurements=args.measurements,
        phi_true=args.phi_true,
        fixed_theta=args.theta,
    )
    grid = PhaseGrid()
    model = make_model(scheme_for_mode(MODE_FIXED), args.mean_photons)
    record = run_trial(config, model, grid, args.seed)

    mirror = 2 * args.theta - args.phi_true
    print(f"fixed theta={args.theta}, phi_true={args.phi_true}, "
          f"nbar={args.mean_photons}, M={args.measurements}, seed {args.seed}")
    print(f"mirror phase 2*theta - phi_true = {mirror:.4f}")
    print(f"steps whose MAP moved by more than {PEAK_MIN_SEPARATION}: "
          f"{record.map_jumps}")
    if record.m_threshold is None:
        print("rival peak never reached half height")
    else:
        print(f"rival peak reached half height at measurement {record.m_threshold}")
        lo = max(0, record.m_threshold - 3)
        for s in record.steps[lo:lo + 6]:
            print(f"  step {s.step:4d}  outcome {s.outcome.label():>8}  "
                  f"map {s.map_estimate:.4f}")
    peaks = record.peaks
    print(f"final MAP {record.final_map:.4f}, mean {record.final_mean:.4f}, "
          f"variance {record.final_variance:.3e}")
    print(f"primary peak   at {peaks.primary.location:.4f}, "
          f"mass {peaks.primary.mass:.3f}")
    if peaks.secondary is not None:
        print(f"secondary peak at {peaks.secondary.location:.4f}, "
              f"mass {peaks.secondary.mass:.3f}, "
              f"height ratio {peaks.secondary.height / peaks.primary.height:.3f}")
    else:
        print("no secondary peak in the final posterior")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
