#!/usr/bin/env python3
"""Leakage-versus-detectability trade-off of the gentle eavesdropping strategy.

Sweeps the probe strength, printing Monte Carlo QBER next to the analytic
leakage so the detectability cost of each extra leaked bit is visible, and
compares against the intercept-resend baselines.
"""

import argparse

import numpy as np

from gentleleak.cli import tradeoff_csv
from gentleleak.simulate import EveStrategy, exact_round_statistics, tradeoff_sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=200000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--points", type=int, default=11)
    ap.add_argument("--out", default="tradeoff.csv")
    args = ap.parse_args(argv)

    for name, strat in (("w1", EveStrategy("w1")), ("w2", EveStrategy("w2"))):
        qber, bits, dist = exact_round_statistics(strat)
        print(f"baseline {name}: qber={qber:.4f}, leakage={bits:.4f} bits, disturbance={dist:.4f}")

    eps = np.linspace(0.0, 0.1, args.points)
    rows = tradeoff_sweep(eps, rounds=args.rounds, seed=args.seed)
    for r in rows:
        print(
            f"eps={r['epsilon']:.3f}: qber={r['qber']:.5f}, "
            f"leakage={r['leakage_bits']:.5f} bits, disturbance={r['mean_disturbance']:.5f}"
        )
    with open(args.out, "w") as fh:
        fh.write(tradeoff_csv(rows))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
