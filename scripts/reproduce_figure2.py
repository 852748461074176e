#!/usr/bin/env python3
"""Reproduce the leakage-vs-gentleness curve for the BB84 encoding.

Writes figure2.csv (alpha, p1, p2, lower_bits over a 101-point alpha grid)
and prints the anchor row at alpha = 0.1 together with the unrestricted
maximal leakage the curve saturates to.
"""

import argparse

import numpy as np

from gentleleak.cli import sweep_csv
from gentleleak.cloning import lower_bound_sweep
from gentleleak.leakage import maximal_quantum_leakage
from gentleleak.states import bb84_ensemble


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=int, default=101)
    ap.add_argument("--out", default="figure2.csv")
    args = ap.parse_args(argv)

    e = bb84_ensemble()
    q = maximal_quantum_leakage(e)
    print(f"maximal leakage: {q.bits:.9f} bits (certified upper value {q.upper_bits:.9f})")

    rows = lower_bound_sweep(e, np.linspace(0.0, 1.0, args.grid), q.bits)
    with open(args.out, "w") as fh:
        fh.write(sweep_csv(rows))
    print(f"wrote {args.out} ({args.grid} rows)")

    anchor = min(rows, key=lambda r: abs(r.alpha - 0.1))
    print(
        f"anchor alpha={anchor.alpha:.2f}: lower bound {anchor.lower_bits:.4f} bits "
        f"at (p1*, p2*) = ({anchor.p1_cap:.4f}, {anchor.p2_star:.6f})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
