#!/usr/bin/env python3
"""Cross-check the minor-sum concurrence against the reduced-density oracle.

Samples seeded Haar-random states of both arities and reports how far the
two independent computations drift apart:

    minor route:   value = sqrt(4 * sum of squared 2x2 minors over cuts)
    purity route:  value = sqrt(sum over cuts of 2(1 - Tr rho_j^2))

The two agree to ~1e-15 in practice; anything above --tol is listed.
"""

import argparse
import math
import sys

import numpy as np

from qconc import SamplerSpec, concurrence, oracle_concurrence, sample_state


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=500, help="states per arity")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--max-dim-bi", type=int, default=6)
    parser.add_argument("--max-dim-tri", type=int, default=4)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()
    if args.states < 1:
        parser.error(f"--states must be at least 1, got {args.states}")
    if not 0.0 < args.tol < math.inf:
        parser.error(f"--tol must be positive and finite, got {args.tol}")
    for flag, value in (("--max-dim-bi", args.max_dim_bi), ("--max-dim-tri", args.max_dim_tri)):
        if value < 2:
            parser.error(f"{flag} must be at least 2, got {value}")

    rng = np.random.default_rng(args.seed)
    outliers = []
    print(f"{'arity':>5} {'states':>7} {'max |diff|':>12} {'mean value':>11}")
    for arity, hi in ((2, args.max_dim_bi), (3, args.max_dim_tri)):
        worst = 0.0
        values = []
        for i in range(args.states):
            dims = tuple(int(d) for d in rng.integers(2, hi + 1, size=arity))
            state = sample_state(SamplerSpec(dims, "haar", args.seed + 1000 * arity + i))
            via_minors = concurrence(state).value
            via_purity = oracle_concurrence(state)
            diff = abs(via_minors - via_purity)
            worst = max(worst, diff)
            values.append(via_minors)
            if diff > args.tol:
                outliers.append((dims, args.seed + 1000 * arity + i, diff))
        print(f"{arity:>5} {args.states:>7} {worst:>12.3e} {np.mean(values):>11.6f}")

    if outliers:
        print(f"\n{len(outliers)} state(s) above tol={args.tol:g}:")
        for dims, seed, diff in outliers:
            print(f"  dims={dims} seed={seed} |diff|={diff:.3e}")
        return 1
    print(f"\nall states within tol={args.tol:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
