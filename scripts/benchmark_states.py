#!/usr/bin/env python3
"""Concurrence and separability structure of the standard benchmark states.

Prints, for each named state: the concurrence value, the per-cut squared
minor sums behind it, and the full-separability verdict with the subsystems
of any entangled remainder.
"""

import argparse
import math
import sys

import numpy as np

from qconc import PureState, concurrence, full_separability, make_state, tensor


def named_states() -> list[tuple[str, PureState]]:
    sq2 = 1 / math.sqrt(2)
    sq3 = 1 / math.sqrt(3)
    bell = make_state([2, 2], [sq2, 0, 0, sq2])
    qutrit = np.zeros(9, dtype=complex)
    qutrit[[0, 4, 8]] = sq3
    return [
        ("Bell", bell),
        ("|1,1>", make_state([2, 2], [1, 0, 0, 0])),
        ("qutrit pair", make_state([3, 3], qutrit)),
        ("GHZ", make_state([2, 2, 2], [sq2, 0, 0, 0, 0, 0, 0, sq2])),
        ("W", make_state([2, 2, 2], [0, sq3, sq3, 0, sq3, 0, 0, 0])),
        ("|1> x Bell", tensor(make_state([2], [1, 0]), bell)),
        ("Bell x |1>", tensor(bell, make_state([2], [1, 0]))),
        ("|1,2,1>", make_state([2, 2, 2], [0, 0, 1, 0, 0, 0, 0, 0])),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=1e-9, help="certificate tolerance")
    args = parser.parse_args()
    if not 0.0 < args.tol < math.inf:
        parser.error(f"--tol must be positive and finite, got {args.tol}")

    print(f"{'state':>12} {'value':>9} {'per-cut minor sums':>28}  verdict")
    for name, state in named_states():
        report = concurrence(state)
        sums = ", ".join(f"{s:.4f}" for _, s in report.per_cut_sums)
        sep = full_separability(state, tolerance=args.tol)
        verdict = sep.verdict
        if not sep.fully_separable:
            verdict += f" (remainder on subsystems {list(sep.remainder_subsystems)})"
        print(f"{name:>12} {report.value:>9.6f} {sums:>28}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
