#!/usr/bin/env python3
"""Timing sweep for the minor kernel and both of its uses as the matricization grows.

The minor count is C(N,2) * C(M,2), i.e. quartic in the subsystem dimension
for square [N, N] states, so this is the operation that bounds interactive
use.  For each size it times the bare kernel (draining schwarz._minor_chunks
on the cut-1 matricization, the floor both uses share),
bipartite_concurrence (the sum of squared minors) and max_abs_minor on the
same matricization (the separability certificate's scan), and prints the
minor count, the best wall time of each, and their throughput in minors per
second.  A use's time minus the kernel's is the cost of its reduction.
"""

import argparse
import math
import sys
import time

import numpy as np

from qconc import bipartite_concurrence, make_state, matricize, max_abs_minor
from qconc.schwarz import _minor_chunks


def best_time(fn, repeats: int) -> tuple[float, object]:
    best, result = math.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def drain(entries) -> None:
    for _ in _minor_chunks(entries):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dims", type=int, nargs="+", default=[4, 8, 12, 16, 24, 32, 48, 64],
        help="square subsystem dimensions N for [N, N] states",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(
        f"{'dims':>10} {'minors':>10} {'kernel s':>9} {'kernel minors/s':>15} "
        f"{'sum s':>9} {'sum minors/s':>13} {'max s':>9} {'max minors/s':>13} {'value':>9}"
    )
    for n in args.dims:
        rng = np.random.default_rng(args.seed)
        state = make_state([n, n], rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n))
        mat = matricize(state, 1)
        minors = math.comb(n, 2) ** 2
        kernel_s, _ = best_time(lambda: drain(mat.entries), args.repeats)
        sum_s, report = best_time(lambda: bipartite_concurrence(state), args.repeats)
        max_s, _ = best_time(lambda: max_abs_minor(mat), args.repeats)
        print(
            f"[{n:>3},{n:>3}] {minors:>10} {kernel_s:>9.4f} {minors / kernel_s:>15.3e} "
            f"{sum_s:>9.4f} {minors / sum_s:>13.3e} "
            f"{max_s:>9.4f} {minors / max_s:>13.3e} {report.value:>9.5f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
