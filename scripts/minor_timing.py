#!/usr/bin/env python3
"""Timing sweep for the minor sum and the minor kernel as the matricization grows.

The minor count is C(N,2) * C(M,2), i.e. quartic in the subsystem dimension
for square [N, N] states.  After the square sweep comes one [8, 64] state,
whose 8x64 matricization is the shape of every unfolding of an [8, 8, 8]
state.  For each size it times concurrence (the sum of squared minors of
the one cut, by the exact-Gram route: O(N^3)), and, up to N = 64, the
bare quartic kernel (draining schwarz._minor_chunks on the cut-1
matricization) and max_abs_minor on the same matricization (the
separability certificate's scan, which runs the kernel on the row pairs
its bounds keep).  It prints the minor count, the best wall time of each,
their throughput in minors per second (of all minors, also for the max),
and the share of the minors the max evaluated, counted by wrapping the
kernel in one extra, untimed call.
"""

import argparse
import math
import sys
import time

import numpy as np

from qconc import concurrence, make_state, matricize, max_abs_minor, schwarz
from qconc.schwarz import _minor_chunks


# Largest dimension at which the quartic kernel and max_abs_minor are timed.
QUARTIC_LIMIT = 64


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


def evaluated_by_max(mat) -> int:
    """Minors the kernel evaluates for max_abs_minor(mat)."""
    sizes = []

    def counting(entries, pairs=None):
        for re, im in _minor_chunks(entries, pairs):
            sizes.append(re.size)
            yield re, im

    schwarz._minor_chunks = counting
    try:
        max_abs_minor(mat)
    finally:
        schwarz._minor_chunks = _minor_chunks
    return sum(sizes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dims", type=int, nargs="+", default=[4, 8, 12, 16, 24, 32, 48, 64, 128, 256],
        help="square subsystem dimensions N for [N, N] states",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(
        f"{'dims':>10} {'minors':>10} {'kernel s':>9} {'kernel minors/s':>15} "
        f"{'sum s':>9} {'sum minors/s':>13} {'max s':>9} {'max minors/s':>13} {'max share':>9} "
        f"{'value':>9}"
    )
    for rows, cols in [(n, n) for n in args.dims] + [(8, 64)]:
        rng = np.random.default_rng(args.seed)
        size = rows * cols
        state = make_state([rows, cols], rng.standard_normal(size) + 1j * rng.standard_normal(size))
        mat = matricize(state, 1)
        minors = math.comb(rows, 2) * math.comb(cols, 2)
        sum_s, report = best_time(lambda: concurrence(state), args.repeats)
        kernel, maximum = f"{'-':>9} {'-':>15}", f"{'-':>9} {'-':>13} {'-':>9}"
        if max(rows, cols) <= QUARTIC_LIMIT:
            kernel_s, _ = best_time(lambda: drain(mat), args.repeats)
            max_s, _ = best_time(lambda: max_abs_minor(mat), args.repeats)
            share = evaluated_by_max(mat) / minors
            kernel = f"{kernel_s:>9.4f} {minors / kernel_s:>15.3e}"
            maximum = f"{max_s:>9.4f} {minors / max_s:>13.3e} {share:>9.1%}"
        print(
            f"[{rows:>3},{cols:>3}] {minors:>10} {kernel} "
            f"{sum_s:>9.4f} {minors / sum_s:>13.3e} {maximum} {report.value:>9.5f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
