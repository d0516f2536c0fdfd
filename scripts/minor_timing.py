#!/usr/bin/env python3
"""Timing sweep for the minor sum and the minor kernel as the matricization grows.

The minor count is C(N,2) * C(M,2), i.e. quartic in the subsystem dimension
for square [N, N] states.  After the square sweep comes one [8, 64] state,
whose 8x64 matricization is the shape of every unfolding of an [8, 8, 8]
state, then a near-product [8, 64] state u (x) v + 1e-4 u' (x) v' (rank 2,
u' orthogonal to u, v' to v; marked *), then an [8, 8, 8] Haar and an
[8, 8, 8] near-product state (u (x) v (x) w + 1e-4 u' (x) v' (x) w').  For
each state it times concurrence, the sum of squared minors by the
exact-Gram route (O(N^3)): of the one cut of a two-part state, and of the
three cuts of an [8, 8, 8] state in one stacked pass, whose minor count is
that of all three cuts.  For the two-part states up to N = 64 it also
times the bare quartic kernel
(schwarz._max_minor on every row pair of the cut-1 matricization) and
max_abs_minor on the same matricization (the separability certificate's
scan).  max_abs_minor runs one evaluator after its one pre-pass,
schwarz._bounded_pairs.  That reads |x|, the pivot and the minors through
it once (schwarz._pivot_minors), keeps the row pairs whose Schwarz bound
(or, on the near-product state, the pivot's Schur bound) reaches one exact
lower bound, and hands over what the evaluator takes.  Where the Schwarz
bound pruned, the quad evaluator takes every minor of the kept pairs if
they hold at most 8192 (route "kept"), else those whose columns pass the
column bound if at most 8192 remain ("quads"); otherwise the offset
kernel scans the kept pairs, or all of them ("kernel").
It prints the minor count, the best wall time of each, the minor page
faults per call next to it (flt: the ru_minflt difference over the timed
repeats, after two untimed calls, since glibc may serve a size's first
call from mmap and its second from fresh heap pages; a pass whose working
memory free() hands back to the system every call shows here), their
throughput in minors per second (of all minors, also for the max), and
the share of the minors the max evaluated and its route, both from one
extra, untimed call.

BLAS runs on one thread, as in perfbench/run.py, unless the thread
variables (THREAD_VARS) are set; the header prints them.  With a default
thread pool, idle BLAS threads can slow whatever runs after a matmul.
"""

import argparse
import math
import os
import resource
import sys
import time
from unittest import mock

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from qconc import concurrence, make_state, matricize, max_abs_minor, schwarz  # noqa: E402


# Largest dimension at which the quartic kernel and max_abs_minor are timed.
QUARTIC_LIMIT = 64


def best_time(fn, repeats: int) -> tuple[float, float, object]:
    """(best wall time, minor page faults per call, result) of repeats calls
    after two untimed calls."""
    fn()
    fn()
    best, result = math.inf, None
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best, faults / repeats, result


def evaluated_share(mat) -> tuple[float, str]:
    """Share of the minors max_abs_minor(mat) evaluates: the sizes of the
    steps its evaluator reduces (schwarz._max_modulus), over all minors;
    and the route: "kept", "quads" or "kernel" (see above)."""
    sizes = []
    reduce = schwarz._max_modulus

    def counting(re, im, sq):
        sizes.append(re.size)
        return reduce(re, im, sq)

    with (mock.patch.object(schwarz, "_max_modulus", counting),
          mock.patch.object(schwarz, "_column_quads", wraps=schwarz._column_quads) as columns,
          mock.patch.object(schwarz, "_quad_max", wraps=schwarz._quad_max) as quads):
        max_abs_minor(mat)
    route = "kernel" if not quads.called else "quads" if columns.called else "kept"
    return sum(sizes) / (math.comb(mat.shape[0], 2) * math.comb(mat.shape[1], 2)), route


def near_product(rng, dims) -> np.ndarray:
    """u (x) v (x) ... + 1e-4 u' (x) v' (x) ..., unit vectors with u'
    orthogonal to u, v' to v and so on."""
    first, second = np.ones(1), np.ones(1)
    for n in dims:
        u, z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        u /= np.linalg.norm(u)
        z -= np.vdot(u, z) * u
        first, second = np.kron(first, u), np.kron(second, z / np.linalg.norm(z))
    return first + 1e-4 * second


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dims", type=int, nargs="+", default=[4, 8, 12, 16, 24, 32, 48, 64, 128, 256],
        help="square subsystem dimensions N for [N, N] states",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if min(args.dims) < 1:
        parser.error(f"--dims must be at least 1, got {min(args.dims)}")
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")

    print("threads: " + " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS))
    print(
        f"{'dims':>10} {'minors':>10} {'kernel s':>9} {'flt':>6} {'kernel minors/s':>15} "
        f"{'sum s':>9} {'flt':>6} {'sum minors/s':>13} {'max s':>9} {'flt':>6} "
        f"{'max minors/s':>13} {'max share':>9} {'route':>6} {'value':>9}"
    )
    cases = [([n, n], False) for n in args.dims]
    cases += [([8, 64], False), ([8, 64], True), ([8, 8, 8], False), ([8, 8, 8], True)]
    for dims, near in cases:
        rng = np.random.default_rng(args.seed)
        size = math.prod(dims)
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        if near:
            amps = near_product(rng, dims)
        state = make_state(dims, amps)
        mat = matricize(state, 1)
        cut_dims = dims[:1] if len(dims) == 2 else dims  # the cuts concurrence sums
        minors = sum(math.comb(n, 2) * math.comb(size // n, 2) for n in cut_dims)
        sum_s, sum_flt, report = best_time(lambda: concurrence(state), args.repeats)
        kernel = f"{'-':>9} {'-':>6} {'-':>15}"
        maximum = f"{'-':>9} {'-':>6} {'-':>13} {'-':>9} {'-':>6}"
        if len(dims) == 2 and max(dims) <= QUARTIC_LIMIT:
            kernel_s, kernel_flt, _ = best_time(lambda: schwarz._max_minor(mat), args.repeats)
            max_s, max_flt, _ = best_time(lambda: max_abs_minor(mat), args.repeats)
            share, route = evaluated_share(mat)
            kernel = f"{kernel_s:>9.4f} {kernel_flt:>6.0f} {minors / kernel_s:>15.3e}"
            maximum = (f"{max_s:>9.4f} {max_flt:>6.0f} {minors / max_s:>13.3e} {share:>9.3%} "
                       f"{route:>6}")
        label = "[" + ",".join(f"{n:>3}" if len(dims) == 2 else str(n) for n in dims) + "]"
        print(
            f"{label:>9}{'*' if near else ' '}{minors:>10} {kernel} "
            f"{sum_s:>9.4f} {sum_flt:>6.0f} {minors / sum_s:>13.3e} {maximum} "
            f"{report.value:>9.5f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
