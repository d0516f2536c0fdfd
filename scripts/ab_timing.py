#!/usr/bin/env python3
"""In-process A/B timing of two qconc source trees, loaded side by side.

Each tree's package (A/qconc and B/qconc, where A and B are src/
directories) is copied into a temporary directory as qconc_a and qconc_b
and imported there; the package's imports are relative, so both load in one
process and see the same host state.  A and B default to this checkout's
src/, so one argument times that tree (A) against this one (B).  The ops
are those of the benchmark's in-process workloads: concurrence plus
full_separability of [8,8,8] states of the four tripartite_mixed kinds
(Haar, product, near-product separable and near-product entangled), and
concurrence plus is_separable_cut of both cuts of a Haar [32,32] state
(bipartite_haar).  The stateio kind times the state file round trip that
the benchmark's set-up runs per state: emit_state then parse_state of a
Haar [32,32] state.

Every rep runs, per kind and state, --calls ops of one tree and then of the
other, alternating which tree goes first from one state to the next and
from one rep to the next; one op's time is the mean of its --calls.  The
script first checks that both trees give the same outputs bit for bit
(for stateio, the same file bytes and the same parsed amplitudes).  It
prints each kind's median op time per tree and their ratio B/A, then, as
the benchmark's tripartite_mixed p50 is taken, the median of the four
tripartite kind medians and its ratio.  BLAS runs on one thread, as in
minor_timing.py, unless the thread variables (THREAD_VARS) are set.

Both trees share one process and so one heap: glibc's malloc thresholds
rise with the largest block either tree frees, so the script cannot show
what a change to a pass's working memory does to page faults (a change
that took the benchmark's bipartite_haar op from about 150 minor faults
to none read level here).  The warm shared heap and caches also hide
what a pass's allocations and their cache misses cost: a kernel that
swapped its reused scratch rows for fresh temporaries read level or a
few percent faster here, yet took a quarter to a half longer per call
in fresh processes.  Compare fresh processes for any change to a pass's
working memory, as perfbench/run.py and scripts/minor_timing.py do.

    python scripts/ab_timing.py PARENT/src --reps 20
"""

import argparse
import importlib
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TRIPARTITE = ("haar", "product", "near_sep", "near_ent")
TOL = 1e-9  # qconc's default tolerance, which the near-product deltas straddle


def load(src: str, name: str, into: str):
    """Import src/qconc, copied into the directory into as package name."""
    shutil.copytree(os.path.join(src, "qconc"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def unit(rng, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def near_product(rng, dims, separable: bool) -> np.ndarray:
    """u (x) v (x) w + delta u' (x) v' (x) w', u' orthogonal to u and so on,
    with delta below tol peak^2 / 20 (separable) or above 10 tol sqrt(K),
    K the largest cut's minor count, as in the benchmark."""
    first, second = np.ones(1), np.ones(1)
    for n in dims:
        u, z = unit(rng, n), unit(rng, n)
        z -= np.vdot(u, z) * u
        first, second = np.kron(first, u), np.kron(second, z / np.linalg.norm(z))
    size = first.size
    if separable:
        delta = TOL * float(np.max(np.abs(first))) ** 2 / 20 * 10 ** -rng.uniform()
    else:
        k_max = max(math.comb(n, 2) * math.comb(size // n, 2) for n in dims)
        delta = 10 * TOL * math.sqrt(k_max) * 10 ** rng.uniform()
    return (first + delta * second) / math.sqrt(1 + delta * delta)


def amplitudes(kind: str, rng) -> tuple[tuple[int, ...], np.ndarray]:
    if kind in ("bipartite_haar", "stateio"):
        return (32, 32), unit(rng, 1024)
    dims = (8, 8, 8)
    if kind == "haar":
        return dims, unit(rng, 512)
    if kind == "product":
        return dims, np.kron(np.kron(unit(rng, 8), unit(rng, 8)), unit(rng, 8))
    return dims, near_product(rng, dims, kind == "near_sep")


def op(qconc, kind: str):
    """The benchmark's op on one state, as a function of the state."""
    if kind == "bipartite_haar":
        return lambda s: (qconc.concurrence(s), [qconc.is_separable_cut(s, c) for c in (1, 2)])
    if kind == "stateio":
        def round_trip(s):
            text = qconc.emit_state(s, label="ab")
            return text, qconc.parse_state(text)
        return round_trip
    return lambda s: (qconc.concurrence(s), qconc.full_separability(s))


def canon(value):
    """Every output bit of an op's result, as nested tuples."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(canon(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return tuple(canon(getattr(value, f)) for f in value.__dataclass_fields__)
    return value


def timed(fn, state, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn(state)
    return (time.perf_counter() - start) / calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="?", default=SRC, help="src directory of tree A (holds qconc/)")
    parser.add_argument("b", nargs="?", default=SRC, help="src directory of tree B (holds qconc/)")
    parser.add_argument("--reps", type=int, default=20, help="alternating rounds")
    parser.add_argument("--calls", type=int, default=5, help="ops per timing")
    parser.add_argument("--states", type=int, default=4, help="states per kind")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for flag in ("reps", "calls", "states"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    for src in (args.a, args.b):
        if not os.path.isdir(os.path.join(src, "qconc")):
            parser.error(f"a tree must be a src directory holding qconc/, got {src}")

    print("threads: " + " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS))
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = (load(args.a, "qconc_a", tmp), load(args.b, "qconc_b", tmp))
        rng = np.random.default_rng(args.seed)
        kinds = TRIPARTITE + ("bipartite_haar", "stateio")
        cases = []  # (kind, [(op, state) per tree]) per state
        for kind in kinds:
            for _ in range(args.states):
                dims, amps = amplitudes(kind, rng)
                per_tree = [(op(q, kind), q.make_state(list(dims), amps)) for q in trees]
                (fa, sa), (fb, sb) = per_tree
                if canon(fa(sa)) != canon(fb(sb)):
                    print(f"outputs differ on a {kind} state", file=sys.stderr)
                    return 1
                cases.append((kind, per_tree))
        print("outputs: the same bits on every state")
        times = {kind: ([], []) for kind in kinds}
        for rep in range(args.reps):
            for i, (kind, per_tree) in enumerate(cases):
                for t in ((0, 1) if (rep + i) % 2 == 0 else (1, 0)):
                    fn, state = per_tree[t]
                    times[kind][t].append(timed(fn, state, args.calls))
    print(f"{'kind':>15} {'A us':>9} {'B us':>9} {'B/A':>7}")
    medians = {}
    for kind in kinds:
        medians[kind] = [statistics.median(t) * 1e6 for t in times[kind]]
        a, b = medians[kind]
        print(f"{kind:>15} {a:>9.1f} {b:>9.1f} {b / a:>7.3f}")
    a, b = (statistics.median(medians[k][t] for k in TRIPARTITE) for t in (0, 1))
    print(f"{'tripartite p50':>15} {a:>9.1f} {b:>9.1f} {b / a:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
