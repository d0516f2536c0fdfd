#!/usr/bin/env python3
"""One sha256 over qconc's public outputs on a fixed seeded corpus.

Two source trees whose outputs agree bit for bit print the same digest:
run the script once per tree, with that tree's src/ on PYTHONPATH, and
compare the last lines.  Per seed (--states of them) the corpus holds Haar
and product states of several shapes, [23,23] and [24,24] among them
(GATE_SHAPES: 1012 and 1104 terms per Gram sum, either side of the gate
from which they are rounded by extraction rather than math.fsum), a Haar
[64,64] state times 10**-k, k up to 40 per amplitude (its cuts slice to
their cap and each Gram pass runs in two tiles), near-product states u (x)
v (x) ... + delta u' (x) v' (x) ... (delta below, near and above the
default tolerance), biseparable states (an entangled pair times a qudit,
in both orders), and the same states times 1e150 and 1e-150; then Bell,
GHZ and W;
then two [2,2] near ties (NEAR_TIES), whose rows differ by a factor of
about 1 + 2**-52, so that they pin the entry the factors are taken at.
No state has more than 4096 amplitudes.  Hashed, in this order per state:

- max_abs_minor and minor_sum_sq, as float hex, of each cut's unfolding
  and of its transpose, each as given and times 2**500 and 2**-500;
- the concurrence's per-cut sums (two- and three-part states);
- is_separable_cut of each cut and full_separability at the tolerances
  1e-9, 1e-13, 0.5 and 5.7e-14, and at each cut's own threshold (its
  largest |minor| over its squared peak, as full_separability first reads
  the cut) and the doubles on either side of it;
- stdout, stderr and exit code of in-process cli_main calls (concurrence,
  separability, factorize and fullsep, some failing on purpose) on about
  24 states of the corpus and on the near ties;
- the same of cli_main sample calls writing to stdout (SAMPLE_CALLS: Haar,
  product and basis specs), which pins the state file writer's bytes;
- parse_state of PARSE_DOCUMENTS: integer, -0.0 and large-integer
  components, and pairs it refuses.

An exception a call raises is hashed as its type and message.  The script
prints the thread variables, the number of records and the digest.
BLAS runs on one thread, as in minor_timing.py, unless the thread
variables (THREAD_VARS) are set.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from qconc import (  # noqa: E402
    FullSeparabilityResult,
    PureState,
    QconcError,
    SamplerSpec,
    SeparabilityCertificate,
    concurrence,
    emit_state,
    full_separability,
    is_separable_cut,
    make_state,
    matricize,
    max_abs_minor,
    minor_sum_sq,
    normalize,
    parse_state,
    sample_state,
    tensor,
)
from qconc.cli import cli_main  # noqa: E402
from qconc.states import peak_scaled  # noqa: E402

TOLERANCES = (1e-9, 1e-13, 0.5, 5.7e-14)
GATE_SHAPES = ((23, 23), (24, 24))

# Amplitudes (hex re, im) of [2,2] states outer([a z, a (1 + 2**-52) z], [1, w]):
# the peak-scaled moduli of the two rows' first entries round to a tie, and
# over the norm they do not.
NEAR_TIES = (
    (("0x1.a481318435a31p-2", "-0x1.9a9ef3f7d2fc2p-2"),
     ("-0x1.1f1c611a16c24p-2", "-0x1.52e11cfe6a15fp-2"),
     ("0x1.a481318435a32p-2", "-0x1.9a9ef3f7d2fc3p-2"),
     ("-0x1.1f1c611a16c25p-2", "-0x1.52e11cfe6a15fp-2")),
    (("-0x1.9b00a27f5a2d4p-2", "-0x1.007b61aaa779dp-1"),
     ("0x1.cd233100b1ecep-3", "-0x1.95db859845f2dp-7"),
     ("-0x1.9b00a27f5a2d5p-2", "-0x1.007b61aaa779ep-1"),
     ("0x1.cd233100b1ed1p-3", "-0x1.95db859845f27p-7")),
)

# 3 x 2731 = 8193 amplitudes: past 2**13 pairs, the writer formats more than
# one block of values.
SAMPLE_CALLS = (
    ["sample", "--dims", "32,32", "--kind", "haar", "--seed", "1"],
    ["sample", "--dims", "3,2731", "--kind", "haar", "--seed", "2"],
    ["sample", "--dims", "3,4,5", "--kind", "product", "--seed", "3"],
    ["sample", "--dims", "4,8", "--kind", "basis", "--seed", "4"],
)

PARSE_DOCUMENTS = (
    '{"dims": [2, 2], "amps": [[1, 0], [0, -2], [3, 0], [0, 4]]}',
    '{"dims": [2], "amps": [[-0.0, 1.0], [0.0, -0.0]], "label": "signed zeros"}',
    '{"dims": [3], "amps": [[18446744073709555713, -9223372036854775809], '
    '[9007199254740993, 1e300], [-0, 5e-324]]}',
    '{"dims": [2], "amps": [[1, 0], [' + "9" * 400 + ', 0]]}',
    '{"dims": [2], "amps": [[1, 0], [0, true]]}',
    '{"dims": [2], "amps": []}',
)


def near_product(rng, dims, factor) -> PureState:
    """t + delta t', t = u (x) v (x) ... and t' = u' (x) v' (x) ... of unit
    vectors with u' orthogonal to u, v' to v and so on, so every cut is
    exactly rank 2; delta is factor times 1e-9 max |t|^2."""
    first, second = np.ones(1), np.ones(1)
    for n in dims:
        u, z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        u /= np.linalg.norm(u)
        z -= np.vdot(u, z) * u
        first, second = np.kron(first, u), np.kron(second, z / np.linalg.norm(z))
    delta = factor * 1e-9 * float(np.max(np.abs(first))) ** 2
    return make_state(list(dims), first + delta * second)


def corpus(states: int) -> list[tuple[str, PureState]]:
    """(name, state) pairs, the same for the same count on every run."""
    cases = []
    for seed in range(states):
        for dims in [(2, 2), (3, 5), (8, 8), (32, 32), (2, 3, 4), (4, 4, 4), (8, 8, 8),
                     (2, 2, 2, 2)]:
            cases.append((f"haar{dims}/{seed}", sample_state(SamplerSpec(dims, "haar", seed))))
        for dims in [(8, 8), (32, 32), (2, 3, 4), (8, 8, 8)]:
            cases.append((f"product{dims}/{seed}", sample_state(SamplerSpec(dims, "product", seed))))
        for dims in GATE_SHAPES:
            for kind in ("haar", "product"):
                cases.append((f"{kind}{dims}/{seed}", sample_state(SamplerSpec(dims, kind, seed))))
        rng = np.random.default_rng(1000 + seed)
        wide = sample_state(SamplerSpec((64, 64), "haar", seed)).amps
        cases.append((f"two-tiles/{seed}",
                      make_state([64, 64], wide * 10.0 ** -rng.integers(0, 41, wide.size))))
        for dims in [(4, 6), (8, 64), (8, 8, 8)]:
            for factor in (0.05, 0.99, 1.0, 1.01, 30.0):
                cases.append((f"near{dims}x{factor}/{seed}", near_product(rng, dims, factor)))
        pair = sample_state(SamplerSpec((8, 8), "haar", seed))
        qudit = sample_state(SamplerSpec((8,), "haar", seed))
        cases.append((f"pair-qudit/{seed}", tensor(pair, qudit)))
        cases.append((f"qudit-pair/{seed}", tensor(qudit, pair)))
    for name, state in cases[::4]:
        for scale in (1e150, 1e-150):
            cases.append((f"{name}x{scale}", make_state(list(state.dims), state.amps * scale)))
    s2, s3 = 1 / math.sqrt(2), 1 / math.sqrt(3)
    cases.append(("bell", make_state([2, 2], [s2, 0, 0, s2])))
    cases.append(("ghz", make_state([2, 2, 2], [s2, 0, 0, 0, 0, 0, 0, s2])))
    cases.append(("w", make_state([2, 2, 2], [0, s3, s3, 0, s3, 0, 0, 0])))
    return cases


def near_ties() -> list[tuple[str, PureState]]:
    """(name, state) pairs of NEAR_TIES."""
    return [(f"near-tie/{i}", make_state([2, 2], [complex(float.fromhex(re), float.fromhex(im))
                                                  for re, im in amps]))
            for i, amps in enumerate(NEAR_TIES)]


def canon(value):
    """A nested tuple of str, bytes, int and bool with every output bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, PureState):
        return (value.dims, value.amps.tobytes())
    if isinstance(value, SeparabilityCertificate):
        return canon((value.cut, value.max_abs_minor, value.tolerance, value.separable,
                      value.factors))
    if isinstance(value, (tuple, list)):
        return tuple(canon(v) for v in value)
    if isinstance(value, FullSeparabilityResult):
        return canon((value.fully_separable, value.factors, value.failed, value.remainder,
                      value.remainder_subsystems))
    return value


def outcome(fn, *args):
    """fn(*args) in canonical form, or the type and message it raised."""
    try:
        return canon(fn(*args))
    except (QconcError, ValueError, IndexError) as exc:
        return (type(exc).__name__, str(exc))


def thresholds(state: PureState) -> list[float]:
    """Each cut's own threshold, as full_separability first reads the cut,
    with the doubles on either side of it."""
    amps, _ = peak_scaled(normalize(state))
    scaled = PureState(state.dims, amps)
    out = []
    for cut in range(1, state.subsystem_count + 1):
        tol = max_abs_minor(matricize(scaled, cut)) / float(np.max(np.abs(amps))) ** 2
        if tol > 0.0:
            out += [math.nextafter(tol, 0.0), tol, math.nextafter(tol, math.inf)]
    return out


def records(state: PureState):
    """Every hashed output of one state, in order."""
    for cut in range(1, state.subsystem_count + 1):
        mat = matricize(state, cut)
        for x in (mat, mat.T):
            for e in (0, 500, -500):
                scaled = np.ldexp(np.ascontiguousarray(x).view(np.float64), e).view(np.complex128)
                yield ("max", cut, e, outcome(max_abs_minor, scaled))
                yield ("sum", cut, e, outcome(minor_sum_sq, scaled))
    if state.subsystem_count in (2, 3):
        yield ("concurrence", outcome(lambda: concurrence(state).per_cut_sums))
    for tol in TOLERANCES + tuple(thresholds(state)):
        for cut in range(1, state.subsystem_count + 1):
            yield ("cut", cut, tol.hex(), outcome(is_separable_cut, state, cut, tol))
        yield ("full", tol.hex(), outcome(full_separability, state, tol))


def cli_calls(name: str):
    """argv lists for one state file, some of them failing on purpose."""
    yield ["concurrence", "--state", name]
    for tol in ("1e-9", "5.7e-14"):
        yield ["separability", "--state", name, "--tol", tol]
        yield ["fullsep", "--state", name, "--tol", tol]
    yield ["factorize", "--state", name, "--cut", "1"]
    yield ["separability", "--state", name, "--cut", "9"]
    yield ["fullsep", "--state", name, "--tol", "-1"]


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=3, help="seeds of the corpus")
    args = parser.parse_args()
    if args.states < 1:
        parser.error(f"--states must be at least 1, got {args.states}")

    print("threads: " + " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS))
    digest, count = hashlib.sha256(), 0

    def feed(record) -> None:
        nonlocal count
        digest.update(repr(record).encode() + b"\n")
        count += 1

    cases, ties = corpus(args.states), near_ties()
    for name, state in cases + ties:
        for record in records(state):
            feed((name,) + record)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative file names: the documents echo them
        try:
            for i, (name, state) in enumerate(cases[:: max(1, len(cases) // 24)] + ties):
                path = f"state{i}.json"
                with open(path, "w", encoding="utf-8") as f:
                    f.write(emit_state(state, label=name))
                for argv in cli_calls(path):
                    feed((name, argv, run_cli(argv)))
        finally:
            os.chdir(home)
    for argv in SAMPLE_CALLS:
        feed((argv, run_cli(argv)))
    for doc in PARSE_DOCUMENTS:
        feed(("parse", doc, outcome(parse_state, doc)))
    print(f"records: {count}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
