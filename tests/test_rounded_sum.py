"""The rounding of long Gram sums: schwarz._rounded_sum against math.fsum,
bit for bit, and the sums it settles in minor_sum_sq and concurrence.

_rounded_sum rounds the terms of a list of float64 arrays, as _gram_sums
hands it one row per tile; every test passes copies, as it overwrites them.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc import SamplerSpec, concurrence, make_state, matricize, minor_sum_sq, sample_state
from qconc import schwarz

GATE = schwarz._EXTRACT


def _outcome(fn, values):
    """fn(values) as float hex, or the type of the exception it raised."""
    try:
        return fn(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def _assert_fsum_bits(values, cuts=()):
    """_rounded_sum of values, split at cuts, gives math.fsum's bits."""
    values = np.asarray(values, dtype=np.float64)
    parts = [p.copy() for p in np.split(values, list(cuts))]
    want = _outcome(math.fsum, values.tolist())
    assert _outcome(schwarz._rounded_sum, parts) == want


def _padded(values, n, seed=0):
    """values and cancelling pairs +-x of Gaussians, shuffled, n terms."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((n - len(values)) // 2)
    extra = [0.0] if (n - len(values)) % 2 else []
    terms = np.concatenate([values, half, -half, extra])
    return terms[rng.permutation(n)]


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, max_size=60), st.lists(finite, max_size=30),
       st.lists(st.integers(0, 90), max_size=3))
def test_matches_fsum(values, cancelled, cuts):
    # Each of cancelled also comes negated, times 1 + 2**-52 where its
    # position is odd, so the sum cancels to a few ulps of its terms.
    opposite = [-v * (1.0 + 2.0**-52 * (i % 2)) for i, v in enumerate(cancelled)]
    terms = values + cancelled + opposite
    _assert_fsum_bits(terms, sorted(c for c in cuts if c <= len(terms)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4000), st.sampled_from([2, 60, 600, 2000]))
def test_long_sums_over_wide_exponents_match_fsum(seed, n, spread):
    rng = np.random.default_rng(seed)
    terms = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-spread // 2, spread // 2, n))
    terms[rng.random(n) < 0.3] *= -1.0
    cuts = np.sort(rng.integers(0, n, rng.integers(0, 4)))
    _assert_fsum_bits(terms, cuts)


@pytest.mark.parametrize("x", [1.0, 0.1, 3e-310, 1.5e300, -7.25])
def test_cancellation(x):
    _assert_fsum_bits([x, -x])
    _assert_fsum_bits(_padded([x, -x, 2.0**-60], 3000))
    assert schwarz._rounded_sum([np.array([x, 2.0**-60, -x])]) == 2.0**-60


@pytest.mark.parametrize(
    "terms, want",
    [
        ([1.0, 2.0**-53], 1.0),  # a tie: to even
        ([1.0, 2.0**-53, 2.0**-106], 1.0 + 2.0**-52),  # past the midpoint
        ([1.0, 2.0**-53, -(2.0**-106)], 1.0),  # short of it
        ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),  # a tie from odd: up
        ([-1.0, -(2.0**-53), -(2.0**-106)], -(1.0 + 2.0**-52)),
    ],
)
def test_midpoints_round_to_even(terms, want):
    assert schwarz._rounded_sum([np.array(terms)]) == want
    for n in (len(terms), GATE - 1, GATE, GATE + 1, 5000):
        padded = _padded(terms, n, seed=n)
        assert math.fsum(padded.tolist()) == want
        _assert_fsum_bits(padded, [n // 3])


def test_subnormal_terms_only():
    rng = np.random.default_rng(3)
    for n in (1, 2, 17, GATE, 3000):
        _assert_fsum_bits(rng.integers(-2**40, 2**40, n) * 5e-324)
        _assert_fsum_bits(np.full(n, 5e-324))
        _assert_fsum_bits(rng.integers(-3, 4, n) * 2.0**-1073)


@pytest.mark.parametrize("n", [1, 2, 3, 6, GATE, 3000])
def test_terms_near_the_top_of_the_range(n):
    # 2**M >= n + 2, and terms below 2**(1023 - M) take the extraction
    # levels, sigma up to 2**1023; larger ones go to fsum, which may raise
    # OverflowError, as fsum itself does.  The suite turns an overflow
    # warning into an error.
    m = (n + 1).bit_length()
    rng = np.random.default_rng(n)
    for top in (2.0 ** (1023 - m) * (1 - 2.0**-53), 2.0 ** (1023 - m), 2.0**1023, 1.7e308):
        terms = top * rng.uniform(-1.0, 1.0, n)
        terms[0] = top
        _assert_fsum_bits(terms)
        _assert_fsum_bits(np.abs(terms))
    with mock.patch.object(schwarz.math, "fsum", wraps=math.fsum) as fsum:
        schwarz._rounded_sum([np.full(n, 2.0 ** (1022 - m))])
    assert all(isinstance(call.args[0], list) for call in fsum.call_args_list)  # levels


def test_zeros_and_signed_zeros():
    for n in (1, 2, GATE, 3000):
        for zero in (0.0, -0.0):
            _assert_fsum_bits(np.full(n, zero))
        _assert_fsum_bits(np.where(np.arange(n) % 2, 0.0, -0.0))
        _assert_fsum_bits(np.concatenate([np.full(n, -0.0), [1.0, -1.0]]))
    assert schwarz._rounded_sum([np.empty(0), np.empty(0)]) == math.fsum([])
    _assert_fsum_bits(np.zeros(10), [0, 0, 10])  # empty parts among the others


def test_non_finite_terms():
    # fsum's own outcome: inf, nan, or ValueError for inf - inf, also where
    # the non-finite term is in a later part than the largest finite one.
    for bad in ([math.inf], [-math.inf], [math.nan], [math.inf, -math.inf]):
        for n in (3, 3000):
            _assert_fsum_bits(np.concatenate([np.linspace(-1.0, 2.0, n), bad]), [n // 2, n])


@pytest.mark.parametrize("r", [22, 23, 24])
def test_the_gate_routes_by_term_count(monkeypatch, r):
    # 2 r (r - 1) terms: 924, 1012 and 1104.  Below the gate the sum is
    # math.fsum over Python floats, from it _rounded_sum, and the bits are
    # the same either way, also with the gate at the count or one past it.
    mat = matricize(sample_state(SamplerSpec((r, r), "haar", r)), 1)
    near = np.outer(mat[0], mat[1]) + 1e-9 * mat  # near rank 1: several levels
    terms = 2 * r * (r - 1)
    for m in (mat, near):
        want = minor_sum_sq(m).hex()
        for gate in (GATE, terms, terms + 1):
            monkeypatch.setattr(schwarz, "_EXTRACT", gate)
            with mock.patch.object(schwarz, "_rounded_sum", wraps=schwarz._rounded_sum) as rounded:
                assert minor_sum_sq(m).hex() == want
            assert rounded.call_count == (terms >= gate)


# minor_sum_sq of cut 1 of sample_state(SamplerSpec((n, n), kind, 5)), recorded
# with every sum rounded by math.fsum; [160, 160] runs in 4 tiles.
PINNED = {
    ("haar", 23): "0x1.d60151e1fb9aep-2",
    ("haar", 24): "0x1.d19065579f2f0p-2",
    ("haar", 64): "0x1.f01d849922dffp-2",
    ("haar", 160): "0x1.f9978bd632e02p-2",
    ("product", 23): "0x1.ec97800000000p-108",
    ("product", 24): "0x1.0246ec0000000p-107",
    ("product", 64): "0x1.9965f20000000p-108",
    ("product", 160): "0x1.daf8638000000p-108",
}


@pytest.mark.parametrize("kind, n", sorted(PINNED))
def test_pinned_sums(kind, n):
    mat = matricize(sample_state(SamplerSpec((n, n), kind, 5)), 1)
    assert minor_sum_sq(mat).hex() == PINNED[kind, n]


_DISPATCH_PROBE = """
import json, sys
import numpy as np
from numpy._core import _multiarray_umath as umath
from qconc import concurrence, make_state
off = [f for f in sys.argv[1].split() if umath.__cpu_features__.get(f)]
out = []
for path in sys.argv[2:]:
    report = concurrence(make_state([32, 32], np.load(path)))
    out.append([report.value.hex(), [v.hex() for _, v in report.per_cut_sums]])
print(json.dumps({"still_on": off, "reports": out}))
"""


def test_sums_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # Where numpy dispatches its loops past its baseline, a subprocess with
    # those features disabled sums the residues in another order; the
    # correctly rounded result cannot move.  The amplitudes are made here
    # and handed over: sample_state's own products move with the dispatch.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    found = [f for f in getattr(umath, "__cpu_dispatch__", ())
             if umath.__cpu_features__.get(f)]
    if not found:
        pytest.skip("numpy dispatches nothing past its baseline here")
    paths, want = [], []
    for kind in ("haar", "product"):
        amps = sample_state(SamplerSpec((32, 32), kind, 1)).amps
        paths.append(str(tmp_path / f"{kind}.npy"))
        np.save(paths[-1], amps)
        report = concurrence(make_state([32, 32], amps))
        want.append([report.value.hex(), [v.hex() for _, v in report.per_cut_sums]])
    src = str(Path(schwarz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=" ".join(found))
    run = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE, " ".join(found), *paths],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(run.stdout)
    assert got["still_on"] == []
    assert got["reports"] == want
