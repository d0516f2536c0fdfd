"""Tests for Schwarz gaps, matricizations, and the 2x2 minor kernel."""

import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc import (
    InternalConsistencyError,
    NonFiniteError,
    SamplerSpec,
    ShapeError,
    make_state,
    matricize,
    max_abs_minor,
    minor_sum_sq,
    sample_state,
    schwarz_gap,
)
from qconc import schwarz
from qconc.states import normalize, peak_scaled

from conftest import bell_state, ghz_state, near_product_state, qutrit_pair, unfold_brute_force

SQ2 = 1.0 / math.sqrt(2.0)

complex_vectors = st.lists(
    st.tuples(
        st.floats(-100, 100, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
    ),
    min_size=2,
    max_size=16,
).map(lambda pairs: np.array([complex(re, im) for re, im in pairs]))


class TestSchwarzGap:
    def test_orthogonal_unit_vectors(self):
        assert schwarz_gap([1, 0], [0, 1]) == 1.0

    def test_parallel_vectors(self):
        assert schwarz_gap([1, 1], [2, 2]) == 0.0

    def test_direct_evaluation(self):
        # norms 5 and 5, inner product 4: 25 - 16 = 9
        assert schwarz_gap([1, 2], [2, 1]) == pytest.approx(9.0, abs=1e-12)

    def test_complex_parallel_with_phase(self):
        x = np.array([1 + 1j, 2 - 1j, 0.5j])
        assert schwarz_gap(x, (0.3 - 0.7j) * x) <= 1e-12 * 100

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            schwarz_gap([1, 0], [1, 0, 0])

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            schwarz_gap([], [])

    def test_length_one_vectors(self):
        # Gap is identically zero in one dimension.
        assert schwarz_gap([3 + 4j], [1 - 2j]) <= 1e-12 * 125

    @given(complex_vectors, complex_vectors)
    def test_nonnegative(self, x1, x2):
        n = min(len(x1), len(x2))
        assert schwarz_gap(x1[:n], x2[:n]) >= 0.0

    def test_underflowed_scale_clamps(self):
        # Parallel with n1 * n2 subnormal: the one minor is exactly 0.
        assert schwarz_gap([6j, 0], [5.21765229e-161j, 0]) == 0.0

    def test_huge_parallel_vectors_give_zero(self):
        # Unscaled, n1 * n2 overflows to inf and inf - inf is NaN.
        assert schwarz_gap([1e200], [1e200]) == 0.0
        assert schwarz_gap([1e200, 0], [0, 1e200]) == math.inf

    @pytest.mark.parametrize("x1, x2", [([np.nan], [1]), ([np.inf, 0], [0, 1]), ([1, 0], [0, -np.inf])])
    def test_non_finite_raises(self, x1, x2):
        with pytest.raises(NonFiniteError):
            schwarz_gap(x1, x2)

    @pytest.mark.parametrize("p1, p2", [(-600, 300), (500, -500), (-3, 0), (0, 0)])
    def test_power_of_two_scaling_is_exact(self, p1, p2):
        rng = np.random.default_rng(abs(p1 - p2))
        x1, x2 = _gaussian(rng, 5), _gaussian(rng, 5)
        want = math.ldexp(schwarz_gap(x1, x2), 2 * (p1 + p2))
        got = schwarz_gap(np.ldexp(x1.view(float), p1).view(complex),
                          np.ldexp(x2.view(float), p2).view(complex))
        assert got.hex() == want.hex()

    def test_consistency_error_is_exported(self):
        # The clamp is exercised in TestMinorSumAccuracy; the error class
        # itself must exist for callers that trap it.
        assert issubclass(InternalConsistencyError, Exception)


def _pairwise_minor_sum(x1, x2):
    """sum_{a<b} |x1_a x2_b - x1_b x2_a|^2 from the minors themselves:
    the other side of the Lagrange identity, independent of minor_sum_sq."""
    x1, x2 = np.asarray(x1, dtype=complex), np.asarray(x2, dtype=complex)
    minors = x1[:, None] * x2[None, :] - x1[None, :] * x2[:, None]
    upper = minors[np.triu_indices(x1.size, 1)]
    return math.fsum((upper.real**2 + upper.imag**2).tolist())


class TestGapEqualsMinorSum:
    def test_single_minor(self):
        assert schwarz_gap([1, 0], [0, 1]) == _pairwise_minor_sum([1, 0], [0, 1]) == 1.0

    def test_identical_vectors(self):
        assert schwarz_gap([1, 1], [1, 1]) == _pairwise_minor_sum([1, 1], [1, 1]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            schwarz_gap([1], [1, 2])

    @given(complex_vectors, complex_vectors)
    def test_agreement_within_scale(self, x1, x2):
        n = min(len(x1), len(x2))
        x1, x2 = x1[:n], x2[:n]
        gap, minor_sum = schwarz_gap(x1, x2), _pairwise_minor_sum(x1, x2)
        scale = float(np.vdot(x1, x1).real * np.vdot(x2, x2).real)
        assert abs(gap - minor_sum) <= 1e-10 * max(scale, 1.0)
        assert gap >= 0.0

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_agreement_length_eight(self, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        gap, minor_sum = schwarz_gap(x1, x2), _pairwise_minor_sum(x1, x2)
        scale = float(np.vdot(x1, x1).real * np.vdot(x2, x2).real)
        assert abs(gap - minor_sum) <= 1e-10 * scale

    @pytest.mark.parametrize("seed", range(50))
    def test_near_parallel_pairs_within_bound(self, seed):
        # x2 = c x1 + 1e-9 noise: the gap is about 1e-18 of ||x1||^2 ||x2||^2,
        # where a plain float gap ||x1||^2 ||x2||^2 - |<x1|x2>|^2 cancels.
        rng = np.random.default_rng(seed + 9000)
        n = int(rng.integers(2, 33))
        x1 = _gaussian(rng, n)
        x2 = complex(*rng.standard_normal(2)) * x1 + 1e-9 * _gaussian(rng, n)
        gap = schwarz_gap(x1, x2)
        exact, fro2 = _exact_sum(np.vstack([x1, x2]))
        assert abs(Fraction(gap) - exact) <= exact / 2**52 + Fraction(schwarz._BOUND) * fro2**2
        assert abs(Fraction(gap) - exact) <= Fraction(1e-10) * exact


class TestParallelismEquivalence:
    """gap <= 1e-20 on unit pairs exactly when every |minor|^2 <= 1e-20."""

    def _minor_sq_max(self, x1, x2):
        pair = np.vstack([x1, x2])
        return max((abs(v) ** 2 for *_, v in _scalar_minor_values(pair)), default=0.0)

    # Multipliers whose components are signed powers of two: scaling by them
    # is exact in IEEE double, so the pairs are parallel in floating point,
    # not merely in exact arithmetic.
    EXACT_MULTIPLIERS = [1.0, -1.0, 2.0, -0.5, 1j, -1j, 2j, -0.25j, 4.0, 0.125j]

    @pytest.mark.parametrize("mult", EXACT_MULTIPLIERS)
    def test_constructed_parallel_pairs(self, mult):
        rng = np.random.default_rng(abs(int(mult.real * 8 + mult.imag * 1024)) + 5)
        x1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x1 /= np.linalg.norm(x1)
        x2 = mult * x1
        assert schwarz_gap(x1, x2) <= 1e-20
        assert self._minor_sq_max(x1, x2) <= 1e-20

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbed_pairs(self, seed):
        rng = np.random.default_rng(seed + 1000)
        x1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x1 /= np.linalg.norm(x1)
        bump = np.zeros(6, dtype=complex)
        bump[rng.integers(6)] = 1e-6
        x2 = x1 + bump
        x2 /= np.linalg.norm(x2)
        # A 1e-6 kick moves both sides of the equivalence well above 1e-20.
        assert schwarz_gap(x1, x2) > 1e-20
        assert self._minor_sq_max(x1, x2) > 1e-20


class TestMatricize:
    def test_ghz_cut_1(self):
        mat = matricize(ghz_state(), 1)
        expected = [[SQ2, 0, 0, 0], [0, 0, 0, SQ2]]
        np.testing.assert_allclose(mat, expected)
        assert mat.shape == (2, 4)
        assert mat.dtype == np.complex128

    def test_bell_cut_1_is_diagonal(self):
        mat = matricize(bell_state(), 1)
        np.testing.assert_allclose(mat, [[SQ2, 0], [0, SQ2]])

    def test_sequential_amps_cut_2(self):
        s = make_state([2, 3], [1, 2, 3, 4, 5, 6])
        mat = matricize(s, 2)
        np.testing.assert_allclose(mat, [[1, 4], [2, 5], [3, 6]])

    def test_cut_out_of_range(self):
        s = make_state([2, 2], [1, 0, 0, 0])
        with pytest.raises(IndexError):
            matricize(s, 0)
        with pytest.raises(IndexError):
            matricize(s, 3)

    @pytest.mark.parametrize("cut", [True, False, 1.0, 2.0, np.bool_(True)])
    def test_bool_or_float_cut_refused(self, cut):
        with pytest.raises(IndexError, match=f"cut {cut} out of range"):
            matricize(make_state([2, 2], [1, 0, 0, 0]), cut)

    def test_numpy_integer_cut(self):
        s = make_state([2, 3], [1, 2, 3, 4, 5, 6])
        assert np.array_equal(matricize(s, np.int64(2)), matricize(s, 2))

    @pytest.mark.parametrize(
        "dims", [(2, 3), (3, 2), (2, 2, 2), (2, 3, 4), (4, 1, 2), (5,)]
    )
    def test_matches_brute_force_unfolding(self, dims):
        rng = np.random.default_rng(hash(dims) % 2**32)
        size = math.prod(dims)
        s = make_state(dims, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for cut in range(1, len(dims) + 1):
            mat = matricize(s, cut)
            np.testing.assert_array_equal(mat, unfold_brute_force(s, cut))
            assert mat.size == s.size

    def test_entry_matches_amplitude_contract(self):
        s = make_state([2, 3, 2], np.arange(1, 13))
        mat = matricize(s, 2)
        from qconc import amplitude

        # Columns run over the remaining subsystems (1 and 3), row-major.
        for r in range(1, 3 + 1):
            for c, (i1, i3) in enumerate(product(range(1, 3), range(1, 3))):
                assert mat[r - 1, c] == amplitude(s, (i1, r, i3))

    def test_entries_are_read_only(self):
        mat = matricize(bell_state(), 1)
        with pytest.raises(ValueError):
            mat[0, 0] = 9.0

    def test_single_subsystem_has_one_column(self):
        mat = matricize(make_state([3], [1, 2, 3]), 1)
        assert mat.shape == (3, 1)


class TestEnumerateMinors:
    """Every minor of a matrix, as the kernel reduces it: counts by math.comb,
    moduli of the parts against the determinant definition."""

    def test_identity_2x2(self):
        assert _kernel_minor_bits(np.eye(2)) == [_abs_bits(1.0 + 0j)]

    def test_2x4_has_six_terms(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((2, 4))
        assert len(_kernel_minor_bits(m)) == 6

    def test_all_ones_3x3(self):
        values = list(_scalar_minor_values(np.ones((3, 3))))
        assert len(values) == 9
        assert all(v == 0.0 for *_, v in values)
        assert max_abs_minor(np.ones((3, 3))) == minor_sum_sq(np.ones((3, 3))) == 0.0

    @pytest.mark.parametrize("nr", range(1, 7))
    @pytest.mark.parametrize("nc", range(1, 7))
    def test_count_exhaustive(self, nr, nc):
        m = np.arange(nr * nc, dtype=float).reshape(nr, nc)
        expected = math.comb(nr, 2) * math.comb(nc, 2)
        assert len(_kernel_minor_bits(m)) == expected
        assert len(list(_scalar_minor_values(m))) == expected

    def test_values_match_determinant_definition(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        want = [
            _abs_bits(m[a, c] * m[b, d] - m[a, d] * m[b, c])
            for (a, b), (c, d) in product(combinations(range(4), 2), combinations(range(5), 2))
        ]
        assert _kernel_minor_bits(m) == sorted(want)

    def test_accepts_matricization(self):
        mat = matricize(bell_state(), 1)
        assert _kernel_minor_bits(mat) == [_abs_bits(complex(SQ2 * SQ2))]
        assert max_abs_minor(mat) == pytest.approx(0.5)

    def test_degenerate_shapes_empty(self):
        for m in (np.ones((1, 5)), np.ones((5, 1))):
            assert _kernel_minor_bits(m) == []
            assert max_abs_minor(m) == minor_sum_sq(m) == 0.0

    def test_non_2d_raises(self):
        for fn in (minor_sum_sq, max_abs_minor):
            with pytest.raises(ShapeError):
                fn(np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        m = np.ones((3, 3), dtype=complex)
        m[1, 2] = bad
        for fn in (minor_sum_sq, max_abs_minor):
            with pytest.raises(NonFiniteError):
                fn(m)


class TestMinorSumSq:
    def test_bell(self):
        assert minor_sum_sq(matricize(bell_state(), 1)) == pytest.approx(0.25, abs=1e-15)

    def test_ghz_cut_1(self):
        assert minor_sum_sq(matricize(ghz_state(), 1)) == pytest.approx(0.25, abs=1e-15)

    def test_qutrit_pair(self):
        assert minor_sum_sq(matricize(qutrit_pair(), 1)) == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_vanishes(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        m = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        assert minor_sum_sq(m) <= 1e-20

    @pytest.mark.parametrize("seed", range(5))
    def test_transpose_symmetry(self, seed):
        rng = np.random.default_rng(seed + 77)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        a = minor_sum_sq(m)
        b = minor_sum_sq(m.T)
        assert abs(a - b) <= 1e-12 * max(a, b)

    @pytest.mark.parametrize("c, seed", [(2.0, 0), (0.5, 1), (1 + 2j, 2), (-3j, 3)])
    def test_quartic_scaling(self, c, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        base = minor_sum_sq(m)
        scaled = minor_sum_sq(c * m)
        assert scaled == pytest.approx(abs(c) ** 4 * base, rel=1e-10)

    def test_max_abs_minor(self):
        m = np.array([[1.0, 0.0], [0.0, 3.0]])
        assert max_abs_minor(m) == 3.0
        assert max_abs_minor(np.ones((1, 4))) == 0.0

    def test_deterministic_repetition(self):
        rng = np.random.default_rng(123)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert minor_sum_sq(m) == minor_sum_sq(m)


def _scalar_minor_values(entries):
    """Reference: every minor by scalar Python complex arithmetic.

    Yields (a, b, c, d, value) with 0-based indices in lexicographic order;
    this is the loop the vectorized kernel replaced, kept as its oracle.
    """
    nr, nc = entries.shape
    if nr < 2 or nc < 2:
        return
    rows = [tuple(complex(z) for z in row) for row in entries]
    for a in range(nr - 1):
        ra = rows[a]
        for b in range(a + 1, nr):
            rb = rows[b]
            for c in range(nc - 1):
                rac = ra[c]
                rbc = rb[c]
                for d in range(c + 1, nc):
                    yield a, b, c, d, rac * rb[d] - ra[d] * rbc


def _abs_bits(z):
    # The kernel's wrapped minors come out negated (q - p for p - q), and
    # even a zero minor's sign differs between the two: the bits of |re|
    # and |im| are what it shares with the scalar loop.
    return abs(z.real).hex(), abs(z.imag).hex()


def _minor_count(m):
    nr, nc = np.shape(m)
    return math.comb(nr, 2) * math.comb(nc, 2)


def _differential_corpus():
    """Seeded matrices: the named shapes, transposed views, rank 1, tiny, signed zeros."""
    rng = np.random.default_rng(20240917)

    def gaussian(nr, nc):
        return rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))

    corpus = []
    for nr, nc in [(1, 7), (7, 1), (2, 2), (3, 5), (9, 9), (8, 64)]:
        for rep in range(1 if nr * nc > 81 else 3):
            m = gaussian(nr, nc)
            corpus.append((f"gauss{nr}x{nc}#{rep}", m))
            corpus.append((f"transposed{nc}x{nr}#{rep}", gaussian(nc, nr).T))
            corpus.append((f"tiny{nr}x{nc}#{rep}", m * 1e-150))
            u, v = gaussian(nr, 1), gaussian(1, nc)
            corpus.append((f"rank1_{nr}x{nc}#{rep}", u @ v))
            z = m.copy()
            mask = rng.random(z.shape) < 0.5
            z.real[mask] = np.copysign(0.0, rng.standard_normal(mask.sum()))
            z.imag[~mask] = np.copysign(0.0, rng.standard_normal((~mask).sum()))
            corpus.append((f"zeros{nr}x{nc}#{rep}", z))
            corpus.append((f"zeros_t{nc}x{nr}#{rep}", z.T))
    # Real input (imaginary parts all +0.0) and exact small integers.
    corpus.append(("real9x9", rng.standard_normal((9, 9))))
    corpus.append(("ints6x7", rng.integers(-3, 4, (6, 7)).astype(float)))
    return corpus


DIFFERENTIAL_CORPUS = _differential_corpus()


def _assert_matches_reference(corpus):
    mismatches = []
    for name, m in corpus:
        ref = list(_scalar_minor_values(m))
        ref_max = 0.0
        for *_, v in ref:
            if abs(v) > ref_max:
                ref_max = abs(v)
        if max_abs_minor(m) != ref_max:
            mismatches.append(("max_abs_minor", name))
        if _kernel_minor_bits(m) != sorted(_abs_bits(v) for *_, v in ref):
            mismatches.append(("kernel", name))
    assert mismatches == []


class TestKernelMatchesScalarReference:
    """The vectorized kernel reproduces the scalar complex loop bit for bit."""

    def test_corpus_bitwise(self):
        _assert_matches_reference(DIFFERENTIAL_CORPUS)

    # Steps that batch row pairs (100 minors: two row pairs of a 9x9, so
    # batches cross from one row a to the next) and that split the column
    # pairs into several blocks (7 and 1).
    @pytest.mark.parametrize("chunk", [100, 7, 1])
    def test_corpus_bitwise_small_steps(self, monkeypatch, chunk):
        monkeypatch.setattr(schwarz, "_CHUNK", chunk)
        _assert_matches_reference(
            [(name, m) for name, m in DIFFERENTIAL_CORPUS if _minor_count(m) <= 1296]
        )

    def test_corpus_covers_signed_zero_minors(self):
        # The signed-zero matrices must actually produce -0.0 parts, or the
        # comparison above would not see the kernel on them (as |re| = 0).
        values = [
            v
            for name, m in DIFFERENTIAL_CORPUS
            if name.startswith("zeros")
            for *_, v in _scalar_minor_values(m)
        ]
        assert any(math.copysign(1.0, v.real) < 0 and v.real == 0 for v in values)
        assert any(math.copysign(1.0, v.imag) < 0 and v.imag == 0 for v in values)

    # Entries up to 1e75 keep every squared minor below the overflow threshold.
    @settings(max_examples=100)
    @given(
        st.integers(1, 6),
        st.integers(1, 9),
        st.lists(st.floats(-1e75, 1e75, allow_nan=False), min_size=108, max_size=108),
    )
    def test_arbitrary_finite_entries(self, nr, nc, parts):
        m = np.array(parts[: nr * nc]) + 1j * np.array(parts[54 : 54 + nr * nc])
        _assert_matches_reference([("hypothesis", m.reshape(nr, nc))])


def _small(corpus):
    return [(name, m) for name, m in corpus if _minor_count(m) <= 1296]


_WIDE = ("gauss8x64#0", "zeros_t64x8#0")


def _recorded_steps(call):
    """(call(), copies of the (re, im) of every step the kernel reduced in
    it), recorded by wrapping schwarz._max_modulus."""
    steps = []
    reduce = schwarz._max_modulus

    def recording(re, im, sq):
        steps.append((re.copy(), im.copy()))
        return reduce(re, im, sq)

    with mock.patch.object(schwarz, "_max_modulus", recording):
        value = call()
    return value, steps


def _kernel_steps(m, pairs=None):
    """The (re, im) of every step of the kernel on row pairs ``pairs`` of m."""
    return _recorded_steps(lambda: schwarz._max_minor(schwarz._as_entries(m), pairs))[1]


def _kernel_minor_bits(m, pairs=None):
    """Sorted (|re|, |im|) bits of every minor the kernel reduces for m."""
    return sorted(
        (abs(x).hex(), abs(y).hex())
        for re, im in _kernel_steps(m, pairs)
        for x, y in zip(re.tolist(), im.tolist())
    )


class TestKernelOffsetLayout:
    """What the offset kernel relies on: exact transposition and bounded steps."""

    @pytest.mark.parametrize("chunk", [None, 100, 7, 1])
    def test_transpose_gives_same_bits(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(schwarz, "_CHUNK", chunk)
        corpus = DIFFERENTIAL_CORPUS if chunk is None else _small(DIFFERENTIAL_CORPUS)
        for name, m in corpus:
            assert max_abs_minor(m).hex() == max_abs_minor(m.T).hex(), name

    @pytest.mark.parametrize("chunk", [None, 100, 7, 1])
    def test_every_minor_once_in_either_orientation(self, monkeypatch, chunk):
        # The kernel reads a wide matrix as its transpose; the scalar minors
        # of m and of m.T must both be exactly what it reduces, as multisets
        # of part moduli.
        if chunk is not None:
            monkeypatch.setattr(schwarz, "_CHUNK", chunk)
        corpus = _small(DIFFERENTIAL_CORPUS)
        if chunk is None:  # one tall and one wide tripartite-sized unfolding
            corpus += [(n, m) for n, m in DIFFERENTIAL_CORPUS if n in _WIDE]
        for name, m in corpus:
            got = _kernel_minor_bits(m)
            for ref in (m, m.T):
                assert got == sorted(_abs_bits(v) for *_, v in _scalar_minor_values(ref)), name

    @pytest.mark.parametrize(
        "shape, chunk",
        [((9, 9), 7), ((9, 9), 1), ((9, 9), 100), ((8, 64), 100), ((64, 8), 7), ((3, 40), 16)],
    )
    def test_chunks_hold_at_most_chunk_minors(self, monkeypatch, shape, chunk):
        # A step is one offset of one block of row pairs: at most _CHUNK
        # minors, or one row pair's offset (cols of the tall read, with its
        # wrapped part) when that is longer, as at (9, 9) and _CHUNK = 7.
        monkeypatch.setattr(schwarz, "_CHUNK", chunk)
        rng = np.random.default_rng(sum(shape) * chunk)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sizes = []
        for re, im in _kernel_steps(m):
            assert re.shape == im.shape == (re.size,)
            sizes.append(re.size)
        assert 0 < min(sizes) and max(sizes) <= max(chunk, min(shape))
        assert sum(sizes) == _minor_count(m)


def _full_scan_reference(m):
    """The full np.hypot scan over every scalar minor."""
    minors = np.array([v for *_, v in _scalar_minor_values(m)], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.hypot(minors.real, minors.imag), initial=0.0))


def _rescaled(max_of, m):
    """max_of(m), or where that is not finite, as where products overflow,
    max_of(m 2**-e) scaled back by 2**2e, e the exponent of the largest
    |entry|: what max_abs_minor returns."""
    top = max_of(m)
    if math.isfinite(top):
        return top
    m = np.asarray(m, dtype=complex)
    e = int(np.frexp(np.abs(m).max())[1])
    with np.errstate(over="ignore"):
        return float(np.ldexp(max_of(m * 2.0**-e), 2 * e))


def _assert_reductions_match_full_scan(m):
    want_max = _rescaled(_full_scan_reference, m)
    for chunk in (100, 7, 1):
        with mock.patch.object(schwarz, "_CHUNK", chunk):
            assert max_abs_minor(m).hex() == want_max.hex(), chunk


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestReductionsMatchFullScan:
    """max_abs_minor against a full hypot scan, bit for bit."""

    # Entries from 1e-82 to 1e75 give terms from underflow and subnormals up
    # to about 1e300, mixed within one chunk.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 7))
    def test_wide_magnitudes(self, seed, nr, nc):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
        m *= 10.0 ** rng.integers(-82, 76, (nr, nc))
        m[rng.random((nr, nc)) < 0.2] = 0
        _assert_reductions_match_full_scan(m)

    @pytest.mark.parametrize(
        "m",
        [
            # Ties: many minors of the same largest modulus.
            np.array([[1.0, 1.0, -1.0, 2.0], [1.0, -1.0, 1.0, 0.0], [2.0, 0.0, 0.0, 2.0]]),
            np.kron(np.eye(3), np.ones((2, 2))),
            # |minor| near 1.7e154: its square overflows, hypot does not.
            np.array([[1.3e77, 1e60, 1.2e77], [1e60, 1.3e77, 1e76]]),
            # All-tiny: every square underflows to zero or a subnormal.
            np.full((3, 4), 1e-90) * np.arange(1, 13).reshape(3, 4),
            np.array([[3e-81, 0.0], [0.0, 3e-81j]]),
            # Products overflow, so minors are inf - inf = NaN.
            np.full((2, 3), 1e200),
        ],
        ids=["ties", "block-ties", "square-overflow", "tiny", "subnormal", "nan"],
    )
    def test_edge_matrices(self, m):
        _assert_reductions_match_full_scan(m)

    def test_overflowing_products_are_rescaled(self):
        # Every product overflows, so the kernel's minors are inf - inf =
        # NaN; max_abs_minor computes again at 2**-665 and finds the exact 0.
        m = np.full((2, 3), 1e200)
        assert math.isnan(schwarz._max_minor(m))
        assert max_abs_minor(m) == 0.0

    @pytest.mark.parametrize(
        "re, im",
        [
            ([3.0, -3.0, 0.0, 4.0], [4.0, 4.0, 5.0, -3.0]),
            # re*re + im*im and hypot order these two oppositely, by one ulp.
            ([-0.47814097792371635, -0.7733435123746463], [-0.8782831008451387, 0.6339872332058787]),
            # Subnormal squares: 40 vs 41 units of 2**-1074, yet the first is larger.
            ([1.0061513347050303e-161, 1.4163002937638123e-161], [1.0061513347050303e-161, 0.0]),
            ([1.5e154, 1.4e154, 1e150], [1e154, 1.2e154, 0.0]),
            ([1e-170, 3e-170, 0.0], [2e-170, 0.0, 5e-324]),
            ([1.0, np.nan, 2.0], [0.0, 0.0, 0.0]),
            ([np.inf, 1.0], [np.nan, 0.0]),
            ([0.0, 0.0], [-0.0, 0.0]),
        ],
        ids=["ties", "order", "subnormal-order", "square-overflow", "tiny", "nan", "inf-nan", "zeros"],
    )
    def test_max_modulus_chunks(self, re, im):
        # Each step's reduction, on steps of 1, 2 and all of the values.
        re, im = np.array(re), np.array(im)
        for k in (1, 2, len(re)):
            for i in range(0, len(re), k):
                r, j = re[i : i + k], im[i : i + k]
                want = float(np.hypot(r, j).max())
                assert schwarz._max_modulus(r, j, np.empty(r.size)).hex() == want.hex()


def _exact_sum(m):
    """(sum of squared minors, ||m||_F^2) of m exactly, as Fractions.

    The entries are scaled to integers by one power of two, and the sum is
    taken over the Schwarz gaps of the rows: sum_{a<b} G_aa G_bb - |G_ab|^2.
    """
    parts = [[z.real.as_integer_ratio() for z in row] + [z.imag.as_integer_ratio() for z in row]
             for row in np.asarray(m, dtype=complex)]
    den = max(d for row in parts for _, d in row)  # powers of two: a common multiple
    rows = [[n * (den // d) for n, d in row] for row in parts]
    c = len(rows[0]) // 2

    def gram(a, b):
        x, y = rows[a], rows[b]
        re = sum(p * q for p, q in zip(x, y))
        im = sum(x[c + j] * y[j] - x[j] * y[c + j] for j in range(c))
        return re, im

    diag = [gram(a, a)[0] for a in range(len(rows))]
    total = 0
    for a, b in combinations(range(len(rows)), 2):
        re, im = gram(a, b)
        total += diag[a] * diag[b] - re * re - im * im
    return Fraction(total, den**4), Fraction(sum(diag), den**2)


def _minor_route(m):
    """math.fsum over the rounded minors: the route the sum used to take."""
    return math.fsum(v.real**2 + v.imag**2 for *_, v in _scalar_minor_values(m))


def _slices_of(m):
    x = np.ascontiguousarray(m, dtype=complex).view(float)
    return schwarz._slices(x, np.frexp(np.abs(x).max(axis=1))[1])


def _assert_within_bound(m):
    # The documented bound: the final rounding plus _BOUND * ||M||_F^4.
    got = minor_sum_sq(m)
    exact, fro2 = _exact_sum(m)
    assert got >= 0.0
    assert abs(Fraction(got) - exact) <= exact / 2**52 + Fraction(schwarz._BOUND) * fro2**2
    return got, exact


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _near_product(seed, delta, shape=(8, 8)):
    """The matrix of the normalized rank-2 state u (x) v + delta u' (x) v'."""
    rng = np.random.default_rng(seed)
    u, u2 = _gaussian(rng, shape[0]), _gaussian(rng, shape[0])
    v, v2 = _gaussian(rng, shape[1]), _gaussian(rng, shape[1])
    m = np.outer(u, v) + delta * np.outer(u2, v2)
    return m / np.linalg.norm(m)


DELTAS = [1e-3, 1e-7, 1e-11, 1e-13]


class TestPastTheDoubleRange:
    """max_abs_minor where products of entries overflow: quiet, as
    minor_sum_sq is (pyproject.toml turns every RuntimeWarning into an
    error), and inf only where the largest |minor| itself overflows."""

    @pytest.mark.parametrize("n", [8, 64])
    def test_gaussian_times_1e300_is_inf(self, n):
        m = _gaussian(np.random.default_rng(n), n, n) * 1e300
        assert max_abs_minor(m) == max_abs_minor(m.T) == minor_sum_sq(m) == math.inf

    @pytest.mark.parametrize("n", [8, 64])
    def test_finite_minors_of_overflowing_products(self, n):
        # Near rank one at 2**510: products pass 2**1024, the minors do not.
        rng = np.random.default_rng(n)
        base = np.outer(_gaussian(rng, n), _gaussian(rng, n)) + 2.0**-30 * _gaussian(rng, n, n)
        big = base * 2.0**510
        with np.errstate(over="ignore", invalid="ignore"):
            assert not math.isfinite(schwarz._max_minor(big))
        assert max_abs_minor(big) == max_abs_minor(big.T) == math.ldexp(max_abs_minor(base), 1020)

    def test_finite_results_keep_their_bits(self):
        # Up to about 2**511 no product overflows and nothing is recomputed.
        m = _gaussian(np.random.default_rng(3), 16, 16) * 2.0**500
        with mock.patch.object(schwarz, "_pruned_max", wraps=schwarz._pruned_max) as spy:
            assert math.isfinite(max_abs_minor(m))
        assert spy.call_count == 1


class TestMinorSumAccuracy:
    """minor_sum_sq (the exact-Gram route) against a fractions reference."""

    def test_reference_is_the_sum_over_minors(self):
        # The reference takes the Lagrange identity; check it against the
        # squared minors themselves, in exact arithmetic.
        rng = np.random.default_rng(11)
        for shape in [(2, 2), (3, 4), (4, 3)]:
            m = _gaussian(rng, *shape) * 10.0 ** rng.integers(-5, 5, shape)
            f = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m]
            total = Fraction(0)
            for (a, b), (c, d) in product(combinations(range(shape[0]), 2), combinations(range(shape[1]), 2)):
                (p, q), (r, s) = f[a][c], f[b][d]
                (t, u), (v, w) = f[a][d], f[b][c]
                total += (p * r - q * s - t * v + u * w) ** 2 + (p * s + q * r - t * w - u * v) ** 2
            assert _exact_sum(m)[0] == total

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("seed", range(3))
    def test_near_product_at_least_as_accurate_as_minor_route(self, delta, seed):
        m = _near_product(seed, delta)
        got, exact = _assert_within_bound(m)
        gram_error = abs(Fraction(got) - exact) / exact
        minor_error = abs(Fraction(_minor_route(m)) - exact) / exact
        assert gram_error <= minor_error

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (5, 3), (8, 8), (8, 64), (16, 16)])
    def test_haar(self, shape):
        # Far inside the bound: these come out correctly rounded.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            m = _gaussian(rng, *shape)
            got, exact = _assert_within_bound(m / np.linalg.norm(m))
            assert got == float(exact)

    @pytest.mark.parametrize("seed", range(20))
    def test_product_states_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        u = _gaussian(rng, 4) * 10.0 ** rng.integers(-5, 6, 4)
        m = np.outer(u, _gaussian(rng, 6))
        _assert_within_bound(m)

    def test_negative_beyond_bound_raises(self, monkeypatch):
        # Seed 10 of this product state sums to slightly below zero; with a
        # zero bound the clamp must refuse it rather than return it.
        rng = np.random.default_rng(10)
        m = np.outer(_gaussian(rng, 4), _gaussian(rng, 6))
        assert minor_sum_sq(m) == 0.0
        monkeypatch.setattr(schwarz, "_BOUND", 0.0)
        with pytest.raises(InternalConsistencyError):
            minor_sum_sq(m)

    def test_rows_far_apart_in_magnitude(self):
        rng = np.random.default_rng(5)
        m = _gaussian(rng, 3, 7)
        m[0] *= 1e150
        m[1:] *= 1e-150
        got, _ = _assert_within_bound(m)
        assert 1e-3 < got < 1e3

    def test_subnormal_entries(self):
        rng = np.random.default_rng(6)
        m = np.vstack([rng.integers(-1000, 1000, 9) * 5e-324 + 0j, _gaussian(rng, 9) * 1e300])
        got, _ = _assert_within_bound(m)
        assert got > 0.0

    @pytest.mark.parametrize("power", [-600, -200, 200, 600])
    def test_power_of_two_scaling_is_exact(self, power):
        rng = np.random.default_rng(7)
        m = _gaussian(rng, 4, 6)
        want = minor_sum_sq(m)
        with np.errstate(over="ignore", under="ignore"):
            want = float(np.ldexp(want, 4 * power))
        assert minor_sum_sq(np.ldexp(m.view(float), power).view(complex)).hex() == want.hex()

    @pytest.mark.parametrize("tile", [1, 50, 500])
    def test_tiles_give_the_same_bits(self, monkeypatch, tile):
        # _TILE bounds the slice products per tile: 1 gives one row per tile.
        rng = np.random.default_rng(12)
        cases = [_gaussian(rng, 9, 13), _gaussian(rng, 8, 64), _near_product(1, 1e-9, (12, 12))]
        cases[0][[2, 5]] = 0.0  # zero rows
        want = [minor_sum_sq(m).hex() for m in cases]
        # Three 5 x 4 matrices in one stack, one with zero rows; parts down
        # to 1e-7 of a row's peak take 4 slices, so at _TILE 500 a stack of
        # two runs in two tiles, the upper one gathered from row a0 = 2.
        stack = [_gaussian(rng, 5, 4) * 10.0 ** rng.integers(-7, 1, (5, 4)) for _ in range(3)]
        stack[1][[0, 3]] = 0.0
        want_stack = [minor_sum_sq(m).hex() for m in stack]
        assert [v.hex() for v in schwarz.minor_sums_sq(stack)] == want_stack
        monkeypatch.setattr(schwarz, "_TILE", tile)
        assert [minor_sum_sq(m).hex() for m in cases] == want
        with mock.patch.object(schwarz, "_tile_terms", wraps=schwarz._tile_terms) as tiles:
            assert [v.hex() for v in schwarz.minor_sums_sq(stack)] == want_stack
        gathers = {(call.args[0].shape[0], call.args[2]) for call in tiles.call_args_list}
        assert any(S > 1 and a0 > 0 for S, a0 in gathers) == (tile == 500)

    def test_rank_one_rows_2000_binades_apart_warn_nothing(self):
        # The sum is 0.0, and the clamp's bound overflows: that must not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert minor_sum_sq(np.array([[1e300, 0.0], [1e-320, 0.0]])) == 0.0

    def test_overflow_and_underflow(self):
        rng = np.random.default_rng(8)
        m = _gaussian(rng, 3, 3)
        assert minor_sum_sq(m * 1e100) == math.inf
        assert minor_sum_sq(m * 1e-100).hex() == (0.0).hex()

    def test_row_spanning_300_decades_hits_the_slice_cap(self):
        rng = np.random.default_rng(9)
        m = np.vstack([10.0 ** -np.arange(0, 301, 20) * (1 + 1j), _gaussian(rng, 16)])
        z, beta = _slices_of(m)
        width = (2 * 16 - 1).bit_length()
        assert z.shape[1] == -(-(220 + width) // (2 * beta))  # the cap, not the ~45 needed
        _assert_within_bound(m)

    def test_slice_products_are_exact(self):
        # Columns spanning six decades, as in a weakly entangled unfolding.
        rng = np.random.default_rng(10)
        m = _gaussian(rng, 5, 40) * 10.0 ** rng.integers(-3, 3, 40)
        z, beta = _slices_of(m)
        assert beta == (51 - (2 * 40 - 1).bit_length()) // 2  # (51 - ceil(log2 2c)) / 2
        parts = z.view(float)
        assert (parts == np.rint(parts)).all() and np.abs(parts).max() <= 2**beta
        # The slices rebuild every entry exactly (the rows need fewer than the cap).
        e = np.frexp(np.abs(m.view(float)).max(axis=1))[1]
        rebuilt = [[sum(Fraction(complex(z[a, j, col]).real) * Fraction(2) ** int(e[a] - beta * (j + 1))
                        for j in range(z.shape[1])) for col in range(40)] for a in range(5)]
        assert rebuilt == [[Fraction(x.real) for x in row] for row in m]
        ints = [[[(int(w.real), int(w.imag)) for w in z[:, j, :][a]] for a in range(5)]
                for j in range(z.shape[1])]
        for i, j in product(range(z.shape[1]), repeat=2):
            got = z[:, i] @ z[:, j].conj().T
            for a, b in product(range(5), repeat=2):
                re = sum(p * r + q * s for (p, q), (r, s) in zip(ints[i][a], ints[j][b]))
                im = sum(q * r - p * s for (p, q), (r, s) in zip(ints[i][a], ints[j][b]))
                assert (got[a, b].real, got[a, b].imag) == (re, im)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 7))
    def test_never_negative(self, seed, nr, nc):
        rng = np.random.default_rng(seed)
        u = _gaussian(rng, nr) * 10.0 ** rng.integers(-150, 150, nr)
        m = np.outer(u, _gaussian(rng, nc))
        m[rng.random((nr, nc)) < 0.1] *= 1 + 1e-12
        assert minor_sum_sq(m) >= 0.0


_THREAD_PROBE = """
import json, sys
import numpy as np
from qconc import make_state, matricize, minor_sum_sq
rng = np.random.default_rng(4)
def gaussian(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
cases = [gaussian(64, 64), gaussian(128, 128),
         matricize(make_state([8, 8, 8], gaussian(512)), 1)]
for delta in {deltas}:
    u, v, u2, v2 = gaussian(8), gaussian(8), gaussian(8), gaussian(8)
    cases.append(np.outer(u, v) + delta * np.outer(u2, v2))
print(json.dumps([minor_sum_sq(m).hex() for m in cases]))
"""


def test_bits_do_not_depend_on_blas_threads():
    src = str(Path(schwarz.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE.format(deltas=DELTAS)],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 3 + len(DELTAS)


_CLI_PROBE = """
import contextlib, io, json, sys
from qconc.cli import cli_main
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    outputs.append((code, out.getvalue()))
print(json.dumps(outputs))
"""


def test_cli_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Every state has 16384 amplitudes: OpenBLAS splits a dot of more than
    # 10000 values across its threads, and every norm here takes chunks of
    # 8192 (states.vector_norm).  The [16384, 1] state is separable at both
    # cuts with no minors, so its certificates are only its factors.
    from qconc.cli import cli_main

    files = {}
    for name, dims, kind in (("haar", "128,128", "haar"), ("line", "16384,1", "haar"),
                             ("product", "2,2,4096", "product")):
        files[name] = str(tmp_path / f"{name}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["sample", "--dims", dims, "--kind", kind, "--seed", "7",
                             "--out", files[name]]) == 0
    argvs = [["sample", "--dims", "128,128", "--kind", "haar", "--seed", "7"],
             ["concurrence", "--state", files["haar"]],
             ["concurrence", "--state", files["product"]],
             ["separability", "--state", files["line"]],
             ["fullsep", "--state", files["haar"]],
             ["fullsep", "--state", files["product"]]]
    src = str(Path(schwarz.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _CLI_PROBE, json.dumps(argvs)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(json.loads(run.stdout))
    assert [code for code, _ in outputs[0]] == [0] * len(argvs)
    for argv, one, two in zip(argvs, *outputs):
        assert one == two, argv[0]


_FAULT_PROBE = """
import resource
import numpy as np
import qconc
from qconc import schwarz
rng = np.random.default_rng(7)
def gaussian(n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
def haar(*dims):
    return qconc.sample_state(qconc.SamplerSpec(dims, "haar", 11))
def near_product(*dims):
    first, second = np.ones(1), np.ones(1)
    for n in dims:
        u, z = gaussian(n)[:2]
        u /= np.linalg.norm(u)
        z -= np.vdot(u, z) * u
        first, second = np.kron(first, u), np.kron(second, z / np.linalg.norm(z))
    return qconc.make_state(list(dims), first + 1e-4 * second)
fn, arg = {case}
for _ in range(3):
    fn(*arg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    fn(*arg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""

# The call and its arguments; each pass these run holds its large
# temporaries in one block or computes them in place (see README), so
# glibc's free() does not return them to the system after every call.
_FAULT_CASES = {
    "minor_sum_sq-48": "schwarz.minor_sum_sq, (gaussian(48),)",
    "minor_sum_sq-64": "schwarz.minor_sum_sq, (gaussian(64),)",
    "concurrence-haar-64x64": "qconc.concurrence, (haar(64, 64),)",
    "concurrence-haar-16x16x16": "qconc.concurrence, (haar(16, 16, 16),)",  # conj rows
    "certificate-haar-64x64": "qconc.is_separable_cut, (haar(64, 64), 1)",  # _column_quads
    "certificate-haar-16x16x16": "qconc.is_separable_cut, (haar(16, 16, 16), 1)",  # pair masks
    "certificate-near-64x64": "qconc.is_separable_cut, (near_product(64, 64), 1)",  # kernel
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
@pytest.mark.parametrize("case", _FAULT_CASES)
def test_steady_state_calls_do_not_fault(case):
    # A fresh process per case, as the thresholds only rise: 3 warm-up
    # calls, then the minor page faults of 20 more (220 to 900 per call
    # while these passes freed many separate large arrays).
    src = str(Path(schwarz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE.format(case=_FAULT_CASES[case])],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert float(run.stdout) <= 5.0


def _all_pairs_max(m):
    """The unpruned call: the kernel on every row pair, under
    max_abs_minor's np.errstate and rescaled where products overflow, as
    max_abs_minor is."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _rescaled(lambda a: schwarz._max_minor(schwarz._as_entries(a)), m)


def _kron(*vectors):
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


def _pruning_case(kind, seed, small):
    """A matrix of the given kind; small ones (at most 8 x 8) suit the
    one-minor chunks, larger ones (up to 24 x 24) prune at the default."""
    rng = np.random.default_rng(seed)
    nr, nc = rng.integers(2, 9 if small else 25, 2)
    m = _gaussian(rng, nr, nc)
    if kind == "wide":  # entries from 1e-82 to 1e75, a fifth zero
        m *= 10.0 ** rng.integers(-82, 76, (nr, nc))
        m[rng.random((nr, nc)) < 0.2] = 0
    elif kind == "zero-rows":
        m[rng.random(nr) < 0.3] = 0
    elif kind == "integer-ties":
        m = rng.integers(-2, 3, (nr, nc)) + 1j * rng.integers(-2, 3, (nr, nc))
    elif kind == "block-ties":  # np.kron(np.eye(k), ...) with blocks of 1 or 2
        k = int(rng.integers(2, 5 if small else 13))
        m = np.kron(np.diag(rng.integers(1, 3, k)), np.ones((2, 2)))
        m = m * np.exp(1j * rng.uniform(0, 7))
    elif kind == "overflow":  # products overflow, minors are inf - inf = NaN
        m *= 1e200
    elif kind == "subnormal":  # subnormal rows against one row near 1e150
        m *= 10.0 ** -rng.integers(310, 321, (nr, 1))
        m[rng.integers(nr)] = _gaussian(rng, nc) * 1e150
    elif kind == "tight":  # one entry per row: the bound is the minor
        m = np.diag(_gaussian(rng, nr))[:, rng.integers(0, nr, nc)].T
        m *= 10.0 ** -rng.uniform(0, 163)  # minors down to subnormal
    elif kind == "bound-tight":  # pairs whose minor is the bound h_a h_b
        k = max(1, nr // 2)
        a = _gaussian(rng, k, min(nc, 2 * k))  # tall, as the kernel reads it
        u, v = np.argsort(np.abs(a), axis=1)[:, -2:].T
        rows = np.arange(k)
        b = np.zeros_like(a)
        lam = _gaussian(rng, k) * 10.0 ** rng.uniform(-2, 2, k)
        b[rows, u] = -lam * a[rows, v].conj()  # minor (u, v): lam (|a_u|^2 + |a_v|^2)
        b[rows, v] = lam * a[rows, u].conj()
        m = np.concatenate([a, b])[rng.permutation(2 * k)]
    elif kind == "haar":
        dims = [[4, 4], [3, 5], [2, 3, 2]] if small else [[16, 16], [8, 24], [4, 4, 4]]
        dims = dims[seed % 3]
        m = matricize(make_state(dims, _gaussian(rng, math.prod(dims))), 1 + seed % 2)
    else:  # product or near-product: rank one, or rank two at delta
        n = (4, 4, 3) if small else (8, 8, 4)
        amps = _kron(*(_gaussian(rng, d) for d in n))
        if kind == "near-product":
            amps = amps + 10.0 ** -rng.uniform(3, 13) * _kron(*(_gaussian(rng, d) for d in n))
        m = amps.reshape(n[0], -1)
    return m


PRUNING_KINDS = ["wide", "zero-rows", "integer-ties", "block-ties", "overflow", "subnormal",
                 "tight", "bound-tight", "haar", "product", "near-product"]
SCHUR_KINDS = ["near_sep", "near_ent", "rank-2", "rank-1+1e-9"]  # of _schur_case


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestPrunedMaxMatchesAllPairs:
    """max_abs_minor, which evaluates only the row pairs whose bound can
    still win, against the kernel on all row pairs, by float.hex."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(PRUNING_KINDS), st.sampled_from([None, 100, 7, 1]),
           st.integers(0, 2**32 - 1))
    def test_equals_all_pairs(self, kind, chunk, seed):
        m = _pruning_case(kind, seed, small=chunk is not None and chunk < 100)
        with mock.patch.object(schwarz, "_CHUNK", chunk or schwarz._CHUNK):
            assert max_abs_minor(m).hex() == _all_pairs_max(m).hex()

    @pytest.mark.parametrize("kind", ["wide", "zero-rows", "integer-ties", "block-ties",
                                      "subnormal", "tight", "bound-tight", "haar"])
    def test_kinds_are_pruned(self, kind):
        # The differential above means something only where pairs are pruned.
        pruned = 0
        for seed in range(20):
            m = np.asarray(_pruning_case(kind, seed, small=True), dtype=complex)
            with mock.patch.object(schwarz, "_CHUNK", 7):
                pruned += schwarz._bounded_pairs(m) is not None
        assert pruned >= 5

    @pytest.mark.parametrize("kind", ["overflow", "product"])
    def test_kinds_that_scan_every_pair(self, kind):
        for seed in range(5):
            m = np.asarray(_pruning_case(kind, seed, small=False), dtype=complex)
            assert schwarz._bounded_pairs(m) is None

    def test_subnormal_moduli(self):
        # |(6+4j) u| is 7.2 u but hypot rounds it to 7 u, below the true
        # minor against the 1e300 row; without the added _TINY that pair's
        # bound falls under L and every pair would be pruned.
        u = 5e-324
        m = np.array([[(6 + 4j) * u, 0], [0, 1e300], [(5 + 5j) * u, 0]])
        with mock.patch.object(schwarz, "_CHUNK", 1):
            assert schwarz._bounded_pairs(m) is not None
            assert max_abs_minor(m).hex() == _all_pairs_max(m).hex()
        assert max_abs_minor(m) == abs((6 + 4j) * u * 1e300)

    def test_modulus_overflows_with_finite_parts(self, monkeypatch):
        # The top rows' minor is about 1.5e308 (1 + 1j): hypot overflows to inf.
        monkeypatch.setattr(schwarz, "_CHUNK", 1)
        u = 1.456e154 * np.exp(1j * np.pi / 8)
        m = np.array([[u, 0], [0, u], [1.0, 1.0]])
        assert max_abs_minor(m) == math.inf == _all_pairs_max(m)

    def test_modulus_is_hypot(self):
        # _modulus takes abs() of a Python complex: libm hypot, as np.hypot,
        # bit for bit, on parts that overflow (then its OverflowError gives
        # inf), are NaN (inf - inf), or are subnormal.
        cases = [[[1e200 + 1e200j, 0], [0, 1e200]],  # both parts inf
                 [[1.5e308 + 1.5e308j, 0], [0, 1]],  # finite parts, modulus inf
                 [[1e200, 1e200], [1e200, 1e200]],  # NaN from inf - inf
                 [[1e200 + 1e200j, 0], [0, 1e200 + 1e200j]],  # NaN and inf parts
                 [[5e-324 + 5e-324j, 0], [0, 1]],  # subnormal parts
                 [[3e-310, 1e-10], [4e-300, 7e-10j]],  # subnormal imaginary part
                 [[0.6 + 0.8j, 0.1], [0.3, 0.9 - 0.2j]]]
        for case in cases:
            x = np.array(case, dtype=complex)
            w = complex(x[0, 0]) * complex(x[1, 1]) - complex(x[0, 1]) * complex(x[1, 0])
            with np.errstate(over="ignore"):
                want = float(np.hypot(w.real, w.imag))
            assert schwarz._modulus(x, 0, 0, 1, 1).hex() == want.hex(), case

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's errno location")
    def test_modulus_of_a_nan_part_ignores_a_stale_errno(self):
        # CPython's abs(complex) returns NaN for a NaN part without clearing
        # errno, then raises OverflowError if an earlier libm call left it
        # at ERANGE, as np.hypot does on overflow.
        import ctypes
        import errno

        location = getattr(ctypes.CDLL(None), "__errno_location")  # no name mangling
        location.restype = ctypes.POINTER(ctypes.c_int)
        x = np.array([[1e200, 1e200], [1e200, 1e200]], dtype=complex)
        location()[0] = errno.ERANGE
        assert math.isnan(schwarz._modulus(x, 0, 0, 1, 1))

    def test_peaks_whose_square_overflows(self):
        # Every row peaks near 1.4e154 in column 0, so the least peak squared
        # overflows while every minor stays finite; nothing can be pruned.
        m = _gaussian(np.random.default_rng(5), 32, 32)
        m[:, 0] = 1.4e154 * np.exp(1j * np.pi / 8)
        assert schwarz._bounded_pairs(m) is None
        assert max_abs_minor(m).hex() == _all_pairs_max(m).hex()
        assert math.isfinite(max_abs_minor(m))

    def test_subnormal_minors_scan_every_pair(self, monkeypatch):
        # Minors near 1e-322 carry absolute rounding errors of whole units,
        # far above the relative slack: below _FLOOR nothing is pruned.
        monkeypatch.setattr(schwarz, "_CHUNK", 1)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            nr, nc = rng.integers(3, 8, 2)
            m = np.diag(_gaussian(rng, nr) * 10.0 ** -rng.uniform(160, 163))
            m = m[:, rng.integers(0, nr, nc)]
            assert max_abs_minor(m).hex() == _all_pairs_max(m).hex(), seed

    @pytest.mark.parametrize("kind", SCHUR_KINDS)
    def test_near_rank_one_equals_all_pairs(self, kind):
        # The Schur bound of the pivot prunes these, in either orientation.
        for seed in range(3):
            m = _schur_case(kind, seed)
            assert schwarz._bounded_pairs(m) is not None
            want = _all_pairs_max(m).hex()
            for chunk in (None, 7, 1):
                with mock.patch.object(schwarz, "_CHUNK", chunk or schwarz._CHUNK):
                    assert max_abs_minor(m).hex() == want, (seed, chunk)
                    assert max_abs_minor(m.T).hex() == want, (seed, chunk)

    def test_schur_bound_tight_at_the_pivot_pair(self):
        # Every row is a multiple of the real pivot row, one of them plus a
        # single entry: its Schur complement has one nonzero, so the bound of
        # the pivot pair is its largest minor, which is the largest of all;
        # only the rounding pad keeps that pair.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            v = rng.choice([-1.0, 1.0], 8) + 0j
            u = rng.uniform(0.2, 0.5, 64) * np.exp(1j * rng.uniform(0, 7, 64))
            r, b = rng.choice(64, 2, replace=False)
            u[r] = rng.uniform(0.55, 1.0)
            m = np.outer(u, v)
            m[b, rng.integers(1, 8)] += 10.0 ** -rng.uniform(2, 8) * np.exp(1j * rng.uniform(0, 7))
            assert schwarz._bounded_pairs(m) is not None
            want = _all_pairs_max(m).hex()
            assert max_abs_minor(m).hex() == want == max_abs_minor(m.T).hex(), seed

    @pytest.mark.parametrize("kind", PRUNING_KINDS + SCHUR_KINDS)
    def test_lower_bound_is_one_of_the_kernels_moduli(self, kind):
        # Both bounds prune against L with no margin for L itself: every
        # candidate the pre-pass evaluates must be a |minor| the kernel
        # computes (or 0.0), so never above the largest one.
        evaluated = 0
        for seed in range(12):
            if kind in SCHUR_KINDS:
                m = _schur_case(kind, seed)
            else:
                m = _pruning_case(kind, seed, small=seed % 2 == 0)
            m = np.asarray(m, dtype=complex)
            for x in (m, m.T):
                lows = _recorded_lows(x)
                worst, steps = _recorded_steps(lambda: _all_pairs_max(x))
                moduli = {v for re, im in steps for v in np.hypot(re, im).tolist()}
                for low in filter(math.isfinite, lows):
                    assert low <= worst or math.isnan(worst), (seed, x.shape)
                    assert low == 0.0 or low in moduli, (seed, x.shape)
                evaluated += len(lows)
        assert evaluated >= 24

    @pytest.mark.parametrize("chunk", [None, 7, 1])
    def test_kernel_on_explicit_pairs(self, monkeypatch, chunk):
        # Every minor of the given row pairs once, of the wide matrix read
        # tall; no pairs give no minors and a largest |minor| of 0.0.
        if chunk is not None:
            monkeypatch.setattr(schwarz, "_CHUNK", chunk)
        m = _gaussian(np.random.default_rng(8), 4, 6)
        for a, b in [([0, 0, 2, 1], [5, 1, 3, 4]), ([], [])]:
            a, b = np.array(a, dtype=np.intp), np.array(b, dtype=np.intp)
            minors = [v for i, j in zip(a, b) for *_, v in _scalar_minor_values(m.T[[i, j]])]
            assert _kernel_minor_bits(m, (a, b)) == sorted(map(_abs_bits, minors))
            assert schwarz._max_minor(m, (a, b)) == max(map(abs, minors), default=0.0)


def _recorded_lows(x):
    """Every lower bound _bounded_pairs(x) evaluates, recorded by wrapping
    schwarz._modulus; _CHUNK is 1 so that small matrices take the pre-pass."""
    lows = []
    evaluate = schwarz._modulus

    def recording(*args):
        lows.append(evaluate(*args))
        return lows[-1]

    with mock.patch.object(schwarz, "_modulus", recording):
        with mock.patch.object(schwarz, "_CHUNK", 1):
            schwarz._bounded_pairs(x)
    return lows


def _schur_case(kind, seed):
    """A near-rank-1 matrix, where the h_a h_b bound prunes nothing: a cut of
    an [8, 8, 8] near-product state (benchmark deltas), peak-scaled as
    is_separable_cut reads it, a rank-2 matrix or rank 1 plus 1e-9 noise."""
    rng = np.random.default_rng(seed)
    if kind in ("near_sep", "near_ent"):
        state = near_product_state(rng, (8, 8, 8), kind == "near_ent")
        return matricize(make_state([8, 8, 8], peak_scaled(state)[0]), 1 + seed % 3)
    nr, nc = rng.integers(8, 33, 2)
    if kind == "rank-2":
        return _near_product(seed, 10.0 ** -rng.uniform(2, 7), (nr, nc))
    return np.outer(_gaussian(rng, nr), _gaussian(rng, nc)) + 1e-9 * _gaussian(rng, nr, nc)


def _verdict_case(kind, seed):
    """A matrix peak-scaled as full_separability reads a cut (of the
    normalized state): rank 1 (exact, or plus noise from 1e-1 to 1e-16),
    rank 2, Gaussian, or a _schur_case kind.  One rank-1 case in four has
    the real pivot 1 and is not normalized, so every minor through the
    pivot is exactly 0 while the kernel's other minors are rounding noise:
    only the pad covers those."""
    rng = np.random.default_rng(seed)
    nr, nc = (int(n) for n in rng.integers(2, 17, 2))
    if kind == "rank-1" and seed % 4 == 0:
        u, v = (rng.uniform(0.3, 0.99, n) * np.exp(1j * rng.uniform(0, 7, n)) for n in (nr, nc))
        u[0] = v[0] = 1.0
        return peak_scaled(make_state([nr, nc], np.outer(u, v).ravel()))[0].reshape(nr, nc)
    if kind == "rank-1":
        m = np.outer(_gaussian(rng, nr), _gaussian(rng, nc))
        if seed % 4 > 1:
            m = m + 10.0 ** -rng.uniform(1, 16) * _gaussian(rng, nr, nc)
    elif kind == "rank-2-small":
        m = _near_product(seed, 10.0 ** -rng.uniform(0, 9), (nr, nc))
    elif kind == "gaussian":
        m = _gaussian(rng, nr, nc)
    else:
        m = np.asarray(_schur_case(kind, seed))
    amps, _ = peak_scaled(normalize(make_state(list(m.shape), m.ravel())))
    return amps.reshape(m.shape)


class TestPivotVerdict:
    """The pivot's bounds, against the kernel on every row pair."""

    @pytest.mark.parametrize("kind", ["rank-1", "rank-2-small", "gaussian", "near_sep",
                                      "near_ent", "rank-2", "rank-1+1e-9"])
    def test_schur_bound_holds(self, kind):
        # 150 matrices per kind, both orientations: no |minor| exceeds
        # 4L + 2L^2/P^2 + _PAD P^2, and each verdict is the scan's.
        proven = {None: 0, False: 0, True: 0}
        for seed in range(150):
            m = _verdict_case(kind, seed)
            for x in (m, m.T):
                r, c, mod, minors = schwarz._pivot_minors(x)
                peak, top = mod[r, c], minors.max()
                scale = peak**2
                bound = 4 * top + 2 * (top / peak) ** 2 + schwarz._PAD * scale
                worst = _all_pairs_max(x)
                assert worst <= bound, (seed, x.shape)
                for tol in (1e-12, 1e-9, 1e-6, bound / scale, top / scale):
                    verdict = schwarz._pivot_verdict(x, tol)
                    assert verdict in (None, worst <= tol * scale), (seed, tol)
                    proven[verdict] += 1
        assert min(proven[False], proven[True]) >= 50  # both verdicts are exercised

    @pytest.mark.parametrize("kind", ["haar", "near_ent"])
    def test_entangled_once_the_modulus_exceeds_the_limit(self, kind):
        # L, the kernel's own |minor| at the largest |D|, is a minor the
        # scan finds, so a limit tol P^2 just below it proves the cut
        # entangled with no margin.  With the limit at L the scan may find
        # nothing larger, so the verdict is never False there.
        for seed in range(8):
            if kind == "haar":
                state = sample_state(SamplerSpec((8, 8, 8), "haar", seed))
                amps, _ = peak_scaled(normalize(state))
                m = matricize(make_state([8, 8, 8], amps), 1 + seed % 3)
            else:
                m = _verdict_case(kind, seed)
            for x in (m, m.T):
                r, c, mod, minors = schwarz._pivot_minors(x)
                low = schwarz._modulus(x, r, c, *divmod(int(np.argmax(minors)), x.shape[1]))
                scale = float(mod[r, c]) ** 2
                below = _tolerance_below(low, scale)
                assert low - below * scale <= 4 * math.ulp(low), (seed, x.shape)
                assert schwarz._pivot_verdict(x, below) is False, (seed, x.shape)
                at = math.nextafter(below, math.inf)  # the least tol with tol P^2 >= L
                assert at * scale >= low
                assert schwarz._pivot_verdict(x, at) is not False, (seed, x.shape)
                assert max_abs_minor(x) >= low

    def test_self_minors_are_zero(self):
        # The minors of the pivot's row or column with itself are exact
        # zeros for every reader of the pass, not rounding noise (numpy's
        # complex product does not commute bit for bit) nor NaN where P^2
        # overflows.
        for seed in range(200):
            x = _gaussian(np.random.default_rng(seed), 64, 8)
            r, c, _, minors = schwarz._pivot_minors(x)
            assert not minors[r].any() and not minors[:, c].any(), seed
        x = 1e300 * np.exp(1j * np.random.default_rng(0).uniform(0, 7, (4, 4)))
        r, c, _, minors = schwarz._pivot_minors(x)
        assert np.isnan(minors).any()  # P^2 overflows
        assert not minors[r].any() and not minors[:, c].any()


def _handoff_case(kind, shape, seed):
    """A Haar (Gaussian), near-product or product matrix, or unit-modulus
    rows with one row scaled by 0.4, which keep every column of the pairs
    the Schwarz bound keeps."""
    rng = np.random.default_rng(seed)
    if kind == "haar":
        return _gaussian(rng, *shape)
    if kind == "near-product":
        return _near_product(seed, 10.0 ** -rng.uniform(3, 10), shape)
    if kind == "product":
        return np.outer(_gaussian(rng, shape[0]), _gaussian(rng, shape[1]))
    m = np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    m[0] *= 0.4
    return m


class TestPivotHandOff:
    """max_abs_minor with the caller's pivot pass (_pivot) has the bits of
    the call without it and of the transpose: a wide matrix reads the pass
    transposed, where the pivot may be another of a tie and |D| differ by
    roundings."""

    @pytest.mark.parametrize("shape", [(8, 64), (64, 8), (32, 32)], ids=["wide", "tall", "square"])
    @pytest.mark.parametrize("kind", ["haar", "near-product", "product", "unit-rows"])
    def test_same_bits_with_the_callers_pass(self, kind, shape):
        for seed in range(2):
            m = _handoff_case(kind, shape, seed)
            for e in (0, 500, -500):
                x = np.ldexp(m.view(np.float64), e).view(np.complex128)
                want = max_abs_minor(x).hex()
                assert max_abs_minor(x.T).hex() == want, (seed, e)
                pivot = schwarz._pivot_minors(x)
                with mock.patch.object(schwarz, "_pivot_minors", side_effect=AssertionError):
                    assert max_abs_minor(x, _pivot=pivot).hex() == want, (seed, e)


def _tolerance_below(limit, scale):
    """The largest tolerance whose tol * scale, as computed, is below limit:
    the largest double below limit where a tolerance reaches it (scale
    times the tolerances' ulp can step over it)."""
    tol = limit / scale
    while tol * scale >= limit:
        tol = math.nextafter(tol, 0.0)
    while math.nextafter(tol, math.inf) * scale < limit:
        tol = math.nextafter(tol, math.inf)
    return tol


def _evaluated(m):
    """(max_abs_minor(m), minors the kernel evaluated for it)."""
    value, steps = _recorded_steps(lambda: max_abs_minor(m))
    return value, sum(re.size for re, _ in steps)


class TestPruningWork:
    """Where the certificate's work goes: a fraction of the minors on Haar
    and near-product cuts, every minor on exact product cuts (the
    documented limit)."""

    @pytest.mark.parametrize("dims", [(32, 32), (8, 64)])
    def test_haar_cuts_evaluate_under_half(self, dims):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            state = make_state(list(dims), _gaussian(rng, math.prod(dims)))
            amps, _ = peak_scaled(state)  # the cut as is_separable_cut sees it
            for cut in (1, 2):
                mat = matricize(make_state(list(dims), amps), cut)
                value, evaluated = _evaluated(mat)
                assert value.hex() == _all_pairs_max(mat).hex()
                assert evaluated < _minor_count(mat) / 2, (seed, cut)

    @pytest.mark.parametrize("dims, measured", [((8, 8, 8), 0.0243), ((32, 32), 0.2056)])
    def test_kept_share_of_row_pairs(self, dims, measured):
        # The differential tests pass however little is pruned; this pins
        # how much: at most 1.5 times the share kept when it was written.
        kept = total = 0
        for seed in range(4):
            state = sample_state(SamplerSpec(dims, "haar", seed))
            for cut in range(1, len(dims) + 1):
                mat = matricize(state, cut)
                pairs = math.comb(max(mat.shape), 2)
                bounded = schwarz._bounded_pairs(mat)
                kept += pairs if bounded is None else bounded[0].size
                total += pairs
        assert kept / total <= 1.5 * measured

    def test_near_entangled_cuts_evaluate_under_a_fifth(self):
        for seed in range(6):
            mat = _schur_case("near_ent", seed)
            value, evaluated = _evaluated(mat)
            assert value.hex() == _all_pairs_max(mat).hex()
            assert evaluated < _minor_count(mat) / 5, seed

    @pytest.mark.parametrize("case, quads", [("haar-32x32", 1), ("haar-8x8x8", 1),
                                             ("near_ent", 1), ("schur-past-chunk", 0)])
    def test_one_evaluator_call(self, case, quads):
        # The pre-pass takes L from a few recomputed minors, not from a
        # kernel call of its own, and one evaluator runs: the quad evaluator
        # on peak-scaled Haar cuts and on a near-entangled one, whose kept
        # pairs the Schur bound leaves with 1512 minors; the offset kernel
        # on a near-separable cut whose kept pairs hold 11256, past _CHUNK,
        # with no column bound.
        if case == "near_ent":
            mat = _schur_case("near_ent", 4)
        elif case == "schur-past-chunk":
            mat = _schur_case("near_sep", 0)
        else:
            dims = [32, 32] if case == "haar-32x32" else [8, 8, 8]
            state = make_state(dims, _gaussian(np.random.default_rng(4), math.prod(dims)))
            mat = matricize(make_state(dims, peak_scaled(state)[0]), 1)
        with mock.patch.object(schwarz, "_column_quads", wraps=schwarz._column_quads) as columns:
            value, calls = _evaluator_calls(mat)
        assert calls == (quads, 1 - quads)
        bounded = schwarz._bounded_pairs(mat)
        assert (bounded[3] is not None) == bool(quads)
        if case == "schur-past-chunk":
            assert columns.call_count == 0
            assert bounded[0].size * math.comb(min(mat.shape), 2) > schwarz._CHUNK
        assert value.hex() == _all_pairs_max(mat).hex()

    def test_product_cut_evaluates_every_minor(self):
        rng = np.random.default_rng(3)
        state = make_state([8, 8, 8], _kron(*(_gaussian(rng, 8) for _ in range(3))))
        mat = matricize(make_state([8, 8, 8], peak_scaled(state)[0]), 1)
        assert _evaluated(mat)[1] == _minor_count(mat)


def _evaluator_calls(m):
    """(max_abs_minor(m), (quad evaluator calls, offset kernel calls))."""
    with mock.patch.object(schwarz, "_quad_max", wraps=schwarz._quad_max) as quad:
        with mock.patch.object(schwarz, "_max_minor", wraps=schwarz._max_minor) as kernel:
            value = max_abs_minor(m)
    return value, (quad.call_count, kernel.call_count)


def _peak_scaled_cuts(dims, seed):
    """Every cut of a Haar state, peak-scaled as is_separable_cut reads it."""
    state = sample_state(SamplerSpec(dims, "haar", seed))
    scaled = make_state(list(dims), peak_scaled(state)[0])
    return [matricize(scaled, cut) for cut in range(1, len(dims) + 1)]


def _kernel_moduli(x):
    """{(a, b, j, k): (|re|, |im|) bits} of every minor of the tall x, j < k,
    from the offset kernel run on one row pair at a time, so that entry c
    of the step at offset s is the minor of columns c and c + s (mod cols);
    and how many of them it reached past the last column."""
    nr, nc = x.shape
    moduli, wrapped = {}, 0
    for a, b in combinations(range(nr), 2):
        pair = (np.array([a]), np.array([b]))
        for s, (re, im) in enumerate(_kernel_steps(x, pair), 1):
            for c, (r, i) in enumerate(zip(re.tolist(), im.tolist())):
                d = (c + s) % nc
                moduli[(a, b, min(c, d), max(c, d))] = _abs_bits(complex(r, i))
                wrapped += c + s >= nc
    return moduli, wrapped


class TestQuadEvaluator:
    """The column bound and the quad evaluator, against the offset kernel on
    every row pair, by float.hex."""

    @pytest.mark.parametrize("dims", [(32, 32), (48, 48), (8, 8, 8)])
    def test_haar_cuts_take_the_quad_path(self, dims):
        # Haar [8, 8, 8] cuts keep at most _CHUNK minors in their kept pairs
        # and evaluate all of them; [32, 32] and [48, 48] cuts keep more and
        # run the column bound first.
        column_bound = int(len(dims) == 2)
        for seed in range(3):
            for mat in _peak_scaled_cuts(dims, seed):
                want = _all_pairs_max(mat).hex()
                for x in (mat, mat.T):
                    with mock.patch.object(schwarz, "_column_quads",
                                           wraps=schwarz._column_quads) as columns:
                        value, calls = _evaluator_calls(x)
                    assert calls == (1, 0), (seed, x.shape)
                    assert columns.call_count == column_bound, (seed, x.shape)
                    assert value.hex() == want, (seed, x.shape)

    @pytest.mark.parametrize("big, column_bound", [(128, 0), (129, 1)])
    def test_every_kept_minor_up_to_the_chunk(self, big, column_bound):
        # Two columns, so one minor per row pair.  Unit rows bound every
        # pair of theirs by 1, which no minor exceeds, and rows near 1e-3
        # drop every other pair: 128 unit rows keep 8128 minors, at most
        # _CHUNK, and go straight to the quad evaluator; 129 keep 8256.
        rng = np.random.default_rng(big)
        angle = rng.uniform(0, np.pi / 2, big)
        unit = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        unit = unit * np.exp(1j * rng.uniform(0, 7, (big, 2)))
        m = np.vstack([unit, 1e-3 * _gaussian(rng, 72, 2)])[rng.permutation(big + 72)]
        kept = schwarz._bounded_pairs(m)[0].size
        assert kept == big * (big - 1) // 2
        assert (kept <= schwarz._CHUNK) == (column_bound == 0)
        with mock.patch.object(schwarz, "_column_quads", wraps=schwarz._column_quads) as columns:
            value = max_abs_minor(m)
        assert columns.call_count == column_bound
        assert value.hex() == _all_pairs_max(m).hex()

    @pytest.mark.parametrize("shape", [(6, 6), (9, 5), (5, 9), (7, 8)])
    def test_every_modulus_is_the_kernels(self, shape):
        # Every minor of every row pair through the evaluator: each
        # (|re|, |im|), hence each modulus, is the kernel's for the same
        # (a, b, j, k), also where the kernel reached it past the last
        # column and computed it negated.
        rng = np.random.default_rng(sum(shape))
        m = _gaussian(rng, *shape) * 10.0 ** rng.integers(-3, 4, shape)
        x = m.T if m.shape[0] < m.shape[1] else m
        want, wrapped = _kernel_moduli(x)
        assert len(want) == _minor_count(x) and wrapped > 0
        quads = [np.array(v) for v in zip(*want)]
        value, steps = _recorded_steps(lambda: schwarz._quad_max(x, *quads))
        [(re, im)] = steps
        got = {q: _abs_bits(complex(r, i)) for q, r, i in zip(want, re.tolist(), im.tolist())}
        assert got == want
        assert value.hex() == _all_pairs_max(m).hex()

    def test_column_bound_tight(self):
        # Rows 0 and 1 peak in the same column k and their products at
        # columns j, k align in phase, so their minor there, the largest of
        # the matrix, is |x_0j| m_1 + m_0 |x_1j| = g_j exactly; where g_j
        # rounds below that minor, only the 2**-40 slack keeps column j.
        band_only = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = 0.01 * _gaussian(rng, 16, 16)
            j, k = rng.choice(16, 2, replace=False)
            rows = rng.uniform(0.1, 0.6, (2, 16)) * np.exp(1j * rng.uniform(0, 7, (2, 16)))
            rows[:, k] = rng.uniform(0.7, 1.0, 2) * np.exp(1j * rng.uniform(0, 7, 2))
            against = -rows[0, j] * rows[1, k] / rows[0, k]
            rows[1, j] = against / abs(against) * rng.uniform(0.1, 0.6)
            m[:2] = rows
            m = m[rng.permutation(16)]
            value, calls = _evaluator_calls(m)
            assert calls == (1, 0), seed
            assert value.hex() == _all_pairs_max(m).hex(), seed
            a, b, low, _ = schwarz._bounded_pairs(m)
            mod = np.abs(m) + schwarz._TINY
            peak = mod.max(axis=1)
            g = mod[a] * peak[b, None] + peak[a, None] * mod[b]
            band_only += bool(((g < low) & (g >= low * schwarz._BAND)).any())
        assert band_only >= 5

    def test_every_column_surviving_takes_the_kernel(self):
        # Unit-modulus rows, one of them scaled by 0.4: the Schwarz bound
        # drops that row's pairs, and every column of the others survives,
        # 1953 pairs x 2016 minors.  The offset kernel scans them in steps
        # of _CHUNK; no pairs x column-pairs array is built.
        rng = np.random.default_rng(0)
        m = np.exp(1j * rng.uniform(0, 2 * np.pi, (64, 64)))
        m[0] *= 0.4
        assert schwarz._bounded_pairs(m)[0].size == 1953
        assert schwarz._bounded_pairs(m)[3] is None  # no quads: the kernel scans
        tracemalloc.start()
        try:
            value, calls = _evaluator_calls(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == (0, 1)
        assert peak < 8 * 2**20
        assert value.hex() == _all_pairs_max(m).hex()

    def test_overflowing_bounds_warn_nothing(self):
        # Rows 0 and 1 near 1.2e154 and almost parallel: every minor is
        # finite, but h_0 h_1 and the column bounds g of their pair overflow,
        # which must not warn (the suite turns warnings into errors).
        m = 0.01 * _gaussian(np.random.default_rng(1), 16, 16)
        m[:2] = 1.2e154
        m[1, 3] *= 1.0000001
        mod = np.abs(m) + schwarz._TINY
        with np.errstate(over="ignore"):
            assert math.isinf(mod[0, 0] * mod[1].max() + mod[0].max() * mod[1, 0])
        value, calls = _evaluator_calls(m)
        assert calls == (1, 0)
        assert value.hex() == _all_pairs_max(m).hex()
        assert math.isfinite(value)
