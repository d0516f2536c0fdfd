"""Tests for Schwarz gaps, matricizations, and 2x2 minor enumeration."""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc import (
    InternalConsistencyError,
    NonFiniteError,
    ShapeError,
    enumerate_minors,
    gap_equals_minor_sum,
    make_state,
    matricize,
    max_abs_minor,
    minor_count,
    minor_sum_sq,
    schwarz_gap,
)
from qconc import schwarz

from conftest import bell_state, ghz_state, qutrit_pair, unfold_brute_force

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
        # n1 * n2 is subnormal, so 1e-12 of it rounds to 0 while the gap
        # carries an absolute underflow error of one subnormal ulp.
        assert schwarz_gap([6j, 0], [5.21765229e-161j, 0]) == 0.0

    def test_consistency_error_is_exported(self):
        # The > -1e-12*scale clamp is exercised above; the error class itself
        # must exist for callers that trap it.
        assert issubclass(InternalConsistencyError, Exception)


class TestGapEqualsMinorSum:
    def test_single_minor(self):
        assert gap_equals_minor_sum([1, 0], [0, 1]) == (1.0, 1.0)

    def test_identical_vectors(self):
        assert gap_equals_minor_sum([1, 1], [1, 1]) == (0.0, 0.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            gap_equals_minor_sum([1], [1, 2])

    @given(complex_vectors, complex_vectors)
    def test_agreement_within_scale(self, x1, x2):
        n = min(len(x1), len(x2))
        x1, x2 = x1[:n], x2[:n]
        gap, minor_sum = gap_equals_minor_sum(x1, x2)
        scale = float(np.vdot(x1, x1).real * np.vdot(x2, x2).real)
        assert abs(gap - minor_sum) <= 1e-10 * max(scale, 1.0)
        assert minor_sum >= 0.0

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_agreement_length_eight(self, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        gap, minor_sum = gap_equals_minor_sum(x1, x2)
        scale = float(np.vdot(x1, x1).real * np.vdot(x2, x2).real)
        assert abs(gap - minor_sum) <= 1e-10 * scale


class TestParallelismEquivalence:
    """gap <= 1e-20 on unit pairs exactly when every |minor|^2 <= 1e-20."""

    def _minor_sq_max(self, x1, x2):
        pair = np.vstack([x1, x2])
        return max(
            (abs(t.value) ** 2 for t in enumerate_minors(pair)), default=0.0
        )

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
        np.testing.assert_allclose(mat.entries, expected)
        assert mat.rows == 2
        assert mat.cols == 4
        assert mat.remainder_dims == (2, 2)

    def test_bell_cut_1_is_diagonal(self):
        mat = matricize(bell_state(), 1)
        np.testing.assert_allclose(mat.entries, [[SQ2, 0], [0, SQ2]])

    def test_sequential_amps_cut_2(self):
        s = make_state([2, 3], [1, 2, 3, 4, 5, 6])
        mat = matricize(s, 2)
        np.testing.assert_allclose(mat.entries, [[1, 4], [2, 5], [3, 6]])
        assert mat.remainder_dims == (2,)

    def test_cut_out_of_range(self):
        s = make_state([2, 2], [1, 0, 0, 0])
        with pytest.raises(IndexError):
            matricize(s, 0)
        with pytest.raises(IndexError):
            matricize(s, 3)

    @pytest.mark.parametrize(
        "dims", [(2, 3), (3, 2), (2, 2, 2), (2, 3, 4), (4, 1, 2), (5,)]
    )
    def test_matches_brute_force_unfolding(self, dims):
        rng = np.random.default_rng(hash(dims) % 2**32)
        size = math.prod(dims)
        s = make_state(dims, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for cut in range(1, len(dims) + 1):
            mat = matricize(s, cut)
            np.testing.assert_array_equal(mat.entries, unfold_brute_force(s, cut))
            assert mat.rows * mat.cols == s.size

    def test_entry_matches_amplitude_contract(self):
        s = make_state([2, 3, 2], np.arange(1, 13))
        mat = matricize(s, 2)
        from qconc import amplitude

        for r in range(1, mat.rows + 1):
            for c in range(1, mat.cols + 1):
                rest = mat.column_multi_index(c)
                idx = (rest[0], r, rest[1])
                assert mat.entries[r - 1, c - 1] == amplitude(s, idx)

    def test_column_index_round_trip(self):
        mat = matricize(make_state([2, 3, 4], np.arange(1, 25)), 1)
        for c in range(1, mat.cols + 1):
            assert mat.column_of_multi_index(mat.column_multi_index(c)) == c
        with pytest.raises(IndexError):
            mat.column_multi_index(0)
        with pytest.raises(IndexError):
            mat.column_multi_index(mat.cols + 1)
        with pytest.raises(IndexError):
            mat.column_of_multi_index((1,))

    def test_entries_are_read_only(self):
        mat = matricize(bell_state(), 1)
        with pytest.raises(ValueError):
            mat.entries[0, 0] = 9.0

    def test_single_subsystem_has_one_column(self):
        mat = matricize(make_state([3], [1, 2, 3]), 1)
        assert mat.rows == 3
        assert mat.cols == 1
        assert mat.remainder_dims == ()


class TestEnumerateMinors:
    def test_identity_2x2(self):
        terms = list(enumerate_minors(np.eye(2)))
        assert len(terms) == 1
        assert terms[0].row_pair == (1, 2)
        assert terms[0].col_pair == (1, 2)
        assert terms[0].value == 1.0

    def test_2x4_has_six_terms(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((2, 4))
        assert len(list(enumerate_minors(m))) == 6

    def test_all_ones_3x3(self):
        terms = list(enumerate_minors(np.ones((3, 3))))
        assert len(terms) == 9
        assert all(t.value == 0.0 for t in terms)

    @pytest.mark.parametrize("nr", range(1, 7))
    @pytest.mark.parametrize("nc", range(1, 7))
    def test_count_exhaustive(self, nr, nc):
        m = np.arange(nr * nc, dtype=float).reshape(nr, nc)
        expected = math.comb(nr, 2) * math.comb(nc, 2)
        assert minor_count(m) == expected
        assert len(list(enumerate_minors(m))) == expected

    def test_lexicographic_order(self):
        m = np.arange(12, dtype=float).reshape(3, 4)
        keys = [(t.row_pair, t.col_pair) for t in enumerate_minors(m)]
        expected = [
            (rp, cp)
            for rp in combinations(range(1, 4), 2)
            for cp in combinations(range(1, 5), 2)
        ]
        assert keys == expected

    def test_values_match_determinant_definition(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        for t in enumerate_minors(m):
            kj, lj = t.row_pair
            k, l = t.col_pair
            recomputed = m[kj - 1, k - 1] * m[lj - 1, l - 1] - m[kj - 1, l - 1] * m[lj - 1, k - 1]
            assert t.value == recomputed

    def test_accepts_matricization(self):
        terms = list(enumerate_minors(matricize(bell_state(), 1)))
        assert len(terms) == 1
        assert terms[0].value == pytest.approx(0.5)

    def test_degenerate_shapes_empty(self):
        assert list(enumerate_minors(np.ones((1, 5)))) == []
        assert list(enumerate_minors(np.ones((5, 1)))) == []
        assert minor_count(np.ones((1, 5))) == 0

    def test_non_2d_raises(self):
        with pytest.raises(ShapeError):
            minor_count(np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        m = np.ones((3, 3), dtype=complex)
        m[1, 2] = bad
        for fn in (minor_sum_sq, max_abs_minor, minor_count):
            with pytest.raises(NonFiniteError):
                fn(m)
        with pytest.raises(NonFiniteError):
            next(enumerate_minors(m))


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


def _bits(z):
    # float.hex tells -0.0 from 0.0, which == does not.
    return z.real.hex(), z.imag.hex()


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
        ref_sum = math.fsum(v.real * v.real + v.imag * v.imag for *_, v in ref)
        ref_max = 0.0
        for *_, v in ref:
            if abs(v) > ref_max:
                ref_max = abs(v)
        if minor_sum_sq(m) != ref_sum:
            mismatches.append(("minor_sum_sq", name))
        if max_abs_minor(m) != ref_max:
            mismatches.append(("max_abs_minor", name))
        got = [(t.row_pair, t.col_pair, _bits(t.value)) for t in enumerate_minors(m)]
        want = [((a + 1, b + 1), (c + 1, d + 1), _bits(v)) for a, b, c, d, v in ref]
        if got != want:
            mismatches.append(("enumerate_minors", name))
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
            [(name, m) for name, m in DIFFERENTIAL_CORPUS if minor_count(m) <= 1296]
        )

    def test_corpus_covers_signed_zero_minors(self):
        # The signed-zero matrices must actually produce -0.0 parts, or the
        # bit comparison above would not test them.
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


# Non-negative terms over the whole double range: zeros, subnormals, and
# normals from the smallest to 1e300.
term_lists = st.lists(
    st.one_of(
        st.floats(0, 1e300),
        st.floats(0, 1e-300),
        st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300]),
    ),
    max_size=60,
)


def _chunked(terms, size):
    return [np.array(terms[k : k + size], dtype=float) for k in range(0, len(terms), size)]


class TestExactSum:
    """The bucketed exact sum equals math.fsum over the same terms, bit for bit."""

    # A flush after every 4 terms exercises the totals set aside mid-stream.
    @settings(max_examples=150)
    @given(term_lists, st.sampled_from([1, 3, 100]), st.sampled_from([4, 1 << 26]))
    def test_matches_fsum(self, terms, size, flush):
        with mock.patch.object(schwarz, "_FLUSH_TERMS", flush):
            got = schwarz._exact_sum(_chunked(terms, min(size, flush)))
        assert got.hex() == math.fsum(terms).hex()

    @pytest.mark.parametrize(
        "chunks",
        [[], [np.array([])], [np.array([0.0])], [np.array([5e-324])], [np.array([1e300])]],
        ids=["no-chunk", "empty-chunk", "zero", "subnormal", "single"],
    )
    def test_empty_and_single(self, chunks):
        terms = [t for c in chunks for t in c.tolist()]
        assert schwarz._exact_sum(chunks).hex() == math.fsum(terms).hex()

    def test_every_exponent(self):
        # Thousands of terms with every binary exponent from subnormal to 2**999.
        rng = np.random.default_rng(31)
        terms = np.ldexp(rng.random(20000), rng.integers(-1074, 1000, 20000))
        want = math.fsum(terms.tolist()).hex()
        for size in (1 << 13, 7):
            assert schwarz._exact_sum(_chunked(terms.tolist(), size)).hex() == want

    def test_non_finite_terms(self):
        assert math.isnan(schwarz._exact_sum([np.array([1.0, np.inf]), np.array([np.nan])]))
        assert schwarz._exact_sum([np.array([1.0]), np.array([np.inf, 2.0])]) == math.inf
        with pytest.raises(OverflowError):
            math.fsum([1.7e308, 1.7e308])
        with pytest.raises(OverflowError):
            schwarz._exact_sum([np.array([1.7e308]), np.array([1.7e308])])


def _full_scan_reference(m):
    """math.fsum of every |minor|^2 and the full np.hypot scan, at the default step."""
    parts = [(re.ravel(), im.ravel()) for *_, re, im in schwarz._minor_chunks(m)]
    re = np.concatenate([p[0] for p in parts] or [np.zeros(0)])
    im = np.concatenate([p[1] for p in parts] or [np.zeros(0)])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (re * re + im * im).tolist()
        peak = float(np.max(np.hypot(re, im), initial=0.0))
    return math.fsum(terms), peak


def _assert_reductions_match_full_scan(m):
    want_sum, want_max = _full_scan_reference(m)
    for chunk in (100, 7, 1):
        with mock.patch.object(schwarz, "_CHUNK", chunk):
            assert minor_sum_sq(m).hex() == want_sum.hex(), chunk
            assert max_abs_minor(m).hex() == want_max.hex(), chunk


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestReductionsMatchFullScan:
    """minor_sum_sq and max_abs_minor against fsum and a full hypot scan, bit for bit."""

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

    def test_nan_minor_gives_nan(self):
        assert math.isnan(max_abs_minor(np.full((2, 3), 1e200)))

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
        re, im = np.array(re), np.array(im)
        want = float(np.hypot(re, im).max())
        for k in (1, 2, len(re)):
            chunks = [(re[i : i + k], im[i : i + k]) for i in range(0, len(re), k)]
            assert schwarz._max_modulus(chunks).hex() == want.hex()
