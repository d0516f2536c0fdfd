"""Tests for state construction, indexing, normalization, and tensor products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc import (
    DegenerateStateError,
    NonFiniteError,
    PureState,
    QconcError,
    ShapeError,
    amplitude,
    linear_index,
    make_state,
    normalize,
    tensor,
)

from conftest import bell_state, ghz_state, ket


class TestMakeState:
    def test_basic_construction(self):
        s = make_state([2, 2], [1, 0, 0, 0])
        assert s.dims == (2, 2)
        assert s.size == 4
        assert s.subsystem_count == 2
        assert s.amps.dtype == np.complex128

    def test_accepts_any_positive_dims(self):
        s = make_state([1, 5, 2], np.arange(1, 11))
        assert s.dims == (1, 5, 2)
        assert s.size == 10

    def test_single_subsystem(self):
        s = make_state([3], [1j, 0, 0])
        assert s.subsystem_count == 1
        assert s.norm() == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            make_state([2, 2], [1, 0, 0])

    def test_empty_dims_raises(self):
        with pytest.raises(ShapeError):
            make_state([], [1.0])

    def test_nonpositive_dim_raises(self):
        with pytest.raises(ShapeError):
            make_state([2, 0], [])
        with pytest.raises(ShapeError):
            make_state([2, -1], [1, 0])

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateStateError):
            make_state([2], [0, 0])

    # Accepted, a NaN amplitude makes the concurrence nan and an inf one makes
    # is_separable_cut report separable=True with NaN factors.
    @pytest.mark.parametrize(
        "amps",
        [
            [np.nan, 0, 0, 1],
            [np.inf, 0, 0, 1],
            [1, 0, 0, -np.inf],
            [1, complex(0, np.nan), 0, 1],
        ],
    )
    def test_non_finite_raises(self, amps):
        for build in (make_state, lambda d, a: PureState(tuple(d), np.array(a, dtype=complex))):
            with pytest.raises(NonFiniteError) as info:
                build([2, 2], amps)
            assert isinstance(info.value, QconcError)
            assert isinstance(info.value, ValueError)

    def test_amps_are_read_only(self):
        s = make_state([2], [1, 0])
        with pytest.raises(ValueError):
            s.amps[0] = 5.0

    def test_input_array_is_copied(self):
        buf = np.array([1.0, 0.0], dtype=complex)
        s = make_state([2], buf)
        buf[0] = 7.0
        assert s.amps[0] == 1.0


class TestNormalize:
    def test_real_example(self):
        s = normalize(make_state([2, 2], [2, 0, 0, 0]))
        np.testing.assert_allclose(s.amps, [1, 0, 0, 0])

    def test_complex_example(self):
        s = normalize(make_state([2], [3j, 4]))
        np.testing.assert_allclose(s.amps, [0.6j, 0.8], atol=1e-15)
        assert abs(s.norm() - 1.0) <= 1e-15

    def test_uniform(self):
        s = normalize(make_state([2, 2], [1, 1, 1, 1]))
        np.testing.assert_allclose(s.amps, [0.5] * 4)

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=4,
            max_size=4,
        )
    )
    def test_idempotent(self, pairs):
        amps = np.array([complex(re, im) for re, im in pairs])
        if np.linalg.norm(amps) < 1e-6:
            return
        once = normalize(make_state([2, 2], amps))
        twice = normalize(once)
        assert abs(once.norm() - 1.0) <= 1e-15
        np.testing.assert_allclose(twice.amps, once.amps, rtol=0, atol=1e-15)

    def test_preserves_dims(self):
        s = normalize(make_state([3, 2], np.arange(1, 7)))
        assert s.dims == (3, 2)

    # The plain norm overflows (1e200, 1e160) or underflows to 0 (1e-170,
    # 5e-324); the peak-scaled norm does neither.
    @pytest.mark.parametrize("scale", [1e200, 1e160, 1e-170, 5e-324, 1.7e308])
    def test_extreme_magnitudes(self, scale):
        s = normalize(make_state([2, 2], scale * bell_state().amps * math.sqrt(2.0)))
        np.testing.assert_allclose(s.amps, bell_state().amps, rtol=0, atol=1e-15)

    def test_matches_plain_division_bitwise(self):
        # Power-of-two prescaling is exact: wherever the plain norm is safe,
        # the norm and the normalized amplitudes are the plain ones, bit for bit.
        rng = np.random.default_rng(8)
        for k in range(200):
            n = int(rng.integers(1, 40))
            amps = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-140, 140)
            if k % 4 == 0:
                amps.real[rng.random(n) < 0.5] = 0.0
            state = make_state([n], amps)
            assert state.norm() == np.linalg.norm(amps)
            assert normalize(state).amps.tobytes() == (amps / np.linalg.norm(amps)).tobytes()


class TestIndexing:
    def test_linear_index_first_and_last(self):
        assert linear_index((2, 3), (1, 1)) == 0
        assert linear_index((2, 3), (2, 3)) == 5

    def test_linear_index_row_major(self):
        # Last subsystem varies fastest.
        assert linear_index((2, 3), (1, 2)) == 1
        assert linear_index((2, 3), (2, 1)) == 3

    def test_amplitude_ghz(self):
        g = ghz_state()
        assert amplitude(g, (1, 1, 1)) == pytest.approx(1 / math.sqrt(2))
        assert amplitude(g, (2, 2, 2)) == pytest.approx(1 / math.sqrt(2))
        assert amplitude(g, (1, 1, 2)) == 0.0

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (2, 2, 2), (3, 1, 2)])
    def test_amplitude_round_trip_exhaustive(self, dims):
        size = math.prod(dims)
        s = make_state(dims, np.arange(1, size + 1, dtype=float))
        seen = set()
        for multi in np.ndindex(*dims):
            idx = tuple(i + 1 for i in multi)
            flat = linear_index(dims, idx)
            seen.add(flat)
            assert amplitude(s, idx) == s.amps[flat]
        assert seen == set(range(size))

    def test_out_of_range_raises(self):
        s = make_state([2, 3], np.arange(1, 7))
        with pytest.raises(IndexError):
            amplitude(s, (0, 1))
        with pytest.raises(IndexError):
            amplitude(s, (1, 4))
        with pytest.raises(IndexError):
            amplitude(s, (3, 1))

    def test_wrong_arity_raises(self):
        s = make_state([2, 3], np.arange(1, 7))
        with pytest.raises(IndexError):
            amplitude(s, (1,))
        with pytest.raises(IndexError):
            amplitude(s, (1, 1, 1))


class TestTensor:
    def test_dims_concatenate(self):
        s = tensor(make_state([2], [1, 0]), make_state([3], [0, 1, 0]))
        assert s.dims == (2, 3)

    def test_values_match_kron(self):
        a = make_state([2], [1, 2])
        b = make_state([2], [3, 4])
        s = tensor(a, b)
        np.testing.assert_allclose(s.amps, [3, 4, 6, 8])

    def test_basis_kets_compose(self):
        s = tensor(ket([2], [2]), ket([3], [1]))
        assert s.amps[linear_index((2, 3), (2, 1))] == 1.0
        assert abs(s.norm() - 1.0) == 0.0

    def test_three_factors(self):
        s = tensor(ket([2], [1]), ket([2], [2]), ket([2], [1]))
        assert s.dims == (2, 2, 2)
        assert amplitude(s, (1, 2, 1)) == 1.0

    def test_single_factor_round_trip(self):
        b = bell_state()
        t = tensor(b)
        np.testing.assert_array_equal(t.amps, b.amps)

    def test_no_factor_raises(self):
        with pytest.raises(ShapeError):
            tensor()

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_norm_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = make_state([2], rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b = make_state([3], rng.standard_normal(3) + 1j * rng.standard_normal(3))
        prod = tensor(a, b)
        assert prod.norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12)


class TestPureStateBasics:
    def test_norm_of_unnormalized(self):
        s = make_state([2], [3, 4])
        assert s.norm() == pytest.approx(5.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 5e-324])
    def test_norm_of_extreme_magnitudes(self, scale):
        # The squares overflow or underflow; the norm itself does not.
        assert make_state([2], [3 * scale, 4 * scale]).norm() == pytest.approx(5 * scale, rel=1e-15)

    def test_dataclass_is_frozen(self):
        s = make_state([2], [1, 0])
        with pytest.raises(AttributeError):
            s.dims = (3,)

    def test_direct_construction_validates(self):
        with pytest.raises(ShapeError):
            PureState((2, 2), np.zeros(3, dtype=complex))
