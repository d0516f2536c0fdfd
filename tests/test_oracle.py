"""Tests for the reduced-density/spectral oracle used to cross-validate minors."""

import math

import numpy as np
import pytest

from qconc import (
    ArityError,
    DensityMatrix,
    NonFiniteError,
    SamplerSpec,
    concurrence,
    make_state,
    matricize,
    numeric_rank,
    oracle_concurrence,
    purity,
    reduced_density,
    sample_state,
    ShapeError,
    tensor,
)

from conftest import bell_state, ghz_state, ket, w_state


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = DensityMatrix(2, np.eye(2) / 2)
        assert rho.dim == 2
        np.testing.assert_array_equal(rho.entries, np.eye(2) / 2)

    def test_entries_read_only(self):
        rho = DensityMatrix(2, np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(3, np.eye(2) / 2)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.diag([1.5, -0.5]))

    @pytest.mark.parametrize(
        "entries", [[[math.nan, 0], [0, 1]], [[0.5, math.inf], [math.inf, 0.5]]], ids=["nan", "inf"]
    )
    def test_non_finite_entry_rejected(self, entries):
        # Every comparison with NaN is false, so no other check catches it.
        with pytest.raises(NonFiniteError):
            DensityMatrix(2, entries)


class TestReducedDensity:
    def test_bell_keep_1_is_maximally_mixed(self):
        rho = reduced_density(bell_state(), 1)
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_product_basis_keep_1_is_projector(self):
        rho = reduced_density(ket([2, 2], [1, 1]), 1)
        np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_w_keep_1(self):
        rho = reduced_density(w_state(), 1)
        np.testing.assert_allclose(rho.entries, np.diag([2 / 3, 1 / 3]), atol=1e-15)

    def test_keep_out_of_range(self):
        with pytest.raises(IndexError):
            reduced_density(bell_state(), 0)
        with pytest.raises(IndexError):
            reduced_density(bell_state(), 3)

    @pytest.mark.parametrize("keep", [True, 1.0, np.bool_(True)])
    def test_keep_bool_or_float_refused(self, keep):
        with pytest.raises(IndexError, match=f"cut {keep} out of range"):
            reduced_density(bell_state(), keep)

    def test_keep_numpy_integer(self):
        assert reduced_density(bell_state(), np.int64(2)).dim == 2

    def test_normalizes_internally(self):
        scaled = make_state([2, 2], 5.0 * bell_state().amps)
        rho = reduced_density(scaled, 2)
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_off_diagonal_coherences(self):
        # |+>|1>: rho_1 should be the rank-1 projector onto |+>.
        plus = make_state([2], [1 / math.sqrt(2)] * 2)
        rho = reduced_density(tensor(plus, ket([3], [1])), 1)
        np.testing.assert_allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-15)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (4, 4)])
    def test_invariants_on_random_states(self, dims):
        # DensityMatrix.__post_init__ enforces Hermiticity/trace/PSD; surviving
        # construction for every random draw is itself the assertion.
        for seed in range(40):
            s = sample_state(SamplerSpec(dims, "haar", seed))
            for keep in range(1, len(dims) + 1):
                rho = reduced_density(s, keep)
                assert rho.dim == dims[keep - 1]
                assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
                assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-12


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(DensityMatrix(2, np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-15)

    def test_rank_one_projector(self):
        assert purity(reduced_density(ket([2, 2], [1, 1]), 1)) == pytest.approx(1.0, abs=1e-14)

    def test_w_reduced(self):
        assert purity(reduced_density(w_state(), 1)) == pytest.approx(5 / 9, abs=1e-14)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (2, 4, 3)])
    def test_bounds(self, dims):
        for seed in range(30):
            s = sample_state(SamplerSpec(dims, "haar", seed + 100))
            for keep in range(1, len(dims) + 1):
                p = purity(reduced_density(s, keep))
                assert 1.0 / dims[keep - 1] - 1e-12 <= p <= 1.0 + 1e-12


class TestOracleConcurrence:
    def test_bell(self):
        assert oracle_concurrence(bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_ghz(self):
        assert oracle_concurrence(ghz_state()) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_product_is_zero(self):
        assert oracle_concurrence(ket([2, 2], [1, 1])) <= 1e-12

    def test_arity_error(self):
        with pytest.raises(ArityError):
            oracle_concurrence(ket([2], [1]))
        with pytest.raises(ArityError):
            oracle_concurrence(ket([2, 2, 2, 2], [1, 1, 1, 1]))

    @pytest.mark.parametrize("dims", [(2, 2), (5, 3), (2, 3, 2)])
    def test_agreement_with_minor_route(self, dims):
        for seed in range(40):
            s = sample_state(SamplerSpec(dims, "haar", seed + 500))
            assert abs(oracle_concurrence(s) - concurrence(s).value) <= 1e-9


class TestNumericRank:
    def test_bell_matricization(self):
        assert numeric_rank(matricize(bell_state(), 1)) == 2

    def test_product_matricization(self):
        s = tensor(make_state([3], [1, 2j, -1]), make_state([4], [1, 0, 1, 1j]))
        assert numeric_rank(matricize(s, 1)) == 1

    def test_ghz_cut_1(self):
        assert numeric_rank(matricize(ghz_state(), 1)) == 2

    def test_qutrit_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_plain_arrays_accepted(self):
        assert numeric_rank(np.outer([1, 2, 3], [4, 5])) == 1

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_tolerance_knob(self):
        m = np.diag([1.0, 1e-6])
        assert numeric_rank(m) == 2  # default 1e-9 relative
        assert numeric_rank(m, tolerance=1e-3) == 1
        assert numeric_rank(m, tolerance=0) == 2

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            numeric_rank(np.array([[1.0, bad], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ShapeError):
            numeric_rank(np.ones(shape))

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            numeric_rank(np.eye(2), tolerance=tolerance)
