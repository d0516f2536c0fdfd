"""Tests for concurrence values, separability certificates, and factorization."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from qconc import (
    ArityError,
    CertificateError,
    DegenerateStateError,
    InternalConsistencyError,
    PureState,
    concurrence,
    factorize_cut,
    full_separability,
    is_separable_cut,
    make_state,
    matricize,
    max_abs_minor,
    normalize,
    numeric_rank,
    oracle_concurrence,
    sample_state,
    SamplerSpec,
    tensor,
    WorkBudgetError,
)
from qconc import schwarz
from qconc.concurrence import DEFAULT_TOLERANCE, MAX_CERTIFICATE_MINORS
from qconc.states import peak_scaled

from conftest import (
    apply_local_unitary,
    bell_state,
    fidelity,
    ghz_state,
    haar_unitary,
    ket,
    near_product_state,
    near_product_terms,
    qutrit_pair,
    reconstruction_fidelity,
    w_state,
)

SQ2 = 1.0 / math.sqrt(2.0)


def _factors_at(state: PureState, cut: int, r: int, c: int) -> tuple[PureState, PureState]:
    """Normalized pivot column and pivot row over the pivot of
    matricize(normalize(state), cut) at the pivot (r, c)."""
    m = matricize(normalize(state), cut)
    u, v = m[:, c], m[r] / m[r, c]
    rest = state.dims[: cut - 1] + state.dims[cut:]
    return PureState((m.shape[0],), u / np.linalg.norm(u)), PureState(rest, v / np.linalg.norm(v))


class TestGoldenValues:
    def test_bell(self):
        assert concurrence(bell_state()).value == pytest.approx(1.0, abs=1e-12)

    def test_product_basis_state(self):
        assert concurrence(ket([2, 2], [1, 1])).value == 0.0

    def test_qutrit_pair(self):
        report = concurrence(qutrit_pair())
        assert report.value == pytest.approx(math.sqrt(4 / 3), abs=1e-12)

    def test_ghz(self):
        report = concurrence(ghz_state())
        assert report.value == pytest.approx(math.sqrt(3), abs=1e-12)
        for _, s in report.per_cut_sums:
            assert s == pytest.approx(0.25, abs=1e-15)

    def test_w(self):
        report = concurrence(w_state())
        assert report.value == pytest.approx(math.sqrt(8 / 3), abs=1e-12)
        for _, s in report.per_cut_sums:
            assert s == pytest.approx(2 / 9, abs=1e-15)

    def test_product_of_three(self):
        assert concurrence(ket([2, 2, 2], [1, 1, 1])).value == 0.0

    def test_qubit_times_bell(self):
        state = tensor(ket([2], [1]), bell_state())
        report = concurrence(state)
        assert report.value == pytest.approx(math.sqrt(2), abs=1e-12)
        sums = dict(report.per_cut_sums)
        assert sums[1] == pytest.approx(0.0, abs=1e-15)
        assert sums[2] == pytest.approx(0.25, abs=1e-15)
        assert sums[3] == pytest.approx(0.25, abs=1e-15)


class TestReportStructure:
    def test_value_matches_sums(self):
        rng = np.random.default_rng(2)
        s = make_state([3, 4], rng.standard_normal(12) + 1j * rng.standard_normal(12))
        report = concurrence(s)
        total = math.fsum(v for _, v in report.per_cut_sums)
        assert report.value == pytest.approx(
            math.sqrt(report.normalization * total), rel=1e-12
        )

    def test_cut_labels(self):
        assert [c for c, _ in concurrence(bell_state()).per_cut_sums] == [1]
        assert [c for c, _ in concurrence(ghz_state()).per_cut_sums] == [1, 2, 3]

    def test_dispatcher(self):
        assert concurrence(bell_state()).value == pytest.approx(1.0)
        assert concurrence(ghz_state()).value == pytest.approx(math.sqrt(3))
        with pytest.raises(ArityError):
            concurrence(ket([2], [1]))
        with pytest.raises(ArityError):
            concurrence(ket([2, 2, 2, 2], [1, 1, 1, 1]))

    def test_normalization_parameter(self):
        assert concurrence(bell_state(), normalization=2.0).value == (
            pytest.approx(math.sqrt(0.5))
        )
        with pytest.raises(ValueError):
            concurrence(bell_state(), normalization=0.0)
        with pytest.raises(ValueError):
            concurrence(bell_state(), normalization=-1.0)

    @pytest.mark.parametrize("normalization", [math.inf, -math.inf, math.nan])
    def test_non_finite_normalization_refused(self, normalization):
        # inf * 0 would make a product state's value a silent NaN.
        with pytest.raises(ValueError, match="normalization"):
            concurrence(ket([2, 2], [1, 1]), normalization=normalization)

    def test_arity_checked_before_normalization(self):
        with pytest.raises(ArityError):
            concurrence(ket([2, 2, 2, 2], [1, 1, 1, 1]), normalization=math.inf)

    def test_input_normalization_is_internal(self):
        scaled = make_state([2, 2], 7.3 * bell_state().amps)
        assert concurrence(scaled).value == pytest.approx(1.0, abs=1e-12)


class TestInvariances:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (2, 2, 2), (3, 2, 4)])
    def test_local_unitary_invariance(self, dims):
        rng = np.random.default_rng(42)
        size = math.prod(dims)
        s = make_state(dims, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        base = concurrence(s).value
        for j, n in enumerate(dims, start=1):
            s = apply_local_unitary(s, j, haar_unitary(rng, n))
        rotated = concurrence(s).value
        assert abs(rotated - base) <= 1e-9 * max(base, 1.0)

    @pytest.mark.parametrize("theta", [0.1, 1.0, math.pi, 5.0])
    def test_global_phase_invariance(self, theta):
        rng = np.random.default_rng(7)
        amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        base = concurrence(make_state([2, 3], amps)).value
        phased = concurrence(make_state([2, 3], np.exp(1j * theta) * amps)).value
        assert abs(phased - base) <= 1e-15 * max(base, 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_bipartite_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        dims = (3, 5)
        amps = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        s = make_state(dims, amps)
        swapped = make_state(
            (dims[1], dims[0]), amps.reshape(dims).T.reshape(-1)
        )
        a = concurrence(s).value
        b = concurrence(swapped).value
        assert abs(a - b) <= 1e-12 * max(a, 1.0)


class TestZeroConcurrenceIffProduct:
    """Product states score ~0; Haar-random states score well above zero."""

    def test_500_product_states_near_zero(self):
        for seed in range(250):
            s = sample_state(SamplerSpec((6, 6), "product", seed))
            assert concurrence(s).value <= 1e-10
        for seed in range(250):
            s = sample_state(SamplerSpec((4, 4, 4), "product", seed))
            assert concurrence(s).value <= 1e-10

    def test_500_haar_states_clearly_nonzero(self):
        # Haar states can in principle land near the product manifold, so
        # violations are tallied rather than failed one by one; seeing any at
        # these dims would be astronomically unlikely.
        low = []
        for seed in range(250):
            s = sample_state(SamplerSpec((6, 6), "haar", seed))
            if concurrence(s).value <= 1e-3:
                low.append(("bipartite", seed))
        for seed in range(250):
            s = sample_state(SamplerSpec((4, 4, 4), "haar", seed))
            if concurrence(s).value <= 1e-3:
                low.append(("tripartite", seed))
        assert low == []


class TestSeparabilityCertificates:
    def test_bell_cut_1(self):
        cert = is_separable_cut(bell_state(), 1)
        assert not cert.separable
        assert cert.max_abs_minor == pytest.approx(0.5, abs=1e-15)
        assert cert.factors is None
        assert cert.cut == 1
        assert cert.tolerance == 1e-9

    def test_qubit_times_bell_cut_1(self):
        state = tensor(ket([2], [1]), bell_state())
        cert = is_separable_cut(state, 1)
        assert cert.separable
        u, rest = cert.factors
        assert u.dims == (2,)
        assert rest.dims == (2, 2)
        assert fidelity(u.amps, [1, 0]) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rest.amps, bell_state().amps) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_product_cut_1(self):
        state = tensor(make_state([2], [SQ2, SQ2]), ket([2], [1]))
        cert = is_separable_cut(state, 1)
        assert cert.separable
        assert reconstruction_fidelity(state, 1, *cert.factors) >= 1 - 1e-10

    def test_verdict_is_scale_invariant(self):
        state = make_state([2, 2], 1e-8 * tensor(make_state([2], [SQ2, SQ2]), ket([2], [1])).amps)
        assert is_separable_cut(state, 1).separable
        big_bell = make_state([2, 2], 1e8 * bell_state().amps)
        assert not is_separable_cut(big_bell, 1).separable

    @pytest.mark.parametrize("seed", range(5))
    def test_reported_minor_is_unscaled(self, seed):
        # The verdict is decided on power-of-two-scaled amplitudes; the
        # reported max |minor| is that of the input, bit for bit.
        rng = np.random.default_rng(seed)
        state = make_state([3, 4], (rng.standard_normal(12) + 1j * rng.standard_normal(12)) * 10.0 ** (30 * seed - 60))
        for cut in (1, 2):
            assert is_separable_cut(state, cut).max_abs_minor == max_abs_minor(matricize(state, cut))

    def test_dimension_one_subsystem_is_trivially_separable(self):
        state = make_state([1, 4], [1, 2, 3, 4])
        cert = is_separable_cut(state, 1)
        assert cert.separable
        assert cert.max_abs_minor == 0.0

    def test_arity_error_below_two(self):
        with pytest.raises(ArityError):
            is_separable_cut(ket([5], [2]), 1)

    @pytest.mark.parametrize("cut", [True, 1.0, np.bool_(True)])
    def test_bool_or_float_cut_refused(self, cut):
        with pytest.raises(IndexError, match=f"cut {cut} out of range"):
            is_separable_cut(bell_state(), cut)
        with pytest.raises(IndexError, match=f"cut {cut} out of range"):
            factorize_cut(bell_state(), cut)

    def test_numpy_integer_cut(self):
        cert = is_separable_cut(tensor(bell_state(), ket([2], [1])), np.int64(3))
        assert cert.separable and cert.cut == 3

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            is_separable_cut(bell_state(), 1, tolerance=0.0)

    def test_middle_cut_of_tripartite(self):
        # |phi>_2 separable against subsystems 1 and 3 jointly.
        phi = make_state([2], [0.6, 0.8j])
        state = tensor(ket([3], [2]), phi, ket([2], [1]))
        cert = is_separable_cut(state, 2)
        assert cert.separable
        u, rest = cert.factors
        assert u.dims == (2,)
        assert rest.dims == (3, 2)
        assert fidelity(u.amps, phi.amps) == pytest.approx(1.0, abs=1e-12)


class TestExtremeMagnitudes:
    """Amplitudes beyond the range where squares and norms stay finite and nonzero."""

    SCALES = [1e200, 1e160, 1e-170]

    @pytest.mark.parametrize("scale", SCALES)
    def test_bell_concurrence(self, scale):
        state = make_state([2, 2], scale * bell_state().amps)
        assert concurrence(state).value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("scale", SCALES)
    def test_bell_is_entangled(self, scale):
        state = make_state([2, 2], scale * bell_state().amps)
        for cut in (1, 2):
            cert = is_separable_cut(state, cut)
            assert not cert.separable
            assert cert.factors is None
        # max |minor| = scale^2 / 2: beyond the double range it is reported as inf.
        assert is_separable_cut(state, 1).max_abs_minor == (math.inf if scale > 1 else 0.0)

    @pytest.mark.parametrize("scale", SCALES)
    def test_product_is_separable(self, scale):
        base = tensor(make_state([2], [0.6, 0.8j]), make_state([3], [1, 2j, -2]))
        state = make_state([2, 3], scale * base.amps)
        cert = is_separable_cut(state, 1)
        assert cert.separable
        assert reconstruction_fidelity(normalize(state), 1, *cert.factors) >= 1 - 1e-10
        assert full_separability(state).fully_separable

    def test_ghz_stays_entangled(self):
        state = make_state([2, 2, 2], 1e200 * ghz_state().amps)
        assert not full_separability(state).fully_separable
        assert concurrence(state).value == pytest.approx(math.sqrt(3), abs=1e-10)


class TestFactorizeCut:
    def test_plus_times_basis(self):
        state = tensor(make_state([2], [SQ2, SQ2]), ket([2], [1]))
        u, v = factorize_cut(state, 1)
        assert fidelity(u.amps, [SQ2, SQ2]) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(v.amps, [1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_times_bell_recovers_bell(self):
        state = tensor(ket([2], [1]), bell_state())
        u, rest = factorize_cut(state, 1)
        assert fidelity(rest.amps, bell_state().amps) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_haar_product_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = tensor(make_state([3], u), make_state([4], v))
        ru, rv = factorize_cut(state, 1)
        assert fidelity(ru.amps, u / np.linalg.norm(u)) == pytest.approx(1.0, abs=1e-10)
        assert fidelity(rv.amps, v / np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-10)
        assert reconstruction_fidelity(state, 1, ru, rv) >= 1 - 1e-10

    def test_pivot_handles_leading_zero(self):
        # First amplitude of the row factor is zero: the natural top-left
        # pivot vanishes and a max-modulus pivot is required.
        state = tensor(make_state([2], [0, 1]), make_state([2], [0.6, 0.8]))
        u, v = factorize_cut(state, 1)
        assert fidelity(u.amps, [0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(v.amps, [0.6, 0.8]) == pytest.approx(1.0, abs=1e-12)

    def test_entangled_cut_raises(self):
        with pytest.raises(CertificateError):
            factorize_cut(bell_state(), 1)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_factors_are_those_of_the_normalized_matricization(self, scale):
        # The certificate divides its peak-scaled matricization by the norm;
        # the factors must equal those of matricize(normalize(state), cut),
        # at the first entry of the largest modulus of the peak-scaled one.
        rng = np.random.default_rng(int(math.log10(scale)) + 200)
        for dims in ([2, 2], [3, 5], [2, 3, 2, 2], [4, 4, 4], [5, 1, 7]):
            parts = []
            for n in dims:
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v[rng.random(n) < 0.3] = 0
                v[0] += v[0] == 0  # keep the factor nonzero
                parts.append(make_state([n], v))
            state = make_state(dims, scale * tensor(*parts).amps)
            for cut in range(1, len(dims) + 1):
                scaled = matricize(PureState(state.dims, peak_scaled(state)[0]), cut)
                r, c = divmod(int(np.argmax(np.abs(scaled))), scaled.shape[1])
                want = _factors_at(state, cut, r, c)
                got = is_separable_cut(state, cut).factors
                for g, w in zip(got, want):
                    assert g.dims == w.dims
                    assert g.amps.tobytes() == w.amps.tobytes(), (dims, cut)

    @pytest.mark.parametrize(
        "parts",
        [
            [
                ("0x1.a481318435a31p-2", "-0x1.9a9ef3f7d2fc2p-2"),
                ("-0x1.1f1c611a16c24p-2", "-0x1.52e11cfe6a15fp-2"),
                ("0x1.a481318435a32p-2", "-0x1.9a9ef3f7d2fc3p-2"),
                ("-0x1.1f1c611a16c25p-2", "-0x1.52e11cfe6a15fp-2"),
            ],
            [
                ("-0x1.9b00a27f5a2d4p-2", "-0x1.007b61aaa779dp-1"),
                ("0x1.cd233100b1ecep-3", "-0x1.95db859845f2dp-7"),
                ("-0x1.9b00a27f5a2d5p-2", "-0x1.007b61aaa779ep-1"),
                ("0x1.cd233100b1ed1p-3", "-0x1.95db859845f27p-7"),
            ],
        ],
    )
    def test_factors_take_the_pivot_of_the_scale(self, parts):
        # outer([a z, a (1 + 2**-52) z], [1, w]): the peak-scaled moduli of the
        # two rows' first entries round to a tie, which the pivot pass breaks
        # for row 1, while over the norm row 2's is the larger.  The factors
        # are taken where the scale is, at the pivot pass's entry.
        state = make_state([2, 2], [complex(float.fromhex(a), float.fromhex(b)) for a, b in parts])
        r, c, _, _ = schwarz._pivot_minors(matricize(PureState((2, 2), peak_scaled(state)[0]), 1))
        want = _factors_at(state, 1, r, c)
        cert = is_separable_cut(state, 1)
        for got in (cert.factors, factorize_cut(state, 1)):
            assert [g.amps.tobytes() for g in got] == [w.amps.tobytes() for w in want]
        assert reconstruction_fidelity(state, 1, *cert.factors) >= 1 - 1e-10

    def test_all_zero_state_is_degenerate(self):
        # PureState itself refuses it, so no certificate sees a zero vector.
        with pytest.raises(DegenerateStateError):
            is_separable_cut(PureState((2, 2), np.zeros(4)), 1)

    def test_second_cut_of_bipartite(self):
        state = tensor(make_state([3], [1, 1j, 0]), make_state([2], [0.8, 0.6]))
        u, v = factorize_cut(state, 2)
        assert u.dims == (2,)
        assert v.dims == (3,)
        assert fidelity(u.amps, [0.8, 0.6]) == pytest.approx(1.0, abs=1e-12)


class TestFullSeparability:
    @pytest.mark.parametrize("tolerance", [math.nan, -0.5, 0.0, -math.inf, math.inf])
    def test_bad_tolerance_rejected_on_one_subsystem(self, tolerance):
        # No cut is tested, yet the tolerance is checked as is_separable_cut
        # does.  An infinite one would call the Bell state separable, with
        # basis factors of fidelity 0.5.
        with pytest.raises(ValueError, match="tolerance must be positive"):
            full_separability(make_state([3], [1, 0, 0]), tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            is_separable_cut(bell_state(), 1, tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            factorize_cut(bell_state(), 1, tolerance=tolerance)

    def test_cut_proven_entangled_that_scans_separable_is_refused(self, monkeypatch):
        # A pivot verdict that wrongly proves every cut of a product state
        # entangled is caught when the reported certificates are scanned.
        monkeypatch.setattr(sys.modules["qconc.concurrence"], "_pivot_verdict", lambda *a: False)
        state = sample_state(SamplerSpec((2, 2, 2), "product", 1))
        with pytest.raises(InternalConsistencyError, match="proven entangled scanned separable"):
            full_separability(state)

    def test_basis_state_fully_separable(self):
        result = full_separability(ket([2, 3, 2], [1, 2, 1]))
        assert result.fully_separable
        assert result.verdict == "fully separable"
        assert [idx for idx, _ in result.factors] == [1, 2, 3]
        assert result.failed == ()
        assert result.remainder is None
        assert result.remainder_subsystems == ()
        # Reconstruct |1,2,1> from the ordered factors.
        rebuilt = tensor(*[s for _, s in result.factors])
        assert fidelity(rebuilt.amps, ket([2, 3, 2], [1, 2, 1]).amps) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_random_product_reconstructs(self):
        rng = np.random.default_rng(5)
        parts = [
            make_state((n,), rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for n in (2, 3, 2)
        ]
        state = tensor(*parts)
        result = full_separability(state)
        assert result.fully_separable
        rebuilt = tensor(*[s for _, s in result.factors])
        assert fidelity(rebuilt.amps, normalize(state).amps) >= 1 - 1e-10

    def test_ghz_fails_all_cuts(self):
        result = full_separability(ghz_state())
        assert not result.fully_separable
        assert result.verdict == "entangled at cut structure"
        assert result.factors == ()
        assert len(result.failed) == 3
        assert all(not c.separable for c in result.failed)
        assert result.remainder_subsystems == (1, 2, 3)
        for cert in result.failed:
            assert cert.max_abs_minor == pytest.approx(0.5, abs=1e-15)

    def test_bell_times_qubit_extracts_third(self):
        state = tensor(bell_state(), ket([2], [1]))
        result = full_separability(state)
        assert not result.fully_separable
        assert [idx for idx, _ in result.factors] == [3]
        assert result.remainder_subsystems == (1, 2)
        assert fidelity(result.remainder.amps, bell_state().amps) == (
            pytest.approx(1.0, abs=1e-12)
        )
        assert len(result.failed) == 2

    def test_two_peels_number_the_remainder(self):
        # Subsystems 3, then 4 (cut 3 of the remainder [1, 2, 4]) peel off;
        # the failed list holds only the last pass, numbered in (1, 2).
        plus = make_state([2], [SQ2, SQ2])
        result = full_separability(tensor(bell_state(), ket([2], [2]), plus))
        assert not result.fully_separable
        assert [idx for idx, _ in result.factors] == [3, 4]
        assert result.remainder_subsystems == (1, 2)
        assert result.remainder.dims == (2, 2)
        assert [c.cut for c in result.failed] == [1, 2]
        for cert in result.failed:
            assert not cert.separable
            assert cert.max_abs_minor == pytest.approx(0.5, abs=1e-15)

    def test_single_subsystem(self):
        result = full_separability(make_state([4], [1, 2, 3, 4]))
        assert result.fully_separable
        assert len(result.factors) == 1
        assert result.factors[0][0] == 1
        assert abs(result.factors[0][1].norm() - 1.0) <= 1e-12

    def test_more_subsystems_than_numpy_axes(self):
        # 65 subsystems: numpy arrays have at most 64 axes.
        state = make_state([1] * 65, [1])
        assert is_separable_cut(state, 33).separable
        result = full_separability(state)
        assert result.fully_separable
        assert [idx for idx, _ in result.factors] == list(range(1, 66))

    def test_w_state_entangled(self):
        result = full_separability(w_state())
        assert not result.fully_separable
        assert len(result.failed) == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_product_sampler_always_fully_separable(self, seed):
        s = sample_state(SamplerSpec((2, 3, 2), "product", seed + 400))
        assert full_separability(s).fully_separable


class TestCertificateSoundness:
    """Whenever a certificate says separable, the factors must reproduce the state."""

    @pytest.mark.parametrize("seed", range(20))
    def test_separable_verdicts_carry_good_factors(self, seed):
        dims = (3, 4) if seed % 2 == 0 else (2, 3, 2)
        s = sample_state(SamplerSpec(dims, "product", seed + 900))
        for cut in range(1, len(dims) + 1):
            cert = is_separable_cut(s, cut)
            assert cert.separable
            assert reconstruction_fidelity(s, cut, *cert.factors) >= 1 - 1e-10
            assert numeric_rank(matricize(s, cut)) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_entangled_verdicts_match_rank(self, seed):
        dims = (3, 4) if seed % 2 == 0 else (2, 3, 2)
        s = sample_state(SamplerSpec(dims, "haar", seed + 950))
        for cut in range(1, len(dims) + 1):
            cert = is_separable_cut(s, cut)
            rank = numeric_rank(matricize(s, cut))
            assert cert.separable == (rank == 1)
            assert not cert.separable  # Haar states at these dims are entangled


class TestOracleAgreement:
    @pytest.mark.parametrize("dims", [(2, 2), (4, 5), (2, 2, 2), (3, 3, 3)])
    def test_oracle_matches_minor_route(self, dims):
        for seed in range(25):
            s = sample_state(SamplerSpec(dims, "haar", seed + 31))
            assert abs(concurrence(s).value - oracle_concurrence(s)) <= 1e-9


class TestCertificateBudget:
    """is_separable_cut refuses a scan above MAX_CERTIFICATE_MINORS before allocating."""

    def test_budget_sits_above_benchmark_and_test_shapes(self):
        # bipartite_haar's [32,32] and the [8,8,8] unfoldings are the largest.
        assert math.comb(32, 2) ** 2 < MAX_CERTIFICATE_MINORS
        assert math.comb(8, 2) * math.comb(64, 2) < MAX_CERTIFICATE_MINORS

    def test_sampled_1024x1024_refused_without_allocating(self):
        state = make_state([1024, 1024], np.ones(1 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(WorkBudgetError, match="minors"):
                is_separable_cut(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(WorkBudgetError):
            factorize_cut(state, 2)

    def test_refusal_starts_just_above_the_budget(self, monkeypatch):
        state = make_state([3, 4], np.arange(1, 13))  # 3 * 6 = 18 minors
        # The package exports the function concurrence under the module's name.
        concurrence_module = sys.modules["qconc.concurrence"]
        monkeypatch.setattr(concurrence_module, "MAX_CERTIFICATE_MINORS", 18)
        assert is_separable_cut(state, 1).max_abs_minor > 0.0
        monkeypatch.setattr(concurrence_module, "MAX_CERTIFICATE_MINORS", 17)
        with pytest.raises(WorkBudgetError):
            is_separable_cut(state, 1)
        with pytest.raises(IndexError):  # a bad cut is still an IndexError
            is_separable_cut(state, 3)


def test_no_concurrence_path_runs_the_quartic_kernel(monkeypatch):
    def refuse(entries, pairs=None):
        raise AssertionError("the minor kernel ran")

    monkeypatch.setattr(sys.modules["qconc.schwarz"], "_max_minor", refuse)
    for dims, seed in [((2, 2), 1), ((2, 2, 2), 2), ((3, 4), 3), ((8, 8, 8), 4)]:
        s = sample_state(SamplerSpec(dims, "haar", seed))
        assert concurrence(s).value ** 2 == pytest.approx(oracle_concurrence(s) ** 2, abs=1e-10)


class TestFullSeparabilityBudget:
    def test_refused_before_normalizing(self):
        # The state is built first; only full_separability's own
        # allocations count, and normalizing it would take about 16 MiB.
        state = make_state([1024, 1024], np.ones(1 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(WorkBudgetError, match="minors"):
                full_separability(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_later_cut_refused_before_any_certificate(self, monkeypatch):
        # Cut 1 of [2, 180, 180] has 5.2e8 minors, within the budget; cut 2
        # has 1.04e9, and is refused before cut 1 is scanned.
        def scan(mat):
            raise AssertionError("a certificate scanned a cut")

        monkeypatch.setattr(sys.modules["qconc.concurrence"], "max_abs_minor", scan)
        state = make_state([2, 180, 180], np.ones(2 * 180 * 180))
        with pytest.raises(WorkBudgetError, match="cut 2 "):
            full_separability(state)

    def test_single_subsystem_needs_no_budget(self):
        result = full_separability(make_state([5], np.arange(1, 6)))
        assert result.fully_separable and len(result.factors) == 1


class TestOneScanPerCertificate:
    """Each certificate calls the module-level max_abs_minor once; the
    benchmark's traced span for the certificate scan wraps that name."""

    @pytest.fixture
    def calls(self, monkeypatch):
        module = sys.modules["qconc.concurrence"]
        seen = []

        def counting(mat, **kwargs):
            seen.append(mat.shape)
            return max_abs_minor(mat, **kwargs)

        monkeypatch.setattr(module, "max_abs_minor", counting)
        return seen

    def test_is_separable_cut_and_factorize_cut(self, calls):
        s = sample_state(SamplerSpec((4, 6), "product", 3))
        assert is_separable_cut(s, 2).separable
        assert len(calls) == 1
        factorize_cut(s, 1)
        assert calls == [(6, 4), (4, 6)]

    @pytest.mark.parametrize("kind, scans", [("haar", 3), ("product", 0)])
    def test_full_separability(self, calls, kind, scans):
        # Haar: the pivot proves all three cuts entangled; none peels, so
        # each is scanned once for its reported certificate.  Product: the
        # pivot's Schur bound certifies both peels (cut 1 of [8,8,8], then of [8,8]).
        result = full_separability(sample_state(SamplerSpec((8, 8, 8), kind, 5)))
        assert len(calls) == scans
        assert len(result.failed) == (3 if kind == "haar" else 0)

    def test_biseparable_scans_only_reported_cuts(self, calls):
        # Bell x qutrit: the pivot proves cuts 1 and 2 entangled, and as
        # cut 3 peels they are never scanned; the Bell remainder splits
        # nowhere, so its two reported certificates are one scan each.
        result = full_separability(tensor(bell_state(), make_state([3], [1, 2j, 3])))
        assert calls == [(2, 2), (2, 2)]
        assert result.remainder_subsystems == (1, 2)
        assert [f[0] for f in result.factors] == [3]
        # The same on [8, 8, 8]: a Haar pair on subsystems 1-2 times a Haar
        # qudit.  Its entangled cuts 1 and 2 come before the separable cut
        # 3, as in no benchmark workload; only the remainder's two cuts
        # are scanned.
        calls.clear()
        pair = sample_state(SamplerSpec((8, 8), "haar", 3))
        result = full_separability(tensor(pair, sample_state(SamplerSpec((8,), "haar", 4))))
        assert calls == [(8, 8), (8, 8)]
        assert result.remainder_subsystems == (1, 2)
        assert [f[0] for f in result.factors] == [3]


class TestOnePivotPassPerCut:
    """The peel runs _pivot_minors once per cut it tests, and the reported
    certificates read that pass (is_separable_cut's _cut) rather than their own."""

    @pytest.fixture
    def passes(self, monkeypatch):
        seen = []
        run = schwarz._pivot_minors

        def counting(x):
            seen.append(x.shape)
            return run(x)

        for module in (schwarz, sys.modules["qconc.concurrence"]):
            if hasattr(module, "_pivot_minors"):
                monkeypatch.setattr(module, "_pivot_minors", counting)
        return seen

    @pytest.mark.parametrize("kind, runs", [("haar", 3), ("product", 2)])
    def test_one_pass_per_tested_cut(self, passes, kind, runs):
        # Haar: three cuts proven entangled, each reported.  Product: cut 1
        # of [8, 8, 8] peels, then cut 1 of [8, 8].
        full_separability(sample_state(SamplerSpec((8, 8, 8), kind, 5)))
        assert len(passes) == runs

    def test_biseparable(self, passes):
        # Cuts 1 and 2 proven entangled, cut 3 peels; then the remainder's
        # two cuts, both reported.
        pair = sample_state(SamplerSpec((8, 8), "haar", 3))
        result = full_separability(tensor(pair, sample_state(SamplerSpec((8,), "haar", 4))))
        assert len(result.failed) == 2
        assert len(passes) == 5


def test_peel_factors_a_scanned_cut_once(monkeypatch):
    # At 1e-14 the pivot leaves both peels of this product open, so each
    # peeling cut is scanned and its certificate's factors are the peel's;
    # at 1e-9 the pivot decides both and the peel factors them itself.
    module = sys.modules["qconc.concurrence"]
    calls = {"_rank_one_factors": 0, "max_abs_minor": 0}
    for name in calls:
        run = getattr(module, name)

        def counting(*args, _name=name, _run=run, **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    state = sample_state(SamplerSpec((8, 8, 8), "product", 5))
    scanned = full_separability(state, 1e-14)
    assert calls == {"_rank_one_factors": 2, "max_abs_minor": 2}
    decided = full_separability(state, 1e-9)
    assert calls == {"_rank_one_factors": 4, "max_abs_minor": 2}
    assert [f.amps.tobytes() for _, f in scanned.factors] == [
        f.amps.tobytes() for _, f in decided.factors
    ]


def _peel_by_scan(state, tolerance):
    """full_separability's reference: the greedy peel with is_separable_cut,
    hence the scan, on every cut tested."""
    current, ids, factors = normalize(state), list(range(1, state.subsystem_count + 1)), []
    while len(ids) > 1:
        certificates = []
        for pos in range(1, len(ids) + 1):
            cert = is_separable_cut(current, pos, tolerance)
            if cert.separable:
                u, current = cert.factors
                factors.append((ids.pop(pos - 1), u))
                break
            certificates.append(cert)
        else:
            return _outcome(False, factors, certificates, current, ids)
    factors.append((ids[0], current))
    return _outcome(True, factors, [], None, [])


def _outcome(fully, factors, failed, remainder, ids):
    """Everything a full-separability result reports, as comparable bits."""
    return (
        fully,
        [(i, f.dims, f.amps.tobytes()) for i, f in sorted(factors)],
        [(c.cut, c.max_abs_minor.hex(), c.separable, c.factors) for c in failed],
        None if remainder is None else (remainder.dims, remainder.amps.tobytes()),
        tuple(ids),
    )


def _result_bits(result):
    return _outcome(result.fully_separable, list(result.factors), result.failed,
                    result.remainder, result.remainder_subsystems)


def _bell_with(dims, pair, seed):
    """A Bell pair on subsystems ``pair`` (qubits) times a random state of
    the remaining subsystem: biseparable with the pair in any position."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(dims, dtype=complex)
    rest = [k for k in range(3) if k not in pair][0]
    other = rng.standard_normal(dims[rest]) + 1j * rng.standard_normal(dims[rest])
    for bit in (0, 1):
        index = [slice(None)] * 3
        index[pair[0]], index[pair[1]] = bit, bit
        amps[tuple(index)] = other
    return make_state(list(dims), amps.reshape(-1))


def _cases():
    """{name: state}: Haar and product states, near-products, near-products
    straddling the threshold, biseparable states and extreme scales."""
    cases = {}
    for dims in [(8, 8, 8), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)]:
        for kind in ("haar", "product"):
            for seed in range(3):
                cases[f"{kind}{dims}{seed}"] = sample_state(SamplerSpec(dims, kind, seed))
    rng = np.random.default_rng(14)
    for entangled in (False, True):
        for i in range(4):
            cases[f"near{entangled}{i}"] = near_product_state(rng, (8, 8, 8), entangled)
    for dims in [(8, 8, 8), (4, 6), (3, 3, 3)]:
        for i in range(2):
            t1, t2 = near_product_terms(rng, dims)
            delta = 1e-9 * float(np.max(np.abs(t1))) ** 2  # tol peak^2
            for f in (0.3, 0.99, 1.0, 1.01, 3):
                cases[f"straddle{dims}{i}x{f}"] = make_state(list(dims), t1 + f * delta * t2)
    for pair, dims in [((0, 1), (2, 2, 3)), ((1, 2), (3, 2, 2)), ((0, 2), (2, 3, 2))]:
        for seed in range(2):
            cases[f"bell{pair}{seed}"] = _bell_with(dims, pair, seed)
    for seed in range(2):
        haar = sample_state(SamplerSpec((3, 4), "haar", seed))
        single = make_state([2], rng.standard_normal(2) + 1j * rng.standard_normal(2))
        cases[f"haar-pair-first{seed}"] = tensor(haar, single)
        cases[f"haar-pair-last{seed}"] = tensor(single, haar)
    for name, state in list(cases.items())[::5]:
        for scale in (1e150, 1e-150):
            cases[f"{name}x{scale}"] = make_state(list(state.dims), state.amps * scale)
    return cases


CASES = _cases()


def _first_cut(state):
    """Cut 1 as full_separability first reads it: the unfolding of the
    peak-scaled normalized state."""
    amps, _ = peak_scaled(normalize(state))
    return matricize(PureState(state.dims, amps), 1)


def _scanned_at_threshold(state):
    """Cut 1 of a two-part state as full_separability's scan sees it:
    (largest |minor|, squared peak) of the peak-scaled normalized state."""
    entries = _first_cut(state)
    return max_abs_minor(entries), float(np.max(np.abs(entries))) ** 2


class TestFullSeparabilityMatchesScan:
    """full_separability decides most cuts without the scan; every verdict,
    factor, certificate and remainder must still be the scan's, bit for bit."""

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_the_scan_on_every_cut(self, name):
        want = _peel_by_scan(CASES[name], DEFAULT_TOLERANCE)
        assert _result_bits(full_separability(CASES[name])) == want

    def test_straddling_near_products_are_scanned(self, monkeypatch):
        # Where the pivot leaves the first cut of these open (delta near
        # tol peak^2 on the small shapes), full_separability falls back to
        # the scan.
        undecided = [
            name for name, state in CASES.items() if name.startswith("straddle")
            and schwarz._pivot_verdict(_first_cut(state), DEFAULT_TOLERANCE) is None
        ]
        assert len(undecided) >= 12
        scans = []

        def counting(*args, **kwargs):
            scans.append(args)
            return is_separable_cut(*args, **kwargs)

        monkeypatch.setattr(sys.modules["qconc.concurrence"], "is_separable_cut", counting)
        for name in undecided:
            before = len(scans)
            full_separability(CASES[name])
            assert len(scans) > before, name

    def test_runs_no_minor_sum(self, monkeypatch):
        # The pivot decides without the Gram route; only concurrence sums.
        sums = []
        monkeypatch.setattr(sys.modules["qconc.concurrence"], "minor_sum_sq", sums.append)
        for state in CASES.values():
            full_separability(state)
        assert sums == []

    @pytest.mark.parametrize("seed", range(40))
    def test_tolerance_at_the_scanned_minor(self, seed):
        # The tolerance puts the limit at the scan's largest |minor|, or the
        # least float above it (separable: max <= limit), or just below it
        # (entangled).  The Schur shortcut sees the same minors with other
        # roundings, and only its pad keeps it from deciding these cuts the
        # other way; the entangled one reads a modulus the scan computes.
        rng = np.random.default_rng(seed)
        dims = [(2, 2), (2, 3), (3, 2), (2, 5)][seed % 4]
        state = make_state(list(dims), rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
        worst, scale = _scanned_at_threshold(state)
        tol = worst / scale
        while tol * scale > worst:
            tol = math.nextafter(tol, 0.0)
        while tol * scale < worst:
            tol = math.nextafter(tol, math.inf)
        below = tol
        while below * scale >= worst:
            below = math.nextafter(below, 0.0)
        for tolerance, separable in ((tol, True), (below, False)):
            result = full_separability(state, tolerance)
            assert _result_bits(result) == _peel_by_scan(state, tolerance)
            assert result.fully_separable == separable
