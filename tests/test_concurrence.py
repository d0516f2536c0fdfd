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
from qconc.concurrence import MAX_CERTIFICATE_MINORS, _rank_one_factors

from conftest import (
    apply_local_unitary,
    bell_state,
    fidelity,
    ghz_state,
    haar_unitary,
    ket,
    qutrit_pair,
    reconstruction_fidelity,
    w_state,
)

SQ2 = 1.0 / math.sqrt(2.0)


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
        # the factors must equal those of matricize(normalize(state), cut).
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
                want = _rank_one_factors(matricize(normalize(state), cut), state, cut)
                got = is_separable_cut(state, cut).factors
                for g, w in zip(got, want):
                    assert g.dims == w.dims
                    assert g.amps.tobytes() == w.amps.tobytes(), (dims, cut)

    def test_all_zero_state_is_degenerate(self):
        # Built directly, past make_state's check; every minor is 0.
        with pytest.raises(DegenerateStateError):
            is_separable_cut(PureState((2, 2), np.zeros(4)), 1)

    def test_second_cut_of_bipartite(self):
        state = tensor(make_state([3], [1, 1j, 0]), make_state([2], [0.8, 0.6]))
        u, v = factorize_cut(state, 2)
        assert u.dims == (2,)
        assert v.dims == (3,)
        assert fidelity(u.amps, [0.8, 0.6]) == pytest.approx(1.0, abs=1e-12)


class TestFullSeparability:
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
    def refuse(entries):
        raise AssertionError("the minor kernel ran")

    monkeypatch.setattr(sys.modules["qconc.schwarz"], "_minor_chunks", refuse)
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

        def counting(mat):
            seen.append(mat.shape)
            return max_abs_minor(mat)

        monkeypatch.setattr(module, "max_abs_minor", counting)
        return seen

    def test_is_separable_cut_and_factorize_cut(self, calls):
        s = sample_state(SamplerSpec((4, 6), "product", 3))
        assert is_separable_cut(s, 2).separable
        assert len(calls) == 1
        factorize_cut(s, 1)
        assert calls == [(6, 4), (4, 6)]

    @pytest.mark.parametrize("kind, certificates", [("haar", 3), ("product", 2)])
    def test_full_separability(self, calls, kind, certificates):
        # Haar: three failed cuts.  Product: cut 1 of [8,8,8], then of [8,8].
        result = full_separability(sample_state(SamplerSpec((8, 8, 8), kind, 5)))
        assert len(calls) == certificates
        assert len(result.failed) == (3 if kind == "haar" else 0)
