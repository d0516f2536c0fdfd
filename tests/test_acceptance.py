"""Release gate: every criterion checked at its pinned tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with ``pytest -s``) and
fails the suite if its criterion is not met.  All randomness is seeded, so a
green gate is reproducible bit-for-bit.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qconc import (
    bipartite_concurrence,
    concurrence,
    emit_state,
    is_separable_cut,
    make_state,
    matricize,
    numeric_rank,
    purity,
    reduced_density,
    sample_state,
    SamplerSpec,
    tensor,
    tripartite_concurrence,
)
from qconc.cli import cli_main
from qconc.schwarz import gap_equals_minor_sum

from conftest import (
    apply_local_unitary,
    bell_state,
    ghz_state,
    haar_unitary,
    ket,
    qutrit_pair,
    reconstruction_fidelity,
    w_state,
)


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {title} - {detail}")
    assert ok, f"acceptance {num}: {title} - {detail}"


def _random_dims(rng, lo, hi, count):
    return tuple(int(d) for d in rng.integers(lo, hi + 1, size=count))


def test_acceptance_1_golden_values():
    """Benchmark states hit their closed-form values within 1e-10 (N = 4)."""
    cases = [
        ("Bell", bipartite_concurrence(bell_state()).value, 1.0),
        ("qutrit pair", bipartite_concurrence(qutrit_pair()).value, math.sqrt(4 / 3)),
        ("GHZ", tripartite_concurrence(ghz_state()).value, math.sqrt(3)),
        ("W", tripartite_concurrence(w_state()).value, math.sqrt(8 / 3)),
        (
            "|1> x Bell",
            tripartite_concurrence(tensor(ket([2], [1]), bell_state())).value,
            math.sqrt(2),
        ),
    ]
    worst = max(abs(got - want) for _, got, want in cases)
    _report(
        1,
        "golden concurrence values",
        worst <= 1e-10,
        f"max |error| = {worst:.3e} over {len(cases)} states (tolerance 1e-10)",
    )


def test_acceptance_2_oracle_equivalence():
    """value^2 equals the reduced-density purity sum on 500 + 500 Haar states."""
    rng = np.random.default_rng(987654321)
    worst = 0.0
    for i in range(500):
        dims = _random_dims(rng, 2, 6, 2)
        s = sample_state(SamplerSpec(dims, "haar", 100_000 + i))
        value = concurrence(s).value
        oracle_sq = math.fsum(
            2.0 * (1.0 - purity(reduced_density(s, j))) for j in (1,)
        )
        worst = max(worst, abs(value**2 - oracle_sq))
    for i in range(500):
        dims = _random_dims(rng, 2, 4, 3)
        s = sample_state(SamplerSpec(dims, "haar", 200_000 + i))
        value = concurrence(s).value
        oracle_sq = math.fsum(
            2.0 * (1.0 - purity(reduced_density(s, j))) for j in (1, 2, 3)
        )
        worst = max(worst, abs(value**2 - oracle_sq))
    _report(
        2,
        "minor-sum vs reduced-density oracle",
        worst <= 1e-10,
        f"max |value^2 - purity route| = {worst:.3e} on 1000 states (tolerance 1e-10)",
    )


def test_acceptance_3_schwarz_identity():
    """Gap and pairwise-minor sum agree on 10,000 random pairs; gap >= 0."""
    rng = np.random.default_rng(31415926)
    worst_rel = 0.0
    negatives = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 33))
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gap, minor_sum = gap_equals_minor_sum(x1, x2)
        if gap < 0.0:
            negatives += 1
        denom = max(gap, minor_sum)
        if denom > 0.0:
            worst_rel = max(worst_rel, abs(gap - minor_sum) / denom)
    ok = worst_rel <= 1e-10 and negatives == 0
    _report(
        3,
        "Schwarz gap = pairwise minor sum",
        ok,
        f"max relative deviation = {worst_rel:.3e} on 10000 pairs "
        f"(tolerance 1e-10); negative gaps: {negatives}",
    )


def test_acceptance_4_separability_soundness_completeness():
    """Product states certify separable with faithful factors; Haar states don't.

    Verdicts must equal numeric_rank == 1 (the spectral oracle) at every cut
    of every state.
    """
    rng = np.random.default_rng(55555)
    worst_fidelity = 1.0
    rank_mismatches = 0
    false_negatives = 0  # product state flagged entangled
    false_positives = 0  # Haar state flagged separable
    min_entangled_rank = 99

    for i in range(500):
        dims = _random_dims(rng, 2, 6, 2) if i % 2 == 0 else _random_dims(rng, 2, 4, 3)
        s = sample_state(SamplerSpec(dims, "product", 300_000 + i))
        for cut in range(1, len(dims) + 1):
            cert = is_separable_cut(s, cut)
            rank = numeric_rank(matricize(s, cut))
            if cert.separable != (rank == 1):
                rank_mismatches += 1
            if not cert.separable:
                false_negatives += 1
            else:
                worst_fidelity = min(
                    worst_fidelity, reconstruction_fidelity(s, cut, *cert.factors)
                )

    for i in range(500):
        dims = _random_dims(rng, 2, 6, 2) if i % 2 == 0 else _random_dims(rng, 2, 4, 3)
        s = sample_state(SamplerSpec(dims, "haar", 400_000 + i))
        for cut in range(1, len(dims) + 1):
            cert = is_separable_cut(s, cut)
            rank = numeric_rank(matricize(s, cut))
            min_entangled_rank = min(min_entangled_rank, rank)
            if cert.separable != (rank == 1):
                rank_mismatches += 1
            if cert.separable:
                false_positives += 1

    ok = (
        false_negatives == 0
        and false_positives == 0
        and rank_mismatches == 0
        and worst_fidelity >= 1 - 1e-10
        and min_entangled_rank >= 2
    )
    _report(
        4,
        "separability certificates vs spectral rank",
        ok,
        f"500 product states: missed = {false_negatives}, max fidelity deficit = "
        f"{1 - worst_fidelity:.3e} (tolerance 1e-10); 500 Haar states: false "
        f"separable = {false_positives}, min rank = {min_entangled_rank}; "
        f"verdict/rank mismatches = {rank_mismatches}",
    )


def test_acceptance_5_local_unitary_invariance():
    """Concurrence moves <= 1e-9 relative under random local unitaries."""
    rng = np.random.default_rng(777)
    worst_rel = 0.0
    for arity, (lo, hi) in ((2, (2, 6)), (3, (2, 4))):
        for i in range(100):
            dims = _random_dims(rng, lo, hi, arity)
            s = sample_state(SamplerSpec(dims, "haar", 500_000 + 1000 * arity + i))
            base = concurrence(s).value
            rotated = s
            for _ in range(3):
                for j, n in enumerate(dims, start=1):
                    rotated = apply_local_unitary(rotated, j, haar_unitary(rng, n))
                value = concurrence(rotated).value
                worst_rel = max(worst_rel, abs(value - base) / base)
    _report(
        5,
        "local-unitary invariance",
        worst_rel <= 1e-9,
        f"max relative change = {worst_rel:.3e} over 100 states x 3 rounds "
        f"per arity (tolerance 1e-9)",
    )


def test_acceptance_6_determinism(tmp_path, capsys):
    """Identical bytes from repeated CLI runs, in process and across processes."""
    # In-process and subprocess byte-level repetition of `concurrence`.
    path = tmp_path / "acc6.json"
    path.write_text(
        emit_state(sample_state(SamplerSpec((3, 3, 3), "haar", 606))), encoding="utf-8"
    )
    argv = ["concurrence", "--state", str(path)]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    runs = [
        subprocess.run(
            [sys.executable, "-m", "qconc.cli", *argv], capture_output=True, check=True
        ).stdout
        for _ in range(2)
    ]
    byte_identical = first == second and runs[0] == runs[1]
    byte_identical = byte_identical and runs[0].decode() == first
    _report(
        6,
        "deterministic output",
        byte_identical,
        f"CLI byte-identical across runs and processes = {byte_identical}",
    )


def test_acceptance_7_scale():
    """[32, 32] bipartite concurrence (~246k minors) in under 5 seconds."""
    rng = np.random.default_rng(3232)
    s = make_state([32, 32], rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    start = time.perf_counter()
    report = bipartite_concurrence(s)
    elapsed = time.perf_counter() - start
    # Substance check alongside the stopwatch: the value must also be right.
    oracle_sq = 2.0 * (1.0 - purity(reduced_density(s, 1)))
    correct = abs(report.value**2 - oracle_sq) <= 1e-10
    ok = elapsed < 5.0 and correct
    _report(
        7,
        "dims [32, 32] scale check",
        ok,
        f"elapsed = {elapsed:.3f} s (< 5 s), 246016 minors, "
        f"oracle deviation = {abs(report.value ** 2 - oracle_sq):.3e}",
    )
