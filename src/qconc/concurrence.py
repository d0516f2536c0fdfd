"""Concurrence of pure bipartite/tripartite states and separability certificates.

The concurrence of a pure state is sqrt(N * S) where S collects the squared
moduli of every 2x2 minor of the state's one-vs-rest coefficient
matricizations: the single cut (subsystem 1 vs 2) for a bipartite state, all
three cuts for a tripartite one.  With the default normalization N = 4 the
squared value equals sum_j 2(1 - Tr rho_j^2) over the same cuts, so a Bell
pair scores exactly 1 and the value can be cross-checked against reduced
density matrices (see the oracle module).

A cut is separable exactly when every minor of its matricization vanishes
(Schwarz equality for all row pairs); the certificate records the largest
|minor| found against a tolerance relative to the squared peak amplitude,
and for separable cuts carries the explicit rank-1 factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, CertificateError, InternalConsistencyError, WorkBudgetError
from .schwarz import _check_cut, _pivot_minors, _pivot_verdict, _unfold, matricize
from .schwarz import max_abs_minor, minor_sum_sq, minor_sums_sq
from .states import Cut, PureState, normalize, peak_scaled, vector_norm

DEFAULT_NORMALIZATION = 4.0
DEFAULT_TOLERANCE = 1e-9

# Most minors of a certificate's cut, all counted (exact product cuts prune
# none): about 20 s of the kernel at 5e7 minors/s.  The largest benchmark cut, [32,32],
# has 2.5e5; a [32,32,32] cut 2.6e8; [256,256] (1.07e9) and up are refused.
MAX_CERTIFICATE_MINORS = 10**9


@dataclass(frozen=True, eq=False)
class ConcurrenceReport:
    """Concurrence value plus the per-cut minor sums behind it.

    value = sqrt(normalization * sum of the listed per-cut sums).
    """

    value: float
    per_cut_sums: tuple[tuple[Cut, float], ...]
    normalization: float


@dataclass(frozen=True, eq=False)
class SeparabilityCertificate:
    """Verdict for one cut: separable iff max|minor| <= tolerance * scale,
    where scale is the squared modulus of the largest amplitude.

    ``factors`` is populated exactly when separable: the normalized state of
    the cut subsystem and the normalized state of the remainder (remaining
    subsystems in ascending order).
    """

    cut: Cut
    max_abs_minor: float
    tolerance: float
    separable: bool
    factors: tuple[PureState, PureState] | None


@dataclass(frozen=True, eq=False)
class FullSeparabilityResult:
    """Outcome of the greedy full-separability recursion.

    ``factors`` holds (original subsystem index, single-subsystem state)
    pairs, ordered by subsystem index.  When not fully separable,
    ``remainder`` is the normalized entangled residue over the original
    subsystems listed in ``remainder_subsystems``, and ``failed`` holds one
    certificate per remainder cut (cut k refers to remainder_subsystems[k-1]).
    """

    fully_separable: bool
    factors: tuple[tuple[int, PureState], ...]
    failed: tuple[SeparabilityCertificate, ...]
    remainder: PureState | None
    remainder_subsystems: tuple[int, ...]

    @property
    def verdict(self) -> str:
        return "fully separable" if self.fully_separable else "entangled at cut structure"


def concurrence(
    state: PureState, normalization: float = DEFAULT_NORMALIZATION
) -> ConcurrenceReport:
    """Concurrence of a pure two- or three-part state.

    The state is normalized internally and unfolded along each of its cuts
    (cut 1 for two subsystems, cuts 1, 2, 3 for three); the squared moduli
    of all 2x2 minors of each unfolding are summed, and value =
    sqrt(normalization * (S_1 + ...)).  The one cut takes minor_sum_sq;
    three cuts take minor_sums_sq, which runs cuts of one shape in one Gram
    pass with the bits each has alone.  Any other subsystem count is an
    ArityError; a normalization that is not positive and finite is a
    ValueError.
    """
    m = state.subsystem_count
    if m not in (2, 3):
        raise ArityError(f"concurrence is defined for 2 or 3 subsystems, got {m}")
    normalization = float(normalization)
    if not 0.0 < normalization < math.inf:
        raise ValueError(f"normalization must be positive and finite, got {normalization}")
    s = normalize(state)
    cuts = (1,) if m == 2 else (1, 2, 3)
    mats = [matricize(s, j) for j in cuts]
    sums = [minor_sum_sq(mats[0])] if m == 2 else minor_sums_sq(mats)
    return ConcurrenceReport(
        value=math.sqrt(normalization * math.fsum(sums)),
        per_cut_sums=tuple(zip(cuts, sums)),
        normalization=normalization,
    )


def _rank_one_factors(ctx: tuple, state: PureState, cut: Cut) -> tuple[PureState, PureState]:
    """Rank-1 factors of a separable cut of ``state`` from its context
    (_cut_context).  The pivot is the pivot pass's, the entry whose |p|^2 is
    the certificate's scale; over the norm, the row factor is the pivot
    column and the column factor the pivot row over the pivot.  For an
    exactly rank-1 matricization of a normalized state the outer product of
    the normalized factors reproduces it without even a global phase.
    """
    entries, _, nrm, (r, c, _, _) = ctx
    u = entries[:, c] / nrm
    row = entries[r] / nrm
    v = row / row[c]
    u = u / vector_norm(u)
    v = v / vector_norm(v)
    return (
        PureState((entries.shape[0],), u),
        PureState(state.dims[: cut - 1] + state.dims[cut:], v),
    )


def _check_tolerance(tolerance) -> float:
    tolerance = float(tolerance)
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    return tolerance


def _check_budget(state: PureState, cut: Cut) -> None:
    """IndexError for a bad cut, WorkBudgetError above MAX_CERTIFICATE_MINORS minors."""
    _check_cut(state, cut)
    rows = state.dims[cut - 1]
    minors = math.comb(rows, 2) * math.comb(state.size // rows, 2)
    if minors > MAX_CERTIFICATE_MINORS:
        msg = f"cut {cut} has {minors} minors, above the budget of {MAX_CERTIFICATE_MINORS}"
        raise WorkBudgetError(msg)


def _cut_context(amps: np.ndarray, e: int, nrm: float, dims, cut: Cut) -> tuple:
    """(entries, e, nrm, pivot), all a certificate reads of one cut: the
    unfolding of the peak_scaled amplitudes amps (times 2**-e), the norm
    of amps, which normalize divides by, and _pivot_minors(entries)."""
    entries = _unfold(amps, dims, cut)
    return entries, e, nrm, _pivot_minors(entries)


def is_separable_cut(
    state: PureState, cut: Cut, tolerance: float = DEFAULT_TOLERANCE, *, _cut=None
) -> SeparabilityCertificate:
    """Certify whether ``state`` factors across the given one-vs-rest cut.

    Separable iff the largest |minor| of the cut's matricization, from the
    row pairs whose bound can reach it (max_abs_minor), is at most
    tolerance * (peak |amp|)^2.  Over MAX_CERTIFICATE_MINORS minors in all,
    WorkBudgetError before anything is allocated.
    Minors scale quadratically in the amplitudes, so the verdict does not
    depend on the input's normalization: it is decided on the peak_scaled
    amplitudes, which no magnitude overflows or underflows, and the
    reported max_abs_minor is scaled back (inf beyond the double range).
    Factors are attached exactly when separable.  The cut's unfolding,
    scale and pivot pass (_cut_context) are read once: the scan takes the
    pivot pass (max_abs_minor's _pivot), and P is the modulus of its pivot,
    where the factors are taken.  full_separability hands in as _cut the
    context it tested.
    """
    tolerance = _check_tolerance(tolerance)
    if state.subsystem_count < 2:
        raise ArityError("separability across a cut needs at least 2 subsystems")
    _check_budget(state, cut)
    if _cut is None:
        amps, e = peak_scaled(state)
        _cut = _cut_context(amps, e, vector_norm(amps), state.dims, cut)
    entries, e, _, pivot = _cut
    worst = max_abs_minor(entries, _pivot=pivot)
    r, c, mod, _ = pivot
    scale = float(mod[r, c]) ** 2
    separable = worst <= tolerance * scale
    factors = _rank_one_factors(_cut, state, cut) if separable else None
    with np.errstate(over="ignore"):
        reported = float(np.ldexp(worst, 2 * e))
    return SeparabilityCertificate(
        cut=cut,
        max_abs_minor=reported,
        tolerance=tolerance,
        separable=separable,
        factors=factors,
    )


def factorize_cut(
    state: PureState, cut: Cut, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[PureState, PureState]:
    """Split a cut-separable state into (subsystem factor, remainder factor).

    Both factors are normalized; their tensor product (subsystem ``cut``
    first, then the remaining subsystems in ascending order) reproduces the
    normalized input with fidelity >= 1 - 1e-10.

    Raises CertificateError if the cut is not separable at the tolerance.
    """
    cert = is_separable_cut(state, cut, tolerance)
    if not cert.separable:
        raise CertificateError(
            f"cut {cut} is not separable: max |minor| = {cert.max_abs_minor:.3e} "
            f"exceeds tolerance {cert.tolerance:.3e} x scale"
        )
    assert cert.factors is not None
    return cert.factors


def full_separability(
    state: PureState, tolerance: float = DEFAULT_TOLERANCE
) -> FullSeparabilityResult:
    """Greedily peel off separable subsystems until none remains or none splits.

    Cuts of the current remainder are tested in ascending order; the first
    separable one is factored off and the remainder is re-tested from
    scratch.  The state is fully separable iff this extracts one factor per
    subsystem.  For exact product states the greedy order does not affect
    the verdict; it only fixes which certificates are reported.  Each
    verdict is is_separable_cut's; the scan runs only where _pivot_verdict
    leaves it open, or for the certificates reported when no cut splits;
    both, and the factors of a cut that splits, read the one context
    (_cut_context) of each tested cut; a scanned cut that splits gives
    its certificate's factors.
    The tolerance is checked first, as in is_separable_cut, even where one
    subsystem leaves no cut to test.  Cuts over the work budget, checked on
    the input, are refused before normalizing.
    """
    tolerance = _check_tolerance(tolerance)
    for cut in range(1, state.subsystem_count + 1):
        _check_budget(state, cut)
    current = normalize(state)
    ids = list(range(1, state.subsystem_count + 1))
    factors: list[tuple[int, PureState]] = []
    while len(ids) > 1:
        amps, e = peak_scaled(current)  # as is_separable_cut scales it
        nrm = vector_norm(amps)
        tested: list[tuple[tuple, SeparabilityCertificate | None]] = []  # None: proven entangled
        for pos in range(1, len(ids) + 1):
            ctx = _cut_context(amps, e, nrm, current.dims, pos)
            entries, _, _, pivot = ctx
            separable, cert = _pivot_verdict(entries, tolerance, pivot), None
            if separable is None:
                cert = is_separable_cut(current, pos, tolerance, _cut=ctx)
                separable = cert.separable
            if separable:  # a scanned cut's certificate holds its factors
                u, current = cert.factors if cert else _rank_one_factors(ctx, current, pos)
                factors.append((ids.pop(pos - 1), u))
                break
            tested.append((ctx, cert))
        else:
            failed = tuple(
                cert or is_separable_cut(current, pos, tolerance, _cut=ctx)
                for pos, (ctx, cert) in enumerate(tested, 1)
            )
            if any(cert.separable for cert in failed):
                raise InternalConsistencyError("a cut proven entangled scanned separable")
            return FullSeparabilityResult(
                fully_separable=False,
                factors=tuple(sorted(factors)),
                failed=failed,
                remainder=current,
                remainder_subsystems=tuple(ids),
            )
    factors.append((ids[0], current))
    return FullSeparabilityResult(
        fully_separable=True,
        factors=tuple(sorted(factors)),
        failed=(),
        remainder=None,
        remainder_subsystems=(),
    )
