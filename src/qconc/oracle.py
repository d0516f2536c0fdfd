"""Independent brute-force checks: partial trace, purity, spectral rank.

Everything here validates the minor-based machinery from the outside and
deliberately shares no code with the schwarz module: reduced densities come
from a tensor contraction, ranks from singular values.  The key identity is

    sum of squared 2x2 minors of the cut-j matricization = (1 - Tr rho_j^2) / 2

for a normalized state, so the minor-based concurrence with normalization 4
must match sqrt(sum_j 2(1 - Tr rho_j^2)).  Built for test scale, not speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, NonFiniteError, ShapeError
from .states import Cut, PureState, normalize

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10  # rounding slack on 16x16 reduced matrices


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, PSD within rounding."""

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape {(self.dim, self.dim)}, got {entries.shape}")
        if not np.isfinite(entries).all():  # NaN would pass every test below
            raise NonFiniteError("density matrix entries must be finite")
        if np.max(np.abs(entries - entries.conj().T)) > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(entries).real - 1.0) > _TRACE_TOL or abs(np.trace(entries).imag) > _TRACE_TOL:
            raise ValueError(f"trace {np.trace(entries)} is not 1 within tolerance")
        if float(np.linalg.eigvalsh(entries)[0]) < _EIGENVALUE_FLOOR:
            raise ValueError("matrix has an eigenvalue below the PSD floor")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def reduced_density(state: PureState, keep: Cut) -> DensityMatrix:
    """Reduced density matrix of one subsystem, tracing out all others.

    The state is normalized internally.  Entry (a, b) is
    sum over the remainder multi-index r of amp(a, r) * conj(amp(b, r)).
    """
    m = state.subsystem_count
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)) or not 1 <= keep <= m:
        raise IndexError(f"cut {keep} out of range 1..{m}")
    t = normalize(state).amps.reshape(state.dims)
    others = [a for a in range(m) if a != keep - 1]
    rho = np.tensordot(t, t.conj(), axes=(others, others))
    return DensityMatrix(dim=state.dims[keep - 1], entries=rho)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), computed as the squared Frobenius norm sum |rho[a,b]|^2."""
    flat = rho.entries.reshape(-1)
    return float(np.vdot(flat, flat).real)


def oracle_concurrence(state: PureState) -> float:
    """Concurrence via reduced-density purities instead of minors.

    sqrt(sum over cuts of 2(1 - Tr rho_j^2)): one cut for a bipartite state,
    three for a tripartite one.  Tiny negative totals from rounding on
    product states are clamped to zero.
    """
    m = state.subsystem_count
    if m == 2:
        cuts: tuple[int, ...] = (1,)
    elif m == 3:
        cuts = (1, 2, 3)
    else:
        raise ArityError(f"oracle concurrence is defined for 2 or 3 subsystems, got {m}")
    total = math.fsum(2.0 * (1.0 - purity(reduced_density(state, j))) for j in cuts)
    return math.sqrt(max(total, 0.0))


def numeric_rank(mat, tolerance: float = 1e-9) -> int:
    """Singular values above tolerance * (largest singular value).

    Accepts any 2-D array of finite entries, such as a matricization (else
    ShapeError or NonFiniteError), and a tolerance that is non-negative and
    finite (else ValueError); rank 1 here is the spectral counterpart of
    "all 2x2 minors vanish".
    """
    entries = np.asarray(mat, dtype=np.complex128)
    if entries.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got {entries.ndim}-D")
    if not np.isfinite(entries).all():
        raise NonFiniteError("matrix entries must be finite")
    tolerance = float(tolerance)
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be non-negative and finite, got {tolerance}")
    s = np.linalg.svd(entries, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tolerance * s[0]))
