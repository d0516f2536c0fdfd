"""Pure-state amplitude tensors and their elementary manipulations.

A pure state of an m-part system with subsystem dimensions (N_1, ..., N_m)
is stored as a flat complex vector of length N_1 * ... * N_m, row-major over
the multi-index (i_1, ..., i_m).  Multi-indices are 1-based in every public
signature, matching the usual ket labelling |i_1, ..., i_m> with
i_j in {1, ..., N_j}; storage is an ordinary C-ordered numpy array.

States are immutable and never normalized implicitly: construction keeps the
amplitudes exactly as given so raw coefficient minors can be inspected, and
the measure-level operations normalize internally where they need to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, NonFiniteError, ShapeError

# One-vs-rest bipartition, identified by the 1-based subsystem index kept
# on the row side of the corresponding matricization.
Cut = int


@dataclass(frozen=True, eq=False)
class PureState:
    """Dense amplitude tensor of a pure multipartite state.

    Attributes
    ----------
    dims : tuple of int
        Subsystem dimensions (N_1, ..., N_m), each >= 1.
    amps : numpy.ndarray
        Complex amplitudes, flat, row-major over (i_1, ..., i_m).
        The array is read-only.  Every amplitude must be finite
        (NonFiniteError otherwise).
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise ShapeError("dims must be nonempty")
        if any(d < 1 for d in dims):
            raise ShapeError(f"dims must be positive, got {dims}")
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != math.prod(dims):
            raise ShapeError(
                f"amplitude count {amps.size} does not match prod(dims) = "
                f"{math.prod(dims)} for dims {dims}"
            )
        if not np.isfinite(amps).all():
            raise NonFiniteError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def subsystem_count(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        """Euclidean norm sqrt(sum |amp|^2), taken of the peak_scaled
        amplitudes, so it is inf only when the norm itself is."""
        amps, e = peak_scaled(self)
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.linalg.norm(amps), e))

    def __repr__(self) -> str:
        return f"PureState(dims={self.dims}, size={self.size})"


def make_state(dims, amps) -> PureState:
    """Build a PureState from a dimension list and a flat amplitude list.

    No normalization is applied; the amplitudes are stored as given.

    Raises
    ------
    ShapeError
        If len(amps) != prod(dims) or dims is empty/non-positive.
    NonFiniteError
        If any amplitude is NaN or infinite.
    DegenerateStateError
        If every amplitude is zero.
    """
    state = PureState(tuple(dims), np.asarray(amps, dtype=np.complex128))
    if not np.any(state.amps):
        raise DegenerateStateError("all amplitudes are zero")
    return state


def peak_scaled(state: PureState) -> tuple[np.ndarray, int]:
    """The amplitudes times 2**-e, where 2**e is the power of two just
    above the largest |Re amp| or |Im amp| (0 for the zero vector).

    Scaling by a power of two is exact, so ratios of amplitudes and the
    rounding of any product or quotient of them are unchanged, while the
    largest real or imaginary part of the result lies in [0.5, 1): norms
    and 2x2 minors of it neither overflow nor underflow to zero, whatever
    the magnitude of the input.  Returns (scaled amplitudes, e).
    """
    parts = state.amps.view(np.float64)
    e = int(np.frexp(np.max(np.abs(parts)))[1])
    return np.ldexp(parts, -e).view(np.complex128), e


def normalize(state: PureState) -> PureState:
    """Scale the amplitudes by a positive real so that sum |amp|^2 = 1.

    The norm is taken of the peak_scaled amplitudes, so a state of any
    finite magnitude normalizes.  Where the plain norm neither overflows nor
    underflows and no part is below 2**-1021 times the largest, the result
    equals the amplitudes divided by their plain norm, bit for bit.
    """
    amps, _ = peak_scaled(state)
    nrm = float(np.linalg.norm(amps))
    if nrm == 0.0:
        raise DegenerateStateError("cannot normalize the zero vector")
    return PureState(state.dims, amps / nrm)


def linear_index(dims: tuple[int, ...], multi_index) -> int:
    """Row-major position of a 1-based multi-index (i_1, ..., i_m)."""
    if len(multi_index) != len(dims):
        raise IndexError(
            f"multi-index length {len(multi_index)} does not match "
            f"{len(dims)} subsystems"
        )
    flat = 0
    for i, n in zip(multi_index, dims):
        if not 1 <= i <= n:
            raise IndexError(f"index {i} out of range 1..{n}")
        flat = flat * n + (i - 1)
    return flat


def amplitude(state: PureState, multi_index) -> complex:
    """Amplitude at the 1-based multi-index (i_1, ..., i_m)."""
    return complex(state.amps[linear_index(state.dims, multi_index)])


def tensor(*states: PureState) -> PureState:
    """Tensor product; dims concatenate, amplitudes combine via kron."""
    if not states:
        raise ShapeError("tensor() needs at least one state")
    amps = states[0].amps
    dims: tuple[int, ...] = states[0].dims
    for s in states[1:]:
        amps = np.kron(amps, s.amps)
        dims = dims + s.dims
    return PureState(dims, amps)
