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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, NonFiniteError, ShapeError

# One-vs-rest bipartition, identified by the 1-based subsystem index kept
# on the row side of the corresponding matricization.
Cut = int

# Values per BLAS dot in vector_norm: OpenBLAS splits only dots of more
# than 10000 values across its threads.
_NORM_CHUNK = 1 << 13


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
        (NonFiniteError otherwise) and at least one nonzero
        (DegenerateStateError otherwise), so a PureState is never all-zero.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = check_dims(self.dims)
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != math.prod(dims):
            raise ShapeError(
                f"amplitude count {amps.size} does not match prod(dims) = "
                f"{math.prod(dims)} for dims {dims}"
            )
        if not np.isfinite(amps).all():
            raise NonFiniteError("amplitudes must be finite")
        if not np.count_nonzero(amps):
            raise DegenerateStateError("all amplitudes are zero")
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
            return float(np.ldexp(vector_norm(amps), e))

    def __repr__(self) -> str:
        return f"PureState(dims={self.dims}, size={self.size})"


def check_dims(dims) -> tuple[int, ...]:
    """dims as a nonempty tuple of positive ints (numpy integers pass);
    ShapeError for anything else, including a bool or a non-integral float."""
    try:
        dims = tuple(dims)
        if any(isinstance(d, bool) for d in dims):
            raise TypeError
        dims = tuple(map(operator.index, dims))
    except TypeError:
        raise ShapeError(f"dims must be integers, got {dims}") from None
    if not dims:
        raise ShapeError("dims must be nonempty")
    if min(dims) < 1:
        raise ShapeError(f"dims must be positive, got {dims}")
    return dims


def make_state(dims, amps) -> PureState:
    """Build a PureState from a dimension list and a flat amplitude list.

    No normalization is applied; the amplitudes are stored as given.
    PureState itself makes every check below.

    Raises
    ------
    ShapeError
        If len(amps) != prod(dims) or dims is empty, non-positive or not
        integers.
    NonFiniteError
        If any amplitude is NaN or infinite.
    DegenerateStateError
        If every amplitude is zero.
    """
    return PureState(dims, amps)


def peak_scaled(state: PureState) -> tuple[np.ndarray, int]:
    """The amplitudes times 2**-e, where 2**e is the power of two just
    above the largest |Re amp| or |Im amp|.

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
    equals the amplitudes divided by their plain norm (vector_norm), bit
    for bit.
    """
    amps, _ = peak_scaled(state)
    return PureState(state.dims, amps / vector_norm(amps))


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of the complex array v, read flat, whose bits do not
    depend on the BLAS thread count: np.linalg.norm's two dots, of the real
    and the imaginary parts, per chunk of _NORM_CHUNK values, each on one
    BLAS thread, and the chunks added in order.  Up to one chunk it is
    np.linalg.norm(v), bit for bit."""
    v = v.ravel(order="K")
    total = 0.0
    for start in range(0, v.size, _NORM_CHUNK):
        part = v[start : start + _NORM_CHUNK]
        total += part.real.dot(part.real) + part.imag.dot(part.imag)
    return math.sqrt(total)


def amplitude(state: PureState, multi_index) -> complex:
    """Amplitude at the 1-based integer multi-index (i_1, ..., i_m), stored row-major."""
    if len(multi_index) != state.subsystem_count:
        raise IndexError(
            f"multi-index length {len(multi_index)} does not match "
            f"{state.subsystem_count} subsystems"
        )
    flat = 0
    for i, n in zip(multi_index, state.dims):
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 1 <= i <= n:
            raise IndexError(f"index {i!r} out of range 1..{n}")
        flat = flat * n + (i - 1)
    return complex(state.amps[flat])


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
