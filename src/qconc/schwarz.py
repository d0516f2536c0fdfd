"""Schwarz gaps, one-vs-rest matricizations, and 2x2 minor enumeration.

The Cauchy-Schwarz inequality  |<x1|x2>|^2 <= ||x1||^2 ||x2||^2  holds with
equality exactly when the two vectors are parallel, and the Lagrange identity
expresses the gap as a sum of squared 2x2 minors of the matrix [x1; x2]:

    ||x1||^2 ||x2||^2 - |<x1|x2>|^2  =  sum_{a<b} |x1_a x2_b - x1_b x2_a|^2.

Everything here is built on that identity.  A state is unfolded along a cut
into a rows-by-rest coefficient matrix, and the squared moduli of all its 2x2
minors measure how far the rows are from mutual parallelism, i.e. how far the
cut is from being separable.

Determinism contract: minors are evaluated in bounded chunks, in
lexicographic (row_pair, col_pair) order, with elementwise real float64
arithmetic in the order of a scalar complex product, so for finite input
every minor equals the scalar ``M[a,c] * M[b,d] - M[a,d] * M[b,c]`` bit for
bit.  Sums are accumulated with exactly rounded summation (math.fsum), so
neither the chunking nor the order changes a single bit of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InternalConsistencyError, NonFiniteError, ShapeError
from .states import Cut, PureState

# Relative slack allowed before a negative floating-point Schwarz gap is
# treated as a bug rather than rounding.
_GAP_CLAMP_REL = 1e-12

# Minors evaluated per kernel step.  A step holds about fourteen float64
# arrays of this length (about 1 MiB) whatever the matrix shape; smaller
# steps pay more per-call numpy overhead, larger ones barely run faster.
_CHUNK = 1 << 13


class MinorTerm(NamedTuple):
    """One second-order minor of a matricization.

    row_pair and col_pair are 1-based positions (k_j < l_j, k < l); value is
    the determinant M[k_j,k] * M[l_j,l] - M[k_j,l] * M[l_j,k] as evaluated
    in double precision.
    """

    row_pair: tuple[int, int]
    col_pair: tuple[int, int]
    value: complex


@dataclass(frozen=True, eq=False)
class Matricization:
    """2-D view of a state split along one cut (subsystem j vs. the rest).

    Row r (1-based) fixes i_j = r; column c runs over the remaining
    subsystems' multi-indices in ascending subsystem order, row-major.
    ``entries`` is a read-only (rows x cols) complex array, 0-based like any
    numpy array; the 1-based semantic maps live in the helper methods.
    """

    cut: Cut
    row_dim: int
    remainder_dims: tuple[int, ...]
    entries: np.ndarray

    @property
    def rows(self) -> int:
        return self.row_dim

    @property
    def cols(self) -> int:
        return math.prod(self.remainder_dims) if self.remainder_dims else 1

    def column_multi_index(self, col: int) -> tuple[int, ...]:
        """1-based column position -> 1-based multi-index over the remainder."""
        if not 1 <= col <= self.cols:
            raise IndexError(f"column {col} out of range 1..{self.cols}")
        rest = []
        c = col - 1
        for n in reversed(self.remainder_dims):
            rest.append(c % n + 1)
            c //= n
        return tuple(reversed(rest))

    def column_of_multi_index(self, multi_index) -> int:
        """Inverse of column_multi_index."""
        if len(multi_index) != len(self.remainder_dims):
            raise IndexError("multi-index does not match the remainder arity")
        c = 0
        for i, n in zip(multi_index, self.remainder_dims):
            if not 1 <= i <= n:
                raise IndexError(f"index {i} out of range 1..{n}")
            c = c * n + (i - 1)
        return c + 1


def schwarz_gap(x1, x2) -> float:
    """Schwarz gap ||x1||^2 ||x2||^2 - |<x1|x2>|^2, clamped to be >= 0.

    Tiny negative floating-point results (within 1e-12 of zero relative to
    ||x1||^2 ||x2||^2) are clamped to 0; anything more negative would violate
    Cauchy-Schwarz beyond rounding and raises InternalConsistencyError.
    """
    v1 = np.asarray(x1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(x2, dtype=np.complex128).reshape(-1)
    if v1.size != v2.size:
        raise ShapeError(f"vector lengths differ: {v1.size} vs {v2.size}")
    if v1.size == 0:
        raise ShapeError("vectors must have length >= 1")
    n1 = float(np.vdot(v1, v1).real)
    n2 = float(np.vdot(v2, v2).real)
    ip = complex(np.vdot(v1, v2))
    gap = n1 * n2 - (ip.real * ip.real + ip.imag * ip.imag)
    if gap < 0.0:
        if gap >= -_GAP_CLAMP_REL * n1 * n2:
            return 0.0
        raise InternalConsistencyError(
            f"Schwarz gap {gap} below the rounding floor for scale {n1 * n2}"
        )
    return gap


def gap_equals_minor_sum(x1, x2) -> tuple[float, float]:
    """Evaluate the Schwarz gap by both routes of the Lagrange identity.

    Returns (gap, minor_sum) where minor_sum is
    sum_{a<b} |x1_a x2_b - x1_b x2_a|^2, i.e. the squared-minor total of the
    two-row matrix [x1; x2].  The two agree within 1e-10 of the scale
    ||x1||^2 ||x2||^2; the gap route cancels catastrophically for
    near-parallel vectors while the minor route never does.
    """
    v1 = np.asarray(x1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(x2, dtype=np.complex128).reshape(-1)
    gap = schwarz_gap(v1, v2)
    return gap, minor_sum_sq(np.vstack([v1, v2]))


def matricize(state: PureState, cut: Cut) -> Matricization:
    """Unfold a state along a cut: subsystem ``cut`` on rows, rest on columns.

    Columns keep the remaining subsystems in ascending subsystem order,
    row-major, so entry (r, c) equals the amplitude with i_cut = r and the
    remainder multi-index column_multi_index(c).
    """
    m = state.subsystem_count
    if not 1 <= cut <= m:
        raise IndexError(f"cut {cut} out of range 1..{m}")
    j = cut - 1
    axes = [j] + [a for a in range(m) if a != j]
    entries = (
        state.amps.reshape(state.dims).transpose(axes).reshape(state.dims[j], -1)
    )
    entries = np.ascontiguousarray(entries)
    entries.flags.writeable = False
    rest = tuple(d for a, d in enumerate(state.dims) if a != j)
    return Matricization(cut=cut, row_dim=state.dims[j], remainder_dims=rest, entries=entries)


def _pair_blocks(n: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index arrays (i, j) of the pairs i < j < n in lexicographic order.

    The pairs come in blocks of ``size`` (the last block may be shorter),
    so no more than ``size`` of the C(n, 2) pairs are held at once.
    """
    counts = np.arange(n - 1, 0, -1)
    first = np.cumsum(counts) - counts  # flat position of the pair (i, i+1)
    total = n * (n - 1) // 2
    for start in range(0, total, size):
        flat = np.arange(start, min(start + size, total))
        i = np.searchsorted(first, flat, side="right") - 1
        yield i, flat - first[i] + i + 1


def _minor_parts(ra_re, ra_im, rb_re, rb_im, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of  ra[:, c] rb[:, d] - ra[:, d] rb[:, c].

    ra and rb are (k, cols) row blocks; the result is (k, len(c)).  Each
    product is formed as  re = xr*yr - xi*yi,  im = xr*yi + xi*yr  and the
    two products are then subtracted: CPython's complex arithmetic step for
    step.  numpy applies each elementwise operation with one IEEE rounding
    (einsum/dot/matmul may fuse or reorder, so they are not used), and every
    value equals the scalar complex expression bit for bit.
    """
    ac_re, ac_im = ra_re.take(c, axis=1), ra_im.take(c, axis=1)
    ad_re, ad_im = ra_re.take(d, axis=1), ra_im.take(d, axis=1)
    bc_re, bc_im = rb_re.take(c, axis=1), rb_im.take(c, axis=1)
    bd_re, bd_im = rb_re.take(d, axis=1), rb_im.take(d, axis=1)
    p_re = ac_re * bd_re - ac_im * bd_im
    p_im = ac_re * bd_im + ac_im * bd_re
    q_re = ad_re * bc_re - ad_im * bc_im
    q_im = ad_re * bc_im + ad_im * bc_re
    return p_re - q_re, p_im - q_im


def _minor_chunks(
    entries: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (a, b, c, d, re, im) chunks covering every minor once, in order.

    Row k of a chunk is the row pair (a[k], b[k]) (0-based) against the
    column pairs (c[p], d[p]); re[k, p] and im[k, p] are the parts of
    M[a,c] M[b,d] - M[a,d] M[b,c].  Reading the chunks row by row gives
    lexicographic (a, b, c, d) order.  A chunk holds about _CHUNK minors:
    several row pairs when all column pairs fit, else one row pair against
    one block of column pairs.
    """
    nr, nc = entries.shape
    if nr < 2 or nc < 2:
        return
    re = np.ascontiguousarray(entries.real)
    im = np.ascontiguousarray(entries.imag)
    pairs = math.comb(nc, 2)
    # Column pairs that fit one block are indexed once; wider matrices
    # rebuild their blocks per row pair instead of holding all of them.
    blocks = list(_pair_blocks(nc, pairs)) if pairs <= _CHUNK else None
    for a, b in _pair_blocks(nr, max(1, _CHUNK // pairs)):
        ra_re, ra_im, rb_re, rb_im = re[a], im[a], re[b], im[b]
        for c, d in blocks or _pair_blocks(nc, _CHUNK):
            yield (a, b, c, d, *_minor_parts(ra_re, ra_im, rb_re, rb_im, c, d))


def _as_entries(mat) -> np.ndarray:
    entries = mat.entries if isinstance(mat, Matricization) else np.asarray(mat)
    entries = np.asarray(entries, dtype=np.complex128)
    if entries.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise NonFiniteError("matrix entries must be finite")
    return entries


def enumerate_minors(mat) -> Iterator[MinorTerm]:
    """Stream all C(rows,2) * C(cols,2) second-order minors.

    Accepts a Matricization or any 2-D complex array of finite entries.
    Terms come in deterministic lexicographic (row_pair, col_pair) order;
    the stream is empty when rows < 2 or cols < 2.
    """
    for a, b, c, d, re, im in _minor_chunks(_as_entries(mat)):
        col_pairs = list(zip((c + 1).tolist(), (d + 1).tolist()))
        for ra, rb, re_row, im_row in zip(a.tolist(), b.tolist(), re.tolist(), im.tolist()):
            row_pair = (ra + 1, rb + 1)
            for col_pair, x, y in zip(col_pairs, re_row, im_row):
                yield MinorTerm(row_pair, col_pair, complex(x, y))


def minor_count(mat) -> int:
    """Number of terms enumerate_minors will yield."""
    nr, nc = _as_entries(mat).shape
    return (nr * (nr - 1) // 2) * (nc * (nc - 1) // 2)


def minor_sum_sq(mat) -> float:
    """Sum of squared moduli of all second-order minors.

    Each term is re*re + im*im of one minor; the terms of every chunk are
    streamed into one exactly rounded math.fsum, so the result is
    bit-reproducible and independent of the chunking.  A memoryview hands
    fsum one Python float at a time, with no list of a chunk's terms.
    """
    return math.fsum(
        chain.from_iterable(
            memoryview((re * re + im * im).ravel())
            for _, _, _, _, re, im in _minor_chunks(_as_entries(mat))
        )
    )


def max_abs_minor(mat) -> float:
    """Largest |minor|; 0.0 for degenerate shapes, NaN if any minor is NaN.

    |minor| is libm hypot(re, im), the function behind abs(complex).
    """
    peaks = [np.hypot(re, im).max() for _, _, _, _, re, im in _minor_chunks(_as_entries(mat))]
    return float(np.max(peaks, initial=0.0))
