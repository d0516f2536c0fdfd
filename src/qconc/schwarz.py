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
bit.  The sum of squared moduli is exactly rounded: every term is split
exactly in two and accumulated per binary exponent, and one math.fsum over
the exact per-exponent totals rounds once, so the result equals math.fsum
over the terms bit for bit whatever the chunking or the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

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

# Exact summation.  A term's high part keeps the sign, the exponent and the
# top 25 stored mantissa bits (_LOW_BITS cleared); its low part is the exact
# remainder.  Within one biased exponent every high part is a multiple of one
# quantum and below 2**26 of them, every low part a multiple of another and
# below 2**27 of them, so the parts of up to _FLUSH_TERMS terms add to less
# than 2**53 quanta: without rounding, in any order.  Exponent 2047 (inf,
# NaN) keeps only its high part.
_LOW_BITS = np.int64((1 << 27) - 1)
_EXPONENTS = 2048
_FLUSH_TERMS = 1 << 26

# Candidates for the largest |minor| of a chunk: squared moduli within this
# factor of the chunk's largest.  re*re + im*im is within a few ulps of
# |minor|^2 while the largest is a normal number, and hypot within one ulp
# of |minor|, so every minor outside the band has a smaller hypot than the
# one at the top of the band.
_BAND = 1.0 - 2.0**-40
_TINY = float(np.finfo(np.float64).tiny)


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
    ||x1||^2 ||x2||^2, or above minus the smallest normal double, where
    underflow leaves only an absolute error bound) are clamped to 0;
    anything more negative would violate Cauchy-Schwarz beyond rounding and
    raises InternalConsistencyError.
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
        if gap >= -max(_GAP_CLAMP_REL * n1 * n2, _TINY):
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
    so no more than ``size`` of the C(n, 2) pairs are built at once.
    """
    total = n * (n - 1) // 2
    for start in range(0, total, size):
        yield _pair_block(n, start, min(start + size, total))


@lru_cache(maxsize=64)
def _pair_block(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (i, j) of the pairs at flat positions start..stop-1.

    Cached because the same small blocks recur on every call and for every
    row pair of a wide matrix; a block holds at most _CHUNK pairs, so the
    cache holds at most 64 * 16 bytes * _CHUNK (8 MiB).
    """
    counts = np.arange(n - 1, 0, -1)
    first = np.cumsum(counts) - counts  # flat position of the pair (i, i+1)
    flat = np.arange(start, stop)
    i = np.searchsorted(first, flat, side="right") - 1
    j = flat - first[i] + i + 1
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


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


def _exact_sum(chunks: Iterable[np.ndarray]) -> float:
    """math.fsum of the non-negative float64 terms in ``chunks``, bit for bit.

    Each term is split exactly into a high and a low part (see _LOW_BITS),
    and np.bincount adds the parts per biased binary exponent without
    rounding; the per-exponent totals are set aside before any of them
    could stop being exact.  One math.fsum over those few hundred exact
    totals then rounds once, and a correctly rounded sum is unique.  A NaN
    term gives NaN, else an infinite term gives inf; finite terms whose sum
    overflows raise OverflowError.  A chunk holds at most _FLUSH_TERMS terms.
    """
    bins = np.zeros((2, _EXPONENTS))  # high parts, low parts
    totals: list[float] = []
    pending = 0
    for terms in chunks:
        terms = terms.ravel()
        if pending + terms.size > _FLUSH_TERMS:
            totals += _bin_totals(bins)
            bins[:] = 0.0
            pending = 0
        bits = terms.view(np.int64)
        exponent = bits >> 52
        exponent &= _EXPONENTS - 1
        part = (bits & ~_LOW_BITS).view(np.float64)
        with np.errstate(invalid="ignore", over="ignore"):  # checked in _bin_totals
            bins[0] += np.bincount(exponent, part, _EXPONENTS)
            np.subtract(terms, part, out=part)  # high parts -> low parts
            bins[1] += np.bincount(exponent, part, _EXPONENTS)
        pending += terms.size
    return math.fsum(totals + _bin_totals(bins))


def _bin_totals(bins: np.ndarray) -> list[float]:
    """The nonzero exact totals of _exact_sum's bins, as Python floats."""
    bins[1, -1] = 0.0  # inf - inf; the high part already carries inf/NaN
    if not np.isfinite(bins[0, :-1]).all():
        raise OverflowError("intermediate overflow in fsum")
    return bins[bins != 0].tolist()


def _max_modulus(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest hypot(re, im) over all chunks, equal to a full hypot scan.

    Per chunk, hypot runs only on the candidates in _BAND of the largest
    re*re + im*im.  When that largest is zero, subnormal, inf (the squares
    overflow though hypot does not) or NaN, the whole chunk is scanned; a
    NaN part therefore still makes the result NaN.
    """
    peaks = []
    for re, im in chunks:
        with np.errstate(over="ignore"):
            sq = re * re
            sq += im * im
        top = sq.max()
        if _TINY <= top < math.inf:
            keep = sq >= top * _BAND
            peaks.append(np.hypot(re[keep], im[keep]).max())
        else:
            peaks.append(np.hypot(re, im).max())
    return float(np.max(peaks, initial=0.0))


def minor_sum_sq(mat) -> float:
    """Sum of squared moduli of all second-order minors.

    Each term is re*re + im*im of one minor, and the sum is exactly
    rounded: it equals math.fsum over the terms bit for bit, whatever the
    chunking.
    """
    return _exact_sum(re * re + im * im for *_, re, im in _minor_chunks(_as_entries(mat)))


def max_abs_minor(mat) -> float:
    """Largest |minor|; 0.0 for degenerate shapes, NaN if any minor is NaN.

    |minor| is libm hypot(re, im), the function behind abs(complex).
    """
    return _max_modulus((re, im) for *_, re, im in _minor_chunks(_as_entries(mat)))
