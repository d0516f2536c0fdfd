"""Schwarz gaps, one-vs-rest matricizations, and 2x2 minor enumeration.

The Cauchy-Schwarz inequality  |<x1|x2>|^2 <= ||x1||^2 ||x2||^2  holds with
equality exactly when the two vectors are parallel, and the Lagrange identity
expresses the gap as a sum of squared 2x2 minors of the matrix [x1; x2]:

    ||x1||^2 ||x2||^2 - |<x1|x2>|^2  =  sum_{a<b} |x1_a x2_b - x1_b x2_a|^2.

Everything here is built on that identity.  A state is unfolded along a cut
into a rows-by-rest coefficient matrix, and the squared moduli of all its 2x2
minors measure how far the rows are from mutual parallelism, i.e. how far the
cut is from being separable.

Determinism contract: minors are evaluated in bounded chunks, per block of
row pairs and by column offset, with elementwise real float64 arithmetic in
the order of a scalar complex product, so for finite input every minor
equals the scalar ``M[a,c] * M[b,d] - M[a,d] * M[b,c]`` bit for bit, and
the minors of M.T equal those of M.  The sum of squared moduli is exactly
rounded: every term is split exactly in two and accumulated per binary
exponent, and one math.fsum over the exact per-exponent totals rounds once,
so the result equals math.fsum over the terms bit for bit whatever the
chunking or the order; the largest modulus does not depend on the order
either.  enumerate_minors yields the minors in lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InternalConsistencyError, NonFiniteError, ShapeError
from .states import Cut, PureState

# Relative slack allowed before a negative floating-point Schwarz gap is
# treated as a bug rather than rounding.
_GAP_CLAMP_REL = 1e-12

# Minors per kernel chunk, and at most per step.  A call holds about twelve
# float64 arrays of this length (about 0.75 MiB) whatever the matrix shape:
# the gathered row-pair block, two step buffers and the chunk's output.
# Smaller steps pay more per-call numpy overhead, larger ones fall out of
# the CPU caches.
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
_SAFE_EXPONENTS = _EXPONENTS - 64

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

    Cached because the same blocks recur on every call with the same
    shape; a block holds at most _CHUNK pairs, so the cache holds at most
    64 * 16 bytes * _CHUNK (8 MiB).
    """
    counts = np.arange(n - 1, 0, -1)
    first = np.cumsum(counts) - counts  # flat position of the pair (i, i+1)
    flat = np.arange(start, stop)
    i = np.searchsorted(first, flat, side="right") - 1
    j = flat - first[i] + i + 1
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _minor_chunks(entries: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (re, im) chunks that together hold every minor exactly once.

    re and im are 1-D arrays of at most _CHUNK minors, fresh for each
    chunk.  The offset runs along the shorter axis: a wide matrix is read as
    its transpose, whose minors are the same values bit for bit (p keeps
    its operands, q swaps its two factors, and IEEE products and sums
    commute, signed zeros included).  On the (rows, cols) matrix so
    oriented, a block of row pairs (a, b) is gathered once, column-major,
    with columns 0..cols-2 stored again after the last one.  The minor of
    columns c and c + s is A[c] B[c+s] - A[c+s] B[c], whose operands for all
    c at once are contiguous slices of the block; past the last column the
    same slices reach columns (c + s - cols, c), a minor of offset cols - s
    that is q - p.  So one step per offset s <= cols/2 covers the offsets s
    and cols - s without a gather.  Each step forms both products as
    re = xr*yr - xi*yi,  im = xr*yi + xi*yr  and subtracts them: CPython's
    complex arithmetic step for step, one IEEE rounding per elementwise
    operation (einsum/dot/matmul may fuse or reorder, so they are not
    used), and every value equals the scalar complex expression bit for
    bit.  Steps write into buffers allocated once per call and are packed
    into chunks; a step longer than _CHUNK is split.  Minors come per
    row-pair block and by offset, not in lexicographic order.
    """
    if entries.shape[0] < entries.shape[1]:
        entries = entries.T
    nr, nc = entries.shape
    if nc < 2:
        return
    parts = np.empty((2, nc, nr))
    parts[0] = entries.real.T
    parts[1] = entries.imag.T
    pairs = nr * (nr - 1) // 2
    k = min(pairs, max(1, _CHUNK // nc))  # row pairs per block
    span = min(nc, _CHUNK // k)  # columns per step
    scratch = np.empty((2, span * k))
    block_buf = np.empty(4 * (2 * nc - 1) * k)
    remaining = pairs * (nc * (nc - 1) // 2)
    out = np.empty((2, 0))
    pos = 0
    for a, b in _pair_blocks(nr, k):
        kk = a.size
        block = block_buf[: 4 * (2 * nc - 1) * kk].reshape(4, 2 * nc - 1, kk)
        block[:2, :nc] = parts.take(a, axis=2)
        block[2:, :nc] = parts.take(b, axis=2)
        block[:, nc:] = block[:, : nc - 1]
        ar, ai, br, bi = block.reshape(4, -1)
        for s in range(1, nc // 2 + 1):
            width = nc if 2 * s < nc else s  # offset cols/2 has no wrapped part
            for c0 in range(0, width, span):
                m = min(span, width - c0) * kk
                if pos + m > out.shape[1]:
                    if pos:
                        yield out[0, :pos], out[1, :pos]
                    remaining -= pos
                    out = np.empty((2, min(_CHUNK, remaining)))
                    pos = 0
                x, y = c0 * kk, (c0 + s) * kk
                acr, aci, bcr, bci = ar[x : x + m], ai[x : x + m], br[x : x + m], bi[x : x + m]
                adr, adi, bdr, bdi = ar[y : y + m], ai[y : y + m], br[y : y + m], bi[y : y + m]
                re, im = out[0, pos : pos + m], out[1, pos : pos + m]  # p, then the minor
                q, tmp = scratch[:, :m]
                w = min(m, max(0, (nc - s - c0) * kk))  # minors with c + s < cols
                np.multiply(acr, bdr, out=re)
                np.multiply(aci, bdi, out=tmp)
                np.subtract(re, tmp, out=re)
                np.multiply(adr, bcr, out=q)
                np.multiply(adi, bci, out=tmp)
                np.subtract(q, tmp, out=q)
                _subtract_wrapped(re, q, w)
                np.multiply(acr, bdi, out=im)
                np.multiply(aci, bdr, out=tmp)
                np.add(im, tmp, out=im)
                np.multiply(adr, bci, out=q)
                np.multiply(adi, bcr, out=tmp)
                np.add(q, tmp, out=q)
                _subtract_wrapped(im, q, w)
                pos += m
    if pos:
        yield out[0, :pos], out[1, :pos]


def _subtract_wrapped(p: np.ndarray, q: np.ndarray, w: int) -> None:
    """p - q in place for the first w minors of a step, q - p past them."""
    np.subtract(p[:w], q[:w], out=p[:w])
    if w < p.size:
        np.subtract(q[w:], p[w:], out=p[w:])


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
    the stream is empty when rows < 2 or cols < 2.  Each row pair's minors
    come from the kernel run on those two rows: it reads the 2 x cols
    matrix as its transpose, one block of row pairs that are the column
    pairs in order, at the single offset 1.
    """
    entries = _as_entries(mat)
    nr, nc = entries.shape
    col_pairs = list(combinations(range(1, nc + 1), 2))
    for a, b in combinations(range(nr), 2):
        values = (
            complex(x, y)
            for re, im in _minor_chunks(entries[[a, b]])
            for x, y in zip(re.tolist(), im.tolist())
        )
        for col_pair, value in zip(col_pairs, values):
            yield MinorTerm((a + 1, b + 1), col_pair, value)


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
    Only the bins up to the largest exponent present are filled and read.
    """
    bins = np.zeros((2, _EXPONENTS))  # high parts, low parts
    top = 0  # bins from here up are zero
    totals: list[float] = []
    pending = 0
    for terms in chunks:
        terms = terms.ravel()
        if pending + terms.size > _FLUSH_TERMS:
            totals += _bin_totals(bins[:, :top])
            bins[:, :top] = 0.0
            top = pending = 0
        bits = terms.view(np.int64)
        exponent = bits >> 52
        exponent &= _EXPONENTS - 1
        part = (bits & ~_LOW_BITS).view(np.float64)
        with np.errstate(invalid="ignore", over="ignore"):  # checked in _bin_totals
            high = np.bincount(exponent, part)  # up to the largest exponent
            width = high.size
            bins[0, :width] += high
            np.subtract(terms, part, out=part)  # high parts -> low parts
            bins[1, :width] += np.bincount(exponent, part, width)
        top = max(top, width)
        pending += terms.size
    return math.fsum(totals + _bin_totals(bins[:, :top]))


def _bin_totals(bins: np.ndarray) -> list[float]:
    """The nonzero exact totals of _exact_sum's bins 0..n-1, as Python floats.

    Bins below _SAFE_EXPONENTS hold fewer than _FLUSH_TERMS terms under
    2**961 each, so they cannot overflow and need no check.
    """
    if bins.shape[1] > _SAFE_EXPONENTS:
        if bins.shape[1] == _EXPONENTS:
            bins[1, -1] = 0.0  # inf - inf; the high part already carries inf/NaN
        if not np.isfinite(bins[0, : _EXPONENTS - 1]).all():
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
    return _exact_sum(_squared_moduli(_minor_chunks(_as_entries(mat))))


def _squared_moduli(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[np.ndarray]:
    """re*re + im*im per chunk, computed in the kernel's fresh chunk arrays."""
    for re, im in chunks:
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        np.add(re, im, out=re)
        yield re


def max_abs_minor(mat) -> float:
    """Largest |minor|; 0.0 for degenerate shapes, NaN if any minor is NaN.

    |minor| is libm hypot(re, im), the function behind abs(complex).
    """
    return _max_modulus(_minor_chunks(_as_entries(mat)))
