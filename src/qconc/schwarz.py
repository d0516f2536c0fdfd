"""Schwarz gaps, one-vs-rest matricizations, and the 2x2 minor kernel.

The Cauchy-Schwarz inequality  |<x1|x2>|^2 <= ||x1||^2 ||x2||^2  holds with
equality exactly when the two vectors are parallel, and the Lagrange identity
expresses the gap as a sum of squared 2x2 minors of the matrix [x1; x2]:

    ||x1||^2 ||x2||^2 - |<x1|x2>|^2  =  sum_{a<b} |x1_a x2_b - x1_b x2_a|^2.

Everything here is built on that identity.  A state is unfolded along a cut
into a rows-by-rest coefficient matrix, and the squared moduli of all its 2x2
minors measure how far the rows are from mutual parallelism, i.e. how far the
cut is from being separable.

Determinism contract: the kernel evaluates minors in bounded chunks, per
block of row pairs and by column offset, in the order of a scalar complex
product, so every minor equals ``M[a,c] * M[b,d] - M[a,d] * M[b,c]`` bit
for bit and those of M.T equal those of M; the largest modulus does not
depend on the order.  The sum of squared minors takes the Gram route
(minor_sum_sq), whose bits do not depend on BLAS or its threads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import InternalConsistencyError, NonFiniteError, ShapeError
from .states import Cut, PureState

# Minors per kernel chunk and at most per step: about 0.75 MiB of arrays
# whatever the shape.  Smaller steps pay more numpy overhead per call,
# larger ones fall out of the CPU caches.
_CHUNK = 1 << 13

# Gram route: Veltkamp's splitter, slice products per tile, error bound.
_SPLIT = float((1 << 27) + 1)
_TILE = 1 << 17
_BOUND = 2.0**-90

# Candidates for a chunk's largest |minor|: re*re + im*im within this factor
# of the largest.  It is within a few ulps of |minor|^2 (while normal) and
# hypot within one ulp of |minor|, so no minor outside the band wins.
_BAND = 1.0 - 2.0**-40
_TINY = float(np.finfo(np.float64).tiny)

_PRUNE_PAIRS = 1 << 19  # most row pairs _bounded_pairs takes: 8 MiB of indices


def schwarz_gap(x1, x2) -> float:
    """Schwarz gap ||x1||^2 ||x2||^2 - |<x1|x2>|^2, never negative.

    By the Lagrange identity, minor_sum_sq of the two-row matrix [x1; x2]:
    the exact-Gram route, within _BOUND (||x1||^2 + ||x2||^2)^2 of the
    exact gap plus one rounding, and inf past the double range.  NaN or
    infinite entries raise NonFiniteError.
    """
    v1 = np.asarray(x1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(x2, dtype=np.complex128).reshape(-1)
    if v1.size != v2.size:
        raise ShapeError(f"vector lengths differ: {v1.size} vs {v2.size}")
    if v1.size == 0:
        raise ShapeError("vectors must have length >= 1")
    return minor_sum_sq(np.vstack([v1, v2]))


def matricize(state: PureState, cut: Cut) -> np.ndarray:
    """Unfold a state along a cut: the read-only (rows x cols) complex array
    with subsystem ``cut`` on rows and the rest on columns.

    Entry (r, c), 0-based, is the amplitude with i_cut = r + 1 and the
    remaining subsystems, in ascending order, at row-major position c.
    """
    m = state.subsystem_count
    if not 1 <= cut <= m:
        raise IndexError(f"cut {cut} out of range 1..{m}")
    rows = state.dims[cut - 1]
    outer = state.amps.reshape(math.prod(state.dims[: cut - 1]), rows, -1)
    entries = np.ascontiguousarray(outer.transpose(1, 0, 2).reshape(rows, -1))
    entries.flags.writeable = False
    return entries


@lru_cache(maxsize=64)
def _pair_block(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (i, j) of the pairs at flat positions start..stop-1, cached
    as they recur per shape (at most 64 * 16 bytes * _CHUNK, 8 MiB)."""
    counts = np.arange(n - 1, 0, -1)
    first = np.cumsum(counts) - counts  # flat position of the pair (i, i+1)
    flat = np.arange(start, stop)
    i = np.searchsorted(first, flat, side="right") - 1
    j = flat - first[i] + i + 1
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _minor_chunks(entries: np.ndarray, pairs=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (re, im) chunks holding each minor of row pairs (a, b) = pairs (or all) once.

    re and im are fresh 1-D arrays of at most _CHUNK minors.  A wide
    matrix is read as its transpose (same minors bit for bit: IEEE products
    and sums commute), and ``pairs`` index its rows.  A block of row pairs
    is gathered once, column-major, with columns 0..cols-2 again after the
    last.  The minors of columns c and c + s, A[c] B[c+s] - A[c+s] B[c],
    come for all c from contiguous slices; past the last column these
    reach columns (c + s - cols, c), whose minor is q - p, so offsets
    s <= cols/2 cover all.  Each step is
    CPython's complex arithmetic, one rounding per elementwise operation
    (einsum/dot/matmul may fuse or reorder), into buffers reused per call.
    """
    if entries.shape[0] < entries.shape[1]:
        entries = entries.T
    nr, nc = entries.shape
    count = nr * (nr - 1) // 2 if pairs is None else pairs[0].size
    if nc < 2:
        return
    parts = np.empty((2, nc, nr))
    parts[0] = entries.real.T
    parts[1] = entries.imag.T
    k = min(count, max(1, _CHUNK // nc))  # row pairs per block
    span = min(nc, _CHUNK // k)  # columns per step
    scratch = np.empty((2, span * k))
    block_buf = np.empty(4 * (2 * nc - 1) * k)
    remaining = count * (nc * (nc - 1) // 2)
    out = np.empty((2, 0))
    pos = 0
    for start in range(0, count, k):
        stop = min(start + k, count)
        a, b = _pair_block(nr, start, stop) if pairs is None else (p[start:stop] for p in pairs)
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
    entries = np.asarray(mat, dtype=np.complex128)
    if entries.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise NonFiniteError("matrix entries must be finite")
    return entries


def _max_modulus(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest hypot(re, im) over all chunks, equal to a full hypot scan.

    Per chunk, hypot runs only on the candidates in _BAND of the largest
    re*re + im*im, or on the whole chunk when that is zero, subnormal, inf
    or NaN (so a NaN part still gives NaN).
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

    By the Lagrange identity, the sum of the Schwarz gaps G_aa G_bb -
    |G_ab|^2, a < b, of G = M M^H with M read along its shorter axis:
    O(r^2 c) work.  G is exact slice products (_slices) summed in
    double-double, Dekker's TwoProduct splits each gap's products, and
    math.fsum rounds once.  G is off by at most K^2 2^-102 |x_a| |x_b|
    (K <= 9 slices), a gap by 2^-92 G_aa G_bb, so the result is within
    _BOUND ||M||_F^4 of the exact sum for M as given, plus its rounding.
    No bit depends on BLAS, its threads or FMA.  Never negative: a sum
    below -_BOUND ||M||_F^4 raises InternalConsistencyError.
    """
    entries = _as_entries(mat)
    if entries.shape[0] > entries.shape[1]:
        entries = entries.T
    x = np.ascontiguousarray(entries).view(np.float64)
    peak = np.maximum.reduce(np.abs(x), axis=1, initial=0.0)
    nonzero = peak > 0.0  # zero rows have zero minors
    if np.count_nonzero(nonzero) < 2:
        return 0.0
    e = np.frexp(peak[nonzero])[1]  # row a's parts < 2**e_a
    top = sum(sorted(e.tolist())[-2:])
    rho = 2 * e - top  # gap terms carry 2**(rho_a + rho_b)
    d = np.zeros((2, len(e)))  # G_aa, high and low parts
    total = math.fsum(chain.from_iterable(_gap_terms(*_slices(x[nonzero], e), rho, d)))
    if total <= 0.0:
        with np.errstate(over="ignore"):  # inf only clamps
            trace = float(np.ldexp(d[0], rho).sum())
        if total < -_BOUND * trace * trace:
            raise InternalConsistencyError(f"minor sum {total} below its rounding bound")
        return 0.0
    try:
        return math.ldexp(total, 2 * top)
    except OverflowError:
        return math.inf


def _slices(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer slices (z, beta) of the rows of x = [Re M | Im M], interleaved:
    row a is sum_j z[a, j] 2**(e_a - beta (j + 1)), each part of z an
    integer of at most beta bits.  beta <= (51 - log2 2c) / 2 keeps partial
    sums of a level's (at most 13) slice products under 2**53 units, exact
    in any order.  Slicing stops where rows are exact or at the cap: bits
    below 2**-(110 + log2(2c) / 2) of a row's peak move a gap by under
    2^-108 G_aa G_bb."""
    width = (x.shape[1] - 1).bit_length()
    beta = (51 - width) // 2
    frac = np.ldexp(x, -e[:, None])
    need = 53 - int(np.minimum.reduce(np.frexp(frac)[1], axis=None))
    k = min(-(-need // beta), -(-(220 + width) // (2 * beta)))
    z = np.ldexp(frac[:, None], beta * np.arange(1, k + 1)[:, None])
    np.rint(z, out=z)
    z[:, 1:] -= z[:, :-1] * 2.0**beta  # nearest on grid j less on grid j - 1
    return z.view(np.complex128), beta


def _gap_terms(z: np.ndarray, beta: int, rho: np.ndarray, d: np.ndarray) -> Iterator[list]:
    """Yield the gaps' fsum terms per tile of rows a0..a1-1 by columns a0..,
    as G_ba = conj(G_ab).  Matmuls form the slice products and their exact
    sums per level i + j; TwoSum along the levels' running sum, finest
    first, gives G in double-double.  Tiles run upwards, so d has each
    G_bb.  One TwoProduct takes (G_aa, Re G_ab, Im G_ab) * (G_bb, -Re, -Im)."""
    r, k, c = z.shape
    weights = _level_weights(k, beta)
    zc = z.conj()
    step = max(1, _TILE // (k * k * r))
    for a1 in range(r, 0, -step):
        a0 = max(a1 - step, 0)
        n, m = a1 - a0, r - a0
        p = z[a0:a1].reshape(n * k, c) @ zc[a0:].reshape(m * k, c).T
        p = p.reshape(n, k, m, k).transpose(1, 3, 0, 2).reshape(k * k, -1)
        levels = weights @ p.view(np.float64)
        acc = levels.copy()
        for j in range(1, len(acc)):  # np.add.accumulate is slower
            np.add(acc[j - 1], levels[j], out=acc[j])
        s, a = acc[1:], acc[:-1]
        bv = s - a
        lo = a - (s - bv)
        lo += levels[1:] - bv  # Knuth: acc + lo == previous acc + level
        hi, lo = acc[-1], np.add.reduce(lo, axis=0)
        d[0, a0:a1] = hi[:: 2 * m + 2]
        d[1, a0:a1] = lo[:: 2 * m + 2]
        w = np.empty((4, 3, n, m))  # x, y, lows
        w[0::2, 0] = d[:, a0:a1, None]
        w[1::2, 0] = d[:, None, a0:]
        w[0, 1:] = hi.reshape(n, m, 2).transpose(2, 0, 1)
        w[2, 1:] = lo.reshape(n, m, 2).transpose(2, 0, 1)
        np.negative(w[0::2, 1:], out=w[1::2, 1:])
        x, y, xl, yl = w
        t = w[:2] * _SPLIT
        h = t - (t - w[:2])
        t = w[:2] - h  # Veltkamp: h + t == (x, y), 26-bit parts
        p = x * y
        err = h[0] * h[1] - p
        err += h[0] * t[1]
        err += t[0] * h[1]
        err += t[0] * t[1]  # Dekker: p + err == x * y
        err += x * yl
        err += xl * y
        low = np.add.reduce(err, axis=0)
        upper = np.arange(m) > np.arange(n)[:, None]
        ex = (rho[a0:a1, None] + rho[a0:])[upper]
        yield np.ldexp(p[:, upper], ex).ravel().tolist() + np.ldexp(low[upper], ex).tolist()


@lru_cache(maxsize=16)
def _level_weights(k: int, beta: int) -> np.ndarray:
    """Read-only; row t sums the slice products (i, j) of level
    i + j = 2k - 2 - t, each times 2**-(beta (i + j + 2))."""
    level = np.add.outer(np.arange(k), np.arange(k)).ravel()
    rows = np.arange(2 * k - 2, -1, -1)[:, None]
    weights = np.where(level == rows, np.ldexp(1.0, -beta * (rows + 2)), 0.0)
    weights.flags.writeable = False
    return weights


def max_abs_minor(mat) -> float:
    """Largest |minor|; 0.0 for degenerate shapes, NaN if any minor is NaN.

    |minor| is libm hypot(re, im), the function behind abs(complex).  Only
    the row pairs _bounded_pairs keeps are scanned, with the full scan's bits.
    """
    entries = _as_entries(mat)
    return _max_modulus(_minor_chunks(entries, _bounded_pairs(entries)))


def _bounded_pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Row pairs (a, b), lexicographic, of x read tall as the kernel reads
    it that can hold the largest |minor|; None for all pairs.

    With p1 >= p2 the two largest |x[a, :]| and q1 >= q2 those of row b, no
    minor of the pair exceeds min(q1 (p1 + p2), p1 (q1 + q2)) or hypot(p1,
    p2) hypot(q1, q2) (Hadamard).  L is the kernel's largest |minor| of the
    pair, of the 12 rows of largest p1 + p2, whose minor at their peak
    columns seems largest.  Kept are the pairs with bound >= L (1 - 2**-40),
    a slack for the ulps by which a bound or the kernel strays, with _TINY
    added to every |x| for hypot on subnormals (an overflowed bound is kept).
    None if L is not finite or below 2**-1000 (subnormal rounding is
    absolute), if no bound can be below L (each is at least p1 q1), beyond
    _PRUNE_PAIRS pairs, or up to _CHUNK minors (the bounds cost as much).
    """
    x = x.T if x.shape[0] < x.shape[1] else x
    nr, nc = x.shape
    total = nr * (nr - 1) // 2
    if total * (nc * (nc - 1) // 2) <= _CHUNK or total > _PRUNE_PAIRS:
        return None
    mod = np.abs(x) + _TINY
    p2, p1 = np.sort(mod, axis=1)[:, -2:].T
    s = p1 + p2
    rows = np.argsort(s)[-12:]
    cols = np.argsort(mod[rows], axis=1)[:, -2:].ravel()
    index = _seed_index(rows.size)
    g = x[rows][:, cols].take(index)  # ac, ad, bd, bc
    seem = np.abs(g[0] * g[2] - g[1] * g[3])
    least = float(p1.min())
    if seem.max() <= least * least:  # no bound is below L
        return None
    seed = x[rows[index[::2, seem.argmax()] // (2 * rows.size)]]  # kernel reads it nc x 2
    low = _max_modulus(_minor_chunks(seed)) * _BAND
    if not 2.0**-1000 <= low < math.inf:
        return None
    a, b = (_pair_block if total <= _CHUNK else _pair_block.__wrapped__)(nr, 0, total)
    bound = np.minimum(s.take(a) * p1.take(b), p1.take(a) * s.take(b))
    h = np.hypot(p1, p2)
    bound = np.minimum(bound, h.take(a) * h.take(b), out=bound)
    keep = bound >= low
    return None if keep.all() else (a[keep], b[keep])


@lru_cache(maxsize=16)
def _seed_index(r: int) -> np.ndarray:
    """Read-only flat (4, n) index into r rows at their two peak columns each:
    (i, u), (i, v), (j, v), (j, u) for rows i < j and u < v of their four."""
    i, j = np.triu_indices(r, 1)
    u, v = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])[np.array(np.triu_indices(4, 1))]
    index = (2 * r * np.array([i, i, j, j])[:, None] + np.array([u, v, v, u])).reshape(4, -1)
    index.flags.writeable = False
    return index
