"""Schwarz gaps, one-vs-rest matricizations, and the 2x2 minor kernel.

The Cauchy-Schwarz inequality  |<x1|x2>|^2 <= ||x1||^2 ||x2||^2  holds with
equality exactly when the two vectors are parallel, and the Lagrange identity
expresses the gap as a sum of squared 2x2 minors of the matrix [x1; x2]:

    ||x1||^2 ||x2||^2 - |<x1|x2>|^2  =  sum_{a<b} |x1_a x2_b - x1_b x2_a|^2.

Everything here is built on that identity.  A state is unfolded along a cut
into a rows-by-rest coefficient matrix, and the squared moduli of all its 2x2
minors measure how far the rows are from mutual parallelism, i.e. how far the
cut is from being separable.

Determinism contract: the offset kernel (_max_minor) evaluates minors per
block of row pairs and column offset, and the quad evaluator (_quad_max)
one minor per explicit (a, b, j, k), both in the order of a scalar complex
product, so every |minor| equals ``abs(M[a,c] * M[b,d] - M[a,d] * M[b,c])``
bit for bit and those of M.T equal those of M; the largest modulus does
not depend on the order or on the evaluator.  What the max prunes, and
the peel's verdicts, read one pass over the matrix (_pivot_minors), which
the peel runs once per cut it tests and hands to the max.  The sum of
squared minors takes the Gram route (minor_sum_sq), whose bits do not
depend on BLAS or its threads, and a matrix's sum has the same bits alone
or stacked with others in one pass (minor_sums_sq).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import InternalConsistencyError, NonFiniteError, ShapeError
from .states import Cut, PureState

# Minors per kernel step, or one offset of one row pair if that is longer:
# about 0.75 MiB of arrays.  Smaller steps pay more numpy overhead per
# call, larger ones fall out of the CPU caches.
_CHUNK = 1 << 13

# Gram route: Veltkamp's splitter, slice products per tile, error bound.
_SPLIT = float((1 << 27) + 1)
_TILE = 1 << 17
_BOUND = 2.0**-90
_NO_ROW = -(1 << 11)  # exponent of a zero row, below every double's
_EXTRACT = 1 << 10  # terms per matrix from which _rounded_sum rounds, not fsum

# Candidates for a step's largest |minor|: re*re + im*im within this factor
# of the largest.  It is within a few ulps of |minor|^2 (while normal) and
# hypot within one ulp of |minor|, so no minor outside the band wins.
_BAND = 1.0 - 2.0**-40
_TINY = float(np.finfo(np.float64).tiny)

_PRUNE_PAIRS = 1 << 19  # most row pairs _bounded_pairs takes: an 8 MiB rows x rows bound
_PAD = 512 * 2.0**-53  # rounding pad of the pivot's Schur bound, 512u, times P^2


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
    _check_cut(state, cut)
    return _unfold(state.amps, state.dims, cut)


def _unfold(amps: np.ndarray, dims: tuple[int, ...], cut: Cut) -> np.ndarray:
    """matricize of the flat amplitudes amps over dims, already checked."""
    rows = dims[cut - 1]
    outer = amps.reshape(math.prod(dims[: cut - 1]), rows, -1)
    entries = np.ascontiguousarray(outer.transpose(1, 0, 2).reshape(rows, -1))
    entries.flags.writeable = False
    return entries


def _check_cut(state: PureState, cut: Cut) -> None:
    """IndexError unless cut is an integer (not a bool) in 1..subsystem_count."""
    m = state.subsystem_count
    if isinstance(cut, bool) or not isinstance(cut, (int, np.integer)) or not 1 <= cut <= m:
        raise IndexError(f"cut {cut} out of range 1..{m}")


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


def _max_minor(entries: np.ndarray, pairs=None) -> float:
    """Largest |minor| of row pairs (a, b) = pairs (or all), 0.0 if none, NaN if any is.

    A wide matrix is read as its transpose (same minors bit for bit: IEEE
    products and sums commute), and ``pairs`` index its rows.  A block of
    row pairs is gathered once, column-major, with columns 0..cols-2 again
    after the last.  One step is one offset s of one block: the minors of
    columns c and c + s, A[c] B[c+s] - A[c+s] B[c], for all c from
    contiguous slices.  Past the last column these reach columns
    (c + s - cols, c) and give that minor negated, of the same modulus, so
    offsets s <= cols/2 cover all.  Each step is CPython's complex
    arithmetic, one rounding per elementwise operation (einsum/dot/matmul
    may fuse or reorder), into four rows reused per call, and is reduced
    to its own largest modulus by _max_modulus.  The parts, the block and
    the four rows share one allocation.
    """
    if entries.shape[0] < entries.shape[1]:
        entries = entries.T
    nr, nc = entries.shape
    count = nr * (nr - 1) // 2 if pairs is None else pairs[0].size
    if nc < 2 or count == 0:
        return 0.0
    k = min(count, max(1, _CHUNK // nc))  # row pairs per block
    size = 4 * (2 * nc - 1) * k
    work = np.empty(size + 4 * nc * k + 2 * nc * nr)  # one block for the call
    block_buf, scratch = work[:size], work[size : size + 4 * nc * k].reshape(4, -1)
    parts = work[size + 4 * nc * k :].reshape(2, nc, nr)
    parts[0] = entries.real.T
    parts[1] = entries.imag.T
    peak = 0.0
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
            m = (nc if 2 * s < nc else s) * kk  # offset cols/2 has no wrapped part
            y = s * kk
            acr, aci, bcr, bci = ar[:m], ai[:m], br[:m], bi[:m]
            adr, adi, bdr, bdi = ar[y : y + m], ai[y : y + m], br[y : y + m], bi[y : y + m]
            re, im, q, tmp = scratch[:, :m]  # p, then the minor
            np.multiply(acr, bdr, out=re)
            np.multiply(aci, bdi, out=tmp)
            np.subtract(re, tmp, out=re)
            np.multiply(adr, bcr, out=q)
            np.multiply(adi, bci, out=tmp)
            np.subtract(q, tmp, out=q)
            np.subtract(re, q, out=re)
            np.multiply(acr, bdi, out=im)
            np.multiply(aci, bdr, out=tmp)
            np.add(im, tmp, out=im)
            np.multiply(adr, bci, out=q)
            np.multiply(adi, bcr, out=tmp)
            np.add(q, tmp, out=q)
            np.subtract(im, q, out=im)
            top = _max_modulus(re, im, q)
            if not top <= peak:
                if math.isnan(top):
                    return math.nan
                peak = top
    return peak


def _as_entries(mat) -> np.ndarray:
    entries = np.asarray(mat, dtype=np.complex128)
    if entries.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise NonFiniteError("matrix entries must be finite")
    return entries


def _max_modulus(re: np.ndarray, im: np.ndarray, sq: np.ndarray) -> float:
    """Largest hypot(re, im), equal to a full hypot scan; sq is scratch.

    hypot runs only on the candidates in _BAND of the largest re*re +
    im*im, or on all when that is zero, subnormal, inf or NaN (so a NaN
    part still gives NaN).  Like every pass of max_abs_minor, it runs
    under that call's np.errstate: a square may overflow.
    """
    np.multiply(re, re, out=sq)
    sq += im * im
    top = sq.max()
    if _TINY <= top < math.inf:
        keep = sq >= top * _BAND
        return float(np.hypot(re[keep], im[keep]).max())
    return float(np.hypot(re, im).max())


def minor_sum_sq(mat) -> float:
    """Sum of squared moduli of all second-order minors.

    By the Lagrange identity, the sum of the Schwarz gaps G_aa G_bb -
    |G_ab|^2, a < b, of G = M M^H with M read along its shorter axis:
    O(r^2 c) work.  G is exact slice products (_slices) summed in
    double-double, Dekker's TwoProduct splits each gap's products into
    four terms, and the result is their correctly rounded sum: math.fsum
    of Python floats below _EXTRACT terms, _rounded_sum's exact extraction
    levels from there, the same double.  G is off by at most K^2 2^-102
    |x_a| |x_b| (K <= 9 slices), a gap by 2^-92 G_aa G_bb, so the result
    is within _BOUND ||M||_F^4 of the exact sum for M as given, plus its
    rounding.  No bit depends on BLAS, its threads, FMA or the order of
    numpy's sums.  Never negative: a sum below -_BOUND ||M||_F^4 raises
    InternalConsistencyError.  This is the one-matrix case of
    minor_sums_sq's pass (_gram_sums).
    """
    return _gram_sums(_wide(mat)[None])[0]


def minor_sums_sq(mats) -> list[float]:
    """minor_sum_sq of each matrix, bit for bit, from one Gram pass per
    stack: matrices of one shape, read wide, run together while the stack's
    slices at their cap fit _TILE doubles (1 MiB); larger ones run alone."""
    wide = [_wide(m) for m in mats]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, x in enumerate(wide):
        groups.setdefault(x.shape, []).append(i)
    sums = [0.0] * len(wide)
    for (r, c), index in groups.items():
        per = max(1, _TILE // max(1, r * 2 * c * _slicing(2 * c)[1]))
        for s in range(0, len(index), per):
            part = index[s : s + per]
            stack = np.stack([wide[i] for i in part]) if len(part) > 1 else wide[part[0]][None]
            for i, total in zip(part, _gram_sums(stack)):
                sums[i] = total
    return sums


def _wide(mat) -> np.ndarray:
    """The checked entries of mat, read along the shorter axis, C-contiguous."""
    entries = _as_entries(mat)
    return np.ascontiguousarray(entries.T if entries.shape[0] > entries.shape[1] else entries)


def _gram_sums(stack: np.ndarray) -> list[float]:
    """minor_sum_sq of each matrix of the (S, r, c) stack, r <= c, in one pass.

    Each matrix keeps its own row exponents, rounded sum, negative-sum
    check and inf clamp, and the bits it has alone: the stack slices to
    its largest K, and a matrix with a smaller K was not capped, so its
    extra slices are exact zeros, as are all slices of its zero rows;
    exact zeros and term order do not move a correctly rounded sum.  The
    2 r (r - 1) terms of a matrix are rounded by math.fsum below _EXTRACT
    of them, else by _rounded_sum, on the tiles' arrays as they are
    (never joined): the correctly rounded sum either way.
    """
    x = stack.view(np.float64)
    peak = np.maximum.reduce(np.abs(x), axis=2, initial=0.0)
    e = np.frexp(peak)[1]  # row a's parts < 2**e_a
    e[peak == 0.0] = _NO_ROW  # zero rows have zero minors
    two = [sorted(v)[-2:] for v in e.tolist()]  # each matrix's two largest e
    if len(two[0]) < 2 or max(t[0] for t in two) == _NO_ROW:
        return [0.0] * len(two)
    top = [sum(t) for t in two]
    rho = 2 * e - np.array(top, dtype=e.dtype)[:, None]  # gap terms carry 2**(rho_a + rho_b)
    d = np.zeros((2,) + e.shape)  # G_aa, high and low parts
    z, beta = _slices(x, e)
    S, r, k, c = z.shape
    weights = _level_weights(k, beta)
    step = max(1, _TILE // (S * k * max(k * r, 2 * c)))
    width = S * min(step, r) * k * (c + 2 * r * k)
    tiles = (
        _tile_terms(z, weights, max(a1 - step, 0), a1, rho, d, width) for a1 in range(r, 0, -step)
    )
    extract = 2 * r * (r - 1) >= _EXTRACT
    if len(two) > 1 or extract:
        tiles = list(tiles)  # every matrix's sum reads every tile
    sums = []
    for s in range(len(top)):
        if extract:
            total = _rounded_sum([tile[s] for tile in tiles])
        else:
            total = math.fsum(chain.from_iterable(tile[s].tolist() for tile in tiles))
        if total <= 0.0:  # also with fewer than two nonzero rows: all terms are exact zeros
            with np.errstate(over="ignore"):  # inf only clamps
                trace = float(np.ldexp(d[0, s], rho[s]).sum())
            if total < -_BOUND * trace * trace:
                raise InternalConsistencyError(f"minor sum {total} below its rounding bound")
            total = 0.0
        try:
            sums.append(math.ldexp(total, 2 * top[s]))
        except OverflowError:
            sums.append(math.inf)
    return sums


def _slicing(width: int) -> tuple[int, int]:
    """(beta, cap) for rows of width parts: slice bits and most slices."""
    bits = (width - 1).bit_length()
    beta = (51 - bits) // 2
    return beta, -(-(220 + bits) // (2 * beta))


def _slices(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer slices (z, beta) of the rows of x = [Re M | Im M], interleaved,
    along its last axis: row a is sum_j z[..., a, j, :] 2**(e_a - beta (j + 1)),
    each part of z an integer of at most beta bits.  beta <= (51 - log2 2c)
    / 2 keeps partial sums of a level's (at most 13) slice products under
    2**53 units, exact in any order.  Slicing stops where all rows are exact
    or at the cap: bits below 2**-(110 + log2(2c) / 2) of a row's peak move
    a gap by under 2^-108 G_aa G_bb."""
    beta, cap = _slicing(x.shape[-1])
    frac = np.ldexp(x, -e[..., None])
    need = 53 - int(np.minimum.reduce(np.frexp(frac)[1], axis=None))
    k = min(-(-need // beta), cap)
    z = np.ldexp(frac[..., None, :], beta * np.arange(1, k + 1, dtype=np.int32)[:, None])
    np.rint(z, out=z)
    z[..., 1:, :] -= z[..., :-1, :] * 2.0**beta  # nearest on grid j less on grid j - 1
    return z.view(np.complex128), beta


def _tile_terms(
    z: np.ndarray, weights: np.ndarray, a0: int, a1: int, rho: np.ndarray, d: np.ndarray,
    width: int,
) -> np.ndarray:
    """The gaps' terms of the tile of rows a0..a1-1 by columns a0.., an
    (S, n) array, one row per matrix of the (S, r, k, c) stack z, as
    G_ba = conj(G_ab).
    Matmuls of the tile's conjugated slices, its only copy of z, form the
    slice products of conj(G_ab); one gather (_tile_pairs) copies those of
    its pairs a <= b, diagonal first, into level order, and a matmul sums
    them per level i + j exactly, so every later stage sees only those
    pairs.  The products hold at most _TILE values.  The conjugated
    slices, the products and the gathered copy share one block of width
    values, freed once the levels are summed, and every array of the tile
    goes when it returns; each tile's block has the size of the last, the
    largest, so each fits where the one before was freed.  TwoSum along
    the levels' running sum, finest first, gives conj(G) in double-double.
    _gram_sums runs the tiles upwards, so d has each G_bb.  One TwoProduct
    takes (G_aa, Re G_ab, -Im G_ab) * (G_bb, -Re, Im): rounding is odd in
    the sign, so the terms are those of G itself."""
    S, r, k, c = z.shape
    last = 2 * k - 2  # the coarsest level
    n, m = a1 - a0, r - a0
    at, size = S * n * k * c, S * n * k * m * k
    cached = k * k * S * (n * m - n * (n - 1) // 2) <= _TILE // 2
    ia, ib, index = (_tile_pairs if cached else _tile_pairs.__wrapped__)(S, n, m, k)
    block = np.empty(width, np.complex128)  # conj rows, products, level order
    rows = np.conjugate(z[:, a0:a1].reshape(S, n * k, c), out=block[:at].reshape(S, n * k, c))
    p = block[at : at + size]
    np.matmul(rows, z[:, a0:].reshape(S, m * k, c).transpose(0, 2, 1), out=p.reshape(S, n * k, -1))
    order = block[at + size : at + size + index.size]
    np.take(p, index, out=order, mode="clip")  # "raise" would buffer out
    levels = weights @ order.reshape(k * k, -1).view(np.float64)
    del block, rows, p, order
    acc = np.empty((last + 2, levels.shape[1]))  # running sums, then lo
    acc[0] = levels[0]
    for j in range(1, last + 1):  # np.add.accumulate is slower
        np.add(acc[j - 1], levels[j], out=acc[j])
    s, a = acc[1 : last + 1], acc[:last]
    bv = s - a
    lo = s - bv
    np.subtract(a, lo, out=lo)
    np.subtract(levels[1:], bv, out=bv)
    lo += bv  # Knuth: acc + lo == previous acc + level
    lo = np.add.reduce(lo, axis=0, out=acc[-1])  # frees the levels' lo
    hl = acc[-2:].reshape(2, S, -1, 2)  # G, high and low parts
    d[:, :, a0:a1] = hl[:, :, :n, 0]
    ia, ib = ia[n:], ib[n:]  # the pairs a < b
    below = d[:, :, a0:]
    w = np.empty((4, 3, S, ia.size))  # x, y, lows
    w[0::2, 0] = below[:, :, ia]
    w[1::2, 0] = below[:, :, ib]
    w[0::2, 1:] = hl[:, :, n:].transpose(0, 3, 1, 2)
    np.negative(w[0::2, 1:], out=w[1::2, 1:])
    x, y, xl, yl = w
    t = w[:2] * _SPLIT
    h = t - w[:2]
    np.subtract(t, h, out=h)
    np.subtract(w[:2], h, out=t)  # Veltkamp: h + t == (x, y), 26-bit parts
    out = np.empty((4, S, ia.size))  # p, then the low parts
    p = np.multiply(x, y, out=out[:3])
    err = h[0] * h[1]
    err -= p
    tmp = np.empty_like(err)
    for f, g in ((h[0], t[1]), (t[0], h[1]), (t[0], t[1]), (x, yl), (xl, y)):
        err += np.multiply(f, g, out=tmp)  # Dekker: p + err == x * y, then the lows
    np.add.reduce(err, axis=0, out=out[3])
    ex = rho[:, a0:]
    terms = np.ldexp(out, ex[:, ia] + ex[:, ib])
    return terms.swapaxes(0, 1).reshape(S, -1)


def _rounded_sum(parts: list) -> float:
    """math.fsum of the terms of the float64 arrays parts, bit for bit,
    without a Python float per term; it overwrites the arrays.

    A level is Rump, Ogita and Oishi's ExtractVector: for n terms, 2**M >=
    n + 2 and sigma = 2**M 2**ceil(log2 max|t|), q = (t + sigma) - sigma is
    t on the grid of 2**-53 sigma, within 2**-53 sigma of it, so every
    partial sum of the q is exact, in any order, and so is t - q.  The
    residues t - q, summed in any order, are off by at most 2 n^2 2**-53
    times 2**-53 sigma.  Ziv's test: where fsum of the exact level sums
    and that sum, less and plus the bound, gives one double, that is the
    correctly rounded sum of the terms.  Else the next level runs on the
    residues, until none is left.  Terms that are all zero, not finite, or
    so large that sigma could overflow go to fsum itself.
    """
    n = sum(p.size for p in parts)
    m = (n + 1).bit_length()
    tops = [_peak(p) for p in parts]
    top = max(tops)
    if not 0.0 < top < 2.0 ** (1023 - m) or math.isnan(sum(tops)):
        return math.fsum(chain.from_iterable(p.tolist() for p in parts))
    q = np.empty(max(p.size for p in parts))
    levels = []
    while True:
        sigma = math.ldexp(1.0, m + math.frexp(top)[1])
        level = 0.0
        for p in parts:
            v = np.add(p, sigma, out=q[: p.size])
            v -= sigma
            p -= v
            level += float(v.sum())
        levels.append(level)
        rest = sum(float(p.sum()) for p in parts)
        bound = n * n * 2.0**-105 * sigma
        low = math.fsum(levels + [rest, -bound])
        if low == math.fsum(levels + [rest, bound]):
            return low
        top = max(_peak(p) for p in parts)
        if top == 0.0:
            return math.fsum(levels)


def _peak(p: np.ndarray) -> float:
    """max |p|, 0.0 if p is empty, NaN if any entry is."""
    return max(float(p.max(initial=0.0)), -float(p.min(initial=0.0)))


@lru_cache(maxsize=16)
def _tile_pairs(S: int, n: int, m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (i, j, index) of the pairs a <= b of an (n, m) tile of S
    matrices with k slices, row a0 + i and column a0 + j, the n diagonal
    pairs first, then a < b row by row: entry ((ki k + kj) S + s) P + q of
    index, P = i.size, is the flat position, in the tile's (S, n, k, m, k)
    slice products, of slices ki, kj of pair q of matrix s.  Cached while
    it has at most _TILE / 2 entries (16 * 512 KiB at most), as shapes recur."""
    i, j = np.divmod(np.flatnonzero(np.arange(m) > np.arange(n)[:, None]), m)
    i, j = np.concatenate([np.arange(n), i]), np.concatenate([np.arange(n), j])
    slices = (np.arange(k)[:, None] * (m * k) + np.arange(k)).reshape(-1, 1, 1)
    index = slices + (np.arange(S) * (n * k * m * k))[:, None] + (i * (k * m * k) + j * k)
    for v in (i, j, index):
        v.flags.writeable = False
    return i, j, index.reshape(-1)


@lru_cache(maxsize=64)
def _triangle(n: int) -> np.ndarray:
    """Read-only n x n mask of the row pairs a < b, [a, b]."""
    upper = np.arange(n)[:, None] < np.arange(n)
    upper.flags.writeable = False
    return upper


@lru_cache(maxsize=16)
def _level_weights(k: int, beta: int) -> np.ndarray:
    """Read-only; row t sums the slice products (i, j) of level
    i + j = 2k - 2 - t, each times 2**-(beta (i + j + 2))."""
    level = np.add.outer(np.arange(k), np.arange(k)).ravel()
    rows = np.arange(2 * k - 2, -1, -1)[:, None]
    weights = np.where(level == rows, np.ldexp(1.0, -beta * (rows + 2)), 0.0)
    weights.flags.writeable = False
    return weights


def max_abs_minor(mat, *, _pivot=None) -> float:
    """Largest |minor|; 0.0 for degenerate shapes, inf past the double range.

    |minor| is libm hypot(re, im), the function behind abs(complex).  One
    evaluator runs, with the full scan's bits: the quad evaluator on the
    minors _bounded_pairs lists, else the offset kernel on the row pairs it
    keeps, or on all of them where it prunes nothing.  Entries beyond about
    2**511 can overflow a product (inf, or NaN from inf - inf): a result
    that is not finite is computed again on mat 2**-e, e the exponent of
    its largest |entry|, and scaled back by 2**2e.  All of it runs under
    one np.errstate that silences overflow and invalid warnings.

    _pivot, if given, is _pivot_minors(mat) of a caller that already ran
    it, and the pre-pass reads it instead of running its own.  A wide mat
    is read as its transpose, and so is the tuple, as views (c, r, |x|.T,
    |D|.T): its pivot may be another of a tie and its |D| differ by
    roundings, which every bound allows for, so the bits do not change.
    """
    x = _as_entries(mat)
    if x.shape[0] < x.shape[1]:
        x = x.T
        if _pivot is not None:
            r, c, mod, minors = _pivot
            _pivot = c, r, mod.T, minors.T
    with np.errstate(over="ignore", invalid="ignore"):
        top = _pruned_max(x, _pivot)
        if math.isfinite(top):
            return top
        e = int(np.frexp(np.abs(x).max())[1])
        return float(np.ldexp(_pruned_max(x * 2.0**-e), 2 * e))


def _pruned_max(x: np.ndarray, pivot: tuple | None = None) -> float:
    """max_abs_minor of the tall x, as computed: one pre-pass, one evaluator,
    whose overflow warnings max_abs_minor's np.errstate silences."""
    bounded = _bounded_pairs(x, pivot)
    if bounded is not None and bounded[3] is not None:
        return _quad_max(x, *bounded[3])
    return _max_minor(x, None if bounded is None else bounded[:2])


def _bounded_pairs(
    x: np.ndarray, pivot: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, float, tuple | None] | None:
    """(a, b, L, quads) from one pass over x read tall (_pivot_minors, or
    pivot, the caller's pass over the tall x, if given): the row pairs
    (a, b), lexicographic, that can hold the largest |minor|, the
    lower bound L they were tested against, and the minors for the quad
    evaluator: every minor of the kept pairs, as (P, 1) rows a, b and the
    column pairs of _pair_block(nc, ...), where they number at most
    _CHUNK; past that, those that pass the column bound where the Schwarz
    bound dropped the others (_column_quads; None past _CHUNK of them),
    and None where the Schur bound did; None if no pair is dropped.
    Evaluating a superset of the column bound's minors within the same
    pairs keeps the max's bits.  Every bound below holds for any |D|
    within 9u P^2 of the exact minors, as a pass over x.T read transposed
    is, and L is a modulus the kernel computes.

    Both bounds are tested against L, the kernel's |minor| at the largest
    |D| through the pivot (_pivot_low), raised where the Schwarz bound prunes
    to the largest |minor| with two of the 2 nc largest entries on its
    diagonal (nc >= 2 columns; a row or a column with itself, which only
    rounding noise can pick, raises nothing).  Schwarz: no minor of rows
    a, b exceeds h_a h_b, h_a = hypot(p1, p2) of the two largest |x[a, :]|
    (Schwarz on each row's two entries in the minor's columns); kept are
    the pairs with h_a h_b >= L (1 - 2**-40), a slack for the ulps by which
    a bound or the kernel strays, with _TINY added to every |x| for hypot on
    subnormals (an overflowed bound is kept).  Nothing is pruned unless
    2**-1000 <= L < inf (below it subnormal rounding is absolute).

    Where that keeps every pair, as on near-product cuts, the pivot's Schur
    bound: with p = x[r, c] the pivot, u = x[:, c], v = x[r, :] / p (|v_j|
    <= 1) and S = x - u v^T = D / p (_pivot_minors), row a is u_a v + S_a,
    so the minor of rows a, b at columns j, k is
        u_a (v_j S_bk - v_k S_bj) + u_b (S_aj v_k - S_ak v_j)
        + S_aj S_bk - S_ak S_bj,
    and none exceeds B_ab = |u_a| t_b + |u_b| t_a + min(s_a t_b, s_b t_a),
    where s_a is the largest |S[a, :]| and t_a the sum of its two largest.
    Kept are the pairs with B + _PAD P^2 >= L (u = 2**-53, P = |p|): each
    |S| and s is within 14u P, each t within 32u P (its sum rounded); with
    |u_a| <= P, s <= 2P and t <= 4P, B moves by at most 240u P^2 (48u P^2
    its own rounding), the kernel's |minor| strays by 20u P^2 and B + pad
    rounds by 2u P^2.  Only for 2**-400 <= P <= 2**400 and max |D| > pad
    (else S is rounding noise, as on product cuts).  Either way no minor of
    a dropped pair comes out as large as L.  None beyond _PRUNE_PAIRS pairs
    or up to _CHUNK minors (the bounds cost as much).  Both bounds are
    rows x rows arrays, read where a < b (_triangle); no list of all pairs
    is built.
    """
    x = x.T if x.shape[0] < x.shape[1] else x
    nr, nc = x.shape
    total = nr * (nr - 1) // 2
    if total * (nc * (nc - 1) // 2) <= _CHUNK or total > _PRUNE_PAIRS:
        return None
    r, c, mod, minors = pivot or _pivot_minors(x)
    low = _pivot_low(x, r, c, minors)
    if not 2.0**-1000 <= low < math.inf:
        return None
    upper = (_triangle if total <= _CHUNK else _triangle.__wrapped__)(nr)
    padded = mod + _TINY
    two = _top_two(padded)
    h = np.hypot(*two.T)
    bound = h[:, None] * h
    keep = bound >= low * _BAND
    keep &= upper
    if np.count_nonzero(keep) < total:  # Schwarz prunes; a larger L prunes more
        i, j = np.divmod(np.argpartition(mod, -2 * nc, axis=None)[-2 * nc:], nc)
        g = x[i][:, j]  # g[k, l] = x[i_k, j_l]
        w = np.empty((2, 2 * nc, 2 * nc), np.complex128)  # one block
        np.multiply.outer(g.diagonal(), g.diagonal(), out=w[0])
        w[0] -= np.multiply(g, g.T, out=w[1])
        k, l = divmod(int(np.argmax(np.abs(w[0]))), 2 * nc)
        del g, w  # before the column bound's block
        wider = _modulus(x, i[k], j[k], i[l], j[l])
        low = wider if low < wider < math.inf else low
        np.greater_equal(bound, low * _BAND, out=keep)
        keep &= upper
        del bound
        a, b = np.divmod(np.flatnonzero(keep), nr)
        per = nc * (nc - 1) // 2
        if a.size * per > _CHUNK:
            return a, b, low, _column_quads(padded, two[:, 1], a, b, low)
        return a, b, low, (a[:, None], b[:, None], *_pair_block(nc, 0, per))
    peak, top = float(mod[r, c]), float(minors.max())
    pad = _PAD * peak * peak
    if not (2.0**-400 <= peak <= 2.0**400 and top > pad):
        return None
    two = _top_two(minors) / peak  # of |S|
    s, t = two[:, 1], two[:, 0] + two[:, 1]
    w = np.empty((2, nr, nr))  # one block, and the Schwarz bound's array
    np.multiply.outer(s, t, out=w[0])  # s_a t_b
    np.minimum(w[0], w[0].T, out=w[1])
    np.multiply.outer(mod[:, c], t, out=bound)  # |u_a| t_b
    bound = np.add(bound, bound.T, out=w[0])
    bound += w[1]
    bound += pad
    np.greater_equal(bound, low, out=keep)
    keep &= upper
    if np.count_nonzero(keep) == total:
        return None
    a, b = np.divmod(np.flatnonzero(keep), nr)
    per = nc * (nc - 1) // 2
    if a.size * per > _CHUNK:
        return a, b, low, None
    return a, b, low, (a[:, None], b[:, None], *_pair_block(nc, 0, per))


def _column_quads(
    mod: np.ndarray, peak: np.ndarray, a: np.ndarray, b: np.ndarray, low: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The minors (a, b, j, k), j < k, of the row pairs a, b of the tall x
    whose columns both pass the column bound against L = low, None if more
    than _CHUNK; mod is |x| + _TINY and peak its row maxima, as the Schwarz
    bound reads them.  _bounded_pairs runs it only where the pairs hold
    more than _CHUNK minors: below that, its 40 or so numpy calls cost
    about what evaluating every minor of the pairs does (on Haar [8, 8, 8]
    cuts, medians: 40 us to keep 12 of 1204 minors, which _quad_max
    evaluates all together in 54 us, or the 12 in 19 us).

    No minor of rows a, b at columns j, k exceeds |x_aj| |x_bk| + |x_ak|
    |x_bj| <= g_j = |x_aj| m_b + m_a |x_bj| (m_a the largest |x[a, :]|), nor
    g_k, so only minors whose columns both have g >= L (1 - 2**-40) can be
    as large as L.  The kernel's |minor| strays from the exact one by a few
    ulps of |x_aj| |x_bk| + |x_ak| |x_bj|, within the Schwarz bound's slack;
    an overflowed g is kept.  The pairs are taken in blocks of at most
    _PRUNE_PAIRS entries of g, whose two terms share one allocation.
    """
    nc = mod.shape[1]
    step = max(1, _PRUNE_PAIRS // nc)
    live, quads = [], 0
    for s in range(0, a.size, step):
        pa, pb = a[s : s + step], b[s : s + step]
        g = np.empty((2, pa.size, nc))  # one block: both terms
        g[0] = mod[pa]
        g[0] *= peak[pb, None]
        g[1] = mod[pb]
        g[1] *= peak[pa, None]
        g[0] += g[1]
        keep = g[0] >= low * _BAND
        n = np.count_nonzero(keep, axis=1)
        quads += int(n @ (n - 1)) // 2
        if quads > _CHUNK:
            return None
        pair, col = np.nonzero(keep)
        live.append((pair + s, col))
    pair, col = (np.concatenate(v) for v in zip(*live))
    # Each live column pairs with the live columns after it in its row pair.
    later = np.searchsorted(pair, pair, side="right") - 1 - np.arange(pair.size)
    first = np.repeat(np.arange(pair.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    q = pair.take(first)
    return a.take(q), b.take(q), col.take(first), col.take(second)


def _quad_max(x: np.ndarray, a: np.ndarray, b: np.ndarray, j: np.ndarray, k: np.ndarray) -> float:
    """Largest |minor| of rows a, b at columns j, k of the tall x, one
    minor per (a, b, j, k) as they broadcast, reduced by _max_modulus:
    quads (four arrays of one shape), or every minor of row pairs a, b,
    (P, 1) columns, at column pairs j, k, whose rows are gathered whole
    and then their columns, at a third of the cost of a broadcast index.

    The offset kernel's 14 elementwise operations in its order, so each
    modulus is the kernel's bit for bit: where the kernel reaches columns
    j < k past the last column it computes q - p for p - q, which only
    negates the minor.
    """
    if a.ndim == 2:
        xa, xb = x.take(a[:, 0], axis=0), x.take(b[:, 0], axis=0)
        aj, ak = xa.take(j, axis=1), xa.take(k, axis=1)
        bj, bk = xb.take(j, axis=1), xb.take(k, axis=1)
    else:
        aj, ak, bj, bk = x[a, j], x[a, k], x[b, j], x[b, k]
    re = (aj.real * bk.real - aj.imag * bk.imag) - (ak.real * bj.real - ak.imag * bj.imag)
    im = (aj.real * bk.imag + aj.imag * bk.real) - (ak.real * bj.imag + ak.imag * bj.real)
    return _max_modulus(re, im, np.empty_like(re))


def _modulus(x: np.ndarray, r: int, c: int, a: int, j: int) -> float:
    """|minor| of rows r, a at columns c, j as the kernel evaluates it
    (CPython's complex product, then abs(), which is libm hypot, as
    np.hypot is, and raises OverflowError where the result is inf; row or
    column order only negates it): by the determinism contract one of the
    kernel's own moduli, bit for bit, at any scale; 0.0 or NaN if r == a or
    c == j.  abs() of a NaN part reads a stale errno, so ERANGE left by an
    earlier libm call raises too: that gives NaN, as hypot does."""
    w = complex(x[r, c]) * complex(x[a, j]) - complex(x[r, j]) * complex(x[a, c])
    try:
        return abs(w)
    except OverflowError:
        return math.inf if w == w else math.nan


def _top_two(a: np.ndarray) -> np.ndarray:
    """The two largest of each row of a, ascending."""
    return np.partition(a, -2, axis=1)[:, -2:]


def _pivot_verdict(x: np.ndarray, tolerance: float, pivot: tuple | None = None) -> bool | None:
    """max_abs_minor(x) <= tolerance P^2 where the pivot settles it: True
    if its Schur bound proves it, False if L (_pivot_low), which the scan
    finds, exceeds the limit, else None.  x is peak-scaled (P in [0.5, 2));
    pivot is _pivot_minors(x) where the caller has it, which it then hands
    to the scan (max_abs_minor's _pivot).

    With T = max |D| (_pivot_minors), the Schur identity (_bounded_pairs),
    |u_a| <= P, |v_j| <= 1 and |S| <= T/P, no exact minor exceeds 4T +
    2T^2/P^2; T within 9u P^2 of the exact max |D| <= 2 P^2 moves that by
    at most 108u P^2, the kernel strays by 20u P^2 and the bound (under
    16 P^2) rounds by 64u P^2: _PAD P^2 covers all three.
    """
    r, c, mod, minors = pivot or _pivot_minors(x)
    peak, top = float(mod[r, c]), float(minors.max())
    scale = peak**2
    limit = tolerance * scale
    if 4 * top + 2 * (top / peak) ** 2 + _PAD * scale <= limit:
        return True
    return False if _pivot_low(x, r, c, minors) > limit else None


def _pivot_low(x: np.ndarray, r: int, c: int, minors: np.ndarray) -> float:
    """L: the kernel's own |minor| (_modulus) at the first largest |D|."""
    return _modulus(x, r, c, *divmod(int(np.argmax(minors)), minors.shape[1]))


def _pivot_minors(x: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(r, c, |x|, |D|), the one pass over x: the pivot p = x[r, c], first
    entry of the largest modulus P, and D = p x - u x[r, :], u = x[:, c],
    the minors through it (D[a, j]: rows r, a at columns c, j; D / p is the
    Schur complement).  Row r and column c of |D|, a row or a column with
    itself, are 0, not rounding noise (numpy's complex product does not
    commute bit for bit) nor NaN where P^2 overflows.

    A computed |D| is within 9u P^2 of its exact minor (u = 2**-53; two
    complex products within sqrt(5) u P^2 each, one subtraction of values
    up to 2 P^2, hypot), the kernel's |minor| within 20u P^2 (four
    products, three differences of parts up to P^2, 2 P^2 and 4 P^2,
    hypot), for 2**-400 <= P <= 2**400, where no product overflows and
    underflow, absolute, is far below u P^2; callers check P.
    """
    mod = np.abs(x)
    r, c = divmod(int(np.argmax(mod)), x.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        minors = np.abs(x * x[r, c] - np.multiply.outer(x[:, c], x[r]))
    minors[r] = minors[:, c] = 0.0
    return r, c, mod, minors
