"""Shared test helpers: reference states, Haar unitaries, brute-force oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np

from qconc import PureState, amplitude, make_state, tensor

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


def bell_state() -> PureState:
    return make_state([2, 2], [SQ2, 0, 0, SQ2])


def ghz_state() -> PureState:
    return make_state([2, 2, 2], [SQ2, 0, 0, 0, 0, 0, 0, SQ2])


def w_state() -> PureState:
    # (|2,1,1> + |1,2,1> + |1,1,2>) / sqrt(3)
    return make_state([2, 2, 2], [0, SQ3, SQ3, 0, SQ3, 0, 0, 0])


def qutrit_pair() -> PureState:
    amps = np.zeros(9, dtype=complex)
    amps[[0, 4, 8]] = SQ3
    return make_state([3, 3], amps)


def ket(dims, multi_index) -> PureState:
    """Basis ket |i_1, ..., i_m> with 1-based indices."""
    amps = np.zeros(math.prod(dims), dtype=complex)
    flat = 0
    for i, n in zip(multi_index, dims):
        flat = flat * n + (i - 1)
    amps[flat] = 1.0
    return make_state(dims, amps)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def apply_local_unitary(state: PureState, subsystem: int, u: np.ndarray) -> PureState:
    """Apply a unitary to one subsystem (1-based index)."""
    t = state.amps.reshape(state.dims)
    t = np.tensordot(u, t, axes=([1], [subsystem - 1]))
    t = np.moveaxis(t, 0, subsystem - 1)
    return PureState(state.dims, t.reshape(-1))


def unfold_brute_force(state: PureState, cut: int) -> np.ndarray:
    """Cut-first unfolding built index by index through amplitude().

    Independent bookkeeping oracle for matricize: columns run over the
    remaining subsystems in ascending order, row-major.
    """
    rest_dims = [d for k, d in enumerate(state.dims, start=1) if k != cut]
    rows = state.dims[cut - 1]
    cols = math.prod(rest_dims) if rest_dims else 1
    mat = np.zeros((rows, cols), dtype=complex)
    for r in range(1, rows + 1):
        rest_iter = itertools.product(*[range(1, d + 1) for d in rest_dims])
        for c, rest in enumerate(rest_iter):
            idx = list(rest)
            idx.insert(cut - 1, r)
            mat[r - 1, c] = amplitude(state, idx)
    return mat


def cut_first_vector(state: PureState, cut: int) -> np.ndarray:
    """Flat amplitudes with subsystem ``cut`` moved in front of the rest."""
    m = state.subsystem_count
    axes = [cut - 1] + [a for a in range(m) if a != cut - 1]
    return state.amps.reshape(state.dims).transpose(axes).reshape(-1)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit vectors."""
    return abs(np.vdot(a, b)) ** 2


def reconstruction_fidelity(state: PureState, cut: int, u: PureState, rest: PureState) -> float:
    """Fidelity of the normalized state against u (x) rest across the cut."""
    psi = cut_first_vector(state, cut)
    psi = psi / np.linalg.norm(psi)
    phi = tensor(u, rest).amps
    return fidelity(psi, phi)


def near_product_terms(rng: np.random.Generator, dims) -> tuple[np.ndarray, np.ndarray]:
    """(t1, t2): products of unit vectors, each factor of t2 orthogonal to
    the same factor of t1, so every cut of t1 + delta t2 is exactly rank 2."""
    firsts, seconds = [], []
    for n in dims:
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        z -= np.vdot(u, z) * u
        firsts.append(u)
        seconds.append(z / np.linalg.norm(z))
    return _kron_all(firsts), _kron_all(seconds)


def near_product_state(rng: np.random.Generator, dims, entangled: bool) -> PureState:
    """t1 + delta t2 with delta as in the benchmark's near-product states:
    below tol peak^2 / 20 (separable at tolerance 1e-9) or above 10 tol
    sqrt(K), K the most minors of a cut (entangled)."""
    t1, t2 = near_product_terms(rng, dims)
    if entangled:
        k = max(math.comb(n, 2) * math.comb(t1.size // n, 2) for n in dims)
        delta = 1e-8 * math.sqrt(k) * 10 ** rng.uniform()
    else:
        delta = 1e-9 * float(np.max(np.abs(t1))) ** 2 / 20 * 10 ** -rng.uniform()
    return make_state(list(dims), t1 + delta * t2)


def _kron_all(vectors) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out
