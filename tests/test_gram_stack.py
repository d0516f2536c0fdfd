"""The Gram route over a stack of cuts: one pass gives each cut the bits of
its own minor_sum_sq.

GOLDEN holds hexes recorded from the unstacked route, one minor_sum_sq call
and one Gram pass per cut: for every corpus state, concurrence's
per_cut_sums, minor_sum_sq of each cut of the state and of its copies
scaled by the powers of two in SCALES (sums that turn subnormal, overflow
to inf or underflow to 0.0), and schwarz_gap of the first two rows of cut 1.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qconc import concurrence, make_state, matricize, minor_sum_sq, schwarz, schwarz_gap
from qconc.schwarz import minor_sums_sq

from conftest import bell_state, ghz_state, near_product_state, qutrit_pair, w_state

GOLDEN = Path(__file__).with_name("gram_golden.json")
SCALES = (0, 250, -260, 500, -500)  # powers of two


def _gaussian(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _kron(*vectors):
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


def corpus():
    """(name, state): [8,8,8] Haar, product and near-product states, a state
    capped in cut 1 only, a zero row in cut 1 only, mixed cut shapes, GHZ,
    W and two bipartite states."""
    out = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        out.append((f"haar{seed}", make_state([8, 8, 8], _gaussian(rng, 512))))
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        amps = _kron(*(_gaussian(rng, 8) for _ in range(3)))
        out.append((f"product{seed}", make_state([8, 8, 8], amps)))
    for seed in range(6):
        for entangled in (False, True):
            rng = np.random.default_rng(200 + seed)
            out.append((f"near{'_ent' if entangled else '_sep'}{seed}",
                        near_product_state(rng, (8, 8, 8), entangled)))
    # Nonzero only where i2, i3 >= 2, plus 2**-100 at the origin: that
    # amplitude is 2**-100 below its row's peak in cut 1 and alone in its
    # row in cuts 2 and 3, so only cut 1 slices to the cap.
    rng = np.random.default_rng(300)
    t = np.zeros((8, 8, 8), dtype=complex)
    t[:, 1:, 1:] = _gaussian(rng, 8 * 7 * 7).reshape(8, 7, 7)
    t[0, 0, 0] = 2.0**-100 * (1 + 1j)
    out.append(("cap_cut1", make_state([8, 8, 8], t.ravel())))
    rng = np.random.default_rng(301)
    t = _gaussian(rng, 512).reshape(8, 8, 8)
    t[3] = 0.0  # row 3 of cut 1; no row of cuts 2 or 3 is zero
    out.append(("zero_row_cut1", make_state([8, 8, 8], t.ravel())))
    for dims, seed in [((2, 3, 4), 400), ((16, 16, 64), 401), ((3, 3, 3), 402)]:
        rng = np.random.default_rng(seed)
        out.append((f"haar{list(dims)}", make_state(list(dims), _gaussian(rng, math.prod(dims)))))
    out += [("ghz", ghz_state()), ("w", w_state())]
    out += [("bell", bell_state()), ("qutrits", qutrit_pair())]
    return out


def scaled(state, power):
    return make_state(list(state.dims), np.ldexp(state.amps.view(float), power).view(complex))


def cuts(state):
    return [matricize(state, j) for j in range(1, state.subsystem_count + 1)]


def record():
    """The hexes GOLDEN holds, from one minor_sum_sq call per cut.

    per_cut_sums is left out (None) above 4096 amplitudes: normalize takes
    np.linalg.norm, whose BLAS dot splits long vectors across threads, so
    the normalized state's bits there depend on the thread count."""
    out = {}
    for name, state in corpus():
        m = cuts(state)[0]
        sums = concurrence(state).per_cut_sums if state.size <= 4096 else None
        out[name] = {
            "per_cut_sums": sums and [v.hex() for _, v in sums],
            "minor_sum_sq": {
                str(p): [minor_sum_sq(c).hex() for c in cuts(scaled(state, p))] for p in SCALES
            },
            "schwarz_gap": schwarz_gap(m[0], m[1]).hex(),
        }
    return out


def _slice_counts(state):
    """K, the slice count, of each cut alone."""
    counts = []
    for c in cuts(state):
        x = np.ascontiguousarray(c if c.shape[0] <= c.shape[1] else c.T).view(float)
        counts.append(schwarz._slices(x, np.frexp(np.abs(x).max(axis=1))[1])[0].shape[-2])
    return counts


def test_corpus_covers_padding_and_the_cap():
    states = dict(corpus())
    tri = [s for s in states.values() if s.dims == (8, 8, 8)]
    assert sum(len(set(_slice_counts(s))) > 1 for s in tri) >= 3  # cuts padded to a larger K
    width = (2 * 64 - 1).bit_length()
    beta = (51 - width) // 2
    cap = -(-(220 + width) // (2 * beta))
    counts = _slice_counts(states["cap_cut1"])
    assert counts[0] == cap and max(counts[1:]) < cap
    zero_rows = [(np.abs(c).max(axis=1) == 0).sum() for c in cuts(states["zero_row_cut1"])]
    assert zero_rows == [1, 0, 0]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_hexes_hold(golden):
    assert record() == golden


@pytest.mark.parametrize("power", SCALES)
def test_stack_equals_one_call_per_cut(power):
    for name, state in corpus():
        mats = cuts(scaled(state, power))
        want = [minor_sum_sq(m).hex() for m in mats]
        assert [v.hex() for v in minor_sums_sq(mats)] == want, name
        # Any grouping, in any order, gives each cut its own bits.
        assert [v.hex() for v in minor_sums_sq(mats[::-1])] == want[::-1], name
        assert [v.hex() for v in minor_sums_sq([mats[-1]] + mats)] == want[-1:] + want, name


def test_random_stacks_equal_one_call_per_matrix():
    # Stacks of one shape with entries far apart in magnitude, zero rows,
    # zero entries, near rank one, sums past the double range, and
    # transposed members (read wide, they share a shape).
    rng = np.random.default_rng(17)
    for case in range(300):
        r, c = (int(v) for v in rng.integers(1, 10, 2))
        mats = []
        for _ in range(int(rng.integers(1, 5))):
            m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            kind = int(rng.integers(6))
            if kind == 1:
                m *= 10.0 ** rng.integers(-150, 150, (r, c))
            elif kind == 2:
                m[rng.random(r) < 0.4] = 0.0
            elif kind == 3:
                m = np.outer(m[:, 0], m[0]) * (1 + 1e-12 * (rng.random((r, c)) < 0.2))
            elif kind == 4:
                m[rng.random((r, c)) < 0.3] = 0.0
            elif kind == 5:
                m = np.ldexp(m.view(float), int(rng.integers(-1100, 1000))).view(complex)
            mats.append(m.T if rng.random() < 0.3 else m)
        want = [minor_sum_sq(m).hex() for m in mats]
        assert [v.hex() for v in minor_sums_sq(mats)] == want, case


def test_degenerate_shapes_sum_to_zero():
    mats = [np.zeros((0, 3)), np.zeros((3, 0)), np.ones((1, 1)), np.ones((1, 5)), np.ones((5, 1))]
    assert minor_sums_sq(mats) == [minor_sum_sq(m) for m in mats] == [0.0] * 5
    assert minor_sums_sq([]) == []


def _passes(mats):
    """The stack sizes of each Gram pass minor_sums_sq makes."""
    sizes = []
    gram = schwarz._gram_sums

    def recording(stack):
        sizes.append(len(stack))
        return gram(stack)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schwarz, "_gram_sums", recording)
        minor_sums_sq(mats)
    return sizes


@pytest.mark.parametrize(
    "dims, sizes",
    [
        ([8, 8, 8], [3]),  # 8 x 64 cuts: 6144 doubles each at the cap
        ([2, 3, 4], [1, 1, 1]),  # 2 x 12, 3 x 8, 4 x 6: no shape repeats
        ([16, 16, 64], [1, 1, 1]),  # 16 x 1024 cuts alone are over _TILE
        ([16, 16, 16], [2, 1]),  # 16 x 256: two fit
        ([32, 32, 32], [1, 1, 1]),
    ],
)
def test_stacks_hold_one_shape_within_the_budget(dims, sizes):
    state = make_state(dims, np.ones(math.prod(dims)))
    assert _passes(cuts(state)) == sizes


def _traced_peak(fn, *args):
    fn(*args)  # caches and lazy imports first
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_cuts_keep_one_pass_each_in_memory():
    """concurrence of a Haar [32,32,32] state peaked at 5.82 MiB under
    tracemalloc with one minor_sum_sq call per cut; the stacked pass may
    not add more than a tenth.  Its cuts run alone (1 MiB of slices)."""
    state = make_state([32, 32, 32], _gaussian(np.random.default_rng(0), 32**3))
    assert _traced_peak(concurrence, state) <= 1.1 * 5.82 * 2**20


def test_wide_matrix_peak_does_not_grow():
    """minor_sum_sq of a 2 x 2**16 matrix (2 MiB) peaked at 22.0 MiB under
    tracemalloc before the stacked pass."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 1 << 16)) + 1j * rng.standard_normal((2, 1 << 16))
    assert _traced_peak(minor_sum_sq, m) <= 22.0 * 2**20
