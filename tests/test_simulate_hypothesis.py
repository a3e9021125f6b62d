"""Property tests of the Monte Carlo engine.  The path states it derives in
one vectorised pass are exactly numpy's
``PCG64(SeedSequence(seed, spawn_key=(k,)))`` states, for seeds of one to
seven 32-bit words and any one-word path id.  A constant generator's
switches, decided once per block from the kept uniforms, are those of the
per-step rule in every path, whether the generator is far below the 0.1
guard or at it, and however paths retire within a block.  Needs
``hypothesis``; skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from test_simulate import reference_simulate_paths  # noqa: E402

from regime import SdeModel, power_drift, regime_sigma, simulate, validate_qmatrix  # noqa: E402
from regime.simulate import _path_states, _simulate_paths  # noqa: E402

# seeds from a few bits up to 200, so some take more than the pool's 4 words
SEEDS = st.integers(0, 200).flatmap(lambda bits: st.integers(0, 2 ** bits - 1))


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=8))
def test_states_are_numpys(seed, path_ids):
    states = _path_states(seed, np.array(path_ids, dtype=np.int64))
    assert len(states) == len(path_ids)
    for k, state in zip(path_ids, states):
        ref = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).state
        assert state == ref


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.integers(2 ** 32, 2 ** 63 - 1))
def test_two_word_path_ids_are_rejected(seed, big):
    # numpy spreads such a key over two words, which the one-pass mix does not do
    with pytest.raises(ValueError, match=r"path ids must lie in \[0, 2\*\*32\)"):
        _path_states(seed, np.array([0, big], dtype=np.int64))


# a block test's step and horizon: 120 steps span several small blocks
BLOCK_DT = 1e-2
BLOCK_STEPS = 120


def _block_model(n: int, raw: list, top: float, slopes: list, scales: list,
                 dim: int) -> SdeModel:
    """A constant generator on n regimes whose largest q_i dt is ``top``: the
    integer weights ``raw`` fill the off-diagonal entries row by row, plus one
    on the ring i -> i + 1 so that every regime is reached."""
    off = np.zeros((n, n))
    off[~np.eye(n, dtype=bool)] = raw[:n * (n - 1)]
    off[np.arange(n), (np.arange(n) + 1) % n] += 1.0
    off *= top / (off.sum(axis=1).max() * BLOCK_DT)
    q = validate_qmatrix(off - np.diag(off.sum(axis=1)))
    return SdeModel(dim=dim, drift=power_drift(slopes[:n]), sigma=regime_sigma(scales[:n]),
                    rates=q, boundary="reflect" if dim == 1 else "none")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 6),
       raw=st.lists(st.integers(0, 20), min_size=30, max_size=30),
       top=st.one_of(st.just(0.1), st.floats(0.002, 0.1)),
       slopes=st.lists(st.floats(-3.0, 0.5), min_size=6, max_size=6),
       scales=st.lists(st.floats(0.5, 1.5), min_size=6, max_size=6),
       dim=st.integers(1, 2),
       x0=st.floats(1.2, 2.0),
       paths=st.integers(20, 60),
       i0=st.integers(0, 5),
       block=st.sampled_from([7, 16, 50]),
       group=st.integers(2, 7),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=6, raw=[20] * 30, top=0.1, slopes=[-2.0, 0.5] * 3, scales=[1.0] * 6, dim=1,
         x0=1.5, paths=60, i0=0, block=16, group=3, seed=7)
def test_block_switches_match_the_per_step_rule(n, raw, top, slopes, scales, dim, x0,
                                                paths, i0, block, group, seed):
    model = _block_model(n, raw, top, slopes, scales, dim)
    start = np.zeros(dim)
    start[0] = x0
    args = (np.arange(paths), start, i0 % n, 1.0, BLOCK_STEPS, BLOCK_DT, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BLOCK", block)
        mp.setattr(simulate, "_FILL_GROUP", group)
        got = _simulate_paths(model, *args)
        ref = reference_simulate_paths(model, *args)
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, r)
    # paths start within one unit of the ball, so some retire inside a block
    hit_steps = np.rint(got[0][np.isfinite(got[0])] / BLOCK_DT)
    assert (hit_steps % block != 0).any()
