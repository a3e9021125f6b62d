"""Property test: the path states the engine derives in one vectorised pass
are exactly numpy's ``PCG64(SeedSequence(seed, spawn_key=(k,)))`` states,
for seeds of one to seven 32-bit words and any one-word path id.  Needs
``hypothesis``; skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from regime.simulate import _path_states  # noqa: E402

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
