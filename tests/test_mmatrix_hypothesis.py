"""Property test: every vector ``semipositive_certificate`` returns for a
Z-matrix is semipositive in exact rational arithmetic, down to the boundary
of the M-matrix cone and at any scale.  Needs ``hypothesis``; skipped
without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from test_mmatrix import exactly_semipositive  # noqa: E402

from regime import semipositive_certificate  # noqa: E402


@st.composite
def near_singular_z_matrices(draw):
    """Z-matrices with diagonal w (1 + shift), w the Perron root of the
    off-diagonal part: shifts from a few ulps to well inside the M-matrix
    cone, scaled by 1e-6 to 1e6."""
    n = draw(st.integers(1, 8))
    entry = st.floats(0.0, 1.0, allow_subnormal=False)
    off = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(off, 0.0)
    shift = draw(st.one_of(st.integers(-4, 4).map(lambda k: k * 2.0 ** -53),
                           st.floats(-1e-8, 1e-8), st.floats(-0.5, 2.0)))
    w = float(np.abs(np.linalg.eigvals(off)).max())
    a = -off
    np.fill_diagonal(a, max(w, 1e-3) * (1.0 + shift))
    return a * 10.0 ** draw(st.integers(-6, 6))


@settings(max_examples=300, deadline=None)
@given(near_singular_z_matrices())
def test_every_returned_vector_is_exactly_semipositive(a):
    x = semipositive_certificate(a)
    if x is not None:
        assert x.min() == 1.0
        assert exactly_semipositive(a, x)
