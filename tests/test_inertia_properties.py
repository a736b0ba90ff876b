"""Property tests: certified inertia counts agree with dense eigenvalues."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semidirac import (
    BoxPotential,
    Grid2D,
    Params,
    XOnlyPotential,
    assemble_H,
    assemble_square_form,
    assemble_T,
    count_below,
    count_within,
)

# fixed draws, so a failure reproduces on every run and machine
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def operators(draw):
    """Small T, box-well H and Gaussian square-form operators."""
    half = draw(st.floats(2.0, 6.0))
    y_max = draw(st.floats(2.0, 6.0))
    grid = Grid2D(-half, half, y_max, draw(st.integers(5, 15)), draw(st.integers(4, 9)))
    params = Params(draw(st.floats(0.5, 2.5)))
    kind = draw(st.sampled_from(["T", "H", "square"]))
    if kind == "T":
        return assemble_T(grid, params)
    if kind == "H":
        a = draw(st.floats(0.1, 1.0))
        b = draw(st.floats(a + 0.5, min(half, y_max)))
        return assemble_H(grid, params, BoxPotential(a, b, draw(st.floats(-4.0, 0.0))))
    height = draw(st.floats(-1.0, 1.0))
    pot = XOnlyPotential.from_callable(grid, lambda x: height * np.exp(-x * x))
    return assemble_square_form(grid, params, pot)


@PROPERTY
@given(op=operators(), radius=st.floats(0.05, 4.0))
def test_count_within_matches_eigvalsh(op, radius):
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assume(np.min(np.abs(np.abs(lam) - radius)) > 1e-8)
    cert = count_within(op, radius)
    assert cert["count"] == np.count_nonzero(np.abs(lam) < radius)
    assert cert["symmetric_order"] is True
    assert cert["shift_squared"] == radius**2


# |threshold| >= 0.1: at 0 the first-order operators' zero diagonal blocks
# leave no diagonal pivot, which count_below refuses (see test_eigensolve)
@PROPERTY
@given(op=operators(), size=st.floats(0.1, 8.0), negative=st.booleans())
def test_count_below_matches_eigvalsh(op, size, negative):
    threshold = -size if negative else size
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assume(np.min(np.abs(lam - threshold)) > 1e-8)
    cert = count_below(op, threshold)
    assert cert["count"] == np.count_nonzero(lam < threshold)
    assert cert["symmetric_order"] is True
    assert cert["shift"] == threshold
