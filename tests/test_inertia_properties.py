"""Property tests: certified inertia counts and shift-invert eigenvalues
agree with dense eigenvalues."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semidirac import (
    BoxPotential,
    ConvergenceError,
    Grid2D,
    Params,
    XOnlyPotential,
    assemble_H,
    assemble_square_form,
    assemble_T,
    count_below,
    count_within,
    nearest_eigenvalues,
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


# square forms are real, so these draws also cover the float64 solve path
@PROPERTY
@given(op=operators(), sigma=st.floats(-4.0, 8.0), k=st.integers(1, 4))
def test_nearest_eigenvalues_matches_eigvalsh(op, sigma, k):
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    dist = np.sort(np.abs(lam - sigma))
    # sigma off the spectrum and the k nearest eigenvalues well defined
    assume(dist[0] > 1e-6 and dist[k] - dist[k - 1] > 1e-6)
    rep = nearest_eigenvalues(op, sigma, k=k, tol=1e-11, max_iter=600)
    want = np.sort(lam[np.argsort(np.abs(lam - sigma))[:k]])
    assert rep.k == k
    assert np.max(np.abs(rep.eigenvalues - want)) < 1e-8
    assert rep.certificate["iterations"] <= 600


@PROPERTY
@given(op=operators(), sigma=st.floats(-4.0, 8.0), k=st.integers(1, 4),
       max_iter=st.integers(1, 60))
def test_shift_invert_stays_within_solve_budget(op, sigma, k, max_iter):
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assume(np.min(np.abs(lam - sigma)) > 1e-6)
    try:
        rep = nearest_eigenvalues(op, sigma, k=k, max_iter=max_iter)
    except ConvergenceError as exc:
        assert exc.history
        assert all(entry["iter"] <= max_iter for entry in exc.history)
    else:
        assert rep.certificate["iterations"] <= max_iter
