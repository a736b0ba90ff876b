"""Momentum fibers: dispersion, edges, and the reduced operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidirac import (
    Grid2D,
    Params,
    SolverConfig,
    XOnlyPotential,
    assemble_H,
    assemble_T,
    dense_eigs,
    dispersion,
    fiber_edge,
    fiber_operator,
    fiber_spectra,
    gap_eigs,
    nearest_eigenvalues,
    separable_spectrum,
    union_edge,
)
from semidirac.assembly import YGrid
from semidirac.scan import GAP_WINDOW_FRACTION, free_edge

P1 = Params(1.0)


def test_dispersion_closed_form():
    lam_p, lam_m = dispersion(0.5, 0.3, P1)
    assert lam_p == pytest.approx(1.285496013218244, rel=1e-15)
    assert lam_m == -lam_p
    assert dispersion(0.0, 0.0, P1) == (1.0, -1.0)
    # branch magnitude is hypot(kappa, xi^2 + delta)
    assert dispersion(2.0, -1.5, P1)[0] == pytest.approx(np.hypot(1.5, 5.0))


def test_fiber_edge_quadratic_in_xi():
    assert fiber_edge(0.0, P1) == 1.0
    assert fiber_edge(-2.0, P1) == 5.0
    assert fiber_edge(3.0, Params(0.25)) == 9.25


def test_union_edge_is_exactly_delta():
    xs = np.linspace(-2.0, 2.0, 21)
    assert union_edge(xs, P1) == 1.0
    assert union_edge([0.0, 1.0], Params(0.3)) == 0.3
    with pytest.raises(ValueError, match="contain 0"):
        union_edge([0.5, 1.0], P1)
    with pytest.raises(ValueError, match="empty"):
        union_edge([], P1)


def test_fiber_operator_shape_and_hermiticity():
    for xi in (0.0, 0.7):
        op = fiber_operator(xi, P1, ny=60, y_max=30.0)
        assert op.dim == 2 * 60 - 1
        assert op.sym_defect == 0.0
    with pytest.raises(ValueError):
        fiber_operator(0.0, P1, ny=3, y_max=30.0)
    with pytest.raises(ValueError):
        fiber_operator(np.inf, P1, ny=60, y_max=30.0)


@pytest.mark.parametrize("xi", [0.0, 0.7, 1.0])
def test_fiber_spectrum_touches_analytic_edge(xi):
    # the constant-coupling fiber carries its edge eigenvalue exactly
    op = fiber_operator(xi, P1, ny=80, y_max=40.0)
    rep = dense_eigs(op)
    edge = fiber_edge(xi, P1)
    got = float(np.min(np.abs(rep.eigenvalues)))
    assert abs(got - edge) / edge < 1e-10


def test_fiber_spectrum_is_symmetric_up_to_the_boundary_mode():
    # the boundary state at +(xi^2 + delta) has no mirror partner; the
    # remaining spectrum pairs off exactly
    op = fiber_operator(0.4, P1, ny=80, y_max=40.0)
    lam = dense_eigs(op).eigenvalues
    edge = fiber_edge(0.4, P1)
    unpaired = int(np.argmin(np.abs(lam - edge)))
    assert abs(lam[unpaired] - edge) < 1e-10
    rest = np.delete(lam, unpaired)
    assert rest.size % 2 == 0
    assert np.max(np.abs(rest + rest[::-1])) < 1e-10 * np.max(np.abs(lam))


def test_gap_scales_with_delta():
    for delta in (0.5, 2.0):
        op = fiber_operator(0.0, Params(delta), ny=80, y_max=40.0)
        lam = dense_eigs(op).eigenvalues
        assert np.min(np.abs(lam)) == pytest.approx(delta, rel=1e-10)
        assert np.all(np.abs(lam) >= delta * (1.0 - 1e-10))


# ---------------------------------------------------------------------------
# the separable oracle: fiber spectra from one y solve


def assert_spectrum(op, want):
    got = np.linalg.eigvalsh(op.matrix.toarray())
    assert want.shape == got.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x_min=st.floats(-10.0, 0.0), width=st.floats(1.0, 20.0), y_max=st.floats(1.0, 20.0),
    nx=st.integers(4, 10), ny=st.integers(4, 10), delta=st.floats(0.1, 3.0),
    xi=st.floats(-3.0, 3.0), vx=st.lists(st.floats(-5.0, 5.0), min_size=10, max_size=10),
)
def test_separable_spectra_equal_the_assembled_ones(x_min, width, y_max, nx, ny, delta, xi, vx):
    grid = Grid2D(x_min, x_min + width, y_max, nx, ny)
    params = Params(delta)
    fiber = fiber_spectra([fiber_edge(xi, params)], YGrid(y_max, ny))
    assert_spectrum(fiber_operator(xi, params, ny, y_max), fiber[0])
    assert_spectrum(assemble_T(grid, params), separable_spectrum(grid, params))
    v = np.array(vx[:nx])
    assert_spectrum(assemble_H(grid, params, XOnlyPotential(v)), separable_spectrum(grid, params, v))


def test_fiber_spectra_rows_follow_their_couplings():
    ygrid = YGrid(40.0, 400)
    spectra = fiber_spectra([1.0, 1.16, -0.5], ygrid)
    assert spectra.shape == (3, 799)
    # each row carries its coupling once and pairs off the rest
    for c, lam in zip((1.0, 1.16, -0.5), spectra):
        assert np.min(np.abs(lam)) == abs(c)
        rest = np.delete(lam, np.argmin(np.abs(lam - c)))
        assert np.array_equal(rest, -rest[::-1])


def test_fiber_spectra_refuses_an_unrotated_fiber(monkeypatch):
    """B is read off the real form; a fiber that stays complex has none."""
    import semidirac.fiber

    monkeypatch.setattr(semidirac.fiber, "_real_form", lambda matrix, parent: (matrix, None))
    with pytest.raises(ValueError, match="did not rotate"):
        fiber_spectra([1.0], YGrid(20.0, 8))


@pytest.mark.parametrize("nx,ny", [(161, 81), (321, 161)])
def test_separable_oracle_on_the_gaussian_well(nx, ny):
    """Beyond the dense cap: certified counts, shift-invert pairs and the
    free edge agree with the exact separable spectrum."""
    grid = Grid2D(-20.0, 20.0, 20.0, nx, ny)
    pot = XOnlyPotential.from_callable(grid, lambda x: -np.exp(-x * x))
    H = assemble_H(grid, P1, pot)
    exact = separable_spectrum(grid, P1, pot.values)
    r = GAP_WINDOW_FRACTION * P1.delta
    # no exact eigenvalue sits on the window's rim, so the count is sharp
    assert np.min(np.abs(np.abs(exact) - r)) > 1e-6
    inside = int(np.count_nonzero(np.abs(exact) < r))
    assert inside > 0
    # gap_eigs certifies its window with count_within(H, r) and keeps its record
    gap = gap_eigs(H, -r, r, k=4)
    assert gap.certificate["certified"] and gap.certificate["shift_squared"] == r * r
    assert gap.certificate["count"] == inside
    assert np.all(np.min(np.abs(gap.eigenvalues[:, None] - exact), axis=1) <= 1e-10)

    sigma, k = 0.5, 4
    by_distance = exact[np.argsort(np.abs(exact - sigma))]
    assert abs(by_distance[k] - sigma) - abs(by_distance[k - 1] - sigma) > 1e-6
    near = nearest_eigenvalues(H, sigma, k=k)
    want = np.sort(by_distance[:k])
    assert np.max(np.abs(near.eigenvalues - want)) <= 1e-10 * np.max(np.abs(want))

    edge = float(np.min(np.abs(separable_spectrum(grid, P1))))
    assert abs(free_edge(grid, P1, SolverConfig()) - edge) <= 1e-10 * edge
