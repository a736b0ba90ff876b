"""Momentum fibers: dispersion, edges, and the reduced operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidirac import (
    Grid2D,
    Params,
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
from semidirac.assembly import HermitianOperator, YGrid
from semidirac.cli import _fiber_cross_check, parse_config
from semidirac.scan import GAP_WINDOW_FRACTION, convergence_study, free_edge

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
    monkeypatch.setattr(HermitianOperator, "real_form", property(lambda op: (op.matrix, None)))
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
    shift_invert = nearest_eigenvalues(assemble_T(grid, P1), GAP_WINDOW_FRACTION * P1.delta, k=2)
    assert abs(float(np.min(np.abs(shift_invert.eigenvalues))) - edge) <= 1e-10 * edge


def test_free_edge_runs_no_eigensolver(monkeypatch):
    """The free edge, the gap-edge ladder and the scan's fiber cross-check
    read the separable identity: scan assembles no T and calls no solver."""
    import semidirac.scan

    grid, params = Grid2D(-9.0, 14.0, 14.0, 93, 57), Params(2.0)
    shift_invert = nearest_eigenvalues(assemble_T(grid, params), GAP_WINDOW_FRACTION * params.delta, k=2)

    def refuse(*args, **kwargs):
        raise AssertionError("the free edge must not assemble T or call an eigensolver")

    for name in ("nearest_eigenvalues", "gap_eigs", "assemble_T"):
        monkeypatch.setattr(semidirac.scan, name, refuse)
    edge = free_edge(grid, params)
    assert abs(float(np.min(np.abs(shift_invert.eigenvalues))) - edge) <= 1e-10 * edge
    study = convergence_study("gap-edge", [21, 41, 81], P1)
    assert all(v > 1.0 for v in study.values) and study.fitted_order > 0.0
    cfg = parse_config({"params": {"delta": 2.0}, "grid": {
        "x_min": -9.0, "x_max": 14.0, "y_max": 14.0, "nx": 93, "ny": 57}})
    cross = _fiber_cross_check(cfg, cfg.grid)
    assert cross["two_d_min_abs_lambda"] == edge and cross["within_5pct"]
