"""Momentum fibers: edges and the reduced operators."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from semidirac import (
    FiberFamily,
    Grid2D,
    Params,
    XOnlyPotential,
    assemble_H,
    assemble_square_form,
    assemble_T,
    count_within,
    dense_eigs,
    fiber_edge,
    fiber_operator,
    fiber_spectra,
    gap_eigs,
    lowest_of_square,
    nearest_eigenvalues,
    separable_spectrum,
    union_edge,
)
from semidirac.assembly import (
    FIRST_ORDER,
    YGrid,
    _finish,
    _reduce,
    first_derivative_y,
)
from semidirac.eigensolve import ConvergenceError, _sparse_within
from semidirac.fiber import square_form_pairs
from semidirac.cli import parse_config
from semidirac.scan import GAP_WINDOW_FRACTION, convergence_study, fiber_cross_check, free_edge

P1 = Params(1.0)


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
# the fiber family: one assembly and one rotation per y grid


def per_fiber_operator(xi, params, ny, y_max):
    """The fiber assembled on its own, with its coupling inside the blocks:
    the oracle for the family's members."""
    ygrid = YGrid(float(y_max), int(ny))
    dmat, omega = first_derivative_y(ny, ygrid.hy)
    womega = sp.diags(omega)
    a11 = (-1j * (womega @ dmat)).tocsr()
    a12 = (fiber_edge(xi, params) * womega).tocsr()
    M, w_red = _reduce(ygrid, a11, a12, a12, a11.conj().tocsr())
    return _finish(M, FIRST_ORDER, w_red, ygrid=ygrid)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    xis=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3), delta=st.floats(0.1, 3.0),
    ny=st.integers(4, 120), y_max=st.floats(1.0, 40.0),
)
def test_family_members_equal_the_per_fiber_assembly(xis, delta, ny, y_max):
    params = Params(delta)
    family = FiberFamily(YGrid(y_max, ny))
    for xi in xis:
        want, got = per_fiber_operator(xi, params, ny, y_max), family(fiber_edge(xi, params))
        a, b = want.matrix, got.matrix
        norm = abs(a).sum(axis=1).max()
        ulp = np.finfo(np.float64).eps * norm
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert np.max(np.abs(a.data - b.data)) <= 4 * ulp
        assert got.sym_defect == 0.0
        assert abs(b - b.getH()).max() == 0.0
        real, basis = got.real_form
        rotated = (basis.conj().T @ b @ basis).toarray()
        assert real.dtype == np.float64 and not rotated.imag.any()
        assert np.max(np.abs(rotated.real - real.toarray())) <= 4 * ulp
        w = 1e-10 * norm
        m = fiber_edge(xi, params)
        for r in (m - w, m + w):
            assert count_within(got, r)["count"] == count_within(want, r)["count"]


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x_min=st.floats(-10.0, 0.0), width=st.floats(1.0, 20.0), y_max=st.floats(1.0, 20.0),
    nx=st.integers(4, 10), ny=st.integers(4, 10), delta=st.floats(0.1, 3.0),
    vx=st.lists(st.floats(-5.0, 5.0), min_size=10, max_size=10),
)
def test_square_form_is_the_kronecker_sum_of_its_factors(x_min, width, y_max, nx, ny, delta, vx):
    """All dim pairs of the identity rebuild the assembled square form."""
    grid = Grid2D(x_min, x_min + width, y_max, nx, ny)
    op = assemble_square_form(grid, Params(delta), XOnlyPotential(np.array(vx[:nx])))
    vals, vecs = square_form_pairs(op, op.dim)
    assert_spectrum(op, vals)
    m = op.matrix.toarray()
    assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - m)) <= 1e-12 * np.max(np.abs(vals))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(op.dim))) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x_min=st.floats(-10.0, 0.0), width=st.floats(1.0, 20.0), y_max=st.floats(1.0, 20.0),
    nx=st.integers(4, 12), ny=st.integers(4, 12), delta=st.floats(0.1, 3.0),
    vx=st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12), data=st.data(),
)
def test_square_form_pairs_are_its_lowest_pairs(x_min, width, y_max, nx, ny, delta, vx, data):
    """The selected band solves give the count lowest pairs, for counts past
    nx and past 2 ny - 1, and for S indefinite (x-only wells down to -5)."""
    grid = Grid2D(x_min, x_min + width, y_max, nx, ny)
    op = assemble_square_form(grid, Params(delta), XOnlyPotential(np.array(vx[:nx])))
    count = data.draw(st.integers(1, op.dim), label="count")
    vals, vecs = square_form_pairs(op, count)
    want = np.linalg.eigvalsh(op.matrix.toarray())
    assert vals.shape == (count,) and vecs.shape == (op.dim, count)
    assert np.max(np.abs(vals - want[:count])) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(count))) <= 1e-12
    norm = abs(op.matrix).sum(axis=1).max()
    assert np.max(np.linalg.norm(op.matrix @ vecs - vecs * vals, axis=0)) <= 1e-10 * norm


def planted(op, row, col):
    """A copy of the square form whose entries (row, col) and (col, row)
    are set to 1e-3 (row and col may be index arrays, set pairwise)."""
    m = op.matrix.tolil(copy=True)
    m[row, col] = m[col, row] = 1e-3
    return replace(op, matrix=m.tocsr())


def test_square_form_pairs_refuse_an_entry_off_the_y_path():
    """Unknowns 0 and 2 nx are the edge and u1 row 2 at x node 0.  Their
    coupling links the edge to both conjugation sectors, the odd one
    through an imaginary entry, so the rotated y factor is not real, the
    square form has no separable identity and is refused by name."""
    op = assemble_square_form(Grid2D(-3.0, 3.0, 3.0, 13, 9), P1, None)
    assert planted(op, 0, 1).identity is not None  # x neighbours: the y factor is untouched
    bad = planted(op, 0, 2 * 13)
    assert bad.identity is None
    with pytest.raises(ConvergenceError, match="no separable identity"):
        lowest_of_square(bad, 1)


def test_square_form_pairs_refuse_an_entry_past_the_x_band():
    """The band solve of X drops an entry three steps off its diagonal; the
    identity's margin counts it, and the pairs fail the re-check on the
    assembled form.  Planted on every y row, the entry keeps M an exact
    Kronecker sum, so the band's drop alone holds the margin."""
    op = assemble_square_form(Grid2D(-3.0, 3.0, 3.0, 13, 9), P1, None)
    bad = planted(op, 0, 3)
    assert bad.identity.margin >= 1e-3
    with pytest.raises(ConvergenceError, match="identity pair residual"):
        lowest_of_square(bad, 1)
    rows = np.arange(0, op.dim, 13)
    every = planted(op, rows, rows + 3)
    assert every.identity.defect == 0.0 and every.identity.margin >= 1e-3
    with pytest.raises(ConvergenceError, match="identity pair residual"):
        lowest_of_square(every, 1)


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

    monkeypatch.setattr(semidirac.fiber, "conjugation_basis",
                        lambda layout: sp.identity(layout.nx * (2 * layout.ny - 1)))
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
    # gap_eigs certifies its window with count_within(H, r) and keeps its
    # record; the sparse inertia count is the independent 2D check of it
    gap = gap_eigs(H, -r, r, k=4)
    assert gap.certificate["certified"] and gap.certificate["radius"] == r
    assert gap.certificate["route"] == "identity"
    sparse = _sparse_within(H, r, 0.0)
    assert sparse["shift_squared"] == r * r
    assert sparse["count"] == inside == gap.certificate["count"]
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
    _, checks, detail = convergence_study("gap-edge", [21, 41, 81], P1)
    assert all(v > 1.0 for v in detail["values"]) and checks["order_positive"]
    cfg = parse_config({"params": {"delta": 2.0}, "grid": {
        "x_min": -9.0, "x_max": 14.0, "y_max": 14.0, "nx": 93, "ny": 57}})
    cross = fiber_cross_check(cfg.grid, cfg.params)
    assert cross["two_d_min_abs_lambda"] == edge and cross["within_5pct"]


def test_free_edge_storage_grows_linearly_in_ny():
    """The singular values come from the Golub-Kahan tridiagonals of the
    fiber's two paths, so a skinny grid's free edge holds O(ny) storage:
    a bounded number of entries per y node in the fiber's sparse parts
    and its spectra.  Doubling ny to 2000 at most doubles the traced peak
    (with 10% slack), and the peak stays under 2 KiB per y node, a
    sixteenth of the 8 ny (ny - 1) bytes a dense copy of B alone held."""
    import tracemalloc

    peaks = []
    for ny in (1000, 2000):
        grid = Grid2D(-1.0, 1.0, 1.0, 4, ny)
        free_edge(grid, P1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            free_edge(grid, P1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.2 * peaks[0]
    assert peaks[1] <= 2048 * 2000


def test_square_form_storage_grows_linearly_in_ny():
    """The identity keeps the factors' eigenvalues, tridiagonals and band,
    and the pairs solve only the count lowest of each, so a skinny square
    form's lowest_of_square holds O(ny) storage.  Doubling ny to 2000 at
    most doubles the traced peak (with 10% slack), and the peak stays under
    4 KiB per y node, a quarter of the 8 ny^2 bytes that all of one y
    sector's eigenvectors would hold."""
    import tracemalloc

    peaks = []
    for ny in (1000, 2000):
        op = assemble_square_form(Grid2D(-1.0, 1.0, 1.0, 4, ny), P1, None)
        lowest_of_square(replace(op), 1)
        op = replace(op)  # a fresh copy: no identity cached
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lowest_of_square(op, 1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.2 * peaks[0]
    assert peaks[1] <= 4096 * 2000
