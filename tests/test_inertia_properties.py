"""Property tests: certified inertia counts, shift-invert and dense
eigenvalues agree with plain dense eigenvalues, and the antiunitary
symmetry makes the operators real, and every route run in real
arithmetic, where it should."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semidirac import (
    BoxPotential,
    ConvergenceError,
    Grid2D,
    Params,
    PerturbationField,
    XOnlyPotential,
    assemble_H,
    assemble_H_eps,
    assemble_square_form,
    assemble_T,
    count_below,
    count_within,
    dense_eigs,
    fiber_operator,
    gap_eigs,
    lowest_of_square,
    nearest_eigenvalues,
)
from semidirac.assembly import conjugation_basis
from semidirac.eigensolve import _sparse_below, _sparse_within

# fixed draws, so a failure reproduces on every run and machine
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def inf_norm(op) -> float:
    return float(abs(op.matrix).sum(axis=1).max())


def assert_residuals_within(op, rep, tol):
    """Every returned pair meets ||M x - lambda x|| <= tol ||M||_inf on the input matrix."""
    vecs = rep.eigenvectors
    resid = np.linalg.norm(op.matrix @ vecs - vecs * rep.eigenvalues, axis=0)
    assert np.all(resid <= tol * inf_norm(op))


@st.composite
def operators(draw, kinds=("T", "H", "square")):
    """Small T, box-well H and Gaussian square-form operators."""
    half = draw(st.floats(2.0, 6.0))
    y_max = draw(st.floats(2.0, 6.0))
    grid = Grid2D(-half, half, y_max, draw(st.integers(5, 15)), draw(st.integers(4, 9)))
    params = Params(draw(st.floats(0.5, 2.5)))
    kind = draw(st.sampled_from(kinds))
    if kind == "T":
        return assemble_T(grid, params)
    if kind == "H":
        a = draw(st.floats(0.1, 1.0))
        b = draw(st.floats(a + 0.5, min(half, y_max)))
        return assemble_H(grid, params, BoxPotential(a, b, draw(st.floats(-4.0, 0.0))))
    height = draw(st.floats(-1.0, 1.0))
    pot = XOnlyPotential.from_callable(grid, lambda x: height * np.exp(-x * x))
    return assemble_square_form(grid, params, pot)


def count_margin(op, radius, center) -> float:
    """How near an edge of (center - radius, center + radius) an eigenvalue
    may lie before the squared count may disagree with eigvalsh.

    The count is the inertia of A = (R - center I)^2 - radius^2 I, exact up
    to the backward error of forming and factoring A, dim eps ||A||, with
    ||A|| <= (||M||_inf + |center|)^2.  An eigenvalue d from an edge gives
    A an eigenvalue of size d (2 radius +- d) >= d radius for d <= radius,
    so it keeps its side when d radius exceeds that error.
    """
    error = op.dim * np.finfo(float).eps * (inf_norm(op) + abs(center)) ** 2
    return error / radius


# windows symmetric about zero, and windows centred anywhere
CENTERS = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@PROPERTY
@given(op=operators(), radius=st.floats(0.05, 4.0), center=CENTERS)
def test_count_within_matches_eigvalsh(op, radius, center):
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assume(np.min(np.abs(np.abs(lam - center) - radius)) > count_margin(op, radius, center))
    cert = _sparse_within(op, radius, center)
    assert cert["count"] == np.count_nonzero(np.abs(lam - center) < radius)
    assert cert["symmetric_order"] is True
    assert cert["shift_squared"] == radius**2 and cert["center"] == center
    assert cert["arithmetic"] == "real"


# |threshold| >= 0.1: at 0 the bare first-order matrices' zero diagonal
# blocks leave no diagonal pivot, which count_below refuses; the operators
# themselves are counted in the real basis (both in test_eigensolve)
@PROPERTY
@given(op=operators(), size=st.floats(0.1, 8.0), negative=st.booleans())
def test_count_below_matches_eigvalsh(op, size, negative):
    threshold = -size if negative else size
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    assume(np.min(np.abs(lam - threshold)) > 1e-8)
    cert = _sparse_below(op, threshold)
    assert cert["count"] == np.count_nonzero(lam < threshold)
    assert cert["symmetric_order"] is True
    assert cert["shift"] == threshold
    assert cert["arithmetic"] == "real"


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
    assert rep.certificate["arithmetic"] == "real"
    assert_residuals_within(op, rep, 1e-11)


@PROPERTY
@given(op=operators(kinds=("square",)), k=st.integers(1, 3))
def test_lowest_of_square_certifies_in_real_arithmetic(op, k):
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    # the k-th eigenvalue separated from the next, so the count is sharp
    assume(lam[k] - lam[k - 1] > 1e-6 * lam[k])
    rep = lowest_of_square(op, k=k)
    assert np.max(np.abs(rep.eigenvalues - lam[:k])) < 1e-8
    assert rep.certificate["arithmetic"] == "real"
    assert rep.certificate["below"]["arithmetic"] == "real"
    assert_residuals_within(op, rep, 1e-11)


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


@st.composite
def conjugation_cases(draw):
    """(operator, whether C(u1, u2) = (conj u2, conj u1) commutes with it).

    T, H, the square forms and the fibers always commute with C; H_eps does
    exactly when w11 = w22, whether w12 is real or complex (w21 = conj w12
    maps onto itself under C).
    """
    kind = draw(st.sampled_from(["shipped", "fiber", "H_eps"]))
    if kind == "shipped":
        return draw(operators()), True
    params = Params(draw(st.floats(0.5, 2.5)))
    if kind == "fiber":
        op = fiber_operator(draw(st.floats(-2.0, 2.0)), params,
                            draw(st.integers(4, 60)), draw(st.floats(2.0, 20.0)))
        return op, True
    grid = Grid2D(-3.0, 3.0, draw(st.floats(2.0, 6.0)),
                  draw(st.integers(5, 12)), draw(st.integers(4, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (grid.ny, grid.nx)
    symmetric = draw(st.booleans())
    w11 = rng.standard_normal(shape)
    w22 = w11 if symmetric else rng.standard_normal(shape)
    w12 = rng.standard_normal(shape)
    if draw(st.booleans()):
        w12 = w12 + 1j * rng.standard_normal(shape)
    field = PerturbationField(grid, w11, w12, w22)
    return assemble_H_eps(grid, params, field, draw(st.floats(0.1, 2.0))), symmetric


def conjugation_defect(op) -> float:
    """max |C M - M C| entrywise, for C(u1, u2) = (conj u2, conj u1).

    C z = P conj(z), with P the involution that swaps each interior u1 slot
    k with its u2 slot n + k - nx (n = dim - m, m = (dim - nx) / 2) and
    fixes the nx merged edge unknowns, so C M = M C reads P conj(M) P = M.
    """
    layout = op.grid if op.grid is not None else op.ygrid
    m = (op.dim - layout.nx) // 2
    n = op.dim - m
    perm = np.concatenate([np.arange(layout.nx), np.arange(n, op.dim), np.arange(layout.nx, n)])
    swapped = op.matrix.conj()[perm][:, perm]
    return float(abs(swapped - op.matrix).max())


@PROPERTY
@given(case=conjugation_cases())
def test_antiunitary_invariant_is_exact(case):
    op, symmetric = case
    assert op.sym_defect == 0.0
    defect = conjugation_defect(op)
    assert (defect == 0.0) == symmetric
    if not symmetric:
        # w11 != w22 breaks it at the scale of the perturbation, not roundoff
        assert defect > 1e-3


@PROPERTY
@given(case=conjugation_cases())
def test_conjugation_basis_makes_symmetric_operators_real(case):
    op, symmetric = case
    basis = conjugation_basis(op.grid if op.grid is not None else op.ygrid)
    assert abs(basis.conj().T @ basis - np.eye(op.dim)).max() < 1e-15
    rotated = (basis.conj().T @ op.matrix @ basis).toarray()
    assert np.any(rotated.imag) != symmetric
    rep = dense_eigs(op)
    assert rep.certificate["arithmetic"] == ("real" if symmetric else "complex")
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    norm = np.abs(lam).max()
    assert np.max(np.abs(rep.eigenvalues - lam)) <= 1e-10 * max(1.0, norm)
    assert rep.residuals.max() <= 1e-10 * norm


@PROPERTY
@given(case=conjugation_cases(), radius=st.floats(0.05, 4.0), center=CENTERS,
       size=st.floats(0.1, 8.0), negative=st.booleans(),
       sigma=st.floats(-4.0, 4.0), k=st.integers(1, 4))
def test_sparse_routes_run_real_exactly_where_the_symmetry_holds(
    case, radius, center, size, negative, sigma, k
):
    op, symmetric = case
    arithmetic = "real" if symmetric else "complex"
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    threshold = -size if negative else size
    dist = np.sort(np.abs(lam - sigma))
    # the window's edges also stay clear of the shift-invert pairs' residual
    # bound tol ||M||_inf, so "inside" reads the same for pair and eigenvalue
    margin = count_margin(op, radius, center) + 1e-11 * inf_norm(op)
    assume(np.min(np.abs(np.abs(lam - center) - radius)) > margin)
    assume(np.min(np.abs(lam - threshold)) > 1e-8)
    assume(dist[0] > 1e-6 and dist[k] - dist[k - 1] > 1e-6)
    # a threshold on a diagonal entry of the factored matrix leaves an exactly
    # zero diagonal pivot, which count_below refuses (the fibers' real form
    # carries +-(delta + xi^2) on its diagonal)
    work, _ = op.real_form
    assume(np.min(np.abs(work.diagonal() - threshold)) > 1e-8)

    within = count_within(op, radius, center)
    assert within["count"] == np.count_nonzero(np.abs(lam - center) < radius)
    below = count_below(op, threshold)
    assert below["count"] == np.count_nonzero(lam < threshold)
    assert within["arithmetic"] == below["arithmetic"] == arithmetic

    near = nearest_eigenvalues(op, sigma, k=k, tol=1e-11)
    want = np.sort(lam[np.argsort(np.abs(lam - sigma))[:k]])
    assert np.max(np.abs(near.eigenvalues - want)) < 1e-8
    assert near.certificate["arithmetic"] == arithmetic
    assert_residuals_within(op, near, 1e-11)

    # a certified window (lo, hi): its eigvalsh count, and min(k, count)
    # eigenvalues of it, nearest its centre first (the spectra are often
    # symmetric about the centre 0, so compare distances to it)
    lo, hi = center - radius, center + radius
    gap = gap_eigs(op, lo, hi, k=k, tol=1e-11)
    assert gap.certificate["arithmetic"] == arithmetic
    assert gap.certificate["count"] == np.count_nonzero((lo < lam) & (lam < hi))
    assert gap.certificate["count"] == within["count"]
    assert gap.k == min(k, within["count"])
    assert np.all(np.min(np.abs(gap.eigenvalues[:, None] - lam), axis=1) < 1e-8)
    nearest = np.sort(np.abs(lam - center))[:gap.k]
    assert np.max(np.abs(np.sort(np.abs(gap.eigenvalues - center)) - nearest), initial=0.0) < 1e-8
    assert_residuals_within(op, gap, 1e-11)
