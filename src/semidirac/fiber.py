"""Momentum-fiber reduction of the free half-plane operator.

With V = 0 the operator commutes with x translations, so a Fourier
transform in x turns it into a family of 1D half-line operators

    t(xi) = [[-i d/dy, xi^2 + delta], [xi^2 + delta, i d/dy]]

on y > 0 with the same edge identification u1(0) = u2(0).  Plane waves in
the full plane give the dispersion relation +-sqrt(kappa^2 + (xi^2+delta)^2),
so each fiber's continuum spectrum stays outside (-edge, edge) with
edge = xi^2 + delta, and the union over xi touches the gap exactly at
+-delta.  The discretized fibers below provide an independent prediction
of the 2D spectrum edge at a tiny fraction of the 2D cost.

The discrete fibers have a closed-form spectrum.  In the real basis of
the antiunitary symmetry (HermitianOperator.real_form) a fiber with
coupling c is exactly

    R = [[c I_ny, B], [B^T, -c I_(ny-1)]],

where B, the summation-by-parts derivative in that basis, depends on
neither xi nor delta.  So R^2 = (c^2 + B B^T) (+) (c^2 + B^T B), and the
spectrum is {c} together with +-sqrt(c^2 + s_i^2) over the ny - 1 singular
values s_i of B (Golub and Kahan, SIAM J. Numer. Anal. B 2, 205, 1965):
fiber_spectra computes them once per y grid and serves every coupling
from that one solve.  Because the x weights are uniform, the x factor of
T and of an x-only H is the one symmetric matrix Kx + diag(vx); each of
its eigenvalues mu gives a fiber with c = mu + delta, and the union of
those fibers is the exact discrete spectrum (separable_spectrum).  Since
sqrt(c^2 + s_i^2) >= |c|, the unpaired c is also the smallest eigenvalue
in size: the fiber table reads each fiber's min |lambda| as xi^2 + delta,
and scan.free_edge the free 2D edge as delta + lambda_min(Kx), with no
solve.  The identity is an oracle, not a certificate: the fiber table
certifies each m it reads by Sylvester inertia on the assembled fiber
(cli.cmd_fiber), and the tests hold it against eigvalsh, the inertia
counts of the 2D assemblies and shift-invert at the 2D edge.

The fiber path never applies potentials: a potential breaks translation
invariance, and nothing here accepts one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal, svdvals

from .assembly import (
    FIRST_ORDER,
    HermitianOperator,
    YGrid,
    _finish,
    _reduce,
    first_derivative_y,
    stiffness_x,
)
from .lattice import Grid2D, Params


def dispersion(xi: float, kappa: float, params: Params) -> tuple[float, float]:
    """Plane-wave eigenvalues (lambda_plus, lambda_minus) at momenta (xi, kappa)."""
    edge = xi * xi + params.delta
    lam = float(np.hypot(kappa, edge))
    return lam, -lam


def fiber_edge(xi: float, params: Params) -> float:
    """Analytic spectral edge xi^2 + delta of one fiber."""
    return xi * xi + params.delta


def union_edge(xi_grid, params: Params) -> float:
    """Smallest fiber edge over a momentum grid; the grid must contain 0.

    The minimum of xi^2 + delta sits at xi = 0, so a grid containing 0
    returns exactly delta, the analytic gap edge.
    """
    xs = np.asarray(xi_grid, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("momentum grid is empty")
    if not np.any(xs == 0.0):
        raise ValueError("momentum grid must contain 0 (the edge minimizer)")
    return float(np.min(xs * xs) + params.delta)


def fiber_operator(xi: float, params: Params, ny: int, y_max: float) -> HermitianOperator:
    """Exactly Hermitian discretization of one momentum fiber.

    Same ingredients as the 2D assembly: summation-by-parts first
    derivative in y, edge identification u1(0) = u2(0) folding the
    spinor into 2*ny - 1 unknowns, Dirichlet wall at y_max, and the
    symmetric weight rescaling.  The off-diagonal coupling is the
    constant xi^2 + delta.
    """
    if not np.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    if ny < 4:
        raise ValueError(f"ny must be at least 4, got {ny}")
    ygrid = YGrid(float(y_max), int(ny))
    dmat, omega = first_derivative_y(ny, ygrid.hy)
    womega = sp.diags(omega)
    a11 = (-1j * (womega @ dmat)).tocsr()
    a22 = a11.conj().tocsr()
    coupling = fiber_edge(xi, params)
    a12 = (coupling * womega).tocsr()

    M, w_red = _reduce(ygrid, a11, a12, a12, a22)
    return _finish(M, FIRST_ORDER, w_red, params, grid=None, ygrid=ygrid)


def fiber_spectra(couplings, ygrid: YGrid) -> np.ndarray:
    """Exact spectra of the fibers with the given couplings on one y grid.

    Row i holds the 2 ny - 1 eigenvalues, ascending, of the fiber whose
    coupling (xi^2 + delta for a momentum fiber) is couplings[i]:
    {c} and +-sqrt(c^2 + s^2) over the singular values s of the
    derivative block B (module docstring).  B is read off one assembled
    fiber, since it does not depend on the coupling.
    """
    c = np.asarray(couplings, dtype=np.float64).reshape(-1, 1)
    op = fiber_operator(0.0, Params(1.0), ygrid.ny, ygrid.y_max)
    real, basis = op.real_form
    if basis is None:
        raise ValueError("the fiber did not rotate to a real matrix; B cannot be read off")
    s = svdvals(real[: ygrid.ny, ygrid.ny :].toarray())
    root = np.hypot(c, s)
    return np.sort(np.hstack([-root, c, root]), axis=1)


def separable_spectrum(grid: Grid2D, params: Params, vx=None) -> np.ndarray:
    """Exact ascending spectrum of T, or of H with x-only potential samples vx.

    The union of the fibers whose couplings are mu + delta over the
    eigenvalues mu of Kx + diag(vx) (module docstring); it holds because
    the x weights are uniform.
    """
    kx = stiffness_x(grid.nx, grid.hx)
    main = kx.diagonal() + (0.0 if vx is None else np.asarray(vx, dtype=np.float64))
    mu = eigvalsh_tridiagonal(main, kx.diagonal(1))
    return np.sort(fiber_spectra(mu + params.delta, YGrid(grid.y_max, grid.ny)), axis=None)
