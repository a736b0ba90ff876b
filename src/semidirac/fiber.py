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

The fiber path never applies potentials: a potential breaks translation
invariance, and nothing here accepts one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .assembly import (
    FIRST_ORDER,
    HermitianOperator,
    YGrid,
    _finish,
    _reduce,
    first_derivative_y,
)
from .lattice import Params


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
