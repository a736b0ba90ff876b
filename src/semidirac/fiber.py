"""Separable reductions: momentum fibers, and the square form as a Kronecker sum.

With V = 0 the operator commutes with x translations, so a Fourier
transform in x turns it into a family of 1D half-line operators

    t(xi) = [[-i d/dy, xi^2 + delta], [xi^2 + delta, i d/dy]]

on y > 0 with the same edge identification u1(0) = u2(0).  Plane waves in
the full plane give the dispersion relation +-sqrt(kappa^2 + (xi^2+delta)^2),
so each fiber's continuum spectrum stays outside (-edge, edge) with
edge = xi^2 + delta, and the union over xi touches the gap exactly at
+-delta.  The discretized fibers below provide an independent prediction
of the 2D spectrum edge at a tiny fraction of the 2D cost.  Every fiber
is the same y operator with only the coupling c = xi^2 + delta changed,
so the assembled fiber is affine in c, M(c) = M_B + c M_J: FiberFamily
assembles and rotates the two parts once per y grid and serves every
member from them.

The discrete fibers have a closed-form spectrum.  In the real basis of
the antiunitary symmetry (HermitianOperator.real_form) a fiber with
coupling c is exactly

    R = [[c I_ny, B], [B^T, -c I_(ny-1)]],

where B, the summation-by-parts derivative in that basis (the
off-diagonal block of R_B), depends on neither xi nor delta.  So R^2 =
(c^2 + B B^T) (+) (c^2 + B^T B), and the spectrum is {c} together with
+-sqrt(c^2 + s_i^2) over the ny - 1 singular values s_i of B (Golub and
Kahan, SIAM J. Numer. Anal. B 2, 205, 1965): fiber_spectra computes them
once per y grid and serves every coupling from that one solve.  Because
the x weights are uniform, the x factor of T and of an x-only H is the
one symmetric matrix Kx + diag(vx); each of its eigenvalues mu gives a
fiber with c = mu + delta, and the union of those fibers is the exact
discrete spectrum (separable_spectrum).  Since sqrt(c^2 + s_i^2) >= |c|,
the unpaired c is also the smallest eigenvalue in size: the fiber table
reads each fiber's min |lambda| as xi^2 + delta, and scan.free_edge the
free 2D edge as delta + lambda_min(Kx), with no solve.  The identity is
an oracle, not a certificate: the fiber table certifies each m it reads
by Sylvester inertia on the assembled family member (scan.fiber_table), and
the tests hold it against eigvalsh, the inertia counts of the 2D
assemblies and shift-invert at the 2D edge.

The square form separates the same way: in the reduced layout (y outer,
x inner) it is exactly Y (x) I + I (x) S^2, with S = Kx + diag(delta + vx)
and Y the weight-scaled forward-difference y stiffness folded onto the
2 ny - 1 edge-identified unknowns.  Its eigenpairs are gamma_j + s_i^2 and
psi_j (x) phi_i (Horn and Johnson, Topics in Matrix Analysis, 4.4; Lynch,
Rice and Thomas, Numer. Math. 6, 185, 1964): square_form_pairs reads them,
and eigensolve.lowest_of_square certifies them on the assembled form.
Both factors are banded.  Unfolded into the order u2 rows ny-1..1, the
edge, u1 rows 1..ny-1, Y is the stiffness of one path through the edge,
so it is tridiagonal; S is tridiagonal, so S^2 has bandwidth 2.  LAPACK's
tridiagonal (stebz/stein) and banded (sbevx) drivers return only the
count lowest pairs of each.  A dense eigh of even a 101-node factor
enters OpenBLAS's threaded kernels, whose idle worker then spins for
about 20 ms, so on two cores a dense route cost up to twice its wall
time in CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eig_banded, eigh_tridiagonal, eigvalsh_tridiagonal, svdvals

from .assembly import (
    FIRST_ORDER,
    HermitianOperator,
    YGrid,
    _finish,
    _real_rotation,
    _reduce,
    conjugation_basis,
    first_derivative_y,
    stiffness_x,
)
from .lattice import Grid2D, Params


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


@dataclass(frozen=True)
class FiberFamily:
    """The momentum fibers on one y grid, M(c) = M_B + c M_J (module docstring).

    Same ingredients as the 2D assembly: summation-by-parts first
    derivative in y, edge identification u1(0) = u2(0) folding the
    spinor into 2*ny - 1 unknowns, Dirichlet wall at y_max, and the
    symmetric weight rescaling.  The coupling-free part M_B and the unit
    coupling M_J are each assembled once and rotated by one conjugation
    basis U; each member carries (R_B + c R_J, U) as its real_form.
    """

    params: Params
    ygrid: YGrid

    def _assemble(self, a11, a12) -> HermitianOperator:
        m, w_red = _reduce(self.ygrid, a11, a12, a12, a11.conj().tocsr())
        return _finish(m, FIRST_ORDER, w_red, ygrid=self.ygrid)

    @cached_property
    def base(self) -> tuple[HermitianOperator, sp.csr_matrix, sp.csr_matrix]:
        """(M_B, R_B, U): the coupling-free part, its real form and the basis."""
        dmat, omega = first_derivative_y(self.ygrid.ny, self.ygrid.hy)
        op = self._assemble((-1j * (sp.diags(omega) @ dmat)).tocsr(), sp.csr_matrix(dmat.shape))
        basis = conjugation_basis(op)
        return op, _rotated(op, basis), basis

    @cached_property
    def unit(self) -> tuple[HermitianOperator, sp.csr_matrix]:
        """(M_J, R_J): the unit coupling and its real form in the basis of base."""
        ny = self.ygrid.ny
        op = self._assemble(sp.csr_matrix((ny, ny)), sp.diags(self.ygrid.node_weights().ravel()))
        return op, _rotated(op, self.base[2])

    def __call__(self, xi: float) -> HermitianOperator:
        """The fiber at momentum xi; its coupling is fiber_edge(xi, params)."""
        if not np.isfinite(xi):
            raise ValueError(f"xi must be finite, got {xi}")
        (b, real_b, basis), (j, real_j) = self.base, self.unit
        c = fiber_edge(xi, self.params)
        # a real multiple of one exactly Hermitian matrix added to another
        # is exactly Hermitian; the discarded defects are those of the parts
        op = HermitianOperator(b.matrix + c * j.matrix, FIRST_ORDER, b.weights,
                               max(b.sym_defect, j.sym_defect), ygrid=self.ygrid)
        object.__setattr__(op, "real_form", (real_b + c * real_j, basis))
        return op


def _rotated(op: HermitianOperator, basis: sp.csr_matrix) -> sp.csr_matrix:
    """The real rotation of op (assembly._real_rotation), refused where
    it is not real."""
    real = _real_rotation(op.matrix, basis)
    if real is None:
        raise ValueError("the fiber family did not rotate to a real matrix")
    return real


def fiber_operator(xi: float, params: Params, ny: int, y_max: float) -> HermitianOperator:
    """Exactly Hermitian discretization of one momentum fiber: the member
    of FiberFamily(params, YGrid(y_max, ny)) at xi."""
    return FiberFamily(params, YGrid(float(y_max), int(ny)))(xi)


def fiber_spectra(couplings, ygrid: YGrid) -> np.ndarray:
    """Exact spectra of the fibers with the given couplings on one y grid.

    Row i holds the 2 ny - 1 eigenvalues, ascending, of the fiber whose
    coupling (xi^2 + delta for a momentum fiber) is couplings[i]:
    {c} and +-sqrt(c^2 + s^2) over the singular values s of the
    derivative block B (module docstring), read off the coupling-free
    real form R_B of the family, so no coupling is assembled.
    """
    c = np.asarray(couplings, dtype=np.float64).reshape(-1, 1)
    real = FiberFamily(Params(1.0), ygrid).base[1]
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


def square_form_pairs(op: HermitianOperator, count: int):
    """The count lowest eigenpairs of an assembled square form, ascending,
    from its Kronecker-sum identity (module docstring).

    Both factors are read off M: M[::nx, ::nx] = Y + S^2[0, 0] I and
    M[:nx, :nx] = Y[0, 0] I + S^2, so gamma_j + s_i^2 is the sum of their
    eigenvalues less M[0, 0].  The count lowest sums take j and i among
    the count lowest of each factor, which LAPACK selects by index: Y
    unfolded onto its path (u2 rows ny-1..1, the edge, u1 rows 1..ny-1) is
    tridiagonal (eigh_tridiagonal) and S^2 has bandwidth 2 (eig_banded).
    A factor storing an entry off its band raises ValueError.
    """
    m, nx, ny = op.matrix, op.grid.nx, op.grid.ny
    path = np.r_[np.arange(2 * ny - 2, ny - 1, -1), np.arange(ny)]
    y = _band(m[::nx, ::nx][path][:, path], 1, "y factor")
    x = _band(m[:nx, :nx], 2, "x factor")
    ky, kx = min(count, 2 * ny - 1), min(count, nx)
    gamma, psi_path = eigh_tridiagonal(y[0], y[1][:-1], select="i", select_range=(0, ky - 1))
    psi = psi_path[np.argsort(path)]
    s2, phi = eig_banded(x, lower=True, select="i", select_range=(0, kx - 1))
    sums = np.add.outer(gamma, s2 - m[0, 0]).ravel()
    pick = np.argsort(sums, kind="stable")[:count]
    j, i = np.divmod(pick, kx)
    return sums[pick], (psi[:, None, j] * phi[None, :, i]).reshape(-1, count)


def _band(a: sp.csr_matrix, width: int, name: str) -> np.ndarray:
    """Lower band storage of the symmetric a, refused if a stores an entry
    more than width off its diagonal (it would be dropped)."""
    coo = a.tocoo()
    if np.any(np.abs(coo.row - coo.col) > width):
        raise ValueError(f"the square form's {name} stores an entry off its band of width {width}")
    return np.array([np.pad(a.diagonal(-d), (0, d)) for d in range(width + 1)])
