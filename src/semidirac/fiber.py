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
Kahan, SIAM J. Numer. Anal. B 2, 205, 1965).  R splits into two
decoupled blocks, each a path, and on each path the
coupling-free part is a tridiagonal with zero diagonal, the Golub-Kahan
form, whose eigenvalues are +-s_i: FiberFamily.golub_kahan reads the s_i
off the two tridiagonals with O(ny) storage, once per y grid, and
block_spectra serves every coupling, block by block, from that solve.
Because the x weights are uniform, the x factor of T and of an x-only H
is the one symmetric matrix Kx + diag(vx); each of its eigenvalues mu
gives a fiber with c = mu + delta, and the union of those fibers is the
exact discrete spectrum (separable_spectrum).  Since sqrt(c^2 + s_i^2)
>= |c|, the unpaired c is also the smallest eigenvalue in size: the
fiber table reads each fiber's min |lambda| as xi^2 + delta, and
scan.free_edge the free 2D edge as delta + lambda_min(Kx), with no solve.

The identity is also a certificate for the 2D assemblies
(separable_identity): N = kron(M_B, I) + kron(M_J, S), S = Kx +
diag(delta + vx), is rebuilt from the family and compared with the
assembled M, and the defect ||M - N||_inf, what the closed form drops of
the rotated parts and the rounding of each step give a margin; by
Weyl's inequality (Horn and Johnson, Matrix Analysis, 4.3) no eigenvalue
of M lies farther than that margin from its identity counterpart, so
eigensolve.count_within and count_below read a count off the identity
spectrum wherever no identity eigenvalue lies within the margin of an
edge.  For the fibers themselves it stays an oracle: the fiber table
certifies each m it reads by Sylvester inertia on the assembled family
member (scan.fiber_table), which is the check of the identity and so
is never certified by it.  The tests hold the identity's counts against
eigvalsh on grids of up to 15 x 9 nodes, against the sparse inertia
counts of the 2D assemblies up to 60 x 30 and on a Gaussian well at
161 x 81 and 321 x 161, and its free edge against shift-invert there.

The square form separates the same way: in the reduced layout (y outer,
x inner) it is exactly Y (x) I + I (x) S^2, with S = Kx + diag(delta + vx)
and Y the weight-scaled forward-difference y stiffness folded onto the
2 ny - 1 edge-identified unknowns.  Its eigenpairs are gamma_j + s_i^2 and
psi_j (x) phi_i (Horn and Johnson, Topics in Matrix Analysis, 4.4; Lynch,
Rice and Thomas, Numer. Math. 6, 185, 1964).  Both factors are banded,
and separable_identity reads them off M once: in the conjugation basis Y
splits into two sectors, the edge with the (e1 + e2)/sqrt(2) columns and
the i (e1 - e2)/sqrt(2) columns, each tridiagonal along y, and S^2 has
bandwidth 2.  The identity's count takes only their eigenvalues;
square_form_pairs solves the same sectors and band for the count lowest
pairs of each, the sectors' vectors mapped back through the basis (the
odd sector's columns times -i, a real fold), and
eigensolve.lowest_of_square certifies them on the assembled form.  No
dense eigh runs: even a 101-node factor enters OpenBLAS's threaded
kernels, whose idle worker then spins for about 20 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eig_banded, eigh_tridiagonal, eigvalsh_tridiagonal

from .assembly import (
    FIRST_ORDER,
    HermitianOperator,
    YGrid,
    _finish,
    _inf_norm,
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
        basis = conjugation_basis(self.ygrid)
        return op, _rotated(op, basis), basis

    @cached_property
    def unit(self) -> tuple[HermitianOperator, sp.csr_matrix]:
        """(M_J, R_J): the unit coupling and its real form in the basis of base."""
        ny = self.ygrid.ny
        op = self._assemble(sp.csr_matrix((ny, ny)), sp.diags(self.ygrid.node_weights().ravel()))
        return op, _rotated(op, self.base[2])

    @cached_property
    def golub_kahan(self) -> tuple[tuple[tuple[np.ndarray, bool], ...], float]:
        """(per decoupled block: its singular values s and whether it holds
        an odd number of nodes; ||R_B - its path tridiagonals||_inf).

        Every member's real form splits into two blocks, each a path: block
        b runs through the rows j = b, ..., ny - 1, starting in the u1 + u2
        sector (real-basis index j) and alternating with the i (u1 - u2)
        sector (index ny + j - 1), since R_B links a row only to its
        neighbours in the other sector and R_J = J0 = diag(I, -I) links
        nothing; block 0 holds the edge.  On its path R_B is a tridiagonal K with zero
        diagonal (the Golub-Kahan form of its part of B) whose eigenvalues
        are +-s, and a 0 if the path is odd; eigvalsh_tridiagonal returns
        them with O(ny) storage.  J0 alternates in sign along the path, so
        it anticommutes with K and (c J0 + K)^2 = c^2 + K^2: the block of
        the fiber with coupling c has the eigenvalues +-sqrt(c^2 + s^2),
        and on an odd path also c J0 = c at its first node, where K's null
        vector lives.  The norm is what the path tridiagonals drop of R_B
        (separable_identity).
        """
        ny = self.ygrid.ny
        j = np.arange(ny)
        paths = [np.where((j[b:] - b) % 2 == 0, j[b:], ny + j[b:] - 1) for b in (0, 1)]
        parts, off_path = _tridiagonals(self.base[1], paths, diagonal=False)
        singular = tuple((eigvalsh_tridiagonal(d, e)[d.size - d.size // 2:], d.size % 2 == 1)
                         for d, e in parts)
        return singular, off_path

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


def block_spectra(couplings, family: FiberFamily) -> list[np.ndarray]:
    """Exact spectra of the family's fibers with the given couplings, per
    decoupled block (FiberFamily.golub_kahan).

    Entry b is an array whose row i holds, unsorted, the eigenvalues in
    block b of the fiber with coupling couplings[i]: +-sqrt(c^2 + s^2)
    over the block's Golub-Kahan singular values s, and c itself in the
    block with an odd number of nodes (FiberFamily.golub_kahan).  No
    coupling is assembled.
    """
    c = np.asarray(couplings, dtype=np.float64).reshape(-1, 1)
    out = []
    for sigma, odd in family.golub_kahan[0]:
        root = np.hypot(c, sigma)
        out.append(np.hstack([-root, c, root] if odd else [-root, root]))
    return out


def fiber_spectra(couplings, ygrid: YGrid) -> np.ndarray:
    """Exact spectra of the fibers with the given couplings on one y grid.

    Row i holds the 2 ny - 1 eigenvalues, ascending, of the fiber whose
    coupling (xi^2 + delta for a momentum fiber) is couplings[i]:
    {c} and +-sqrt(c^2 + s^2) over the singular values s of the
    derivative block B (module docstring), the blocks of block_spectra
    joined.
    """
    spectra = block_spectra(couplings, FiberFamily(Params(1.0), ygrid))
    return np.sort(np.hstack(spectra), axis=1)


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


@dataclass(frozen=True)
class SeparableIdentity:
    """The exact identity spectrum of an assembled separable operator, per
    decoupled block, and how far the operator may lie from it
    (separable_identity).

    blocks[b] holds, unsorted, the eigenvalues of block b of the identity
    matrix N*, in the order of HermitianOperator.blocks; defect is
    ||M - N||_inf for the rebuilt N; by Weyl's inequality each eigenvalue
    of M, and of each block of its real form, lies within margin of its
    counterpart in blocks.  factors (square forms only) keeps what the
    pairs are solved from, each O(nx + ny): per sector of Y its tridiagonal
    and the fold of its columns onto A's unknowns, X's lower band of width
    2 and M[0, 0].
    """

    blocks: tuple[np.ndarray, ...]
    defect: float
    margin: float
    factors: tuple | None = None


def separable_identity(op: HermitianOperator) -> SeparableIdentity | None:
    """The identity spectrum of op checked on its assembled matrix M, or
    None when op does not separate: no 2-d grid (the fibers), or a
    first-order operator without x_diag (a potential that varies in y,
    H_eps).

    First order: N = kron(M_B, I) + kron(M_J, S), with M_B and M_J from
    the FiberFamily of op's y grid and S = Kx + diag(op.x_diag).  N* takes
    the fibers' real forms as the closed form has them, R_B as its path
    tridiagonals and R_J as J0 = diag(I, -I), so block b of N* is the
    union of block b of the fibers whose couplings are the eigenvalues of
    S (block_spectra).  Square form: N = kron(A, I) + kron(I, X) - M[0, 0] I
    with A = M[::nx, ::nx] and X = M[:nx, :nx], read off M once.  N* takes
    the real form of A as the tridiagonals of its two sectors, which are
    the blocks, and X as its band of width 2; block b holds
    alpha + x - M[0, 0] over the eigenvalues alpha of sector b and x of X;
    None if A does not rotate to a real matrix.

    margin = defect + what N* drops from N's parts (||R_J - J0||_inf
    scaled by ||S||_inf) + the rounding of the steps that lead from M to
    the spectrum: forming N, rotating the parts and the LAPACK eigenvalue
    solves, each a backward stable step of order n on an input A that
    errs by at most n eps ||A||_inf (Parlett, The Symmetric Eigenvalue
    Problem, chs. 7-8).  Each term bounds a Hermitian difference, whose
    infinity norm bounds its 2-norm, so margin bounds ||M - U N* U^H||_2
    (U the conjugation basis) and that of every block of the difference.
    """
    if op.grid is None:
        return None
    if op.kind == FIRST_ORDER:
        return None if op.x_diag is None else _first_order_identity(op)
    return _square_form_identity(op)


def _first_order_identity(op: HermitianOperator) -> SeparableIdentity:
    grid, ny = op.grid, op.grid.ny
    family = FiberFamily(Params(1.0), YGrid(grid.y_max, ny))
    m_b, m_j, real_j = family.base[0].matrix, family.unit[0].matrix, family.unit[1]
    off_j0 = _inf_norm(real_j - sp.diags(np.r_[np.ones(ny), -np.ones(ny - 1)]))
    s = (stiffness_x(grid.nx, grid.hx) + sp.diags(op.x_diag)).tocsr()
    rebuilt = sp.kron(m_b, sp.identity(grid.nx), format="csr") + sp.kron(m_j, s, format="csr")
    defect = _inf_norm(op.matrix - rebuilt)
    norm_b, norm_j, norm_s = _inf_norm(m_b), _inf_norm(m_j), _inf_norm(s)
    rounding = np.finfo(float).eps * (op.dim * (norm_b + norm_j * norm_s)
                                      + grid.nx * norm_s + (2 * ny - 1) * norm_b)
    couplings = eigvalsh_tridiagonal(s.diagonal(), s.diagonal(1))
    return SeparableIdentity(tuple(np.ravel(lam) for lam in block_spectra(couplings, family)),
                             defect, defect + family.golub_kahan[1] + off_j0 * norm_s + rounding)


def _square_form_identity(op: HermitianOperator) -> SeparableIdentity | None:
    m, nx, ny = op.matrix, op.grid.nx, op.grid.ny
    a, x, corner = m[::nx, ::nx], m[:nx, :nx], float(m[0, 0])
    rebuilt = (sp.kron(a, sp.identity(nx), format="csr")
               + sp.kron(sp.identity(2 * ny - 1), x) - corner * sp.identity(op.dim))
    defect = _inf_norm(m - rebuilt)
    basis = conjugation_basis(YGrid(op.grid.y_max, ny))
    real_a = _real_rotation(a, basis)
    if real_a is None:
        return None
    sectors = (np.arange(ny), np.arange(ny, 2 * ny - 1))
    parts, off_sectors = _tridiagonals(real_a, sectors)
    x_band = np.array([np.pad(x.diagonal(-d), (0, d)) for d in range(3)])
    off_band = _inf_norm(x - sp.tril(sp.triu(x, -2), 2))
    x_vals = eig_banded(x_band, lower=True, eigvals_only=True)
    norm_a, norm_x = _inf_norm(a), _inf_norm(x)
    rounding = np.finfo(float).eps * (op.dim * (norm_a + norm_x + abs(corner))
                                      + (2 * ny - 1) * norm_a + nx * norm_x)
    blocks = tuple(np.add.outer(eigvalsh_tridiagonal(d, e), x_vals - corner).ravel()
                   for d, e in parts)
    # the odd sector's columns i (e1 - e2)/sqrt(2), times -i, are real
    fold = (basis @ sp.diags(np.r_[np.ones(ny), np.full(ny - 1, -1j)])).real.tocsc()
    factors = (tuple((d, e, fold[:, idx]) for (d, e), idx in zip(parts, sectors)), x_band, corner)
    return SeparableIdentity(blocks, defect, defect + off_sectors + off_band + rounding, factors)


def _tridiagonals(a: sp.csr_matrix, paths, diagonal: bool = True):
    """a's tridiagonal along each node path, as (diagonal, off-diagonal)
    pairs (the diagonals zero unless diagonal), and ||a - those
    tridiagonals||_inf: what a solve along the paths drops of a."""
    parts, rows, cols, vals = [], [], [], []
    for p in paths:
        d = np.asarray(a[p, p]).ravel() if diagonal else np.zeros(p.size)
        e = np.asarray(a[p[:-1], p[1:]]).ravel()
        parts.append((d, e))
        rows += [p, p[:-1], p[1:]]
        cols += [p, p[1:], p[:-1]]
        vals += [d, e, e]
    kept = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=a.shape)
    return parts, _inf_norm(a - kept)


def square_form_pairs(op: HermitianOperator, count: int):
    """The count lowest eigenpairs of an assembled square form, ascending,
    solved from the factors its identity kept (op.identity; module docstring).

    M[::nx, ::nx] = Y + S^2[0, 0] I and M[:nx, :nx] = Y[0, 0] I + S^2, so
    gamma_j + s_i^2 is the sum of Y's eigenvalue and X's less M[0, 0], with
    the vector psi_j (x) phi_i.  The count lowest sums take j among the
    count lowest of each sector of Y and i among the count lowest of X,
    which LAPACK's tridiagonal (stebz/stein) and banded (sbevx) drivers
    select by index: storage grows as count (nx + ny), not nx^2 + ny^2.
    """
    sectors, x_band, corner = op.identity.factors
    solves = [eigh_tridiagonal(d, e, select="i", select_range=(0, min(count, d.size) - 1))
              for d, e, _ in sectors]
    gamma = np.concatenate([g for g, _ in solves])
    psi = np.hstack([fold @ z for (_, z), (_, _, fold) in zip(solves, sectors)])
    kx = min(count, x_band.shape[1])
    s2, phi = eig_banded(x_band, lower=True, select="i", select_range=(0, kx - 1))
    sums = np.add.outer(gamma, s2 - corner).ravel()
    pick = np.argsort(sums, kind="stable")[:count]
    j, i = np.divmod(pick, kx)
    return sums[pick], (psi[:, None, j] * phi[None, :, i]).reshape(-1, count)

