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
so the assembled fiber is affine in c, M(c) = M_B + c M_J, over the y
parts of every 2D first-order assembly (assembly.y_parts): FiberFamily
reads and rotates them once per y grid and serves every member.

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
form, whose eigenvalues are +-s_i: _golub_kahan reads the s_i off the
two tridiagonals with O(ny) storage, once per y grid for the fibers
(FiberFamily.golub_kahan) and once per first-order 2D identity, and
block_spectra serves every coupling, block by block, from that solve.
Because the x weights are uniform, the x factor of T and of an x-only H
is the one symmetric matrix Kx + diag(vx); each of its eigenvalues mu
gives a fiber with c = mu + delta, and the union of those fibers is the
exact discrete spectrum (separable_spectrum).  Since sqrt(c^2 + s_i^2)
>= |c|, the unpaired c is also the smallest eigenvalue in size: the
fiber table reads each fiber's min |lambda| as xi^2 + delta, and
scan.free_edge the free 2D edge as delta + lambda_min(Kx), with no solve.

The identity is also a certificate for the 2D assemblies
(separable_identity).  T, an H whose potential does not vary in y and the
square forms each have the form M = kron(P, I) + kron(Q, X) in the reduced
layout (y outer, x inner), the Kronecker sums they are assembled as
(assembly; Horn and Johnson, Topics in Matrix Analysis, 4.4): for the
first-order operators P = M_B, Q = M_J and X = S = Kx + diag(delta +
vx), for the square form P = Y - Y[0, 0] I, Q = I and X = Y[0, 0] I +
S^2, with Y the folded y stiffness.  separable_identity is never handed
those parts: it reads the three off M once and checks them on it: the
defect ||M - kron(P, I) - kron(Q, X)||_inf, what the closed form drops of
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

The square form's eigenpairs are gamma_j + s_i^2 and psi_j (x) phi_i
over the pairs of Y and of S^2 (Lynch, Rice and Thomas, Numer. Math. 6,
185, 1964), the eigenvalues of P and X summed.  Both factors are banded:
in the conjugation basis P splits into two sectors, the edge with the
(e1 + e2)/sqrt(2) columns and the i (e1 - e2)/sqrt(2) columns, each
tridiagonal along y, and X has bandwidth 2.  The identity's count takes
only their eigenvalues; square_form_pairs solves the same sectors and
band for the count lowest pairs of each, the sectors' vectors mapped back
through the basis (the odd sector's columns times -i, a real fold), and
eigensolve.lowest_of_square certifies them on the assembled form.  No
dense eigh runs: a dense factor stores n^2 floats where its band stores a
few n.
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
    _inf_norm,
    _real_rotation,
    conjugation_basis,
    stiffness_x,
    y_parts,
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

    M_B and M_J are the y parts of every 2D first-order assembly
    (assembly.y_parts), read once per family and rotated by one
    conjugation basis U; each member carries (R_B + c R_J, U) as its
    real_form.
    """

    ygrid: YGrid

    @cached_property
    def _parts(self) -> tuple[HermitianOperator, HermitianOperator]:
        """(M_B, M_J), assembled once per family (assembly.y_parts)."""
        return y_parts(self.ygrid)

    @cached_property
    def base(self) -> tuple[HermitianOperator, sp.csr_matrix, sp.csr_matrix]:
        """(M_B, R_B, U): the coupling-free part, its real form and the basis."""
        op, basis = self._parts[0], conjugation_basis(self.ygrid)
        return op, _rotated(op, basis), basis

    @cached_property
    def unit(self) -> tuple[HermitianOperator, sp.csr_matrix]:
        """(M_J, R_J): the unit coupling and its real form in the basis of base."""
        return self._parts[1], _rotated(self._parts[1], self.base[2])

    @cached_property
    def golub_kahan(self) -> tuple[tuple[np.ndarray, bool], ...]:
        """Per decoupled block of R_B, its singular values and whether it
        holds an odd number of nodes (_golub_kahan), once per y grid."""
        return _golub_kahan(self.base[1], self.ygrid.ny)[0]

    def __call__(self, c: float) -> HermitianOperator:
        """The member with coupling c; the momentum fiber at xi has
        c = fiber_edge(xi, params)."""
        if not np.isfinite(c):
            raise ValueError(f"the coupling must be finite, got {c}")
        (b, real_b, basis), (j, real_j) = self.base, self.unit
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


def _golub_kahan(real_b: sp.csr_matrix, ny: int):
    """(per decoupled block: its singular values s and whether it holds
    an odd number of nodes; ||real_b - its path tridiagonals||_inf), for
    the real form real_b of a coupling-free part on ny rows.

    Every member's real form splits into two blocks, each a path: block
    b runs through the rows j = b, ..., ny - 1, starting in the u1 + u2
    sector (real-basis index j) and alternating with the i (u1 - u2)
    sector (index ny + j - 1), since R_B links a row only to its
    neighbours in the other sector and R_J = J0 = diag(I, -I) links
    nothing; block 0 holds the edge.  On its path R_B is a tridiagonal K
    with zero diagonal (the Golub-Kahan form of its part of B) whose
    eigenvalues are +-s, and a 0 if the path is odd; eigvalsh_tridiagonal
    returns them with O(ny) storage.  J0 alternates in sign along the
    path, so it anticommutes with K and (c J0 + K)^2 = c^2 + K^2: the
    block of the fiber with coupling c has the eigenvalues
    +-sqrt(c^2 + s^2), and on an odd path also c J0 = c at its first
    node, where K's null vector lives.  The norm is what the path
    tridiagonals drop of real_b (separable_identity).
    """
    j = np.arange(ny)
    paths = [np.where((j[b:] - b) % 2 == 0, j[b:], ny + j[b:] - 1) for b in (0, 1)]
    parts, off_path = _tridiagonals(real_b, paths, diagonal=False)
    singular = tuple((eigvalsh_tridiagonal(d, e)[d.size - d.size // 2:], d.size % 2 == 1)
                     for d, e in parts)
    return singular, off_path


def fiber_operator(xi: float, params: Params, ny: int, y_max: float) -> HermitianOperator:
    """Exactly Hermitian discretization of one momentum fiber: the member
    of FiberFamily(YGrid(y_max, ny)) with coupling fiber_edge(xi, params)."""
    return FiberFamily(YGrid(float(y_max), int(ny)))(fiber_edge(xi, params))


def block_spectra(couplings, singular) -> list[np.ndarray]:
    """Exact spectra of the fibers with the given couplings, per decoupled
    block, from the blocks' Golub-Kahan singular values (_golub_kahan).

    Entry b is an array whose row i holds, unsorted, the eigenvalues in
    block b of the fiber with coupling couplings[i]: +-sqrt(c^2 + s^2)
    over the block's singular values s, and c itself in the block with an
    odd number of nodes.  No coupling is assembled.
    """
    c = np.asarray(couplings, dtype=np.float64).reshape(-1, 1)
    out = []
    for sigma, odd in singular:
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
    spectra = block_spectra(couplings, FiberFamily(ygrid).golub_kahan)
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

    blocks[b] holds, unsorted, the eigenvalues of block b of the closed
    form N*, in the order of HermitianOperator.blocks; defect is
    ||M - kron(P, I) - kron(Q, X)||_inf; by Weyl's inequality each
    eigenvalue of M, and of each block of its real form, lies within
    margin of its counterpart in blocks.  factors (square forms only)
    keeps what the pairs are solved from, each O(nx + ny): per sector of
    P its tridiagonal and the fold of its columns onto P's unknowns, and
    X's lower band of width 2.
    """

    blocks: tuple[np.ndarray, ...]
    defect: float
    margin: float
    factors: tuple | None = None


def separable_identity(op: HermitianOperator) -> SeparableIdentity | None:
    """The identity spectrum of op checked on its assembled matrix M, or
    None when op does not separate (HermitianOperator.separable is False:
    the fibers, a potential that varies in y, H_eps) or when P or Q does
    not rotate to a real matrix.

    M = kron(P, I) + kron(Q, X) is read off M once: X = M[:nx, :nx], Q =
    M[i::nx, j::nx] / X[i, j] at the off-diagonal entry of X largest in
    size, and P = M[::nx, ::nx] - X[0, 0] Q; P and Q are rotated by the
    y grid's conjugation basis U.  The closed form N* keeps X as its band
    of width 2 and, by the operator's kind:
    - first order: R_P as its Golub-Kahan paths and R_Q as J0 =
      diag(I, -I), so block b of N* is the union of block b of the
      fibers whose couplings are the eigenvalues of X (block_spectra);
    - square form: R_P as the tridiagonals of its two sectors, which are
      the blocks, and R_Q as I; block b holds alpha + x over the
      eigenvalues alpha of sector b and x of X.

    margin = defect + what N* drops (R_P off its paths or sectors, R_Q off
    J0 or I times ||X||_inf, X off its band) + the rounding of the steps
    that lead from M to the spectrum: forming N, rotating P and Q and the
    LAPACK eigenvalue solves, each a backward stable step of order n on an
    input A that errs by at most n eps ||A||_inf (Parlett, The Symmetric
    Eigenvalue Problem, chs. 7-8).  Each term bounds a Hermitian
    difference, whose infinity norm bounds its 2-norm, so margin bounds
    ||M - (U (x) I) N* (U (x) I)^H||_2 and that of every block of the
    difference.
    """
    if not op.separable:
        return None
    m, nx, ny = op.matrix, op.grid.nx, op.grid.ny
    x = m[:nx, :nx]
    # X is Hermitian, so its upper triangle holds every off-diagonal size
    upper = sp.triu(x, 1).tocoo()
    k = np.argmax(np.abs(upper.data))
    q = m[upper.row[k]::nx, upper.col[k]::nx] / upper.data[k]
    p = m[::nx, ::nx] - x[0, 0] * q
    defect = _inf_norm(m - sp.kron(p, sp.identity(nx), format="csr") - sp.kron(q, x, format="csr"))
    basis = conjugation_basis(YGrid(op.grid.y_max, ny))
    real_p, real_q = _real_rotation(p, basis), _real_rotation(q, basis)
    if real_p is None or real_q is None:
        return None
    x_band = np.array([np.pad(x.diagonal(-d).real, (0, d)) for d in range(3)])
    x_vals = eig_banded(x_band, lower=True, eigvals_only=True)
    if op.kind == FIRST_ORDER:
        sign = np.r_[np.ones(ny), -np.ones(ny - 1)]
        singular, off_p = _golub_kahan(real_p, ny)
        blocks = tuple(np.ravel(lam) for lam in block_spectra(x_vals, singular))
        factors = None
    else:
        sign = np.ones(2 * ny - 1)
        sectors = (np.arange(ny), np.arange(ny, 2 * ny - 1))
        parts, off_p = _tridiagonals(real_p, sectors)
        blocks = tuple(np.add.outer(eigvalsh_tridiagonal(d, e), x_vals).ravel() for d, e in parts)
        # the odd sector's columns i (e1 - e2)/sqrt(2), times -i, are real
        fold = (basis @ sp.diags(np.r_[np.ones(ny), np.full(ny - 1, -1j)])).real.tocsc()
        factors = (tuple((d, e, fold[:, idx]) for (d, e), idx in zip(parts, sectors)), x_band)
    norm_x = _inf_norm(x)
    off_q = _inf_norm(real_q - sp.diags(sign)) * norm_x
    off_band = _inf_norm(x - sp.tril(sp.triu(x, -2), 2).real)
    scale = _inf_norm(p) + _inf_norm(q) * norm_x
    rounding = np.finfo(float).eps * ((op.dim + 2 * ny - 1) * scale + nx * norm_x)
    return SeparableIdentity(blocks, defect, defect + off_p + off_q + off_band + rounding, factors)


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

    P = Y - Y[0, 0] I and X = Y[0, 0] I + S^2, so gamma_j + s_i^2 is the
    sum of P's eigenvalue and X's, with the vector psi_j (x) phi_i.  The
    count lowest sums take j among the count lowest of each sector of P
    and i among the count lowest of X, which LAPACK's tridiagonal
    (stebz/stein) and banded (sbevx) drivers select by index: storage
    grows as count (nx + ny), not nx^2 + ny^2.
    """
    sectors, x_band = op.identity.factors
    solves = [eigh_tridiagonal(d, e, select="i", select_range=(0, min(count, d.size) - 1))
              for d, e, _ in sectors]
    gamma = np.concatenate([g for g, _ in solves])
    psi = np.hstack([fold @ z for (_, z), (_, _, fold) in zip(solves, sectors)])
    kx = min(count, x_band.shape[1])
    s2, phi = eig_banded(x_band, lower=True, select="i", select_range=(0, kx - 1))
    sums = np.add.outer(gamma, s2).ravel()
    pick = np.argsort(sums, kind="stable")[:count]
    j, i = np.divmod(pick, kx)
    return sums[pick], (psi[:, None, j] * phi[None, :, i]).reshape(-1, count)
