"""Eigensolvers and localization diagnostics.

Every route reads one HermitianOperator (a bare matrix is wrapped once,
_operator) and its cached real_form, blocks and identity, runs in real
arithmetic wherever the antiunitary symmetry makes the rotated matrix
real (certificate["arithmetic"]), and every sparse route factors a
shifted matrix with SuperLU (scipy.sparse.linalg.splu) and nothing else,
always in the symmetric minimum-degree order (MMD on A + A^T):

* ``dense_eigs``: full spectrum through LAPACK, the oracle route for
  cross-checking the sparse routes on small problems; every reported pair
  is re-verified by an explicit matrix-vector product.
* ``count_within`` / ``count_below``: certified counts of a window
  (center - r, center + r) or below a threshold, by one of two routes,
  named in the certificate ("route"):
  - "identity", for the operators that separate (T, an H whose potential
    does not vary in y, the square forms): the count is read off the
    exact spectrum of the identity M = kron(P, I) + kron(Q, X), whose
    factors are read off the assembled matrix and checked on it
    (fiber.separable_identity, cached as HermitianOperator.identity);
    by Weyl's inequality it is certified when no identity eigenvalue lies
    within the margin, the defect plus the structural and rounding terms,
    of a window edge.  The certificate carries the defect and the margin.
    Nothing is factored, and the operator's real form and blocks are not
    built;
  - "inertia", for everything else (a box well, H_eps, the fibers, bare
    matrices) and for a separable operator whose identity eigenvalue
    lies within the margin of an edge: the pivot signs of a
    diagonal-pivoted sparse LU in that order (Sylvester inertia), of
    (R - center I)^2 - r^2 I or of R - threshold I, one decoupled
    diagonal block of the real form at a time
    (HermitianOperator.blocks): the inertia of a block-diagonal matrix is
    the sum of its blocks', and only one block's factor is alive at once.
    The certificate carries its evidence: the symmetric pivot order, the
    smallest pivot, the growth max|L|, the fill and the shift that was
    factored.  A singular factor or a broken symmetric order in any block
    raises ConvergenceError; the shift is never moved.
  Either route gives the per-block counts (block_counts).
* ``gap_eigs`` / ``nearest_eigenvalues``: ARPACK shift-invert
  (scipy.sparse.linalg.eigsh) whose inverse is the LU solve of R - sigma I,
  counted against a max_iter budget of solves.  This factor shares the
  counts' order but not their diagonal pivots: SuperLU's threshold
  pivoting stays on, and the certificate records its fill (solve_fill).
  Every returned pair is re-checked as ||M x - lambda x|| <= tol * ||M||_inf.
  gap_eigs first certifies its window's count with count_within centred on
  the window, whatever the window; nearest_eigenvalues is uncertified.
* ``lowest_of_square``: the bottom of a square form, selected from the
  factor solves of its Kronecker-sum identity (fiber.square_form_pairs,
  no dense eigensolver), certified by one ``count_below`` read off the
  same identity wherever that is certified.

``bottom_above_gap_square`` judges its bottom's residual enclosure.

Determinism: all randomized starts come from a caller-seeded generator,
matrix-vector products are sequential, and eigenvector phases are fixed so
the first significant component is real positive.  numpy and scipy each
bundle their own OpenBLAS with its own thread pool.  SuperLU, ARPACK and
scipy's banded LAPACK calls run on scipy's, which this module sets to one
thread at import (_pin_scipy_blas): a second thread there gains no wall
time and spins a second core, and its threaded sums make the shift-invert
eigenvalues depend on the thread count in their last bits.  numpy's pool,
which ``dense_eigs`` runs on, keeps its threads, so the dense oracle's
last bits still depend on them.  A scipy that does not bundle
``scipy.libs/libscipy_openblas*.so`` (one not installed from the wheel)
is left as it is.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .assembly import SQUARE_FORM, HermitianOperator, _inf_norm, edge_embedding
from .fiber import square_form_pairs

DENSE_CAP_DEFAULT = 4000


def _pin_scipy_blas() -> None:
    """Set scipy's bundled OpenBLAS, already loaded by scipy.sparse.linalg,
    to one thread; do nothing where scipy bundles none."""
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    for lib in libs.glob("libscipy_openblas*.so"):
        set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads", None)
        if set_threads is not None:
            set_threads(1)


_pin_scipy_blas()


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the iteration history."""

    def __init__(self, message: str, history=()):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenpairs plus the diagnostics the bench reports alongside them.

    eigenvalues are ascending; eigenvectors[:, i] is unit, phase-fixed and
    re-verified so residuals[i] = ||M v - lambda v||.  certificate is a
    plain dict (json-friendly); gap_eigs puts its window's certified
    inertia count there.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    participation: np.ndarray
    y_decay: np.ndarray
    method: str
    certificate: dict | None = None

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]


def _operator(op) -> HermitianOperator:
    """op itself, or a bare sparse or dense matrix wrapped as a HermitianOperator
    with no layout (so its real_form is M, with no blocks and no identity),
    promoted to at least double precision so the solves run in float64 or
    complex128 whatever the caller's dtype.
    """
    if isinstance(op, HermitianOperator):
        return op
    if sp.issparse(op):
        m = op.tocsr()
    else:
        m = np.asarray(op)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        m = sp.csr_matrix(m)
    m = m.astype(np.result_type(m.dtype, np.float64), copy=False)
    return HermitianOperator(m, "matrix", np.ones(m.shape[0]), 0.0)


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each nonzero column so its first significant entry is real positive."""
    out = np.array(vecs, dtype=np.complex128, copy=True)
    mags = np.abs(out)
    top = mags.max(axis=0, initial=0.0)
    live = top > 0.0
    j, cols = np.argmax(mags > 1e-12 * top, axis=0)[live], np.flatnonzero(live)
    rotate = np.ones(out.shape[1], dtype=np.complex128)
    rotate[cols] = np.conj(out[j, cols]) / mags[j, cols]
    out *= rotate
    return out


def participation_ratio(v: np.ndarray):
    """Inverse participation measure in (0, 1]; 1 for a flat vector, NaN for zero.

    v is one vector (gives a float) or a 2-d array of columns (one each).
    """
    v = np.asarray(v)
    p2 = np.abs(v[:, None] if v.ndim == 1 else v) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        p2 = p2 / p2.sum(axis=0)
        pr = 1.0 / (p2.shape[0] * np.sum(p2 * p2, axis=0))
    return float(pr[0]) if v.ndim == 1 else pr


def y_decay_rate(op: HermitianOperator | None, v: np.ndarray):
    """Slope of log row mass against y over the outer half of the domain.

    Negative for states that decay away from the edge; near zero for
    delocalized ones.  v is one vector (gives a float) or a 2-d array of
    columns (one each).  The least-squares slope runs over the rows whose
    mass exceeds 1e-20 of the column's peak row mass: computed eigenvector
    entries carry absolute errors of order eps ||M|| / gap, so rows below
    amplitude 1e-10 of the peak are rounding noise (1e-27 to 1e-34 of the
    peak off a sublattice state), whose logs would decide the slope's sign.
    NaN when the operator carries no y layout or fewer than 2 rows survive.
    """
    v = np.asarray(v)
    cols = v[:, None] if v.ndim == 1 else v
    layout = None if op is None else op.grid if op.grid is not None else op.ygrid
    slope = np.full(cols.shape[1], np.nan)
    if layout is not None:
        # each row of E holds a single 1, so |E v|^2 = E |v|^2
        full = edge_embedding(layout)[0] @ (np.abs(cols) ** 2 / op.weights[:, None])
        mass = full.reshape(2, layout.ny, layout.nx, cols.shape[1]).sum(axis=(0, 2))
        floor = 1e-20 * mass.max(axis=0, initial=0.0)
        y = layout.y()
        sel = y >= 0.5 * y[-1]
        y, mass = y[sel][:, None], mass[sel]
        ok = mass > floor
        count = ok.sum(axis=0)
        # fewer than 2 surviving rows leave dy == 0, so the slope is 0/0 = NaN
        with np.errstate(invalid="ignore", divide="ignore"):
            logm = np.log(np.where(ok, mass, 1.0))
            dy = np.where(ok, y - (ok * y).sum(axis=0) / count, 0.0)
            dl = logm - logm.sum(axis=0) / count
            slope = (dy * dl).sum(axis=0) / (dy * dy).sum(axis=0)
    return float(slope[0]) if v.ndim == 1 else slope


def _build_report(op, vals, vecs, method, certificate=None):
    order = np.argsort(vals)
    vals = np.asarray(vals, dtype=np.float64)[order]
    vecs = _fix_phase(np.asarray(vecs)[:, order])
    mv = op.matrix @ vecs
    mv -= vecs * vals
    residuals = np.linalg.norm(mv, axis=0)
    pr = participation_ratio(vecs)
    yd = y_decay_rate(op, vecs)
    return SpectrumReport(vals, vecs, residuals, pr, yd, method, certificate)


def dense_eigs(op) -> SpectrumReport:
    """Full spectrum by dense Hermitian eigendecomposition (oracle route).

    Refuses dimensions above DENSE_CAP_DEFAULT.  LAPACK runs on the real
    form R, in real arithmetic except for H_eps with w11 != w22 and plain
    complex input; certificate["arithmetic"] says which.  Residuals are recomputed from the
    input matrix and must sit at roundoff level, else this raises.
    """
    op = _operator(op)
    n = op.dim
    if n > DENSE_CAP_DEFAULT:
        raise ValueError(f"dimension {n} exceeds dense solver cap {DENSE_CAP_DEFAULT}")
    work, basis = op.real_form
    vals, vecs = np.linalg.eigh(work.toarray())
    vecs = vecs if basis is None else basis @ vecs
    certificate = {"arithmetic": "complex" if work.dtype.kind == "c" else "real"}
    report = _build_report(op, vals, vecs, "dense", certificate)
    scale = max(np.abs(vals).max() if n else 0.0, np.finfo(float).tiny)
    worst = report.residuals.max() if n else 0.0
    if worst > 1e-10 * scale:
        raise AssertionError(
            f"dense eigenpair residual {worst:.3e} above 1e-10 * ||M|| = {1e-10 * scale:.3e}"
        )
    return report


# ---------------------------------------------------------------------------
# sparse LU of the shifted matrix: inertia counts and shift-invert solves

def _factor(matrix: sp.csr_matrix, shift: float, diag_pivot_thresh: float = 1.0):
    """SuperLU factors of matrix - shift I, which must be nonsingular, and
    that matrix's nnz (the matrix itself is dropped once factored).

    Every factor is taken in the symmetric minimum-degree order (MMD on
    A + A^T, SuperLU's symmetric mode): on these operators it carries about
    half the fill of scipy's default COLAMD order.  diag_pivot_thresh keeps
    SuperLU's default, threshold partial pivoting; the inertia counts pass
    0.0 for diagonal pivots.
    """
    n = matrix.shape[0]
    shifted = (matrix - shift * sp.identity(n, format="csr", dtype=matrix.dtype)).tocsc()
    try:
        return splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=diag_pivot_thresh,
                    options={"SymmetricMode": True}), shifted.nnz
    except RuntimeError as exc:
        raise ConvergenceError(
            f"shifted matrix is singular at shift {shift}: {exc}"
        ) from exc


def _block_inertia(matrix: sp.csr_matrix, shift: float, block: str) -> tuple:
    """(count, min |pivot|, max |L|, nnz(L + U), nnz(A)) of one block A = matrix - shift I.

    Factors A in _factor's symmetric order with diagonal pivots
    (diag_pivot_thresh=0.0), so P A P^T = L U with U = D L^H and, by
    Sylvester's law of inertia, the count is the number of negative pivots
    in diag(U).  Any off-diagonal pivot breaks the symmetric order and
    raises, naming the block.  The factor and its CSC copies die on return.
    """
    lu, matrix_nnz = _factor(matrix, shift, diag_pivot_thresh=0.0)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ConvergenceError(
            f"pivoting left the symmetric order at shift {shift} in block {block}; "
            f"the pivot signs do not count eigenvalues"
        )
    pivots = lu.U.diagonal().real
    multipliers = lu.L.data
    growth = (np.abs(multipliers).max() if multipliers.dtype.kind == "c"
              else max(multipliers.max(), -multipliers.min()))
    return (int(np.count_nonzero(pivots < 0.0)), float(np.abs(pivots).min()),
            float(growth), lu.nnz, matrix_nnz)


def _inertia(op, form, shift: float) -> dict:
    """Number of eigenvalues of the Hermitian form(R) below shift, with evidence.

    R is the real form of op and form maps R, or one of its decoupled
    diagonal blocks R_b (HermitianOperator.blocks), to the matrix counted;
    form(R) is block diagonal with the blocks form(R_b), so its inertia is
    the sum of theirs.  Each form(R_b) is built, factored by _block_inertia
    and freed before the next, so one block's factor is alive at a time.
    Counts add up, min_pivot is the smallest and growth the largest over
    the blocks, and fill is sum nnz(L + U) / sum nnz(A).  Fibers, bare
    matrices and a connected 2-d operator are one block, R whole.
    """
    work, blocks = op.real_form[0], op.blocks
    parts = (None,) if blocks is None or len(blocks) == 1 else blocks
    stats = [_block_inertia(form(work if idx is None else work[idx][:, idx]), shift,
                            f"{b} of {len(parts)}")
             for b, idx in enumerate(parts)]
    counts, pivots, growths, factor_nnz, matrix_nnz = zip(*stats)
    return {
        "count": sum(counts),
        "route": "inertia",
        "arithmetic": "complex" if work.dtype.kind == "c" else "real",
        "symmetric_order": True,
        "min_pivot": min(pivots),
        "growth": max(growths),
        "fill": sum(factor_nnz) / sum(matrix_nnz),
        "block_counts": list(counts),
    }


def _identity_count(op, edges, inside) -> dict | None:
    """A count read off op.identity, or None where op does not separate or
    an identity eigenvalue lies within the margin of an edge.

    By Weyl's inequality each eigenvalue of M, and of each block of its
    real form, lies within margin of its identity counterpart; with every
    identity eigenvalue farther than that from each edge, each eigenvalue
    lies on the same side of every edge as its counterpart, so inside(),
    which compares with the same edges, counts M's off the identity.  A
    NaN margin certifies nothing.
    """
    identity = op.identity
    if identity is None or not all(np.all(np.abs(lam - edge) > identity.margin)
                                   for lam in identity.blocks for edge in edges):
        return None
    counts = [int(np.count_nonzero(inside(lam))) for lam in identity.blocks]
    return {"count": sum(counts), "route": "identity", "arithmetic": "real",
            "defect": identity.defect, "margin": identity.margin, "block_counts": counts}


def count_within(op, radius: float, center: float = 0.0) -> dict:
    """Certified count of eigenvalues with |lambda - center| < radius.

    Read off the identity spectrum where that certifies it
    (_identity_count: the certificate adds the defect and the margin),
    else by sparse inertia (_sparse_within).  Either certificate carries
    radius, center, the route ("identity" or "inertia"), "arithmetic"
    ("real" or "complex"), the count and the count of each decoupled block
    (block_counts; one entry for an operator counted whole).
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    op, center, radius = _operator(op), float(center), float(radius)
    lo, hi = center - radius, center + radius
    identity = _identity_count(op, (lo, hi), lambda lam: (lo < lam) & (lam < hi))
    if identity is None:
        return _sparse_within(op, radius, center)
    return {"radius": radius, "center": center, **identity}


def _sparse_within(op, radius: float, center: float) -> dict:
    """count_within by the inertia of (R - center I)^2 - radius^2 I, R the
    real form of M, formed and factored one decoupled block R_b at a time
    (at center 0 the square is R_b @ R_b itself): the square is positive
    semidefinite, and its pivot signs count the squared distances below
    radius^2.  The certificate adds the factored shift (shift_squared),
    symmetric_order, the smallest |pivot| (min_pivot), the largest
    multiplier max|L| (growth) and nnz(L + U) / nnz(A) (fill), each
    summed or extremal over the blocks.
    """
    shift = radius**2

    def square(r):
        if center:
            r = r - center * sp.identity(r.shape[0], format="csr", dtype=r.dtype)
        return (r @ r).tocsr()

    window = _inertia(op, square, shift)
    return {"radius": radius, "center": center, "shift_squared": shift, **window}


def count_below(op, threshold: float) -> dict:
    """Certified count of eigenvalues below a threshold, routed as
    count_within is (else _sparse_below).  Intended for operators with
    strictly positive diagonal (the square-form assemblies); for gap
    windows of the first-order operator use count_within.  The
    certificate carries the threshold and count_within's other keys.
    """
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    op, threshold = _operator(op), float(threshold)
    identity = _identity_count(op, (threshold,), lambda lam: lam < threshold)
    if identity is None:
        return _sparse_below(op, threshold)
    return {"threshold": threshold, **identity}


def _sparse_below(op, threshold: float) -> dict:
    """count_below by inertia: the negative diagonal pivots of
    R_b - threshold I, block by block as in _sparse_within, whose
    evidence the certificate adds with the factored shift."""
    return {"threshold": threshold, "shift": threshold,
            **_inertia(op, lambda r: r, threshold)}


# ---------------------------------------------------------------------------
# shift-invert ARPACK

class _SolveBudgetSpent(Exception):
    """Raised by the counted solve to stop ARPACK once max_iter is spent."""


def _run_shift_invert(op, sigma, want, tol, max_iter, seed, certificate):
    """Shared driver: factor R - sigma I once, then ARPACK on its inverse.

    (R, U) = op.real_form, the real form of M: factors and start vector keep
    R's dtype and the vectors map back as U z.  The factor shares only its
    column order with the inertia counts (_factor): it keeps SuperLU's
    threshold partial pivoting, so a zero diagonal entry of R - sigma I does
    not stop it, and certificate["solve_fill"] records its nnz(L + U) /
    nnz(R - sigma I).  The counted solve enforces the cap of max_iter solves
    and stops the run once it is spent.  ARPACK's own maxiter counts
    restarts, each costing at least one solve, so with maxiter = max_iter
    the solve budget always runs out first.  ARPACK
    accepts a Ritz pair (theta, x) of the inverse once its residual is below
    tol_a * |theta|, which bounds ||M x - lambda x|| by tol_a * (||M|| +
    |sigma|); tol_a is scaled so that bound is tol * ||M||_inf.  Each pair is
    still re-checked against M and recorded in the history; only passing
    pairs are kept.
    """
    matrix, (work, basis), n = op.matrix, op.real_form, op.dim
    normest = max(_inf_norm(matrix), np.finfo(float).tiny)
    tol_resid = tol * normest
    lu, matrix_nnz = _factor(work, sigma)
    history: list[dict] = []
    solves = 0

    def solve(x):
        nonlocal solves
        if solves == max_iter:
            raise _SolveBudgetSpent
        solves += 1
        return lu.solve(x)

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if work.dtype.kind == "c":
        v0 = v0 + 1j * rng.standard_normal(n)
    try:
        vals, vecs = eigsh(
            work, k=want, sigma=sigma, v0=v0, maxiter=max_iter,
            tol=tol * normest / (normest + abs(sigma)),
            OPinv=LinearOperator(work.shape, matvec=solve, dtype=work.dtype),
        )
    except _SolveBudgetSpent:
        vals, vecs = np.zeros(0), np.zeros((n, 0), dtype=work.dtype)
        history.append({"iter": solves, "stopped": "solve budget spent"})
    vecs = vecs if basis is None else basis @ vecs
    certificate.update(iterations=solves, solve_fill=lu.nnz / matrix_nnz,
                       arithmetic="complex" if work.dtype.kind == "c" else "real")
    residuals = np.linalg.norm(matrix @ vecs - vecs * vals[None, :], axis=0)
    for lam, resid in zip(vals, residuals):
        history.append({"iter": solves, "lambda": float(lam), "residual": float(resid)})
    ok = residuals <= tol_resid
    return vals[ok], vecs[:, ok], history


def _check_k(k: int, n: int) -> None:
    # ARPACK's complex Hermitian route needs k < n - 1
    if not 1 <= k < n - 1:
        raise ValueError(f"k must lie in [1, {n - 2}] for dimension {n}, got {k}")


def gap_eigs(
    op,
    lo: float,
    hi: float,
    k: int = 4,
    tol: float = 1e-8,
    max_iter: int = 600,
    seed: int = 0,
) -> SpectrumReport:
    """Up to k eigenpairs inside [lo, hi], nearest the midpoint first.

    The window's count is certified first, by count_within centred on the
    midpoint sigma = (lo + hi)/2 with radius (hi - lo)/2 (at sigma = 0 the
    squared count of R itself), so an empty window returns at once with a
    certified zero, and finding fewer than min(k, count) eigenvalues in
    the window raises ConvergenceError.  An inertia count and the ARPACK
    shift-invert at sigma share one real_form rotation
    (certificate["arithmetic"]), which an empty window counted off the
    identity never builds; max_iter caps the number of solves and tol is
    relative to an infinity-norm estimate of M.  k must stay below
    dim - 1.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    op = _operator(op)
    _check_k(k, op.dim)
    sigma = 0.5 * (lo + hi)
    window = count_within(op, 0.5 * (hi - lo), sigma)
    certificate = {"interval": [float(lo), float(hi)], "certified": True, **window}
    if window["count"] == 0:
        return _build_report(op, np.zeros(0), np.zeros((op.dim, 0)), "gap", certificate)
    want = min(k, window["count"])
    vals, vecs, history = _run_shift_invert(op, sigma, want, tol, max_iter, seed, certificate)
    inside = (lo <= vals) & (vals <= hi)
    if inside.sum() < want:
        raise ConvergenceError(
            f"found {inside.sum()} of {want} certified eigenvalues in "
            f"[{lo}, {hi}] within {max_iter} iterations",
            history,
        )
    return _build_report(op, vals[inside], vecs[:, inside], "gap", certificate)


def nearest_eigenvalues(
    op,
    sigma: float,
    k: int = 1,
    tol: float = 1e-8,
    max_iter: int = 600,
    seed: int = 0,
) -> SpectrumReport:
    """k eigenpairs nearest a caller-chosen shift, uncertified.

    The workhorse for band-edge queries: placing sigma just inside the gap
    next to the expected edge separates the target from the discretized
    continuum cluster far better than a gap-midpoint shift, so convergence
    takes a few dozen solves instead of hundreds.  The pairs come from
    ARPACK shift-invert at sigma; max_iter caps the number of solves with
    M - sigma I, and k must stay below dim - 1.
    """
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    op = _operator(op)
    _check_k(k, op.dim)
    certificate: dict = {"shift": float(sigma), "certified": False, "count": None}
    vals, vecs, history = _run_shift_invert(op, sigma, k, tol, max_iter, seed, certificate)
    if not vals.size:
        raise ConvergenceError(
            f"no eigenpair converged near {sigma} within {max_iter} iterations", history)
    return _build_report(op, vals, vecs, "nearest", certificate)


def lowest_of_square(op: HermitianOperator, k: int = 1) -> SpectrumReport:
    """k smallest eigenpairs of an assembled square form, with a certified count.

    The pairs come from fiber.square_form_pairs, which selects them from the
    factor solves of the operator's cached identity (op.identity), with no
    shift-invert solve and no dense eigensolver (certificate["iterations"]
    is 0).  The identity is checked on the assembled form: each pair is
    re-checked as ||M v - lambda v|| <= 1e-10 ||M||_inf, the dense
    oracle's roundoff bound, and count_below midway between lambda_k and
    lambda_(k+1), read off the same identity with its defect on M or else
    by inertia, must find exactly k eigenvalues (kept under "below").  A
    square form with no identity, either failure raises ConvergenceError.
    """
    if not isinstance(op, HermitianOperator) or op.kind != SQUARE_FORM:
        raise ValueError("lowest_of_square needs an assembled square form")
    _check_k(k, op.dim)
    if op.identity is None:
        raise ConvergenceError("the square form has no separable identity: its y factor "
                               "does not rotate to a real matrix")
    vals, vecs = square_form_pairs(op, k + 1)
    rep = _build_report(op, vals[:k], vecs[:, :k], "square_lowest")
    worst, bound = rep.residuals.max(), 1e-10 * _inf_norm(op.matrix)
    if worst > bound:
        raise ConvergenceError(
            f"identity pair residual {worst:.3e} above 1e-10 * ||M||_inf = {bound:.3e}")
    below = count_below(op, 0.5 * float(vals[k - 1] + vals[k]))
    if below["count"] != k:
        raise ConvergenceError(
            f"the identity puts {k} eigenvalues below {below['threshold']}, "
            f"but inertia counts {below['count']}",
            [below],
        )
    certificate = {"certified": True, "count": k, "iterations": 0,
                   "arithmetic": below["arithmetic"], "below": below}
    return replace(rep, certificate=certificate)


def bottom_above_gap_square(rep: SpectrumReport, delta: float) -> bool:
    """Whether lambda_0 - rho_0 >= delta^2 for a square form's bottom lambda_0
    and its residual rho_0 = ||M v - lambda_0 v||: an eigenvalue lies within
    rho_0 of lambda_0 (Parlett, The Symmetric Eigenvalue Problem, ch. 4),
    and lowest_of_square's count certifies it is the lowest."""
    return bool(rep.eigenvalues[0] - rep.residuals[0] >= delta**2)
