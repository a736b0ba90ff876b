"""Eigensolvers and localization diagnostics.

Every route runs in real arithmetic wherever the antiunitary symmetry
makes the rotated matrix real (HermitianOperator.real_form, cached per
operator; certificate["arithmetic"]), and every sparse route factors a
shifted matrix with SuperLU
(scipy.sparse.linalg.splu) and nothing else:

* ``dense_eigs``: full spectrum through LAPACK, the oracle route for
  cross-checking the sparse routes on small problems; every reported pair
  is re-verified by an explicit matrix-vector product.
* ``count_within`` / ``count_below``: certified eigenvalue counts from the
  pivot signs of a diagonal-pivoted sparse LU in a symmetric fill-reducing
  order (Sylvester inertia).  Each certificate carries its evidence: the
  symmetric pivot order, the smallest pivot, the growth max|L|, the fill
  and the shift that was factored.  A singular factor or a broken
  symmetric order raises ConvergenceError; the shift is never moved.
* ``gap_eigs`` / ``nearest_eigenvalues``: ARPACK shift-invert
  (scipy.sparse.linalg.eigsh) whose inverse is the partial-pivoting LU
  solve of the shifted matrix, counted against a max_iter budget of
  solves.  Every returned pair is re-checked as ||M x - lambda x|| <=
  tol * ||M||_inf.
* ``lowest_of_square``: shift-invert at zero for the positive square-form
  operators, whose result is certified by ``count_below``.

Determinism: all randomized starts come from a caller-seeded generator,
matrix-vector products are sequential, and eigenvector phases are fixed so
the first significant component is real positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .assembly import HermitianOperator, edge_embedding

DENSE_CAP_DEFAULT = 4000


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
    plain dict (json-friendly); for interval queries it carries the
    inertia-based count when one was computed.
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


def _as_matrix(op):
    """(M, parent, R, U): the matrix, its HermitianOperator and (R, U) = its
    real_form.  A bare sparse or dense matrix gives (M, None, M, None),
    promoted to at least double precision so the solves run in float64 or
    complex128 whatever the caller's dtype.
    """
    if isinstance(op, HermitianOperator):
        return (op.matrix, op, *op.real_form)
    if sp.issparse(op):
        m = op.tocsr()
    else:
        m = np.asarray(op)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        m = sp.csr_matrix(m)
    m = m.astype(np.result_type(m.dtype, np.float64), copy=False)
    return m, None, m, None


def _inf_norm(m: sp.csr_matrix) -> float:
    return float((abs(m) @ np.ones(m.shape[1])).max()) if m.nnz else 0.0


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


def _build_report(matrix, parent, vals, vecs, method, certificate=None):
    order = np.argsort(vals)
    vals = np.asarray(vals, dtype=np.float64)[order]
    vecs = _fix_phase(np.asarray(vecs)[:, order])
    mv = matrix @ vecs
    mv -= vecs * vals
    residuals = np.linalg.norm(mv, axis=0)
    pr = participation_ratio(vecs)
    yd = y_decay_rate(parent, vecs)
    return SpectrumReport(vals, vecs, residuals, pr, yd, method, certificate)


def dense_eigs(op, cap: int = DENSE_CAP_DEFAULT) -> SpectrumReport:
    """Full spectrum by dense Hermitian eigendecomposition (oracle route).

    Refuses dimensions above cap.  LAPACK runs on the real form R, in real
    arithmetic except for H_eps with w11 != w22 and plain complex input;
    certificate["arithmetic"] says which.  Residuals are recomputed from the
    input matrix and must sit at roundoff level, else this raises.
    """
    matrix, parent, work, basis = _as_matrix(op)
    n = matrix.shape[0]
    if n > cap:
        raise ValueError(f"dimension {n} exceeds dense solver cap {cap}")
    vals, vecs = np.linalg.eigh(work.toarray())
    vecs = vecs if basis is None else basis @ vecs
    certificate = {"arithmetic": "complex" if work.dtype.kind == "c" else "real"}
    report = _build_report(matrix, parent, vals, vecs, "dense", certificate)
    scale = max(np.abs(vals).max() if n else 0.0, np.finfo(float).tiny)
    worst = report.residuals.max() if n else 0.0
    if worst > 1e-10 * scale:
        raise AssertionError(
            f"dense eigenpair residual {worst:.3e} above 1e-10 * ||M|| = {1e-10 * scale:.3e}"
        )
    return report


# ---------------------------------------------------------------------------
# sparse LU of the shifted matrix: inertia counts and shift-invert solves

def _factor(matrix: sp.csr_matrix, shift: float, **options):
    """SuperLU factors of matrix - shift I, which must be nonsingular."""
    n = matrix.shape[0]
    shifted = (matrix - shift * sp.identity(n, format="csr", dtype=matrix.dtype)).tocsc()
    try:
        return splu(shifted, **options), shifted
    except RuntimeError as exc:
        raise ConvergenceError(
            f"shifted matrix is singular at shift {shift}: {exc}"
        ) from exc


def _inertia(matrix: sp.csr_matrix, shift: float) -> dict:
    """Number of eigenvalues of a Hermitian matrix below shift, with evidence.

    Factors matrix - shift I with diagonal pivots in a symmetric fill-reducing
    order, so P A P^T = L U with U = D L^H and, by Sylvester's law of
    inertia, the count is the number of negative pivots in diag(U).  Any
    off-diagonal pivot breaks the symmetric order and raises.
    """
    lu, shifted = _factor(
        matrix, shift, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ConvergenceError(
            f"pivoting left the symmetric order at shift {shift}; "
            f"the pivot signs do not count eigenvalues"
        )
    pivots = lu.U.diagonal().real
    return {
        "count": int(np.count_nonzero(pivots < 0.0)),
        "arithmetic": "complex" if matrix.dtype.kind == "c" else "real",
        "symmetric_order": True,
        "min_pivot": float(np.abs(pivots).min()),
        "growth": float(np.abs(lu.L.data).max()),
        "fill": lu.nnz / shifted.nnz,
    }


def count_within(op, radius: float) -> dict:
    """Certified count of eigenvalues with |lambda| < radius.

    Computed as the inertia of R @ R - radius^2 I, R the real form of M, real
    wherever the antiunitary symmetry allows.  The square is positive
    semidefinite with strictly positive diagonal, and its pivot signs count
    the squared eigenvalues below radius^2.  The certificate carries the
    factored shift (shift_squared), "arithmetic" ("real" or "complex"),
    symmetric_order, the smallest |pivot| (min_pivot), the largest
    multiplier max|L| (growth) and nnz(L + U) / nnz(A) (fill).
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    work = _as_matrix(op)[2]
    shift = float(radius) ** 2
    window = _inertia((work @ work).tocsr(), shift)
    return {"radius": float(radius), "shift_squared": shift, **window}


def count_below(op, threshold: float) -> dict:
    """Certified count of eigenvalues below a threshold by direct inertia.

    Factors M - threshold I with diagonal pivots and counts negative ones.
    Intended for operators with strictly positive diagonal (the square-form
    assemblies); for gap windows of the first-order operator use
    count_within.  The certificate carries the factored shift and the same
    evidence as count_within.
    """
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    work = _as_matrix(op)[2]
    shift = float(threshold)
    return {"threshold": shift, "shift": shift, **_inertia(work, shift)}


# ---------------------------------------------------------------------------
# shift-invert ARPACK

class _SolveBudgetSpent(Exception):
    """Raised by the counted solve to stop ARPACK once max_iter is spent."""


def _run_shift_invert(matrix, work, basis, sigma, want, tol, max_iter, seed, certificate):
    """Shared driver: factor R - sigma I once, then ARPACK on its inverse.

    (work, basis) = (R, U), the real form of M: factors and start vector keep
    R's dtype and the vectors map back as U z.  The counted solve enforces
    the cap of max_iter solves and stops the run once it is spent.  ARPACK's
    own maxiter counts restarts, each costing at least one solve, so with
    maxiter = max_iter the solve budget always runs out first.  ARPACK
    accepts a Ritz pair (theta, x) of the inverse once its residual is below
    tol_a * |theta|, which bounds ||M x - lambda x|| by tol_a * (||M|| +
    |sigma|); tol_a is scaled so that bound is tol * ||M||_inf.  Each pair is
    still re-checked against M and recorded in the history; only passing
    pairs are kept.
    """
    n = matrix.shape[0]
    normest = max(_inf_norm(matrix), np.finfo(float).tiny)
    tol_resid = tol * normest
    lu, _ = _factor(work, sigma)
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
    certificate.update(iterations=solves,
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

    For intervals symmetric about zero (the physically meaningful gap
    windows) the interval count is first certified through squared-operator
    inertia, so an empty window returns immediately with a certified zero
    and a certified shortfall raises ConvergenceError.  Asymmetric
    intervals search without a certificate and report count None.  The
    count and the ARPACK shift-invert at the midpoint share one real_form
    rotation (certificate["arithmetic"]); max_iter caps the number of
    solves and tol is relative to an infinity-norm estimate of M.  k must
    stay below dim - 1.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    matrix, parent, work, basis = _as_matrix(op)
    n = matrix.shape[0]
    _check_k(k, n)
    sigma = 0.5 * (lo + hi)
    certificate: dict = {"interval": [float(lo), float(hi)],
                         "certified": False, "count": None}
    if abs(lo + hi) <= 1e-12 * max(abs(lo), abs(hi)):
        window = count_within(op, 0.5 * (hi - lo))
        certificate.update(window, certified=True)
        if window["count"] == 0:
            return _build_report(
                matrix, parent, np.zeros(0), np.zeros((n, 0)), "gap", certificate
            )
        want = min(k, window["count"])
    else:
        certificate["note"] = (
            "count certification covers only windows symmetric about zero"
        )
        want = k
    vals, vecs, history = _run_shift_invert(
        matrix, work, basis, sigma, want, tol, max_iter, seed, certificate
    )
    inside = (lo <= vals) & (vals <= hi)
    if certificate["certified"] and inside.sum() < want:
        raise ConvergenceError(
            f"found {inside.sum()} of {want} certified eigenvalues in "
            f"[{lo}, {hi}] within {max_iter} iterations",
            history,
        )
    if not vals.size:
        raise ConvergenceError(
            f"no eigenpair converged near {sigma} within {max_iter} iterations",
            history,
        )
    return _build_report(matrix, parent, vals[inside], vecs[:, inside], "gap", certificate)


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
    matrix, parent, work, basis = _as_matrix(op)
    _check_k(k, matrix.shape[0])
    certificate: dict = {"shift": float(sigma), "certified": False, "count": None}
    vals, vecs, history = _run_shift_invert(
        matrix, work, basis, sigma, k, tol, max_iter, seed, certificate
    )
    if not vals.size:
        raise ConvergenceError(
            f"no eigenpair converged near {sigma} within {max_iter} iterations",
            history,
        )
    return _build_report(matrix, parent, vals, vecs, "nearest", certificate)


def lowest_of_square(
    op,
    k: int = 1,
    tol: float = 1e-8,
    max_iter: int = 800,
    seed: int = 0,
) -> SpectrumReport:
    """k smallest eigenpairs of a positive form, with a certified count.

    Shift-invert at zero returns the eigenvalues nearest zero, which for a
    positive form are the lowest ones.  count_below just above the k-th of
    them then certifies that none was skipped; the certificate keeps that
    inertia record under "below".  Raises ConvergenceError if fewer than k
    pairs converge within max_iter solves or the count disagrees.  Both
    steps share one real_form rotation.
    """
    rep = nearest_eigenvalues(op, 0.0, k, tol, max_iter, seed)
    top = float(rep.eigenvalues[-1])
    below = count_below(op, top * (1.0 + 1e-9))
    if rep.k != k or below["count"] != k:
        raise ConvergenceError(
            f"shift-invert at 0 returned {rep.k} of {k} pairs within {max_iter} "
            f"iterations up to {top}, "
            f"but {below['count']} eigenvalues lie below {below['threshold']}"
        )
    certificate = {**rep.certificate, "certified": True, "count": k, "below": below}
    return replace(rep, method="square_lowest", certificate=certificate)
