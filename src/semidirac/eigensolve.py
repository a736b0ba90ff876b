"""Eigensolvers and localization diagnostics.

Every sparse route factors a shifted matrix M - sigma I with SuperLU
(scipy.sparse.linalg.splu) and nothing else:

* ``dense_eigs``: full spectrum through LAPACK's Hermitian
  eigendecomposition.  This is the oracle route for cross-checking the
  sparse routes on small problems; every reported pair is re-verified by
  an explicit matrix-vector product.
* ``count_within`` / ``count_below``: certified eigenvalue counts from the
  pivot signs of a diagonal-pivoted sparse LU in a symmetric fill-reducing
  order (Sylvester inertia).  Each certificate carries its evidence: the
  symmetric pivot order, the smallest pivot, the growth max|L|, the fill
  and the shift that was factored.  A singular factor or a broken
  symmetric order raises ConvergenceError; the shift is never moved.
* ``gap_eigs`` / ``nearest_eigenvalues``: in-repo shift-invert Lanczos
  with full reorthogonalization and deflation restarts, on the
  partial-pivoting LU of the shifted matrix.
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
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

from .assembly import HermitianOperator

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
    """Accept HermitianOperator, sparse matrix, or dense array."""
    if isinstance(op, HermitianOperator):
        return op.matrix, op
    if sp.issparse(op):
        return op.tocsr(), None
    m = np.asarray(op)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return sp.csr_matrix(m), None


def _inf_norm(m) -> float:
    if sp.issparse(m):
        a = abs(m)
        return float((a @ np.ones(m.shape[1])).max()) if m.nnz else 0.0
    return float(np.abs(m).sum(axis=1).max()) if m.size else 0.0


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive."""
    out = np.array(vecs, dtype=np.complex128, copy=True)
    for i in range(out.shape[1]):
        col = out[:, i]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        j = int(np.argmax(mags > 1e-12 * top))
        out[:, i] = col * (np.conj(col[j]) / mags[j])
    return out


def participation_ratio(v: np.ndarray) -> float:
    """Inverse participation measure in (0, 1]; 1 for a flat vector."""
    v = np.asarray(v)
    p2 = np.abs(v) ** 2
    s = p2.sum()
    if s == 0.0:
        return float("nan")
    p2 = p2 / s
    return float(1.0 / (v.shape[0] * np.sum(p2**2)))


def _row_masses(op: HermitianOperator | None, v: np.ndarray):
    """Per-row (constant-y) probability mass of an eigenvector, or None."""
    if op is None:
        return None
    if op.grid is not None:
        f = op.vector_to_field(v)
        mass = (np.abs(f.u1) ** 2 + np.abs(f.u2) ** 2).sum(axis=1)
        return op.grid.y(), mass
    if op.ygrid is not None:
        ny = op.ygrid.ny
        phys = np.asarray(v, dtype=np.complex128) / np.sqrt(op.weights)
        u1 = phys[:ny]
        u2 = np.concatenate([phys[:1], phys[ny:]])
        return op.ygrid.y(), np.abs(u1) ** 2 + np.abs(u2) ** 2
    return None


def y_decay_rate(op: HermitianOperator | None, v: np.ndarray) -> float:
    """Slope of log row mass against y over the outer half of the domain.

    Negative for states that decay away from the edge; near zero for
    delocalized ones.  NaN when the operator carries no y layout or too few
    rows survive the positivity filter.
    """
    rm = _row_masses(op, v)
    if rm is None:
        return float("nan")
    y, mass = rm
    sel = y >= 0.5 * y[-1]
    y, mass = y[sel], mass[sel]
    ok = mass > 1e-300
    if ok.sum() < 2:
        return float("nan")
    slope = np.polyfit(y[ok], np.log(mass[ok]), 1)[0]
    return float(slope)


def localization_metrics(v: np.ndarray, op: HermitianOperator | None = None):
    """(participation_ratio, y_decay_rate) for one eigenvector."""
    return participation_ratio(v), y_decay_rate(op, v)


def _build_report(matrix, parent, vals, vecs, method, certificate=None):
    order = np.argsort(vals)
    vals = np.asarray(vals, dtype=np.float64)[order]
    vecs = _fix_phase(np.asarray(vecs)[:, order])
    if vals.size:
        mv = matrix @ vecs
        residuals = np.linalg.norm(mv - vecs * vals[None, :], axis=0)
    else:
        residuals = np.zeros(0)
    pr = np.array([participation_ratio(vecs[:, i]) for i in range(vals.size)])
    yd = np.array([y_decay_rate(parent, vecs[:, i]) for i in range(vals.size)])
    return SpectrumReport(vals, vecs, residuals, pr, yd, method, certificate)


def dense_eigs(op, cap: int = DENSE_CAP_DEFAULT) -> SpectrumReport:
    """Full spectrum by dense Hermitian eigendecomposition (oracle route).

    Refuses dimensions above cap.  Residuals are recomputed from the
    input matrix and must sit at roundoff level, else this raises.
    """
    matrix, parent = _as_matrix(op)
    n = matrix.shape[0]
    if n > cap:
        raise ValueError(f"dimension {n} exceeds dense solver cap {cap}")
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.complex128)
    vals, vecs = np.linalg.eigh(dense)
    report = _build_report(matrix, parent, vals, vecs, "dense", None)
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
        "symmetric_order": True,
        "min_pivot": float(np.abs(pivots).min()),
        "growth": float(np.abs(lu.L.data).max()),
        "fill": lu.nnz / shifted.nnz,
    }


def count_within(op, radius: float) -> dict:
    """Certified count of eigenvalues with |lambda| < radius.

    Computed as the inertia of M @ M - radius^2 I.  The first-order
    operator has zero diagonal blocks, on which diagonal pivoting breaks
    down structurally; its square is positive semidefinite with strictly
    positive diagonal, and its pivot signs count the squared eigenvalues
    below radius^2.  The certificate carries the factored shift
    (shift_squared), symmetric_order, the smallest |pivot| (min_pivot),
    the largest multiplier max|L| (growth) and nnz(L + U) / nnz(A) (fill).
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    matrix, _ = _as_matrix(op)
    shift = float(radius) ** 2
    window = _inertia((matrix @ matrix).tocsr(), shift)
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
    matrix, _ = _as_matrix(op)
    shift = float(threshold)
    return {"threshold": shift, "shift": shift, **_inertia(matrix, shift)}


# ---------------------------------------------------------------------------
# shift-invert Lanczos

def _lanczos_nearest(opsolve, matrix, n, sigma, want, tol, normest, max_iter,
                     rng, history):
    """Eigenpairs of `matrix` nearest sigma via Lanczos on its shifted inverse.

    Accepts pairs one at a time as they converge, restarting the Krylov
    space with the converged vectors deflated, which resolves clustered and
    near-degenerate neighbours.  For a Ritz pair (theta, x) of the inverse,
    ||M x - lambda x|| <= (||M|| + |sigma|) * beta |s_last| / |theta|, and a
    pair is only accepted after the actual residual passes.
    """
    tol_resid = tol * normest
    found_vals: list[float] = []
    found_vecs: list[np.ndarray] = []
    total = 0
    restarts = 0
    while len(found_vals) < want and total < max_iter and restarts < want + 6:
        restarts += 1
        defl = (
            np.stack(found_vecs, axis=1)
            if found_vecs
            else np.zeros((n, 0), dtype=np.complex128)
        )
        m_cap = min(max_iter - total, n - defl.shape[1])
        if m_cap < 1:
            break
        # column-major, so only the columns actually written get touched
        V = np.zeros((n, m_cap), dtype=np.complex128, order="F")
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v0 -= defl @ (defl.conj().T @ v0)
        nrm = np.linalg.norm(v0)
        if nrm < 1e-12:
            break
        V[:, 0] = v0 / nrm
        alphas: list[float] = []
        betas: list[float] = []
        verify_gate = np.inf
        accepted = False
        for j in range(m_cap):
            w = opsolve(V[:, j])
            total += 1
            a = np.vdot(V[:, j], w).real
            alphas.append(a)
            w = w - a * V[:, j]
            if j > 0:
                w = w - betas[-1] * V[:, j - 1]
            basis = V[:, : j + 1]
            w -= basis @ (basis.conj().T @ w)
            if defl.shape[1]:
                w -= defl @ (defl.conj().T @ w)
            beta = float(np.linalg.norm(w))
            theta, s = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
            order = np.argsort(-np.abs(theta))
            top = order[: want - len(found_vals)]
            denom = np.maximum(np.abs(theta[top]), 1e-300)
            res_bound = beta * np.abs(s[-1, top]) * (normest + abs(sigma)) / denom
            exhausted = beta <= 1e-13 * max(1.0, float(np.abs(theta).max()))
            last_chance = j == m_cap - 1 or total >= max_iter
            should_verify = (
                res_bound.min() <= 30.0 * tol_resid
                and res_bound.min() <= verify_gate
            ) or exhausted or last_chance
            if should_verify and top.size:
                for idx in top[np.argsort(res_bound)]:
                    if np.abs(theta[idx]) < 1e-300:
                        continue
                    x = V[:, : j + 1] @ s[:, idx]
                    x /= np.linalg.norm(x)
                    lam = float(sigma + 1.0 / theta[idx])
                    resid = float(np.linalg.norm(matrix @ x - lam * x))
                    history.append(
                        {"iter": total, "theta": float(theta[idx]),
                         "lambda": lam, "residual": resid}
                    )
                    if resid <= tol_resid:
                        found_vals.append(lam)
                        found_vecs.append(x)
                        accepted = True
                if accepted:
                    break
                verify_gate = res_bound.min() / 3.0
            if exhausted or last_chance:
                break
            V[:, j + 1] = w / beta
            betas.append(beta)
        if not accepted and total < max_iter:
            # fresh random restart; deflation unchanged
            continue
    return found_vals, found_vecs, total


def _symmetric_radius(lo: float, hi: float) -> float | None:
    if abs(lo + hi) <= 1e-12 * max(abs(lo), abs(hi)):
        return 0.5 * (hi - lo)
    return None


def _run_shift_invert(matrix, sigma, want, tol, max_iter, seed, certificate):
    """Shared driver: factor M - sigma I once, then Lanczos on its inverse."""
    n = matrix.shape[0]
    normest = max(_inf_norm(matrix), np.finfo(float).tiny)
    # the Lanczos vectors are complex, so the solve must be too
    lu, _ = _factor(matrix.astype(np.complex128, copy=False), sigma)
    history: list[dict] = []
    vals, vecs, solves = _lanczos_nearest(
        lu.solve, matrix, n, sigma, want, tol, normest, max_iter,
        np.random.default_rng(seed), history,
    )
    certificate["iterations"] = solves
    return vals, vecs, history


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
    intervals search without a certificate and report count None.  tol is
    relative to an infinity-norm estimate of the matrix.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    matrix, parent = _as_matrix(op)
    n = matrix.shape[0]
    sigma = 0.5 * (lo + hi)
    certificate: dict = {"interval": [float(lo), float(hi)],
                         "certified": False, "count": None}
    radius = _symmetric_radius(lo, hi)
    if radius is not None:
        window = count_within(matrix, radius)
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
        matrix, sigma, want, tol, max_iter, seed, certificate
    )
    inside = [(v, x) for v, x in zip(vals, vecs) if lo <= v <= hi]
    if certificate["certified"] and len(inside) < want:
        raise ConvergenceError(
            f"found {len(inside)} of {want} certified eigenvalues in "
            f"[{lo}, {hi}] within {max_iter} iterations",
            history,
        )
    if not vals and want > 0:
        raise ConvergenceError(
            f"no eigenpair converged near {sigma} within {max_iter} iterations",
            history,
        )
    if inside:
        vals_in = np.array([v for v, _ in inside])
        vecs_in = np.stack([x for _, x in inside], axis=1)
    else:
        vals_in, vecs_in = np.zeros(0), np.zeros((n, 0), dtype=np.complex128)
    return _build_report(matrix, parent, vals_in, vecs_in, "gap", certificate)


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
    takes a few dozen solves instead of hundreds.
    """
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    matrix, parent = _as_matrix(op)
    certificate: dict = {"shift": float(sigma), "certified": False, "count": None}
    vals, vecs, history = _run_shift_invert(
        matrix, sigma, k, tol, max_iter, seed, certificate
    )
    if not vals:
        raise ConvergenceError(
            f"no eigenpair converged near {sigma} within {max_iter} iterations",
            history,
        )
    return _build_report(
        matrix, parent, np.array(vals), np.stack(vecs, axis=1), "nearest",
        certificate,
    )


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
    pairs converge or the count disagrees.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rep = nearest_eigenvalues(op, 0.0, k=k, tol=tol, max_iter=max_iter, seed=seed)
    top = float(rep.eigenvalues[-1])
    below = count_below(op, top * (1.0 + 1e-9))
    if rep.k != k or below["count"] != k:
        raise ConvergenceError(
            f"shift-invert at 0 returned {rep.k} of {k} pairs up to {top}, "
            f"but {below['count']} eigenvalues lie below {below['threshold']}"
        )
    certificate = {**rep.certificate, "certified": True, "count": k, "below": below}
    return replace(rep, method="square_lowest", certificate=certificate)
