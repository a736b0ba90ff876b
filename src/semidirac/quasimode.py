"""Quadrature-side checks: trial states evaluated from closed forms.

Everything in this module works with analytic expressions integrated by
Gauss-Legendre rules.  Each quantity has one fixed order, a constant
written where it is used; the unit rule of each order is computed once
and cached (read-only), and only its map onto the interval runs per
call.  The bump and the cutoff profile are fixed shapes too.  Nothing
here touches the assembled matrices; the point is to have an
independent route to the same physics so the grid side and the analytic
side can be compared without shared failure modes.

Contents:

* Weyl trial states (u, +-u) with u = phi_n(x, y) exp(ikx) built from one
  compactly supported bump (product_bump), whose residual against
  mu = +-(delta + k^2) decays like 1/n and never exceeds the closed-form
  bound.  weyl_rows tabulates residual and bound over (mu, n) with
  k = weyl_momentum(mu); weyl_evidence fits each mu's slope and judges
  both.
* Separable sine trials on a box well, whose squared energy is an exact
  trinomial in the well depth (box_energy_analytic, checked against the
  quadrature of box_energy_numeric); its negativity window
  (boundstate_window) predicts bound states in the gap.
* The logarithmic annular cutoff g_n, built on one profile (a degree-7
  smoothstep between CUTOFF_KNOTS), and its derivative integrals, which
  quantify how cheaply a trial can be spread to infinity in 2D.
* The second-order perturbation energy A_eps for an off-diagonal
  Hermitian multiplication perturbation: aeps_divergence sets the
  variant as printed beside the rederived one, a_eps_derived; then the
  threshold eps where it first turns negative, and the g_n-localized
  trial energies that converge to it.
* The square identity ||Tu||^2 = ||dy u||^2 + ||dxx u||^2
  + 2 delta ||dx u||^2 + delta^2 ||u||^2 on edge-admissible spinors.
  (The first-order term is the y-derivative alone: expanding the rows
  of T produces no standalone ||dx u||^2, as the proof of the identity
  makes explicit even where the statement abbreviates it as a gradient.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Grid2D, Params, PerturbationField


# ---------------------------------------------------------------------------
# quadrature helpers


@functools.lru_cache(maxsize=16)
def _unit_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    The rule depends on its order alone, and the orders are code
    constants, so the cache stays small.  It fills on first use.
    """
    t, w = np.polynomial.legendre.leggauss(m)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gauss_1d(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    if not m >= 1:
        raise ValueError(f"need at least one node, got {m}")
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    t, w = _unit_rule(m)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), half * w


def gauss_2d(box, m: int):
    """Tensor Gauss-Legendre rule of order m per axis on box = (x0, x1, y0, y1).

    Returns (X, Y, W) flattened; sum(W * f(X, Y)) approximates the integral.
    """
    x0, x1, y0, y1 = box
    xs, wx = gauss_1d(x0, x1, m)
    ys, wy = gauss_1d(y0, y1, m)
    X, Y = np.meshgrid(xs, ys)
    W = np.outer(wy, wx)
    return X.ravel(), Y.ravel(), W.ravel()


# ---------------------------------------------------------------------------
# the compactly supported bump


def _on_unit_interval(t, f):
    """f(s, 1 - s^2) at the entries s of t with |s| < 1, zero elsewhere."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    s = t[inside]
    out[inside] = f(s, 1.0 - s * s)
    return out


def mollifier(t):
    """exp(-1/(1-t^2)) on |t| < 1, extended by zero."""
    return _on_unit_interval(t, lambda s, q: np.exp(-1.0 / q))


def mollifier_d1(t):
    return _on_unit_interval(t, lambda s, q: np.exp(-1.0 / q) * (-2.0 * s / q**2))


def mollifier_d2(t):
    return _on_unit_interval(t, lambda s, q: np.exp(-1.0 / q) * (
        4.0 * s * s / q**4 - (2.0 + 6.0 * s * s) / q**3))


# The Weyl trials' one profile: the separable bump m((x - cx)/wx) m(y - cy)
# about (cx, cy) = (0, 2), x-halfwidth wx = 2.5 and y-halfwidth 1, on this
# support.  The wide-in-x shape keeps the second x-derivative small
# relative to the first-order terms, so the 1/n residual decay of the Weyl
# trials is visible already at n = 8 without contamination from the 1/n^2
# curvature term.
BUMP_SUPPORT = (-2.5, 2.5, 1.0, 3.0)


def product_bump() -> tuple:
    """(f, fx, fy, fxx): the bump and its analytic partials, scaled so
    ||f||_{L^2} = 1/sqrt(2), making the spinor (f, +-f) unit norm.  The
    profile vanishes outside BUMP_SUPPORT with all its derivatives."""
    cx, cy, wx = 0.0, 2.0, 2.5

    def f(x, y):
        return mollifier((x - cx) / wx) * mollifier(y - cy)

    def fx(x, y):
        return mollifier_d1((x - cx) / wx) * mollifier(y - cy) / wx

    def fy(x, y):
        return mollifier((x - cx) / wx) * mollifier_d1(y - cy)

    def fxx(x, y):
        return mollifier_d2((x - cx) / wx) * mollifier(y - cy) / wx**2

    X, Y, W = gauss_2d(BUMP_SUPPORT, 160)
    c = np.sqrt(0.5 / float(np.sum(W * f(X, Y) ** 2)))
    return tuple(lambda x, y, g=g: c * g(x, y) for g in (f, fx, fy, fxx))


# ---------------------------------------------------------------------------
# Weyl trials at mu = +-(delta + k^2)


def weyl_momentum(mu: float, params: Params) -> float:
    """Momentum k of the Weyl trials at mu = +-(delta + k^2); mu in the gap is refused."""
    if abs(mu) < params.delta:
        raise ValueError(
            f"mu = {mu} lies inside the spectral gap (-{params.delta}, {params.delta})"
        )
    return float(np.sqrt(abs(mu) - params.delta))


def _weyl_kernel():
    """Weights, the partials (fy, fx, fxx) of the bump on the rule, and
    their squared norms: everything a Weyl row needs that is free of (n, k)."""
    _, fx, fy, fxx = product_bump()
    X, Y, W = gauss_2d(BUMP_SUPPORT, 80)
    parts = (fy(X, Y), fx(X, Y), fxx(X, Y))
    return W, parts, tuple(float(np.sum(W * g**2)) for g in parts)


def _residual(kernel, n: int, k: float) -> float:
    W, (gy, gx, gxx), _ = kernel
    integrand = ((gy + 2.0 * k * gx) ** 2 + (gy - 2.0 * k * gx) ** 2) / n**2
    integrand = integrand + 2.0 * gxx**2 / n**4
    return float(np.sqrt(np.sum(W * integrand)))


def _bound(kernel, n: int, k: float) -> float:
    _, _, (ny2, nx2, nxx2) = kernel
    return float(np.sqrt(2.0 * (ny2 + 4.0 * k * k * nx2) / n**2 + 2.0 * nxx2 / n**4))


WEYL_SLOPE_BAND = (-1.05, -0.95)


def weyl_rows(mus, ns, params: Params):
    """Residual table rows over (mu, n); columns match the weyl CSV schema.

    Row (mu, n) is the spinor (u, branch * u), u = phi_n exp(ikx) with
    phi_n = phi(./n)/n, k = weyl_momentum(mu) and branch the sign of mu.
    residual is ||(T - mu) psi_n|| by quadrature of the closed-form
    integrand: after the exact substitution (x, y) = (nX, nY) it lives on
    the base support, and the derivatives of phi are analytic.  Both
    branches give the same value: the sign flip swaps the two rows.
    bound_rhs is the closed form sqrt(2||dy phi_n||^2 + 2||dxx phi_n||^2
    + 8k^2||dx phi_n||^2).  For real profiles the residual attains it
    exactly (the cross terms cancel between the two rows), so the two only
    differ by quadrature accumulation order.  phi is product_bump, and its
    partials and norms are evaluated once for the whole table.
    """
    kernel = _weyl_kernel()
    rows = []
    for mu in mus:
        k = weyl_momentum(mu, params)
        for n in map(int, ns):
            if n < 1:
                raise ValueError(f"scale n must be a positive integer, got {n}")
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "mu": float(mu),
                    "branch": 1 if mu > 0 else -1,
                    "residual": _residual(kernel, n, k),
                    "bound_rhs": _bound(kernel, n, k),
                }
            )
    return rows


def weyl_evidence(rows) -> tuple[dict, dict]:
    """(slopes, checks) of a weyl_rows table: each mu, at 17 significant
    digits, maps to the fit_slope of its residuals against n; the checks ask
    every residual to sit below its bound (relative slack 1e-9) and every
    slope to lie in WEYL_SLOPE_BAND, the 1/n decay to within 5%."""
    by_mu: dict = {}
    for r in rows:
        by_mu.setdefault(f"{r['mu']:.17g}", []).append(r)
    slopes = {mu: fit_slope([r["n"] for r in got], [r["residual"] for r in got])
              for mu, got in by_mu.items()}
    lo, hi = WEYL_SLOPE_BAND
    return slopes, {
        "weyl_residuals_below_bound": all(
            r["residual"] <= r["bound_rhs"] * (1.0 + 1e-9) for r in rows),
        "weyl_slopes_near_inverse_n": all(lo <= s <= hi for s in slopes.values()),
    }


def fit_slope(ns, values) -> float:
    """Least-squares slope of log(value) against log(n)."""
    ns = np.asarray(ns, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if ns.size < 2:
        raise ValueError("need at least two scales to fit a slope")
    if np.any(vals <= 0.0):
        raise ValueError("values must be positive for a log-log fit")
    return float(np.polyfit(np.log(ns), np.log(vals), 1)[0])


# ---------------------------------------------------------------------------
# separable sine trials on a box well


def _box_lambda1(a: float, b: float) -> float:
    """pi^2/(b - a)^2, the ground value of -d^2/dz^2 on [a, b] with zero ends."""
    if not b > a:
        raise ValueError(f"empty box [{a}, {b}]")
    return float(np.pi**2 / (b - a) ** 2)


def box_energy_analytic(a: float, b: float, v0: float, params: Params) -> float:
    """||H psi||^2 - delta^2 ||psi||^2 as an exact trinomial in the depth v0.

    The sine mode turns -dxx into multiplication by lambda1 on the box,
    and the trial vanishes outside, so the whole energy collapses to
    2 v0^2 + 4 (lambda1 + delta) v0 + 2 lambda1 + 4 delta lambda1
    + 2 lambda1^2.
    """
    lam = _box_lambda1(a, b)
    d = params.delta
    return 2.0 * v0**2 + 4.0 * (lam + d) * v0 + 2.0 * lam + 4.0 * d * lam + 2.0 * lam**2


def box_energy_numeric(a: float, b: float, v0: float, params: Params) -> float:
    """Same energy by tensor quadrature of psi = u(x) u(y), u the ground
    sine mode of [a, b], with its derivative taken analytically."""
    lam, d = _box_lambda1(a, b), params.delta
    L = b - a
    X, Y, W = gauss_2d((a, b, a, b), 60)
    c = np.sqrt(2.0 / L)
    ux, uy = c * np.sin(np.pi * (X - a) / L), c * np.sin(np.pi * (Y - a) / L)
    uy_d1 = c * (np.pi / L) * np.cos(np.pi * (Y - a) / L)
    dpsi_y = ux * uy_d1
    psi = ux * uy
    integrand = (
        2.0 * dpsi_y**2 + 2.0 * ((lam + d + v0) * psi) ** 2 - 2.0 * d**2 * psi**2
    )
    return float(np.sum(W * integrand))


def boundstate_window(params: Params, a: float, b: float):
    """Depth window (v1, v2) where the box trial energy is negative.

    Roots of the trinomial: v = -(lambda1 + delta) -+ sqrt(delta^2 - lambda1).
    Returns None when lambda1 >= delta^2 (box too small for this delta:
    the trinomial stays positive and predicts nothing).
    """
    lam = _box_lambda1(a, b)
    d = params.delta
    disc = d * d - lam
    if disc <= 0.0:
        return None
    s = float(np.sqrt(disc))
    return (-(lam + d) - s, -(lam + d) + s)


# ---------------------------------------------------------------------------
# annular logarithmic cutoff


# The profile g of the cutoff rises from 0 to 1 between these knots in t.
CUTOFF_KNOTS = (1.0 / 9.0, 0.5)


def _tau(t):
    """(tau, h): t mapped onto [0, 1] across the knots (clipped), and the knot gap h."""
    lo, hi = CUTOFF_KNOTS
    h = hi - lo
    return np.clip((np.asarray(t, dtype=np.float64) - lo) / h, 0.0, 1.0), h


def cutoff_profile(t):
    """g(t): degree-7 smoothstep between CUTOFF_KNOTS, 0 below and 1 above.

    s(tau) = 35 tau^4 - 84 tau^5 + 70 tau^6 - 20 tau^7 has three vanishing
    derivatives at each end, so g is C^3 across both knots: enough
    smoothness for every integral used here while keeping all derivative
    integrals exact rationals.
    """
    s, _ = _tau(t)
    return s**4 * (35.0 - 84.0 * s + 70.0 * s**2 - 20.0 * s**3)


def _profile_d1(t):
    s, h = _tau(t)
    return 140.0 * s**3 * (1.0 - s) ** 3 / h


def _profile_d2(t):
    s, h = _tau(t)
    return 420.0 * s**2 * (1.0 - s) ** 2 * (1.0 - 2.0 * s) / h**2


def profile_deriv_integrals() -> tuple[float, float]:
    """(integral of g'^2, integral of g''^2) between the knots."""
    t, w = gauss_1d(*CUTOFF_KNOTS, 64)
    return float(np.sum(w * _profile_d1(t) ** 2)), float(np.sum(w * _profile_d2(t) ** 2))


def cutoff_g(n: int, r):
    """g_n(r): 1 up to r = n, g(ln(n^2/r)/ln n) out to r = n^2, then 0."""
    if n < 2:
        raise ValueError(f"cutoff scale n must be >= 2, got {n}")
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    out[r <= n] = 1.0
    mid = (r > n) & (r < n**2)
    t = np.log(n**2 / r[mid]) / np.log(n)
    out[mid] = cutoff_profile(t)
    return out


def cutoff_derivative_integrals(n: int) -> tuple[float, float, float]:
    """(Ix, Iy, Ixx) for g_n over the half-plane by radial quadrature.

    Ix = int |dx g_n|^2 and Iy likewise are equal by the quarter-turn
    symmetry of the half-annulus, so one radial quadrature serves both.
    The integrals run in s = ln r over the active band where g varies;
    there the integrand is analytic, and the log substitution keeps the
    node count independent of n.
    """
    if n < 2:
        raise ValueError(f"cutoff scale n must be >= 2, got {n}")
    lo, hi = CUTOFF_KNOTS
    ln = np.log(float(n))
    # active band in s = ln r: g varies for t in [lo, hi], t = 2 - s/ln n
    s, w = gauss_1d((2.0 - hi) * ln, (2.0 - lo) * ln, 240)
    t = 2.0 - s / ln
    r = np.exp(s)
    gp, gpp = _profile_d1(t), _profile_d2(t)
    G1 = -gp / (r * ln)
    G2 = gpp / (r**2 * ln**2) + gp / (r**2 * ln)
    int_G1sq_r = float(np.sum(w * G1**2 * r**2))   # int G'^2 r dr
    int_G2sq_r = float(np.sum(w * G2**2 * r**2))   # int G''^2 r dr
    int_cross = float(np.sum(w * G1 * G2 * r))     # int G' G'' dr
    int_G1sq_over_r = float(np.sum(w * G1**2))     # int G'^2 / r dr
    ix = 0.5 * np.pi * int_G1sq_r
    ixx = (3.0 * np.pi / 8.0) * (int_G2sq_r + int_G1sq_over_r) + (np.pi / 4.0) * int_cross
    return ix, ix, ixx


def cutoff_row(n: int) -> dict:
    """Derivative integrals of g_n with their closed-form checks attached.

    first_deriv_identity_rel_err compares Ix against the exact identity
    (pi/2) (1/ln n) int g'^2 dt.  second_deriv_bound_slack is the margin
    of Ixx under (3 pi/4) n^-2 (ln n)^-3 int g''^2 + pi n^-2 (ln n)^-1
    int g'^2; both quantities must come out nonnegative for the spreading
    argument to close.
    """
    ix, iy, ixx = cutoff_derivative_integrals(n)
    ln = np.log(float(n))
    ip2, ipp2 = profile_deriv_integrals()
    ident = 0.5 * np.pi * ip2 / ln
    bound = (0.75 * np.pi) * ipp2 / (n**2 * ln**3) + np.pi * ip2 / (n**2 * ln)
    return {
        "n": int(n),
        "Ix": ix,
        "Iy": iy,
        "Ixx": ixx,
        "first_deriv_identity_rel_err": abs(ix - ident) / ident,
        "second_deriv_bound_slack": bound - ixx,
    }


# ---------------------------------------------------------------------------
# off-diagonal perturbation energy


@dataclass(frozen=True)
class PerturbationModel:
    """Closed-form Hermitian perturbation entries with compact support.

    w11 and w22 are real-valued, w21 is conj(w12) pointwise; support is
    the bounding box of all four entries and must sit inside the upper
    half-plane.  sample_on bridges to the grid side for assembly, while
    the a_eps functions below integrate the same callables directly.
    """

    w11: Callable
    w12: Callable
    w22: Callable
    support: tuple
    label: str

    def __post_init__(self):
        if self.support[2] < 0.0:
            raise ValueError(f"support dips below the edge: {self.support}")

    def sample_on(self, grid: Grid2D) -> PerturbationField:
        return PerturbationField.from_callables(
            grid,
            w11=lambda x, y: np.real(self.w11(x, y)),
            w12=self.w12,
            w22=lambda x, y: np.real(self.w22(x, y)),
        )


def _zero(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def disk_perturbation(amplitude: float = -1.0, center=(0.0, 14.0), radius: float = 13.0) -> PerturbationModel:
    """Real radial mollifier in the off-diagonal slots, zero on the diagonal."""
    cx, cy = center
    R = float(radius)
    if R <= 0.0:
        raise ValueError(f"radius must be positive, got {R}")
    if cy - R < 0.0:
        raise ValueError(f"disk dips below the edge: center y = {cy}, radius {R}")

    def w12(x, y):
        return amplitude * mollifier(np.hypot(x - cx, y - cy) / R)

    support = (cx - R, cx + R, cy - R, cy + R)
    return PerturbationModel(
        w11=_zero, w12=w12, w22=_zero, support=support,
        label=f"disk(amp={amplitude:g}, R={R:g})",
    )


def box_perturbation(amplitude: float, box) -> PerturbationModel:
    """Constant off-diagonal entries on a rectangle (sharp indicator)."""
    x0, x1, y0, y1 = box
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"empty box {box}")

    def w12(x, y):
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return amplitude * inside.astype(np.float64)

    return PerturbationModel(
        w11=_zero, w12=w12, w22=_zero, support=tuple(box),
        label=f"box(amp={amplitude:g})",
    )


def _aeps_fields(model: PerturbationModel):
    """The A_eps rule on the support, and the entries w11, w12, w22 sampled on it."""
    X, Y, W = gauss_2d(model.support, 120)
    return (
        X,
        Y,
        W,
        np.real(model.w11(X, Y)),
        np.asarray(model.w12(X, Y), dtype=np.complex128),
        np.real(model.w22(X, Y)),
    )


def _derived_density(fields, eps: float, params: Params) -> np.ndarray:
    _, _, _, w11, w12, w22 = fields
    w21 = np.conj(w12)
    d = params.delta
    row1 = (d + eps * w11 + eps * w12.real) ** 2 + (eps * w12.imag) ** 2
    row2 = (d + eps * w22 + eps * w21.real) ** 2 + (eps * w21.imag) ** 2
    return row1 + row2 - 2.0 * d * d


def _derived(fields, eps: float, params: Params) -> float:
    return float(np.sum(fields[2] * _derived_density(fields, eps, params)))


def _paper(fields, eps: float, params: Params) -> float:
    _, _, W, w11, w12, w22 = fields
    d = params.delta
    e2 = eps * eps
    integrand = (
        e2 * w11**2
        + e2 * (w12**2).real
        + 4.0 * d * eps * w12.real
        + e2 * (np.conj(w12) ** 2).real
        + e2 * w22
    )
    return float(np.sum(W * integrand))


def a_eps_derived(model: PerturbationModel, eps: float, params: Params) -> float:
    """Second-order trial energy density integrated over the support.

    Rederived form: the rows of (T + eps W - shift) acting on the
    constant-direction trial contribute |delta + eps w11 + eps Re w12|^2
    + eps^2 (Im w12)^2 and the mirrored row term, minus the free value
    2 delta^2.  This is the variant the trial energies converge to.
    """
    return _derived(_aeps_fields(model), eps, params)


def aeps_divergence(model: PerturbationModel, eps: float, params: Params) -> dict:
    """A_eps as printed and as rederived (a_eps_derived) on one sampling
    of the fields, with a flag for a relative gap above 1e-9.

    The printed energy is eps^2 times the algebraic squares of the
    entries (w12^2, not |w12|^2, and the w22 term enters unsquared) plus
    the 4 delta eps Re w12 cross term.  For Hermitian entries the
    w12^2 + w21^2 pair sums to the real quantity 2 Re(w12^2), which
    differs from 2 |w12|^2 as soon as w12 has an imaginary part, so the
    variants agree exactly only when the diagonal entries vanish and w12
    is real.
    """
    fields = _aeps_fields(model)
    paper = _paper(fields, eps, params)
    derived = _derived(fields, eps, params)
    scale = max(abs(paper), abs(derived), 1e-30)
    return {
        "a_eps_paper": paper,
        "a_eps_derived": derived,
        "rel_gap": abs(paper - derived) / scale,
        "diverges": abs(paper - derived) > 1e-9 * scale,
    }


def eps_threshold(model: PerturbationModel, params: Params) -> float:
    """Coupling where the quadratic-in-eps energy first dips negative.

    eps* = -4 delta int Re w12 / int sum |w_ij|^2.  Requires an
    attractive coupling, int Re w12 < 0; otherwise no positive eps
    makes the energy negative and the request is an error.
    """
    _, _, W, w11, w12, w22 = _aeps_fields(model)
    lin = float(np.sum(W * w12.real))
    if lin >= 0.0:
        raise ValueError(
            f"threshold needs int Re w12 < 0 (attractive coupling), got {lin:g}"
        )
    quad = float(
        np.sum(W * (w11**2 + np.abs(w12) ** 2 + np.abs(w12) ** 2 + w22**2))
    )
    if quad == 0.0:
        raise ValueError("perturbation is identically zero")
    return -4.0 * params.delta * lin / quad


def trial_energy(model: PerturbationModel, eps: float, params: Params, n: int) -> float:
    """A_eps localized by the cutoff: same integrand weighted by g_n^2.

    Only the support of the perturbation contributes (the free integrand
    vanishes identically), so once the plateau of g_n covers the support
    the value equals a_eps_derived exactly.
    """
    fields = _aeps_fields(model)
    X, Y, W = fields[:3]
    g2 = cutoff_g(n, np.hypot(X, Y)) ** 2
    return float(np.sum(W * g2 * _derived_density(fields, eps, params)))


# ---------------------------------------------------------------------------
# square identity on edge-admissible spinors


@dataclass(frozen=True)
class SpinorTrial:
    """Closed-form spinor with analytic partials, u1 = u2 on the edge.

    box is the quadrature window; the components must decay fast enough
    that the tail outside it is negligible (Gaussian factors here).
    """

    u1: Callable
    u1x: Callable
    u1y: Callable
    u1xx: Callable
    u2: Callable
    u2x: Callable
    u2y: Callable
    u2xx: Callable
    box: tuple
    label: str


def standard_trials() -> tuple[SpinorTrial, ...]:
    """Three admissible trials: edge-vanishing, edge-flat, and a complex
    pair that agree on the edge but differ inside."""

    def G(x, y):
        return np.exp(-(x**2) - (y - 1.0) ** 2)

    def equal_components(u, ux, uy, uxx, label):
        return SpinorTrial(u, ux, uy, uxx, u, ux, uy, uxx, (-7.0, 7.0, 0.0, 8.0), label)

    t1 = equal_components(
        lambda x, y: y * G(x, y),
        lambda x, y: -2.0 * x * y * G(x, y),
        lambda x, y: (1.0 - 2.0 * y * (y - 1.0)) * G(x, y),
        lambda x, y: (4.0 * x**2 - 2.0) * y * G(x, y),
        "edge-vanishing gaussian",
    )
    t2 = equal_components(
        G,
        lambda x, y: -2.0 * x * G(x, y),
        lambda x, y: -2.0 * (y - 1.0) * G(x, y),
        lambda x, y: (4.0 * x**2 - 2.0) * G(x, y),
        "edge-flat gaussian",
    )

    def g(x, y):
        return np.exp(-(x**2) - 0.5 * y**2)

    t3 = SpinorTrial(
        u1=lambda x, y: (1.0 + y) * g(x, y),
        u1x=lambda x, y: -2.0 * x * (1.0 + y) * g(x, y),
        u1y=lambda x, y: (1.0 - y - y**2) * g(x, y),
        u1xx=lambda x, y: (4.0 * x**2 - 2.0) * (1.0 + y) * g(x, y),
        u2=lambda x, y: (1.0 + 1j * y) * g(x, y),
        u2x=lambda x, y: -2.0 * x * (1.0 + 1j * y) * g(x, y),
        u2y=lambda x, y: (1j - y - 1j * y**2) * g(x, y),
        u2xx=lambda x, y: (4.0 * x**2 - 2.0) * (1.0 + 1j * y) * g(x, y),
        box=(-7.0, 7.0, 0.0, 10.0),
        label="complex pair, equal on the edge only",
    )
    return (t1, t2, t3)


def square_identity_residual(trial: SpinorTrial, params: Params) -> dict:
    """Evaluate ||Tu||^2 and the four-term right side
    ||dy u||^2 + ||dxx u||^2 + 2 delta ||dx u||^2 + delta^2 ||u||^2,
    returning both and their relative mismatch.  The identity needs
    u1 = u2 on the edge; trials violating it are rejected."""
    xs = np.linspace(trial.box[0], trial.box[1], 101)
    zero = np.zeros_like(xs)
    edge_gap = np.abs(trial.u1(xs, zero) - trial.u2(xs, zero)).max()
    edge_scale = max(np.abs(trial.u1(xs, zero)).max(), 1e-30)
    if edge_gap > 1e-12 * max(edge_scale, 1.0):
        raise ValueError(f"trial is not edge-admissible: |u1 - u2| = {edge_gap:g}")

    d = params.delta
    X, Y, W = gauss_2d(trial.box, 140)
    u1, u2 = trial.u1(X, Y), trial.u2(X, Y)
    u1x, u2x = trial.u1x(X, Y), trial.u2x(X, Y)
    u1y, u2y = trial.u1y(X, Y), trial.u2y(X, Y)
    u1xx, u2xx = trial.u1xx(X, Y), trial.u2xx(X, Y)
    row1 = -1j * u1y - u2xx + d * u2
    row2 = -u1xx + d * u1 + 1j * u2y
    lhs = float(np.sum(W * (np.abs(row1) ** 2 + np.abs(row2) ** 2)))
    rhs = 0.0
    for u, ux, uy, uxx in ((u1, u1x, u1y, u1xx), (u2, u2x, u2y, u2xx)):
        rhs += float(
            np.sum(
                W
                * (
                    np.abs(uy) ** 2
                    + np.abs(uxx) ** 2
                    + 2.0 * d * np.abs(ux) ** 2
                    + d * d * np.abs(u) ** 2
                )
            )
        )
    return {"lhs": lhs, "rhs": rhs, "rel_err": abs(lhs - rhs) / max(abs(rhs), 1e-30)}
