"""Quadrature-side checks: trial states evaluated from closed forms.

Everything in this module works with analytic expressions integrated by
Gauss-Legendre rules.  Nothing here touches the assembled matrices; the
point is to have an independent route to the same physics so the grid
side and the analytic side can be compared without shared failure modes.

Contents:

* Weyl trial states (u, +-u) with u = phi_n(x, y) exp(ikx) built from a
  compactly supported bump, whose residual against mu = +-(delta + k^2)
  decays like 1/n and never exceeds the closed-form bound.
* Separable sine trials on a box well, whose squared energy is an exact
  trinomial in the well depth; its negativity window predicts bound
  states in the gap.
* The logarithmic annular cutoff g_n and its derivative integrals, which
  quantify how cheaply a trial can be spread to infinity in 2D.
* The second-order perturbation energy A_eps for an off-diagonal
  Hermitian multiplication perturbation, in two variants (as printed and
  as rederived), the threshold eps where it first turns negative, and
  the g_n-localized trial energies that converge to it.
* The square identity ||Tu||^2 = ||dy u||^2 + ||dxx u||^2
  + 2 delta ||dx u||^2 + delta^2 ||u||^2 on edge-admissible spinors.
  (The first-order term is the y-derivative alone: expanding the rows
  of T produces no standalone ||dx u||^2, as the proof of the identity
  makes explicit even where the statement abbreviates it as a gradient.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Grid2D, Params, PerturbationField


# ---------------------------------------------------------------------------
# quadrature helpers


def gauss_1d(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    if not m >= 1:
        raise ValueError(f"need at least one node, got {m}")
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    t, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), half * w


def gauss_2d(box, mx: int, my: int):
    """Tensor Gauss-Legendre rule on box = (x0, x1, y0, y1).

    Returns (X, Y, W) flattened; sum(W * f(X, Y)) approximates the integral.
    """
    x0, x1, y0, y1 = box
    xs, wx = gauss_1d(x0, x1, mx)
    ys, wy = gauss_1d(y0, y1, my)
    X, Y = np.meshgrid(xs, ys)
    W = np.outer(wy, wx)
    return X.ravel(), Y.ravel(), W.ravel()


# ---------------------------------------------------------------------------
# compactly supported bumps


def mollifier(t):
    """exp(-1/(1-t^2)) on |t| < 1, extended by zero."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    s = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - s * s))
    return out


def mollifier_d1(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    s = t[inside]
    q = 1.0 - s * s
    out[inside] = np.exp(-1.0 / q) * (-2.0 * s / q**2)
    return out


def mollifier_d2(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    s = t[inside]
    q = 1.0 - s * s
    out[inside] = np.exp(-1.0 / q) * (4.0 * s * s / q**4 - (2.0 + 6.0 * s * s) / q**3)
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Real C^infinity profile phi with analytic partials and compact support.

    support is the bounding box (x0, x1, y0, y1); the profile vanishes
    outside it (with all derivatives).  Profiles are normalized so that
    ||phi||_{L^2} = 1/sqrt(2), making the spinor (phi, +-phi) unit norm.
    """

    f: Callable
    fx: Callable
    fy: Callable
    fxx: Callable
    support: tuple
    label: str


def _normalize_bump(f, fx, fy, fxx, support, label, order=160) -> BumpProfile:
    X, Y, W = gauss_2d(support, order, order)
    nrm2 = float(np.sum(W * f(X, Y) ** 2))
    c = np.sqrt(0.5 / nrm2)
    return BumpProfile(
        f=lambda x, y: c * f(x, y),
        fx=lambda x, y: c * fx(x, y),
        fy=lambda x, y: c * fy(x, y),
        fxx=lambda x, y: c * fxx(x, y),
        support=support,
        label=label,
    )


def product_bump(x_halfwidth: float = 2.5, center=(0.0, 2.0)) -> BumpProfile:
    """Separable mollifier bump m((x-cx)/wx) * m(y-cy), y-halfwidth 1.

    The wide-in-x shape keeps the second x-derivative small relative to
    the first-order terms, so the 1/n residual decay of the Weyl trials
    is visible already at n = 8 without contamination from the 1/n^2
    curvature term.
    """
    cx, cy = center
    wx = float(x_halfwidth)
    if wx <= 0.0:
        raise ValueError(f"x_halfwidth must be positive, got {wx}")
    if cy - 1.0 < 0.0:
        raise ValueError(f"support dips below the edge: center y = {cy}")

    def f(x, y):
        return mollifier((x - cx) / wx) * mollifier(y - cy)

    def fx(x, y):
        return mollifier_d1((x - cx) / wx) * mollifier(y - cy) / wx

    def fy(x, y):
        return mollifier((x - cx) / wx) * mollifier_d1(y - cy)

    def fxx(x, y):
        return mollifier_d2((x - cx) / wx) * mollifier(y - cy) / wx**2

    support = (cx - wx, cx + wx, cy - 1.0, cy + 1.0)
    return _normalize_bump(f, fx, fy, fxx, support, f"product(wx={wx:g})")


def disk_bump(center=(0.0, 2.0), radius: float = 1.0) -> BumpProfile:
    """Radial mollifier m(r/R) on a disk.

    Kept as an alternative profile; its curvature integral is large
    enough that the 1/n Weyl slope only emerges at larger n than the
    default product bump needs.
    """
    cx, cy = center
    R = float(radius)
    if R <= 0.0:
        raise ValueError(f"radius must be positive, got {R}")
    if cy - R < 0.0:
        raise ValueError(f"disk dips below the edge: center y = {cy}, radius {R}")
    m2_at_0 = float(mollifier_d2(np.array([0.0]))[0])

    def parts(x, y):
        dx, dy = x - cx, y - cy
        r = np.hypot(dx, dy)
        return dx, dy, r, np.where(r < 1e-12, 1.0, r)

    def f(x, y):
        _, _, r, _ = parts(x, y)
        return mollifier(r / R)

    def fx(x, y):
        dx, _, r, rs = parts(x, y)
        return mollifier_d1(r / R) * dx / (rs * R)

    def fy(x, y):
        _, dy, r, rs = parts(x, y)
        return mollifier_d1(r / R) * dy / (rs * R)

    def fxx(x, y):
        dx, dy, r, rs = parts(x, y)
        val = mollifier_d2(r / R) * dx**2 / (rs * R) ** 2 + mollifier_d1(
            r / R
        ) * dy**2 / (rs**3 * R)
        return np.where(r < 1e-12, m2_at_0 / R**2, val)

    support = (cx - R, cx + R, cy - R, cy + R)
    return _normalize_bump(f, fx, fy, fxx, support, f"disk(R={R:g})")


# ---------------------------------------------------------------------------
# Weyl trials at mu = +-(delta + k^2)


@dataclass(frozen=True)
class WeylTrial:
    """Spinor (u, sign*u), u = phi_n exp(ikx), phi_n = phi(./n)/n."""

    mu: float
    n: int
    k: float
    sign: int
    bump: BumpProfile


def weyl_trial(mu: float, n: int, params: Params, bump: BumpProfile | None = None) -> WeylTrial:
    if abs(mu) < params.delta:
        raise ValueError(
            f"mu = {mu} lies inside the spectral gap (-{params.delta}, {params.delta})"
        )
    if n < 1:
        raise ValueError(f"scale n must be a positive integer, got {n}")
    if bump is None:
        bump = product_bump()
    k = float(np.sqrt(abs(mu) - params.delta))
    return WeylTrial(mu=float(mu), n=int(n), k=k, sign=1 if mu > 0 else -1, bump=bump)


def _check_branch(trial: WeylTrial, params: Params) -> None:
    want = trial.sign * (params.delta + trial.k**2)
    if abs(trial.mu - want) > 1e-12 * max(abs(trial.mu), 1.0):
        raise ValueError(
            f"trial is inconsistent with delta={params.delta}: "
            f"mu={trial.mu} but sign*(delta+k^2)={want}"
        )


def weyl_residual(trial: WeylTrial, params: Params, order: int = 80) -> float:
    """|| (T - mu) psi_n || by quadrature of the closed-form integrand.

    After the exact substitution (x, y) = (nX, nY) the integrand lives on
    the base support; derivatives of phi are analytic.  Both branches
    give the same value: the sign flips swap the two rows.
    """
    _check_branch(trial, params)
    b, n, k = trial.bump, trial.n, trial.k
    X, Y, W = gauss_2d(b.support, order, order)
    gy, gx, gxx = b.fy(X, Y), b.fx(X, Y), b.fxx(X, Y)
    integrand = ((gy + 2.0 * k * gx) ** 2 + (gy - 2.0 * k * gx) ** 2) / n**2
    integrand = integrand + 2.0 * gxx**2 / n**4
    return float(np.sqrt(np.sum(W * integrand)))


def weyl_bound(trial: WeylTrial, params: Params, order: int = 80) -> float:
    """Closed-form bound sqrt(2||dy phi_n||^2 + 2||dxx phi_n||^2 + 8k^2||dx phi_n||^2).

    For real profiles the residual attains this value exactly (the cross
    terms cancel between the two rows), so the two only differ by
    quadrature accumulation order.
    """
    _check_branch(trial, params)
    b, n, k = trial.bump, trial.n, trial.k
    X, Y, W = gauss_2d(b.support, order, order)
    ny2 = float(np.sum(W * b.fy(X, Y) ** 2))
    nx2 = float(np.sum(W * b.fx(X, Y) ** 2))
    nxx2 = float(np.sum(W * b.fxx(X, Y) ** 2))
    return float(np.sqrt(2.0 * (ny2 + 4.0 * k * k * nx2) / n**2 + 2.0 * nxx2 / n**4))


def weyl_rows(mus, ns, params: Params, bump: BumpProfile | None = None, order: int = 80):
    """Residual table rows over (mu, n); columns match the weyl CSV schema."""
    if bump is None:
        bump = product_bump()
    rows = []
    for mu in mus:
        for n in ns:
            trial = weyl_trial(mu, n, params, bump)
            rows.append(
                {
                    "n": trial.n,
                    "k": trial.k,
                    "mu": trial.mu,
                    "branch": trial.sign,
                    "residual": weyl_residual(trial, params, order),
                    "bound_rhs": weyl_bound(trial, params, order),
                }
            )
    return rows


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


@dataclass(frozen=True)
class BoxTrial:
    """Ground sine mode of [a, b] in each variable, psi = u(x) u(y)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"empty box [{self.a}, {self.b}]")

    @property
    def lambda1(self) -> float:
        return float(np.pi**2 / (self.b - self.a) ** 2)

    def mode(self, z):
        L = self.b - self.a
        return np.sqrt(2.0 / L) * np.sin(np.pi * (z - self.a) / L)

    def mode_d1(self, z):
        L = self.b - self.a
        return np.sqrt(2.0 / L) * (np.pi / L) * np.cos(np.pi * (z - self.a) / L)


def box_energy_analytic(a: float, b: float, v0: float, params: Params) -> float:
    """||H psi||^2 - delta^2 ||psi||^2 as an exact trinomial in the depth v0.

    The sine mode turns -dxx into multiplication by lambda1 on the box,
    and the trial vanishes outside, so the whole energy collapses to
    2 v0^2 + 4 (lambda1 + delta) v0 + 2 lambda1 + 4 delta lambda1
    + 2 lambda1^2.
    """
    lam = BoxTrial(a, b).lambda1
    d = params.delta
    return 2.0 * v0**2 + 4.0 * (lam + d) * v0 + 2.0 * lam + 4.0 * d * lam + 2.0 * lam**2


def box_energy_numeric(a: float, b: float, v0: float, params: Params, order: int = 60) -> float:
    """Same energy by tensor quadrature with analytic sine-mode derivatives."""
    trial = BoxTrial(a, b)
    lam, d = trial.lambda1, params.delta
    X, Y, W = gauss_2d((a, b, a, b), order, order)
    ux, uy = trial.mode(X), trial.mode(Y)
    dpsi_y = ux * trial.mode_d1(Y)
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
    lam = BoxTrial(a, b).lambda1
    d = params.delta
    disc = d * d - lam
    if disc <= 0.0:
        return None
    s = float(np.sqrt(disc))
    return (-(lam + d) - s, -(lam + d) + s)


# ---------------------------------------------------------------------------
# annular logarithmic cutoff


@dataclass(frozen=True)
class CutoffProfile:
    """Transition profile g on [0, 1] with g = 0 below lo and g = 1 above hi."""

    g: Callable
    gp: Callable
    gpp: Callable
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise ValueError(f"bad knots: lo = {self.lo}, hi = {self.hi}")
        for t, want in ((0.0, 0.0), (1.0, 1.0)):
            got = float(np.asarray(self.g(np.array([t])))[0])
            if abs(got - want) > 1e-12:
                raise ValueError(f"profile must satisfy g({t}) = {want}, got {got}")


def smoothstep_profile(lo: float = 1.0 / 9.0, hi: float = 0.5) -> CutoffProfile:
    """Degree-7 smoothstep between the knots; C^3 across both junctions.

    s(tau) = 35 tau^4 - 84 tau^5 + 70 tau^6 - 20 tau^7 has three vanishing
    derivatives at each end, enough smoothness for every integral used
    here while keeping all derivative integrals exact rationals.
    """
    h = hi - lo

    def tau_of(t):
        return np.clip((np.asarray(t, dtype=np.float64) - lo) / h, 0.0, 1.0)

    def g(t):
        s = tau_of(t)
        return s**4 * (35.0 - 84.0 * s + 70.0 * s**2 - 20.0 * s**3)

    def gp(t):
        s = tau_of(t)
        return 140.0 * s**3 * (1.0 - s) ** 3 / h

    def gpp(t):
        s = tau_of(t)
        return 420.0 * s**2 * (1.0 - s) ** 2 * (1.0 - 2.0 * s) / h**2

    return CutoffProfile(g=g, gp=gp, gpp=gpp, lo=lo, hi=hi)


def profile_deriv_integrals(profile: CutoffProfile, order: int = 64) -> tuple[float, float]:
    """(integral of g'^2, integral of g''^2) over the transition interval."""
    t, w = gauss_1d(profile.lo, profile.hi, order)
    return float(np.sum(w * profile.gp(t) ** 2)), float(np.sum(w * profile.gpp(t) ** 2))


def _check_plateaus(profile: CutoffProfile) -> None:
    """Reject profiles that are not flat outside their transition band.

    The radial quadrature below integrates only over t in [lo, hi]; a
    profile that still moves on the plateaus would silently lose mass.
    """
    for lo, hi, level, name in (
        (0.0, profile.lo, 0.0, "outer"),
        (profile.hi, 1.0, 1.0, "inner"),
    ):
        if hi - lo <= 0.0:
            continue
        t = np.linspace(lo, hi, 33)
        if np.max(np.abs(profile.g(t) - level)) > 1e-12 or np.max(np.abs(profile.gp(t))) > 1e-12:
            raise ValueError(f"profile violates the {name} plateau g = {level} on [{lo}, {hi}]")
    t = np.linspace(profile.lo, profile.hi, 257)
    g = profile.g(t)
    if np.min(g) < -1e-12 or np.max(g) > 1.0 + 1e-12:
        raise ValueError("profile leaves [0, 1] on the transition band")


def cutoff_g(n: int, r, profile: CutoffProfile | None = None):
    """g_n(r): 1 up to r = n, g(ln(n^2/r)/ln n) out to r = n^2, then 0."""
    if profile is None:
        profile = smoothstep_profile()
    if n < 2:
        raise ValueError(f"cutoff scale n must be >= 2, got {n}")
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    out[r <= n] = 1.0
    mid = (r > n) & (r < n**2)
    t = np.log(n**2 / r[mid]) / np.log(n)
    out[mid] = profile.g(t)
    return out


def cutoff_derivative_integrals(
    n: int, profile: CutoffProfile | None = None, quad_order: int = 240
) -> tuple[float, float, float]:
    """(Ix, Iy, Ixx) for g_n over the half-plane by radial quadrature.

    Ix = int |dx g_n|^2 and Iy likewise are equal by the quarter-turn
    symmetry of the half-annulus, so one radial quadrature serves both.
    The integrals run in s = ln r over the active band where g varies;
    there the integrand is analytic, and the log substitution keeps the
    node count independent of n.
    """
    if profile is None:
        profile = smoothstep_profile()
    if n < 2:
        raise ValueError(f"cutoff scale n must be >= 2, got {n}")
    _check_plateaus(profile)
    ln = np.log(float(n))
    # active band in s = ln r: g varies for t in [lo, hi], t = 2 - s/ln n
    s_lo, s_hi = (2.0 - profile.hi) * ln, (2.0 - profile.lo) * ln
    s, w = gauss_1d(s_lo, s_hi, quad_order)
    t = 2.0 - s / ln
    r = np.exp(s)
    gp, gpp = profile.gp(t), profile.gpp(t)
    G1 = -gp / (r * ln)
    G2 = gpp / (r**2 * ln**2) + gp / (r**2 * ln)
    int_G1sq_r = float(np.sum(w * G1**2 * r**2))   # int G'^2 r dr
    int_G2sq_r = float(np.sum(w * G2**2 * r**2))   # int G''^2 r dr
    int_cross = float(np.sum(w * G1 * G2 * r))     # int G' G'' dr
    int_G1sq_over_r = float(np.sum(w * G1**2))     # int G'^2 / r dr
    ix = 0.5 * np.pi * int_G1sq_r
    ixx = (3.0 * np.pi / 8.0) * (int_G2sq_r + int_G1sq_over_r) + (np.pi / 4.0) * int_cross
    return ix, ix, ixx


def cutoff_row(n: int, profile: CutoffProfile | None = None, order: int = 240) -> dict:
    """Derivative integrals of g_n with their closed-form checks attached.

    first_deriv_identity_rel_err compares Ix against the exact identity
    (pi/2) (1/ln n) int g'^2 dt.  second_deriv_bound_slack is the margin
    of Ixx under (3 pi/4) n^-2 (ln n)^-3 int g''^2 + pi n^-2 (ln n)^-1
    int g'^2; both quantities must come out nonnegative for the spreading
    argument to close.
    """
    if profile is None:
        profile = smoothstep_profile()
    ix, iy, ixx = cutoff_derivative_integrals(n, profile, order)
    ln = np.log(float(n))
    ip2, ipp2 = profile_deriv_integrals(profile)
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

    def w21(self, x, y):
        return np.conj(np.asarray(self.w12(x, y)))

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


def _aeps_fields(model: PerturbationModel, order: int):
    X, Y, W = gauss_2d(model.support, order, order)
    return (
        X,
        Y,
        W,
        np.real(model.w11(X, Y)),
        np.asarray(model.w12(X, Y), dtype=np.complex128),
        np.real(model.w22(X, Y)),
    )


def a_eps_derived(model: PerturbationModel, eps: float, params: Params, order: int = 120) -> float:
    """Second-order trial energy density integrated over the support.

    Rederived form: the rows of (T + eps W - shift) acting on the
    constant-direction trial contribute |delta + eps w11 + eps Re w12|^2
    + eps^2 (Im w12)^2 and the mirrored row term, minus the free value
    2 delta^2.  This is the variant the trial energies converge to.
    """
    _, _, W, w11, w12, w22 = _aeps_fields(model, order)
    w21 = np.conj(w12)
    d = params.delta
    row1 = (d + eps * w11 + eps * w12.real) ** 2 + (eps * w12.imag) ** 2
    row2 = (d + eps * w22 + eps * w21.real) ** 2 + (eps * w21.imag) ** 2
    return float(np.sum(W * (row1 + row2 - 2.0 * d * d)))


def a_eps_paper(model: PerturbationModel, eps: float, params: Params, order: int = 120) -> float:
    """The energy as printed: eps^2 times the algebraic squares of the
    entries (w12^2, not |w12|^2, and the w22 term enters unsquared)
    plus the 4 delta eps Re w12 cross term.

    For Hermitian entries the w12^2 + w21^2 pair sums to the real
    quantity 2 Re(w12^2), which differs from 2 |w12|^2 as soon as w12
    has an imaginary part.  Agrees with a_eps_derived exactly when the
    diagonal entries vanish and w12 is real; the difference is flagged
    by aeps_divergence.
    """
    _, _, W, w11, w12, w22 = _aeps_fields(model, order)
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


def aeps_divergence(model: PerturbationModel, eps: float, params: Params,
                    order: int = 120, rtol: float = 1e-9) -> dict:
    """Evaluate both variants and flag a relative gap above rtol."""
    paper = a_eps_paper(model, eps, params, order)
    derived = a_eps_derived(model, eps, params, order)
    scale = max(abs(paper), abs(derived), 1e-30)
    return {
        "a_eps_paper": paper,
        "a_eps_derived": derived,
        "rel_gap": abs(paper - derived) / scale,
        "diverges": abs(paper - derived) > rtol * scale,
    }


def eps_threshold(model: PerturbationModel, params: Params, order: int = 120) -> float:
    """Coupling where the quadratic-in-eps energy first dips negative.

    eps* = -4 delta int Re w12 / int sum |w_ij|^2.  Requires an
    attractive coupling, int Re w12 < 0; otherwise no positive eps
    makes the energy negative and the request is an error.
    """
    _, _, W, w11, w12, w22 = _aeps_fields(model, order)
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


def trial_energy(model: PerturbationModel, eps: float, params: Params, n: int,
                 profile: CutoffProfile | None = None, order: int = 120) -> float:
    """A_eps localized by the cutoff: same integrand weighted by g_n^2.

    Only the support of the perturbation contributes (the free integrand
    vanishes identically), so once the plateau of g_n covers the support
    the value equals a_eps_derived exactly.
    """
    X, Y, W, w11, w12, w22 = _aeps_fields(model, order)
    w21 = np.conj(w12)
    d = params.delta
    g2 = cutoff_g(n, np.hypot(X, Y), profile) ** 2
    row1 = (d + eps * w11 + eps * w12.real) ** 2 + (eps * w12.imag) ** 2
    row2 = (d + eps * w22 + eps * w21.real) ** 2 + (eps * w21.imag) ** 2
    return float(np.sum(W * g2 * (row1 + row2 - 2.0 * d * d)))


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

    t1 = SpinorTrial(
        u1=lambda x, y: y * G(x, y),
        u1x=lambda x, y: -2.0 * x * y * G(x, y),
        u1y=lambda x, y: (1.0 - 2.0 * y * (y - 1.0)) * G(x, y),
        u1xx=lambda x, y: (4.0 * x**2 - 2.0) * y * G(x, y),
        u2=lambda x, y: y * G(x, y),
        u2x=lambda x, y: -2.0 * x * y * G(x, y),
        u2y=lambda x, y: (1.0 - 2.0 * y * (y - 1.0)) * G(x, y),
        u2xx=lambda x, y: (4.0 * x**2 - 2.0) * y * G(x, y),
        box=(-7.0, 7.0, 0.0, 8.0),
        label="edge-vanishing gaussian",
    )
    t2 = SpinorTrial(
        u1=G,
        u1x=lambda x, y: -2.0 * x * G(x, y),
        u1y=lambda x, y: -2.0 * (y - 1.0) * G(x, y),
        u1xx=lambda x, y: (4.0 * x**2 - 2.0) * G(x, y),
        u2=G,
        u2x=lambda x, y: -2.0 * x * G(x, y),
        u2y=lambda x, y: -2.0 * (y - 1.0) * G(x, y),
        u2xx=lambda x, y: (4.0 * x**2 - 2.0) * G(x, y),
        box=(-7.0, 7.0, 0.0, 8.0),
        label="edge-flat gaussian",
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


def square_identity_residual(trial: SpinorTrial, params: Params, order: int = 140) -> dict:
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
    X, Y, W = gauss_2d(trial.box, order, order)
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
