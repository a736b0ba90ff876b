"""Analytic trial machinery: Weyl rows, box trinomial, cutoffs, A_eps."""

from __future__ import annotations

import numpy as np
import pytest

from semidirac import (
    CutoffProfile,
    Params,
    PerturbationModel,
    SpinorTrial,
    a_eps_derived,
    a_eps_paper,
    aeps_divergence,
    box_energy_analytic,
    box_energy_numeric,
    box_perturbation,
    boundstate_window,
    cutoff_derivative_integrals,
    cutoff_g,
    cutoff_row,
    disk_bump,
    disk_perturbation,
    eps_threshold,
    fit_slope,
    product_bump,
    smoothstep_profile,
    square_identity_residual,
    standard_trials,
    trial_energy,
    weyl_bound,
    weyl_residual,
    weyl_rows,
    weyl_trial,
)
from semidirac.quasimode import (
    gauss_1d,
    gauss_2d,
    mollifier,
    mollifier_d1,
    mollifier_d2,
    profile_deriv_integrals,
)

P1 = Params(1.0)
P2 = Params(2.0)


# ---------------------------------------------------------------------------
# quadrature and bumps


def test_gauss_rules_are_exact_on_polynomials():
    x, w = gauss_1d(0.0, 2.0, 6)
    assert np.sum(w * x**3) == pytest.approx(4.0, rel=1e-14)
    X, Y, W = gauss_2d((0.0, 1.0, 0.0, 2.0), 4, 4)
    assert np.sum(W * X * Y) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        gauss_1d(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        gauss_1d(0.0, 1.0, 0)


def test_mollifier_support_and_derivatives():
    assert mollifier(0.0) == pytest.approx(np.exp(-1.0))
    assert mollifier(1.0) == 0.0 and mollifier(-1.2) == 0.0
    ts = np.linspace(-0.95, 0.95, 21)
    h = 1e-6
    d1_fd = (mollifier(ts + h) - mollifier(ts - h)) / (2.0 * h)
    assert np.max(np.abs(mollifier_d1(ts) - d1_fd)) < 1e-7
    d2_fd = (mollifier_d1(ts + h) - mollifier_d1(ts - h)) / (2.0 * h)
    assert np.max(np.abs(mollifier_d2(ts) - d2_fd)) < 1e-6
    # odd first derivative
    assert np.allclose(mollifier_d1(ts), -mollifier_d1(-ts))


@pytest.mark.parametrize("bump", [product_bump(), disk_bump()])
def test_bump_normalization_and_partials(bump):
    X, Y, W = gauss_2d(bump.support, 200, 200)
    assert np.sum(W * bump.f(X, Y) ** 2) == pytest.approx(0.5, rel=1e-8)
    # partials agree with finite differences inside the support
    x0, x1, y0, y1 = bump.support
    rng = np.random.default_rng(4)
    xs = x0 + (x1 - x0) * rng.uniform(0.2, 0.8, size=8)
    ys = y0 + (y1 - y0) * rng.uniform(0.2, 0.8, size=8)
    h = 1e-6
    fx_fd = (bump.f(xs + h, ys) - bump.f(xs - h, ys)) / (2.0 * h)
    fy_fd = (bump.f(xs, ys + h) - bump.f(xs, ys - h)) / (2.0 * h)
    fxx_fd = (bump.f(xs + h, ys) - 2.0 * bump.f(xs, ys) + bump.f(xs - h, ys)) / h**2
    assert np.max(np.abs(bump.fx(xs, ys) - fx_fd)) < 1e-6
    assert np.max(np.abs(bump.fy(xs, ys) - fy_fd)) < 1e-6
    assert np.max(np.abs(bump.fxx(xs, ys) - fxx_fd)) < 2e-3
    assert bump.f(np.array([x1 + 1.0]), np.array([0.5 * (y0 + y1)]))[0] == 0.0


# ---------------------------------------------------------------------------
# Weyl rows


def test_weyl_trial_validation():
    assert weyl_trial(1.0, 4, P1).k == 0.0
    assert weyl_trial(-5.0, 4, P1).sign == -1
    assert weyl_trial(5.0, 4, P1).k == pytest.approx(2.0)
    with pytest.raises(ValueError, match="gap"):
        weyl_trial(0.5, 4, P1)
    with pytest.raises(ValueError):
        weyl_trial(2.0, 0, P1)


def test_weyl_rejects_mismatched_branch_parameters():
    trial = weyl_trial(2.0, 8, P1)
    with pytest.raises(ValueError, match="inconsistent"):
        weyl_residual(trial, P2)
    with pytest.raises(ValueError, match="inconsistent"):
        weyl_bound(trial, P2)


@pytest.mark.parametrize("mu", [1.0, 2.0, 5.0, -1.0, -2.0, -5.0])
@pytest.mark.parametrize("n", [4, 16])
def test_weyl_residual_never_exceeds_bound(mu, n):
    trial = weyl_trial(mu, n, P1)
    r = weyl_residual(trial, P1)
    b = weyl_bound(trial, P1)
    assert 0.0 < r <= b * (1.0 + 1e-9)


def test_weyl_bound_saturates_at_band_edge():
    # k = 0 kills the cross term, so the bound is tight there
    for n in (8, 32):
        trial = weyl_trial(1.0, n, P1)
        assert weyl_residual(trial, P1) == pytest.approx(weyl_bound(trial, P1), rel=1e-12)


def test_weyl_slopes_scale_like_inverse_n():
    ns = [8, 16, 32, 64]
    rows = weyl_rows([1.0, 2.0, 5.0, -1.0, -2.0, -5.0], ns, P1)
    frozen = {
        1.0: -1.0023847709904021,
        2.0: -1.0014570340693725,
        5.0: -1.0006723514703204,
    }
    for mu, want in frozen.items():
        for sgn in (1.0, -1.0):
            sel = [r for r in rows if r["mu"] == sgn * mu]
            assert [r["n"] for r in sel] == ns
            slope = fit_slope(ns, [r["residual"] for r in sel])
            assert slope == pytest.approx(want, rel=1e-9)
            assert -1.05 <= slope <= -0.95


def test_fit_slope_demands_usable_data():
    assert fit_slope([2, 4], [1.0, 0.5]) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        fit_slope([2], [1.0])
    with pytest.raises(ValueError):
        fit_slope([2, 4], [1.0, 0.0])


# ---------------------------------------------------------------------------
# box trinomial


def test_box_energy_trinomial_exact_integers():
    # width pi makes lambda1 = 1, so the trinomial lands on integers
    assert box_energy_analytic(1.0, 1.0 + np.pi, -3.0, P2) == pytest.approx(-6.0, abs=1e-12)
    assert box_energy_analytic(1.0, 1.0 + np.pi, 0.0, P2) == pytest.approx(12.0, abs=1e-12)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("v0", [-5.0, -3.0, -1.0, 0.0, 2.0])
def test_box_energy_numeric_matches_analytic(delta, v0):
    p = Params(delta)
    got = box_energy_numeric(1.0, 1.0 + np.pi, v0, p)
    want = box_energy_analytic(1.0, 1.0 + np.pi, v0, p)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_boundstate_window_roots():
    window = boundstate_window(P2, 1.0, 1.0 + np.pi)
    assert window[0] == pytest.approx(-3.0 - np.sqrt(3.0), abs=1e-12)
    assert window[1] == pytest.approx(-3.0 + np.sqrt(3.0), abs=1e-12)
    for v in window:
        assert abs(box_energy_analytic(1.0, 1.0 + np.pi, v, P2)) < 1e-9
    inside = 0.5 * (window[0] + window[1])
    assert box_energy_analytic(1.0, 1.0 + np.pi, inside, P2) < 0.0
    # lambda1 = delta^2 is the borderline; delta = 1 predicts nothing
    assert boundstate_window(P1, 1.0, 1.0 + np.pi) is None


# ---------------------------------------------------------------------------
# logarithmic cutoff


def test_smoothstep_profile_rational_integrals():
    # degree-7 smoothstep on knots [1/9, 1/2]: both integrals are rationals
    ip2, ipp2 = profile_deriv_integrals(smoothstep_profile())
    assert ip2 == pytest.approx(600.0 / 143.0, rel=1e-12)
    assert ipp2 == pytest.approx(1632960.0 / 3773.0, rel=1e-12)


def test_cutoff_plateau_values():
    n = 16
    r = np.array([0.5, 4.0, 16.0])
    assert np.all(cutoff_g(n, r) == 1.0)
    assert np.all(cutoff_g(n, np.array([256.0, 400.0])) == 0.0)
    mid = cutoff_g(n, np.geomspace(17.0, 255.0, 40))
    assert np.all(np.diff(mid) <= 1e-12)
    assert np.all((mid >= 0.0) & (mid <= 1.0))


def test_cutoff_rows_frozen():
    want = {
        4: (4.7542239249935658, 1.8031376047975867, 22.714023853301523),
        16: (2.3771119624967829, 0.0022622210852465711, 0.2032064932114073),
        64: (1.5847413083311894, 7.1066967361480445e-06, 0.0042277580866973991),
    }
    for n, (ix, ixx, slack) in want.items():
        row = cutoff_row(n)
        assert row["Ix"] == pytest.approx(ix, rel=1e-9)
        assert row["Iy"] == row["Ix"]
        assert row["Ixx"] == pytest.approx(ixx, rel=1e-9)
        assert row["first_deriv_identity_rel_err"] < 1e-12
        assert row["second_deriv_bound_slack"] == pytest.approx(slack, rel=1e-6)
        assert row["second_deriv_bound_slack"] > 0.0


def linear_profile():
    return CutoffProfile(
        g=lambda t: np.asarray(t, dtype=np.float64),
        gp=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        gpp=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
        lo=0.0,
        hi=1.0,
    )


def test_first_derivative_identity_is_profile_agnostic():
    # Ix = (pi/2) int g'^2 / ln n holds for any admissible profile
    for profile in (smoothstep_profile(), smoothstep_profile(0.2, 0.6), linear_profile()):
        ip2, _ = profile_deriv_integrals(profile)
        for n in (4, 16):
            ix, iy, _ = cutoff_derivative_integrals(n, profile)
            assert ix == iy
            assert ix == pytest.approx(0.5 * np.pi * ip2 / np.log(n), rel=1e-10)
    ix16, _, _ = cutoff_derivative_integrals(16, linear_profile())
    assert ix16 == pytest.approx(np.pi / (2.0 * np.log(16.0)), rel=1e-12)


def test_profiles_that_break_admissibility_are_rejected():
    with pytest.raises(ValueError, match="must satisfy"):
        CutoffProfile(
            g=lambda t: np.asarray(t) + 0.5, gp=lambda t: np.ones_like(np.asarray(t)),
            gpp=lambda t: np.zeros_like(np.asarray(t)), lo=0.0, hi=1.0,
        )
    sneaky = CutoffProfile(
        g=lambda t: np.asarray(t, dtype=np.float64),
        gp=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        gpp=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
        lo=0.3,
        hi=0.6,
    )
    with pytest.raises(ValueError, match="outer plateau"):
        cutoff_derivative_integrals(8, sneaky)
    # dips to -0.15 near t = 0.25 and peaks at 1.15 near t = 0.75
    overshoot = CutoffProfile(
        g=lambda t: np.asarray(t) - 0.4 * np.sin(2.0 * np.pi * np.asarray(t)),
        gp=lambda t: 1.0 - 0.8 * np.pi * np.cos(2.0 * np.pi * np.asarray(t)),
        gpp=lambda t: 1.6 * np.pi**2 * np.sin(2.0 * np.pi * np.asarray(t)),
        lo=0.0,
        hi=1.0,
    )
    with pytest.raises(ValueError, match="leaves"):
        cutoff_derivative_integrals(8, overshoot)
    with pytest.raises(ValueError, match="knots"):
        smoothstep_profile(0.7, 0.3)
    with pytest.raises(ValueError):
        cutoff_derivative_integrals(1)


# ---------------------------------------------------------------------------
# perturbation energy


def test_box_model_energy_closed_form():
    # unit-area box at amplitude -1: A(eps) = 2 eps^2 - 4 delta eps exactly
    model = box_perturbation(-1.0, (-0.5, 0.5, 1.0, 2.0))
    for delta in (0.5, 1.0, 2.0):
        p = Params(delta)
        for eps in (0.0, 0.1, 1.0, 3.0):
            want = 2.0 * eps**2 - 4.0 * delta * eps
            assert a_eps_derived(model, eps, p) == pytest.approx(want, abs=1e-12)
            assert a_eps_paper(model, eps, p) == pytest.approx(want, abs=1e-12)
    assert a_eps_derived(model, 0.1, P1) == pytest.approx(-0.38, abs=1e-12)


def test_real_offdiagonal_variants_coincide():
    model = disk_perturbation()
    for eps in (0.5, 2.0):
        rep = aeps_divergence(model, eps, P1)
        assert rep["rel_gap"] < 1e-12
        assert rep["diverges"] is False


def test_complex_coupling_splits_the_variants():
    def w12(x, y):
        inside = (np.abs(x) <= 1.0) & (y >= 0.5) & (y <= 1.5)
        return (-1.0 + 0.7j) * inside.astype(np.complex128)

    def zero(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    model = PerturbationModel(
        w11=zero, w12=w12, w22=zero, support=(-1.0, 1.0, 0.5, 1.5), label="twisted box"
    )
    rep = aeps_divergence(model, 0.3, P1)
    assert rep["diverges"] is True
    assert rep["rel_gap"] > 1e-3
    assert rep["a_eps_paper"] != pytest.approx(rep["a_eps_derived"], rel=1e-6)


def test_support_below_edge_is_rejected():
    def zero(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    with pytest.raises(ValueError, match="edge"):
        PerturbationModel(w11=zero, w12=zero, w22=zero,
                          support=(-1.0, 1.0, -0.5, 1.5), label="bad")
    with pytest.raises(ValueError):
        disk_perturbation(center=(0.0, 5.0), radius=13.0)
    with pytest.raises(ValueError):
        disk_perturbation(radius=-1.0)
    with pytest.raises(ValueError):
        box_perturbation(-1.0, (1.0, 0.0, 0.0, 1.0))


def test_threshold_scales_linearly_for_sharp_boxes():
    model = box_perturbation(-1.0, (-0.5, 0.5, 1.0, 2.0))
    for delta in (1e-3, 1.0, 1e3):
        assert eps_threshold(model, Params(delta)) == pytest.approx(2.0 * delta, rel=1e-12)


def test_threshold_for_smooth_disk_frozen():
    thr = eps_threshold(disk_perturbation(), P1)
    assert thr == pytest.approx(7.9125310886703328, rel=1e-9)
    # mollified entries sit in (0, 1), so the quadratic term shrinks and
    # the threshold lands above the sharp-box value 2 delta
    assert thr > 2.0


def test_threshold_requires_attraction():
    with pytest.raises(ValueError, match="attractive"):
        eps_threshold(box_perturbation(1.0, (-0.5, 0.5, 1.0, 2.0)), P1)
    with pytest.raises(ValueError, match="attractive"):
        eps_threshold(box_perturbation(0.0, (-0.5, 0.5, 1.0, 2.0)), P1)


def test_threshold_separates_energy_signs():
    model = disk_perturbation()
    thr = eps_threshold(model, P1)
    scale = abs(a_eps_derived(model, 0.5 * thr, P1))
    assert a_eps_derived(model, 0.5 * thr, P1) < 0.0
    assert a_eps_derived(model, 1.5 * thr, P1) > 0.0
    assert abs(a_eps_derived(model, thr, P1)) < 1e-9 * scale


def test_localized_trial_energy_converges_to_full_integral():
    model = disk_perturbation()
    eps = 0.5 * eps_threshold(model, P1)
    ref = a_eps_derived(model, eps, P1)
    diffs = {n: abs(trial_energy(model, eps, P1, n) - ref) for n in (8, 16, 32)}
    assert diffs[8] == pytest.approx(0.062738925635926535, rel=1e-6)
    # from n = 16 on the inner plateau covers the support, so the cutoff
    # is invisible and the energies agree to the last bit
    assert diffs[16] <= 1e-12
    assert diffs[32] <= 1e-12


# ---------------------------------------------------------------------------
# square identity


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_square_identity_on_standard_trials(delta):
    p = Params(delta)
    trials = standard_trials()
    assert len(trials) == 3
    for trial in trials:
        rep = square_identity_residual(trial, p)
        assert rep["rel_err"] < 1e-10
        assert rep["lhs"] > 0.0


def test_square_identity_requires_edge_admissibility():
    # needs the edge-flat trial: scaling u2 on an edge-vanishing trial
    # still satisfies u1 = u2 = 0 at y = 0
    base = standard_trials()[1]
    broken = SpinorTrial(
        label="scaled half",
        box=base.box,
        u1=base.u1,
        u2=lambda x, y: 2.0 * base.u2(x, y),
        u1x=base.u1x,
        u2x=lambda x, y: 2.0 * base.u2x(x, y),
        u1y=base.u1y,
        u2y=lambda x, y: 2.0 * base.u2y(x, y),
        u1xx=base.u1xx,
        u2xx=lambda x, y: 2.0 * base.u2xx(x, y),
    )
    with pytest.raises(ValueError, match="edge-admissible"):
        square_identity_residual(broken, P1)
