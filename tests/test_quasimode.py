"""Analytic trial machinery: Weyl rows, box trinomial, cutoffs, A_eps."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from semidirac import (
    Params,
    PerturbationModel,
    SpinorTrial,
    a_eps_derived,
    aeps_divergence,
    box_energy_analytic,
    box_energy_numeric,
    box_perturbation,
    boundstate_window,
    cutoff_derivative_integrals,
    cutoff_g,
    cutoff_profile,
    cutoff_row,
    disk_perturbation,
    eps_threshold,
    fit_slope,
    product_bump,
    square_identity_residual,
    standard_trials,
    trial_energy,
    weyl_momentum,
    weyl_rows,
)
from semidirac import quasimode
from semidirac.cli import cmd_quasimode, parse_config
from semidirac.quasimode import (
    BUMP_SUPPORT,
    gauss_1d,
    gauss_2d,
    mollifier,
    mollifier_d1,
    mollifier_d2,
    profile_deriv_integrals,
    weyl_evidence,
)

P1 = Params(1.0)
P2 = Params(2.0)


# ---------------------------------------------------------------------------
# quadrature and the bump


def test_gauss_rules_are_exact_on_polynomials():
    x, w = gauss_1d(0.0, 2.0, 6)
    assert np.sum(w * x**3) == pytest.approx(4.0, rel=1e-14)
    X, Y, W = gauss_2d((0.0, 1.0, 0.0, 2.0), 4)
    assert np.sum(W * X * Y) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        gauss_1d(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        gauss_1d(0.0, 1.0, 0)


@pytest.mark.parametrize("m", [1, 6, 64, 80, 120, 160, 240])
@pytest.mark.parametrize("a,b", [(0.0, 2.0), (-2.5, 2.5), (1.2, 3.7)])
def test_gauss_1d_is_the_mapped_leggauss_bit_for_bit(m, a, b):
    t, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (b - a)
    for _ in range(2):  # the first call may fill the cache, the second reads it
        x, wx = gauss_1d(a, b, m)
        assert np.array_equal(x.view(np.uint64), (a + half * (t + 1.0)).view(np.uint64))
        assert np.array_equal(wx.view(np.uint64), (half * w).view(np.uint64))


def test_cached_unit_rules_refuse_writes():
    for arr in quasimode._unit_rule(80):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # the mapped rule is the caller's own array
    x, w = gauss_1d(0.0, 1.0, 80)
    x[0] = w[0] = 0.0
    assert gauss_1d(0.0, 1.0, 80)[0][0] != 0.0


def test_quasimode_solves_each_gauss_order_once(monkeypatch):
    calls = Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(m):
        calls[m] += 1
        return leggauss(m)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    quasimode._unit_rule.cache_clear()
    cmd_quasimode(parse_config({"params": {"delta": 1.0}}))
    assert calls and max(calls.values()) == 1


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


def test_bump_normalization_and_partials():
    f, fx, fy, fxx = product_bump()
    X, Y, W = gauss_2d(BUMP_SUPPORT, 200)
    assert np.sum(W * f(X, Y) ** 2) == pytest.approx(0.5, rel=1e-8)
    # partials agree with finite differences inside the support
    x0, x1, y0, y1 = BUMP_SUPPORT
    rng = np.random.default_rng(4)
    xs = x0 + (x1 - x0) * rng.uniform(0.2, 0.8, size=8)
    ys = y0 + (y1 - y0) * rng.uniform(0.2, 0.8, size=8)
    h = 1e-6
    fx_fd = (f(xs + h, ys) - f(xs - h, ys)) / (2.0 * h)
    fy_fd = (f(xs, ys + h) - f(xs, ys - h)) / (2.0 * h)
    fxx_fd = (f(xs + h, ys) - 2.0 * f(xs, ys) + f(xs - h, ys)) / h**2
    assert np.max(np.abs(fx(xs, ys) - fx_fd)) < 1e-6
    assert np.max(np.abs(fy(xs, ys) - fy_fd)) < 1e-6
    assert np.max(np.abs(fxx(xs, ys) - fxx_fd)) < 2e-3
    assert f(np.array([x1 + 1.0]), np.array([0.5 * (y0 + y1)]))[0] == 0.0


# ---------------------------------------------------------------------------
# Weyl rows


def test_weyl_trial_validation():
    assert weyl_momentum(1.0, P1) == 0.0
    assert weyl_momentum(-5.0, P1) == pytest.approx(2.0)
    assert weyl_momentum(6.0, P2) == pytest.approx(2.0)
    rows = weyl_rows([5.0, -5.0], [4], P1)
    assert [(r["k"], r["branch"]) for r in rows] == [(2.0, 1), (2.0, -1)]
    with pytest.raises(ValueError, match="gap"):
        weyl_momentum(0.5, P1)
    with pytest.raises(ValueError, match="gap"):
        weyl_rows([2.0, -0.5], [4], P1)
    with pytest.raises(ValueError, match="positive integer"):
        weyl_rows([2.0], [4, 0], P1)


@pytest.mark.parametrize("mu", [1.0, 2.0, 5.0, -1.0, -2.0, -5.0])
@pytest.mark.parametrize("n", [4, 16])
def test_weyl_residual_never_exceeds_bound(mu, n):
    (row,) = weyl_rows([mu], [n], P1)
    assert 0.0 < row["residual"] <= row["bound_rhs"] * (1.0 + 1e-9)


def test_weyl_bound_saturates_at_band_edge():
    # k = 0 kills the cross term, so the bound is tight there
    for row in weyl_rows([1.0], [8, 32], P1):
        assert row["k"] == 0.0
        assert row["residual"] == pytest.approx(row["bound_rhs"], rel=1e-12)


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
    ip2, ipp2 = profile_deriv_integrals()
    assert ip2 == pytest.approx(600.0 / 143.0, rel=1e-12)
    assert ipp2 == pytest.approx(1632960.0 / 3773.0, rel=1e-12)


def test_cutoff_plateau_values():
    n = 16
    r = np.array([0.5, 4.0, 16.0])
    assert np.all(cutoff_g(n, r) == 1.0)
    assert np.all(cutoff_g(n, np.array([256.0, 400.0])) == 0.0)
    assert np.array_equal(cutoff_profile(np.array([0.0, 1.0 / 9.0, 0.5, 1.0])), [0.0, 0.0, 1.0, 1.0])
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


def test_first_derivative_identity_matches_the_smoothstep_rational():
    # Ix = (pi/2) int g'^2 / ln n, and int g'^2 = 600/143 for the smoothstep
    for n in (4, 16, 64):
        ix, iy, _ = cutoff_derivative_integrals(n)
        assert ix == iy
        assert ix == pytest.approx(0.5 * np.pi * (600.0 / 143.0) / np.log(n), rel=1e-10)
    with pytest.raises(ValueError, match=">= 2"):
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
            paper = aeps_divergence(model, eps, p)["a_eps_paper"]
            assert paper == pytest.approx(want, abs=1e-12)
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
    # the derived variant is a_eps_derived bit for bit
    assert rep["a_eps_derived"] == a_eps_derived(model, 0.3, P1)
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


def test_quadrature_orders_are_frozen():
    """The A_eps rule (order 120) and the Weyl rule (order 80), frozen at
    rel 1e-12: lowering either order by 20 moves these values by about
    1e-10, which the rel 1e-9 frozen values elsewhere let through."""
    thr = eps_threshold(disk_perturbation(), P1)
    assert thr == pytest.approx(7.912531088670336, rel=1e-12)
    (row,) = weyl_rows([2.0], [8], P1)
    assert row["residual"] == pytest.approx(0.28173131465756823, rel=1e-12)


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


def _weyl_table(slope, residual_scale=1.0, bound=1.0):
    return [{"n": n, "mu": mu, "residual": residual_scale * n**slope, "bound_rhs": bound}
            for mu in (2.0, -5.0) for n in (8, 16, 32)]


@pytest.mark.parametrize("slope,in_band", [(-1.0, True), (-0.9, False), (-1.1, False)])
def test_weyl_slope_band(slope, in_band):
    slopes, checks = weyl_evidence(_weyl_table(slope))
    assert list(slopes) == ["2", "-5"]
    assert all(s == pytest.approx(slope, rel=1e-12) for s in slopes.values())
    assert checks == {"weyl_residuals_below_bound": True, "weyl_slopes_near_inverse_n": in_band}


def test_weyl_residual_above_its_bound_fails():
    _, checks = weyl_evidence(_weyl_table(-1.0, residual_scale=8.0 * (1.0 + 1e-6)))
    assert checks["weyl_residuals_below_bound"] is False
    _, checks = weyl_evidence(_weyl_table(-1.0, residual_scale=8.0))
    assert checks["weyl_residuals_below_bound"] is True

