"""Acceptance gate: one test per headline claim, each printing a
[PASS] line (run with -s to see them) and checking its runtime budget.
"""

from __future__ import annotations

import time

import numpy as np

from semidirac import (
    BoxPotential,
    Grid2D,
    NoPotential,
    Params,
    XOnlyPotential,
    assemble_H,
    assemble_H_eps,
    assemble_square_form,
    assemble_T,
    count_below,
    dense_eigs,
    gap_eigs,
    nearest_eigenvalues,
)
from semidirac.cli import render_csv
from semidirac.fiber import fiber_edge, fiber_operator, union_edge
from semidirac.quasimode import (
    a_eps_derived,
    a_eps_paper,
    box_energy_analytic,
    box_energy_numeric,
    boundstate_window,
    box_perturbation,
    cutoff_row,
    disk_perturbation,
    eps_threshold,
    fit_slope,
    product_bump,
    profile_deriv_integrals,
    smoothstep_profile,
    square_identity_residual,
    standard_trials,
    trial_energy,
    weyl_rows,
)
from semidirac.scan import SCAN_COLUMNS, scan_perturbation, scan_potential

P1 = Params(1.0)
P2 = Params(2.0)


def test_01_square_identity():
    start = time.monotonic()
    worst = 0.0
    for trial in standard_trials():
        for delta in (0.5, 1.0, 2.0):
            rep = square_identity_residual(trial, Params(delta))
            assert rep["rel_err"] <= 1e-6, (trial.label, delta, rep)
            worst = max(worst, rep["rel_err"])
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"[PASS] criterion 1: square identity, 3 trials x 3 deltas, "
          f"worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_02_gap_emptiness():
    start = time.monotonic()
    grid = Grid2D(-20.0, 20.0, 20.0, 161, 81)
    T = assemble_T(grid, P1)

    rep = gap_eigs(T, -0.9, 0.9)
    cert = rep.certificate
    assert cert["certified"] is True
    assert cert["count"] == 0
    assert rep.k == 0

    near = nearest_eigenvalues(T, 0.95, k=2)
    closest = float(np.min(np.abs(near.eigenvalues)))
    assert 0.9 <= closest <= 1.1

    bump = XOnlyPotential.from_callable(grid, lambda x: np.exp(-x * x))
    form = assemble_square_form(grid, P1, bump)
    floor = P1.delta**2 - 0.05
    assert count_below(form, floor)["count"] == 0
    bottom = float(nearest_eigenvalues(form, 0.5, k=1).eigenvalues[0])
    assert bottom >= floor

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"[PASS] criterion 2: certified empty gap on 161x81, "
          f"min |lambda| {closest:.4f}, square-form bottom {bottom:.4f} ({elapsed:.1f}s)")


def test_03_weyl_residual_scaling():
    start = time.monotonic()
    mus = [P1.delta, P1.delta + 1.0, P1.delta + 4.0]
    mus += [-m for m in mus]
    ns = [8, 16, 32, 64]
    rows = weyl_rows(mus, ns, P1, product_bump())
    assert all(r["residual"] <= r["bound_rhs"] * (1.0 + 1e-9) for r in rows)
    slopes = []
    for mu in mus:
        got = [r for r in rows if r["mu"] == mu]
        slope = fit_slope([r["n"] for r in got], [r["residual"] for r in got])
        assert -1.05 <= slope <= -0.95, (mu, slope)
        slopes.append(slope)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"[PASS] criterion 3: Weyl residuals below bound on both branches, "
          f"slopes in [{min(slopes):.4f}, {max(slopes):.4f}] ({elapsed:.1f}s)")


def test_04_bound_state_window():
    start = time.monotonic()
    a, b = 1.0, 1.0 + float(np.pi)

    lo, hi = boundstate_window(P2, a, b)
    assert abs(lo - (-3.0 - np.sqrt(3.0))) < 1e-12
    assert abs(hi - (-3.0 + np.sqrt(3.0))) < 1e-12

    for v0 in np.linspace(-4.5, -0.5, 5):
        num = box_energy_numeric(a, b, float(v0), P2)
        ana = box_energy_analytic(a, b, float(v0), P2)
        assert abs(num - ana) <= 1e-8 * max(1.0, abs(ana))

    grid = Grid2D(-9.0, 14.0, 14.0, 47, 29)
    res = scan_potential(P2, a, b, [-4.0, -3.0, -2.0, 0.0], grid)
    assert res.all_agree()
    for rec in res.records[:3]:
        assert rec["observed_count"] > 0
        assert rec["min_participation"] < 0.2
    assert res.records[3]["observed_count"] == 0

    H = assemble_H(grid, P2, BoxPotential(a, b, -3.0))
    state = nearest_eigenvalues(H, 0.0, k=1)
    assert float(state.participation[0]) < 0.2
    assert float(state.y_decay[0]) < 0.0

    small = Grid2D(-6.0, 10.0, 10.0, 33, 25)
    Hs = assemble_H(small, P2, BoxPotential(a, b, -3.0))
    assert Hs.dim <= 2000
    dense = dense_eigs(Hs)
    inside = np.sort(dense.eigenvalues[np.abs(dense.eigenvalues) < 1.9])
    iterative = gap_eigs(Hs, -1.9, 1.9, k=len(inside))
    assert iterative.certificate["count"] == len(inside)
    diff = float(np.max(np.abs(np.sort(iterative.eigenvalues) - inside)))
    assert diff <= 1e-8

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"[PASS] criterion 4: window ({lo:.4f}, {hi:.4f}), localized states for "
          f"V in {{-4,-3,-2}}, none at 0, dense oracle diff {diff:.2e} ({elapsed:.1f}s)")


def test_05_cutoff_lemma():
    start = time.monotonic()
    ip2, _ = profile_deriv_integrals(smoothstep_profile())
    worst = 0.0
    for n in (4, 16, 64):
        row = cutoff_row(n)
        closed = (np.pi / 2.0) * ip2 / np.log(n)
        for key in ("Ix", "Iy"):
            rel = abs(row[key] - closed) / closed
            assert rel <= 1e-4, (n, key, rel)
            worst = max(worst, rel)
        assert row["second_deriv_bound_slack"] > 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"[PASS] criterion 5: cutoff integrals match (pi/2)|g'|^2/ln n, "
          f"worst rel err {worst:.2e}, second bound slack positive ({elapsed:.1f}s)")


def test_06_perturbation_criterion():
    start = time.monotonic()
    box = box_perturbation(-1.0, (-0.5, 0.5, 1.0, 2.0))
    for delta in (1e-3, 1.0, 1e3):
        thr = eps_threshold(box, Params(delta))
        assert abs(thr - 2.0 * delta) <= 1e-12 * 2.0 * delta
    assert eps_threshold(box, Params(1e-3)) <= 0.01  # threshold vanishes with the gap

    disk = disk_perturbation()
    thr = eps_threshold(disk, P1)
    ref = a_eps_derived(disk, thr, P1)
    gaps = [abs(trial_energy(disk, thr, P1, n) - ref) for n in (4, 16, 32)]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 0.05

    half = 0.5 * thr
    assert abs(a_eps_paper(disk, half, P1) - a_eps_derived(disk, half, P1)) <= 1e-12
    grid = Grid2D(-20.0, 20.0, 40.0, 81, 61)
    res = scan_perturbation(P1, disk, [half], grid)
    rec = res.records[0]
    assert rec["predicted"] is True
    assert rec["observed_count"] >= 1
    assert rec["min_participation"] < 0.2
    assert rec["agreement"] is True

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"[PASS] criterion 6: eps* = 2 delta exactly, trial energies converge "
          f"(gap {gaps[2]:.2e} at n=32), gap eigenvalue at eps*/2 ({elapsed:.1f}s)")


def test_07_fiber_2d_consistency():
    start = time.monotonic()
    xi = np.linspace(-2.0, 2.0, 21)
    union = union_edge(xi, P1)
    assert union == P1.delta

    op = fiber_operator(0.0, P1, ny=400, y_max=40.0)
    got = float(np.min(np.abs(dense_eigs(op).eigenvalues)))
    rel_fiber = abs(got - fiber_edge(0.0, P1)) / fiber_edge(0.0, P1)
    assert rel_fiber <= 0.05

    grid = Grid2D(-20.0, 20.0, 20.0, 81, 41)
    T = assemble_T(grid, P1)
    near = nearest_eigenvalues(T, 0.95 * P1.delta, k=2)
    two_d = float(np.min(np.abs(near.eigenvalues)))
    rel_2d = abs(two_d - union) / union
    assert rel_2d <= 0.05

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"[PASS] criterion 7: union edge = delta exactly, fiber edge rel err "
          f"{rel_fiber:.1e}, 2D vs union rel err {rel_2d:.1e} ({elapsed:.1f}s)")


def test_08_oracle_equivalence_and_invariants():
    start = time.monotonic()

    grid = Grid2D(-8.0, 12.0, 12.0, 35, 21)
    H = assemble_H(grid, P1, BoxPotential(1.0, 4.0, -2.0))
    assert H.dim <= 2000
    dense = dense_eigs(H)
    inside = np.sort(dense.eigenvalues[np.abs(dense.eigenvalues) < 0.95])
    iterative = gap_eigs(H, -0.95, 0.95, k=len(inside))
    diff = float(np.max(np.abs(np.sort(iterative.eigenvalues) - inside)))
    assert diff <= 1e-8
    near = nearest_eigenvalues(H, 0.4, k=1)
    dense_nearest = dense.eigenvalues[np.argmin(np.abs(dense.eigenvalues - 0.4))]
    assert abs(float(near.eigenvalues[0]) - float(dense_nearest)) <= 1e-8

    small = Grid2D(-3.0, 3.0, 3.0, 13, 9)
    assemblies = [
        assemble_T(small, P1),
        assemble_H(small, P1, BoxPotential(0.5, 1.5, -1.0)),
        assemble_H(small, P1, XOnlyPotential.from_callable(small, lambda x: np.exp(-x * x))),
        assemble_H_eps(small, P1, box_perturbation(-1.0, (-0.5, 0.5, 1.0, 2.0)).sample_on(small), 0.7),
        assemble_square_form(small, P1, NoPotential()),
        assemble_square_form(small, P1, XOnlyPotential.from_callable(small, lambda x: np.exp(-x * x))),
        fiber_operator(0.3, P1, ny=50, y_max=20.0),
    ]
    for op in assemblies:
        assert op.sym_defect == 0.0

    scan_grid = Grid2D(-9.0, 14.0, 14.0, 47, 29)
    runs = [
        scan_potential(P2, 1.0, 1.0 + float(np.pi), [-3.0, 0.0], scan_grid)
        for _ in range(2)
    ]
    first, second = (render_csv(SCAN_COLUMNS, r.to_rows()).encode() for r in runs)
    assert first == second

    elapsed = time.monotonic() - start
    print(f"[PASS] criterion 8: dense/iterative agree to {diff:.2e}, exact "
          f"Hermiticity on {len(assemblies)} assemblies, byte-identical re-runs ({elapsed:.1f}s)")
