"""Prediction-first sweeps and refinement studies against frozen runs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from semidirac import (
    BoxPotential,
    ConvergenceStudy,
    Grid2D,
    Params,
    ScanResult,
    SolverConfig,
    boundstate_window,
    convergence_study,
    delocalization_probe,
    disk_perturbation,
    gap_window,
    is_localized,
    scan_perturbation,
    scan_potential,
)
from semidirac.scan import (
    CONVERGENCE_COLUMNS,
    DOMAIN_NOISE_BAND,
    GAP_WINDOW_FRACTION,
    LOCALIZED_PARTICIPATION,
    OBSERVABLES,
    SCAN_COLUMNS,
)

P1 = Params(1.0)
P2 = Params(2.0)


def test_gap_window_shrinks_five_percent():
    assert gap_window(P2) == (-1.9, 1.9)
    lo, hi = gap_window(Params(0.4))
    assert hi == pytest.approx(GAP_WINDOW_FRACTION * 0.4)
    assert lo == -hi


def test_localization_classifier():
    assert is_localized(0.05, -1.0)
    assert not is_localized(0.5, -1.0)      # too spread out
    assert not is_localized(0.05, 0.1)      # no decay away from the edge
    assert not is_localized(LOCALIZED_PARTICIPATION, -1.0)  # strict inequality


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=2.0)


def test_scan_result_container():
    rec = {c: 0 for c in SCAN_COLUMNS}
    rec.update(axis_value=1.0, agreement=True)
    res = ScanResult("potential_depth", (1.0,), (rec,))
    assert res.all_agree()
    assert list(res.to_rows()[0]) == list(SCAN_COLUMNS)
    with pytest.raises(ValueError, match="records"):
        ScanResult("potential_depth", (1.0, 2.0), (rec,))


def test_convergence_study_validation():
    with pytest.raises(ValueError, match="unknown observable"):
        ConvergenceStudy("spectral-radius", (4, 8, 16), (1.0, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="at least 3"):
        ConvergenceStudy("gap-edge", (4, 8), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="repeats"):
        ConvergenceStudy("gap-edge", (4, 8, 8), (1.0, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="not increasing"):
        ConvergenceStudy("gap-edge", (4, 16, 8), (1.0, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="one value per rung"):
        ConvergenceStudy("gap-edge", (4, 8, 16), (1.0, 1.0), 1.0)
    assert OBSERVABLES == ("gap-edge", "bound-state-lambda", "square-form-min")


def depth_scan():
    grid = Grid2D(-9.0, 14.0, 14.0, 47, 29)
    return scan_potential(P2, 1.0, 1.0 + np.pi, [-4.0, -3.0, -2.0, 0.0], grid)


def test_potential_scan_against_frozen_run():
    res = depth_scan()
    assert res.axis == "potential_depth"
    assert res.all_agree()
    assert [r["predicted"] for r in res.records] == [True, True, True, False]
    assert [r["observed_count"] for r in res.records] == [28, 22, 19, 0]
    want_lambda = [0.08865568950550944, 0.3082340204068483, 0.5166880751093185]
    for rec, lam in zip(res.records, want_lambda):
        assert rec["min_abs_lambda"] == pytest.approx(lam, rel=1e-6)
        assert rec["min_participation"] < LOCALIZED_PARTICIPATION
    assert math.isnan(res.records[3]["min_abs_lambda"])
    assert res.meta["window"][0] == pytest.approx(-3.0 - np.sqrt(3.0), abs=1e-12)
    assert res.meta["window"][1] == pytest.approx(-3.0 + np.sqrt(3.0), abs=1e-12)


def test_potential_scan_predictions_precede_observation():
    # the predicted column must equal the closed-form window verdict
    res = depth_scan()
    window = boundstate_window(P2, 1.0, 1.0 + np.pi)
    for rec in res.records:
        assert rec["predicted"] == (window[0] < rec["axis_value"] < window[1])


def test_potential_scan_agreement_is_one_sided():
    # a depth outside the sufficient window may still bind; that must
    # never be flagged as disagreement
    grid = Grid2D(-9.0, 14.0, 14.0, 47, 29)
    res = scan_potential(P2, 1.0, 1.0 + np.pi, [-1.25], grid)
    rec = res.records[0]
    assert rec["predicted"] is False
    assert rec["agreement"] is True


def test_potential_scan_placement_guards():
    grid = Grid2D(-9.0, 14.0, 14.0, 47, 29)
    with pytest.raises(ValueError, match="outside the domain"):
        scan_potential(P2, 10.0, 15.0, [-3.0], grid)
    with pytest.raises(ValueError, match="margin"):
        scan_potential(P2, 1.0, 9.0, [-3.0], grid)


def test_perturbation_scan_against_frozen_run():
    grid = Grid2D(-20.0, 20.0, 30.0, 81, 61)
    res = scan_perturbation(P1, disk_perturbation(), [0.0, 1.0, 2.5], grid)
    assert res.axis == "epsilon"
    assert res.all_agree()
    assert [r["predicted"] for r in res.records] == [False, True, True]
    assert [r["observed_count"] for r in res.records] == [0, 24, 72]
    assert res.records[1]["min_abs_lambda"] == pytest.approx(0.721710643673872, rel=1e-6)
    assert res.records[2]["min_abs_lambda"] == pytest.approx(0.25939928928017103, rel=1e-6)
    assert math.isnan(res.records[0]["min_abs_lambda"])
    assert res.meta["eps_threshold"] == pytest.approx(7.9125310886703328, rel=1e-9)
    want_energy = [0.0, -275.50630969791337, -539.3055189324406]
    assert res.meta["a_eps_derived"] == pytest.approx(want_energy, rel=1e-9)


def test_perturbation_scan_requires_contained_support():
    grid = Grid2D(-20.0, 20.0, 30.0, 81, 61)
    model = disk_perturbation(center=(0.0, 25.0), radius=13.0)  # pokes above y_max
    with pytest.raises(ValueError, match="not contained"):
        scan_perturbation(P1, model, [1.0], grid)


def test_free_edge_state_stays_delocalized():
    res = delocalization_probe(P1, [10.0, 20.0, 40.0])
    assert res.all_agree()
    prs = res.meta["participation"]
    want = [0.3497917905925275, 0.3416145989143168, 0.3374869791462326]
    assert prs == pytest.approx(want, rel=1e-6)
    for lo, hi in zip(prs, prs[1:]):
        assert hi >= (1.0 - DOMAIN_NOISE_BAND) * lo
    lams = [r["min_abs_lambda"] for r in res.records]
    assert lams == pytest.approx(
        [1.0223696225505587, 1.00587055159352, 1.0015042364119888], rel=1e-6
    )
    # the band edge is approached from above as the walls recede
    assert lams[0] > lams[1] > lams[2] > 1.0


def test_bound_state_inverts_the_domain_trend():
    res = delocalization_probe(P2, [10.0, 20.0], potential=BoxPotential(1.0, 4.0, -3.0))
    prs = res.meta["participation"]
    assert prs == pytest.approx([0.03838886489776942, 0.009835647494961106], rel=1e-6)
    assert prs[1] < 0.5 * prs[0]
    assert res.all_agree()  # inverted case asserts nothing, by design


def test_domain_ladder_validation():
    with pytest.raises(ValueError, match="at least 2"):
        delocalization_probe(P1, [10.0])
    with pytest.raises(ValueError, match="not increasing"):
        delocalization_probe(P1, [20.0, 10.0])


def test_gap_edge_refinement_study():
    st = convergence_study("gap-edge", [41, 81, 161], P1)
    want = [1.0055924056376397, 1.00587055159352, 1.0060169456479557]
    assert list(st.values) == pytest.approx(want, rel=1e-6)
    assert st.fitted_order == pytest.approx(0.92598516757160931, rel=1e-4)
    for v in st.values:
        assert abs(v - 1.0) < 0.02
    diffs = np.abs(np.diff(st.values))
    assert np.all(np.diff(diffs) < 0.0)
    rows = st.to_rows()
    assert list(rows[0]) == list(CONVERGENCE_COLUMNS)
    assert [r["rung"] for r in rows] == [41, 81, 161]


def test_square_form_refinement_study():
    st = convergence_study("square-form-min", [41, 81, 161], P1)
    want = [1.0168084919137355, 1.0176461181565688, 1.0180870405788802]
    assert list(st.values) == pytest.approx(want, rel=1e-6)
    assert st.fitted_order == pytest.approx(0.92578179815464501, rel=1e-4)
    # the form is bounded below by delta^2 at the matrix level
    for v in st.values:
        assert v > 1.0


def test_bound_state_refinement_study():
    st = convergence_study(
        "bound-state-lambda", [29, 57, 113], P1, x_half=14.0, box=(1.0, 7.0), depth=-1.0
    )
    want = [0.15072747142942713, 0.22875758583219571, 0.27244410422323029]
    assert list(st.values) == pytest.approx(want, rel=1e-6)
    assert st.fitted_order == pytest.approx(0.83684288080118185, rel=1e-4)
    assert st.meta["box"] == [1.0, 7.0]
    assert st.meta["depth"] == -1.0


def test_convergence_study_rejects_bad_ladders():
    with pytest.raises(ValueError, match="unknown observable"):
        convergence_study("resolvent-norm", [9, 17, 33], P1)
    with pytest.raises(ValueError, match="at least 3"):
        convergence_study("gap-edge", [9, 17], P1)


def test_scan_is_deterministic():
    a = depth_scan()
    b = depth_scan()
    # nan cells poison dict equality, so compare the printed rows
    assert repr(a.to_rows()) == repr(b.to_rows())
    assert a.meta == b.meta
