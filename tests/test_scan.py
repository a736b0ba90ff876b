"""Prediction-first sweeps and refinement studies against frozen runs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from semidirac import (
    BoxPotential,
    Grid2D,
    Params,
    SolverConfig,
    SpectrumReport,
    boundstate_window,
    convergence_study,
    delocalization_probe,
    disk_perturbation,
    gap_window,
    is_localized,
    scan_perturbation,
    scan_potential,
)
from semidirac.cli import parse_config
from semidirac.fiber import union_edge
from semidirac.scan import (
    CONVERGENCE_COLUMNS,
    DOMAIN_NOISE_BAND,
    GAP_WINDOW_FRACTION,
    LOCALIZED_PARTICIPATION,
    OBSERVABLES,
    SCAN_COLUMNS,
    fiber_cross_check,
    fiber_table,
    window_evidence,
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


def test_convergence_study_validation():
    with pytest.raises(ValueError, match="repeats"):
        convergence_study("gap-edge", [9, 17, 17], P1)
    with pytest.raises(ValueError, match="not increasing"):
        convergence_study("gap-edge", [9, 33, 17], P1)
    assert OBSERVABLES == ("gap-edge", "bound-state-lambda", "square-form-min")


def depth_scan():
    grid = Grid2D(-9.0, 14.0, 14.0, 47, 29)
    return scan_potential(P2, 1.0, 1.0 + np.pi, [-4.0, -3.0, -2.0, 0.0], grid)


def test_potential_scan_against_frozen_run():
    rows, checks, detail = depth_scan()
    assert detail["axis"] == "potential_depth"
    assert checks == {"all_agree": True}
    assert [list(r) for r in rows] == [list(SCAN_COLUMNS)] * 4
    assert [r["predicted"] for r in rows] == [True, True, True, False]
    assert [r["observed_count"] for r in rows] == [28, 22, 19, 0]
    want_lambda = [0.08865568950550944, 0.3082340204068483, 0.5166880751093185]
    for rec, lam in zip(rows, want_lambda):
        assert rec["min_abs_lambda"] == pytest.approx(lam, rel=1e-6)
        assert rec["min_participation"] < LOCALIZED_PARTICIPATION
    assert math.isnan(rows[3]["min_abs_lambda"])
    assert detail["meta"]["window"][0] == pytest.approx(-3.0 - np.sqrt(3.0), abs=1e-12)
    assert detail["meta"]["window"][1] == pytest.approx(-3.0 + np.sqrt(3.0), abs=1e-12)
    assert len(detail["solve_fill"]) == len(detail["block_counts"]) == 4


def test_potential_scan_predictions_precede_observation():
    # the predicted column must equal the closed-form window verdict
    rows, _, _ = depth_scan()
    window = boundstate_window(P2, 1.0, 1.0 + np.pi)
    for rec in rows:
        assert rec["predicted"] == (window[0] < rec["axis_value"] < window[1])


def test_potential_scan_agreement_is_one_sided():
    # a depth outside the sufficient window may still bind; that must
    # never be flagged as disagreement
    grid = Grid2D(-9.0, 14.0, 14.0, 47, 29)
    (rec,), _, _ = scan_potential(P2, 1.0, 1.0 + np.pi, [-1.25], grid)
    assert rec["predicted"] is False
    assert rec["agreement"] is True


@pytest.mark.parametrize("participation,agreement", [
    (LOCALIZED_PARTICIPATION, False), (0.5 * LOCALIZED_PARTICIPATION, True)])
def test_predicted_state_must_be_localized(monkeypatch, participation, agreement):
    """A predicted record agrees only if an in-window state is localized;
    a certified count of delocalized states does not do."""
    import semidirac.scan

    def one_state(op, lo, hi, **solver):
        return SpectrumReport(np.array([0.5]), np.ones((3, 1)), np.zeros(1),
                              np.array([participation]), np.array([-1.0]), "shift-invert",
                              {"count": 1, "certified": True, "solve_fill": 2.0,
                               "block_counts": [1, 0]})

    monkeypatch.setattr(semidirac.scan, "gap_eigs", one_state)
    rec = {"axis_value": -3.0, "predicted": True}
    semidirac.scan._observe_gap(rec, None, P2, SolverConfig())
    assert rec["observed_count"] == 1 and rec["agreement"] is agreement


def test_potential_scan_placement_guards():
    grid = Grid2D(-9.0, 14.0, 14.0, 47, 29)
    with pytest.raises(ValueError, match="outside the domain"):
        scan_potential(P2, 10.0, 15.0, [-3.0], grid)
    with pytest.raises(ValueError, match="margin"):
        scan_potential(P2, 1.0, 9.0, [-3.0], grid)


def test_perturbation_scan_against_frozen_run():
    grid = Grid2D(-20.0, 20.0, 30.0, 81, 61)
    rows, checks, detail = scan_perturbation(P1, disk_perturbation(), [0.0, 1.0, 2.5], grid)
    assert detail["axis"] == "epsilon"
    assert checks == {"all_agree": True}
    assert [r["predicted"] for r in rows] == [False, True, True]
    assert [r["observed_count"] for r in rows] == [0, 24, 72]
    assert rows[1]["min_abs_lambda"] == pytest.approx(0.721710643673872, rel=1e-6)
    assert rows[2]["min_abs_lambda"] == pytest.approx(0.25939928928017103, rel=1e-6)
    assert math.isnan(rows[0]["min_abs_lambda"])
    meta = detail["meta"]
    assert meta["eps_threshold"] == pytest.approx(7.9125310886703328, rel=1e-9)
    want_energy = [0.0, -275.50630969791337, -539.3055189324406]
    assert meta["a_eps_derived"] == pytest.approx(want_energy, rel=1e-9)


def test_perturbation_scan_requires_contained_support():
    grid = Grid2D(-20.0, 20.0, 30.0, 81, 61)
    model = disk_perturbation(center=(0.0, 25.0), radius=13.0)  # pokes above y_max
    with pytest.raises(ValueError, match="not contained"):
        scan_perturbation(P1, model, [1.0], grid)


def test_free_edge_state_stays_delocalized():
    rows, checks, detail = delocalization_probe(P1, [10.0, 20.0, 40.0])
    assert checks == {"all_agree": True}
    # the probe keeps each rung's fill, and no block counts
    assert detail["block_counts"] == [None] * 3 and len(detail["solve_fill"]) == 3
    prs = detail["meta"]["participation"]
    want = [0.3497917905925275, 0.3416145989143168, 0.3374869791462326]
    assert prs == pytest.approx(want, rel=1e-6)
    for lo, hi in zip(prs, prs[1:]):
        assert hi >= (1.0 - DOMAIN_NOISE_BAND) * lo
    lams = [r["min_abs_lambda"] for r in rows]
    assert lams == pytest.approx(
        [1.0223696225505587, 1.00587055159352, 1.0015042364119888], rel=1e-6
    )
    # the band edge is approached from above as the walls recede
    assert lams[0] > lams[1] > lams[2] > 1.0


def test_bound_state_inverts_the_domain_trend():
    _, checks, detail = delocalization_probe(P2, [10.0, 20.0],
                                             potential=BoxPotential(1.0, 4.0, -3.0))
    prs = detail["meta"]["participation"]
    assert prs == pytest.approx([0.03838886489776942, 0.009835647494961106], rel=1e-6)
    assert prs[1] < 0.5 * prs[0]
    assert checks == {"all_agree": True}  # inverted case asserts nothing, by design


def test_domain_ladder_validation():
    with pytest.raises(ValueError, match="at least 2"):
        delocalization_probe(P1, [10.0])
    with pytest.raises(ValueError, match="not increasing"):
        delocalization_probe(P1, [20.0, 10.0])


def test_gap_edge_refinement_study():
    rows, checks, detail = convergence_study("gap-edge", [41, 81, 161], P1)
    want = [1.0055924056376397, 1.00587055159352, 1.0060169456479557]
    assert detail["values"] == pytest.approx(want, rel=1e-6)
    assert detail["fitted_order"] == pytest.approx(0.92598516757160931, rel=1e-4)
    for v in detail["values"]:
        assert abs(v - 1.0) < 0.02
    diffs = np.abs(np.diff(detail["values"]))
    assert np.all(np.diff(diffs) < 0.0)
    assert checks == {"diffs_shrinking": True, "order_positive": True}
    assert list(rows[0]) == list(CONVERGENCE_COLUMNS)
    assert [r["rung"] for r in rows] == [41, 81, 161]
    assert [r["value"] for r in rows] == detail["values"]
    assert {r["fitted_order"] for r in rows} == {detail["fitted_order"]}


def test_square_form_refinement_study():
    _, _, detail = convergence_study("square-form-min", [41, 81, 161], P1)
    want = [1.0168084919137355, 1.0176461181565688, 1.0180870405788802]
    assert detail["values"] == pytest.approx(want, rel=1e-6)
    assert detail["fitted_order"] == pytest.approx(0.92578179815464501, rel=1e-4)
    # the form is bounded below by delta^2 at the matrix level
    for v in detail["values"]:
        assert v > 1.0


def test_bound_state_refinement_study():
    _, _, detail = convergence_study(
        "bound-state-lambda", [29, 57, 113], P1, x_half=14.0, box=(1.0, 7.0), depth=-1.0
    )
    want = [0.15072747142942713, 0.22875758583219571, 0.27244410422323029]
    assert detail["values"] == pytest.approx(want, rel=1e-6)
    assert detail["fitted_order"] == pytest.approx(0.83684288080118185, rel=1e-4)


def test_convergence_study_rejects_bad_ladders():
    with pytest.raises(ValueError, match="unknown observable"):
        convergence_study("resolvent-norm", [9, 17, 33], P1)
    with pytest.raises(ValueError, match="at least 3"):
        convergence_study("gap-edge", [9, 17], P1)


def test_convergence_study_refuses_rungs_without_change(monkeypatch):
    # a zero difference has no logarithm, so no order can be fitted
    monkeypatch.setattr("semidirac.scan.free_edge", lambda grid, params: 1.0)
    with pytest.raises(ValueError, match="identical values"):
        convergence_study("gap-edge", [9, 17, 33], P1)


def test_scan_is_deterministic():
    a = depth_scan()
    b = depth_scan()
    # nan cells poison dict equality, so compare the printed rows
    assert repr(a[0]) == repr(b[0])
    assert a[1:] == b[1:]


# ---------------------------------------------------------------------------
# verdicts, judged at this layer


@pytest.mark.parametrize("values,order,shrinking,positive", [
    ((1.0, 1.2, 1.25), 1.0, True, True),
    ((1.0, 1.1, 1.3), 1.0, False, True),
    ((1.0, 1.5, 2.0), 1.0, False, True),
    ((1.0, 1.2, 1.25), -0.5, True, False),
])
def test_convergence_verdicts_read_the_successive_differences(
        monkeypatch, values, order, shrinking, positive):
    # the rungs read the given values and the fit returns the given order,
    # so each verdict is seen apart from the other
    rungs = iter(values)
    monkeypatch.setattr("semidirac.scan.free_edge", lambda grid, params: next(rungs))
    monkeypatch.setattr("semidirac.scan.fit_slope", lambda hs, diffs: order)
    _, checks, _ = convergence_study("gap-edge", [11, 21, 41], P1)
    assert checks == {"diffs_shrinking": shrinking, "order_positive": positive}


def _report(certificate, k=2):
    return SpectrumReport(np.linspace(-0.5, 0.5, k), np.ones((3, k)), np.zeros(k),
                          np.ones(k), np.ones(k), "gap", certificate)


def test_window_evidence_reads_the_certificate():
    certified = window_evidence(_report({"count": 4, "certified": True, "solve_fill": 2.5,
                                         "block_counts": [2, 2]}))
    assert certified == {"count": 4, "certified": True, "solve_fill": 2.5,
                         "block_counts": [2, 2]}
    # an empty window returns before any solve, so no solve_fill
    assert window_evidence(_report({"count": 0, "certified": True, "block_counts": [0, 0]},
                                   k=0)) == {
        "count": 0, "certified": True, "solve_fill": None, "block_counts": [0, 0]}


@pytest.mark.parametrize("xi", [[-1.0, 0.5], [-1.0, 0.0, 0.5]], ids=["without-0", "with-0"])
def test_fiber_cross_check_does_not_read_the_momentum_grid(xi):
    """The fiber union over any momentum grid with 0 appended is delta
    itself, so the cross-check reads params.delta whatever the config's
    xi values hold."""
    cfg = parse_config({"params": {"delta": 2.0}, "fiber": {"xi_values": xi}, "grid": {
        "x_min": -9.0, "x_max": 14.0, "y_max": 14.0, "nx": 93, "ny": 57}})
    cross = fiber_cross_check(cfg.grid, cfg.params)
    assert cross["union_edge"] == union_edge(xi + [0.0], cfg.params) == 2.0
    assert cross == fiber_cross_check(cfg.grid, P2)
    assert cross["rel_err"] == abs(cross["two_d_min_abs_lambda"] - 2.0) / 2.0
    assert cross["within_5pct"] is True


def test_fiber_cross_check_fails_past_five_percent():
    cross = fiber_cross_check(Grid2D(-2.0, 2.0, 6.0, 21, 13), P1)
    assert cross["rel_err"] > 0.05 and cross["within_5pct"] is False


def test_fiber_table_reports_union_edge_only_with_zero():
    rows, checks, detail = fiber_table(P1, [-1.0, 0.0, 0.5], 40, 20.0)
    assert checks == {"edges_within_5pct": True, "union_edge_is_delta": True}
    assert detail["union_edge"] == 1.0
    assert [r["edge_analytic"] for r in rows] == [2.0, 1.0, 1.25]
    assert [b["counts"] for b in detail["inertia_brackets"]] == [[0, 1]] * 3
    _, checks, detail = fiber_table(P1, [-1.0, 0.5], 40, 20.0)
    assert checks == {"edges_within_5pct": True} and "union_edge" not in detail

