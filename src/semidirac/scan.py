"""Parameter sweeps that tie closed-form predictions to solver output.

Every sweep runs in two strict phases.  The prediction pass evaluates
closed-form quantities only (no matrix is assembled) and freezes its
verdicts into the records; the observation pass then fills in what the
solver actually saw.  Keeping the phases separate keeps the agreement
column an honest forecast check instead of a fit after the fact.

Agreement is asserted one-sidedly throughout: a predicted bound state
must show up, but an observed state outside the predicted window is not
an error.  The trial-state criteria behind the predictions are
sufficient, not necessary, so extra states are expected.

Every eigensolver call takes its k, tol, max_iter and seed from one
SolverConfig; the grids are the sweeps' own arguments.  The free band
edge calls none: it is read off the exact separable spectrum.

Each sweep returns (rows, checks, detail), as the fiber table does: the
rows in its CSV column order, its named verdicts and the free-form
detail that lands in summary.json.  The verdicts on these numerics live
here too: window_evidence (the certified count gap_eigs gives every
window), the sweeps' checks, fiber_cross_check and the fiber table with
its inertia brackets (fiber_table; not in fiber, which eigensolve
imports).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .assembly import (YGrid, assemble_H, assemble_H_eps, assemble_square_form, assemble_T,
                       stiffness_x)
from .eigensolve import (ConvergenceError, SpectrumReport, _inf_norm, count_within, gap_eigs,
                         lowest_of_square, nearest_eigenvalues)
from .fiber import FiberFamily, fiber_edge, union_edge
from .lattice import BoxPotential, Grid2D, Params, PotentialSpec
from .quasimode import PerturbationModel, a_eps_derived, boundstate_window, eps_threshold, fit_slope

GAP_WINDOW_FRACTION = 0.95
LOCALIZED_PARTICIPATION = 0.2
DOMAIN_NOISE_BAND = 0.10

SCAN_COLUMNS = (
    "axis_value",
    "predicted",
    "observed_count",
    "min_abs_lambda",
    "min_participation",
    "agreement",
)

CONVERGENCE_COLUMNS = ("rung", "observable", "value", "fitted_order")

FIBER_COLUMNS = ("xi", "edge_analytic", "min_abs_lambda", "rel_err")

OBSERVABLES = ("gap-edge", "bound-state-lambda", "square-form-min")


def gap_window(params: Params) -> tuple[float, float]:
    """Interval scanned for in-gap states, shrunk 5% clear of the edges.

    The shrink keeps discretized continuum states that sag slightly below
    the true edge from polluting bound-state counts.
    """
    r = GAP_WINDOW_FRACTION * params.delta
    return -r, r


def is_localized(participation: float, y_decay: float) -> bool:
    """Classifier for a single eigenvector: small footprint, decaying in y."""
    return bool(participation < LOCALIZED_PARTICIPATION) and bool(y_decay < 0.0)


@dataclass(frozen=True)
class SolverConfig:
    """The settings of every eigensolver call a sweep makes, passed on
    whole as ``**asdict(solver)``."""

    k: int = 6
    tol: float = 1e-8
    max_iter: int = 600
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")


def _check_ladder(ladder) -> None:
    if len(ladder) < 3:
        raise ValueError(f"ladder needs at least 3 rungs, got {len(ladder)}")
    for lo, hi in zip(ladder, ladder[1:]):
        if hi == lo:
            raise ValueError(f"ladder repeats the rung {lo}")
        if hi < lo:
            raise ValueError(f"ladder is not increasing: {lo} before {hi}")


# ---------------------------------------------------------------------------
# gap observation shared by the sweeps and the spectrum command


def window_evidence(rep: SpectrumReport) -> dict:
    """What a gap_eigs report shows of its window: the certified count,
    whether it was certified, the shift-invert factor's fill (None when no
    solve ran) and the count of each decoupled block."""
    cert = rep.certificate
    return {"count": int(cert["count"]),
            "certified": bool(cert["certified"]),
            "solve_fill": cert.get("solve_fill"),
            "block_counts": cert["block_counts"]}


def _observe_gap(rec: dict, op, params: Params, solver: SolverConfig) -> None:
    """Fill a sweep record with window_evidence's count, fill and block
    counts, localization stats of the converged pairs and the one-sided
    agreement verdict."""
    lo, hi = gap_window(params)
    rep = gap_eigs(op, lo, hi, **asdict(solver))
    evidence = window_evidence(rep)
    count = evidence["count"]
    if rep.k:
        min_abs = float(np.min(np.abs(rep.eigenvalues)))
        min_pr = float(np.min(rep.participation))
        localized = any(
            is_localized(pr, yd) for pr, yd in zip(rep.participation, rep.y_decay)
        )
    else:
        min_abs = float("nan")
        min_pr = float("nan")
        localized = False
    rec.update({
        "observed_count": count,
        "min_abs_lambda": min_abs,
        "min_participation": min_pr,
        "agreement": bool(not rec["predicted"] or (count > 0 and localized)),
        "solve_fill": evidence["solve_fill"],
        "block_counts": evidence["block_counts"],
    })


def _sweep(axis: str, records: list, meta: dict) -> tuple[list, dict, dict]:
    """(rows, checks, detail) of one sweep: the records' SCAN_COLUMNS, the
    all_agree verdict, and the axis, the meta block and each record's
    solve_fill and block_counts (None where the sweep keeps none).  The
    records hold plain Python scalars, so identical configurations write
    identical bytes."""
    rows = [{c: rec[c] for c in SCAN_COLUMNS} for rec in records]
    detail = {"axis": axis, "meta": meta,
              "solve_fill": [rec["solve_fill"] for rec in records],
              "block_counts": [rec.get("block_counts") for rec in records]}
    return rows, {"all_agree": all(rec["agreement"] for rec in records)}, detail


# ---------------------------------------------------------------------------
# potential-depth sweep


def _check_box(a: float, b: float, grid: Grid2D) -> None:
    """The box [a, b]^2 lies inside grid, at least 3 box widths from each wall."""
    width = b - a
    if not (max(grid.x_min, 0.0) < a < b < grid.x_max and b < grid.y_max):
        raise ValueError(
            f"box [{a}, {b}]^2 lies outside the domain "
            f"[{grid.x_min}, {grid.x_max}] x [0, {grid.y_max}]"
        )
    margin = min(a - grid.x_min, grid.x_max - b, grid.y_max - b)
    if margin < 3.0 * width:
        raise ValueError(
            f"grid margin {margin:.3g} is thinner than 3 box widths "
            f"({3.0 * width:.3g}); bound-state tails would hit the walls"
        )


def scan_potential(
    params: Params, a: float, b: float, depths, grid: Grid2D,
    solver: SolverConfig = SolverConfig(),
) -> tuple[list, dict, dict]:
    """Sweep box depth V0 on grid against the trinomial bound-state window.

    Prediction: V0 strictly inside the window q(V0) < 0 forces a gap
    state.  Observation: a certified in-window eigenvalue whose vector is
    localized.  Agreement is one-sided (window implies presence).
    """
    _check_box(a, b, grid)
    window = boundstate_window(params, a, b)
    depths = [float(v) for v in depths]
    records = [{"axis_value": v, "predicted": window is not None and window[0] < v < window[1]}
               for v in depths]

    for rec in records:
        pot = BoxPotential(a, b, rec["axis_value"])
        _observe_gap(rec, assemble_H(grid, params, pot), params, solver)

    meta = {
        "box": [float(a), float(b)],
        "window": None if window is None else [window[0], window[1]],
        "gap_window": list(gap_window(params)),
        "delta": params.delta,
    }
    return _sweep("potential_depth", records, meta)


# ---------------------------------------------------------------------------
# coupling-strength sweep


def _check_support(model: PerturbationModel, grid: Grid2D) -> None:
    """The perturbation's support lies inside grid."""
    x0, x1, y0, y1 = model.support
    if x0 < grid.x_min or x1 > grid.x_max or y0 < 0.0 or y1 > grid.y_max:
        raise ValueError(
            f"perturbation support {model.support} is not contained in the "
            f"domain [{grid.x_min}, {grid.x_max}] x [0, {grid.y_max}]"
        )


def scan_perturbation(
    params: Params, model: PerturbationModel, eps_values, grid: Grid2D,
    solver: SolverConfig = SolverConfig(),
) -> tuple[list, dict, dict]:
    """Sweep coupling strength on grid against the sign of the trial energy.

    Prediction: a_eps_derived < 0 buys a gap state once the domain holds
    the spread-out trial, so the domain actually used is recorded in the
    meta block.  Agreement is again one-sided.
    """
    _check_support(model, grid)
    eps_values = [float(e) for e in eps_values]
    energies = [a_eps_derived(model, e, params) for e in eps_values]
    records = [{"axis_value": e, "predicted": a < 0.0} for e, a in zip(eps_values, energies)]
    try:
        threshold = eps_threshold(model, params)
    except ValueError:
        threshold = None

    field_samples = model.sample_on(grid)

    for rec in records:
        op = assemble_H_eps(grid, params, field_samples, rec["axis_value"])
        _observe_gap(rec, op, params, solver)

    meta = {
        "label": model.label,
        "support": [float(s) for s in model.support],
        "a_eps_derived": energies,
        "eps_threshold": threshold,
        "domain": [grid.x_min, grid.x_max, 0.0, grid.y_max],
        "grid_shape": [grid.nx, grid.ny],
        "gap_window": list(gap_window(params)),
    }
    return _sweep("epsilon", records, meta)


# ---------------------------------------------------------------------------
# grid-refinement study


def _ladder_grid(nx: int, x_half: float, y_max: float) -> Grid2D:
    """Grid with square cells when y_max = x_half and ny tied to nx."""
    ny = (int(nx) + 1) // 2
    return Grid2D(x_min=-x_half, x_max=x_half, y_max=y_max, nx=int(nx), ny=ny)


def convergence_study(
    observable: str,
    ladder,
    params: Params,
    x_half: float = 20.0,
    box: tuple = (1.0, 1.0 + np.pi),
    depth: float = -3.0,
    solver: SolverConfig = SolverConfig(),
) -> tuple[list, dict, dict]:
    """Track one observable down a strictly refining nx ladder.

    gap-edge: the free edge (free_edge), approaching the band edge.
    bound-state-lambda: the gap eigenvalue of the box well [a, b]^2 at
    depth, nearest 0.  square-form-min: the bottom of the free square
    form (lowest_of_square, no solver block), approaching delta^2 plus
    the finite-domain offset.

    The order is fitted to the successive differences |v_i - v_(i+1)|
    against the coarse-rung spacings on a log-log scale, so no knowledge
    of the limit is needed.  Returns (rows, checks, detail):
    CONVERGENCE_COLUMNS rows, diffs_shrinking (every difference below the
    one before it) and order_positive, and the fitted order and values.
    """
    if observable not in OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}; pick one of {OBSERVABLES}")
    ladder = [int(n) for n in ladder]
    _check_ladder(ladder)

    values = []
    for nx in ladder:
        grid = _ladder_grid(nx, x_half, x_half)
        if observable == "gap-edge":
            values.append(free_edge(grid, params))
        elif observable == "bound-state-lambda":
            pot = BoxPotential(box[0], box[1], depth)
            op = assemble_H(grid, params, pot)
            rep = nearest_eigenvalues(op, 0.0, **asdict(solver))
            values.append(float(np.min(np.abs(rep.eigenvalues))))
        else:
            op = assemble_square_form(grid, params, None)
            values.append(float(lowest_of_square(op, k=1).eigenvalues[0]))

    hs = [2.0 * x_half / (n - 1) for n in ladder]
    diffs = [abs(v0 - v1) for v0, v1 in zip(values, values[1:])]
    if min(diffs) <= 0.0:
        raise ValueError("successive rungs returned identical values; no order to fit")
    order = fit_slope(hs[:-1], diffs)
    rows = [{"rung": n, "observable": observable, "value": float(v), "fitted_order": float(order)}
            for n, v in zip(ladder, values)]
    checks = {"diffs_shrinking": all(b < a for a, b in zip(diffs, diffs[1:])),
              "order_positive": bool(order > 0.0)}
    return rows, checks, {"fitted_order": order, "values": values}


# ---------------------------------------------------------------------------
# domain-growth probe


def _domain_grid(L: float, h: float) -> Grid2D:
    """The domain probe's rung: [-L, L] x [0, L] at spacing h."""
    n = int(round(L / h))
    return Grid2D(x_min=-L, x_max=L, y_max=L, nx=2 * n + 1, ny=n + 1)


def _check_domains(domains) -> None:
    if len(domains) < 2:
        raise ValueError(f"domain ladder needs at least 2 rungs, got {len(domains)}")
    for lo, hi in zip(domains, domains[1:]):
        if hi <= lo:
            raise ValueError(f"domain ladder is not increasing: {lo} before {hi}")


def delocalization_probe(
    params: Params,
    domains,
    h: float = 0.5,
    potential: PotentialSpec | None = None,
    solver: SolverConfig = SolverConfig(),
) -> tuple[list, dict, dict]:
    """Grow the domain at fixed spacing and watch the edge state's footprint.

    Without a potential the smallest-|lambda| vector is a continuum edge
    state: its participation fraction must not drop as the box grows
    (10% band).  A bound-state potential flips that trend, which is the
    probe's sanity inversion; no agreement is asserted for that case.
    The potential must not depend on the grid, since every rung has its
    own; a box has to fit the smallest rung.
    """
    domains = [float(L) for L in domains]
    _check_domains(domains)
    free = potential is None
    records = [{"axis_value": L, "predicted": bool(free)} for L in domains]

    prs = []
    for rec in records:
        grid = _domain_grid(rec["axis_value"], h)
        if free:
            op = assemble_T(grid, params)
        else:
            op = assemble_H(grid, params, potential)
        rep = _smallest_abs_pair(op, params, solver)
        i = int(np.argmin(np.abs(rep.eigenvalues)))
        pr = float(rep.participation[i])
        prs.append(pr)
        rec.update(
            {
                "observed_count": int(rep.k),
                "min_abs_lambda": float(np.abs(rep.eigenvalues[i])),
                "min_participation": pr,
                "solve_fill": rep.certificate["solve_fill"],
            }
        )

    for i, rec in enumerate(records):
        rec["agreement"] = not free or i == 0 or bool(
            prs[i] >= (1.0 - DOMAIN_NOISE_BAND) * prs[i - 1])

    meta = {
        "h": float(h),
        "noise_band": DOMAIN_NOISE_BAND,
        "participation": prs,
        "free": bool(free),
        "delta": params.delta,
    }
    return _sweep("domain_size", records, meta)


def _smallest_abs_pair(op, params: Params, solver: SolverConfig) -> SpectrumReport:
    """Smallest-|lambda| pairs: in-gap states if any, else the band edge,
    as the solver.k pairs nearest the shift 0.95 delta just inside the gap."""
    lo, hi = gap_window(params)
    rep = gap_eigs(op, lo, hi, **asdict(solver))
    return rep if rep.k else nearest_eigenvalues(op, hi, **asdict(solver))


# ---------------------------------------------------------------------------
# band-edge probe


def free_edge(grid: Grid2D, params: Params) -> float:
    """The free operator's discrete band edge on grid: its smallest |lambda|,
    delta + lambda_min(Kx), the unpaired coupling of T's exact separable
    spectrum (fiber module docstring), read off one tridiagonal solve of
    Kx: nothing is assembled in 2D and no 2D eigensolver runs."""
    kx = stiffness_x(grid.nx, grid.hx)
    return float(params.delta + eigvalsh_tridiagonal(kx.diagonal(), kx.diagonal(1))[0])


def fiber_cross_check(grid: Grid2D, params: Params) -> dict:
    """The free 2D edge (free_edge: no eigensolver) against the fiber union
    at the same delta, within 5%.  The union over any momentum grid holding
    0 is exactly 0.0 + delta (fiber.union_edge), so it is delta itself."""
    union = float(params.delta)
    two_d = free_edge(grid, params)
    rel = abs(two_d - union) / union
    return {
        "union_edge": union,
        "two_d_min_abs_lambda": two_d,
        "rel_err": rel,
        "within_5pct": bool(rel <= 0.05),
    }


# ---------------------------------------------------------------------------
# fiber table


def _inertia_bracket(op, xi: float, m: float) -> dict:
    """Certify m as the fiber's min |lambda| by two inertia counts.

    No eigenvalue may lie within m - w of zero and exactly one within
    m + w, w = 1e-10 ||M||_inf of the assembled fiber: the scale of
    dense_eigs' residual gate, read off the matrix without a solve
    (||M||_inf >= max |lambda|).  The single count at m + w also certifies
    that the next level sqrt(c^2 + s_1^2) lies outside the bracket.  The
    counts come from an assembled matrix, the FiberFamily member with
    coupling fiber_edge(xi, params): where its eigenvalues lie is the
    assembly's answer, not the closed form's, so a wrong identity (an
    unpaired eigenvalue off the coupling, or a paired level below it)
    fails here rather than landing in the table.  count_within factors
    M^2 - r^2 I, whose roundoff is about eps ||M||^2 against a margin of
    2 m w, so m below about 1e-6 ||M|| cannot be certified and raises.  A
    radius at or below zero holds no eigenvalue and is not factored.
    """
    w = 1e-10 * _inf_norm(op.matrix)
    radii = [m - w, m + w]
    bracket = {"xi": xi, "radii": radii,
               "counts": [count_within(op, r)["count"] if r > 0.0 else 0 for r in radii]}
    if bracket["counts"] != [0, 1]:
        raise ConvergenceError(
            f"fiber xi = {xi}: {bracket['counts'][0]} eigenvalues within {radii[0]!r} "
            f"and {bracket['counts'][1]} within {radii[1]!r}, expected 0 and 1 "
            f"around min |lambda| = {m!r}",
            [bracket],
        )
    return bracket


def fiber_table(params: Params, xi_values, ny: int, y_max: float) -> tuple[list, dict, dict]:
    """The fiber table over xi_values on the y grid (y_max, ny): each row
    (FIBER_COLUMNS) reads the fiber's min |lambda| as its unpaired
    eigenvalue xi^2 + delta (fiber module docstring), certified by
    _inertia_bracket.  Returns (rows, checks, detail): the detail names
    that route and holds the brackets, and union_edge where xi_values
    hold 0."""
    family = FiberFamily(YGrid(float(y_max), int(ny)))
    rows, brackets = [], []
    for xi in xi_values:
        edge = fiber_edge(xi, params)
        brackets.append(_inertia_bracket(family(edge), float(xi), edge))
        rows.append({"xi": float(xi), "edge_analytic": edge, "min_abs_lambda": edge,
                     "rel_err": 0.0})
    checks = {"edges_within_5pct": all(r["rel_err"] <= 0.05 for r in rows)}
    detail = {"min_abs_lambda_route": "unpaired eigenvalue xi^2 + delta, certified by count_within",
              "inertia_brackets": brackets}
    if 0.0 in xi_values:
        detail["union_edge"] = union_edge(xi_values, params)
        checks["union_edge_is_delta"] = detail["union_edge"] == params.delta
    return rows, checks, detail
