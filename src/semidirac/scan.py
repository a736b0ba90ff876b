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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .assembly import assemble_H, assemble_H_eps, assemble_square_form, assemble_T
from .eigensolve import SpectrumReport, gap_eigs, nearest_eigenvalues
from .fiber import separable_spectrum
from .lattice import BoxPotential, Grid2D, Params, PotentialSpec
from .quasimode import PerturbationModel, a_eps_derived, boundstate_window, eps_threshold

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
    whole as ``**asdict(solver)``; a probe that needs a fixed k replaces it."""

    k: int = 6
    tol: float = 1e-8
    max_iter: int = 600
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")


@dataclass(frozen=True)
class ScanResult:
    """One sweep: axis name, grid of values, per-point records, run metadata.

    records hold plain Python scalars only, already in serialization
    order, so identical configurations reproduce identical files byte for
    byte downstream.
    """

    axis: str
    values: tuple
    records: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.values) != len(self.records):
            raise ValueError(
                f"{len(self.values)} axis values but {len(self.records)} records"
            )

    def to_rows(self) -> list[dict]:
        return [{c: rec[c] for c in SCAN_COLUMNS} for rec in self.records]

    def all_agree(self) -> bool:
        return all(rec["agreement"] for rec in self.records)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Observable values down a strictly refining ladder, with a fitted order.

    The order comes from successive differences |v_i - v_{i+1}| against
    the coarse-rung spacings on a log-log fit, so no knowledge of the
    limit is needed.
    """

    observable: str
    ladder: tuple
    values: tuple
    fitted_order: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.observable not in OBSERVABLES:
            raise ValueError(
                f"unknown observable {self.observable!r}; pick one of {OBSERVABLES}"
            )
        _check_ladder(self.ladder)
        if len(self.values) != len(self.ladder):
            raise ValueError("one value per rung required")

    def to_rows(self) -> list[dict]:
        return [
            {
                "rung": int(r),
                "observable": self.observable,
                "value": float(v),
                "fitted_order": float(self.fitted_order),
            }
            for r, v in zip(self.ladder, self.values)
        ]


def _check_ladder(ladder) -> None:
    if len(ladder) < 3:
        raise ValueError(f"ladder needs at least 3 rungs, got {len(ladder)}")
    for lo, hi in zip(ladder, ladder[1:]):
        if hi == lo:
            raise ValueError(f"ladder repeats the rung {lo}")
        if hi < lo:
            raise ValueError(f"ladder is not increasing: {lo} before {hi}")


# ---------------------------------------------------------------------------
# gap observation shared by the sweeps


def _observe_gap(rec: dict, op, params: Params, solver: SolverConfig) -> None:
    """Fill a sweep record with the certified in-window count, localization
    stats of the converged pairs and the one-sided agreement verdict."""
    lo, hi = gap_window(params)
    rep = gap_eigs(op, lo, hi, **asdict(solver))
    cert = rep.certificate or {}
    count = cert.get("count")
    if count is None:
        count = rep.k
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
        "observed_count": int(count),
        "min_abs_lambda": min_abs,
        "min_participation": min_pr,
        "agreement": bool(not rec["predicted"] or (count > 0 and localized)),
    })


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
) -> ScanResult:
    """Sweep box depth V0 on grid against the trinomial bound-state window.

    Prediction: V0 strictly inside the window q(V0) < 0 forces a gap
    state.  Observation: a certified in-window eigenvalue whose vector is
    localized.  Agreement is one-sided (window implies presence).
    """
    _check_box(a, b, grid)
    window = boundstate_window(params, a, b)
    depths = [float(v) for v in depths]
    records = []
    for v in depths:
        predicted = window is not None and window[0] < v < window[1]
        records.append({"axis_value": v, "predicted": bool(predicted)})

    for rec in records:
        pot = BoxPotential(a, b, rec["axis_value"])
        _observe_gap(rec, assemble_H(grid, params, pot), params, solver)

    meta = {
        "box": [float(a), float(b)],
        "window": None if window is None else [window[0], window[1]],
        "gap_window": list(gap_window(params)),
        "delta": params.delta,
    }
    return ScanResult("potential_depth", tuple(depths), tuple(records), meta)


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
) -> ScanResult:
    """Sweep coupling strength on grid against the sign of the trial energy.

    Prediction: a_eps_derived < 0 buys a gap state once the domain holds
    the spread-out trial, so the domain actually used is recorded in the
    meta block.  Agreement is again one-sided.
    """
    _check_support(model, grid)
    eps_values = [float(e) for e in eps_values]
    records = []
    energies = []
    for e in eps_values:
        a_val = a_eps_derived(model, e, params)
        energies.append(a_val)
        records.append({"axis_value": e, "predicted": bool(a_val < 0.0)})
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
    return ScanResult("epsilon", tuple(eps_values), tuple(records), meta)


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
) -> ConvergenceStudy:
    """Track one observable down a strictly refining nx ladder.

    gap-edge: the free edge (free_edge), approaching the band edge.
    bound-state-lambda: the gap eigenvalue of the box well [a, b]^2 at
    depth, nearest 0.  square-form-min: the bottom of the free square
    form, approaching delta^2 plus the finite-domain offset.
    """
    ladder = [int(n) for n in ladder]
    _check_ladder(ladder)
    if observable not in OBSERVABLES:
        raise ValueError(
            f"unknown observable {observable!r}; pick one of {OBSERVABLES}"
        )

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
            # the free form's bottom sits in the wall-quantized edge ladder,
            # where a shift just below delta^2 separates it far better than
            # lowest_of_square's shift at zero does
            op = assemble_square_form(grid, params, None)
            sigma = (GAP_WINDOW_FRACTION * params.delta) ** 2
            rep = nearest_eigenvalues(
                op, sigma, **asdict(replace(solver, k=max(solver.k, 2)))
            )
            values.append(float(np.min(rep.eigenvalues)))

    hs = [2.0 * x_half / (n - 1) for n in ladder]
    diffs = [abs(v0 - v1) for v0, v1 in zip(values, values[1:])]
    if min(diffs) <= 0.0:
        raise ValueError("successive rungs returned identical values; no order to fit")
    order = float(np.polyfit(np.log(hs[:-1]), np.log(diffs), 1)[0])
    meta = {"x_half": x_half, "h": hs, "delta": params.delta}
    if observable == "bound-state-lambda":
        meta["box"] = [float(box[0]), float(box[1])]
        meta["depth"] = float(depth)
    return ConvergenceStudy(observable, tuple(ladder), tuple(values), order, meta)


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
) -> ScanResult:
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
            }
        )

    for i, rec in enumerate(records):
        if not free:
            rec["agreement"] = True
        elif i == 0:
            rec["agreement"] = True
        else:
            rec["agreement"] = bool(prs[i] >= (1.0 - DOMAIN_NOISE_BAND) * prs[i - 1])

    meta = {
        "h": float(h),
        "noise_band": DOMAIN_NOISE_BAND,
        "participation": prs,
        "free": bool(free),
        "delta": params.delta,
    }
    return ScanResult("domain_size", tuple(domains), tuple(records), meta)


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
    delta + lambda_min(Kx), read off the exact separable spectrum of T
    (fiber.separable_spectrum): nothing is assembled in 2D and no
    eigensolver runs."""
    return float(np.min(np.abs(separable_spectrum(grid, params))))
