"""Command-line bench: one JSON config in, CSV tables and a summary out.

The config is schema-validated up front (unknown keys rejected with the
offending JSON path) and canonicalized, so re-serializing a parsed
config is idempotent and its hash identifies the run.  All numeric CSV
cells print with 17 significant digits and '\\n' endings; identical
configs reproduce identical CSV bytes.

Exit codes: 0 success, 2 config or precondition failure, 3 solver
non-convergence (diagnostics still land in summary.json).

No environment variables are read; everything lives in the config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import (
    assemble_H,
    assemble_H_eps,
    assemble_square_form,
    assemble_T,
    export_coordinate_text,
)
from .eigensolve import (
    DENSE_CAP_DEFAULT,
    ConvergenceError,
    dense_eigs,
    gap_eigs,
    lowest_of_square,
    nearest_eigenvalues,
)
from .fiber import fiber_edge, fiber_operator, union_edge
from .lattice import BoxPotential, Grid2D, NoPotential, Params, XOnlyPotential
from .quasimode import (
    aeps_divergence,
    box_perturbation,
    cutoff_row,
    disk_bump,
    disk_perturbation,
    eps_threshold,
    fit_slope,
    product_bump,
    weyl_rows,
)
from .scan import (
    CONVERGENCE_COLUMNS,
    GAP_WINDOW_FRACTION,
    SCAN_COLUMNS,
    SolverConfig,
    convergence_study,
    delocalization_probe,
    scan_perturbation,
    scan_potential,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

EIGENVALUE_COLUMNS = (
    "index",
    "lambda",
    "residual",
    "participation_ratio",
    "y_decay_rate",
)
WEYL_COLUMNS = ("n", "k", "mu", "branch", "residual", "bound_rhs")
CUTOFF_COLUMNS = (
    "n",
    "Ix",
    "Iy",
    "Ixx",
    "first_deriv_identity_rel_err",
    "second_deriv_bound_slack",
)
AEPS_COLUMNS = ("eps", "a_eps_paper", "a_eps_derived", "rel_gap", "diverges")
FIBER_COLUMNS = ("xi", "edge_analytic", "min_abs_lambda", "rel_err")


class ConfigError(ValueError):
    """Config rejected; path points at the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# schema validation


def _as_block(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(path, f"expected an object, got {type(v).__name__}")
    return v


def _check_keys(block: dict, path: str, required: dict, optional: dict) -> None:
    _as_block(block, path)
    allowed = set(required) | set(optional)
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in block:
            raise ConfigError(f"{path}.{key}", "missing required key")


def _number(block: dict, path: str, key: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return float(default)
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {v!r}")
    if not np.isfinite(v):
        raise ConfigError(f"{path}.{key}", f"must be finite, got {v!r}")
    return float(v)


def _integer(block: dict, path: str, key: str, default=None) -> int:
    if key not in block:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return int(default)
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return int(v)


def _number_list(block: dict, path: str, key: str, default=None) -> list:
    if key not in block:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return list(default)
    v = block[key]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}.{key}", "expected a non-empty array of numbers")
    out = []
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{path}.{key}[{i}]", f"expected a number, got {item!r}")
        out.append(float(item))
    return out


def _string(block: dict, path: str, key: str, choices=None, default=None) -> str:
    if key not in block:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    v = block[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}", f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(f"{path}.{key}", f"expected one of {sorted(choices)}, got {v!r}")
    return v


@dataclass
class RunConfig:
    """Validated config: canonical dict plus constructed library objects.

    Construction exercises the library constructors, so every module
    precondition (grid sizes, box placement, support positivity) fails
    here, before any matrix is assembled.
    """

    canonical: dict
    params: Params
    grid: Grid2D | None
    potential_block: dict
    perturbation_block: dict | None
    solver_block: dict | None
    scan_block: dict | None
    quasimode_block: dict
    fiber_block: dict
    export_block: dict
    formats: tuple

    def potential(self, grid: Grid2D):
        kind = self.potential_block["type"]
        if kind == "none":
            return NoPotential()
        if kind == "box":
            b = self.potential_block
            return BoxPotential(b["a"], b["b"], b["value"])
        b = self.potential_block
        h, w, c = b["height"], b["width"], b["center"]
        return XOnlyPotential.from_callable(
            grid, lambda x: h * np.exp(-(((x - c) / w) ** 2))
        )

    def perturbation(self):
        if self.perturbation_block is None:
            return None
        b = self.perturbation_block
        if b["type"] == "disk":
            return disk_perturbation(b["amplitude"], tuple(b["center"]), b["radius"])
        return box_perturbation(b["amplitude"], tuple(b["box"]))

    def solver(self, grid: Grid2D) -> SolverConfig:
        b = self.solver_block or {}
        return SolverConfig(
            grid=grid,
            k=b.get("k", 6),
            tol=b.get("tol", 1e-8),
            max_iter=b.get("max_iter", 600),
            seed=b.get("seed", 0),
        )


def parse_config(doc) -> RunConfig:
    """Validate a decoded JSON document and build the library objects."""
    if not isinstance(doc, dict):
        raise ConfigError("$", f"top level must be an object, got {type(doc).__name__}")
    _check_keys(
        doc,
        "$",
        required={"params": None},
        optional={
            "grid": None,
            "potential": None,
            "perturbation": None,
            "solver": None,
            "scan": None,
            "quasimode": None,
            "fiber": None,
            "export": None,
            "output": None,
        },
    )

    pblock = doc["params"]
    _check_keys(pblock, "$.params", required={"delta": None}, optional={})
    delta = _number(pblock, "$.params", "delta")
    try:
        params = Params(delta=delta)
    except ValueError as exc:
        raise ConfigError("$.params.delta", str(exc)) from exc
    canonical: dict = {"params": {"delta": delta}}

    grid = None
    if "grid" in doc:
        g = doc["grid"]
        _check_keys(
            g,
            "$.grid",
            required={"x_min": None, "x_max": None, "y_max": None, "nx": None, "ny": None},
            optional={},
        )
        spec = {
            "x_min": _number(g, "$.grid", "x_min"),
            "x_max": _number(g, "$.grid", "x_max"),
            "y_max": _number(g, "$.grid", "y_max"),
            "nx": _integer(g, "$.grid", "nx"),
            "ny": _integer(g, "$.grid", "ny"),
        }
        try:
            grid = Grid2D(**spec)
        except ValueError as exc:
            raise ConfigError("$.grid", str(exc)) from exc
        canonical["grid"] = spec

    pot = _as_block(doc.get("potential", {"type": "none"}), "$.potential")
    kind = _string(pot, "$.potential", "type", choices={"none", "box", "xonly_gaussian"})
    if kind == "none":
        _check_keys(pot, "$.potential", required={"type": None}, optional={})
        canonical["potential"] = {"type": "none"}
    elif kind == "box":
        _check_keys(
            pot, "$.potential",
            required={"type": None, "a": None, "b": None, "value": None}, optional={},
        )
        spec = {
            "type": "box",
            "a": _number(pot, "$.potential", "a"),
            "b": _number(pot, "$.potential", "b"),
            "value": _number(pot, "$.potential", "value"),
        }
        try:
            BoxPotential(spec["a"], spec["b"], spec["value"])
        except ValueError as exc:
            raise ConfigError("$.potential", str(exc)) from exc
        canonical["potential"] = spec
    else:
        _check_keys(
            pot, "$.potential",
            required={"type": None, "height": None},
            optional={"width": None, "center": None},
        )
        canonical["potential"] = {
            "type": "xonly_gaussian",
            "height": _number(pot, "$.potential", "height"),
            "width": _number(pot, "$.potential", "width", default=1.0),
            "center": _number(pot, "$.potential", "center", default=0.0),
        }
        if canonical["potential"]["width"] <= 0.0:
            raise ConfigError("$.potential.width", "must be positive")

    pert = None
    if "perturbation" in doc:
        w = _as_block(doc["perturbation"], "$.perturbation")
        wkind = _string(w, "$.perturbation", "type", choices={"disk", "box"})
        if wkind == "disk":
            _check_keys(
                w, "$.perturbation",
                required={"type": None, "amplitude": None, "center": None, "radius": None},
                optional={},
            )
            center = _number_list(w, "$.perturbation", "center")
            if len(center) != 2:
                raise ConfigError("$.perturbation.center", "expected [x, y]")
            pert = {
                "type": "disk",
                "amplitude": _number(w, "$.perturbation", "amplitude"),
                "center": center,
                "radius": _number(w, "$.perturbation", "radius"),
            }
            try:
                disk_perturbation(pert["amplitude"], tuple(center), pert["radius"])
            except ValueError as exc:
                raise ConfigError("$.perturbation", str(exc)) from exc
        else:
            _check_keys(
                w, "$.perturbation",
                required={"type": None, "amplitude": None, "box": None}, optional={},
            )
            boxv = _number_list(w, "$.perturbation", "box")
            if len(boxv) != 4:
                raise ConfigError("$.perturbation.box", "expected [x0, x1, y0, y1]")
            pert = {
                "type": "box",
                "amplitude": _number(w, "$.perturbation", "amplitude"),
                "box": boxv,
            }
            try:
                box_perturbation(pert["amplitude"], tuple(boxv))
            except ValueError as exc:
                raise ConfigError("$.perturbation", str(exc)) from exc
        canonical["perturbation"] = pert

    solver = None
    if "solver" in doc:
        s = _as_block(doc["solver"], "$.solver")
        _check_keys(
            s, "$.solver",
            required={"mode": None},
            optional={"interval": None, "k": None, "tol": None, "max_iter": None,
                      "seed": None, "epsilon": None},
        )
        mode = _string(s, "$.solver", "mode", choices={"dense", "gap", "square-form"})
        solver = {
            "mode": mode,
            "k": _integer(s, "$.solver", "k", default=6),
            "tol": _number(s, "$.solver", "tol", default=1e-8),
            "max_iter": _integer(s, "$.solver", "max_iter", default=600),
            "seed": _integer(s, "$.solver", "seed", default=0),
            "epsilon": _number(s, "$.solver", "epsilon", default=1.0),
        }
        if "interval" in s:
            iv = _number_list(s, "$.solver", "interval")
            if len(iv) != 2 or iv[0] >= iv[1]:
                raise ConfigError("$.solver.interval", f"expected [lo, hi] with lo < hi, got {iv}")
            solver["interval"] = iv
        else:
            r = GAP_WINDOW_FRACTION * delta
            solver["interval"] = [-r, r]
        if solver["k"] < 1:
            raise ConfigError("$.solver.k", "must be >= 1")
        if not 0.0 < solver["tol"] < 1.0:
            raise ConfigError("$.solver.tol", "must lie in (0, 1)")
        if solver["max_iter"] < 1:
            raise ConfigError("$.solver.max_iter", "must be >= 1")
        canonical["solver"] = solver

    scan = None
    if "scan" in doc:
        sc = _as_block(doc["scan"], "$.scan")
        axis = _string(
            sc, "$.scan", "axis",
            choices={"potential", "epsilon", "convergence", "domain"},
        )
        if axis == "potential":
            _check_keys(
                sc, "$.scan",
                required={"axis": None, "values": None, "a": None, "b": None},
                optional={},
            )
            scan = {
                "axis": "potential",
                "values": _number_list(sc, "$.scan", "values"),
                "a": _number(sc, "$.scan", "a"),
                "b": _number(sc, "$.scan", "b"),
            }
            if not scan["a"] < scan["b"]:
                raise ConfigError("$.scan", f"empty box [{scan['a']}, {scan['b']}]")
        elif axis == "epsilon":
            _check_keys(sc, "$.scan", required={"axis": None, "values": None}, optional={})
            scan = {"axis": "epsilon", "values": _number_list(sc, "$.scan", "values")}
            if pert is None:
                raise ConfigError("$.perturbation", "epsilon scan needs a perturbation block")
        elif axis == "convergence":
            _check_keys(
                sc, "$.scan",
                required={"axis": None, "values": None, "observable": None},
                optional={"x_half": None, "box": None, "depth": None},
            )
            ladder = sc["values"]
            if not isinstance(ladder, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in ladder
            ):
                raise ConfigError("$.scan.values", "expected an array of integer rungs")
            scan = {
                "axis": "convergence",
                "values": [int(v) for v in ladder],
                "observable": _string(
                    sc, "$.scan", "observable",
                    choices={"gap-edge", "bound-state-lambda", "square-form-min"},
                ),
                "x_half": _number(sc, "$.scan", "x_half", default=20.0),
                "depth": _number(sc, "$.scan", "depth", default=-3.0),
            }
            if "box" in sc:
                boxv = _number_list(sc, "$.scan", "box")
                if len(boxv) != 2 or boxv[0] >= boxv[1]:
                    raise ConfigError("$.scan.box", f"expected [a, b] with a < b, got {boxv}")
                scan["box"] = boxv
            else:
                scan["box"] = [1.0, 1.0 + float(np.pi)]
        else:
            _check_keys(
                sc, "$.scan",
                required={"axis": None, "values": None}, optional={"h": None},
            )
            scan = {
                "axis": "domain",
                "values": _number_list(sc, "$.scan", "values"),
                "h": _number(sc, "$.scan", "h", default=0.5),
            }
            if scan["h"] <= 0.0:
                raise ConfigError("$.scan.h", "must be positive")
        canonical["scan"] = scan

    q = _as_block(doc.get("quasimode", {}), "$.quasimode")
    _check_keys(
        q, "$.quasimode",
        required={},
        optional={"weyl_mus": None, "weyl_ns": None, "cutoff_ns": None,
                  "eps_values": None, "bump": None},
    )
    qcanon = {
        "weyl_mus": _number_list(
            q, "$.quasimode", "weyl_mus",
            default=[delta, delta + 1.0, delta + 4.0,
                     -delta, -(delta + 1.0), -(delta + 4.0)],
        ),
        "weyl_ns": [
            _as_scale(v, i) for i, v in enumerate(
                _number_list(q, "$.quasimode", "weyl_ns", default=[8, 16, 32, 64])
            )
        ],
        "cutoff_ns": [
            _as_scale(v, i) for i, v in enumerate(
                _number_list(q, "$.quasimode", "cutoff_ns", default=[4, 16, 64])
            )
        ],
        "eps_values": _number_list(
            q, "$.quasimode", "eps_values", default=[0.0, 0.25, 0.5, 0.75, 1.0]
        ),
        "bump": _string(q, "$.quasimode", "bump", choices={"product", "disk"},
                        default="product"),
    }
    canonical["quasimode"] = qcanon

    f = _as_block(doc.get("fiber", {}), "$.fiber")
    _check_keys(
        f, "$.fiber",
        required={}, optional={"xi_values": None, "ny": None, "y_max": None},
    )
    fcanon = {
        "xi_values": _number_list(
            f, "$.fiber", "xi_values",
            default=[round(v, 12) for v in np.linspace(-2.0, 2.0, 21)],
        ),
        "ny": _integer(f, "$.fiber", "ny", default=400),
        "y_max": _number(f, "$.fiber", "y_max", default=40.0),
    }
    if fcanon["ny"] < 4:
        raise ConfigError("$.fiber.ny", "must be >= 4")
    if fcanon["y_max"] <= 0.0:
        raise ConfigError("$.fiber.y_max", "must be positive")
    canonical["fiber"] = fcanon

    e = _as_block(doc.get("export", {}), "$.export")
    _check_keys(e, "$.export", required={}, optional={"operator": None})
    default_op = "H" if canonical["potential"]["type"] != "none" else "T"
    ecanon = {
        "operator": _string(
            e, "$.export", "operator",
            choices={"T", "H", "H_eps", "square-form"}, default=default_op,
        )
    }
    canonical["export"] = ecanon

    out = _as_block(doc.get("output", {}), "$.output")
    _check_keys(out, "$.output", required={}, optional={"formats": None})
    formats = out.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError("$.output.formats", "expected a non-empty array")
    for i, fmt in enumerate(formats):
        if fmt not in ("csv", "json"):
            raise ConfigError(f"$.output.formats[{i}]", f"expected 'csv' or 'json', got {fmt!r}")
    formats = sorted(set(formats))
    canonical["output"] = {"formats": formats}

    return RunConfig(
        canonical=canonical,
        params=params,
        grid=grid,
        potential_block=canonical["potential"],
        perturbation_block=pert,
        solver_block=solver,
        scan_block=scan,
        quasimode_block=qcanon,
        fiber_block=fcanon,
        export_block=ecanon,
        formats=tuple(formats),
    )


def _as_scale(v: float, i: int) -> int:
    if v != int(v) or v < 2:
        raise ConfigError(f"$.quasimode[{i}]", f"scales must be integers >= 2, got {v}")
    return int(v)


def canonical_text(canonical: dict) -> str:
    return json.dumps(canonical, sort_keys=True, indent=2) + "\n"


def config_hash(canonical: dict) -> str:
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# serialization


def format_cell(v) -> str:
    """One CSV cell: booleans lowercase, floats at 17 significant digits."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(row[h]) for h in header))
    return "\n".join(lines) + "\n"


@dataclass
class ResultBundle:
    """Everything one run produced, before it is written out."""

    command: str
    canonical: dict
    tables: dict = field(default_factory=dict)   # filename -> (header, rows)
    checks: dict = field(default_factory=dict)   # name -> bool
    extra: dict = field(default_factory=dict)    # free-form, lands in summary
    texts: dict = field(default_factory=dict)    # filename -> raw text payload

    def provenance(self) -> dict:
        return {
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config_sha256": config_hash(self.canonical),
        }

    def summary(self) -> dict:
        doc = {
            "command": self.command,
            "config": self.canonical,
            "checks": self.checks,
            "provenance": self.provenance(),
        }
        if self.extra:
            doc["detail"] = self.extra
        return doc

    def write(self, out_dir: Path, formats) -> list[str]:
        """Single writer for every artifact of the run."""
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        if "csv" in formats:
            for name, (header, rows) in self.tables.items():
                path = out_dir / name
                path.write_text(render_csv(header, rows), encoding="utf-8", newline="")
                written.append(str(path))
        for name, text in self.texts.items():
            path = out_dir / name
            path.write_text(text, encoding="utf-8", newline="")
            written.append(str(path))
        if "json" in formats:
            path = out_dir / "summary.json"
            path.write_text(
                json.dumps(self.summary(), sort_keys=True, indent=2) + "\n",
                encoding="utf-8", newline="",
            )
            written.append(str(path))
        return written


# ---------------------------------------------------------------------------
# report -> rows


def _eigen_rows(rep) -> list[dict]:
    rows = []
    for i in range(rep.k):
        rows.append(
            {
                "index": i,
                "lambda": float(rep.eigenvalues[i]),
                "residual": float(rep.residuals[i]),
                "participation_ratio": float(rep.participation[i]),
                "y_decay_rate": float(rep.y_decay[i]),
            }
        )
    return rows


def _require_grid(cfg: RunConfig) -> Grid2D:
    if cfg.grid is None:
        raise ConfigError("$.grid", "this command needs a grid block")
    return cfg.grid


def _build_operator(cfg: RunConfig, which: str, grid: Grid2D):
    if which == "square-form":
        pot = cfg.potential(grid)
        if isinstance(pot, BoxPotential):
            raise ConfigError(
                "$.potential", "square-form mode accepts only none or xonly_gaussian"
            )
        return assemble_square_form(grid, cfg.params, pot)
    if which == "H_eps":
        model = cfg.perturbation()
        if model is None:
            raise ConfigError("$.perturbation", "H_eps needs a perturbation block")
        eps = (cfg.solver_block or {}).get("epsilon", 1.0)
        return assemble_H_eps(grid, cfg.params, model.sample_on(grid), eps)
    pot = cfg.potential(grid)
    if isinstance(pot, NoPotential) and which == "T":
        return assemble_T(grid, cfg.params)
    return assemble_H(grid, cfg.params, pot)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg: RunConfig) -> ResultBundle:
    if cfg.solver_block is None:
        raise ConfigError("$.solver", "spectrum needs a solver block")
    grid = _require_grid(cfg)
    solver = cfg.solver_block
    mode = solver["mode"]
    bundle = ResultBundle("spectrum", cfg.canonical)

    if mode == "square-form":
        op = _build_operator(cfg, "square-form", grid)
        rep = lowest_of_square(
            op, k=solver["k"], tol=solver["tol"],
            max_iter=solver["max_iter"], seed=solver["seed"],
        )
        bundle.checks["bottom_above_gap_square"] = bool(
            rep.eigenvalues[0] >= cfg.params.delta**2 - 0.05
        )
    else:
        op = _build_operator(cfg, "H", grid)
        if mode == "dense":
            if op.dim > DENSE_CAP_DEFAULT:
                raise ConfigError(
                    "$.solver.mode",
                    f"dense mode caps at dimension {DENSE_CAP_DEFAULT}, "
                    f"this grid gives {op.dim}",
                )
            rep = dense_eigs(op)
            lam = rep.eigenvalues
            bundle.checks["spectrum_symmetric"] = bool(
                np.max(np.abs(lam + lam[::-1])) <= 1e-8 * max(1.0, np.max(np.abs(lam)))
            )
        else:
            lo, hi = solver["interval"]
            rep = gap_eigs(
                op, lo, hi, k=solver["k"], tol=solver["tol"],
                max_iter=solver["max_iter"], seed=solver["seed"],
            )
            cert = rep.certificate or {}
            count = cert.get("count")
            bundle.checks["certified"] = bool(cert.get("certified", False))
            bundle.checks["gap_empty"] = bool(count == 0) if count is not None else bool(rep.k == 0)
            bundle.extra["in_window_count"] = int(count) if count is not None else rep.k

    bundle.checks["hermitian_exact"] = bool(op.sym_defect == 0.0)
    bundle.tables["eigenvalues.csv"] = (EIGENVALUE_COLUMNS, _eigen_rows(rep))
    bundle.extra["mode"] = mode
    bundle.extra["dim"] = op.dim
    return bundle


def cmd_quasimode(cfg: RunConfig) -> ResultBundle:
    q = cfg.quasimode_block
    bundle = ResultBundle("quasimode", cfg.canonical)
    bump = product_bump() if q["bump"] == "product" else disk_bump()

    rows = weyl_rows(q["weyl_mus"], q["weyl_ns"], cfg.params, bump)
    bundle.tables["weyl.csv"] = (WEYL_COLUMNS, rows)
    slopes = {}
    for mu in q["weyl_mus"]:
        got = [r for r in rows if r["mu"] == mu]
        slopes[f"{mu:.17g}"] = fit_slope([r["n"] for r in got], [r["residual"] for r in got])
    bundle.extra["weyl_slopes"] = slopes
    bundle.checks["weyl_residuals_below_bound"] = bool(
        all(r["residual"] <= r["bound_rhs"] * (1.0 + 1e-9) for r in rows)
    )
    bundle.checks["weyl_slopes_near_inverse_n"] = bool(
        all(-1.05 <= s <= -0.95 for s in slopes.values())
    )

    cut = [cutoff_row(n) for n in q["cutoff_ns"]]
    bundle.tables["cutoff.csv"] = (CUTOFF_COLUMNS, cut)
    bundle.checks["cutoff_first_identity"] = bool(
        all(r["first_deriv_identity_rel_err"] <= 1e-4 for r in cut)
    )
    bundle.checks["cutoff_second_bound_slack"] = bool(
        all(r["second_deriv_bound_slack"] > 0.0 for r in cut)
    )

    model = cfg.perturbation()
    if model is None:
        # coincidence reference: unit-area box, so int w12 = -1, int w12^2 = 1
        model = box_perturbation(-1.0, (-0.5, 0.5, 1.0, 2.0))
    arows = []
    for eps in q["eps_values"]:
        rep = aeps_divergence(model, eps, cfg.params)
        arows.append(
            {
                "eps": float(eps),
                "a_eps_paper": rep["a_eps_paper"],
                "a_eps_derived": rep["a_eps_derived"],
                "rel_gap": rep["rel_gap"],
                "diverges": rep["diverges"],
            }
        )
    bundle.tables["aeps.csv"] = (AEPS_COLUMNS, arows)
    try:
        thr = eps_threshold(model, cfg.params)
    except ValueError:
        thr = None
    bundle.extra["eps_threshold"] = thr
    bundle.extra["perturbation"] = model.label
    if thr is not None:
        inside = [r for r in arows if 0.0 < r["eps"] < thr]
        bundle.checks["aeps_negative_below_threshold"] = bool(
            all(r["a_eps_derived"] < 0.0 for r in inside)
        )
    return bundle


def _fiber_cross_check(cfg: RunConfig, grid: Grid2D) -> dict:
    """2D free edge against the fiber union at the same delta."""
    xi = np.array(cfg.fiber_block["xi_values"], dtype=np.float64)
    if not np.any(xi == 0.0):
        xi = np.concatenate([xi, [0.0]])
    union = union_edge(xi, cfg.params)
    op = assemble_T(grid, cfg.params)
    rep = nearest_eigenvalues(op, GAP_WINDOW_FRACTION * cfg.params.delta, k=2)
    two_d = float(np.min(np.abs(rep.eigenvalues)))
    rel = abs(two_d - union) / union
    return {
        "union_edge": union,
        "two_d_min_abs_lambda": two_d,
        "rel_err": rel,
        "within_5pct": bool(rel <= 0.05),
    }


def cmd_scan(cfg: RunConfig) -> ResultBundle:
    if cfg.scan_block is None:
        raise ConfigError("$.scan", "scan needs a scan block")
    sc = cfg.scan_block
    bundle = ResultBundle("scan", cfg.canonical)
    axis = sc["axis"]

    if axis == "potential":
        grid = _require_grid(cfg)
        res = scan_potential(
            cfg.params, sc["a"], sc["b"], sc["values"], cfg.solver(grid)
        )
    elif axis == "epsilon":
        grid = _require_grid(cfg)
        model = cfg.perturbation()
        res = scan_perturbation(cfg.params, model, sc["values"], cfg.solver(grid))
    elif axis == "convergence":
        study = convergence_study(
            sc["observable"], sc["values"], cfg.params,
            x_half=sc["x_half"], box=tuple(sc["box"]), depth=sc["depth"],
        )
        bundle.tables["convergence.csv"] = (CONVERGENCE_COLUMNS, study.to_rows())
        diffs = np.abs(np.diff(study.values))
        bundle.checks["diffs_shrinking"] = bool(np.all(np.diff(diffs) < 0.0))
        bundle.checks["order_positive"] = bool(study.fitted_order > 0.0)
        bundle.extra["fitted_order"] = study.fitted_order
        bundle.extra["values"] = list(study.values)
        if cfg.grid is not None:
            bundle.extra["fiber_cross_check"] = _fiber_cross_check(cfg, cfg.grid)
            bundle.checks["fiber_cross_check"] = bundle.extra["fiber_cross_check"]["within_5pct"]
        return bundle
    else:
        res = delocalization_probe(cfg.params, sc["values"], h=sc["h"])

    bundle.tables["scan.csv"] = (SCAN_COLUMNS, res.to_rows())
    bundle.checks["all_agree"] = res.all_agree()
    bundle.extra["axis"] = res.axis
    bundle.extra["meta"] = res.meta
    grid_for_fiber = cfg.grid
    if grid_for_fiber is not None:
        bundle.extra["fiber_cross_check"] = _fiber_cross_check(cfg, grid_for_fiber)
        bundle.checks["fiber_cross_check"] = bundle.extra["fiber_cross_check"]["within_5pct"]
    return bundle


def cmd_fiber(cfg: RunConfig) -> ResultBundle:
    f = cfg.fiber_block
    bundle = ResultBundle("fiber", cfg.canonical)
    rows = []
    for xi in f["xi_values"]:
        op = fiber_operator(xi, cfg.params, f["ny"], f["y_max"])
        rep = dense_eigs(op)
        got = float(np.min(np.abs(rep.eigenvalues)))
        edge = fiber_edge(xi, cfg.params)
        rows.append(
            {
                "xi": float(xi),
                "edge_analytic": edge,
                "min_abs_lambda": got,
                "rel_err": abs(got - edge) / edge,
            }
        )
    bundle.tables["fiber.csv"] = (FIBER_COLUMNS, rows)
    xi = np.array(f["xi_values"], dtype=np.float64)
    has_zero = bool(np.any(xi == 0.0))
    if has_zero:
        union = union_edge(xi, cfg.params)
        bundle.checks["union_edge_is_delta"] = bool(union == cfg.params.delta)
        bundle.extra["union_edge"] = union
    bundle.checks["edges_within_5pct"] = bool(all(r["rel_err"] <= 0.05 for r in rows))
    return bundle


def cmd_export_matrix(cfg: RunConfig) -> ResultBundle:
    grid = _require_grid(cfg)
    which = cfg.export_block["operator"]
    op = _build_operator(cfg, which, grid)
    bundle = ResultBundle("export-matrix", cfg.canonical)
    bundle.texts["matrix.txt"] = export_coordinate_text(op)
    bundle.checks["hermitian_exact"] = bool(op.sym_defect == 0.0)
    bundle.extra["operator"] = which
    bundle.extra["dim"] = op.dim
    return bundle


def cmd_validate_config(cfg: RunConfig) -> ResultBundle:
    bundle = ResultBundle("validate-config", cfg.canonical)
    bundle.checks["valid"] = True
    return bundle


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "quasimode": cmd_quasimode,
    "scan": cmd_scan,
    "fiber": cmd_fiber,
    "export-matrix": cmd_export_matrix,
    "validate-config": cmd_validate_config,
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidirac",
        description="Spectral bench for the half-plane semi-Dirac operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; has no effect (must be >= 1)",
        )
        p.add_argument(
            "--seed", type=int, default=0,
            help="seed for randomized probes (default 0)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.seed < 0:
        print("--seed: must be a nonnegative integer", file=sys.stderr)
        return EXIT_CONFIG
    if args.threads < 1:
        print("--threads: must be a positive integer", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if cfg.solver_block is not None and args.seed:
        cfg.solver_block["seed"] = args.seed
        cfg.canonical["solver"]["seed"] = args.seed

    command = _COMMANDS[args.command]
    out_dir = Path(args.out)
    try:
        bundle = command(cfg)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        diag = ResultBundle(args.command, cfg.canonical)
        diag.checks["converged"] = False
        diag.extra["error"] = str(exc)
        diag.extra["history_tail"] = list(getattr(exc, "history", ()))[-5:]
        diag.write(out_dir, cfg.formats)
        print(f"solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    if args.command == "validate-config":
        sys.stdout.write(canonical_text(cfg.canonical))
        return EXIT_OK

    written = bundle.write(out_dir, cfg.formats)
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
