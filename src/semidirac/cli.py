"""Command-line bench: one JSON config in, CSV tables and a summary out.

The config is validated up front against _SCHEMA, the one place that
lists every key, its type and its default.  Unknown keys, malformed
values and non-finite numbers (array entries included) are rejected with
the offending JSON path, and so is every grid the run would build past
MAX_REDUCED_DIM unknowns.  The canonical form fills in every default, so
re-serializing a parsed config is idempotent and its hash identifies the
run.  All numeric CSV
cells print with 17 significant digits and '\\n' endings; identical
configs reproduce identical CSV bytes.

The CLI parses, maps preconditions to config paths, dispatches and
writes.  The verdicts in summary.json are decided beside the numerics
they judge: scan owns the gap-window evidence (window_evidence), the
four sweeps and the fiber table, each returning (rows, checks, detail)
that its command writes as one table, one checks merge and one detail
merge, and the fiber cross-check; eigensolve owns
bottom_above_gap_square; quasimode owns the Weyl slopes and their band
(weyl_evidence).  Only one-line comparisons stay here:
hermitian_exact, gap_empty, and the cutoff and A_eps checks.

Exit codes: 0 success, 2 config or precondition failure, 3 solver
non-convergence (diagnostics still land in summary.json).

No environment variables are read; everything lives in the config.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
from dataclasses import asdict, dataclass, field
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
    _check_k,
    bottom_above_gap_square,
    dense_eigs,
    gap_eigs,
    lowest_of_square,
)
from .lattice import BoxPotential, Grid2D, NoPotential, Params, XOnlyPotential
from .quasimode import (
    aeps_divergence,
    box_perturbation,
    cutoff_row,
    disk_perturbation,
    eps_threshold,
    weyl_evidence,
    weyl_momentum,
    weyl_rows,
)
from .scan import (
    CONVERGENCE_COLUMNS,
    FIBER_COLUMNS,
    OBSERVABLES,
    SCAN_COLUMNS,
    SolverConfig,
    _check_box,
    _check_domains,
    _check_ladder,
    _check_support,
    _domain_grid,
    _ladder_grid,
    convergence_study,
    delocalization_probe,
    fiber_cross_check,
    fiber_table,
    gap_window,
    scan_perturbation,
    scan_potential,
    window_evidence,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# The most unknowns (reduced_dim) any grid of a run may have.  Memory
# basis: a 321x161 gap run (dimension 103,201) peaks at 238 MB, so a cap
# near ten times that dimension bounds a run at a few GB.
MAX_REDUCED_DIM = 1_000_000

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


class ConfigError(ValueError):
    """Config rejected; path points at the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# config schema: one table per block, one walker
#
# A table maps each key to (parser, default).  The default is _REQUIRED,
# _OMITTED (an absent block stays out of the canonical dict), a value, or
# a function of the canonical dict built so far; defaults go through the
# parser like any input.  A Tagged block picks its table by the value of
# its tag key.  After a block's keys are walked, its rules run in order,
# and a ValueError from rule(block, canonical) becomes a ConfigError at the
# rule's path; a rule may raise its own ConfigError to name one array
# entry, and that passes unchanged.  The library constructors run as rules,
# block by block, so a config with several faults reports the first one in
# walk order.

_REQUIRED = object()
_OMITTED = object()


@dataclass(frozen=True)
class Block:
    keys: dict           # key -> (parser or nested Block/Tagged, default)
    rules: tuple = ()    # (path, rule(block, canonical))


@dataclass(frozen=True)
class Tagged:
    tag: str
    tables: dict         # tag value -> Block


def _walk(doc, path: str, schema, root: dict | None = None) -> dict:
    """Canonical dict of one block: keys checked, defaults filled, rules run."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    canon: dict = {}
    root = canon if root is None else root
    if isinstance(schema, Tagged):
        if schema.tag not in doc:
            raise ConfigError(f"{path}.{schema.tag}", "missing required key")
        kind = _choice(*schema.tables)(doc[schema.tag], f"{path}.{schema.tag}")
        canon[schema.tag] = kind
        schema = schema.tables[kind]
    for key in doc:
        if key not in schema.keys and key not in canon:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key, (_, default) in schema.keys.items():
        if default is _REQUIRED and key not in doc:
            raise ConfigError(f"{path}.{key}", "missing required key")
    for key, (parse, default) in schema.keys.items():
        if key in doc:
            value = doc[key]
        elif default is _OMITTED:
            continue
        else:
            value = default(root) if callable(default) else default
        if isinstance(parse, (Block, Tagged)):
            canon[key] = _walk(value, f"{path}.{key}", parse, root)
        else:
            canon[key] = parse(value, f"{path}.{key}")
    for where, rule in schema.rules:
        try:
            rule(canon, root)
        except ConfigError:
            raise
        except (ValueError, OverflowError) as exc:
            raise ConfigError(where, str(exc)) from exc
    return canon


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {v!r}")
    try:
        out = float(v)
    except OverflowError:
        raise ConfigError(path, "integer too large for a float") from None
    if not math.isfinite(out):
        raise ConfigError(path, f"must be finite, got {v!r}")
    return out


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return v


def _numbers(v, path: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a non-empty array of numbers")
    return [_number(item, f"{path}[{i}]") for i, item in enumerate(v)]


def _choice(*choices):
    def parse(v, path: str) -> str:
        if not isinstance(v, str):
            raise ConfigError(path, f"expected a string, got {v!r}")
        if v not in choices:
            raise ConfigError(path, f"expected one of {sorted(choices)}, got {v!r}")
        return v
    return parse


def _shaped(*names, ordered=False):
    """Number array [names...]; ordered also asks names[0] < names[1]."""
    shape = f"[{', '.join(names)}]"

    def parse(v, path: str) -> list:
        out = _numbers(v, path)
        if ordered and (len(out) != 2 or out[0] >= out[1]):
            raise ConfigError(path, f"expected {shape} with {' < '.join(names)}, got {out}")
        if len(out) != len(names):
            raise ConfigError(path, f"expected {shape}")
        return out
    return parse


def _scales(v, path: str) -> list:
    out = _numbers(v, path)
    for i, s in enumerate(out):
        if s != int(s) or s < 2:
            raise ConfigError(f"{path}[{i}]", f"scales must be integers >= 2, got {s}")
    return [int(s) for s in out]


def _rungs(v, path: str) -> list:
    if not isinstance(v, list) or not all(
        isinstance(r, int) and not isinstance(r, bool) for r in v
    ):
        raise ConfigError(path, "expected an array of integer rungs")
    return list(v)


def _formats(v, path: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a non-empty array")
    for i, fmt in enumerate(v):
        if fmt not in ("csv", "json"):
            raise ConfigError(f"{path}[{i}]", f"expected 'csv' or 'json', got {fmt!r}")
    return sorted(set(v))


def _must(ok, message: str):
    """Rule failing with message (formatted with the block) unless ok(block, canonical)."""
    def rule(block, root):
        if not ok(block, root):
            raise ValueError(message.format(**block))
    return rule


def _refused_at(path: str, check, *args):
    """check(*args), a ValueError it raises becoming a config error at path:
    a precondition that needs the grid or another block exits 2, not 1."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _capped(path: str, dim: int) -> None:
    if dim > MAX_REDUCED_DIM:
        raise ConfigError(path, f"{dim} unknowns exceed the cap of {MAX_REDUCED_DIM}")


def _rungs_capped(grid_of):
    """Rule: the grid grid_of(rung, block) of every scan rung within the
    cap, refused at the first rung past it."""
    def rule(s, root):
        for i, rung in enumerate(s["values"]):
            _capped(f"$.scan.values[{i}]", grid_of(rung, s).reduced_dim)
    return rule


def _weyl_mus_outside_gap(q: dict, root: dict) -> None:
    params = Params(**root["params"])
    for i, mu in enumerate(q["weyl_mus"]):
        _refused_at(f"$.quasimode.weyl_mus[{i}]", weyl_momentum, mu, params)


def _potential(b: dict, grid: Grid2D | None = None):
    if b["type"] == "none":
        return NoPotential()
    if b["type"] == "box":
        return BoxPotential(b["a"], b["b"], b["value"])
    h, w, c = b["height"], b["width"], b["center"]
    return XOnlyPotential.from_callable(grid, lambda x: h * np.exp(-(((x - c) / w) ** 2)))


def _perturbation(b: dict):
    if b["type"] == "disk":
        return disk_perturbation(b["amplitude"], tuple(b["center"]), b["radius"])
    return box_perturbation(b["amplitude"], tuple(b["box"]))


def _defaults(fn) -> dict:
    """The keyword defaults of a library function, so each is written once."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


_SOLVER_DEFAULTS = asdict(SolverConfig())
_CONVERGENCE_DEFAULTS = _defaults(convergence_study)

_SOLVER = Block(
    {
        "mode": (_choice("dense", "gap", "square-form"), _REQUIRED),
        "k": (_integer, _SOLVER_DEFAULTS["k"]),
        "tol": (_number, _SOLVER_DEFAULTS["tol"]),
        "max_iter": (_integer, _SOLVER_DEFAULTS["max_iter"]),
        "seed": (_integer, _SOLVER_DEFAULTS["seed"]),
        "epsilon": (_number, 1.0),
        "interval": (_shaped("lo", "hi", ordered=True),
                     lambda c: list(gap_window(Params(**c["params"])))),
    },
    rules=(
        ("$.solver.k", _must(lambda s, c: s["k"] >= 1, "must be >= 1")),
        ("$.solver.tol", _must(lambda s, c: 0.0 < s["tol"] < 1.0, "must lie in (0, 1)")),
        ("$.solver.max_iter", _must(lambda s, c: s["max_iter"] >= 1, "must be >= 1")),
        ("$.solver.seed", _must(lambda s, c: s["seed"] >= 0, "must be >= 0")),
    ),
)

_BUILD_PERTURBATION = (("$.perturbation", lambda w, c: _perturbation(w)),)

_SCHEMA = Block({
    "params": (Block(
        {"delta": (_number, _REQUIRED)},
        rules=(("$.params.delta", lambda p, c: Params(**p)),),
    ), _REQUIRED),
    "grid": (Block(
        {"x_min": (_number, _REQUIRED), "x_max": (_number, _REQUIRED),
         "y_max": (_number, _REQUIRED), "nx": (_integer, _REQUIRED),
         "ny": (_integer, _REQUIRED)},
        rules=(("$.grid", lambda g, c: _capped("$.grid", Grid2D(**g).reduced_dim)),),
    ), _OMITTED),
    "potential": (Tagged("type", {
        "none": Block({}),
        "box": Block(
            {"a": (_number, _REQUIRED), "b": (_number, _REQUIRED),
             "value": (_number, _REQUIRED)},
            rules=(("$.potential", lambda p, c: _potential(p)),),
        ),
        "xonly_gaussian": Block(
            {"height": (_number, _REQUIRED), "width": (_number, 1.0),
             "center": (_number, 0.0)},
            rules=(("$.potential.width", _must(lambda p, c: p["width"] > 0.0,
                                               "must be positive")),),
        ),
    }), {"type": "none"}),
    "perturbation": (Tagged("type", {
        "disk": Block(
            {"center": (_shaped("x", "y"), _REQUIRED), "amplitude": (_number, _REQUIRED),
             "radius": (_number, _REQUIRED)},
            rules=_BUILD_PERTURBATION,
        ),
        "box": Block(
            {"box": (_shaped("x0", "x1", "y0", "y1"), _REQUIRED),
             "amplitude": (_number, _REQUIRED)},
            rules=_BUILD_PERTURBATION,
        ),
    }), _OMITTED),
    "solver": (_SOLVER, _OMITTED),
    "scan": (Tagged("axis", {
        "potential": Block(
            {"values": (_numbers, _REQUIRED), "a": (_number, _REQUIRED),
             "b": (_number, _REQUIRED)},
            rules=(("$.scan", _must(lambda s, c: s["a"] < s["b"], "empty box [{a}, {b}]")),),
        ),
        "epsilon": Block(
            {"values": (_numbers, _REQUIRED)},
            rules=(("$.perturbation", _must(lambda s, c: "perturbation" in c,
                                            "epsilon scan needs a perturbation block")),),
        ),
        "convergence": Block(
            {"values": (_rungs, _REQUIRED),
             "observable": (_choice(*OBSERVABLES), _REQUIRED),
             "x_half": (_number, _CONVERGENCE_DEFAULTS["x_half"]),
             "depth": (_number, _CONVERGENCE_DEFAULTS["depth"]),
             "box": (_shaped("a", "b", ordered=True), list(_CONVERGENCE_DEFAULTS["box"]))},
            rules=(
                ("$.scan.values", lambda s, c: _check_ladder(s["values"])),
                ("$.scan.x_half", _must(lambda s, c: s["x_half"] > 0.0, "must be positive")),
                ("$.scan.values", lambda s, c: _ladder_grid(s["values"][0], s["x_half"],
                                                            s["x_half"])),
                ("$.scan.values", _rungs_capped(lambda n, s: _ladder_grid(n, s["x_half"],
                                                                          s["x_half"]))),
            ),
        ),
        "domain": Block(
            {"values": (_numbers, _REQUIRED),
             "h": (_number, _defaults(delocalization_probe)["h"])},
            rules=(
                ("$.scan.h", _must(lambda s, c: s["h"] > 0.0, "must be positive")),
                ("$.scan.values", lambda s, c: _check_domains(s["values"])),
                ("$.scan.values", lambda s, c: _domain_grid(s["values"][0], s["h"])),
                ("$.scan.values", _rungs_capped(lambda L, s: _domain_grid(L, s["h"]))),
            ),
        ),
    }), _OMITTED),
    "quasimode": (Block({
        "weyl_mus": (_numbers, lambda c: [s * (c["params"]["delta"] + t)
                                          for s in (1.0, -1.0) for t in (0.0, 1.0, 4.0)]),
        "weyl_ns": (_scales, [8, 16, 32, 64]),
        "cutoff_ns": (_scales, [4, 16, 64]),
        "eps_values": (_numbers, [0.0, 0.25, 0.5, 0.75, 1.0]),
    }, rules=(
        ("$.quasimode.weyl_mus", _weyl_mus_outside_gap),
        ("$.quasimode.weyl_ns", _must(lambda q, c: len(set(q["weyl_ns"])) >= 2,
                                      "need at least two distinct scales to fit a slope")),
    )), {}),
    "fiber": (Block(
        {"xi_values": (_numbers, [round(v, 12) for v in np.linspace(-2.0, 2.0, 21)]),
         "ny": (_integer, 400), "y_max": (_number, 40.0)},
        rules=(
            ("$.fiber.ny", _must(lambda f, c: f["ny"] >= 4, "must be >= 4")),
            ("$.fiber.y_max", _must(lambda f, c: f["y_max"] > 0.0, "must be positive")),
            # the fiber's reduced dimension: 2 ny - 1 unknowns on its edge fold
            ("$.fiber.ny", lambda f, c: _capped("$.fiber.ny", 2 * f["ny"] - 1)),
        ),
    ), {}),
    "export": (Block({
        "operator": (_choice("T", "H", "H_eps", "square-form"),
                     lambda c: "T" if c["potential"]["type"] == "none" else "H"),
    }), {}),
    "output": (Block({"formats": (_formats, ["csv", "json"])}), {}),
})


@dataclass
class RunConfig:
    """Validated config: canonical dict plus constructed library objects.

    The walk runs the library constructors, so every module precondition
    (grid sizes, box placement, support positivity) fails in parse_config,
    before any matrix is assembled.
    """

    canonical: dict
    params: Params
    grid: Grid2D | None

    def potential(self, grid: Grid2D):
        """The potential on grid; a box that does not fit it is a config error."""
        pot = _potential(self.canonical["potential"], grid)
        if isinstance(pot, BoxPotential):
            _refused_at("$.potential", pot.validate_against, grid)
        return pot

    def perturbation(self):
        b = self.canonical.get("perturbation")
        return None if b is None else _perturbation(b)

    def solver(self) -> SolverConfig:
        """The solver block's settings, or SolverConfig's defaults without one."""
        b = self.canonical.get("solver", {})
        return SolverConfig(**{k: b[k] for k in _SOLVER_DEFAULTS if k in b})


def parse_config(doc) -> RunConfig:
    """Validate a decoded JSON document against _SCHEMA and build the library objects."""
    if not isinstance(doc, dict):
        raise ConfigError("$", f"top level must be an object, got {type(doc).__name__}")
    canonical = _walk(doc, "$", _SCHEMA)
    grid = canonical.get("grid")
    return RunConfig(canonical, Params(**canonical["params"]),
                     None if grid is None else Grid2D(**grid))


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

    def summary(self) -> dict:
        doc = {
            "command": self.command,
            "config": self.canonical,
            "checks": self.checks,
            "provenance": {
                "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "config_sha256": config_hash(self.canonical),
            },
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
    cols = zip(rep.eigenvalues, rep.residuals, rep.participation, rep.y_decay)
    return [dict(zip(EIGENVALUE_COLUMNS, (i, *map(float, c)))) for i, c in enumerate(cols)]


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
        _refused_at("$.perturbation", _check_support, model, grid)
        eps = cfg.canonical.get("solver", {}).get("epsilon", _SOLVER.keys["epsilon"][1])
        return assemble_H_eps(grid, cfg.params, model.sample_on(grid), eps)
    if which == "T":
        # the free operator, whatever the potential block holds
        return assemble_T(grid, cfg.params)
    return assemble_H(grid, cfg.params, cfg.potential(grid))


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg: RunConfig) -> ResultBundle:
    solver = cfg.canonical.get("solver")
    if solver is None:
        raise ConfigError("$.solver", "spectrum needs a solver block")
    grid = _require_grid(cfg)
    mode = solver["mode"]
    bundle = ResultBundle("spectrum", cfg.canonical)

    if mode != "dense":
        _refused_at("$.solver.k", _check_k, cfg.solver().k, grid.reduced_dim)
    elif grid.reduced_dim > DENSE_CAP_DEFAULT:
        raise ConfigError(
            "$.solver.mode",
            f"dense mode caps at dimension {DENSE_CAP_DEFAULT}, "
            f"this grid gives {grid.reduced_dim}",
        )
    if mode == "square-form":
        op = _build_operator(cfg, "square-form", grid)
        rep = lowest_of_square(op, cfg.solver().k)
        bundle.checks["bottom_above_gap_square"] = bottom_above_gap_square(rep, cfg.params.delta)
    else:
        op = _build_operator(cfg, "H", grid)
        if mode == "dense":
            rep = dense_eigs(op)
        else:
            lo, hi = solver["interval"]
            rep = gap_eigs(op, lo, hi, **asdict(cfg.solver()))
            evidence = window_evidence(rep)
            bundle.checks["certified"] = evidence["certified"]
            bundle.checks["gap_empty"] = evidence["count"] == 0
            bundle.extra["in_window_count"] = evidence["count"]
            bundle.extra["block_counts"] = evidence["block_counts"]
            if evidence["solve_fill"] is not None:
                bundle.extra["solve_fill"] = evidence["solve_fill"]

    bundle.checks["hermitian_exact"] = bool(op.sym_defect == 0.0)
    bundle.tables["eigenvalues.csv"] = (EIGENVALUE_COLUMNS, _eigen_rows(rep))
    bundle.extra["mode"] = mode
    bundle.extra["dim"] = op.dim
    return bundle


def cmd_quasimode(cfg: RunConfig) -> ResultBundle:
    q = cfg.canonical["quasimode"]
    bundle = ResultBundle("quasimode", cfg.canonical)

    rows = weyl_rows(q["weyl_mus"], q["weyl_ns"], cfg.params)
    bundle.tables["weyl.csv"] = (WEYL_COLUMNS, rows)
    bundle.extra["weyl_slopes"], weyl_checks = weyl_evidence(rows)
    bundle.checks.update(weyl_checks)

    cut = [cutoff_row(n) for n in q["cutoff_ns"]]
    bundle.tables["cutoff.csv"] = (CUTOFF_COLUMNS, cut)
    bundle.checks["cutoff_first_identity"] = all(
        r["first_deriv_identity_rel_err"] <= 1e-4 for r in cut)
    bundle.checks["cutoff_second_bound_slack"] = all(r["second_deriv_bound_slack"] > 0.0 for r in cut)

    model = cfg.perturbation()
    if model is None:
        # coincidence reference: unit-area box, so int w12 = -1, int w12^2 = 1
        model = box_perturbation(-1.0, (-0.5, 0.5, 1.0, 2.0))
    arows = [{"eps": float(eps), **aeps_divergence(model, eps, cfg.params)}
             for eps in q["eps_values"]]
    bundle.tables["aeps.csv"] = (AEPS_COLUMNS, arows)
    try:
        thr = eps_threshold(model, cfg.params)
    except ValueError:
        thr = None
    bundle.extra["eps_threshold"] = thr
    bundle.extra["perturbation"] = model.label
    if thr is not None:
        bundle.checks["aeps_negative_below_threshold"] = all(
            r["a_eps_derived"] < 0.0 for r in arows if 0.0 < r["eps"] < thr)
    return bundle


def _domain_potential(cfg: RunConfig, smallest: Grid2D):
    """The domain axis's potential: none, or a box that fits the smallest rung.

    Every rung has its own grid, so a potential sampled on one grid
    (xonly_gaussian) has no meaning there.
    """
    kind = cfg.canonical["potential"]["type"]
    if kind == "none":
        return None
    if kind != "box":
        raise ConfigError("$.potential", "the domain axis accepts only none or box")
    return cfg.potential(smallest)


def cmd_scan(cfg: RunConfig) -> ResultBundle:
    sc = cfg.canonical.get("scan")
    if sc is None:
        raise ConfigError("$.scan", "scan needs a scan block")
    axis = sc["axis"]
    solver = cfg.solver()

    if axis == "convergence":
        # the ladder's coarsest grid, which the schema has already built once
        grid = _ladder_grid(sc["values"][0], sc["x_half"], sc["x_half"])
        # the one observable that reads the solver block; every rung spans
        # the first rung's domain
        if sc["observable"] == "bound-state-lambda":
            _refused_at("$.solver.k", _check_k, solver.k, grid.reduced_dim)
            box = _refused_at("$.scan.box", BoxPotential, *sc["box"], sc["depth"])
            _refused_at("$.scan.box", box.validate_against, grid)
        name, columns = "convergence.csv", CONVERGENCE_COLUMNS
        rows, checks, detail = convergence_study(
            sc["observable"], sc["values"], cfg.params,
            x_half=sc["x_half"], box=tuple(sc["box"]), depth=sc["depth"], solver=solver,
        )
    else:
        grid = _domain_grid(sc["values"][0], sc["h"]) if axis == "domain" else _require_grid(cfg)
        _refused_at("$.solver.k", _check_k, solver.k, grid.reduced_dim)
        name, columns = "scan.csv", SCAN_COLUMNS
        if axis == "potential":
            _refused_at("$.scan", _check_box, sc["a"], sc["b"], grid)
            rows, checks, detail = scan_potential(
                cfg.params, sc["a"], sc["b"], sc["values"], grid, solver)
        elif axis == "epsilon":
            model = cfg.perturbation()
            _refused_at("$.perturbation", _check_support, model, grid)
            rows, checks, detail = scan_perturbation(cfg.params, model, sc["values"], grid, solver)
        else:
            rows, checks, detail = delocalization_probe(
                cfg.params, sc["values"], h=sc["h"], potential=_domain_potential(cfg, grid),
                solver=solver,
            )

    bundle = ResultBundle("scan", cfg.canonical, {name: (columns, rows)}, checks, detail)
    if cfg.grid is not None:
        cross = fiber_cross_check(cfg.grid, cfg.params)
        bundle.extra["fiber_cross_check"] = cross
        bundle.checks["fiber_cross_check"] = cross["within_5pct"]
    return bundle


def cmd_fiber(cfg: RunConfig) -> ResultBundle:
    f = cfg.canonical["fiber"]
    rows, checks, detail = fiber_table(cfg.params, f["xi_values"], f["ny"], f["y_max"])
    return ResultBundle("fiber", cfg.canonical, {"fiber.csv": (FIBER_COLUMNS, rows)}, checks, detail)


def cmd_export_matrix(cfg: RunConfig) -> ResultBundle:
    grid = _require_grid(cfg)
    which = cfg.canonical["export"]["operator"]
    op = _build_operator(cfg, which, grid)
    bundle = ResultBundle("export-matrix", cfg.canonical)
    bundle.texts["matrix.txt"] = export_coordinate_text(op)
    bundle.checks["hermitian_exact"] = bool(op.sym_defect == 0.0)
    bundle.extra["operator"] = which
    bundle.extra["dim"] = op.dim
    return bundle


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "quasimode": cmd_quasimode,
    "scan": cmd_scan,
    "fiber": cmd_fiber,
    "export-matrix": cmd_export_matrix,
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidirac",
        description="Spectral bench for the half-plane semi-Dirac operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "validate-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; has no effect (must be >= 1)",
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="replaces solver.seed when the config has a solver block",
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

    if args.seed is not None and args.seed < 0:
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

    if "solver" in cfg.canonical and args.seed is not None:
        cfg.canonical["solver"]["seed"] = args.seed
    if args.command == "validate-config":
        sys.stdout.write(canonical_text(cfg.canonical))
        return EXIT_OK

    out_dir = Path(args.out)
    try:
        bundle = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        diag = ResultBundle(args.command, cfg.canonical)
        diag.checks["converged"] = False
        diag.extra["error"] = str(exc)
        diag.extra["history_tail"] = list(getattr(exc, "history", ()))[-5:]
        diag.write(out_dir, cfg.canonical["output"]["formats"])
        print(f"solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    written = bundle.write(out_dir, cfg.canonical["output"]["formats"])
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
