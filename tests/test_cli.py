"""End-to-end runs of the command line driver in temporary directories."""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semidirac.cli
import semidirac.scan
from semidirac import (
    Grid2D,
    Params,
    SolverConfig,
    assemble_H_eps,
    assemble_T,
    box_perturbation,
    count_within,
    read_coordinate_text,
)
from semidirac.cli import (
    ConfigError,
    RunConfig,
    canonical_text,
    config_hash,
    format_cell,
    main,
    parse_config,
    render_csv,
)

BASE_GRID = {"x_min": -20.0, "x_max": 20.0, "y_max": 20.0, "nx": 81, "ny": 41}
SMALL_GRID = {**BASE_GRID, "nx": 21, "ny": 11}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# config parsing


def test_canonical_form_is_idempotent():
    cfg = parse_config({"params": {"delta": 1.0}})
    canon = cfg.canonical
    assert canon["potential"] == {"type": "none"}
    assert canon["output"] == {"formats": ["csv", "json"]}
    assert canon["fiber"]["ny"] == 400
    again = parse_config(json.loads(canonical_text(canon)))
    assert canonical_text(again.canonical) == canonical_text(canon)
    assert config_hash(again.canonical) == config_hash(canon)


def test_config_hash_ignores_key_order():
    a = parse_config({"params": {"delta": 2.0}, "grid": BASE_GRID})
    b = parse_config({"grid": dict(reversed(list(BASE_GRID.items()))), "params": {"delta": 2.0}})
    assert config_hash(a.canonical) == config_hash(b.canonical)
    c = parse_config({"params": {"delta": 2.5}})
    assert config_hash(c.canonical) != config_hash(a.canonical)


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({}, "$.params"),
        ({"params": {"delta": 1.0, "gamma": 2.0}}, "$.params.gamma: unknown key"),
        ({"params": {"delta": -1.0}}, "$.params.delta"),
        ({"params": {"delta": "one"}}, "expected a number"),
        ({"params": {"delta": 1.0}, "grid": {**BASE_GRID, "nx": 2}}, "$.grid: grid too coarse"),
        ({"params": {"delta": 1.0}, "potential": {"type": "well"}}, "$.potential.type"),
        ({"params": {"delta": 1.0}, "potential": {"type": "box", "a": 2.0, "b": 1.0, "value": -1.0}}, "$.potential"),
        ({"params": {"delta": 1.0}, "solver": {"mode": "gap", "tol": 2.0}}, "$.solver.tol"),
        ({"params": {"delta": 1.0}, "solver": {"mode": "gap", "interval": [1.0, -1.0]}}, "$.solver.interval"),
        ({"params": {"delta": 1.0}, "scan": {"axis": "epsilon", "values": [1.0]}}, "$.perturbation"),
        ({"params": {"delta": 1.0}, "scan": {"axis": "convergence", "values": [8.5, 16, 32], "observable": "gap-edge"}}, "$.scan.values"),
        ({"params": {"delta": 1.0}, "output": {"formats": ["csv", "yaml"]}}, "$.output.formats[1]"),
        ({"params": {"delta": 1.0}, "quasimode": {"weyl_ns": [1, 8]}}, "$.quasimode"),
        ({"params": {"delta": 1.0}, "perturbation": {"type": "disk", "amplitude": -1.0, "center": [0.0, 2.0], "radius": 5.0}}, "$.perturbation"),
    ],
)
def test_rejected_configs_point_at_the_offending_key(doc, fragment):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert fragment in str(info.value)


def test_top_level_must_be_object():
    with pytest.raises(ConfigError, match="top level"):
        parse_config([1, 2])


@pytest.mark.parametrize(
    "doc,path,message",
    [
        # non-finite array entries are rejected like non-finite scalars
        ({"quasimode": {"weyl_ns": [float("nan")]}}, "$.quasimode.weyl_ns[0]", "must be finite"),
        ({"quasimode": {"cutoff_ns": [4, float("inf")]}}, "$.quasimode.cutoff_ns[1]", "must be finite"),
        ({"fiber": {"xi_values": [0.5, float("nan")]}}, "$.fiber.xi_values[1]", "must be finite"),
        ({"solver": {"mode": "gap", "interval": [float("-inf"), 1.0]}}, "$.solver.interval[0]", "must be finite"),
        # scale errors name the key and the entry
        ({"quasimode": {"weyl_ns": [8, 16.5]}}, "$.quasimode.weyl_ns[1]", "scales must be integers >= 2"),
        ({"quasimode": {"cutoff_ns": [1]}}, "$.quasimode.cutoff_ns[0]", "scales must be integers >= 2"),
        # the convergence ladder is checked before any run
        ({"scan": {"axis": "convergence", "values": [], "observable": "gap-edge"}}, "$.scan.values", "at least 3 rungs"),
        ({"scan": {"axis": "convergence", "values": [8, 8, 16], "observable": "gap-edge"}}, "$.scan.values", "repeats the rung 8"),
        ({"scan": {"axis": "convergence", "values": [16, 8, 32], "observable": "gap-edge"}}, "$.scan.values", "not increasing"),
        # a negative seed and an integer past the float range
        ({"solver": {"mode": "gap", "seed": -1}}, "$.solver.seed", "must be >= 0"),
        ({"params": {"delta": 10**400}}, "$.params.delta", "too large"),
        # the ladder's half-width is checked before its first rung is built
        ({"scan": {"axis": "convergence", "values": [8, 16, 32], "observable": "gap-edge", "x_half": 0.0}}, "$.scan.x_half", "must be positive"),
    ],
)
def test_rejected_entries_name_their_exact_path(doc, path, message):
    with pytest.raises(ConfigError) as info:
        parse_config({"params": {"delta": 1.0}, **doc})
    assert info.value.path == path
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


@pytest.mark.parametrize(
    "command,doc,path",
    [
        ("quasimode", {"quasimode": {"weyl_ns": [float("nan")]}}, "$.quasimode.weyl_ns[0]"),
        ("quasimode", {"quasimode": {"weyl_ns": [float("inf")]}}, "$.quasimode.weyl_ns[0]"),
        ("validate-config", {"fiber": {"xi_values": [float("nan")]}}, "$.fiber.xi_values[0]"),
        ("scan", {"scan": {"axis": "convergence", "values": [], "observable": "gap-edge"}}, "$.scan.values"),
        ("validate-config", {"solver": {"mode": "gap", "seed": -1}}, "$.solver.seed"),
        ("validate-config", {"params": {"delta": 10**400}}, "$.params.delta"),
        # every domain rung has its own grid: no grid-bound potential, and
        # a box has to fit the smallest rung
        ("scan", {"potential": {"type": "xonly_gaussian", "height": -1.0},
                  "scan": {"axis": "domain", "values": [10.0, 20.0]}}, "$.potential"),
        ("scan", {"potential": {"type": "box", "a": 1.0, "b": 12.0, "value": -3.0},
                  "scan": {"axis": "domain", "values": [10.0, 20.0]}}, "$.potential"),
        # a domain ladder the probe cannot run is refused before any rung
        ("scan", {"scan": {"axis": "domain", "values": [10.0]}}, "$.scan.values"),
        ("scan", {"scan": {"axis": "domain", "values": [20.0, 10.0]}}, "$.scan.values"),
        # k is bounded by the dimension, known once the grid is
        ("spectrum", {"grid": {**BASE_GRID, "nx": 21, "ny": 11},
                      "solver": {"mode": "gap", "k": 10**23}}, "$.solver.k"),
        # the convergence ladder's first rung is built, and k checked
        # against it, before any rung is solved
        ("scan", {"scan": {"axis": "convergence", "values": [5, 9, 17],
                           "observable": "gap-edge"}}, "$.scan.values"),
        ("scan", {"scan": {"axis": "convergence", "values": [8, 16, 32],
                           "observable": "bound-state-lambda"},
                  "solver": {"mode": "gap", "k": 100000}}, "$.solver.k"),
        # geometry that needs the grid is checked against it before any solve
        ("spectrum", {"grid": SMALL_GRID, "potential": {"type": "box", "a": 1.0, "b": 30.0, "value": -3.0},
                      "solver": {"mode": "gap"}}, "$.potential"),
        ("export-matrix", {"grid": SMALL_GRID,
                           "potential": {"type": "box", "a": 1.0, "b": 30.0, "value": -3.0}},
         "$.potential"),
        ("scan", {"grid": SMALL_GRID, "scan": {"axis": "potential", "values": [-3.0],
                                               "a": 1.0, "b": 30.0}}, "$.scan"),
        ("scan", {"grid": SMALL_GRID, "scan": {"axis": "potential", "values": [-3.0],
                                               "a": 1.0, "b": 6.0}}, "$.scan"),
        ("scan", {"grid": SMALL_GRID, "scan": {"axis": "potential", "values": [-3.0],
                                               "a": -2.0, "b": 1.0}}, "$.scan"),
        ("scan", {"grid": SMALL_GRID,
                  "perturbation": {"type": "box", "amplitude": -1.0, "box": [-0.5, 0.5, 1.0, 30.0]},
                  "scan": {"axis": "epsilon", "values": [0.5]}}, "$.perturbation"),
        ("scan", {"scan": {"axis": "convergence", "values": [21, 41, 81],
                           "observable": "bound-state-lambda", "box": [1.0, 30.0]}}, "$.scan.box"),
        ("scan", {"scan": {"axis": "convergence", "values": [21, 41, 81],
                           "observable": "bound-state-lambda", "box": [-1.0, 2.0]}}, "$.scan.box"),
        # a Weyl energy in the gap, or a slope fitted to one distinct scale
        ("quasimode", {"quasimode": {"weyl_mus": [0.5]}}, "$.quasimode.weyl_mus[0]"),
        ("quasimode", {"quasimode": {"weyl_ns": [8]}}, "$.quasimode.weyl_ns"),
        ("quasimode", {"quasimode": {"weyl_ns": [8, 8]}}, "$.quasimode.weyl_ns"),
        # an exported H_eps is refused where the epsilon axis refuses it
        ("export-matrix", {"grid": SMALL_GRID, "export": {"operator": "H_eps"},
                           "perturbation": {"type": "box", "amplitude": -1.0, "box": [-0.5, 0.5, 1.0, 30.0]}},
         "$.perturbation"),
        # the Weyl faults above are refused at parse time, by every command
        ("validate-config", {"quasimode": {"weyl_mus": [0.5]}}, "$.quasimode.weyl_mus[0]"),
        ("validate-config", {"quasimode": {"weyl_ns": [8]}}, "$.quasimode.weyl_ns"),
        ("validate-config", {"quasimode": {"weyl_ns": [8, 8]}}, "$.quasimode.weyl_ns"),
        # a ladder the scan would refuse before its first rung is refused at
        # parse time, by every command
        ("validate-config", {"scan": {"axis": "domain", "values": [4.0]}}, "$.scan.values"),
        ("validate-config", {"scan": {"axis": "domain", "values": [1.0, 2.0]}}, "$.scan.values"),
        ("validate-config", {"scan": {"axis": "convergence", "values": [5, 9, 17],
                                      "observable": "gap-edge"}}, "$.scan.values"),
        # one size cap on every grid a run builds, checked at parse time
        ("validate-config", {"grid": {**BASE_GRID, "nx": 2000001, "ny": 100001}}, "$.grid"),
        ("spectrum", {"grid": {**BASE_GRID, "nx": 2000001, "ny": 100001},
                      "solver": {"mode": "gap"}}, "$.grid"),
        ("validate-config", {"scan": {"axis": "convergence", "values": [41, 81, 2000001],
                                      "observable": "gap-edge"}}, "$.scan.values[2]"),
        ("scan", {"scan": {"axis": "domain", "values": [10.0, 20.0], "h": 1e-300}},
         "$.scan.values[0]"),
        ("scan", {"scan": {"axis": "domain", "values": [100.0, 1000.0], "h": 0.25}},
         "$.scan.values[1]"),
        ("validate-config", {"fiber": {"ny": 10**8}}, "$.fiber.ny"),
        ("fiber", {"fiber": {"ny": 500001}}, "$.fiber.ny"),
        # a node count too large for a float is refused, not a traceback
        ("validate-config", {"scan": {"axis": "domain", "values": [10.0, 20.0], "h": 5e-324}},
         "$.scan.values"),
        # the Weyl trials have one bump, so the key that chose it is gone
        ("quasimode", {"quasimode": {"bump": "product"}}, "$.quasimode.bump"),
    ],
)
def test_rejected_entries_exit_2_through_the_driver(tmp_path, capsys, command, doc, path):
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}, **doc})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config: {path}: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "doc,path",
    [
        # each block's constructor runs before the next block is read
        ({"grid": {**BASE_GRID, "nx": 2}, "quasimode": {"weyl_ns": "x"}}, "$.grid"),
        ({"potential": {"type": "box", "a": 2.0, "b": 1.0, "value": -1.0}, "solver": {"mode": 1}}, "$.potential"),
        ({"perturbation": {"type": "box", "amplitude": 1.0, "box": [1, 0, 0, 1]}, "fiber": {"ny": "x"}}, "$.perturbation"),
        ({"params": {"delta": -1.0}, "grid": {"nx": 4}}, "$.params.delta"),
        # within a block, types are read before value rules run
        ({"fiber": {"ny": 2, "y_max": "x"}}, "$.fiber.y_max"),
        ({"solver": {"mode": "gap", "k": 0, "interval": [1.0, 0.0]}}, "$.solver.interval"),
        ({"potential": {"type": "xonly_gaussian", "height": 1.0, "width": -1.0, "center": "x"}}, "$.potential.center"),
    ],
)
def test_first_fault_is_reported_in_walk_order(doc, path):
    with pytest.raises(ConfigError) as info:
        parse_config({"params": {"delta": 1.0}, **doc})
    assert info.value.path == path


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_form_matches_golden(name):
    """Canonical text and hash of every benchmark workload config (seed 0)
    and of configs that set every block, every tag value and every key,
    frozen from the hand-written parser that the schema table replaced."""
    entry = GOLDEN[name]
    canon = parse_config(entry["config"]).canonical
    text = canonical_text(canon)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == entry["canonical_text_sha256"], text
    assert config_hash(canon) == entry["config_hash"]


def test_run_config_holds_canonical_params_and_grid_only():
    assert [f.name for f in fields(RunConfig)] == ["canonical", "params", "grid"]
    grid = Grid2D(**BASE_GRID)
    bare = parse_config({"params": {"delta": 1.0}, "grid": BASE_GRID})
    assert bare.grid == grid and bare.params == Params(1.0)
    assert bare.solver() == SolverConfig()
    cfg = parse_config({"params": {"delta": 1.0}, "solver": {"mode": "gap", "k": 3, "seed": 9}})
    assert cfg.grid is None
    assert cfg.solver() == SolverConfig(k=3, seed=9)
    # the canonical solver block spells out SolverConfig's own defaults
    solver = parse_config({"params": {"delta": 1.0}, "solver": {"mode": "gap"}}).canonical["solver"]
    defaults = SolverConfig()
    for key in ("k", "tol", "max_iter", "seed"):
        assert solver[key] == getattr(defaults, key)


# ---------------------------------------------------------------------------
# round trip over the schema


def _num(lo, hi):
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


def _increasing(lo, hi):
    return st.tuples(_num(lo, hi), _num(lo, hi)).filter(lambda p: p[0] < p[1]).map(list)


def _values():
    return st.lists(_num(-5.0, 5.0), min_size=1, max_size=4)


def _block(required, **optional):
    return st.fixed_dictionaries(required, optional=optional)


_POTENTIALS = st.one_of(
    st.just({"type": "none"}),
    _block({"type": st.just("box"), "a": _num(0.5, 2.0), "b": _num(2.5, 5.0), "value": _num(-5.0, 5.0)}),
    _block({"type": st.just("xonly_gaussian"), "height": _num(-5.0, 5.0)},
           width=_num(0.1, 3.0), center=_num(-3.0, 3.0)),
)
_PERTURBATIONS = st.one_of(
    _block({"type": st.just("disk"), "amplitude": _num(-2.0, 2.0),
            "center": st.tuples(_num(-3.0, 3.0), _num(5.0, 10.0)).map(list), "radius": _num(0.5, 5.0)}),
    _block({"type": st.just("box"), "amplitude": _num(-2.0, 2.0),
            "box": st.tuples(_increasing(-5.0, 5.0), _increasing(0.0, 5.0)).map(lambda t: t[0] + t[1])}),
)
_SCANS = st.one_of(
    _block({"axis": st.just("potential"), "values": _values(), "a": _num(0.1, 1.0), "b": _num(1.5, 3.0)}),
    _block({"axis": st.just("epsilon"), "values": _values()}),
    # the first rung builds a grid of at least 4 x 4 nodes: nx >= 7 on the
    # ladder, L >= 3 h on the domain probe
    _block({"axis": st.just("convergence"),
            "values": st.lists(st.integers(7, 200), min_size=3, max_size=5, unique=True).map(sorted),
            "observable": st.sampled_from(["gap-edge", "bound-state-lambda", "square-form-min"])},
           x_half=_num(1.0, 30.0), depth=_num(-5.0, 0.0), box=_increasing(0.1, 5.0)),
    _block({"axis": st.just("domain"),
            "values": st.lists(_num(6.0, 30.0), min_size=2, max_size=4, unique=True).map(sorted)},
           h=_num(0.1, 2.0)),
)
_CONFIGS = _block(
    {"params": _block({"delta": _num(0.1, 5.0)})},
    grid=_block({"x_min": _num(-10.0, -1.0), "x_max": _num(1.0, 10.0), "y_max": _num(1.0, 10.0),
                 "nx": st.integers(4, 60), "ny": st.integers(4, 60)}),
    potential=_POTENTIALS,
    perturbation=_PERTURBATIONS,
    solver=_block({"mode": st.sampled_from(["dense", "gap", "square-form"])},
                  interval=_increasing(-2.0, 2.0), k=st.integers(1, 10), tol=st.floats(1e-12, 0.5),
                  max_iter=st.integers(1, 2000), seed=st.integers(0, 2**31), epsilon=_num(-2.0, 2.0)),
    scan=_SCANS,
    # runnable Weyl inputs: |mu| >= 5 lies outside every gap drawn for delta,
    # and a slope needs two distinct scales
    quasimode=_block({}, weyl_mus=st.lists(st.tuples(st.sampled_from([1, -1]), _num(5.0, 20.0))
                                           .map(lambda t: t[0] * t[1]), min_size=1, max_size=4),
                     weyl_ns=st.lists(st.integers(2, 128) | st.integers(2, 128).map(float),
                                      min_size=2, max_size=4).filter(lambda v: len(set(v)) >= 2),
                     cutoff_ns=st.lists(st.integers(2, 128), min_size=1, max_size=4),
                     eps_values=_values()),
    fiber=_block({}, xi_values=_values(), ny=st.integers(4, 500), y_max=_num(1.0, 50.0)),
    export=_block({}, operator=st.sampled_from(["T", "H", "H_eps", "square-form"])),
    output=_block({}, formats=st.lists(st.sampled_from(["csv", "json"]), min_size=1, max_size=3)),
).filter(lambda d: d.get("scan", {}).get("axis") != "epsilon" or "perturbation" in d)


@settings(max_examples=200, deadline=None)
@given(doc=_CONFIGS)
def test_canonical_form_is_a_fixed_point(doc):
    canon = parse_config(doc).canonical
    again = parse_config(json.loads(canonical_text(canon))).canonical
    assert canonical_text(again) == canonical_text(canon)
    assert config_hash(again) == config_hash(canon)
    # every key the config sets lands in the canonical form unchanged
    for block, body in doc.items():
        for key, value in body.items():
            want = sorted(set(value)) if key == "formats" else value
            assert canon[block][key] == want, (block, key)


# ---------------------------------------------------------------------------
# serialization rules


def test_format_cell_rules():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell(0.1) == "0.10000000000000001"
    assert format_cell(float("nan")) == "nan"
    assert format_cell(1.0) == "1"
    assert format_cell("gap-edge") == "gap-edge"


def test_render_csv_golden():
    header = ("a", "b")
    rows = [{"a": 1, "b": True}, {"a": 0.5, "b": float("nan")}]
    assert render_csv(header, rows) == "a,b\n1,true\n0.5,nan\n"


# ---------------------------------------------------------------------------
# subcommand runs


def test_spectrum_gap_run_certifies_empty_window(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0},
        "grid": BASE_GRID,
        "solver": {"mode": "gap"},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "eigenvalues.csv") in printed
    assert str(out / "summary.json") in printed
    summary = read_summary(out)
    assert summary["checks"]["certified"] is True
    assert summary["checks"]["gap_empty"] is True
    assert summary["checks"]["hermitian_exact"] is True
    assert summary["detail"]["in_window_count"] == 0
    # one count per decoupled block of the real form (sector xor row parity)
    assert summary["detail"]["block_counts"] == [0, 0]
    csv = (out / "eigenvalues.csv").read_text(encoding="utf-8")
    assert csv == "index,lambda,residual,participation_ratio,y_decay_rate\n"
    assert summary["config"]["solver"]["interval"] == [-0.95, 0.95]


def test_dense_mode_refuses_large_grids(tmp_path, capsys, monkeypatch):
    """The cap is read off the grid, before any operator is assembled."""
    def unreachable(*args):
        raise AssertionError("assembled an operator the dense cap refuses")

    monkeypatch.setattr(semidirac.cli, "assemble_H", unreachable)
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0},
        "grid": BASE_GRID,
        "solver": {"mode": "dense"},
    })
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "$.solver.mode" in err and "dense mode caps" in err


def test_starved_solver_exits_3_with_diagnostics(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": {"delta": 2.0},
        "grid": {"x_min": -9.0, "x_max": 14.0, "y_max": 14.0, "nx": 47, "ny": 29},
        "potential": {"type": "box", "a": 1.0, "b": 4.14, "value": -3.0},
        "solver": {"mode": "gap", "max_iter": 1},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    assert "solver:" in capsys.readouterr().err
    summary = read_summary(out)
    assert summary["checks"]["converged"] is False
    assert "certified" in summary["detail"]["error"]
    assert "history_tail" in summary["detail"]


def square_form_config(tmp_path, height):
    return write_config(tmp_path, {
        "params": {"delta": 1.0},
        "grid": BASE_GRID,
        "potential": {"type": "xonly_gaussian", "height": height},
        "solver": {"mode": "square-form", "k": 1},
    }, name=f"square{height}.json")


@pytest.mark.parametrize("height,bottom,above", [(1.0, 1.0520331811061, True), (-1.0, 0.41869621675788, False)])
def test_square_form_bottom_check_reads_the_bottom(tmp_path, capsys, height, bottom, above):
    """At height -1, delta + v(0) = 0 and the bottom falls to 0.4187, below
    delta^2, so bottom_above_gap_square must read false there; the
    benchmark's certify op (height 1) reads true."""
    out = tmp_path / "out"
    assert main(["spectrum", "--config", square_form_config(tmp_path, height), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["checks"]["bottom_above_gap_square"] is above
    assert summary["checks"]["hermitian_exact"] is True
    rows = (out / "eigenvalues.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2
    assert float(rows[1].split(",")[1]) == pytest.approx(bottom, rel=1e-10)


def test_square_form_skipped_pair_exits_3(tmp_path, capsys, monkeypatch):
    """An identity that skips its lowest pair is caught by the count."""
    import semidirac.eigensolve

    exact = semidirac.eigensolve.square_form_pairs

    def skipping(op, count):
        vals, vecs = exact(op, count + 1)
        return vals[1:], vecs[:, 1:]

    monkeypatch.setattr(semidirac.eigensolve, "square_form_pairs", skipping)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", square_form_config(tmp_path, 1.0), "--out", str(out)]) == 3
    assert "but inertia counts 2" in capsys.readouterr().err
    summary = read_summary(out)
    assert summary["checks"] == {"converged": False}
    assert summary["detail"]["history_tail"][0]["count"] == 2
    assert not (out / "eigenvalues.csv").exists()


def test_validate_config_prints_canonical_and_writes_nothing(tmp_path, capsys):
    doc = {"params": {"delta": 1.5}, "solver": {"mode": "gap"}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["validate-config", "--config", cfg, "--out", str(out)]) == 0
    echoed = capsys.readouterr().out
    assert echoed == canonical_text(parse_config(doc).canonical)
    assert not out.exists()
    # a nonzero --seed must land in the canonical solver block
    assert main(["validate-config", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["solver"]["seed"] == 7


@pytest.mark.parametrize("flag,seed", [([], 5), (["--seed", "0"], 0), (["--seed", "3"], 3)])
def test_seed_flag_replaces_the_config_seed_whenever_given(tmp_path, capsys, flag, seed):
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}, "solver": {"mode": "gap", "seed": 5}})
    assert main(["validate-config", "--config", cfg, *flag]) == 0
    assert json.loads(capsys.readouterr().out)["solver"]["seed"] == seed


def test_quasimode_run_coincidence_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0},
        "quasimode": {"weyl_ns": [8, 16], "cutoff_ns": [4], "eps_values": [0.1, 3.0]},
    })
    out = tmp_path / "out"
    assert main(["quasimode", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    checks = summary["checks"]
    assert checks["weyl_residuals_below_bound"] is True
    assert checks["weyl_slopes_near_inverse_n"] is True
    assert checks["cutoff_first_identity"] is True
    assert checks["cutoff_second_bound_slack"] is True
    assert checks["aeps_negative_below_threshold"] is True
    assert summary["detail"]["eps_threshold"] == pytest.approx(2.0, rel=1e-12)
    lines = (out / "aeps.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "eps,a_eps_paper,a_eps_derived,rel_gap,diverges"
    row = lines[1].split(",")
    assert float(row[0]) == 0.1
    assert float(row[1]) == pytest.approx(-0.38, abs=1e-12)
    assert float(row[2]) == pytest.approx(-0.38, abs=1e-12)
    assert row[4] == "false"
    assert float(lines[2].split(",")[2]) == pytest.approx(6.0, abs=1e-12)


def test_quasimode_run_with_a_repulsive_perturbation(tmp_path, capsys):
    """int Re w12 > 0: no coupling makes the energy negative, so there is
    no threshold and no check below it."""
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0},
        "perturbation": {"type": "box", "amplitude": 1.0, "box": [-0.5, 0.5, 1.0, 2.0]},
        "quasimode": {"weyl_ns": [8, 16], "cutoff_ns": [4], "eps_values": [0.5, 2.0]},
    })
    out = tmp_path / "out"
    assert main(["quasimode", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["detail"]["eps_threshold"] is None
    assert summary["detail"]["perturbation"] == "box(amp=1)"
    assert "aeps_negative_below_threshold" not in summary["checks"]
    rows = (out / "aeps.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [float(r.split(",")[2]) > 0.0 for r in rows] == [True, True]


def test_fiber_run_hits_analytic_edges(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0},
        "fiber": {"xi_values": [-1.0, 0.0, 1.0], "ny": 80},
    })
    out = tmp_path / "out"
    assert main(["fiber", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["checks"]["union_edge_is_delta"] is True
    assert summary["checks"]["edges_within_5pct"] is True
    lines = (out / "fiber.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "xi,edge_analytic,min_abs_lambda,rel_err"
    for line in lines[1:]:
        xi, edge, got, rel = (float(v) for v in line.split(","))
        assert edge == xi * xi + 1.0
        assert rel < 1e-10


@pytest.mark.parametrize("doc,edges", [
    ({"params": {"delta": 1.0}, "fiber": {"xi_values": [-1.0, 0.0, 0.5], "ny": 80}},
     (2.0, 1.0, 1.25)),
    # delta = 1e-3 against ||M|| of about 10: a bracket of m (1 +- 1e-10) sits
    # below the roundoff of the squared count, one of 1e-10 ||M|| does not
    ({"params": {"delta": 1e-3}, "fiber": {"xi_values": [0.0, 0.1], "ny": 400, "y_max": 40.0}},
     (1e-3, 1.1e-2)),
], ids=["delta-1", "delta-1e-3"])
def test_fiber_table_is_certified_by_inertia(tmp_path, capsys, monkeypatch, doc, edges):
    def no_dense(*args, **kwargs):
        raise AssertionError("the fiber table must not call dense_eigs")

    for module in [m for n, m in sys.modules.items() if n.startswith("semidirac.")]:
        if hasattr(module, "dense_eigs"):
            monkeypatch.setattr(module, "dense_eigs", no_dense)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["fiber", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    detail = read_summary(out)["detail"]
    assert detail["min_abs_lambda_route"] == (
        "unpaired eigenvalue xi^2 + delta, certified by count_within")
    brackets = detail["inertia_brackets"]
    assert [b["xi"] for b in brackets] == doc["fiber"]["xi_values"]
    for b, edge in zip(brackets, edges):
        assert b["counts"] == [0, 1]
        lo, hi = b["radii"]
        assert lo < edge < hi
        assert hi - edge == pytest.approx(edge - lo, rel=1e-3)


def test_fiber_table_refuses_a_spectrum_the_inertia_contradicts(tmp_path, capsys, monkeypatch):
    # every assembled member's unpaired eigenvalue sits 1e-6 below the
    # coupling the table reads as its min |lambda|
    member = semidirac.fiber.FiberFamily.__call__
    monkeypatch.setattr(semidirac.fiber.FiberFamily, "__call__",
                        lambda self, c: member(self, c - 1e-6))
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}, "fiber": {"ny": 80}})
    out = tmp_path / "out"
    assert main(["fiber", "--config", cfg, "--out", str(out)]) == 3
    assert "expected 0 and 1" in capsys.readouterr().err
    summary = read_summary(out)
    assert summary["checks"] == {"converged": False}
    assert summary["detail"]["history_tail"][0]["counts"] == [1, 1]
    assert not (out / "fiber.csv").exists()


def test_fiber_table_rotates_one_family_per_table(tmp_path, capsys, monkeypatch):
    """At the defaults, 21 fibers: two assembled parts and one conjugation
    basis for the whole family, two inertia counts each, and no
    fiber_spectra solve."""
    import semidirac.fiber

    calls = {"_reduce": 0, "conjugation_basis": 0, "count_within": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def no_spectra(*args, **kwargs):
        raise AssertionError("the fiber table must not call fiber_spectra")

    # every binding of the fold and the basis is counted, wherever a module
    # imported it
    for module in [m for n, m in sys.modules.items() if n.startswith("semidirac.")]:
        for name in ("_reduce", "conjugation_basis"):
            if hasattr(module, name):
                counted(module, name)
    counted(semidirac.scan, "count_within")
    monkeypatch.setattr(semidirac.fiber, "fiber_spectra", no_spectra)
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}})
    assert main(["fiber", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert calls == {"_reduce": 2, "conjugation_basis": 1, "count_within": 42}


def test_fiber_cross_check_fails_on_a_narrow_domain(tmp_path, capsys):
    """At x half-width 2 the free 2D edge delta + lambda_min(Kx) sits near
    1.6, far past 5% of the fiber union's delta = 1."""
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0},
        "grid": {"x_min": -2.0, "x_max": 2.0, "y_max": 6.0, "nx": 21, "ny": 13},
        "scan": {"axis": "potential", "values": [0.0], "a": 0.1, "b": 0.3},
    })
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    cross = summary["detail"]["fiber_cross_check"]
    assert cross["union_edge"] == 1.0 and cross["rel_err"] > 0.05
    assert cross["within_5pct"] is False
    assert summary["checks"]["fiber_cross_check"] is False


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The same fiber table, spectrum (gap and square-form mode) and
    exported matrix bytes under 1 and 2 OpenBLAS threads; the thread count
    is set in each child's environment only.  The 161x81 box well's
    shift-invert eigenvalues move in their last bits unless scipy's pool
    runs on one thread."""
    configs = {
        "fiber": {"params": {"delta": 1.0}, "fiber": {"ny": 120}},
        "spectrum": {"params": {"delta": 1.0}, "grid": {**BASE_GRID, "nx": 31, "ny": 17},
                     "potential": {"type": "box", "a": 1.0, "b": 4.0, "value": -3.0},
                     "solver": {"mode": "gap"}},
        "spectrum-boxwell": {"params": {"delta": 1.0}, "grid": {**BASE_GRID, "nx": 161, "ny": 81},
                             "potential": {"type": "box", "a": 1.0, "b": 4.0, "value": -2.0},
                             "solver": {"mode": "gap"}},
        "spectrum-square": {"params": {"delta": 1.0}, "grid": {**BASE_GRID, "nx": 101, "ny": 51},
                            "potential": {"type": "xonly_gaussian", "height": 1.0},
                            "solver": {"mode": "square-form", "k": 3}},
        "export-matrix": {"params": {"delta": 1.0}, "grid": {**BASE_GRID, "nx": 31, "ny": 17}},
    }
    src = str(Path(semidirac.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        for name, doc in configs.items():
            command = name.removesuffix("-square").removesuffix("-boxwell")
            cfg = write_config(tmp_path, doc, f"{name}.json")
            out = tmp_path / f"{name}-{threads}"
            subprocess.run(
                [sys.executable, "-m", "semidirac.cli", command, "--config", cfg, "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            table = {"fiber": "fiber.csv", "export-matrix": "matrix.txt"}.get(command, "eigenvalues.csv")
            outputs[name, threads] = (out / table).read_bytes()
    for name in configs:
        assert outputs[name, "1"] == outputs[name, "2"]
    assert outputs["spectrum", "1"].count(b"\n") > 1
    assert outputs["spectrum-boxwell", "1"].count(b"\n") > 1
    assert outputs["spectrum-square", "1"].count(b"\n") == 4
    assert outputs["export-matrix", "1"].startswith(b"%%MatrixMarket matrix coordinate complex general\n")


def test_scipy_blas_runs_on_one_thread_and_numpy_blas_keeps_its_own():
    """numpy and scipy each bundle an OpenBLAS with its own pool.  Importing
    semidirac sets scipy's (SuperLU, ARPACK, banded LAPACK) to one thread
    and leaves numpy's, which dense_eigs runs on, at the environment's 2."""
    src = str(Path(semidirac.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import ctypes, pathlib, numpy, scipy, semidirac\n"
            "def pool(pkg, getter):\n"
            "    libs = pathlib.Path(pkg.__file__).parent.parent / (pkg.__name__ + '.libs')\n"
            "    lib, = libs.glob('libscipy_openblas*.so')\n"
            "    return getattr(ctypes.CDLL(str(lib)), getter)()\n"
            "print(pool(scipy, 'scipy_openblas_get_num_threads'),"
            " pool(numpy, 'scipy_openblas_get_num_threads64_'))")
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          check=True, capture_output=True, text=True)
    assert done.stdout == "1 2\n"


def test_importing_the_cli_loads_neither_scipy_io_nor_csgraph():
    """Both load on first use (an export or read, a block count), so the
    setup a run pays before its first op holds neither."""
    src = str(Path(semidirac.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, semidirac.cli; "
            "print([m for m in ('scipy.io', 'scipy.sparse.csgraph') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          check=True, capture_output=True, text=True)
    assert done.stdout == "[]\n"


def scan_doc():
    return {
        "params": {"delta": 2.0},
        "grid": {"x_min": -9.0, "x_max": 14.0, "y_max": 14.0, "nx": 47, "ny": 29},
        "scan": {"axis": "potential", "values": [-3.0, 0.0], "a": 1.0, "b": 1.0 + float(np.pi)},
    }


def test_scan_run_with_fiber_cross_check(tmp_path, capsys):
    cfg = write_config(tmp_path, scan_doc())
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["checks"]["all_agree"] is True
    assert summary["checks"]["fiber_cross_check"] is True
    cross = summary["detail"]["fiber_cross_check"]
    assert cross["union_edge"] == 2.0
    assert cross["rel_err"] < 0.05
    lines = (out / "scan.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "axis_value,predicted,observed_count,min_abs_lambda,min_participation,agreement"
    assert lines[1].startswith("-3,true,22,")
    assert lines[2].startswith("0,false,0,nan,nan,true")
    # the shift-invert factor's fill per depth; the empty window runs no solve
    fill, empty = summary["detail"]["solve_fill"]
    assert 1.0 < fill <= 7.0 and empty is None
    # the 22 well states come as one copy in each decoupled block
    assert summary["detail"]["block_counts"] == [[11, 11], [0, 0]]


def test_scan_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, scan_doc())
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / name
        code = main(["scan", "--config", cfg, "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outs.append((out / "scan.csv").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_convergence_scan_obeys_the_solver_block(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0},
        "scan": {"axis": "convergence", "values": [21, 41, 81], "observable": "bound-state-lambda"},
        "solver": {"mode": "gap", "max_iter": 1, "tol": 1e-14},
    })
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
    assert "solver:" in capsys.readouterr().err
    assert read_summary(out)["checks"]["converged"] is False


def test_square_form_ladder_reads_no_solver_setting(tmp_path, capsys):
    """square-form-min reads the separable identity, so a solver block it
    could not run (an oversized k, a one-solve budget) changes nothing."""
    values = {}
    for name, solver in (("default", {"mode": "gap"}),
                         ("starved", {"mode": "gap", "k": 100000, "max_iter": 1, "tol": 1e-14})):
        cfg = write_config(tmp_path, {
            "params": {"delta": 1.0},
            "scan": {"axis": "convergence", "values": [21, 41, 81], "observable": "square-form-min"},
            "solver": solver,
        }, name=f"{name}.json")
        out = tmp_path / name
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        values[name] = read_summary(out)["detail"]["values"]
    capsys.readouterr()
    assert values["starved"] == values["default"]
    assert all(v > 1.0 for v in values["default"])


def test_domain_scan_runs_the_box_well(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": {"delta": 2.0},
        "potential": {"type": "box", "a": 1.0, "b": 4.0, "value": -3.0},
        "scan": {"axis": "domain", "values": [10.0, 20.0]},
    })
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    meta = read_summary(out)["detail"]["meta"]
    assert meta["free"] is False
    # the bound state's footprint shrinks as the domain grows
    assert meta["participation"][1] < 0.5 * meta["participation"][0]


def test_domain_scan_without_a_potential_tracks_the_band_edge(tmp_path, capsys):
    """No potential: the gap stays empty on every rung, so each rung reads
    the band edge above delta, and the free edge state must not shrink."""
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0},
        "scan": {"axis": "domain", "values": [6.0, 10.0]},
    })
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["checks"] == {"all_agree": True}
    assert summary["detail"]["meta"]["free"] is True
    assert summary["detail"]["block_counts"] == [None, None]
    rows = [r.split(",") for r in (out / "scan.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert [r[1] for r in rows] == ["true", "true"]
    edges = [float(r[3]) for r in rows]
    assert 1.0 < edges[1] < edges[0]


EPS_GRID = {"x_min": -6.0, "x_max": 6.0, "y_max": 8.0, "nx": 25, "ny": 17}
EPS_BOX = {"type": "box", "amplitude": -1.0, "box": [-1.0, 1.0, 0.5, 2.5]}


def test_epsilon_scan_counts_what_the_library_counts(tmp_path, capsys):
    """Each row's count is the certified window count of H_eps at that eps."""
    values = [0.0, 0.5, 2.0]
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0}, "grid": EPS_GRID, "perturbation": EPS_BOX,
        "scan": {"axis": "epsilon", "values": values},
    })
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["detail"]["axis"] == "epsilon"
    # eps* = -4 delta int w12 / (2 int w12^2) = 2 for a unit-amplitude box
    assert summary["detail"]["meta"]["eps_threshold"] == pytest.approx(2.0, rel=1e-12)
    grid, params = Grid2D(**EPS_GRID), Params(1.0)
    field = box_perturbation(-1.0, tuple(EPS_BOX["box"])).sample_on(grid)
    want = [count_within(assemble_H_eps(grid, params, field, eps), 0.95)["count"] for eps in values]
    rows = [r.split(",") for r in (out / "scan.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert [float(r[0]) for r in rows] == values
    assert [int(r[2]) for r in rows] == want
    assert want[0] == 0 and want[2] > want[1] > 0
    assert [sum(b) for b in summary["detail"]["block_counts"]] == want


def assert_same_bits(a, b):
    a, b = a.tocsr(), b.tocsr()
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


def test_export_matrix_writes_h_eps_at_the_solver_epsilon(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "params": {"delta": 1.0}, "grid": EPS_GRID, "perturbation": EPS_BOX,
        "solver": {"mode": "gap", "epsilon": 0.7}, "export": {"operator": "H_eps"},
    })
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_summary(out)["detail"]["operator"] == "H_eps"
    grid = Grid2D(**EPS_GRID)
    field = box_perturbation(-1.0, tuple(EPS_BOX["box"])).sample_on(grid)
    want = assemble_H_eps(grid, Params(1.0), field, 0.7).matrix
    assert_same_bits(read_coordinate_text((out / "matrix.txt").read_text(encoding="utf-8")), want)


def test_export_matrix_writes_t_whatever_the_potential(tmp_path, capsys):
    grid = {"x_min": -3.0, "x_max": 3.0, "y_max": 3.0, "nx": 13, "ny": 9}
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}, "grid": grid,
                                  "potential": {"type": "xonly_gaussian", "height": -2.0},
                                  "export": {"operator": "T"}})
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_summary(out)["detail"]["operator"] == "T"
    want = assemble_T(Grid2D(**grid), Params(1.0)).matrix
    assert_same_bits(read_coordinate_text((out / "matrix.txt").read_text(encoding="utf-8")), want)


def test_export_matrix_roundtrip(tmp_path, capsys):
    grid = {"x_min": -3.0, "x_max": 3.0, "y_max": 3.0, "nx": 13, "ny": 9}
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}, "grid": grid})
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["detail"]["operator"] == "T"
    assert summary["checks"]["hermitian_exact"] is True
    M = read_coordinate_text((out / "matrix.txt").read_text(encoding="utf-8"))
    T = assemble_T(Grid2D(-3.0, 3.0, 3.0, 13, 9), Params(1.0))
    assert abs(M - T.matrix).max() == 0.0


# ---------------------------------------------------------------------------
# driver level failures


def test_missing_config_file(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config:" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["spectrum", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_bad_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}})
    assert main(["validate-config", "--config", cfg, "--seed", "-1"]) == 2
    assert main(["validate-config", "--config", cfg, "--threads", "0"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "--threads" in err


def test_benchmark_import_surface_resolves(tmp_path):
    """Every name the benchmark harness imports from the package exists, and
    the --threads flag it passes is accepted.  The harness is only read."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    imports = [(node.module, alias.name)
               for path in sorted(bench.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "semidirac"
               for alias in node.names]
    assert imports
    for module, name in imports:
        found = importlib.import_module(module)
        assert hasattr(found, name) or importlib.util.find_spec(f"{module}.{name}"), (module, name)
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}})
    assert main(["validate-config", "--config", cfg, "--threads", "1"]) == 0


def test_spectrum_without_solver_block(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": {"delta": 1.0}, "grid": BASE_GRID})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "$.solver" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output contract: the check names, detail keys and CSV headers of every
# command and mode, which downstream readers key on

_EIGEN_HEADER = "index,lambda,residual,participation_ratio,y_decay_rate"
_NARROW_GRID = {"x_min": -2.0, "x_max": 2.0, "y_max": 6.0, "nx": 21, "ny": 13}
_WELL = {"type": "box", "a": 1.0, "b": 4.0, "value": -3.0}

OUTPUT_CONTRACT = {
    "spectrum-gap": (
        "spectrum",
        {"params": {"delta": 1.0}, "grid": {**BASE_GRID, "nx": 31, "ny": 17},
         "potential": _WELL, "solver": {"mode": "gap"}},
        {"certified", "gap_empty", "hermitian_exact"},
        {"block_counts", "dim", "in_window_count", "mode", "solve_fill"},
        {"eigenvalues.csv": _EIGEN_HEADER}),
    "spectrum-gap-empty": (
        "spectrum", {"params": {"delta": 1.0}, "grid": SMALL_GRID, "solver": {"mode": "gap"}},
        {"certified", "gap_empty", "hermitian_exact"},
        {"block_counts", "dim", "in_window_count", "mode"},
        {"eigenvalues.csv": _EIGEN_HEADER}),
    "spectrum-dense": (
        "spectrum", {"params": {"delta": 1.0}, "grid": SMALL_GRID, "solver": {"mode": "dense"}},
        {"hermitian_exact"}, {"dim", "mode"},
        {"eigenvalues.csv": _EIGEN_HEADER}),
    "spectrum-square-form": (
        "spectrum",
        {"params": {"delta": 1.0}, "grid": SMALL_GRID, "solver": {"mode": "square-form", "k": 2}},
        {"bottom_above_gap_square", "hermitian_exact"}, {"dim", "mode"},
        {"eigenvalues.csv": _EIGEN_HEADER}),
    "scan-potential": (
        "scan",
        {"params": {"delta": 1.0}, "grid": _NARROW_GRID,
         "scan": {"axis": "potential", "values": [-3.0, 0.0], "a": 0.1, "b": 0.3}},
        {"all_agree", "fiber_cross_check"},
        {"axis", "block_counts", "fiber_cross_check", "meta", "solve_fill"},
        {"scan.csv": "axis_value,predicted,observed_count,min_abs_lambda,min_participation,agreement"}),
    "scan-convergence": (
        "scan",
        {"params": {"delta": 1.0},
         "scan": {"axis": "convergence", "values": [11, 21, 41], "observable": "gap-edge"}},
        {"diffs_shrinking", "order_positive"}, {"fitted_order", "values"},
        {"convergence.csv": "rung,observable,value,fitted_order"}),
    "fiber": (
        "fiber", {"params": {"delta": 1.0}, "fiber": {"xi_values": [-1.0, 0.0, 0.5], "ny": 40}},
        {"edges_within_5pct", "union_edge_is_delta"},
        {"inertia_brackets", "min_abs_lambda_route", "union_edge"},
        {"fiber.csv": "xi,edge_analytic,min_abs_lambda,rel_err"}),
    "fiber-without-zero": (
        "fiber", {"params": {"delta": 1.0}, "fiber": {"xi_values": [-1.0, 0.5], "ny": 40}},
        {"edges_within_5pct"}, {"inertia_brackets", "min_abs_lambda_route"},
        {"fiber.csv": "xi,edge_analytic,min_abs_lambda,rel_err"}),
    "quasimode": (
        "quasimode",
        {"params": {"delta": 1.0},
         "quasimode": {"weyl_ns": [8, 16], "cutoff_ns": [4], "eps_values": [0.5]}},
        {"aeps_negative_below_threshold", "cutoff_first_identity", "cutoff_second_bound_slack",
         "weyl_residuals_below_bound", "weyl_slopes_near_inverse_n"},
        {"eps_threshold", "perturbation", "weyl_slopes"},
        {"aeps.csv": "eps,a_eps_paper,a_eps_derived,rel_gap,diverges",
         "cutoff.csv": "n,Ix,Iy,Ixx,first_deriv_identity_rel_err,second_deriv_bound_slack",
         "weyl.csv": "n,k,mu,branch,residual,bound_rhs"}),
    "export-matrix": (
        "export-matrix", {"params": {"delta": 1.0}, "grid": SMALL_GRID},
        {"hermitian_exact"}, {"dim", "operator"}, {}),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CONTRACT))
def test_output_contract(tmp_path, capsys, case):
    command, doc, checks, detail, headers = OUTPUT_CONTRACT[case]
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert set(summary["checks"]) == checks
    assert set(summary["detail"]) == detail
    csvs = {p.name: p.read_text(encoding="utf-8").splitlines()[0] for p in out.glob("*.csv")}
    assert csvs == headers

