"""Correctness gate: what each op's outputs must show, against frozen references.

``observe`` reads one op's artifacts into a small record; ``compare``
checks a record against the reference record frozen from the seed
commit (``reference.json``, written by ``freeze.py`` through the same
``observe``).  Rules:

* ``exact``: certified in-window counts, and the exported matrix read
  back against a fresh assembly (no differing entry, ``sym_defect ==
  0.0``), match exactly;
* ``close``: in-gap min |lambda|, the square-form bottom, fiber edges and
  the closed-form tables match to 1e-8 * max(1, |reference|), the
  tolerance of the repository's tests;
* every ``summary.json`` check of an op that exits 0 is true, unless it
  is false in the reference too.

Participation ratios and ``summary.json`` bytes are deliberately not
compared: the former move at ~1e-8 relative between seeds, the latter
carry a timestamp.

An op whose reference exit code is non-zero is a known failure: repeating
that exit code is consistent with the reference.  Exiting 0 instead is
compared against the reference's ``converged`` record, the op's output on
a seed where the seed commit gets through it; without one it disagrees.
Either way the op counts as failed unless it exits 0 with every check
true (``succeeded``).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TOLERANCE = 1e-8


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def observe(command: str, config: dict, out_dir: Path, exit_code: int) -> dict:
    """The gated quantities of one op's artifacts.

    ``exact`` holds what must match the reference exactly, ``close`` what
    must match to TOLERANCE.
    """
    record = {"exit": exit_code, "checks": {}, "exact": {}, "close": {}}
    summary_path = out_dir / "summary.json"
    if not summary_path.is_file():
        return record
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    record["checks"] = summary["checks"]
    if exit_code != 0:
        return record
    detail = summary.get("detail", {})
    exact, close = record["exact"], record["close"]

    if command == "spectrum":
        lams = [float(r["lambda"]) for r in _rows(out_dir / "eigenvalues.csv")]
        if detail.get("mode") == "square-form":
            close["bottom"] = lams[0]
        else:
            exact["count"] = int(detail["in_window_count"])
            if lams:
                close["min_abs_lambda"] = min(abs(v) for v in lams)
    elif command == "scan":
        for r in _rows(out_dir / "scan.csv"):
            exact[f"count@{r['axis_value']}"] = int(r["observed_count"])
            lam = float(r["min_abs_lambda"])
            if not math.isnan(lam):
                close[f"min_abs_lambda@{r['axis_value']}"] = lam
        cross = detail["fiber_cross_check"]
        close["cross_union_edge"] = cross["union_edge"]
        close["cross_two_d_min_abs_lambda"] = cross["two_d_min_abs_lambda"]
    elif command == "fiber":
        for r in _rows(out_dir / "fiber.csv"):
            close[f"edge_analytic@{r['xi']}"] = float(r["edge_analytic"])
            close[f"min_abs_lambda@{r['xi']}"] = float(r["min_abs_lambda"])
    elif command == "quasimode":
        for table, key in (("weyl.csv", ("n", "k", "mu")), ("cutoff.csv", ("n",)),
                           ("aeps.csv", ("eps",))):
            for r in _rows(out_dir / table):
                tag = table[:-4] + "@" + "/".join(r[k] for k in key)
                for col, cell in r.items():
                    if col not in key and cell not in ("true", "false"):
                        close[f"{tag}.{col}"] = float(cell)
    elif command == "export-matrix":
        exact.update(_export_roundtrip(config, out_dir / "matrix.txt"))
    return record


def _export_roundtrip(config: dict, matrix_path: Path) -> dict:
    """Exported text read back against a fresh assembly of the same operator."""
    from semidirac import Grid2D, Params, assemble_T, read_coordinate_text

    op = assemble_T(Grid2D(**config["grid"]), Params(**config["params"]))
    text = read_coordinate_text(matrix_path.read_text(encoding="utf-8"))
    same_shape = text.shape == op.matrix.shape
    return {
        "shape_matches": same_shape,
        "entries_differing": int((text != op.matrix).nnz) if same_shape else -1,
        "sym_defect": op.sym_defect,
    }


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= TOLERANCE * max(1.0, abs(want)) or got == want


def compare(record: dict, reference: dict) -> list[str]:
    """Problems with one op's record; empty when it agrees with the reference."""
    if reference["exit"] != 0:
        # known failure: repeating it agrees with the reference; getting
        # through it must agree with the frozen converged output
        if record["exit"] == reference["exit"]:
            return []
        reference = reference.get("converged", reference)
    if record["exit"] != reference["exit"]:
        return [f"exit {record['exit']}, reference exit {reference['exit']}"]
    # a check may stay false only where the seed commit's output has it false
    problems = [f"check {k} false" for k, v in sorted(record["checks"].items())
                if not v and reference["checks"].get(k, True)]
    if set(record["checks"]) != set(reference["checks"]):
        problems.append(f"checks {sorted(record['checks'])}, reference {sorted(reference['checks'])}")
    for kind, same in (("exact", lambda a, b: a == b), ("close", _close)):
        got, want = record[kind], reference[kind]
        if set(got) != set(want):
            problems.append(f"{kind} keys {sorted(got)}, reference {sorted(want)}")
        for key in sorted(set(got) & set(want)):
            if not same(got[key], want[key]):
                problems.append(f"{key} = {got[key]!r}, reference {want[key]!r}")
    return problems


def succeeded(record: dict, problems: list[str]) -> bool:
    """An op succeeds when it exits 0, every check is true and the gate passes."""
    return record["exit"] == 0 and all(record["checks"].values()) and not problems
