"""Self-tests of the benchmark itself.

Run from the repository root (about two minutes):

    python3 perfbench/selfcheck.py

1. The workload and metric names in ``run.py`` and ``workloads.py`` match
   ``BENCHMARK.json``, units included.
2. What the command prints matches ``BENCHMARK.json``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
3. Tracing rebinds every binding of a wrapped function and nests spans:
   ``gap_eigs`` called through ``scan`` has a ``count_within`` child, and
   the traced run's spans chain ``cli.main`` > ``cli.cmd_fiber`` >
   ``eigensolve.dense_eigs`` > ``eigensolve.participation_ratio``.
4. Every frozen reference value, corrupted on its own, makes the gate
   report a problem, and an unaltered reference makes it report none;
   this covers the ``converged`` record of a known failure.  A check that
   is true in the reference may not go false.
5. A run against a corrupted reference marks the affected ops as failed
   and the result as incorrect.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import gate
from run import END_TO_END, HERE, PER_LAYER, WORK_DIR
from workloads import WORKLOADS

CHEAP = "closed-form"


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def run(*extra: str, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", CHEAP, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + 1e-6 * max(1.0, abs(value))


def parent_chains(spans: list[dict]) -> set[tuple]:
    """(name, parent name, grandparent name, ...) for every span."""
    chains = set()
    for span in spans:
        chain = [span["name"]]
        while span["parent"] is not None:
            span = spans[span["parent"]]
            chain.append(span["name"])
        chains.add(tuple(chain))
    return chains


def check_nesting() -> None:
    sys.path.insert(0, "src")
    from semidirac import Grid2D, Params, assemble_T, cli, eigensolve, scan
    from tracing import Tracer

    op = assemble_T(Grid2D(-6.0, 6.0, 6.0, 17, 9), Params(delta=1.0))
    tracer = Tracer()
    with tracer:
        check(scan.gap_eigs is cli.gap_eigs is eigensolve.gap_eigs
              and hasattr(eigensolve.count_within, "__wrapped__"),
              "tracing rebinds gap_eigs in eigensolve, scan and cli, and count_within")
        tracer.op = "nesting"
        scan.gap_eigs(op, -0.95, 0.95, k=2)
        tracer.op = None
    check(not hasattr(scan.gap_eigs, "__wrapped__"), "leaving the tracer restores the originals")
    chains = parent_chains([s.as_dict(i) for i, s in enumerate(tracer.spans)])
    check(("eigensolve.count_within", "eigensolve.gap_eigs") in chains,
          "count_within runs as a child span of gap_eigs")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workload names match BENCHMARK.json")
    check(sorted(reference) == sorted(WORKLOADS)
          and all(sorted(reference[w]) == sorted(op.name for op in WORKLOADS[w])
                  for w in WORKLOADS),
          "reference.json covers every op of every workload")
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared_e2e == END_TO_END, "end-to-end metrics and units match BENCHMARK.json")
    check(declared_layer == PER_LAYER, "per-layer metrics and units match BENCHMARK.json")

    result = run()
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    check(printed == declared_e2e and result["correct"] and result["failed"] == 0,
          f"--trace 0 prints the end-to-end metrics, correct, on {CHEAP}")
    result = run(trace=1)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    check(printed == declared_layer and result["correct"],
          f"--trace 1 prints the per-layer metrics, correct, on {CHEAP}")
    spans = json.loads((WORK_DIR / CHEAP / "seed3-trace1" / "spans.json").read_text())
    check(("eigensolve.participation_ratio", "eigensolve.dense_eigs", "cli.cmd_fiber",
           "cli.main") in parent_chains(spans),
          "the traced run nests participation_ratio < dense_eigs < cmd_fiber < main")
    check_nesting()

    for workload, ops in reference.items():
        for name, frozen in ops.items():
            # a known failure that gets through is held to its converged record
            for path, record in ((), frozen), (("converged",), frozen.get("converged")):
                if record is None:
                    continue
                where = "/".join((workload, name) + path)
                check(gate.compare(record, frozen) == [], f"{where} agrees with the reference")
                for kind in ("exact", "close"):
                    for key, value in record[kind].items():
                        bad = copy.deepcopy(frozen)
                        inner = bad["converged"] if path else bad
                        inner[kind][key] = corrupted(value)
                        check(gate.compare(record, bad) != [],
                              f"{where}: corrupted {key} is caught")
                for key, value in record["checks"].items():
                    worse = copy.deepcopy(record)
                    worse["checks"][key] = False
                    caught = bool(value) and record["exit"] == 0
                    check((gate.compare(worse, frozen) != []) == caught,
                          f"{where}: check {key} going false is "
                          + ("caught" if caught else "tolerated, as in the reference"))

    bad = copy.deepcopy(reference)
    victims = sorted(bad[CHEAP])[:2]
    for name in victims:
        kind = "close" if bad[CHEAP][name]["close"] else "exact"
        key = sorted(bad[CHEAP][name][kind])[0]
        bad[CHEAP][name][kind][key] = corrupted(bad[CHEAP][name][kind][key])
    WORK_DIR.mkdir(exist_ok=True)
    bad_path = WORK_DIR / "corrupted-reference.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    result = run("--reference", str(bad_path))
    check(not result["correct"] and result["failed"] == len(victims)
          and result["metrics"]["ops_ok_frac"]["value"] < 1.0,
          f"a corrupted reference fails {', '.join(victims)} and marks the run incorrect")
    return 0


if __name__ == "__main__":
    sys.exit(main())
