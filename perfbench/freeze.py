"""Freeze the correctness gate's references from the current commit.

Run from the repository root; runs one pass of every workload at seed 0
and writes what ``gate.observe`` sees to ``perfbench/reference.json``:

    python3 perfbench/freeze.py

An op that fails at seed 0 and has a seed in ``CONVERGING_SEEDS`` is run
once more at that seed, and its output there is frozen as the reference's
``converged`` record, which the gate holds a run to when the op gets
through.
"""

import json
import shutil
import sys
from pathlib import Path

import gate
from run import HERE, WORK_DIR, run_pass
from workloads import WORKLOADS, write_configs

# The 101x51 square-form op stalls at 800 LOBPCG iterations on most seeds
# (15 of 16 tried); on this one it converges after 779.
CONVERGING_SEEDS = {"square-101x51": 440036465}


def observe_pass(cli, workload: str, seed: int, run_dir: Path, only=None) -> dict:
    """One pass of the workload's ops (or of those named in ``only``) at the seed."""
    ops = [(op, path) for op, path in write_configs(workload, seed, run_dir / "configs")
           if only is None or op.name in only]
    done = run_pass(cli, ops, seed, run_dir / "pass0")
    return {
        op.name: gate.observe(op.command, json.loads(path.read_text(encoding="utf-8")),
                              done["dir"] / op.name, code)
        for (op, path), code in zip(ops, done["exits"])
    }


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from semidirac import cli

    reference = {}
    for workload in WORKLOADS:
        run_dir = WORK_DIR / "freeze" / workload
        shutil.rmtree(run_dir, ignore_errors=True)
        reference[workload] = records = observe_pass(cli, workload, 0, run_dir)
        for name, record in records.items():
            seed = CONVERGING_SEEDS.get(name)
            if record["exit"] == 0 or seed is None:
                continue
            again = observe_pass(cli, workload, seed, run_dir / f"seed{seed}", {name})[name]
            if again["exit"] != 0:
                print(f"freeze: {workload}/{name} fails at seed {seed} too", file=sys.stderr)
                return 1
            record["converged"] = again
    out = HERE / "reference.json"
    out.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
