"""Repeat the benchmark over seeds and summarize each metric across runs.

Run from the repository root:

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/results/seed.json

For every workload (or those given with ``--workloads``) it runs
``run.py --trace 0`` once per seed, then one ``--trace 1`` run at the
first seed, each in a fresh process with ``run_seconds`` from
``BENCHMARK.json``.  Per end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(n=4)``), the run count and the spread
(q3 - q1) / median next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(environment, result) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[-2].partition(" ")[2])
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="inclusive seed range, e.g. 0-9")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", type=Path, help="write the summary JSON here")
    args = p.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            env, result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "environment": env,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in bounds:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {workload} {name}: median {stats['median']:.4g} "
                  f"[{stats['q1']:.4g}, {stats['q3']:.4g}] n={stats['n']} "
                  f"spread {stats['spread']:.3%} (bound/3 {bounds[name] / 3:.3%}) {flag}",
                  flush=True)
        _, traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
