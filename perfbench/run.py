"""Benchmark of the semidirac CLI: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Each run is one fresh process and one client in a closed loop: it writes
the workload's configs (seeded) under ``.perfbench/``, times the set-up
cost in separate processes, then runs the workload's CLI operations
in-process through ``semidirac.cli.main([..., "--threads", "1"])``, pass
after pass, until ``--seconds`` have gone (at least one pass).  Every op's
artifacts then go through the correctness gate (``gate.py``) against the
references frozen from the seed commit (``reference.json``).

With ``--trace 0`` the last line of stdout is the end-to-end result.  With
``--trace 1`` a warm-up pass is followed by traced and untraced passes in
turn (``tracing.py``), and the last line carries the per-layer metrics
instead, each per traced pass; ``trace.overhead_s`` is the median traced
pass time minus the median untraced one.
The line before it records the environment; ``result.json`` in the run's
directory holds both, with every per-pass sample, and ``spans.json`` the
raw spans of a traced run.

Exits 2 without a result when ``./src/semidirac`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
from workloads import WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}

PER_LAYER = {
    "eigensolve.inertia.self_s": "s",
    "eigensolve.inertia.calls": "count",
    "eigensolve.inertia.band_bytes": "bytes_computed",
    "eigensolve.inertia.growth_max": "ratio",
    "eigensolve.inertia.shift_moved": "count",
    "eigensolve.shift_invert.self_s": "s",
    "eigensolve.shift_invert.calls": "count",
    "eigensolve.shift_invert.pairs": "count",
    "eigensolve.shift_invert.shift_moved": "count",
    "eigensolve.block.self_s": "s",
    "eigensolve.block.calls": "count",
    "eigensolve.block.iterations": "count",
    "eigensolve.block.failed": "count",
    "eigensolve.dense.self_s": "s",
    "eigensolve.dense.calls": "count",
    "eigensolve.dense.dim_sum": "count",
    "eigensolve.diagnostics.self_s": "s",
    "eigensolve.diagnostics.calls": "count",
    "eigensolve.convergence_errors": "count",
    "assembly.self_s": "s",
    "assembly.calls": "count",
    "assembly.nnz": "count",
    "assembly.export_s": "s",
    "quasimode.self_s": "s",
    "quasimode.calls": "count",
    "fiber.self_s": "s",
    "fiber.calls": "count",
    "scan.self_s": "s",
    "scan.calls": "count",
    "lattice.self_s": "s",
    "lattice.calls": "count",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.spans": "count",
    "trace.probe_failures": "count",
}

SETUP_PROBES = 3
WORK_DIR = Path(".perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=HERE / "reference.json",
                   help="frozen reference records (default: perfbench/reference.json)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def measure_setup(src: Path, config_paths: list[Path]) -> list[float]:
    """Seconds from process start until semidirac is imported and every config
    has passed cli.parse_config, once per fresh probe process."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(src), *map(str, config_paths)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        samples.append(float(done.stdout) - t0)
    return samples


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_pass(cli, ops, seed: int, out_root: Path, tracer=None) -> dict:
    """One closed-loop pass over the workload's ops; returns its timings and exits."""
    exits = []
    t0, c0 = time.perf_counter(), _cpu_seconds()
    for op, config_path in ops:
        argv = [op.command, "--config", str(config_path), "--out", str(out_root / op.name),
                "--threads", "1", "--seed", str(seed)]
        if tracer is not None:
            tracer.op = f"{out_root.name}/{op.name}"
        try:
            code = cli.main(argv)
        except Exception:  # an op that crashes is a failed op, not a failed run
            traceback.print_exc()
            code = -1
        finally:
            if tracer is not None:
                tracer.op = None
        exits.append(code)
    return {"dir": out_root, "solve_s": time.perf_counter() - t0,
            "cpu_s": _cpu_seconds() - c0, "exits": exits}


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS") or k == "OPENBLAS_CORETYPE"},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
    }


def gate_passes(passes, ops, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, succeeded, problems) over every op of every pass."""
    attempted = succeeded = 0
    problems = []
    for p in passes:
        for (op, config_path), code in zip(ops, p["exits"]):
            config = json.loads(config_path.read_text(encoding="utf-8"))
            record = gate.observe(op.command, config, p["dir"] / op.name, code)
            ref = reference.get(op.name)
            found = ["no frozen reference"] if ref is None else gate.compare(record, ref)
            attempted += 1
            succeeded += gate.succeeded(record, found)
            problems += [f"{p['dir'].name}/{op.name}: {msg}" for msg in found]
    return attempted, succeeded, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "semidirac" / "__init__.py").is_file():
        print("perfbench: no ./src/semidirac here; run from the repository root",
              file=sys.stderr)
        return 2

    run_dir = WORK_DIR / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = write_configs(args.workload, args.seed, run_dir / "configs")
    setup = measure_setup(src, [path for _, path in ops])

    sys.path.insert(0, str(src))
    from semidirac import cli

    reference = json.loads(args.reference.read_text(encoding="utf-8"))[args.workload]

    passes, traced, warmup, tracer = [], [], [], None
    start = time.perf_counter()
    if args.trace:
        from tracing import Tracer

        # the first pass only warms the process up, so that the traced and
        # untraced passes after it compare like with like
        tracer = Tracer()
        warmup.append(run_pass(cli, ops, args.seed, run_dir / "warmup"))
        while not passes or time.perf_counter() - start < args.seconds:
            with tracer:
                traced.append(run_pass(cli, ops, args.seed,
                                       run_dir / f"traced{len(traced)}", tracer))
            passes.append(run_pass(cli, ops, args.seed, run_dir / f"pass{len(passes)}"))
    else:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(cli, ops, args.seed, run_dir / f"pass{len(passes)}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, succeeded, problems = gate_passes(warmup + passes + traced, ops, reference)
    for msg in problems:
        print(f"gate: {msg}", file=sys.stderr)

    samples = {
        "solve_s": [p["solve_s"] for p in passes],
        "setup_s": setup,
        "cpu_s": [p["cpu_s"] for p in passes],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["ops_ok_frac"] = succeeded / attempted
    units = END_TO_END
    if tracer is not None:
        layer = tracer.layer_metrics(len(traced))
        traced_solve = statistics.median(p["solve_s"] for p in traced)
        layer["trace.overhead_s"] = traced_solve - metrics["solve_s"]
        metrics = {k: float(layer.get(k, 0)) for k in PER_LAYER}
        samples["traced_solve_s"] = [p["solve_s"] for p in traced]
        units = PER_LAYER
        (run_dir / "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")

    env = environment(root)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": samples,
        "passes": len(warmup) + len(passes) + len(traced),
        "attempted": attempted,
        "failed": attempted - succeeded,
        "gate_problems": problems,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - succeeded,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
