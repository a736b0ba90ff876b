"""Byte-identity of the semidirac CLI between two source trees.

    python3 tools/identity.py BEFORE AFTER [CONFIG.json ...] [--allow PATTERN ...]

BEFORE and AFTER are repository roots, each holding src/semidirac.  Every
config of tests/cli_golden.json and every CONFIG given runs through all
six commands, at --seed 0, each run in a fresh Python process with
PYTHONPATH set to the tree's src.  The golden file is read from both
trees; a name whose config differs between them runs in both versions,
as NAME@before and NAME@after.

A run, named CONFIG:COMMAND, is identical when both trees give the same
exit code, the same stdout and stderr once the output directory is
replaced by a placeholder, the same file names, the same bytes in every
file written (CSVs, matrix.txt), and the same summary.json once its
timestamp line is dropped.

Prints the counts of identical and different runs and one line per
difference.  Exits 1 if a run differs whose id matches no --allow
pattern (fnmatch syntax, so NAME:* allows every command of one config),
else 0.  The trees are only read; every output lands in a temporary
directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = ("spectrum", "quasimode", "scan", "fiber", "export-matrix", "validate-config")
TIMESTAMP = re.compile(rb'^[ \t]*"timestamp": "[^"]*",?\n', re.MULTILINE)
OUT = "<out>"
# runs at once, each a whole CLI process with its own numpy and scipy
JOBS = 2


def golden_configs(before: Path, after: Path) -> dict:
    """Name -> config over both trees' golden files."""
    def read(tree: Path) -> dict:
        path = tree / "tests" / "cli_golden.json"
        if not path.is_file():
            return {}
        return {name: entry["config"]
                for name, entry in json.loads(path.read_text(encoding="utf-8")).items()}

    old, new = read(before), read(after)
    configs = {}
    for name in sorted(set(old) | set(new)):
        if name in old and name in new and old[name] != new[name]:
            configs[f"{name}@before"] = old[name]
            configs[f"{name}@after"] = new[name]
        else:
            configs[name] = new.get(name, old.get(name))
    return configs


def run(tree: Path, command: str, config: Path, out: Path) -> dict:
    """One CLI run in a fresh process: exit code, normalised streams, files."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "semidirac.cli", command, "--config", str(config),
         "--out", str(out), "--seed", "0"],
        env=env, cwd=out.parent, capture_output=True, timeout=600,
    )
    files = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if path.name == "summary.json":
                    data = TIMESTAMP.sub(b"", data)
                files[str(path.relative_to(out))] = data
    return {
        "exit": proc.returncode,
        "stdout": proc.stdout.replace(str(out).encode(), OUT.encode()),
        "stderr": proc.stderr.replace(str(out).encode(), OUT.encode()),
        "files": files,
    }


def _first_line_apart(a: bytes, b: bytes) -> str:
    for la, lb in zip(a.splitlines() + [b""], b.splitlines() + [b""]):
        if la != lb:
            return f"{la.decode(errors='replace')[:100]!r} != {lb.decode(errors='replace')[:100]!r}"
    return "same lines, different endings"


def differences(a: dict, b: dict) -> list[str]:
    """What differs between the before run a and the after run b."""
    found = []
    if a["exit"] != b["exit"]:
        found.append(f"exit {a['exit']} != {b['exit']}")
    for stream in ("stdout", "stderr"):
        if a[stream] != b[stream]:
            found.append(f"{stream}: {_first_line_apart(a[stream], b[stream])}")
    for name in sorted(set(a["files"]) | set(b["files"])):
        if name not in b["files"]:
            found.append(f"{name} only before")
        elif name not in a["files"]:
            found.append(f"{name} only after")
        elif a["files"][name] != b["files"][name]:
            found.append(f"{name}: {_first_line_apart(a['files'][name], b['files'][name])}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="repository root of the reference tree")
    parser.add_argument("after", type=Path, help="repository root of the changed tree")
    parser.add_argument("configs", nargs="*", type=Path, help="extra JSON configs to run")
    parser.add_argument("--allow", action="append", default=[], metavar="PATTERN",
                        help="run ids (CONFIG:COMMAND, fnmatch) whose difference is expected")
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    for label, tree in trees.items():
        if not (tree / "src" / "semidirac" / "cli.py").is_file():
            parser.error(f"{label}: no src/semidirac/cli.py under {tree}")

    configs = golden_configs(trees["before"], trees["after"])
    for path in args.configs:
        configs[str(path)] = json.loads(path.read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        work = Path(tmp)
        jobs = []
        for i, (name, config) in enumerate(configs.items()):
            config_path = work / f"config-{i}.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            for command in COMMANDS:
                for label, tree in trees.items():
                    run_dir = work / label / f"{i}-{command}"
                    run_dir.mkdir(parents=True)
                    jobs.append((f"{name}:{command}", label, tree, command, config_path,
                                 run_dir / "out"))
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(lambda job: run(*job[2:]), jobs))

    runs: dict = {}
    for (run_id, label, *_), result in zip(jobs, results):
        runs.setdefault(run_id, {})[label] = result

    identical, expected, unexpected = 0, [], []
    for run_id, pair in runs.items():
        found = differences(pair["before"], pair["after"])
        if not found:
            identical += 1
        elif any(fnmatch.fnmatchcase(run_id, pattern) for pattern in args.allow):
            expected.append((run_id, found))
        else:
            unexpected.append((run_id, found))

    print(f"runs       {len(runs)}")
    print(f"identical  {identical}")
    print(f"different  {len(expected) + len(unexpected)} "
          f"({len(expected)} allowed, {len(unexpected)} not allowed)")
    for tag, listed in (("allowed", expected), ("NOT ALLOWED", unexpected)):
        for run_id, found in listed:
            print(f"{tag}  {run_id}")
            for line in found:
                print(f"    {line}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
