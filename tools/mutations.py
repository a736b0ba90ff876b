"""Guard-mutation survey: each guard has a test that makes it fire.

    python3 tools/mutations.py [ROW ...]

Each row of MUTATIONS names a file under src/semidirac, an exact text in
it, its replacement, and the test expected to kill the mutant.  For each
row (all rows, or the numbered ones given) the runner copies src/ to a
temporary directory, replaces the text there, and runs the named test
against the copy in a fresh process with PYTHONPATH set to it; if the
mutant survives that test, full tier-1 runs.  A mutant is killed when a
run fails.  The text must occur exactly once in the file, else the
runner stops before running anything: a refactor updates the table
instead of dropping a mutation.  A run that collects no test also stops
it, so a renamed test cannot pass for a kill.

Known survivors stay in the table, marked.  Prints one line per row and
killed/total; exits 1 when a row ends otherwise than the table says (an
unmarked survivor, or a marked one killed).  The tree is only read, and
the runner adds, skips or loosens no test.  Kept out of CI for its runtime:
a named test takes seconds, a full tier-1 run about a minute.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    file: str
    old: str
    new: str
    test: str
    survivor: bool = False


MUTATIONS = (
    # lowest_of_square: the pair residual re-check, the count below the
    # midpoint and the refusal of a square form without an identity
    Mutation("eigensolve.py", "    if worst > bound:\n", "    if False:\n",
             "tests/test_eigensolve.py::test_lowest_of_square_refuses_a_wrong_vector"),
    Mutation("eigensolve.py", '    if below["count"] != k:\n', "    if False:\n",
             "tests/test_eigensolve.py::test_lowest_of_square_refuses_a_skipped_pair"),
    Mutation("eigensolve.py", "    if op.identity is None:\n", "    if False:\n",
             "tests/test_fiber.py::test_square_form_pairs_refuse_an_entry_off_the_y_path"),
    # the identity's one margin without each of its terms: the defect on M
    # (a planted shift off the square form's read entries), the structural
    # term of R_Q (a coupling off J0), the drop of R_P off its paths (T
    # plus a shift, read into P's diagonal) and the drop of X off its band
    Mutation("fiber.py", "defect + off_p + off_q + off_band + rounding",
             "off_p + off_q + off_band + rounding",
             "tests/test_identity_route.py::"
             "test_a_planted_shift_past_the_margin_is_counted_by_inertia"),
    Mutation("fiber.py", "defect + off_p + off_q + off_band + rounding",
             "defect + off_p + off_band + rounding",
             "tests/test_identity_route.py::"
             "test_a_coupling_off_its_structure_is_counted_by_inertia"),
    Mutation("fiber.py", "defect + off_p + off_q + off_band + rounding",
             "defect + off_q + off_band + rounding",
             "tests/test_identity_route.py::"
             "test_a_planted_shift_past_the_margin_is_counted_by_inertia"),
    Mutation("fiber.py", "defect + off_p + off_q + off_band + rounding",
             "defect + off_p + off_q + rounding",
             "tests/test_fiber.py::test_square_form_pairs_refuse_an_entry_past_the_x_band"),
    Mutation("eigensolve.py", "np.all(np.abs(lam - edge) > identity.margin)",
             "np.all(np.abs(lam - edge) > 0.0)",
             "tests/test_identity_route.py::"
             "test_an_edge_on_an_identity_eigenvalue_is_counted_by_inertia"),
    # both quadrature orders lowered by 20
    Mutation("quasimode.py", "gauss_2d(BUMP_SUPPORT, 80)", "gauss_2d(BUMP_SUPPORT, 60)",
             "tests/test_quasimode.py::test_quadrature_orders_are_frozen"),
    Mutation("quasimode.py", "gauss_2d(model.support, 120)", "gauss_2d(model.support, 100)",
             "tests/test_quasimode.py::test_quadrature_orders_are_frozen"),
    # scipy's OpenBLAS pool left on 2 threads
    Mutation("eigensolve.py", "            set_threads(1)\n", "            set_threads(2)\n",
             "tests/test_cli.py::"
             "test_scipy_blas_runs_on_one_thread_and_numpy_blas_keeps_its_own"),
)

TIER1 = ("--continue-on-collection-errors",)


def mutated_source(row: Mutation) -> str:
    """The row's file with its text replaced; raises unless the text occurs once."""
    text = (ROOT / "src" / "semidirac" / row.file).read_text(encoding="utf-8")
    if text.count(row.old) != 1:
        raise SystemExit(f"mutations: {row.file}: {row.old!r} occurs {text.count(row.old)} "
                         f"times, not once; update the table")
    return text.replace(row.old, row.new)


def killed_by(src: Path, args: tuple[str, ...]) -> bool:
    """Whether pytest, run on the tree's tests against src, fails."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *args], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"mutations: pytest {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="*", type=int, help="row numbers to run (default all)")
    args = parser.parse_args(argv)
    picked = args.rows or range(len(MUTATIONS))
    sources = {i: mutated_source(MUTATIONS[i]) for i in picked}
    killed, unexpected = 0, 0
    with tempfile.TemporaryDirectory(prefix="mutations-") as tmp:
        for i, text in sources.items():
            row = MUTATIONS[i]
            src = Path(tmp) / f"row-{i}"
            shutil.copytree(ROOT / "src", src)
            (src / "semidirac" / row.file).write_text(text, encoding="utf-8")
            if killed_by(src, (row.test,)):
                outcome = f"killed by {row.test.split('::')[-1]}"
            elif killed_by(src, TIER1):
                outcome = "killed by tier-1 only"
            else:
                outcome = None
            killed += outcome is not None
            if (outcome is None) != row.survivor:
                unexpected += 1
            mark = " (known survivor)" if row.survivor else ""
            print(f"[{i}] {row.file}: {row.old.strip()[:50]!r} -> {row.new.strip()[:50]!r}: "
                  f"{outcome or 'SURVIVED'}{mark}", flush=True)
    print(f"killed {killed}/{len(sources)}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
