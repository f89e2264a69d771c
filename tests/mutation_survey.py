"""Mutation survey: does the test suite notice a loosened gate or constant?

Each mutant is one textual edit of one source file. The survey copies the
repository to a temporary directory, never touching the working tree, runs
the test suite there once unmutated to learn which tests already fail, and
then once per mutant with those failures deselected, stopping at the first
new failure. A mutant is *killed* when some test fails, and *survives* when
the suite passes. Each mutant lists today's expected outcome; the survey
reports every mutant whose outcome differs, or whose edit no longer applies,
and exits 1 if there is any.

Usage (from the repository root; each mutant costs one suite run, about
20 s on a 2-core host):

    python tests/mutation_survey.py              # every mutant
    python tests/mutation_survey.py --list       # the mutants, without running
    python tests/mutation_survey.py --only 3 12  # mutants by number

Only the standard library is used, so the script runs with any interpreter
that can run the suite. Its name does not match ``test_*.py``: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
KILLED, SURVIVED = "killed", "survived"


class Mutant(NamedTuple):
    path: str       # relative to the repository root
    old: str        # must occur exactly once in the file
    new: str
    expected: str   # KILLED or SURVIVED
    what: str


CHECKS, SIM, EST = "src/ddopt/checks.py", "src/ddopt/sim.py", "src/ddopt/estimator.py"

# Each check threshold is written once in checks.py, where the comparison, the
# detail text and the expectation all read it: a loosened one shows in the
# verify text the goldens pin (see ROADMAP, "Gates as data").
MUTANTS = [
    Mutant(CHECKS, "slope_tol = 0.25", "slope_tol = 0.5", KILLED,
           "sigma-scaling slope tolerance 0.25 -> 0.5"),
    Mutant(CHECKS, "rel_tol = 0.02", "rel_tol = 0.2", KILLED,
           "sinusoid-error tolerance 2% -> 20%"),
    Mutant(CHECKS, "lhs_tol = 1e-9", "lhs_tol = 1e-3", KILLED,
           "redesign-cancellation certificate 1e-9 -> 1e-3"),
    Mutant(CHECKS, "dev_tol, loss_tol = 1e-6, 1e-10", "dev_tol, loss_tol = 1e-3, 1e-10", KILLED,
           "ideal-tracking deviation 1e-6 -> 1e-3"),
    Mutant(CHECKS, "dev_tol, loss_tol = 1e-6, 1e-10", "dev_tol, loss_tol = 1e-6, 1e-6", KILLED,
           "ideal-tracking loss 1e-10 -> 1e-6"),
    Mutant(CHECKS, "response_tol = 1e-9", "response_tol = 1e-3", KILLED,
           "transfer-equivalence relative error 1e-9 -> 1e-3"),
    Mutant(CHECKS, "residual_tol = 1e-10", "residual_tol = 1e-3", KILLED,
           "lyapunov-residuals residual 1e-10 -> 1e-3"),
    Mutant(CHECKS, "factor = 10.0", "factor = 100.0", KILLED,
           "noise-robustness factor 10 -> 100"),
    Mutant(CHECKS, "exact_tol = 1e-6", "exact_tol = 1e-3", KILLED,
           "polynomial-exactness tolerance 1e-6 -> 1e-3"),
    Mutant(CHECKS, "max_violations = 0", "max_violations = 5", KILLED,
           "block-output-bound violations <= 0 -> <= 5"),
    Mutant(SIM, "if omega * h >= np.pi:", "if omega * h > np.pi:", KILLED,
           "step warning omega h >= pi -> > pi"),
    Mutant(SIM, "_SAFE_MAGNITUDE = 2.0 ** 500", "_SAFE_MAGNITUDE = 2.0 ** 100", KILLED,
           "window vouching magnitude 2^500 -> 2^100"),
    Mutant(SIM, "_NEWTON_ITERATIONS = 24", "_NEWTON_ITERATIONS = 12", KILLED,
           "Newton iterations per window 24 -> 12"),
    Mutant(EST, "decay_rate = sigma / (4.0 * lam_max)", "decay_rate = sigma / (8.0 * lam_max)",
           KILLED, "output bound decay rate sigma/(4 lam_max) -> sigma/(8 lam_max)"),
    Mutant(EST, "input_gain = 2.0 * math.sqrt(", "input_gain = 4.0 * math.sqrt(", KILLED,
           "output bound input gain 2 -> 4"),
    Mutant(EST, "if config.gain * step > 0.5:", "if config.gain * step > 0.6:", KILLED,
           "estimator step warning sigma h > 0.5 -> > 0.6"),
    Mutant(SIM, "((M1, thm, dm), (M2, th1, d1))", "((M1, thm, v0), (M2, th1, v0))", KILLED,
           "affine path feeds ideal runs their start velocity at the middle and end stages"),
    Mutant(SIM, "rows = slice(start, start + block)", "rows = slice(start, start + block - 1)",
           KILLED, "recording blocks one row short of the loop's step: a row per block skipped"),
    Mutant(EST, "for i in range(order - 1, 0, -1):", "for i in range(1, order):", KILLED,
           "cascade f-blocks coupled first to last, before the estimate rows they read are whole"),
    Mutant(SIM, "_chunk_layout(W, n), x0.reshape(n, W.shape[1]))",
           "_chunk_layout(W, n), 0.0 * x0.reshape(n, W.shape[1]))", KILLED,
           "simulate_realization ignores its initial state"),
]

_FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)
# Checks that each mutant's edit applies to the unmutated tree, so every
# mutant fails it by construction; it is left out of the mutant runs.
_GUARD = "tests/test_acceptance.py::test_every_survey_mutant_applies"


def _suite(copy: Path, extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", *extra],
                          cwd=copy, capture_output=True, text=True)


def _copy_tree(dest: Path) -> Path:
    copy = dest / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work", "out"))
    return copy


def survey(mutants: list[tuple[int, Mutant]]) -> int:
    with tempfile.TemporaryDirectory(prefix="ddopt-mutants-") as tmp:
        copy = _copy_tree(Path(tmp))
        start = time.perf_counter()
        base = _suite(copy, [])
        known = _FAILED.findall(base.stdout)
        print(f"unmutated: {len(known)} failing test(s) deselected from every mutant run "
              f"({time.perf_counter() - start:.0f}s): {', '.join(known) or 'none'}")
        deselect = [arg for nodeid in [*known, _GUARD] for arg in ("--deselect", nodeid)]
        if _suite(copy, deselect).returncode != 0:
            print("the unmutated suite does not pass with those deselected; no survey")
            return 1
        differ = 0
        for number, mutant in mutants:
            path = copy / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                outcome, detail = "does not apply", f"{mutant.old!r} not found once"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                start = time.perf_counter()
                try:
                    run = _suite(copy, ["-x", *deselect])
                finally:
                    path.write_text(text)
                failed = _FAILED.findall(run.stdout)
                outcome = {0: SURVIVED, 1: KILLED}.get(run.returncode,
                                                       f"error (exit {run.returncode})")
                detail = f"{time.perf_counter() - start:.0f}s" + (f", {failed[0]}" if failed else "")
            mark = "" if outcome == mutant.expected else "   <-- expected " + mutant.expected
            differ += bool(mark)
            print(f"{number:2d} {outcome:9s} {mutant.path}: {mutant.what} ({detail}){mark}")
        print(f"{len(mutants)} mutants, {differ} differ from the expected outcome")
        return int(differ > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    parser.add_argument("--only", type=int, nargs="+", metavar="N", help="run these mutants")
    args = parser.parse_args(argv)
    numbered = [(n, m) for n, m in enumerate(MUTANTS, start=1)
                if not args.only or n in args.only]
    if args.list:
        for number, mutant in numbered:
            print(f"{number:2d} expect {mutant.expected:8s} {mutant.path}: {mutant.what}")
        return 0
    return survey(numbered)


if __name__ == "__main__":
    sys.exit(main())
