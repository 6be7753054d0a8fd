"""Seed one-line defects into copies of the repository and report whether
the tier-1 suite catches each.

    python3 scripts/seeded_defects.py [ROW ...]

Each row of ``DEFECTS`` names a file, a text that occurs in it exactly once
and the text that replaces it. For each row the script copies the files of
this checkout that git tracks or does not ignore, as they are in the
working tree, into a fresh temporary directory, applies that one change
there, never in the checkout, and runs the tier-1 command with ``-x``, so a
caught defect stops at its first failing test. It prints one line per row,
``caught`` or ``survived``, with the row's name and the first failing test.
Before the rows it runs the suite once on an unchanged copy, which must
pass, since a suite that fails anyway would call every row caught. Name
rows to run only those. A full run takes about one tier-1 run per
surviving row.

Add a row for each new trainer rule. It is not a gate: a survivor is a
finding, and CHANGES.md records the table.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAINERS = "src/amolf/trainers.py"
EXPERIMENT = "src/amolf/experiment.py"
GRADIENTS = "src/amolf/gradients.py"
LINALG = "src/amolf/linalg.py"

# (name, file, old text, new text)
DEFECTS = [
    (
        "amolf searches on iterations 1, 51, ...",
        TRAINERS,
        "iteration % ast.search_period == 0",
        "(iteration - 1) % ast.search_period == 0",
    ),
    (
        "adaptation doubles on a tie",
        TRAINERS,
        "    if current_epm > previous_epm:",
        "    if current_epm >= previous_epm:",
    ),
    (
        "adaptation halves by floor",
        TRAINERS,
        "return max(-(-n_groups // 2), 1)",
        "return max(n_groups // 2, 1)",
    ),
    (
        "EPM includes the search surcharge",
        TRAINERS,
        "cost.epm(trace.error, stepped.error, multiplies)",
        "cost.epm(trace.error, stepped.error, multiplies + surcharge)",
    ),
    (
        "search ties go to the larger count",
        TRAINERS,
        "if best is None or candidate.error < best[1].error:",
        "if best is None or candidate.error <= best[1].error:",
    ),
    (
        "k-fold reports the last state",
        EXPERIMENT,
        "            train_errors.append(best.last_error)",
        "            best = state\n            train_errors.append(best.last_error)",
    ),
    (
        "owo-newton steps uphill",
        TRAINERS,
        "solve_sym(gauss_newton_input_hessian(trace), gw.ravel())",
        "solve_sym(gauss_newton_input_hessian(trace), (-gw).ravel())",
    ),
    ("OLF_FALLBACK 1e-3 -> 1e-2", TRAINERS, "OLF_FALLBACK = 1e-3", "OLF_FALLBACK = 1e-2"),
    (
        "cg's beta halved",
        TRAINERS,
        "return gradient + beta * previous_direction",
        "return gradient + 0.5 * beta * previous_direction",
    ),
    (
        "LM damping shrinks /5",
        TRAINERS,
        "lam = max(lam / 10.0, LM_LAMBDA_MIN)",
        "lam = max(lam / 5.0, LM_LAMBDA_MIN)",
    ),
    (
        "LM damping grows x5",
        TRAINERS,
        "lam = min(lam * 10.0, LM_LAMBDA_MAX)",
        "lam = min(lam * 5.0, LM_LAMBDA_MAX)",
    ),
    ("LM_LAMBDA_START 1e-2 -> 1e-1", TRAINERS, "LM_LAMBDA_START = 1e-2", "LM_LAMBDA_START = 1e-1"),
    ("LM_MAX_RETRIES 10 -> 3", TRAINERS, "LM_MAX_RETRIES = 10", "LM_MAX_RETRIES = 3"),
    ("LM_LAMBDA_MAX 1e12 -> 1e10", TRAINERS, "LM_LAMBDA_MAX = 1e12", "LM_LAMBDA_MAX = 1e10"),
    (
        "MIN_IMPROVEMENT 1e-6 -> 1e-3",
        EXPERIMENT,
        "MIN_IMPROVEMENT = 1e-6",
        "MIN_IMPROVEMENT = 1e-3",
    ),
    (
        "k-fold improvement strictly below the threshold",
        EXPERIMENT,
        "if val_error <= best_val * (1.0 - MIN_IMPROVEMENT):",
        "if val_error < best_val * (1.0 - MIN_IMPROVEMENT):",
    ),
    (
        "full Gram's blocks added last first",
        GRADIENTS,
        "for p in range(0, nv, GN_BLOCK):",
        "for p in reversed(range(0, nv, GN_BLOCK)):",
    ),
    (
        "a pivot at the threshold is kept",
        LINALG,
        "if abs(pivot) <= thresh:",
        "if abs(pivot) < thresh:",
    ),
    (
        # Starting the loop itself at row n - 2 changes nothing: row n - 1
        # subtracts an empty product.
        "back substitution's sums start one row late",
        LINALG,
        "x[j] -= work[j + 1 : n, j] @ x[j + 1 :]",
        "x[j] -= work[j + 2 : n, j] @ x[j + 2 :]",
    ),
    (
        "the one-group step drops its f' scaling",
        TRAINERS,
        "        features *= trace.fprime\n",
        "",
    ),
    (
        "the one-group step sums gw, not gw * gw",
        TRAINERS,
        "solve_sym(ha, (gw * gw).sum(axis=1))",
        "solve_sym(ha, gw.sum(axis=1))",
    ),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors"]


def checkout_files() -> list[str]:
    """The files git tracks or would track (not ignored), as in the working tree."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout.decode()
    return [name for name in out.split("\0") if name and (ROOT / name).is_file()]


def copy_checkout(dest: Path, files: list[str]) -> None:
    for name in files:
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, target)


def defected(root: Path, path: str, old: str, new: str) -> str:
    """The text of ``root / path`` with ``old``, which must occur once, replaced."""
    text = (root / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{path}: expected one occurrence of {old!r}, found {text.count(old)}")
    return text.replace(old, new)


def run_tier1(dest: Path) -> tuple[bool, str]:
    """(passed, first failing test or the summary line) of tier-1 in ``dest``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(TIER1, cwd=dest, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, failed[0] if failed else (lines[-1] if lines else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", help="names of the rows to run (default: all)")
    args = parser.parse_args()
    rows = [row for row in DEFECTS if not args.rows or row[0] in args.rows]
    unknown = set(args.rows) - {row[0] for row in DEFECTS}
    if unknown:
        raise SystemExit(f"unknown rows: {sorted(unknown)}")
    files = checkout_files()
    for _, path, old, new in rows:
        defected(ROOT, path, old, new)  # every row applies before any runs

    with tempfile.TemporaryDirectory(prefix="seeded-defects-") as tmp:
        clean = Path(tmp) / "unchanged"
        copy_checkout(clean, files)
        passed, summary = run_tier1(clean)
        if not passed:
            raise SystemExit(f"tier-1 fails without a defect: {summary}")
        shutil.rmtree(clean)
        caught = 0
        for name, path, old, new in rows:
            dest = Path(tmp) / re.sub(r"\W+", "-", name)
            copy_checkout(dest, files)
            (dest / path).write_text(defected(dest, path, old, new), encoding="utf-8")
            start = time.perf_counter()
            passed, summary = run_tier1(dest)
            caught += not passed
            verdict = "survived" if passed else "caught  "
            print(f"{verdict} {name} ({time.perf_counter() - start:.0f} s): {summary}", flush=True)
            shutil.rmtree(dest)
    print(f"{caught} of {len(rows)} caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
