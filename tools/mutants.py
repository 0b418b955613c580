"""Run the hand-written mutants in ``mutants.json`` against the tests that
should kill them.

Each entry names a file under ``src/protolab``, an exact ``old`` text that
occurs once in it, the ``new`` text that replaces it, and the test files
(or test ids) expected to fail on the result.  For each entry the script
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies the one edit there and runs ``pytest -x`` on the listed
tests only; the working tree is never edited.  A mutant is killed when
pytest reports a failing test (exit status 1).

    python tools/mutants.py

The exit status is 0 only if every mutant is killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")


def apply(mutant: dict, tree: Path) -> None:
    path = tree / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['id']}: the old text does not occur "
                         f"exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]))


def run(mutant: dict) -> str:
    """``killed``, ``SURVIVED`` or ``error (exit N)`` for one mutant."""
    with tempfile.TemporaryDirectory(prefix="protolab-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        apply(mutant, tree)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant["tests"]],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ).returncode
    return {0: "SURVIVED", 1: "killed"}.get(status, f"error (exit {status})")


def main() -> int:
    results = []
    for mutant in json.loads(MUTANTS.read_text()):
        start = time.perf_counter()
        result = run(mutant)
        results.append(result)
        print(f"{result:<16} {time.perf_counter() - start:6.1f} s  "
              f"{mutant['id']}  ({' '.join(mutant['tests'])})", flush=True)
    killed = results.count("killed")
    print(f"{killed} of {len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
