"""Test-id floor: fail if the working tree lost a tier-1 test id that BASE has.

Usage::

    python scripts/check_test_floor.py BASE

BASE is any git revision (CI passes the pull request's merge base).  The
script checks BASE out with ``git worktree add`` into a temporary
directory, runs ``python -m pytest --collect-only -q tests`` in both trees
(each with its own ``src`` on ``PYTHONPATH``), prints every test id present
at BASE but missing from the working tree, and prints the ``src/`` and
``tests/`` line counts of both trees with their deltas.  It exits 1 if any
id is missing (or the working tree fails to collect), 2 if BASE cannot be
resolved or collected, 0 otherwise, and removes the worktree in every case.

Adding tests or parametrizations never fails the check; deleting or
renaming a test id does.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def collect(tree: pathlib.Path) -> tuple[set[str], int, str]:
    """Tier-1 test ids of ``tree``, pytest's exit code and its output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    output = result.stdout + result.stderr
    ids = {line.strip() for line in result.stdout.splitlines() if "::" in line}
    return ids, result.returncode, output


def line_count(tree: pathlib.Path, top: str) -> int:
    total = 0
    for path in (tree / top).rglob("*.py"):
        with path.open("rb") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision whose test ids form the floor")
    args = parser.parse_args(argv)

    try:
        base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
    except subprocess.CalledProcessError:
        print(f"error: {args.base!r} is not a git revision")
        return 2
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="test-floor-"))
    base_tree = tmp / "base"
    try:
        git("worktree", "add", "--detach", str(base_tree), base_sha)
        base_ids, base_rc, base_out = collect(base_tree)
        if base_rc != 0 or not base_ids:
            print(base_out[-4000:])
            print(f"error: could not collect the tests of BASE {base_sha[:12]}")
            return 2
        head_ids, head_rc, head_out = collect(ROOT)
        base_lines = {top: line_count(base_tree, top) for top in ("src", "tests")}
    finally:
        # deleting the checkout and pruning also cleans up after a failed add
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    for top in ("src", "tests"):
        head = line_count(ROOT, top)
        print(f"{top}/: {base_lines[top]} -> {head} lines ({head - base_lines[top]:+d})")
    print(f"test ids: {len(base_ids)} at BASE {base_sha[:12]}, {len(head_ids)} here")
    if head_rc != 0:
        print(head_out[-4000:])
        print(f"FAIL: collecting the working tree's tests exited {head_rc}")
        return 1
    missing = sorted(base_ids - head_ids)
    if missing:
        print(f"FAIL: {len(missing)} test id(s) present at BASE are missing here:")
        for test_id in missing:
            print(f"  {test_id}")
        return 1
    print("OK: no test id was lost")
    return 0


if __name__ == "__main__":
    sys.exit(main())
