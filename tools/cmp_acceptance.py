"""Compare the acceptance lines of two checkouts.

Usage::

    python tools/cmp_acceptance.py OLD NEW

OLD and NEW are checkout roots (each holding ``src/dfsim`` and
``tests/test_acceptance.py``), for example a ``git archive`` export of the
parent commit and the working tree.  Each checkout's acceptance suite runs
once (``pytest tests/test_acceptance.py -q -s``) in a fresh interpreter,
from the checkout's root and with its ``src`` first on PYTHONPATH.  The
``[PASS]``/``[FAIL]`` lines it prints are kept, with their ``wall=...s``
fields masked, since wall times differ between any two runs.  Every line
that differs is printed, OLD's prefixed ``-`` and NEW's ``+``.  Exits 1 if
any line differs, 0 if none does.
"""

from __future__ import annotations

import argparse
import difflib
import re
import subprocess
import sys
from pathlib import Path

from cmp_bundled import _env, _src

LINE = re.compile(r"\[(?:PASS|FAIL)\] .*")
WALL = re.compile(r"wall=[-+0-9.eE]+s")


def acceptance_lines(root: Path) -> list[str]:
    """The masked PASS/FAIL lines of ``root``'s acceptance suite, in the
    order printed."""
    env = _env(_src(root))
    print(f"{root}: tests/test_acceptance.py", file=sys.stderr)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q",
         "-s", "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True)
    # With -s a line can follow pytest's progress marks on the same line.
    lines = [WALL.sub("wall=...s", m.group())
             for m in map(LINE.search, run.stdout.splitlines()) if m]
    if not lines:
        raise SystemExit(f"{root}: no acceptance lines\n{run.stdout}"
                         f"{run.stderr}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="reference checkout root")
    parser.add_argument("new", type=Path, help="checkout root to compare")
    args = parser.parse_args(argv)
    old, new = (acceptance_lines(p.resolve()) for p in (args.old, args.new))
    diff = [line for line in difflib.ndiff(old, new)
            if line.startswith(("-", "+"))]
    for line in diff:
        print(line)
    print(f"{len(old)} lines against {len(new)}, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
