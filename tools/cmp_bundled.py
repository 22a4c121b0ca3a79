"""Byte-compare the outputs of every bundled scenario between two checkouts.

Usage::

    python tools/cmp_bundled.py OLD NEW

OLD and NEW are checkout roots (each holding ``src/dfsim``), for example a
``git archive`` export of the parent commit and the working tree.  Every
bundled scenario (``simulate list``) runs once per checkout, each in its own
interpreter with that checkout's ``src`` first on PYTHONPATH and its own
output directory.  The checkouts take turns at running first: OLD for the
first scenario, NEW for the second, and so on, so that neither side's wall
times gain from always following the other's run.  Every output file whose
bytes differ, or that only one checkout wrote, is listed, with the largest
difference between its numbers when nothing else differs.  So is each
scenario's wall time per checkout: the whole ``simulate run`` process,
interpreter start-up and imports included.  Manifests record the wall time
and the output directory, so they are compared with those two lines left
out.  Exits 1 if any file differs, 0 if none does.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Manifest lines that legitimately differ between two runs.
VOLATILE = ("# wall_time_s = ", "out = ")
NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def _env(src: Path) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _simulate(src: Path, *args: str) -> str:
    return subprocess.run([sys.executable, "-m", "dfsim.cli", *args],
                          env=_env(src), check=True, capture_output=True,
                          text=True).stdout


def _src(root: Path) -> Path:
    src = root / "src"
    if not (src / "dfsim" / "__init__.py").is_file():
        raise SystemExit(f"{root} holds no src/dfsim")
    return src


def run_all(srcs: dict[str, Path], names: list[str],
            out: Path) -> dict[tuple[str, str], float]:
    """Run every scenario in ``names`` with each side's ``src`` into
    ``out/<side>/<name>``, the sides in turn for each scenario, the first
    side first for every other scenario and last for the rest; returns the
    wall time in seconds of each (name, side)."""
    walls = {}
    for k, name in enumerate(names):
        for side, src in list(srcs.items())[::-1 if k % 2 else 1]:
            print(f"{src.parent}: {name}", file=sys.stderr)
            start = time.perf_counter()
            _simulate(src, "run", name, "--out", str(out / side / name))
            walls[name, side] = time.perf_counter() - start
    return walls


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if not path.name.endswith("_manifest.cfg"):
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.decode().startswith(VOLATILE))


def largest_difference(old: Path, new: Path) -> float | None:
    """Largest absolute difference between corresponding numbers of two
    files whose text matches apart from its numbers; None if it does not
    (or if a file is missing)."""
    if not (old.is_file() and new.is_file()):
        return None
    texts = [_content(p).decode() for p in (old, new)]
    numbers = [re.findall(NUMBER, t) for t in texts]
    if (len(numbers[0]) != len(numbers[1])
            or len({re.sub(NUMBER, "#", t) for t in texts}) != 1):
        return None
    return max((abs(float(a) - float(b)) for a, b in zip(*numbers)),
               default=0.0)


def differing(old: Path, new: Path) -> list[str]:
    """Relative paths of the files under ``old`` and ``new`` whose
    compared content differs or that exist under only one of them."""
    files = {p.relative_to(d) for d in (old, new) for p in d.rglob("*")
             if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((old / f).is_file() and (new / f).is_file()
                          and _content(old / f) == _content(new / f)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="reference checkout root")
    parser.add_argument("new", type=Path, help="checkout root to compare")
    args = parser.parse_args(argv)
    srcs = {side: _src(root.resolve())
            for side, root in (("old", args.old), ("new", args.new))}
    names = [_simulate(src, "list").split() for src in srcs.values()]
    if names[0] != names[1]:
        print(f"bundled scenarios differ: {names[0]} against {names[1]}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        walls = run_all(srcs, names[0], out)
        diff = differing(out / "old", out / "new")
        count = sum(1 for p in (out / "new").rglob("*") if p.is_file())
        largest = {f: largest_difference(out / "old" / f, out / "new" / f)
                   for f in diff}
    for name in names[0]:
        print(f"wall {name}: old {walls[name, 'old']:.3f} s, "
              f"new {walls[name, 'new']:.3f} s")
    for path, gap in largest.items():
        print(f"differs: {path}" + ("" if gap is None
                                    else f" (largest difference {gap:.3g})"))
    print(f"{len(names[0])} scenarios, {count} files, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
