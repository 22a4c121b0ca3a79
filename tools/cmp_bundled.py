"""Byte-compare the outputs of every bundled scenario between two checkouts.

Usage::

    python tools/cmp_bundled.py OLD NEW

OLD and NEW are checkout roots (each holding ``src/dfsim``), for example a
``git archive`` export of the parent commit and the working tree.  Every
bundled scenario (``simulate list``) runs once per checkout, each in its own
interpreter with that checkout's ``src`` first on PYTHONPATH and its own
output directory.  Every output file whose bytes differ, or that only one
checkout wrote, is listed.  Manifests record the wall time and the output
directory, so they are compared with those two lines left out.  Exits 1 if
any file differs, 0 if none does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Manifest lines that legitimately differ between two runs.
VOLATILE = ("# wall_time_s = ", "out = ")


def _simulate(src: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "dfsim.cli", *args],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


def run_all(root: Path, out: Path) -> list[str]:
    """Run every bundled scenario of the checkout at ``root`` into
    ``out/<name>``; returns the scenario names."""
    src = root / "src"
    if not (src / "dfsim" / "__init__.py").is_file():
        raise SystemExit(f"{root} holds no src/dfsim")
    names = _simulate(src, "list").split()
    for name in names:
        print(f"{root}: {name}", file=sys.stderr)
        _simulate(src, "run", name, "--out", str(out / name))
    return names


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if not path.name.endswith("_manifest.cfg"):
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.decode().startswith(VOLATILE))


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
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        names = [run_all(root.resolve(), out / side)
                 for side, root in (("old", args.old), ("new", args.new))]
        if names[0] != names[1]:
            print(f"bundled scenarios differ: {names[0]} against {names[1]}")
            return 1
        diff = differing(out / "old", out / "new")
        count = sum(1 for p in (out / "new").rglob("*") if p.is_file())
    for path in diff:
        print(f"differs: {path}")
    print(f"{len(names[0])} scenarios, {count} files, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
