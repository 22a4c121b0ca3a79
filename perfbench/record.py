"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every op of every workload once at the default seed, with the
program in ``src/``, and writes ``perfbench/references.json``.  Run it on
the commit whose outputs are the reference, never to make a failing check
pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import run as bench  # noqa: E402  (standard library only)

bench.pin_threads()

from perfbench import workloads  # noqa: E402


def main() -> int:
    out_dir = HERE.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    refs = {"environment": None}
    for name, build in workloads.WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-",
                                        dir=out_dir))
        try:
            wl = build(workloads.DEFAULT_SEED, workdir)
            refs[name] = {}
            for op in wl.ops:
                raw = op.call()
                entry = {"outputs": op.outputs(raw)}
                if op.writes_files:
                    entry["digests"] = workloads.digests(raw)
                refs[name][op.name] = entry
                print(f"recorded {name}/{op.name}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    refs["environment"] = workloads.environment()
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
