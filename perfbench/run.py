"""dfsim benchmark: one closed-loop client calling dfsim's public functions.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 50 --trace 0

Run from the repository root (or a checkout of it).  The program is
imported from ``src/`` of that checkout; without it the benchmark exits
with status 2.  Each pass runs every op of the workload its repeat count
of times, one at a time; passes repeat while another one still fits in
``--seconds`` (there is always at least one).  Each op's outputs are
checked against the values the seed code produced (see workloads.py); a
failing op is counted, never skipped or retried.

Times are scaled to a reference machine speed (see speed.py).  With
``--trace 0`` the end-to-end metrics are reported: the median time of each
of the workload's four timed ops (``op1_s`` .. ``op4_s``, named in
workloads.py), the time of one pass (``wall_s``), the median of several
fresh-interpreter set-ups, peak RSS and the share of ops that passed.
With ``--trace 1`` the same untraced measurement runs first; then wrappers
are installed and one more pass is traced, giving the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything else a run records (environment, raw and scaled
op times, failures, output digests and, when traced, every span) goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

# Only the standard library is imported at module level: BLAS threads must
# be pinned before numpy loads, and a set-up child times the import of dfsim
# and numpy itself.  The harness modules are imported inside functions.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# BLAS threads per process (at most nproc); dfsim's matrices are 8x8 and
# 16x16, so more threads only add scheduling noise.
BLAS_THREADS = "1"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _build(args, workdir: Path):
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads
    return workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)


def _setup_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"]
        + (["--smoke"] if args.smoke else []),
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times of fresh interpreters: importing dfsim and
    building the workload's inputs.  The reference kernel runs just before
    and after each child.  The first child, which also writes bytecode
    caches, is not counted."""
    from perfbench import speed
    _setup_child(args)
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.kernel_time(40)
        raw = _setup_child(args)
        after = speed.kernel_time(40)
        times.append((raw, raw * speed.KERNEL_NOMINAL_S * 2 / (before + after)))
    return times


class Tally:
    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.timed: list[tuple[str, float, float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, dict] = {}
        self.passes = 0

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(t) for name, t in self.scaled.items()}

    def pass_s(self, wl) -> float:
        """Time of one pass, from each op's median time."""
        medians = self.medians()
        return sum(medians[op.name] * op.repeat for op in wl.ops)


def _execute(op, tally: Tally, sampler, reference: dict, default_seed: bool,
             tracer=None) -> None:
    from perfbench import workloads
    if tracer is not None:
        tracer.op += 1
        span = tracer.open(f"op.{op.name}")
    busy = sampler.busy_s
    start = time.perf_counter()
    try:
        raw, failure = op.call(), None
    except Exception as exc:  # counted as a failed op; the run goes on
        raw, failure = None, f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.close(span)
    tally.raw[op.name].append(end - start)
    tally.timed.append((op.name, end - start - (sampler.busy_s - busy),
                        start, end))
    tally.attempted += 1
    if failure is None:
        problems = workloads.check(op, op.outputs(raw),
                                   reference[op.name]["outputs"], default_seed)
        failure = "; ".join(problems) or None
        if op.writes_files:
            tally.digests[op.name] = workloads.digests(raw)
    if failure is not None:
        tally.failures.append(f"{op.name}: {failure}")


def measure(wl, seconds: float, reference: dict, tracer=None) -> Tally:
    from perfbench import speed, workloads
    default_seed = wl.seed == workloads.DEFAULT_SEED
    tally = Tally()
    durations = []
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            begin = time.perf_counter()
            for op in wl.ops:
                for _ in range(op.repeat):
                    _execute(op, tally, sampler, reference, default_seed,
                             tracer)
            durations.append(time.perf_counter() - begin)
            elapsed = time.perf_counter() - start
            if tracer is not None or \
                    elapsed + statistics.mean(durations) > seconds:
                break
    for name, own, begin, end in tally.timed:
        tally.scaled[name].append(own * sampler.factor(begin, end))
    tally.passes = len(durations)
    return tally


def end_to_end(wl, tally: Tally, setup_times) -> dict:
    medians = tally.medians()
    m = {op.metric: (medians[op.name], "s") for op in wl.ops if op.metric}
    m["wall_s"] = (tally.pass_s(wl), "s")
    m["setup_s"] = (statistics.median(t for _, t in setup_times), "s")
    m["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    m["ok_ops"] = (100.0 * (tally.attempted - len(tally.failures))
                   / tally.attempted, "%")
    return m


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes_written") else "count"


def per_layer(wl, tracer, traced: Tally, untraced: Tally) -> dict:
    m = {k: (v if _unit(k) == "s" else int(v), _unit(k))
         for k, v in tracer.layer_metrics().items()}
    m["rot_fig3a.calibrate_s"] = (
        tracer.inclusive("protocols.calibrate_detuning", "cli.run"), "s")
    m["rot_fig3a.rotate_s"] = (
        tracer.inclusive("protocols.rotate_logical", "cli.run"), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead_s"] = (traced.pass_s(wl) - untraced.pass_s(wl), "s")
    return m


def _digest_info(wl, tally: Tally, reference: dict) -> dict:
    from perfbench import workloads
    info = {"files": tally.digests}
    if wl.seed == workloads.DEFAULT_SEED:
        info["identical_to_reference"] = {
            name: files == reference[name].get("digests")
            for name, files in tally.digests.items()}
    return info


def run(args) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.setup_only:
            start = time.perf_counter()
            _build(args, workdir)
            return {"setup_s": time.perf_counter() - start}
        wl = _build(args, workdir)
        setup_times = [] if args.trace else measure_setup(args)
        from perfbench import workloads
        from perfbench.tracer import Tracer
        import dfsim
        if Path(dfsim.__file__).resolve().parent != SRC / "dfsim":
            raise RuntimeError(f"dfsim imported from {dfsim.__file__}, "
                               f"not from {SRC}")
        reference = workloads.load_references()[wl.name]
        untraced = measure(wl, args.seconds, reference)
        tallies = [untraced]
        record = {"environment": workloads.environment(),
                  "workload": wl.name, "seed": wl.seed,
                  "ops": {op.name: op.metric for op in wl.ops},
                  "passes": untraced.passes, "raw_s": untraced.raw,
                  "scaled_s": untraced.scaled,
                  "csv_digests": _digest_info(wl, untraced, reference)}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl, args.seconds, reference, tracer)
            finally:
                tracer.uninstall()
            tallies.append(traced)
            metrics = per_layer(wl, tracer, traced, untraced)
            record["traced_raw_s"] = traced.raw
            record["traced_scaled_s"] = traced.scaled
            record["spans"] = tracer.dump()
        else:
            metrics = end_to_end(wl, untraced, setup_times)
            record["setup_raw_scaled_s"] = setup_times
        failures = [f for t in tallies for f in t.failures]
        record["failures"] = failures
        record["metrics"] = metrics
        name = f"{wl.name}-seed{wl.seed}-trace{int(args.trace)}.json"
        with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(json.dumps({"environment": record["environment"]}))
        print(json.dumps({"ops": record["ops"]}))
        print(json.dumps({"csv_digests": record["csv_digests"]}))
        for failure in failures:
            print(f"FAILED {failure}")
        attempted = sum(t.attempted for t in tallies)
        return {"correct": not failures, "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenarios", "sweeps"))
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that exercise the harness only; "
                             "outputs do not match the references")
    args = parser.parse_args(argv)
    if not (SRC / "dfsim" / "__init__.py").is_file():
        print(f"perfbench: no dfsim package under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
