"""Tests of the benchmark harness itself: the correctness gate, the span
bookkeeping and the printed metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import dfsim  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = workloads.load_references()


def _ops(tmp_path, name, smoke=False):
    workdir = tmp_path / name
    workdir.mkdir()
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, workdir, smoke)
    return wl, {op.name: op for op in wl.ops}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_references_pass_their_own_check(tmp_path, name):
    _, ops = _ops(tmp_path, name)
    for op_name, op in ops.items():
        ref = REFERENCES[name][op_name]["outputs"]
        assert workloads.check(op, ref, ref, default_seed=True) == []


@pytest.mark.parametrize("name,op_name,key", [
    ("scenarios", "prep-fig2a", "fidelity"),
    ("scenarios", "rot-fig3a", "fidelity"),
    ("sweeps", "prep-disorder", "mean_fidelity"),
    ("sweeps", "rot-disorder", "mean_fidelity"),
    ("sweeps", "table1", "mean_fidelity_v_0.005"),
    ("sweeps", "merit-fig2b", "merit.0.5.fidelity"),
])
def test_gate_flags_fidelity_off_by_1e_3(tmp_path, name, op_name, key):
    _, ops = _ops(tmp_path, name)
    ref = REFERENCES[name][op_name]["outputs"]
    near = dict(ref, **{key: ref[key] - 5e-5})
    off = dict(ref, **{key: ref[key] - 1e-3})
    if key.startswith("merit."):
        # Merit rows sit on a bisection bracket; their fidelity must stay
        # at or above the 0.98 target rather than match the reference.
        near[key] = 0.98
    assert workloads.check(ops[op_name], near, ref, True) == []
    problems = workloads.check(ops[op_name], off, ref, True)
    assert len(problems) == 1 and key in problems[0]


def test_seeded_values_meet_invariants_at_other_seeds(tmp_path):
    _, ops = _ops(tmp_path, "sweeps")
    ref = REFERENCES["sweeps"]["rot-disorder"]["outputs"]
    moved = dict(ref, mean_fidelity=0.5, swap_probability=0.1)
    assert workloads.check(ops["rot-disorder"], moved, ref, False) == []
    assert workloads.check(ops["rot-disorder"], moved, ref, True) != []
    broken = dict(ref, mean_fidelity=1.5)
    assert workloads.check(ops["rot-disorder"], broken, ref, False) != []


def test_span_self_times_sum_to_each_traced_op(tmp_path):
    scen, _ = _ops(tmp_path, "scenarios", smoke=True)
    swp, _ = _ops(tmp_path, "sweeps", smoke=True)
    scen.ops = [op for op in scen.ops
                if op.name in ("prep-fig2a", "readout", "cluster-growth")]
    swp.ops = [op for op in swp.ops
               if op.name in ("prep-disorder", "merit-fig2b")]
    original = dfsim.protocols.evolve_nojump
    tracer = Tracer()
    tracer.install()
    try:
        assert dfsim.protocols.evolve_nojump is not original
        assert dfsim.cli.prepare_b is dfsim.protocols.prepare_b
        tallies = [bench.measure(wl, 0.0, REFERENCES[wl.name], tracer)
                   for wl in (scen, swp)]
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert dfsim.protocols.evolve_nojump is original
    assert dfsim.dynamics.evolve_nojump is original

    walls = [t.raw[op.name][0] for wl, t in zip((scen, swp), tallies)
             for op in wl.ops]
    own = tracer.self_times()
    for op_id, wall in enumerate(walls):
        total = sum(s for span, s in zip(tracer.spans, own)
                    if span.op == op_id)
        assert total == pytest.approx(wall, rel=0.01)
        # The harness's own share of the op: what no dfsim wrapper covered.
        harness = [s for span, s in zip(tracer.spans, own)
                   if span.op == op_id and span.name.startswith("op.")]
        assert len(harness) == 1 and harness[0] < 0.05 * wall
    layers = tracer.layer_metrics()
    assert layers["protocols.prepare_b.calls"] > 0
    assert layers["dynamics.solve_ivp.nfev"] > 0
    assert layers["cli.prepare_merit_point.prepare_b_calls"] > 0


def _invoke(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_unit(name, trace):
    proc = _invoke(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                   "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _invoke(tmp_path, "--workload", "scenarios", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
