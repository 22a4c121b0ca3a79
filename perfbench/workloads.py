"""Workloads of the dfsim benchmark: the ops each one runs, the inputs they
are built from, and the checks applied to every output.

An op is one user-visible call into dfsim.  Its time is measured around
that call alone; parsing and checking its outputs happens afterwards.
Outputs are flattened to ``key -> value`` and compared with the values the
seed code produced at the default seed (``references.json``), each at the
precision dfsim prints or resolves it.  Values that depend on the run seed
are compared only at the default seed; at any other seed they must satisfy
invariants instead.
"""

from __future__ import annotations

import configparser
import csv
import fnmatch
import hashlib
import json
import os
import platform
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import dfsim
from dfsim import cli, robustness
from dfsim.coupling import coupling_matrices
from dfsim.geometry import linear_array_xi
from dfsim.hilbert import collective_eigenbasis

DEFAULT_SEED = 20260809
REFERENCES = Path(__file__).with_name("references.json")

# Check kinds: (kind, tolerance, seed-dependent).
ABS = ("abs", 1e-4, False)      # fidelities, probabilities, norm losses
REL = ("rel", 1e-4, False)      # times, rates, couplings
PHASE = ("phase", 1e-4, False)  # angles, compared modulo 2*pi
EXACT = ("exact", 0.0, False)
OMEGA = ("abs", 0.01 + 1e-9, False)    # calibration resolution
TOL = ("abs", 0.001 + 1e-9, False)     # tolerance-table resolution
MERIT = ("rel", 0.004, False)          # merit bisection ratio 1.004


def seeded(rule):
    return (rule[0], rule[1], True)


@dataclass
class Op:
    name: str                          # key in references.json
    metric: str | None                 # end-to-end metric its time feeds
    repeat: int                        # executions per pass
    call: Callable[[], object]         # the timed call
    outputs: Callable[[object], dict]  # flat outputs of one call (untimed)
    rules: dict                        # output-key pattern -> check kind
    writes_files: bool = False
    invariants: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]


# --- output parsing -------------------------------------------------------

def _value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _file(paths, suffix: str) -> str:
    return next(p for p in paths if p.endswith(suffix))


def _summary(paths) -> dict:
    out = {}
    with open(_file(paths, "_summary.txt"), encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(" = ")
            out[key] = _value(value)
    return out


def _table_outputs(paths) -> dict:
    out = _summary(paths)
    with open(_file(paths, "_tolerances.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            tol = row["tolerance"]
            threshold = float(row["threshold"])
            out[f"tolerance.{row['axis']}.{threshold:g}"] = (
                float(tol) if tol else None)
    return out


def _merit_outputs(paths) -> dict:
    out = _summary(paths)
    with open(_file(paths, "_merit.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            xi = float(row["xi12"])
            for key in ("e_mu", "t_pi", "fidelity", "gamma_b", "merit"):
                out[f"merit.{xi:g}.{key}"] = float(row[key])
    return out


def _sweep_outputs(res) -> dict:
    return {"mean_fidelity": float(res.mean_fidelity[0]),
            "stderr": float(res.stderr[0]),
            "swap_probability": float(res.swap_probability[0]),
            "base_fidelity": float(res.base_fidelity),
            "base_t_pi": float(res.base_t_pi)}


def digests(paths) -> dict:
    """sha256 of every file a scenario wrote, except the manifest (it
    records the wall time and the output directory)."""
    out = {}
    for path in paths:
        if not path.endswith("_manifest.cfg"):
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


# --- checks ---------------------------------------------------------------

def _rule(rules: dict, key: str):
    for pattern, rule in rules.items():
        if fnmatch.fnmatchcase(key, pattern):
            return rule
    return None


def _close(value, ref, kind: str, tol: float) -> bool:
    if kind == "exact" or not isinstance(ref, (int, float)) \
            or not isinstance(value, (int, float)):
        return value == ref
    if kind == "abs":
        return abs(value - ref) <= tol
    if kind == "rel":
        return abs(value - ref) <= tol * abs(ref)
    if kind == "phase":
        diff = (value - ref + np.pi) % (2.0 * np.pi) - np.pi
        return abs(diff) <= tol
    raise ValueError(f"unknown check kind {kind!r}")


def invariants(out: dict) -> list[str]:
    """Conditions every output must meet at any seed."""
    problems = []
    for key, value in out.items():
        if ("fidelity" in key or "probability" in key) and \
                isinstance(value, (int, float)) and not 0.0 <= value <= 1.0:
            problems.append(f"{key} = {value!r} outside [0, 1]")
    if out.get("nesting_valid", 1) != 1:
        problems.append("tolerance table nesting_valid != 1")
    if "mean_growth" in out:
        dev = abs(out["mean_growth"] - out["expected_growth"])
        if dev > 4.0 * out["stderr_growth"]:
            problems.append(f"mean growth {out['mean_growth']!r} more than "
                            "4 standard errors from 3p-2")
    return problems


def check(op: Op, out: dict, reference: dict, default_seed: bool) -> list[str]:
    """Problems with one op's outputs; an empty list means it passed."""
    problems = invariants(out)
    for extra in op.invariants:
        problems += extra(out)
    for key, ref in reference.items():
        rule = _rule(op.rules, key)
        if rule is None or (rule[2] and not default_seed):
            continue
        if key not in out:
            problems.append(f"{key}: missing")
        elif not _close(out[key], ref, rule[0], rule[1]):
            problems.append(f"{key} = {out[key]!r}, reference {ref!r}")
    return problems


def _merit_fidelity_floor(out: dict) -> list[str]:
    return [f"{k} = {v!r} below the 0.98 target" for k, v in out.items()
            if k.startswith("merit.") and k.endswith(".fidelity") and v < 0.98]


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# --- workload construction -------------------------------------------------

# Bundled configs changed so that one pass of the scenarios workload fits
# the benchmark's time budget; every other key keeps its bundled value.  A
# stronger drive shortens the trajectory the solver integrates without
# changing which code paths run.
SCALED = {
    "rot-fig3a": {"drive": {"e_mu": "12.0", "e_nu": "30.0"}},
    "cphase4": {"drive": {"e_pulse": "4.0"}},
}

# Much smaller inputs for a smoke run that only exercises the harness; its
# outputs do not match the references.
SMOKE = {
    "rot-fig3a": {"drive": {"e_mu": "24.0", "e_nu": "60.0"},
                  "integrator": {"rtol": "1e-5"}},
    "readout": {"run": {"t_end": "0.3"}},
    "cphase4": {"drive": {"e_pulse": "16.0"}, "integrator": {"rtol": "1e-5"}},
    "cluster-growth": {"cluster": {"ops": "1000"}},
    "table1": {"sweep": {"thresholds": "0.9", "variances": "0.005",
                         "samples": "4"}, "integrator": {"rtol": "1e-5"}},
    "merit-fig2b": {"merit": {"xi_values": "0.5"}},
}

# Rotation-disorder op: the table2 rotation base, swept over position
# disorder with one batched two-tone solve per spectral-scale bucket.
DISORDER_VARIANCE = 1e-6
DISORDER_DRAWS = 10

# Preparation-disorder op: the first position-disorder sweep that
# ``simulate run table1`` makes after its tolerance table, with table1's
# variance, draw count and bundled seed.
TABLE1_VARIANCE = 0.005
TABLE1_DRAWS = 100
TABLE1_SEED = DEFAULT_SEED


def _config(name: str, overrides: dict, workdir: Path) -> str:
    """The bundled config itself, or a copy with ``overrides`` applied."""
    if not overrides:
        return name
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(resources.files("dfsim.scenarios")
                       .joinpath(f"{name}.cfg").read_text(encoding="utf-8"))
    for section, values in overrides.items():
        parser[section].update(values)
    path = workdir / f"{name}.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return str(path)


def _warm(geometries) -> None:
    """Build couplings and collective bases once, so that lazily built
    operator tables exist before the first timed op."""
    for g in geometries:
        collective_eigenbasis(coupling_matrices(g))


def _scenario_op(name, metric, repeat, rules, outputs, seed, workdir, smoke,
                 **kwargs) -> Op:
    """``simulate run <name> --seed <seed>``; ``seed=None`` keeps the
    config's own seed."""
    src = _config(name, (SMOKE if smoke else SCALED).get(name), workdir)
    out = str(workdir / "out")
    return Op(name, metric, 1 if smoke else repeat,
              lambda: cli.run(src, out_dir=out, seed=seed), outputs, rules,
              **kwargs)


def scenarios(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    _warm([linear_array_xi(0.5, alpha=0.0),
           linear_array_xi(0.15, alpha=np.pi / 2),
           linear_array_xi(0.15, n=4, alpha=np.pi / 2)])

    def scenario(name, metric, repeat, rules):
        return _scenario_op(name, metric, repeat, rules, _summary, seed,
                            workdir, smoke, writes_files=True)

    return Workload("scenarios", seed, [
        scenario("prep-fig2a", "op1_s", 40, {
            "fidelity": ABS, "t_pi": REL, "merit_*": REL, "gamma_b": REL,
            "omega_mu": REL}),
        scenario("rot-fig3a", "op2_s", 1, {
            "omega_delta_calibrated": OMEGA, "fidelity": ABS, "t_pi": REL,
            "merit_*": REL, "gamma_*": REL}),
        scenario("readout", "op3_s", 5, {
            "emission_probability_*": ABS, "contrast": ABS, "e_cg_abs": REL,
            "gamma_g": REL}),
        scenario("cphase4", "op4_s", 1, {
            "phase_*": PHASE, "controlled_phase": PHASE, "norm_loss_*": ABS,
            "t_gate": REL, "rabi_element": REL, "leakage_flag": EXACT}),
        scenario("cluster-growth", None, 20, {
            "mean_growth": seeded(EXACT), "stderr_growth": seeded(EXACT),
            "final_length": seeded(EXACT), "expected_growth": EXACT}),
    ])


def sweeps(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    scale = 4.0 if smoke else 1.0
    table1 = robustness.ScenarioBase(
        geometry=linear_array_xi(0.5, alpha=0.0), e_mu=1.0,
        protocol="prepare", rtol=1e-8)
    table2 = robustness.ScenarioBase(
        geometry=linear_array_xi(0.15, alpha=np.pi / 2), e_mu=6.0 * scale,
        e_nu=15.0 * scale, omega_delta=170.0, protocol="rotate", rtol=1e-7)
    prep_disorder = robustness.SweepSpec(
        protocol="prepare", axis="position", values=(TABLE1_VARIANCE,),
        samples=4 if smoke else TABLE1_DRAWS, seed=TABLE1_SEED)
    disorder = robustness.SweepSpec(
        protocol="rotate", axis="position", values=(DISORDER_VARIANCE,),
        samples=2 if smoke else DISORDER_DRAWS, seed=seed)
    _warm([table1.geometry, table2.geometry]
          + [linear_array_xi(xi, alpha=0.0)
             for xi in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)])

    return Workload("sweeps", seed, [
        Op("prep-disorder", "op1_s", 1 if smoke else 10,
           lambda: robustness.sweep(prep_disorder, table1),
           _sweep_outputs, {
               "mean_fidelity": ABS, "stderr": ABS, "swap_probability": ABS,
               "base_fidelity": ABS, "base_t_pi": REL}),
        Op("rot-disorder", "op2_s", 1,
           lambda: robustness.sweep(disorder, table2),
           _sweep_outputs, {
               "mean_fidelity": seeded(ABS), "stderr": seeded(ABS),
               "swap_probability": seeded(ABS), "base_fidelity": ABS,
               "base_t_pi": REL}),
        _scenario_op("merit-fig2b", "op3_s", 2, {
            "merit.*.e_mu": MERIT, "merit.*.t_pi": MERIT,
            "merit.*.merit": MERIT, "merit.*.gamma_b": REL,
            "points": EXACT, "monotone_decreasing": EXACT},
            _merit_outputs, seed, workdir, smoke,
            invariants=[_merit_fidelity_floor]),
        # table1 keeps its bundled seed: its disorder draws fall into a
        # seed-dependent number of spectral-scale buckets, one solver call
        # each, and one of its 100-draw sweeps took 0.25 s to 0.90 s
        # across seeds 1-8.
        _scenario_op("table1", "op4_s", 1, {
            "tolerance.*": TOL, "mean_fidelity_v_*": ABS, "stderr_v_*": ABS,
            "swap_probability_v_*": ABS, "nesting_valid": EXACT},
            _table_outputs, None, workdir, smoke),
    ])


WORKLOADS = {"scenarios": scenarios, "sweeps": sweeps}


def environment() -> dict:
    """What the numbers were measured on."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = Path(dfsim.__file__).parent
    tree = hashlib.sha256()
    for path in sorted(src.rglob("*.py")) + sorted(src.rglob("*.cfg")):
        tree.update(path.relative_to(src).as_posix().encode())
        tree.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dfsim": dfsim.__version__,
        "dfsim_source_sha256": tree.hexdigest(),
    }
