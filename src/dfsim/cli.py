"""Scenario runner: load a config, dispatch the protocol or sweep it
describes, and write CSV outputs plus a rerunnable manifest.

Configs are flat INI-style key-value sections; rates are in units of the
single-emitter decay rate and lengths in wavelength units.  A key the
scenario type does not read is rejected.  Re-running a scenario with the same config and seed yields
byte-identical CSV output, and the manifest written next to the results is
itself a valid config reproducing the run.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import itertools
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .cluster import expected_growth, grow_chain
from .coupling import coupling_matrices
from .dynamics import DEFAULT_RTOL
from .geometry import linear_array_xi
from .protocols import (ProtocolError, calibrate_detuning, cphase4,
                        prepare_b, readout_coupling, readout_fluorescence,
                        rotate_logical)
from .robustness import (ScenarioBase, SweepSpec, prepare_merit_point,
                         rotate_merit_point, tolerance_table)

SCENARIOS = (
    "prep-fig2a",
    "merit-fig2b",
    "rot-fig3a",
    "merit-fig3b",
    "table1",
    "table2",
    "readout",
    "cphase4",
    "cluster-growth",
)

ENV_OUTDIR = "DFSIM_OUT"

# Scenario type -> the "section.key" entries its handler reads (_ARRAY:
# the array geometry and the drive's propagation phase).  Every type also
# takes the keys the manifest records for every run (_COMMON); any other
# key is rejected.
_COMMON = "scenario.name scenario.type integrator.rtol run.seed run.out"
_ARRAY = ("geometry.xi12 geometry.r_nm geometry.lambda0_nm geometry.alpha "
          "geometry.n drive.k_dot_r")
_MERIT = "geometry.alpha geometry.n merit.xi_values merit.f_target"
_TABLE = "sweep.thresholds sweep.variances sweep.samples"
_RAMAN = "drive.e_mu drive.e_nu drive.omega_delta"
_READS = {
    "prepare": f"{_ARRAY} drive.e_mu run.t_end",
    "rotate": f"{_ARRAY} {_RAMAN} drive.calibrate run.t_end",
    "readout": f"{_ARRAY} drive.e_mu drive.transition run.t_end",
    "cphase4": f"{_ARRAY} drive.e_pulse drive.detuning_offset "
               "drive.coherent run.t_end",
    "merit-prepare": _MERIT,
    "merit-rotate": f"{_MERIT} {_RAMAN}",
    "table-prepare": f"{_ARRAY} drive.e_mu {_TABLE}",
    "table-rotate": f"{_ARRAY} {_RAMAN} {_TABLE}",
    "cluster-growth": "cluster.p cluster.ops",
}

# Every number read from a config must be finite.  Some keys also have a
# range that the library never sees or checks only once a solve is under
# way (a negative amplitude reaches `Tone`'s check inside a protocol call).
# (section, key) -> (accepts value, what it must be)
_FINITE = (np.isfinite, "finite")
_POSITIVE = (lambda v: 0 < v < np.inf, "finite and positive")
_AMPLITUDE = (lambda v: 0 <= v < np.inf, "finite and nonnegative")
_FRACTION = (lambda v: 0 < v < 1, "inside (0, 1)")
_RANGES = {("geometry", "r_nm"): _POSITIVE, ("run", "t_end"): _POSITIVE,
           ("geometry", "lambda0_nm"): _POSITIVE,
           ("integrator", "rtol"): _POSITIVE,
           ("merit", "xi_values"): _POSITIVE, ("merit", "f_target"): _FRACTION,
           ("sweep", "thresholds"): _FRACTION, ("drive", "e_mu"): _AMPLITUDE,
           ("drive", "e_nu"): _AMPLITUDE, ("drive", "e_pulse"): _AMPLITUDE}


class ConfigError(ValueError):
    pass


def list_scenarios() -> list[str]:
    """Names of the bundled reference configs, in stable order."""
    return list(SCENARIOS)


def _load_config(source: str) -> tuple[configparser.ConfigParser, str]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if source in SCENARIOS:
        text = resources.files("dfsim.scenarios").joinpath(f"{source}.cfg") \
            .read_text(encoding="utf-8")
        origin = f"bundled:{source}"
    elif os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
        origin = source
    else:
        raise ConfigError(f"no such config file or bundled scenario: {source}")
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return parser, origin


def _require(cfg, section: str, key: str) -> str:
    try:
        return cfg[section][key]
    except KeyError as exc:
        raise ConfigError(f"missing required key '{key}' in [{section}]") from exc


def _get_float(cfg, section, key, default=None):
    if default is not None and not cfg.has_option(section, key):
        return default
    raw = _require(cfg, section, key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    return _in_range(section, key, value)


def _get_floats(cfg, section, key, default=None) -> tuple[float, ...]:
    """Comma-separated list of distinct finite numbers; empty items are
    skipped.  Only a list whose default is empty may be empty."""
    raw = (_require(cfg, section, key) if default is None
           else cfg.get(section, key, fallback=default))
    try:
        values = tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a list of "
                          "numbers") from exc
    if not (values or default == ""):
        raise ConfigError(f"[{section}] {key} = {raw!r} lists no numbers")
    if len(set(values)) < len(values):
        raise ConfigError(f"[{section}] {key} = {raw!r} repeats a value")
    return tuple(_in_range(section, key, v) for v in values)


def _in_range(section, key, value: float) -> float:
    accepts, expected = _RANGES.get((section, key), _FINITE)
    if not accepts(value):
        raise ConfigError(f"[{section}] {key} = {value:g} must be {expected}")
    return value


def _checked(section: str, build, *args, **kwargs):
    """Call a library function that checks config values before it does
    any work; the ValueError it raises for a bad value is a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _get_int(cfg, section, key, default=None):
    if default is not None and not cfg.has_option(section, key):
        return default
    raw = _require(cfg, section, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _get_bool(cfg, section, key, default=False):
    raw = cfg.get(section, key, fallback=None)
    if raw is None:
        return default
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")


def _geometry(cfg):
    n = _get_int(cfg, "geometry", "n", 3)
    alpha = _get_float(cfg, "geometry", "alpha")
    if cfg.has_option("geometry", "xi12"):
        if cfg.has_option("geometry", "r_nm") or cfg.has_option(
                "geometry", "lambda0_nm"):
            raise ConfigError("[geometry] takes xi12 or r_nm and lambda0_nm, "
                              "not both")
        xi12 = _get_float(cfg, "geometry", "xi12")
    else:
        r_nm = _get_float(cfg, "geometry", "r_nm")
        lam = _get_float(cfg, "geometry", "lambda0_nm")
        xi12 = 2.0 * np.pi * r_nm / lam
    return _checked("geometry", linear_array_xi, xi12, n=n, alpha=alpha)


def _k_dot_r(cfg, geometry):
    if cfg.get("drive", "k_dot_r", fallback="auto") == "auto":
        return geometry.xi12
    return _get_float(cfg, "drive", "k_dot_r")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _column(values) -> tuple[str, list]:
    """Row-template field and cells of one CSV column: a float64 array is
    written with '%.17g' and an integer array with '%d', the same text
    `_fmt` gives; any other column goes through `_fmt` value by value."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return "%.17g", values.tolist()
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return "%d", values.tolist()
    return "%s", [_fmt(v) for v in values]


class _Output:
    """Deferred file writes: nothing touches disk until the run succeeded."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.files: dict[str, str] = {}
        self.summary: list[tuple[str, object]] = []

    def add_csv(self, suffix: str, header: list[str], columns) -> None:
        """CSV from equal-length columns, all rows by one '%' over a
        repeated row template (see `_column`)."""
        fields, cells = zip(*map(_column, columns))
        body = (",".join(fields) + "\n") * len(cells[0])
        self.files[f"{self.prefix}_{suffix}.csv"] = ",".join(header) + "\n" \
            + body % tuple(itertools.chain.from_iterable(zip(*cells)))

    def add_text(self, suffix: str, text: str) -> None:
        self.files[f"{self.prefix}_{suffix}.txt"] = text

    def add(self, key: str, value) -> None:
        self.summary.append((key, value))

    def finalize(self, out_dir: str, cfg, wall: float) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        lines = [f"{k} = {_fmt(v)}" for k, v in self.summary]
        self.files[f"{self.prefix}_summary.txt"] = "\n".join(lines) + "\n"
        manifest = io.StringIO()
        manifest.write("# run manifest (valid config; rerun with "
                       "'simulate run <this file>')\n")
        manifest.write(f"# version = {__version__}\n")
        manifest.write(f"# wall_time_s = {wall:.3f}\n")
        cfg_copy = configparser.ConfigParser()
        cfg_copy.read_dict({s: dict(cfg[s]) for s in cfg.sections()})
        cfg_copy.write(manifest)
        self.files[f"{self.prefix}_manifest.cfg"] = manifest.getvalue()
        written = []
        for name, content in sorted(self.files.items()):
            path = os.path.join(out_dir, name)
            with open(path, "w", newline="\n") as fh:
                fh.write(content)
            written.append(path)
        return written


def _add_transfer(out: _Output, res, keys, merit_key: str) -> None:
    """Trajectory CSV and summary lines of a preparation or rotation run."""
    traj = res.trajectory
    out.add_csv("trajectory",
                ["time"] + [f"pop_{lab}" for lab in traj.labels] + ["norm"],
                [traj.times, *traj.populations.T, traj.norms])
    for key in keys:
        out.add(key, res.params_used[key])
    out.add("fidelity", res.fidelity)
    out.add("t_pi", res.t_pi)
    out.add(merit_key, res.merit)


def _run_prepare(cfg, out: _Output, rtol, t_end, seed):
    g = _geometry(cfg)
    e_mu = _get_float(cfg, "drive", "e_mu")
    kdr = _k_dot_r(cfg, g)
    res = prepare_b(g, e_mu, t_end, k_dot_r=kdr)
    _add_transfer(out, res, ("e_mu", "omega_mu", "k_dot_r", "gamma_b"),
                  "merit_inversions_per_lifetime")


def _run_rotate(cfg, out: _Output, rtol, t_end, seed):
    out.add("rtol", rtol)
    g = _geometry(cfg)
    e_mu = _get_float(cfg, "drive", "e_mu")
    e_nu = _get_float(cfg, "drive", "e_nu")
    wd = _get_float(cfg, "drive", "omega_delta")
    kdr = _k_dot_r(cfg, g)
    if _get_bool(cfg, "drive", "calibrate", default=False):
        wd_cal = calibrate_detuning(g, e_mu, e_nu, wd, k_dot_r=kdr)
        out.add("omega_delta_nominal", wd)
        out.add("omega_delta_calibrated", wd_cal)
        wd = wd_cal
    res = rotate_logical(g, e_mu, e_nu, wd, t_end, k_dot_r=kdr, rtol=rtol)
    _add_transfer(out, res, ("e_mu", "e_nu", "omega_delta", "k_dot_r",
                             "gamma_b", "gamma_c"),
                  "merit_rotations_per_lifetime")


def _run_readout(cfg, out: _Output, rtol, t_end, seed):
    g = _geometry(cfg)
    e_mu = _get_float(cfg, "drive", "e_mu")
    kdr = _k_dot_r(cfg, g)
    transition = cfg.get("drive", "transition", fallback="cg")
    t_end = 5.0 if t_end is None else t_end
    results = {}
    for logical in (1, 0):
        res = readout_fluorescence(g, e_mu, logical, t_end, k_dot_r=kdr,
                                   transition=transition)
        results[logical] = res
        traj = res.trajectory
        out.add_csv(f"trajectory_logical{logical}",
                    ["time", "no_emission_probability"],
                    # pow() per value: norms**2 can differ in the last bit.
                    [traj.times, [w**2 for w in traj.norms.tolist()]])
        out.add(f"emission_probability_logical{logical}",
                res.emission_probability)
    out.add("contrast", results[1].emission_probability
            - results[0].emission_probability)
    coupling = coupling_matrices(g)
    e_cg, gamma_g = readout_coupling(coupling, e_mu, kdr)
    out.add("e_cg_abs", abs(e_cg))
    out.add("gamma_g", gamma_g)


def _run_cphase(cfg, out: _Output, rtol, t_end, seed):
    g = _geometry(cfg)
    if g.n != 4:
        raise ConfigError("cphase4 needs [geometry] n = 4")
    e_pulse = _get_float(cfg, "drive", "e_pulse")
    offset = _get_float(cfg, "drive", "detuning_offset")
    kdr = _k_dot_r(cfg, g)
    coherent = _get_bool(cfg, "drive", "coherent", default=False)
    res = cphase4(g, e_pulse, offset, t_end, k_dot_r=kdr,
                  decay=not coherent)
    for lab in "cbgf":
        out.add(f"phase_{lab}", res.phases[lab])
        out.add(f"norm_loss_{lab}", res.norm_loss[lab])
    out.add("controlled_phase", res.controlled_phase)
    out.add("t_gate", res.t_gate)
    out.add("rabi_element", res.rabi_element)
    out.add("leakage_flag", int(res.leakage_flag))


def _merit_grid(cfg, alpha: float) -> tuple:
    """Array angle (default ``alpha``), spacings and target fidelity of a
    merit search, which runs on three-emitter chains."""
    if _get_int(cfg, "geometry", "n", 3) != 3:
        raise ConfigError("merit searches need [geometry] n = 3")
    return (_get_float(cfg, "geometry", "alpha", alpha),
            _get_floats(cfg, "merit", "xi_values"),
            _get_float(cfg, "merit", "f_target", 0.98))


def _run_merit_prepare(cfg, out: _Output, rtol, t_end, seed):
    alpha, xi_values, f_target = _merit_grid(cfg, 0.0)
    keys = ("e_mu", "t_pi", "fidelity", "gamma_b", "merit")
    points = [prepare_merit_point(xi, alpha, f_target) for xi in xi_values]
    out.add_csv("merit", ["xi12", *keys],
                [xi_values, *([p[k] for p in points] for k in keys)])
    merit = [p["merit"] for p in points]
    out.add("points", len(points))
    out.add("monotone_decreasing",
            int(all(a > b for a, b in zip(merit, merit[1:]))))


def _run_merit_rotate(cfg, out: _Output, rtol, t_end, seed):
    out.add("rtol", rtol)
    alpha, xi_values, f_target = _merit_grid(cfg, np.pi / 2)
    e_mu = _get_float(cfg, "drive", "e_mu", 6.0)
    e_nu = _get_float(cfg, "drive", "e_nu", 15.0)
    wd = _get_float(cfg, "drive", "omega_delta", 170.0)
    points = [rotate_merit_point(xi, alpha, f_target, e_mu, e_nu, wd,
                                 rtol=rtol) for xi in xi_values]
    saturated = [int(p["saturated"]) for p in points]
    out.add_csv("merit", ["xi12", "amplitude_scale", "t_pi", "fidelity",
                          "gamma_mean", "merit", "saturated"],
                [xi_values, *([p[k] for p in points] for k in
                              ("scale", "t_pi", "fidelity", "gamma_mean",
                               "merit")), saturated])
    merit = [p["merit"] for p in points]
    out.add("points", len(points))
    out.add("unsaturated_points", len(points) - sum(saturated))
    out.add("monotone_decreasing",
            int(all(a > b for a, b in zip(merit, merit[1:]))))



def _sweep_base(cfg, protocol: str, rtol) -> ScenarioBase:
    g = _geometry(cfg)
    kdr = _k_dot_r(cfg, g)
    e_mu = _get_float(cfg, "drive", "e_mu")
    two_tone = {} if protocol == "prepare" else {
        "e_nu": _get_float(cfg, "drive", "e_nu"),
        "omega_delta": _get_float(cfg, "drive", "omega_delta")}
    return ScenarioBase(geometry=g, e_mu=e_mu, k_dot_r=kdr, protocol=protocol,
                        rtol=rtol, **two_tone)


def _run_table(protocol: str, cfg, out: _Output, rtol, t_end, seed):
    out.add("rtol", rtol)
    base = _sweep_base(cfg, protocol, rtol)
    thresholds = _get_floats(cfg, "sweep", "thresholds", "0.9,0.95,0.98")
    variances = _get_floats(cfg, "sweep", "variances", "")
    samples = _get_int(cfg, "sweep", "samples", 100)
    if variances:
        _checked("sweep", SweepSpec, protocol, "position", variances,
                 samples, seed)
    table = tolerance_table(base, thresholds=thresholds,
                            position_variances=variances,
                            samples=samples, seed=seed)
    out.add_text("table", table.to_text() + "\n")
    cells = [(row.axis, t, row.tolerances.get(t)) for row in table.rows
             for t in thresholds]
    out.add_csv("tolerances", ["axis", "threshold", "tolerance"],
                [[c[0] for c in cells], [c[1] for c in cells],
                 ["" if c[2] is None else c[2] for c in cells]])
    disorder = table.position
    for k, v in enumerate(variances):
        out.add(f"mean_fidelity_v_{v:g}", float(disorder.mean_fidelity[k]))
        out.add(f"stderr_v_{v:g}", float(disorder.stderr[k]))
        out.add(f"swap_probability_v_{v:g}",
                float(disorder.swap_probability[k]))
    out.add("nesting_valid", int(table.validate_nesting()))


def _run_cluster(cfg, out: _Output, rtol, t_end, seed):
    p = _get_float(cfg, "cluster", "p")
    ops = _get_int(cfg, "cluster", "ops")
    run = _checked("cluster", grow_chain, p, ops, seed=seed)
    out.add_csv("growth", ["op", "length", "increment"],
                [np.arange(1, run.ops + 1), run.lengths, run.increments])
    out.add("p_success", p)
    out.add("ops", ops)
    out.add("mean_growth", run.mean_growth)
    out.add("stderr_growth", run.stderr_growth)
    out.add("expected_growth", expected_growth(p))
    out.add("final_length", int(run.lengths[-1]))


# Scenario type -> handler(cfg, out, rtol, t_end, seed).  The handlers
# whose solves the tolerance governs (two tones, one-tone batches) record
# it in the summary; the others propagate exactly and ignore it.
_HANDLERS = {
    "prepare": _run_prepare,
    "rotate": _run_rotate,
    "readout": _run_readout,
    "cphase4": _run_cphase,
    "merit-prepare": _run_merit_prepare,
    "merit-rotate": _run_merit_rotate,
    "table-prepare": functools.partial(_run_table, "prepare"),
    "table-rotate": functools.partial(_run_table, "rotate"),
    "cluster-growth": _run_cluster,
}


def run(config_source: str, out_dir: str | None = None,
        seed: int | None = None, rtol: float | None = None) -> list[str]:
    """Execute one scenario config and write its outputs.

    Returns the list of files written.  Raises ConfigError for malformed
    configs before any output is produced.
    """
    cfg, _ = _load_config(config_source)
    name = _require(cfg, "scenario", "name")
    kind = _require(cfg, "scenario", "type")
    if kind not in _HANDLERS:
        raise ConfigError(f"unknown scenario type {kind!r}")
    reads = f"{_COMMON} {_READS[kind]}".split()
    for section in cfg.sections():
        for key in cfg[section]:
            if f"{section}.{key}" not in reads:
                raise ConfigError(f"[{section}] {key} is not read by "
                                  f"scenario type {kind!r}")
    run_seed = seed if seed is not None else _get_int(cfg, "run", "seed", 0)
    if run_seed < 0:
        raise ConfigError(f"[run] seed = {run_seed} must be nonnegative")
    run_rtol = (_in_range("integrator", "rtol", rtol) if rtol is not None
                else _get_float(cfg, "integrator", "rtol", DEFAULT_RTOL))
    t_end = (None if cfg.get("run", "t_end", fallback="auto") == "auto"
             else _get_float(cfg, "run", "t_end"))
    resolved_out = (out_dir or cfg.get("run", "out", fallback=None)
                    or os.environ.get(ENV_OUTDIR) or "out")
    cfg["run"] = {**(dict(cfg["run"]) if cfg.has_section("run") else {}),
                  "seed": str(run_seed), "out": resolved_out}
    if not cfg.has_section("integrator"):
        cfg.add_section("integrator")
    cfg["integrator"]["rtol"] = _fmt(run_rtol)

    out = _Output(prefix=name)
    out.add("scenario", name)
    out.add("type", kind)
    out.add("seed", run_seed)
    start = time.perf_counter()
    _HANDLERS[kind](cfg, out, run_rtol, t_end, run_seed)
    wall = time.perf_counter() - start
    return out.finalize(resolved_out, cfg, wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run dipole-coupled emitter-array scenarios and write "
                    "CSV results.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config (path or "
                                       "bundled name)")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory "
                       f"(default: config, then ${ENV_OUTDIR}, then ./out)")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--tol", type=float, default=None,
                       help="integrator relative tolerance of two-tone and "
                            "batched one-tone solves")
    sub.add_parser("list", help="list bundled scenario configs")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in list_scenarios():
            print(name)
        return 0
    try:
        written = run(args.config, out_dir=args.out, seed=args.seed,
                      rtol=args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
