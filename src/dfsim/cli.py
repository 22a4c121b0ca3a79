"""Scenario runner: load a config, dispatch the protocol or sweep it
describes, and write CSV outputs plus a rerunnable manifest.

Configs are flat INI-style key-value sections; rates are in units of the
single-emitter decay rate and lengths in wavelength units.  Each scenario
type has one schema naming every key it takes, with the key's parser,
range and default; a key outside it is rejected, and every key is parsed
before any solve.  Re-running a scenario with the same config and seed
yields byte-identical CSV output, and the manifest written next to the
results is itself a valid config reproducing the run.
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
from .robustness import (ScenarioBase, prepare_merit_point,
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


class ConfigError(ValueError):
    pass


def list_scenarios() -> list[str]:
    """Names of the bundled reference configs, in stable order."""
    return list(SCENARIOS)


def _load_config(source: str) -> tuple[configparser.ConfigParser, str]:
    # Values are read and written verbatim: a '%' is just a character.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    if source in SCENARIOS:
        text = resources.files("dfsim.scenarios").joinpath(f"{source}.cfg") \
            .read_text(encoding="utf-8")
        origin = f"bundled:{source}"
    elif os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {source}: "
                              f"{exc}") from exc
        origin = source
    else:
        raise ConfigError(f"no such config file or bundled scenario: {source}")
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return parser, origin


# Parsers of config values.  Each takes the raw text and returns the value
# or raises ValueError saying what the value must be; the range checks
# include those the library makes only once a solve is under way (a
# negative amplitude reaches `Tone`'s check inside a protocol call).
def _value(kind, accepts, expected: str):
    """Parser of one value: `kind` converts the text, raising ValueError
    if it cannot, and `accepts` checks the converted value."""
    def parse(raw: str):
        try:
            value = kind(raw)
            if accepts(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"must be {expected}")
    return parse


def _values(item, may_be_empty: bool = False):
    """Parser of a comma-separated list of distinct values, each parsed by
    `item`; empty items are skipped."""
    def parse(raw: str) -> tuple:
        try:
            values = tuple(item(x) for x in raw.split(",") if x.strip())
        except ValueError as exc:
            raise ValueError(f"lists a value that {exc}") from exc
        if not (values or may_be_empty):
            raise ValueError("lists no numbers")
        if len(set(values)) < len(values):
            raise ValueError("repeats a value")
        return values
    return parse


def _auto(parse):
    """``auto`` (the library's own choice, passed on as None) or a value."""
    return lambda raw: None if raw == "auto" else parse(raw)


def _size(n: int):
    """Array size `n`, the only one the scenario type runs on."""
    return _value(int, lambda v: v == n, str(n))


_BOOLS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}
_BOOL = _value(lambda raw: _BOOLS.get(raw.lower()), lambda v: v is not None,
               "true or false")
_FINITE = _value(float, np.isfinite, "a finite number")
_NONZERO = _value(float, lambda v: v != 0 and np.isfinite(v),
                  "a finite nonzero number")
_POSITIVE = _value(float, lambda v: 0 < v < np.inf,
                   "a finite positive number")
_AMPLITUDE = _value(float, lambda v: 0 <= v < np.inf,
                    "a finite nonnegative number")
_FRACTION = _value(float, lambda v: 0 < v < 1, "a number inside (0, 1)")
_COUNT = _value(int, lambda v: v >= 1, "an integer of at least 1")
# A scenario name prefixes the output file names, inside the output directory.
_STEM = _value(str, lambda v: v not in ("", ".", "..")
               and os.path.basename(v) == v, "a plain file-name stem")

# Schema fragments: "section.key" -> (parser, default).  A default of
# _REQUIRED makes the key required; None stands for a key left out.
_REQUIRED = object()
_COMMON = {"scenario.name": (_STEM, _REQUIRED),
           "scenario.type": (str, _REQUIRED),
           "integrator.rtol": (_POSITIVE, DEFAULT_RTOL),
           "run.seed": (_value(int, lambda v: v >= 0,
                               "a nonnegative integer"), 0),
           "run.out": (str, None)}
# The array geometry (xi12, or r_nm and lambda0_nm) and the drive's
# propagation phase.
_ARRAY = {"geometry.xi12": (_POSITIVE, None),
          "geometry.r_nm": (_POSITIVE, None),
          "geometry.lambda0_nm": (_POSITIVE, None),
          "geometry.alpha": (_FINITE, _REQUIRED),
          "geometry.n": (_size(3), 3),
          "drive.k_dot_r": (_auto(_FINITE), None)}
_E_MU = {"drive.e_mu": (_AMPLITUDE, _REQUIRED)}
_T_END = {"run.t_end": (_auto(_POSITIVE), None)}
_TABLE = {"sweep.thresholds": (_values(_FRACTION), (0.9, 0.95, 0.98)),
          "sweep.variances": (_values(_AMPLITUDE, may_be_empty=True), ()),
          "sweep.samples": (_COUNT, 100)}


def _raman(e_mu=_REQUIRED, e_nu=_REQUIRED, omega_delta=_REQUIRED) -> dict:
    """The two tones of a Raman (two-tone) drive."""
    return {"drive.e_mu": (_AMPLITUDE, e_mu),
            "drive.e_nu": (_AMPLITUDE, e_nu),
            "drive.omega_delta": (_NONZERO, omega_delta)}


def _merit(alpha: float) -> dict:
    """A merit search over three-emitter chains at angle `alpha` unless
    the config gives one."""
    return {"geometry.alpha": (_FINITE, alpha), "geometry.n": (_size(3), 3),
            "merit.xi_values": (_values(_POSITIVE), _REQUIRED),
            "merit.f_target": (_FRACTION, 0.98)}


def _parse(cfg, kind: str, schema: dict) -> dict:
    """Every key of `schema`, parsed and range-checked, by "section.key";
    a config key outside the schema is a config error."""
    for section in cfg.sections():
        for key in cfg[section]:
            if f"{section}.{key}" not in schema:
                raise ConfigError(f"[{section}] {key} is not read by "
                                  f"scenario type {kind!r}")
    values = {}
    for name, (parse, default) in schema.items():
        section, key = name.split(".")
        raw = cfg.get(section, key, fallback=None)
        if raw is None and default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in [{section}]")
        try:
            values[name] = default if raw is None else parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} {exc}") from exc
    return values


def _geometry(values):
    xi12 = values["geometry.xi12"]
    r_nm, lam = values["geometry.r_nm"], values["geometry.lambda0_nm"]
    if xi12 is not None and (r_nm is not None or lam is not None):
        raise ConfigError("[geometry] takes xi12 or r_nm and lambda0_nm, "
                          "not both")
    if xi12 is None:
        if r_nm is None or lam is None:
            raise ConfigError("[geometry] needs xi12, or r_nm and lambda0_nm")
        xi12 = 2.0 * np.pi * r_nm / lam
    try:
        return linear_array_xi(xi12, n=values["geometry.n"],
                               alpha=values["geometry.alpha"])
    except ValueError as exc:
        raise ConfigError(f"[geometry] {exc}") from exc


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
        cfg_copy = configparser.ConfigParser(interpolation=None)
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


def _run_prepare(values, out: _Output):
    res = prepare_b(_geometry(values), values["drive.e_mu"],
                    values["run.t_end"], k_dot_r=values["drive.k_dot_r"])
    _add_transfer(out, res, ("e_mu", "omega_mu", "k_dot_r", "gamma_b"),
                  "merit_inversions_per_lifetime")


def _run_rotate(values, out: _Output):
    g, kdr = _geometry(values), values["drive.k_dot_r"]
    e_mu, e_nu = values["drive.e_mu"], values["drive.e_nu"]
    wd = values["drive.omega_delta"]
    if values["drive.calibrate"]:
        wd_cal = calibrate_detuning(g, e_mu, e_nu, wd, k_dot_r=kdr)
        out.add("omega_delta_nominal", wd)
        out.add("omega_delta_calibrated", wd_cal)
        wd = wd_cal
    res = rotate_logical(g, e_mu, e_nu, wd, values["run.t_end"], k_dot_r=kdr)
    _add_transfer(out, res, ("e_mu", "e_nu", "omega_delta", "k_dot_r",
                             "gamma_b", "gamma_c"),
                  "merit_rotations_per_lifetime")


def _run_readout(values, out: _Output):
    g, e_mu = _geometry(values), values["drive.e_mu"]
    t_end = 5.0 if values["run.t_end"] is None else values["run.t_end"]
    results = {}
    for logical in (1, 0):
        res = readout_fluorescence(g, e_mu, logical, t_end,
                                   k_dot_r=values["drive.k_dot_r"],
                                   transition=values["drive.transition"])
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
    e_cg, gamma_g = readout_coupling(coupling_matrices(g), e_mu,
                                     res.params_used["k_dot_r"])
    out.add("e_cg_abs", abs(e_cg))
    out.add("gamma_g", gamma_g)


def _run_cphase(values, out: _Output):
    res = cphase4(_geometry(values), values["drive.e_pulse"],
                  values["drive.detuning_offset"], values["run.t_end"],
                  k_dot_r=values["drive.k_dot_r"],
                  decay=not values["drive.coherent"])
    for lab in "cbgf":
        out.add(f"phase_{lab}", res.phases[lab])
        out.add(f"norm_loss_{lab}", res.norm_loss[lab])
    out.add("controlled_phase", res.controlled_phase)
    out.add("t_gate", res.t_gate)
    out.add("rabi_element", res.rabi_element)
    out.add("leakage_flag", int(res.leakage_flag))


def _run_merit_prepare(values, out: _Output):
    xi_values = values["merit.xi_values"]
    keys = ("e_mu", "t_pi", "fidelity", "gamma_b", "merit")
    points = [prepare_merit_point(xi, values["geometry.alpha"],
                                  values["merit.f_target"])
              for xi in xi_values]
    out.add_csv("merit", ["xi12", *keys],
                [xi_values, *([p[k] for p in points] for k in keys)])
    merit = [p["merit"] for p in points]
    out.add("points", len(points))
    out.add("monotone_decreasing",
            int(all(a > b for a, b in zip(merit, merit[1:]))))


def _run_merit_rotate(values, out: _Output):
    xi_values = values["merit.xi_values"]
    points = [rotate_merit_point(xi, values["geometry.alpha"],
                                 values["merit.f_target"],
                                 values["drive.e_mu"], values["drive.e_nu"],
                                 values["drive.omega_delta"])
              for xi in xi_values]
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


def _run_table(protocol: str, values, out: _Output):
    if protocol == "prepare":
        out.add("rtol", values["integrator.rtol"])
    two_tone = {} if protocol == "prepare" else {
        "e_nu": values["drive.e_nu"],
        "omega_delta": values["drive.omega_delta"]}
    base = ScenarioBase(geometry=_geometry(values), e_mu=values["drive.e_mu"],
                        k_dot_r=values["drive.k_dot_r"], protocol=protocol,
                        rtol=values["integrator.rtol"], **two_tone)
    thresholds = values["sweep.thresholds"]
    variances = values["sweep.variances"]
    table = tolerance_table(base, thresholds=thresholds,
                            position_variances=variances,
                            samples=values["sweep.samples"],
                            seed=values["run.seed"])
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


def _run_cluster(values, out: _Output):
    p, ops = values["cluster.p"], values["cluster.ops"]
    run = grow_chain(p, ops, seed=values["run.seed"])
    out.add_csv("growth", ["op", "length", "increment"],
                [np.arange(1, run.ops + 1), run.lengths, run.increments])
    out.add("p_success", p)
    out.add("ops", ops)
    out.add("mean_growth", run.mean_growth)
    out.add("stderr_growth", run.stderr_growth)
    out.add("expected_growth", expected_growth(p))
    out.add("final_length", int(run.lengths[-1]))


# Scenario type -> (handler(values, out), schema of the keys it takes
# besides _COMMON).  The tolerance governs only one-tone batches, so only
# table-prepare records it in the summary; the others propagate exactly
# and ignore it.
_TYPES = {
    "prepare": (_run_prepare, {**_ARRAY, **_E_MU, **_T_END}),
    "rotate": (_run_rotate, {**_ARRAY, **_raman(), **_T_END,
                             "drive.calibrate": (_BOOL, False)}),
    "readout": (_run_readout, {
        **_ARRAY, **_E_MU, **_T_END,
        "drive.transition": (_value(str, lambda v: v in ("cg", "bg"),
                                    "cg or bg"), "cg")}),
    "cphase4": (_run_cphase, {
        **_ARRAY, **_T_END, "geometry.n": (_size(4), _REQUIRED),
        "drive.e_pulse": (_AMPLITUDE, _REQUIRED),
        "drive.detuning_offset": (_FINITE, _REQUIRED),
        "drive.coherent": (_BOOL, False)}),
    "merit-prepare": (_run_merit_prepare, _merit(0.0)),
    "merit-rotate": (_run_merit_rotate,
                     {**_merit(np.pi / 2), **_raman(6.0, 15.0, 170.0)}),
    "table-prepare": (functools.partial(_run_table, "prepare"),
                      {**_ARRAY, **_E_MU, **_TABLE}),
    "table-rotate": (functools.partial(_run_table, "rotate"),
                     {**_ARRAY, **_raman(), **_TABLE}),
    "cluster-growth": (_run_cluster, {
        "cluster.p": (_value(float, lambda v: 0 <= v <= 1,
                             "a number inside [0, 1]"), _REQUIRED),
        "cluster.ops": (_COUNT, _REQUIRED)}),
}


def _configure(config_source: str, out_dir: str | None = None,
               seed: int | None = None, rtol: float | None = None):
    """Load a config, apply the flags and parse every key of its type.

    Returns the config, completed with the seed, output directory and
    tolerance the run uses (the manifest), and the parsed values.
    """
    cfg, _ = _load_config(config_source)
    # The flags go through the same parsers as the config's own values.
    cfg.read_dict({"run": {} if seed is None else {"seed": str(seed)},
                   "integrator": {} if rtol is None else {"rtol": _fmt(rtol)}})
    kind = cfg.get("scenario", "type", fallback=None)
    if kind not in _TYPES:
        raise ConfigError("missing required key 'type' in [scenario]"
                          if kind is None else
                          f"unknown scenario type {kind!r}")
    values = _parse(cfg, kind, {**_COMMON, **_TYPES[kind][1]})
    values["run.out"] = (out_dir or values["run.out"]
                         or os.environ.get(ENV_OUTDIR) or "out")
    cfg.read_dict({"run": {"seed": str(values["run.seed"]),
                           "out": values["run.out"]},
                   "integrator": {"rtol": _fmt(values["integrator.rtol"])}})
    return cfg, values


def run(config_source: str, out_dir: str | None = None,
        seed: int | None = None, rtol: float | None = None) -> list[str]:
    """Execute one scenario config and write its outputs.

    Returns the list of files written.  Raises ConfigError for malformed
    configs before any output is produced.
    """
    cfg, values = _configure(config_source, out_dir, seed, rtol)
    kind = values["scenario.type"]
    name = values["scenario.name"]
    out = _Output(prefix=name)
    out.add("scenario", name)
    out.add("type", kind)
    out.add("seed", values["run.seed"])
    start = time.perf_counter()
    _TYPES[kind][0](values, out)
    wall = time.perf_counter() - start
    return out.finalize(values["run.out"], cfg, wall)


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
                       help="integrator relative tolerance of batched "
                            "one-tone solves")
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
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
