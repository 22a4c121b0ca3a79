"""Robustness sweeps: deterministic grids over drive amplitude and detuning
errors, Monte Carlo over position disorder, and tolerance tables.

A sweep perturbs one control axis of a base protocol, re-evolves to the
unperturbed inversion time, and records the fidelity there.  Control-field
frequencies never track position errors.  Sample evaluations are
independent; position draws use a per-sample split of the seed stream.
The draws, their couplings and their batch members are each built as one
stack, one row per draw, and the draws share solver calls: every draw
whose coupling scale is below twice the nominal one joins one solve, and
each octave above that gets its own, so that under one tone a strongly
coupled draw's short integrator steps do not slow the others.  Every
variance of a sweep draws from the sweep's seed, so a variance's draws
depend only on (seed, variance) and variances share common random numbers.
Amplitude and detuning tolerances share one search: a batched doubling
ladder brackets every crossing, then all brackets bisect in lockstep.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .coupling import _coupling_stack, coupling_matrices, spectral_params
from .geometry import (DisorderSpec, Geometry, _disorder_positions,
                       linear_array_xi)
from .protocols import (ProtocolError, _batched_fidelities, _calibrate,
                        _Transfer, prepare_b, rotate_logical,
                        rotation_rate_estimate)

log = logging.getLogger(__name__)

AXES = ("rabi", "detuning", "position")
PROTOCOLS = ("prepare", "rotate")

# Disordered draws whose coupling scale exceeds the nominal one by this
# factor are so far detuned that the transfer fidelity is effectively zero;
# they are not integrated and count as fidelity 0 in the mean, which keeps
# pathological draws from stalling sweeps.
# The draws kept are solved in octaves of the scale ratio (2-4, 4-8, ...,
# 32-50), plus one solve for every draw below twice the nominal scale.
SCALE_CUTOFF = 50.0

# Tolerance crossings are bisected to this absolute deviation.
TOLERANCE_RESOLUTION = 0.001

# Rotation merit search: drives scale from this reference spacing, and those
# whose estimated half cycle exceeds the time cap (1/gamma) are skipped.
MERIT_XI_REF = 0.15
MERIT_T_CAP = 600.0

# Rotation merit search: the Raman offset is calibrated within this relative
# window around the scaled offset.
MERIT_CALIBRATION_WINDOW = 0.3


@dataclass(frozen=True)
class ScenarioBase:
    """Base protocol parameters for a sweep; rtol governs one-tone batches."""

    geometry: Geometry
    e_mu: float
    e_nu: float | None = None
    omega_delta: float | None = None
    k_dot_r: float | None = None
    protocol: str = "prepare"
    rtol: float = 1e-8

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "rotate" and (self.e_nu is None
                                          or self.omega_delta is None):
            raise ValueError("rotation sweeps need e_nu and omega_delta")


@dataclass(frozen=True)
class SweepSpec:
    protocol: str
    axis: str
    values: tuple
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one value")
        if self.axis == "rabi" and min(self.values) < -1.0:
            raise ValueError("rabi deviations must be at least -1")
        if self.axis == "position" and min(self.values) < 0.0:
            raise ValueError("position variances must be nonnegative")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


@dataclass
class SweepResult:
    spec: SweepSpec
    deviations: np.ndarray
    mean_fidelity: np.ndarray
    stderr: np.ndarray
    base_fidelity: float
    base_t_pi: float
    swap_probability: np.ndarray | None = None


@dataclass
class ToleranceRow:
    axis: str
    tolerances: dict
    note: str = ""


@dataclass
class ToleranceTable:
    protocol: str
    thresholds: tuple
    rows: list[ToleranceRow]
    # The position-disorder sweep behind the position row, if there is one.
    position: SweepResult | None

    def validate_nesting(self) -> bool:
        """Tighter fidelity targets must not allow larger deviations."""
        for row in self.rows:
            tols = [row.tolerances.get(t) for t in sorted(self.thresholds)]
            vals = [t for t in tols if t is not None]
            if any(b > a * (1 + 1e-12) for a, b in zip(vals, vals[1:])):
                return False
        return True

    def to_text(self) -> str:
        lines = [f"protocol: {self.protocol}"]
        header = "axis" + "".join(f"  F>{t:g}" for t in self.thresholds)
        lines.append(header)
        for row in self.rows:
            cells = []
            for t in self.thresholds:
                v = row.tolerances.get(t)
                cells.append("-" if v is None else f"{v:.6g}")
            lines.append(row.axis + "  " + "  ".join(cells)
                         + (f"  ({row.note})" if row.note else ""))
        return "\n".join(lines)


class _BaseRun:
    """A base protocol's transfer and its nominal run, from which runs with
    a perturbed drive or a displaced geometry are built."""

    def __init__(self, base: ScenarioBase):
        self.base = base
        rotate = base.protocol == "rotate"
        self.transfer = tr = _Transfer(
            base.protocol, base.geometry,
            (base.e_mu, base.e_nu) if rotate else (base.e_mu,),
            base.omega_delta, base.k_dot_r)
        self.result = res = tr.run()
        self.nominal_member = tr.nominal_member()
        # Fidelities are compared crest-to-crest: a drive-frequency error
        # shifts the phase of the fast off-resonant ripple at the fixed
        # readout time, so each run is scored by its best fidelity inside a
        # window spanning a few ripple periods around the nominal t_pi.
        window = tr.ripple if rotate else 0.01 * res.t_pi
        self.eval_times = np.linspace(max(res.t_pi - window, 0.0),
                                      res.t_pi + window, 81)


def _grid_fidelities(run: _BaseRun, points: list) -> np.ndarray:
    """Fidelity at the nominal inversion time for each (axis, deviation)
    point, evaluated in one batched solve."""
    return _batched_fidelities(
        run.nominal_member, [run.transfer.drive(axis, dev)
                             for axis, dev in points],
        run.eval_times, run.base.rtol)


def _position_fidelities(run: _BaseRun, variance: float, samples: int,
                         seed: int) -> tuple[np.ndarray, float]:
    """Per-sample fidelities under position disorder, plus the fraction of
    draws whose emitter order swapped along the chain."""
    g = run.base.geometry
    positions = _disorder_positions(g, DisorderSpec(
        variance=variance, samples=samples, seed=seed))
    swaps = np.any(np.argsort(positions[..., 0], axis=1)
                   != np.argsort(g.positions[:, 0]), axis=1)

    nominal_scale = max(1.0, float(np.max(np.abs(
        run.transfer.coupling.delta))))
    delta, gammas = _coupling_stack(positions, g.dipole)
    scales = np.max(np.abs(delta), axis=(1, 2))
    kept = np.flatnonzero(scales <= SCALE_CUTOFF * nominal_scale)
    octaves = np.log2(np.maximum(scales[kept] / nominal_scale,
                                 1.0)).astype(int)
    # Every kept draw's member is built in one stack, and each octave's
    # solve takes its rows from it.
    stack = (run.transfer.members(positions[kept], delta[kept], gammas[kept])
             if kept.size else ())
    fids = np.zeros(samples)
    for octave in np.unique(octaves):
        rows = np.flatnonzero(octaves == octave)
        fids[kept[rows]] = _batched_fidelities(
            tuple(x[rows] for x in stack),
            [run.transfer.drive("rabi", 0.0)] * len(rows), run.eval_times,
            run.base.rtol)
    return fids, float(swaps.mean())


def _sweep(run: _BaseRun, spec: SweepSpec) -> SweepResult:
    """``sweep`` on an existing base run."""
    values = np.asarray(spec.values, dtype=float)
    if spec.axis != "position":
        fids = _grid_fidelities(run, [(spec.axis, v) for v in values])
        return SweepResult(spec, values, fids, np.zeros_like(fids),
                           run.result.fidelity, run.result.t_pi)
    draws = [_position_fidelities(run, v, spec.samples, spec.seed)
             for v in values]
    means = np.array([f.mean() for f, _ in draws])
    errs = np.array([f.std(ddof=1) / np.sqrt(len(f)) if len(f) > 1 else 0.0
                     for f, _ in draws])
    return SweepResult(spec, values, means, errs, run.result.fidelity,
                       run.result.t_pi, np.array([s for _, s in draws]))


def sweep(spec: SweepSpec, base: ScenarioBase) -> SweepResult:
    """Fidelity-versus-deviation curve for one control axis."""
    if spec.protocol != base.protocol:
        raise ValueError("sweep and base protocol disagree")
    return _sweep(_BaseRun(base), spec)


def tolerance(base: ScenarioBase, axis: str, threshold: float) -> float:
    """Symmetric half-width of the deviation window keeping the fidelity at
    the nominal inversion time above ``threshold``.

    The fidelity optimum sits slightly off the nominal drive (the drive
    dresses the levels), so the passing window is asymmetric about zero;
    the quoted control level is half its total width.  Each side's crossing
    is bracketed on the doubling ladder 0.001, 0.002, ..., 0.512 (a side
    passing every rung is capped at 1) and bisected to
    ``TOLERANCE_RESOLUTION``; see ``_tolerances``.
    """
    if axis == "position":
        raise ValueError("position tolerances come from a variance grid")
    return _tolerances(_BaseRun(base), (axis,), (threshold,))[axis, threshold]


def _tolerances(run: _BaseRun, axes: tuple, thresholds: tuple) -> dict:
    """``tolerance`` of every (axis, threshold) pair.  One batched solve
    scores deviation 0 and the ladder on both sides of every axis; each side
    of each pair takes its bracket from its first failing rung (where
    doubling alone would stop), and all brackets are bisected in lockstep,
    one batched solve per round, through the same probes as on their own."""
    fidelity: dict = {}  # (axis, deviation) -> fidelity

    def score(points):
        new = list(dict.fromkeys(p for p in points if p not in fidelity))
        if new:
            fidelity.update(zip(new, _grid_fidelities(run, new)))

    # 0.001 ... 0.512; doubling on its own stops at the cap of 1 after it.
    rungs = [TOLERANCE_RESOLUTION * 2.0**i for i in range(10)]
    searches = list(itertools.product(axes, thresholds, (1.0, -1.0)))
    score([(axes[0], 0.0)] + [(a, s * r) for a, _, s in searches
                              for r in rungs])
    for t in thresholds:
        if fidelity[axes[0], 0.0] < t:
            raise ProtocolError(f"base fidelity below threshold {t}")
    # Bracket: [last passing rung or 0, first failing rung]; [1, 1] caps a
    # side that never fails.
    ladder, brackets = [0.0] + rungs, {}
    for a, t, s in searches:
        k = next((k for k, r in enumerate(rungs, 1)
                  if fidelity[a, s * r] < t), None)
        brackets[a, t, s] = [1.0, 1.0] if k is None else ladder[k - 1:k + 1]
    while mids := {key: 0.5 * (lo + hi) for key, (lo, hi) in brackets.items()
                   if hi - lo > TOLERANCE_RESOLUTION}:
        score([(a, s * m) for (a, _, s), m in mids.items()])
        for (a, t, s), m in mids.items():
            brackets[a, t, s][0 if fidelity[a, s * m] >= t else 1] = m
    return {(a, t): 0.5 * (brackets[a, t, 1.0][0] + brackets[a, t, -1.0][0])
            for a, t, _ in searches}


def tolerance_table(base: ScenarioBase,
                    thresholds: tuple = (0.90, 0.95, 0.98),
                    position_variances: tuple = (),
                    samples: int = 100, seed: int = 0) -> ToleranceTable:
    """Tolerance table over rabi, detuning, and (optionally) position axes.

    Position entries report the largest listed variance whose Monte Carlo
    mean fidelity stays above each threshold; when emitter ordering swaps
    in a noticeable fraction of draws the variance is meaningless and the
    swap probability is reported in the row note instead.  The position
    sweep the row comes from is returned with the table.
    """
    run = _BaseRun(base)
    axes = ("rabi", "detuning")
    tols = _tolerances(run, axes, thresholds)
    rows = [ToleranceRow(axis, {t: tols[axis, t] for t in thresholds})
            for axis in axes]
    if not position_variances:
        return ToleranceTable(base.protocol, thresholds, rows, None)
    res = _sweep(run, SweepSpec(base.protocol, "position",
                                tuple(position_variances), samples, seed))
    means = dict(zip(res.spec.values, res.mean_fidelity))
    swaps = dict(zip(res.spec.values, res.swap_probability))
    tols, notes = {}, []
    for t in thresholds:
        best = max((v for v in means if means[v] >= t), default=None)
        if best is not None and swaps[best] > 0.05:
            notes.append(f"F>{t:g}: swap probability {swaps[best]:.2f}")
            best = None
        tols[t] = best
    rows.append(ToleranceRow(axis="position", tolerances=tols,
                             note="; ".join(notes)))
    return ToleranceTable(base.protocol, thresholds, rows, res)


def prepare_merit_point(xi: float, alpha: float, f_target: float) -> dict:
    """Largest drive amplitude holding the preparation fidelity at the
    target, and the figure of merit there.

    The fidelity decreases with amplitude from its weak-drive limit, so the
    crossing is bracketed by halving or doubling from a spectral-scale seed
    and then bisected; each amplitude is solved once.  Raises
    ``ProtocolError`` if seven halvings never reach the target.
    """
    g = linear_array_xi(xi, alpha=alpha)
    sp = spectral_params(coupling_matrices(g))

    def fid(e_mu: float):
        return prepare_b(g, e_mu)

    e_seed = sp.omega / 40.0
    lo, res_lo = e_seed, fid(e_seed)
    hi, best = None, res_lo.fidelity
    while res_lo.fidelity < f_target:
        if lo < e_seed / 64.0:
            raise ProtocolError(f"preparation fidelity at xi={xi} never "
                                f"reaches {f_target} (best {best:.6g})")
        hi, lo = lo, lo / 2.0
        res_lo = fid(lo)
        best = max(best, res_lo.fidelity)
    while hi is None:
        res_hi = fid(2.0 * lo)
        if res_hi.fidelity < f_target:
            hi = 2.0 * lo
        else:
            lo, res_lo = 2.0 * lo, res_hi
    while hi / lo > 1.004:
        mid = np.sqrt(lo * hi)
        res_mid = fid(mid)
        if res_mid.fidelity >= f_target:
            lo, res_lo = mid, res_mid
        else:
            hi = mid
    return {"e_mu": lo, "t_pi": res_lo.t_pi, "fidelity": res_lo.fidelity,
            "gamma_b": res_lo.params_used["gamma_b"],
            "merit": res_lo.merit,
            "gamma_b_t_pi": res_lo.params_used["gamma_b"] * res_lo.t_pi}


def rotate_merit_point(xi: float, alpha: float, f_target: float,
                       e_mu: float = 6.0, e_nu: float = 15.0,
                       omega_delta: float = 170.0) -> dict:
    """Largest common amplitude scale holding the rotation fidelity at the
    target, and the figure of merit there.

    The chain's shift matrix is self-similar in the spacing (fixed
    nearest/next-nearest ratio), so the whole drive configuration --
    amplitudes and Raman offset -- is first scaled with the collective
    splitting relative to the reference spacing ``MERIT_XI_REF``; this keeps
    the offset-to-gap ratio fixed and the transfer in the same regime at
    every point.  The amplitude scale is then searched downward so that
    every evaluated run is at least as fast as the returned one (the
    effective rate grows with the amplitude product, making weak drives
    expensive).
    """
    g = linear_array_xi(xi, alpha=alpha)
    sp = spectral_params(coupling_matrices(g))
    sp_ref = spectral_params(coupling_matrices(
        linear_array_xi(MERIT_XI_REF, alpha=alpha)))
    lam = sp.omega / sp_ref.omega
    e_mu, e_nu = e_mu * lam, e_nu * lam
    omega_delta = omega_delta * lam
    # The scaling keeps the offset-to-gap ratio but not the drive-induced
    # level shifts: the first-inversion fidelity peaks about 10% below the
    # scaled offset at xi=0.1 (near 520 against 577) and 18% below at
    # xi=0.05 (near 3800 against 4636).  Calibrate over a wide window on
    # that fidelity, the quantity the search reports.  The peak position is amplitude-independent (mismatch
    # and rate both scale with the squared amplitude), so calibrating at
    # double drive is cheap.
    try:
        omega_delta = _merit_offset(g, 2.0 * e_mu, 2.0 * e_nu, omega_delta)
    except ProtocolError as exc:
        log.warning("rotate_merit_point: calibration failed at xi=%g, "
                    "keeping the scaled offset %g: %s", xi, omega_delta, exc)

    def attempt(scale: float):
        est = rotation_rate_estimate(sp, e_mu * scale, e_nu * scale,
                                     g.xi12, omega_delta)
        if est <= 0 or np.pi / (2.0 * est) > MERIT_T_CAP:
            return None
        try:
            return rotate_logical(g, e_mu * scale, e_nu * scale, omega_delta)
        except ProtocolError:
            return None

    results = {}
    lo = None
    hi = None
    for s in (16.0, 8.0, 4.0, 2.0, 1.0, 0.5, 0.25):
        res = attempt(s)
        results[s] = res
        if res is not None and res.fidelity >= f_target:
            lo = s
            break
        hi = s
    if lo is None:
        usable = {s: r for s, r in results.items() if r is not None}
        if not usable:
            raise ProtocolError(f"rotation never converged at xi={xi}")
        s = max(usable, key=lambda k: usable[k].fidelity)
        return _merit_dict(s, usable[s], saturated=False)
    res_lo = results[lo]
    if hi is None:
        return _merit_dict(lo, res_lo, saturated=True)
    while hi / lo > 1.02:
        mid = np.sqrt(lo * hi)
        res_mid = attempt(mid)
        if res_mid is not None and res_mid.fidelity >= f_target:
            lo, res_lo = mid, res_mid
        else:
            hi = mid
    return _merit_dict(lo, res_lo, saturated=True)


def _merit_offset(g: Geometry, e_mu: float, e_nu: float,
                  omega_delta: float) -> float:
    """Raman offset within ``MERIT_CALIBRATION_WINDOW`` of ``omega_delta``
    that maximises the fidelity ``rotate_logical`` reports at the drive
    (e_mu, e_nu): the fidelity at the first inversion.  An offset whose
    rotation finds no inversion scores zero."""
    def first_inversion(w: float) -> float:
        try:
            return rotate_logical(g, e_mu, e_nu, w).fidelity
        except ProtocolError:
            return 0.0

    return _calibrate(
        lambda offsets: np.array([first_inversion(w) for w in offsets]),
        omega_delta, MERIT_CALIBRATION_WINDOW)


def _merit_dict(scale, res, saturated: bool) -> dict:
    gm = 0.5 * (res.params_used["gamma_b"] + res.params_used["gamma_c"])
    return {"scale": scale, "t_pi": res.t_pi, "fidelity": res.fidelity,
            "gamma_mean": gm, "merit": res.merit, "saturated": saturated}
