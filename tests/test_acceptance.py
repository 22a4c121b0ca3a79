"""Acceptance suite: one test per shipped benchmark criterion, each
printing a PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import time

import numpy as np
import pytest

from dfsim import (DriveSpec, ScenarioBase, SweepSpec, calibrate_detuning,
                   collective_eigenbasis, coupling_matrices, dicke_coupling,
                   evolve_lindblad, evolve_nojump, expected_growth,
                   grow_chain, jump_operators, linear_array_xi, prepare_b,
                   readout_coupling, rotate_logical, sweep, tolerance)
from dfsim.cluster import cluster_state, stabilizer_expectations
from dfsim.coupling import spectral_params
from dfsim.hilbert import ground_state, lowering_operators, raising_operators
from dfsim.robustness import prepare_merit_point, rotate_merit_point


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fig2a_result():
    g = linear_array_xi(0.5, alpha=0.0)
    start = time.perf_counter()
    res = prepare_b(g, 1.0)
    return res, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig3a_result():
    g = linear_array_xi(0.15, alpha=np.pi / 2)
    start = time.perf_counter()
    wd = calibrate_detuning(g, 6.0, 15.0, 170.0)
    res = rotate_logical(g, 6.0, 15.0, wd)
    return wd, res, time.perf_counter() - start


def test_c1_preparation_benchmark(fig2a_result):
    res, wall = fig2a_result
    ok = (abs(res.fidelity - 0.988) <= 0.005
          and abs(res.t_pi - 0.987) / 0.987 <= 0.02
          and wall < 10.0)
    check("criterion 1 (preparation benchmark)", ok,
          f"F={res.fidelity:.4f} (0.988+-0.005), t_pi={res.t_pi:.4f} "
          f"(0.987+-2%), wall={wall:.1f}s (<10s)")


def test_c2_rotation_benchmark(fig3a_result):
    wd, res, wall = fig3a_result
    ok = (abs(wd - 170.0) / 170.0 <= 0.10
          and abs(res.fidelity - 0.986) <= 0.01
          and abs(res.t_pi - 9.271) / 9.271 <= 0.05
          and wall < 60.0)
    check("criterion 2 (rotation benchmark)", ok,
          f"omega_delta={wd:.2f} (170+-10%), F={res.fidelity:.4f} "
          f"(0.986+-0.01), t_pi={res.t_pi:.3f} (9.271+-5%), "
          f"wall={wall:.1f}s (<60s)")


def test_c3_nanometre_scale_merit():
    # One-nanometre spacing at a 637 nm resonant wavelength.
    xi = 2.0 * np.pi * 1.0 / 637.0
    point = prepare_merit_point(xi, alpha=0.0, f_target=0.98)
    value = point["gamma_b_t_pi"]
    ok = value <= 3.0 * 5e-7 and value >= 5e-7 / 3.0
    # For axial dipoles the prepared (lowest one-excitation) level is the
    # bright one; the published headline number matches the linewidth of
    # its subradiant partner instead (see decisions ledger).
    basis = collective_eigenbasis(coupling_matrices(
        linear_array_xi(xi, alpha=0.0)))
    partner = basis.linewidth("d") * point["t_pi"]
    check("criterion 3 (nanometre-spacing inversions per lifetime)", ok,
          f"gamma_b*t_pi={value:.3e} (target 5e-7 within factor 3); "
          f"e_mu={point['e_mu']:.4g}, t_pi={point['t_pi']:.3e}, "
          f"gamma_b={point['gamma_b']:.3f}; subradiant-partner product "
          f"would be {partner:.3e}")


@pytest.fixture(scope="module")
def table1_base():
    return ScenarioBase(geometry=linear_array_xi(0.5, alpha=0.0), e_mu=1.0,
                        protocol="prepare", rtol=1e-7)


@pytest.fixture(scope="module")
def table2_base():
    return ScenarioBase(geometry=linear_array_xi(0.15, alpha=np.pi / 2),
                        e_mu=6.0, e_nu=15.0, omega_delta=170.0,
                        protocol="rotate", rtol=1e-7)


def test_c4a_table1_rabi_tolerance(table1_base):
    tol = tolerance(table1_base, "rabi", 0.98)
    ok = 0.04 <= tol <= 0.08
    check("criterion 4a (preparation amplitude tolerance at F>0.98)", ok,
          f"tolerance={tol * 100:.2f}% (6% +- 2 points)")


def test_c4b_table1_detuning_tolerance(table1_base):
    tol = tolerance(table1_base, "detuning", 0.98)
    ok = 0.01 <= tol <= 0.02
    check("criterion 4b (preparation detuning tolerance at F>0.98)", ok,
          f"tolerance={tol * 100:.2f}% (1.5% +- 0.5 points)")


def test_c4c_table1_position_variance(table1_base):
    spec = SweepSpec(protocol="prepare", axis="position", values=(0.005,),
                     samples=100, seed=20260809)
    res = sweep(spec, table1_base)
    mean_f = float(res.mean_fidelity[0])
    ok = mean_f > 0.98
    check("criterion 4c (preparation position variance 0.005)", ok,
          f"mean F={mean_f:.4f} over 100 samples (need >0.98); "
          f"swap probability={float(res.swap_probability[0]):.2f}")


def test_c4d_table2_detuning_tolerance(table2_base):
    tol = tolerance(table2_base, "detuning", 0.98)
    ok = 0.04 <= tol <= 0.08
    check("criterion 4d (rotation detuning tolerance at F>0.98)", ok,
          f"tolerance={tol * 100:.2f}% (6% +- 2 points)")


def test_c4e_table2_position_variance(table2_base):
    spec = SweepSpec(protocol="rotate", axis="position", values=(6e-6,),
                     samples=100, seed=20260809)
    res = sweep(spec, table2_base)
    mean_f = float(res.mean_fidelity[0])
    ok = mean_f > 0.98
    check("criterion 4e (rotation position variance 6e-6)", ok,
          f"mean F={mean_f:.4f} over 100 samples (need >0.98)")


def test_c5_readout_superradiance():
    # The analytic readout linewidth must match an independent numerical
    # diagonalisation of the two-excitation relaxation block to 1e-6 and
    # approach four times the single-emitter rate at vanishing spacing.
    worst = 0.0
    eigen_gap = 0.0
    for xi in (0.05, 0.15, 0.3, 0.5):
        c = coupling_matrices(linear_array_xi(xi, alpha=np.pi / 2))
        _, gamma_g = readout_coupling(c, 1.0, xi)
        g12, g13 = c.gammas[0, 1], c.gammas[0, 2]
        block = np.array([[2.0, g12, g13], [g12, 2.0, g12], [g13, g12, 2.0]])
        numeric = float(np.linalg.eigvalsh(block).max())
        worst = max(worst, abs(gamma_g - numeric) / numeric)
        basis = collective_eigenbasis(c)
        eigen_gap = max(eigen_gap,
                        abs(gamma_g - basis.linewidth("g")) / gamma_g)
    c0 = coupling_matrices(linear_array_xi(1e-3, alpha=np.pi / 2))
    _, gamma_dicke = readout_coupling(c0, 1.0, 1e-3)
    ok = worst < 1e-6 and abs(gamma_dicke - 4.0) < 1e-3
    check("criterion 5 (readout superradiance)", ok,
          f"formula vs relaxation-mode rate: worst rel dev={worst:.2e} "
          f"(<1e-6); gamma_g(xi=1e-3)={gamma_dicke:.5f} (4 +- 1e-3); "
          f"note: full non-Hermitian level-g linewidth differs by "
          f"{eigen_gap:.2e} relative (see decisions ledger)")


def test_c6_rotation_leakage(fig3a_result):
    _, res, _ = fig3a_result
    traj = res.trajectory
    keep = [traj.labels.index(lab) for lab in "bcef"]
    mask = traj.times <= res.t_pi
    outside = np.delete(traj.populations_renormalized[mask], keep,
                        axis=1).sum(axis=1)
    peak = float(outside.max())
    ok = peak < 0.05
    check("criterion 6 (rotation leakage bound)", ok,
          f"max population outside logical manifold={peak:.4f} (<0.05)")


def test_c7_cluster_growth_law():
    details = []
    ok = True
    for p in (0.5, 2.0 / 3.0, 0.75, 0.9):
        run = grow_chain(p, 10000, seed=int(p * 1e6))
        sigma = 3.0 * np.sqrt(p * (1.0 - p) / 10000)
        dev = abs(run.mean_growth - expected_growth(p))
        ok = ok and dev < 3.0 * sigma
        details.append(f"P={p:.3f}: mean={run.mean_growth:+.4f} "
                       f"(want {expected_growth(p):+.4f}, 3sig={3 * sigma:.4f})")
    stab_err = 0.0
    for n in range(2, 6):
        stabs = stabilizer_expectations(cluster_state(n))
        stab_err = max(stab_err, max(abs(1.0 - s) for s in stabs))
    ok = ok and stab_err < 1e-10
    check("criterion 7 (cluster growth law)", ok,
          "; ".join(details) + f"; stabiliser error={stab_err:.1e} (<1e-10)")


def test_c8_property_suite():
    msgs = []
    ok = True

    g = linear_array_xi(0.5, alpha=0.0)
    c = coupling_matrices(g)
    sp = spectral_params(c)
    drive = DriveSpec.single(1.0, 0.5 * (sp.delta13 - sp.omega),
                             np.array([-0.5, 0.0, 0.5]))
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    lind = evolve_lindblad(rho0, c, drive, 10.0)
    ok &= lind.trace_error < 1e-9
    msgs.append(f"trace error={lind.trace_error:.1e} (<1e-9)")

    js = jump_operators(c)
    sm = lowering_operators(3)
    spl = raising_operators(3)
    gam_op = sum(c.gammas[i, j] * (spl[i] @ sm[j])
                 for i in range(3) for j in range(3))
    recon = float(np.max(np.abs(sum(j.conj().T @ j for j in js.operators)
                                - gam_op)))
    ok &= recon < 1e-10
    msgs.append(f"jump reconstruction={recon:.1e} (<1e-10)")

    traj = evolve_nojump(ground_state(3), c, drive, 2.0)
    monotone = bool(np.all(np.diff(traj.norms) < 1e-10))
    ok &= monotone
    msgs.append(f"no-jump norm monotone={monotone}")

    cd = coupling_matrices(linear_array_xi(1e-3, alpha=0.0))
    w = np.sort(np.linalg.eigvalsh(cd.gammas))
    dicke_dev = float(max(abs(w[-1] - 3.0), abs(w[0]), abs(w[1])))
    ok &= dicke_dev < 1e-3
    msgs.append(f"Dicke damping eigenvalues dev={dicke_dev:.1e} (<1e-3)")

    ceq = dicke_coupling(3, delta=10.0)
    basis = collective_eigenbasis(ceq)
    cvec = basis.vector("c")
    rho_c = np.outer(cvec, cvec.conj())
    still = evolve_lindblad(rho_c, ceq, DriveSpec.off(), 100.0)
    drift = float(np.max(np.abs(still.states[-1] - rho_c)))
    ok &= drift < 1e-6 and still.trace_error < 1e-6
    msgs.append(f"dark-state drift over 100 lifetimes={drift:.1e} (<1e-6)")

    check("criterion 8 (property suite)", bool(ok), "; ".join(msgs))


@pytest.fixture(scope="module")
def fig2b_curve():
    points = []
    for xi in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5):
        points.append((xi, prepare_merit_point(xi, 0.0, 0.98)))
    return points


@pytest.fixture(scope="module")
def fig3b_curve():
    points = []
    for xi in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        points.append((xi, rotate_merit_point(xi, np.pi / 2, 0.98)))
    return points


def test_c9a_preparation_merit_monotone(fig2b_curve):
    merits = [p["merit"] for _, p in fig2b_curve]
    ok = all(a > b for a, b in zip(merits, merits[1:]))
    detail = ", ".join(f"xi={xi:g}: {p['merit']:.3g}"
                       for xi, p in fig2b_curve)
    check("criterion 9a (preparation merit monotone)", ok, detail)


def test_c9b_rotation_merit_monotone(fig3b_curve):
    merits = [p["merit"] for _, p in fig3b_curve]
    ok = all(a > b for a, b in zip(merits, merits[1:]))
    detail = ", ".join(f"xi={xi:g}: {p['merit']:.3g}"
                       for xi, p in fig3b_curve)
    check("criterion 9b (rotation merit monotone)", ok, detail)


def test_c9c_rotation_merit_crossing(fig3b_curve):
    xs = np.array([xi for xi, _ in fig3b_curve])
    ms = np.array([p["merit"] for _, p in fig3b_curve])
    ok = ms[0] > 1.0 and ms[-1] < 1.0
    crossing = None
    if ok:
        k = int(np.nonzero(ms < 1.0)[0][0])
        x0, x1 = xs[k - 1], xs[k]
        m0, m1 = ms[k - 1], ms[k]
        crossing = x0 + (1.0 - m0) * (x1 - x0) / (m1 - m0)
        ok = 0.12 <= crossing <= 0.28
    check("criterion 9c (rotation merit drops below one near xi=0.2)", ok,
          f"crossing at xi={crossing if crossing else float('nan'):.3f} "
          f"(expected near 0.2)")
