"""Acceptance gate: one test per release criterion (c01-c11), and c11's
thread-count check repeated at realistic mesh sizes.

Each test freezes its tolerances and oracle values inline; the conftest
terminal summary prints a per-criterion pass/fail line.  These tests favour
directness over reuse — every claim is checked against matrices, closed
forms, or byte comparisons computed right here.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from modelzoo import (
    ALL_COMBOS,
    BEAM,
    GOLDEN,
    PATCH_COMBOS,
    SINGLE_COMBOS,
    SLENDER_GEO,
    UNCOUPLED,
    make_spec,
)
from piezobeam.assembly import build_system, reduce_electrostatic
from piezobeam.cli import main
from piezobeam.forms import kinetic_energy, stored_energy
from piezobeam.materials import (
    Regime,
    Variant,
    VoltageSignal,
    stretching_wave_speeds,
)
from piezobeam.scenarios import (
    check_patch_voltage_selectivity,
    check_single_beam_decoupling,
    mode_frequency,
    pulse_time_of_flight,
    run_convergence_study,
    run_electrostatic_limit,
)
from piezobeam.solvers import simulate

SINGLE_INI = """\
[model]
variant = single_eb
regime = full_magnetic
bc = free_free

[material.beam]
rho = 1.0
c11 = 2.0
c55 = 1.0
gamma31 = 0.7
gamma15 = 0.3
eps1 = 1.2
eps3 = 0.8
mu = 0.5

[geometry]
length = 1.0
thickness = 0.1

[voltage]
kind = sinusoid
amplitude = 1.0
frequency = 3.0

[solver]
elements = 8
dt = 0.001
t_end = 0.5
stride = 5
"""


def _forced(variant, regime):
    if variant in (Variant.PATCH_EB, Variant.PATCH_MT):
        drive = (VoltageSignal.sinusoid(1.0, 3.0), VoltageSignal.sinusoid(-0.5, 2.0))
    else:
        drive = VoltageSignal.sinusoid(1.0, 3.0)
    return make_spec(variant, regime, voltage=drive)


def test_c01_energy_functions_match_quadratic_forms():
    """stored/kinetic functionals agree with 1/2 x'Kx and 1/2 v'Mv to 1e-12."""
    rng = np.random.default_rng(101)
    for variant, regime in ALL_COMBOS:
        sysm = build_system(make_spec(variant, regime), 8)
        for _ in range(20):
            x = rng.standard_normal(sysm.n_dofs)
            v = rng.standard_normal(sysm.n_dofs)
            st = sysm.state(x, v)
            assert stored_energy(st) == pytest.approx(
                0.5 * x @ sysm.K @ x, rel=1e-12)
            assert kinetic_energy(st) == pytest.approx(
                0.5 * v @ sysm.M @ v, rel=1e-12)


def test_c02_stiffness_equals_fd_curvature_of_stored_energy():
    """K matches the central finite-difference Hessian of the energy."""
    h = 0.5
    rng = np.random.default_rng(202)
    for variant, regime in ALL_COMBOS:
        sysm = build_system(make_spec(variant, regime), 4)
        n = sysm.n_dofs
        base = rng.standard_normal(n)

        def energy(x):
            return stored_energy(sysm.state(x, np.zeros(n)))

        K_fd = np.empty((n, n))
        eye = np.eye(n)
        for i in range(n):
            for j in range(i, n):
                pp = energy(base + h * eye[i] + h * eye[j])
                pm = energy(base + h * eye[i] - h * eye[j])
                mp = energy(base - h * eye[i] + h * eye[j])
                mm = energy(base - h * eye[i] - h * eye[j])
                K_fd[i, j] = K_fd[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
        K = sysm.K.toarray()
        denom = np.maximum(np.abs(K), 1e-6 * np.abs(K).max())
        assert (np.abs(K_fd - K) / denom).max() <= 1e-5, (variant, regime)


def test_c03_unforced_midpoint_conserves_energy_over_1e4_steps():
    """Relative drift stays below 1e-10 across ten thousand steps."""
    rng = np.random.default_rng(11)
    for variant in (Variant.SINGLE_EB, Variant.PATCH_MT):
        sysm = build_system(make_spec(variant, Regime.FULL_MAGNETIC), 8)
        x0 = 0.01 * rng.standard_normal(sysm.n_dofs)
        v0 = 0.01 * rng.standard_normal(sysm.n_dofs)
        (traj,) = simulate([sysm], [x0], [v0], dt=1e-3, t_end=10.0, stride=100)
        assert len(traj.t) == 101
        e0 = traj.total[0]
        drift = np.abs(traj.total - e0).max() / e0
        assert drift <= 1e-10, (variant, drift)


def test_c04_forced_runs_balance_energy_against_work():
    """|Delta E - work_in| <= 1e-8 max(E) at every recorded step."""
    for variant, regime in ALL_COMBOS:
        sysm = build_system(_forced(variant, regime), 8)
        zero = np.zeros(sysm.n_dofs)
        (traj,) = simulate([sysm], [zero], [zero], dt=1e-3, t_end=2.0, stride=1)
        scale = traj.total.max()
        assert scale > 0.0
        assert np.abs(traj.balance_residual).max() <= 1e-8 * scale, (variant, regime)


def test_c05_single_beam_bending_is_voltage_free():
    """Bending rows of the input map and driven bending dofs are exactly zero."""
    for variant, regime in SINGLE_COMBOS:
        vspec = _forced(variant, regime)
        sysm = build_system(vspec, 8)
        bend = [d for name in ("w", "psi") if name in sysm.layout.fields
                for d in sysm.dofs_of(name)]
        assert np.all(sysm.B[bend] == 0.0)

        report = check_single_beam_decoupling(vspec, 8, 1e-3, 1.0)
        assert report.passed
        assert report.metric("input_map_bending_rows_max").value == 0.0
        assert report.metric("trajectory_bending_max").value == 0.0
        assert report.metric("trajectory_bending_rate_max").value == 0.0
        assert report.metric("stretch_response_max").value > 0.0


def test_c06_patch_voltage_parity_selects_motion():
    """Equal drives leave bending quiet; opposite drives leave stretching quiet."""
    for variant, regime in PATCH_COMBOS:
        vspec = _forced(variant, regime)
        reports = check_patch_voltage_selectivity(vspec, 8, 1e-3, 2.0)
        for mode, report in zip(("symmetric", "antisymmetric"), reports, strict=True):
            assert report.passed, (variant, regime, mode)
            assert report.metric("quiet_over_active_ratio").value <= 1e-12
            assert report.metric("active_response_max").value > 0.0


def test_c07_charge_elimination_matches_direct_reduced_assembly():
    """Schur reduction of the dynamic-charge model equals the static build."""
    for variant in (Variant.PATCH_EB, Variant.PATCH_MT):
        full = build_system(make_spec(variant, Regime.FULL_MAGNETIC), 8)
        reduced = reduce_electrostatic(full)
        direct = build_system(make_spec(variant, Regime.ELECTROSTATIC), 8)
        assert reduced.n_dofs == direct.n_dofs
        for name in ("M", "K", "B"):
            a, b = getattr(reduced, name), getattr(direct, name)
            scale = np.abs(b).max()
            assert np.abs(a - b).max() <= 1e-12 * scale, (variant, name)


def test_c08_vanishing_permeability_recovers_reduced_dynamics():
    """Trajectory distance shrinks monotonically over a 3-decade mu sweep."""
    mus = (5e-1, 5e-2, 5e-3, 5e-4)
    assert mus[0] / mus[-1] >= 1e3
    vspec = _forced(Variant.PATCH_EB, Regime.FULL_MAGNETIC)
    study = run_electrostatic_limit(vspec, mus, 16, 5e-4, 1.5)
    assert study.monotone
    assert all(a > b for a, b in zip(study.distances, study.distances[1:]))
    assert study.static_gap <= 1e-12


def test_c09_modal_frequencies_converge_to_closed_forms():
    """Bending and rod spectra hit their transcendental/analytic targets."""
    # free-free bending fundamental: (beta L)^2 sqrt(alpha1 h^2 / (12 rho)),
    # beta L the first positive root of cos(bL)cosh(bL) = 1.
    beta_l = 4.730040744862704
    bend = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC,
                     geometry=SLENDER_GEO)
    co = BEAM
    h = SLENDER_GEO.thickness
    omega_ref = beta_l**2 * np.sqrt(co.alpha1 * h**2 / (12.0 * co.rho))
    assert omega_ref == pytest.approx(0.10439201730723476, rel=1e-13)
    omega_fem = mode_frequency(bend, 64, "bending", 1)
    assert abs(omega_fem - omega_ref) / omega_ref <= 1e-3

    # free-free rod spectrum with gamma31 = 0: omega_k = k pi sqrt(alpha1/rho).
    rod = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC,
                    beam=UNCOUPLED)
    co_rod = UNCOUPLED
    assert co_rod.alpha1 == co_rod.alpha11  # no piezo stiffening
    for k in (1, 2, 3):
        exact = k * np.pi * np.sqrt(co_rod.alpha1 / co_rod.rho)
        omega_k = mode_frequency(rod, 128, "stretching", k)
        assert abs(omega_k - exact) / exact <= 1e-3, k

    # observed convergence orders stay at or above 1.8
    rod_ref = np.pi * np.sqrt(co_rod.alpha1 / co_rod.rho)
    rod_study = run_convergence_study(rod, (8, 16, 32), kind="stretching",
                                      number=1, reference=rod_ref)
    assert rod_study.passed
    assert rod_study.metric("observed_order").value >= 1.8
    bend_study = run_convergence_study(bend, (8, 16, 32), kind="bending",
                                       number=1)
    assert bend_study.passed
    assert bend_study.metric("observed_order").value >= 1.8


def test_c10_stretching_wave_speeds_match_dispersion_relation():
    """Closed-form speeds equal the 2x2 eigenvalues; time of flight within 5%."""
    # golden-ratio material: pencil eigenvalues (3 +- sqrt 5)/2
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    fast, slow = stretching_wave_speeds(GOLDEN)
    assert fast == pytest.approx(phi, rel=1e-12)
    assert slow == pytest.approx(phi - 1.0, rel=1e-12)

    co = BEAM
    A = np.array([[co.alpha1, -co.g3b3], [-co.g3b3, co.beta3]])
    D = np.diag([co.rho, co.mu])
    lam = np.sort(scipy.linalg.eigvalsh(A, D))
    fast, slow = stretching_wave_speeds(co)
    assert fast == pytest.approx(np.sqrt(lam[1]), rel=1e-12)
    assert slow == pytest.approx(np.sqrt(lam[0]), rel=1e-12)
    assert fast == pytest.approx(1.948066908921705, rel=1e-12)
    assert slow == pytest.approx(1.1478394131428982, rel=1e-12)

    vspec = make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC)
    report = pulse_time_of_flight(vspec, n_elements=512)
    assert report.passed
    assert report.metric("fast_speed_relative_error").value <= 0.05


def test_c11_simulate_cli_is_byte_reproducible(tmp_path):
    """Identical CSV bytes across reruns and across thread counts."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(SINGLE_INI)
    names = ("trajectory.csv", "energy.csv")

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", str(cfg), "--out", str(out_b)]) == 0
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    payloads = {}
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ)
        env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "piezobeam.cli",
             "simulate", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        payloads[threads] = tuple((out / name).read_bytes() for name in names)
    assert payloads["1"] == payloads["4"]


@pytest.mark.parametrize("config,elements,t_end,dofs", [
    ("patch_bimorph.ini", 512, "2.0", 2565),
    ("single_beam.ini", 8192, "0.05", 32772),
], ids=["patch-512", "single-8192"])
def test_simulate_at_large_meshes_is_thread_count_independent(tmp_path, config, elements,
                                                               t_end, dofs):
    """c11's thread-count check at realistic mesh sizes: identical CSV bytes
    under one and two BLAS threads on the shipped patch config at 512
    elements (1026 of its dofs swept) and on the shipped single beam at 8192
    elements, whose moving {v, q} block (16,386 dofs) is long enough for
    OpenBLAS to thread a dot product over it."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", config),
              encoding="utf-8") as fh:
        text = fh.read()
    assert "\nelements = 32\n" in text and "\nt_end = 2.0\n" in text
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("\nelements = 32\n", f"\nelements = {elements}\n")
                   .replace("\nt_end = 2.0\n", f"\nt_end = {t_end}\n"))
    names = ("trajectory.csv", "energy.csv")
    payloads = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ)
        env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "piezobeam.cli",
             "simulate", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert f"dofs={dofs}" in (out / "trajectory.csv").read_text()
        payloads[threads] = tuple((out / name).read_bytes() for name in names)
    assert payloads["1"] == payloads["2"]
