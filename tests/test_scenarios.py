"""Executable physics checks: decoupling, voltage parity selectivity, the
vanishing-permeability limit, modal convergence and wave-speed measurements."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from piezobeam import assembly, scenarios, solvers
from piezobeam.assembly import build_system
from piezobeam.errors import InputError, NumericalFailure
from piezobeam.materials import (
    BeamGeometry,
    BoundaryCondition,
    MaterialParams,
    Regime,
    Variant,
    VoltageSignal,
    stretching_wave_speeds,
)
from piezobeam.scenarios import (
    LimitStudy,
    check_patch_voltage_selectivity,
    check_single_beam_decoupling,
    classify_mode,
    mode_energy_fractions,
    mode_frequency,
    pulse_time_of_flight,
    run_convergence_study,
    run_electrostatic_limit,
    static_solution,
)
from piezobeam.solvers import eigenmodes

from modelzoo import GOLDEN, PATCH_COMBOS, SINGLE_COMBOS, UNCOUPLED, make_spec
from recording import recorded


def sinusoid_pair(sign=1.0):
    top = VoltageSignal.sinusoid(1.0, 4.0)
    bottom = VoltageSignal.sinusoid(sign * 1.0, 4.0)
    return (top, bottom)


class TestSingleBeamDecoupling:
    @pytest.mark.parametrize("variant,regime", SINGLE_COMBOS)
    def test_bending_stays_exactly_zero(self, variant, regime):
        vspec = make_spec(
            variant, regime, voltage=VoltageSignal.sinusoid(2.0, 5.0)
        )
        report = check_single_beam_decoupling(vspec, n_elements=8, dt=1e-3, t_end=0.2)
        assert report.passed
        assert report.metric("input_map_bending_rows_max").value == 0.0
        assert report.metric("trajectory_bending_max").value == 0.0
        assert report.metric("trajectory_bending_rate_max").value == 0.0
        # the voltage must actually do something to the stretching system
        assert report.metric("stretch_response_max").value > 0.0

    @pytest.mark.parametrize("variant,regime", SINGLE_COMBOS)
    def test_bending_stays_exactly_zero_at_512_elements(self, variant, regime):
        vspec = make_spec(
            variant, regime, voltage=VoltageSignal.sinusoid(2.0, 5.0)
        )
        report = check_single_beam_decoupling(vspec, n_elements=512, dt=1e-3, t_end=0.05)
        assert report.metric("trajectory_bending_max").value == 0.0
        assert report.metric("trajectory_bending_rate_max").value == 0.0
        assert report.metric("stretch_response_max").value > 0.0

    def test_rejects_patch_variants(self):
        vspec = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC)
        with pytest.raises(InputError,
                           match="^decoupling check applies to single-beam variants only$"):
            check_single_beam_decoupling(vspec, n_elements=8, dt=1e-3, t_end=0.1)


class TestPatchVoltageSelectivity:
    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_equal_voltages_drive_stretching_only(self, variant, regime):
        vspec = make_spec(variant, regime, voltage=sinusoid_pair(+1.0))
        report, _ = check_patch_voltage_selectivity(vspec, n_elements=8, dt=1e-3, t_end=0.5)
        assert report.passed
        assert report.metric("quiet_over_active_ratio").value <= 1e-12
        assert report.metric("active_response_max").value > 0.0

    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_opposite_voltages_drive_bending_only(self, variant, regime):
        vspec = make_spec(variant, regime, voltage=sinusoid_pair(-1.0))
        _, report = check_patch_voltage_selectivity(vspec, n_elements=8, dt=1e-3, t_end=0.5)
        assert report.passed

    @pytest.mark.parametrize("regime", (Regime.FULL_MAGNETIC, Regime.ELECTROSTATIC))
    def test_corrupted_coupling_is_caught(self, regime):
        # negative control: flipping one coupling sign must break the parity
        vspec = make_spec(Variant.PATCH_EB, regime, voltage=sinusoid_pair(+1.0))
        report, _ = check_patch_voltage_selectivity(
            vspec, n_elements=8, dt=1e-3, t_end=0.5, corrupt_sign=True
        )
        assert not report.passed
        assert report.metric("quiet_over_active_ratio").value > 1e-6

    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_mirror_gaps_exact_at_512_elements(self, variant, regime):
        vspec = make_spec(variant, regime, voltage=sinusoid_pair())
        sysm = build_system(vspec, 512)
        assert (sysm.K != sysm.K.T).nnz == 0
        assert (sysm.M != sysm.M.T).nnz == 0
        report, _ = check_patch_voltage_selectivity(vspec, 512, 1e-3, 0.02)
        for name in ("mass_mirror_gap", "stiffness_mirror_gap", "input_map_mirror_gap",
                     "combined_load_on_quiet_block"):
            assert report.metric(name).value == 0.0, name
        assert report.passed

    def test_rejects_single_beam(self):
        single = make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC)
        with pytest.raises(InputError,
                           match="^voltage selectivity applies to patch variants only$"):
            check_patch_voltage_selectivity(single, 8, 1e-3, 0.1)


class TestRunOfNoSteps:
    """t_end < dt / 2 takes no steps, so a driven model stays at rest: each
    check has no response scale to measure against and refuses the run."""

    DT, T_END = 1e-3, 4e-4

    def test_decoupling_check_refuses_it(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC,
                          voltage=VoltageSignal.sinusoid(2.0, 5.0))
        with pytest.raises(InputError,
                           match=r"^the beam never stretches \(zero drive or no steps\)$"):
            check_single_beam_decoupling(vspec, 8, self.DT, self.T_END)

    def test_selectivity_check_refuses_it(self):
        vspec = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC, voltage=sinusoid_pair())
        with pytest.raises(InputError,
                           match=r"^the \w+ drive never moves the beam "
                                 r"\(zero drive or no steps\)$"):
            check_patch_voltage_selectivity(vspec, 8, self.DT, self.T_END)

    def test_limit_study_refuses_it(self):
        vspec = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC, voltage=sinusoid_pair())
        with pytest.raises(InputError,
                           match=r"^the electrostatic model never moves "
                                 r"\(zero drive or no steps\)$"):
            run_electrostatic_limit(vspec, (0.5, 0.05), 8, self.DT, self.T_END)


class TestElectrostaticLimit:
    def test_distances_decrease_and_statics_match(self):
        vspec = make_spec(
            Variant.SINGLE_EB,
            Regime.FULL_MAGNETIC,
            voltage=VoltageSignal.sinusoid(1.0, 2.0),
        )
        study = run_electrostatic_limit(
            vspec, mus=(0.5, 0.05, 0.005), n_elements=8, dt=1e-3, t_end=0.5
        )
        assert study.monotone
        assert all(d2 < d1 for d1, d2 in zip(study.distances, study.distances[1:]))
        assert study.static_gap <= 1e-12
        d = study.as_dict()
        assert d["monotone_decreasing"] is True
        assert d["mu"] == [0.5, 0.05, 0.005]

    def test_uncoupled_material_is_refused(self):
        # gamma31 = 0: charge and mechanics never talk, so the voltage moves
        # the mechanics of neither model, and both mechanical trajectories
        # stay identically 0: there is no gap to measure.
        vspec = make_spec(
            Variant.SINGLE_EB,
            Regime.FULL_MAGNETIC,
            beam=UNCOUPLED,
            voltage=VoltageSignal.sinusoid(1.0, 2.0),
        )
        with pytest.raises(InputError,
                           match=r"^the electrostatic model never moves "
                                 r"\(zero drive or no steps\)$"):
            run_electrostatic_limit(vspec, mus=(0.1, 0.01), n_elements=6, dt=1e-3, t_end=0.2)

    def test_requires_fully_dynamic_regime(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        with pytest.raises(InputError,
                           match="^the limit study starts from the fully dynamic regime$"):
            run_electrostatic_limit(vspec, mus=(0.1,), n_elements=6, dt=1e-3, t_end=0.1)

    def test_mu_list_validation(self):
        with pytest.raises(ValueError):
            LimitStudy(mus=(0.1, 0.2), distances=(1.0, 2.0), static_gap=0.0, monotone=True)
        with pytest.raises(ValueError):
            LimitStudy(mus=(0.1, -0.2), distances=(1.0, 2.0), static_gap=0.0, monotone=True)
        with pytest.raises(ValueError):
            LimitStudy(mus=(0.1, float("nan")), distances=(1.0, 2.0), static_gap=0.0,
                       monotone=True)
        single = LimitStudy(mus=(0.1,), distances=(1.0,), static_gap=0.0, monotone=True)
        assert single.monotone

    def test_static_solution_balances_load(self):
        vspec = make_spec(
            Variant.SINGLE_EB,
            Regime.ELECTROSTATIC,
            voltage=VoltageSignal.constant(2.0),
        )
        sysm = build_system(vspec, 8)
        from piezobeam.assembly import apply_mechanical_bc
        from piezobeam.materials import BoundaryCondition

        clamped = apply_mechanical_bc(sysm, BoundaryCondition.CLAMPED_FREE)
        volts = [sig(0.0) for sig in clamped.vspec.voltages]
        x = static_solution(clamped, volts)
        resid = clamped.K @ x - clamped.B @ volts
        assert np.abs(resid).max() <= 1e-11 * max(np.abs(clamped.K).max(), 1.0)


def assert_same_system(got, want):
    """got is bitwise want: M, K, B, free_dofs and vspec."""
    for name in ("M", "K"):
        a, b = getattr(got, name), getattr(want, name)
        for part in ("indptr", "indices", "data"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes(), (name, part)
    assert got.B.tobytes() == want.B.tobytes()
    assert np.array_equal(got.free_dofs, want.free_dofs)
    assert got.vspec == want.vspec


def count_calls(monkeypatch, module, name):
    """Calls of module.name from now on, as a list that grows."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def reference_limit(vspec, mus, n, dt, t_end):
    """(distances, static_gap) with every system built by build_system and
    every dof of every recorded row observed."""
    systems = [build_system(replace(vspec, regime=Regime.ELECTROSTATIC), n)]
    systems += [build_system(scenarios._with_mu(vspec, mu), n) for mu in mus]
    zeros = [np.zeros(s.n_dofs) for s in systems]
    red, *full = recorded(systems, zeros, zeros, dt, t_end, velocities=False)
    den = float(np.sqrt(np.sum(np.add.reduce(red.X * red.X, axis=1))))
    distances = []
    for s, run in zip(systems[1:], full):
        gap = run.X[:, s.class_dofs("stretching", "bending")] - red.X
        distances.append(float(np.sqrt(np.sum(np.add.reduce(gap * gap, axis=1)))) / den)
    clamped = replace(vspec, mechanical_bc=BoundaryCondition.CLAMPED_FREE)
    sys_full = build_system(clamped, n)
    sys_red = build_system(replace(clamped, regime=Regime.ELECTROSTATIC), n)
    ones = np.ones(vspec.n_signals)
    x_full = static_solution(sys_full, ones)[sys_full.class_dofs("stretching", "bending")]
    x_red = static_solution(sys_red, ones)
    return distances, float(np.max(np.abs(x_full - x_red))) / float(np.max(np.abs(x_red)))


def driven_spec(variant, regime, bc=BoundaryCondition.FREE_FREE):
    """A driven spec; on a patch the voltages differ, so both mirror halves
    move."""
    voltage = (VoltageSignal.sinusoid(1.0, 3.0), VoltageSignal.sinusoid(-0.5, 2.0)) \
        if variant.is_patch else VoltageSignal.sinusoid(1.0, 3.0)
    return make_spec(variant, regime, bc=bc, voltage=voltage)


class TestSharedAssembly:
    """limit and the patch check assemble once per operator, and every
    system they step or solve is bitwise the one build_system builds."""

    @pytest.mark.parametrize("n", [4, 32, 512])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_limit_systems_are_those_build_system_builds(self, variant, bc, n):
        # mus below, at and above the layers' own mu (0.5 and 0.8); only M
        # is assembled again per mu, K and B are shared.
        mus = (2.0, 0.8, 0.5, 5e-3, 1e-9)
        vspec = driven_spec(variant, Regime.FULL_MAGNETIC, bc)
        runs, clamped = scenarios._limit_systems(vspec, mus, n)
        want = [build_system(replace(vspec, regime=Regime.ELECTROSTATIC), n)]
        want += [build_system(scenarios._with_mu(vspec, mu), n) for mu in mus]
        for got, ref in zip(runs, want, strict=True):
            assert_same_system(got, ref)
        assert all(s.K is runs[1].K and s.B is runs[1].B for s in runs[2:])
        pinned = replace(vspec, mechanical_bc=BoundaryCondition.CLAMPED_FREE)
        want = [build_system(scenarios._with_mu(pinned, mus[0]), n),
                build_system(replace(pinned, regime=Regime.ELECTROSTATIC), n)]
        for got, ref in zip(clamped, want, strict=True):
            assert_same_system(got, ref)

    @pytest.mark.parametrize("n", [4, 32, 512])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_selectivity_systems_are_those_build_system_builds(self, variant, regime, bc, n):
        vspec = make_spec(variant, regime, bc=bc, voltage=sinusoid_pair())
        base = vspec.voltages[0]
        drives = [(base, base), (base, scenarios._negated(base))]
        for corrupt in (False, True):
            setups = scenarios._selectivity_setup(vspec, n, corrupt)
            for (system, *_), drive in zip(setups, drives, strict=True):
                want = build_system(replace(vspec, voltages=drive), n)
                assert_same_system(system, scenarios._corrupt_coupling(want) if corrupt
                                   else want)

    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_limit_equals_the_study_of_separate_builds_and_whole_rows(self, variant, bc):
        vspec = driven_spec(variant, Regime.FULL_MAGNETIC, bc)
        mus = (0.5, 0.05, 0.005)
        study = run_electrostatic_limit(vspec, mus, n_elements=8, dt=1e-3, t_end=0.2)
        distances, static_gap = reference_limit(vspec, mus, 8, 1e-3, 0.2)
        assert list(study.distances) == distances
        assert study.static_gap == static_gap

    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    def test_limit_assembles_each_regime_once(self, monkeypatch, bc):
        builds = count_calls(monkeypatch, scenarios, "build_system")
        assembled = count_calls(monkeypatch, assembly, "assemble")
        loads = count_calls(monkeypatch, assembly, "_assemble_loads")
        vspec = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC, bc=bc, voltage=sinusoid_pair())
        run_electrostatic_limit(vspec, (5e-1, 5e-2, 5e-3, 5e-4), 8, 1e-3, 0.05)
        assert len(builds) <= 2 and len(assembled) == len(loads) == 2

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_patch_check_builds_one_system(self, monkeypatch, corrupt):
        builds = count_calls(monkeypatch, scenarios, "build_system")
        vspec = make_spec(Variant.PATCH_MT, Regime.FULL_MAGNETIC, voltage=sinusoid_pair())
        reports = check_patch_voltage_selectivity(vspec, 8, 1e-3, 0.1, corrupt_sign=corrupt)
        assert len(builds) == 1
        assert [r.passed for r in reports] == [not corrupt, not corrupt]


class TestInPlaceObservers:
    """The scenario observers reduce simulate's rows in place, and simulate
    writes the same arrays again for every chunk, so a report does not
    depend on how the run is chunked."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_limit_study_does_not_depend_on_the_chunks(self, monkeypatch, variant):
        vspec = driven_spec(variant, Regime.FULL_MAGNETIC)
        mus = (0.5, 0.05, 0.005)
        want, _ = reference_limit(vspec, mus, 8, 1e-3, 0.2)
        for entries in (solvers.CHUNK_ENTRIES, 200):
            monkeypatch.setattr(solvers, "CHUNK_ENTRIES", entries)
            assert list(run_electrostatic_limit(vspec, mus, 8, 1e-3, 0.2).distances) == want

    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_checks_do_not_depend_on_the_chunks(self, monkeypatch, regime):
        single = make_spec(Variant.SINGLE_MT, regime, voltage=VoltageSignal.sinusoid(1.0, 3.0))
        patch = make_spec(Variant.PATCH_MT, regime, voltage=sinusoid_pair(+1.0))
        reports = []
        for entries in (solvers.CHUNK_ENTRIES, 200):
            monkeypatch.setattr(solvers, "CHUNK_ENTRIES", entries)
            pair = check_patch_voltage_selectivity(patch, 8, 1e-3, 0.2)
            reports.append([check_single_beam_decoupling(single, 8, 1e-3, 0.2).as_dict()]
                           + [report.as_dict() for report in pair])
        assert reports[0] == reports[1]


class TestModalAnalysis:
    def test_mode_energy_fractions_sum_to_one(self, rng):
        sysm = build_system(make_spec(Variant.PATCH_MT, Regime.FULL_MAGNETIC), 8)
        modes = eigenmodes(sysm.M, sysm.K, 8, sysm.null_space(), sysm.band_order())
        fractions = mode_energy_fractions(sysm, modes.shapes)
        assert len(fractions) == modes.shapes.shape[1] == 8
        for j, frac in enumerate(fractions):
            assert sum(frac.values()) == pytest.approx(1.0, rel=1e-10)
            assert set(frac) == {"v", "w", "psi", "qT", "qB"}
            shape = modes.shapes[:, j]  # the one-mode form, dot products per field
            mshape = sysm.M @ shape
            for name, value in frac.items():
                idx = sysm.dofs_of(name)
                assert value == pytest.approx(shape[idx] @ mshape[idx] / (shape @ mshape),
                                              rel=1e-12, abs=1e-15), name

    def test_classification_picks_dominant_field_group(self):
        assert classify_mode({"v": 0.9, "w": 0.05, "q": 0.05}) == "stretching"
        assert classify_mode({"v": 0.1, "w": 0.5, "psi": 0.3, "q": 0.1}) == "bending"
        assert classify_mode({"v": 0.0, "w": 0.0, "qT": 0.5, "qB": 0.5}) == "charge"

    def test_rod_frequency_against_discrete_closed_form(self):
        # with gamma31 = 0 the stretching block is the plain P1 rod, whose
        # discrete spectrum is known in closed form
        n = 16
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, beam=UNCOUPLED)
        co = vspec.beam
        le = 1.0 / n
        theta = np.pi / n
        exact = np.sqrt(
            6.0 * co.alpha11 / co.rho / le**2 * (1.0 - np.cos(theta)) / (2.0 + np.cos(theta))
        )
        assert mode_frequency(vspec, n, "stretching", 1) == pytest.approx(exact, rel=1e-10)

    def test_mode_frequency_on_a_fine_mesh(self):
        # 700 elements give 2103 dofs, of which the search asks for the
        # lowest 16 only.
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, beam=UNCOUPLED)
        assert build_system(vspec, 700).n_dofs == 2103
        co = vspec.beam
        for k in (1, 2, 3):
            exact = k * np.pi * np.sqrt(co.alpha1 / co.rho)
            assert mode_frequency(vspec, 700, "stretching", k) == pytest.approx(exact, rel=1e-3)

    def test_mode_frequency_fails_once_every_mode_is_searched(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        with pytest.raises(NumericalFailure,
                           match=r"^fewer than 1 charge modes in the first \d+$"):
            mode_frequency(vspec, 8, "charge", 1)


class TestConvergence:
    def test_rod_spectrum_converges_at_second_order(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, beam=UNCOUPLED)
        co = vspec.beam
        exact = np.pi * np.sqrt(co.alpha11 / co.rho)
        report = run_convergence_study(
            vspec, element_counts=(8, 16, 32), kind="stretching", number=1, reference=exact
        )
        assert report.passed
        order = report.metric("observed_order").value
        assert order == pytest.approx(2.0, abs=0.1)
        e8 = report.metric("relative_error_n8").value
        e32 = report.metric("relative_error_n32").value
        assert e32 < e8

    def test_needs_three_increasing_meshes(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        with pytest.raises(InputError, match="^a convergence study needs at least 3 meshes$"):
            run_convergence_study(vspec, (8, 16), kind="stretching")
        with pytest.raises(InputError, match="^element counts must be strictly increasing$"):
            run_convergence_study(vspec, (16, 8, 32), kind="stretching")


def timoshenko_det(omega, EI, kGA, rhoA, rhoI, L, clamped):
    """Determinant of the 4x4 boundary matrix of a Timoshenko beam (shear
    coefficient 1) of length L, free at x = L and free or clamped at x = 0,
    at a frequency omega below the shear cutoff sqrt(kGA / rhoI); zero at
    its natural frequencies.

    With w = W(x) e^{i omega t} and psi = Phi(x) e^{i omega t}, a free end
    has zero shear strain W' + Phi and zero moment EI Phi', a clamped end
    W = Phi = 0.  W is a combination of cosh(a x), sinh(a x), cos(b x) and
    sin(b x), s = +-a and s = +-i b the roots of EI kGA s^4 + omega^2
    (kGA rhoI + rhoA EI) s^2 + rhoA omega^2 (rhoI omega^2 - kGA) = 0, and
    the shear balance kGA (W'' + Phi') + rhoA omega^2 W = 0 gives
    Phi' = -(W'' + c W), c = rhoA omega^2 / kGA.
    """
    w2 = omega * omega
    quad = (EI * kGA, w2 * (kGA * rhoI + rhoA * EI), rhoA * w2 * (rhoI * w2 - kGA))
    disc = np.sqrt(quad[1] ** 2 - 4.0 * quad[0] * quad[2])
    a = np.sqrt((disc - quad[1]) / (2.0 * quad[0]))
    b = np.sqrt((disc + quad[1]) / (2.0 * quad[0]))
    c = rhoA * w2 / kGA
    ka, kb = (a * a + c) / a, (c - b * b) / b

    def rows(x, clamp):  # the two end conditions on each of the four solutions at x
        ch, sh, cs, sn = np.cosh(a * x), np.sinh(a * x), np.cos(b * x), np.sin(b * x)
        phi = (-ka * sh, -ka * ch, -kb * sn, kb * cs)
        if clamp:
            return [[ch, sh, cs, sn], phi]
        slope = (a * sh, a * ch, -b * sn, b * cs)  # W'
        moment = (-ka * a * ch, -ka * a * sh, -kb * b * cs, -kb * b * sn)  # Phi'
        return [moment, [s + p for s, p in zip(slope, phi)]]

    return np.linalg.det(np.array(rows(0.0, clamped) + rows(L, False)))


# Euler-Bernoulli roots beta L of the first three bending modes, free-free
# and clamped-free: omega = (beta L)^2 sqrt(EI / rhoA) / L^2.
EB_BETA_L = {False: (4.730040744862704, 7.853204624095838, 10.995607838001671),
             True: (1.875104068711961, 4.694091132974175, 7.854757438237613)}


def timoshenko_root(co, h, L, number=1, clamped=False):
    """(Timoshenko, Euler-Bernoulli) number-th bending frequencies of the
    single beam of thickness h, free-free or clamped-free, with forms.py's
    coefficients: EI = alpha1 h^3/12, kGA = alpha3 h, rhoA = rho h,
    rhoI = rho h^3/12."""
    args = (co.alpha1 * h ** 3 / 12.0, co.alpha3 * h, co.rho * h, co.rho * h ** 3 / 12.0, L,
            clamped)
    eb = [bl ** 2 * np.sqrt(args[0] / args[2]) / L ** 2 for bl in EB_BETA_L[clamped]]
    # Shear and rotary inertia lower every frequency: the number-th sign
    # change of the determinant above 0.2 of EB's first root brackets it.
    grid = np.linspace(0.2 * eb[0], 1.01 * eb[number - 1], 400 * number)
    det = np.array([timoshenko_det(w, *args) for w in grid])
    k = np.flatnonzero(np.sign(det[:-1]) != np.sign(det[1:]))[number - 1]
    return scipy.optimize.brentq(timoshenko_det, grid[k], grid[k + 1], args=args,
                                 xtol=1e-15, rtol=1e-15), eb[number - 1]


class TestTimoshenko:
    """The Mindlin-Timoshenko single beam against Timoshenko beam theory
    (Huang, J. Appl. Mech. 28, 1961; Han, Benaroya & Wei, J. Sound Vib.
    225(5), 1999), electrostatic, free-free or clamped-free."""

    @staticmethod
    def spec(h, bc=BoundaryCondition.FREE_FREE):
        return make_spec(Variant.SINGLE_MT, Regime.ELECTROSTATIC, bc=bc,
                         geometry=BeamGeometry(length=1.0, thickness=h))

    @pytest.mark.parametrize("number, clamped", [(1, False), (2, False), (1, True)])
    def test_thin_root_is_euler_bernoulli(self, number, clamped):
        # The oracle itself: its roots tend to EB's closed form as h -> 0.
        omega, eb = timoshenko_root(self.spec(1e-3).beam, 1e-3, 1.0, number, clamped)
        assert omega < eb and (eb - omega) / eb <= 1e-5

    @pytest.mark.parametrize("h", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("number, bc", [
        (1, BoundaryCondition.FREE_FREE),
        (2, BoundaryCondition.FREE_FREE),
        (3, BoundaryCondition.FREE_FREE),
        (1, BoundaryCondition.CLAMPED_FREE),
    ], ids=["free_free-1", "free_free-2", "free_free-3", "clamped_free-1"])
    def test_bending_root_converges_at_second_order(self, h, number, bc):
        vspec, clamped = self.spec(h, bc), bc == BoundaryCondition.CLAMPED_FREE
        omega, eb = timoshenko_root(vspec.beam, h, 1.0, number, clamped)
        # Far enough from EB to tell them apart; shear moves the clamped
        # fundamental least, by 1.7e-3 at h/L = 0.05.
        assert (eb - omega) / eb >= (1e-3 if clamped else 5e-3)
        report = run_convergence_study(vspec, (16, 32, 64, 128), kind="bending",
                                       number=number, reference=omega)
        assert report.passed
        assert report.metric("observed_order").value >= 1.8
        assert report.metric("relative_error_n128").value <= 1e-3

    def test_thin_beam_does_not_lock(self):
        # At h/L = 1e-3 shear locking would stiffen the beam far above EB.
        vspec = self.spec(1e-3)
        _, eb = timoshenko_root(vspec.beam, 1e-3, 1.0)
        assert abs(mode_frequency(vspec, 128, "bending", 1) - eb) / eb <= 1e-3


class TestWaveSpeeds:
    def test_golden_material_speeds(self):
        # alpha1 = 2, beta3 = 1, g3b3 = 1, rho = mu = 1: the coupled pencil
        # has eigenvalues (3 +- sqrt 5)/2, whose roots are the golden ratio
        # and its reciprocal.
        fast, slow = stretching_wave_speeds(GOLDEN)
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        assert fast == pytest.approx(phi, rel=1e-14)
        assert slow == pytest.approx(phi - 1.0, rel=1e-14)

    def test_speeds_match_generalized_eigenvalues(self):
        for co in (GOLDEN, MaterialParams(
            rho=2.5, c11=3.0, c55=1.0, gamma31=0.8, gamma15=0.1,
            eps1=1.0, eps3=0.7, mu=1.7,
        )):
            A = np.array([[co.alpha1, -co.g3b3], [-co.g3b3, co.beta3]])
            D = np.diag([co.rho, co.mu])
            lam = np.sort(scipy.linalg.eigvalsh(A, D))
            fast, slow = stretching_wave_speeds(co)
            assert slow == pytest.approx(np.sqrt(lam[0]), rel=1e-12)
            assert fast == pytest.approx(np.sqrt(lam[1]), rel=1e-12)
            # product of the squared speeds is det(A)/det(D) = alpha11 beta3 / (rho mu)
            assert (fast * slow) ** 2 == pytest.approx(
                co.alpha11 * co.beta3 / (co.rho * co.mu), rel=1e-12
            )

    def test_requires_dynamic_charge_layer(self):
        patch = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC)
        with pytest.raises(InputError,
                           match="^time of flight runs on a single fully dynamic beam$"):
            pulse_time_of_flight(patch, n_elements=64)
        electro = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        with pytest.raises(InputError,
                           match="^time of flight runs on a single fully dynamic beam$"):
            pulse_time_of_flight(electro, n_elements=64)

    @pytest.mark.parametrize("variant", [Variant.SINGLE_EB, Variant.SINGLE_MT])
    def test_clamped_beam_measures_the_free_free_speed(self, variant):
        # A clamped root eliminates the first v dof; the pulse is laid on the
        # surviving ones and reaches the probes before any reflection from
        # the root, so the measured speed is the free-free one.
        free, clamped = (
            pulse_time_of_flight(make_spec(variant, Regime.FULL_MAGNETIC, bc=bc), 512)
            for bc in (BoundaryCondition.FREE_FREE, BoundaryCondition.CLAMPED_FREE))
        assert clamped.passed
        for name in ("fast_speed_measured", "fast_speed_relative_error"):
            assert clamped.metric(name).value == free.metric(name).value
