"""Executable physics checks: decoupling, voltage parity selectivity, the
vanishing-permeability limit, modal convergence and wave-speed measurements."""

import numpy as np
import pytest
import scipy.linalg

from piezobeam.assembly import build_system
from piezobeam.errors import ConvergenceFailure, IllegalRegime, InsufficientMeshes
from piezobeam.materials import (
    MaterialParams,
    Regime,
    Variant,
    VoltageSignal,
    derive_coefficients,
    stretching_wave_speeds,
)
from piezobeam.scenarios import (
    LimitStudy,
    check_patch_voltage_selectivity,
    check_single_beam_decoupling,
    classify_mode,
    mode_energy_fractions,
    mode_frequency,
    run_convergence_study,
    run_electrostatic_limit,
    static_solution,
)
from piezobeam.solvers import eigenmodes

from modelzoo import GOLDEN, PATCH_COMBOS, SINGLE_COMBOS, UNCOUPLED, make_spec


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
        with pytest.raises(IllegalRegime):
            check_single_beam_decoupling(vspec, n_elements=8, dt=1e-3, t_end=0.1)


class TestPatchVoltageSelectivity:
    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_equal_voltages_drive_stretching_only(self, variant, regime):
        vspec = make_spec(variant, regime, voltage=sinusoid_pair(+1.0))
        report = check_patch_voltage_selectivity(
            vspec, mode="symmetric", n_elements=8, dt=1e-3, t_end=0.5
        )
        assert report.passed
        assert report.metric("quiet_over_active_ratio").value <= 1e-12
        assert report.metric("active_response_max").value > 0.0

    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_opposite_voltages_drive_bending_only(self, variant, regime):
        vspec = make_spec(variant, regime, voltage=sinusoid_pair(-1.0))
        report = check_patch_voltage_selectivity(
            vspec, mode="antisymmetric", n_elements=8, dt=1e-3, t_end=0.5
        )
        assert report.passed

    @pytest.mark.parametrize("regime", (Regime.FULL_MAGNETIC, Regime.ELECTROSTATIC))
    def test_corrupted_coupling_is_caught(self, regime):
        # negative control: flipping one coupling sign must break the parity
        vspec = make_spec(Variant.PATCH_EB, regime, voltage=sinusoid_pair(+1.0))
        report = check_patch_voltage_selectivity(
            vspec, mode="symmetric", n_elements=8, dt=1e-3, t_end=0.5, corrupt_sign=True
        )
        assert not report.passed
        assert report.metric("quiet_over_active_ratio").value > 1e-6

    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_mirror_gaps_exact_at_512_elements(self, variant, regime):
        vspec = make_spec(variant, regime, voltage=sinusoid_pair())
        sysm = build_system(vspec, 512)
        assert (sysm.K != sysm.K.T).nnz == 0
        assert (sysm.M != sysm.M.T).nnz == 0
        report = check_patch_voltage_selectivity(vspec, "symmetric", 512, 1e-3, 0.02)
        for name in ("mass_mirror_gap", "stiffness_mirror_gap", "input_map_mirror_gap",
                     "combined_load_on_quiet_block"):
            assert report.metric(name).value == 0.0, name
        assert report.passed

    def test_rejects_single_beam_and_unknown_mode(self):
        single = make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC)
        with pytest.raises(IllegalRegime):
            check_patch_voltage_selectivity(single, "symmetric", 8, 1e-3, 0.1)
        patch = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC)
        with pytest.raises(ValueError):
            check_patch_voltage_selectivity(patch, "diagonal", 8, 1e-3, 0.1)


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
        with pytest.raises(IllegalRegime, match="never moves"):
            run_electrostatic_limit(vspec, mus=(0.1, 0.01), n_elements=6, dt=1e-3, t_end=0.2)

    def test_requires_fully_dynamic_regime(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        with pytest.raises(IllegalRegime):
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


class TestModalAnalysis:
    def test_mode_energy_fractions_sum_to_one(self, rng):
        sysm = build_system(make_spec(Variant.PATCH_MT, Regime.FULL_MAGNETIC), 8)
        modes = eigenmodes(sysm.M, sysm.K, 8, sysm.null_space())
        for j in range(modes.shapes.shape[1]):
            frac = mode_energy_fractions(sysm, modes.shapes[:, j])
            assert sum(frac.values()) == pytest.approx(1.0, rel=1e-10)
            assert set(frac) == {"v", "w", "psi", "qT", "qB"}

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
        with pytest.raises(ConvergenceFailure):
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
        with pytest.raises(InsufficientMeshes):
            run_convergence_study(vspec, (8, 16), kind="stretching")
        with pytest.raises(InsufficientMeshes):
            run_convergence_study(vspec, (16, 8, 32), kind="stretching")


class TestWaveSpeeds:
    def test_golden_material_speeds(self):
        # alpha1 = 2, beta3 = 1, g3b3 = 1, rho = mu = 1: the coupled pencil
        # has eigenvalues (3 +- sqrt 5)/2, whose roots are the golden ratio
        # and its reciprocal.
        co = derive_coefficients(GOLDEN)
        fast, slow = stretching_wave_speeds(co)
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        assert fast == pytest.approx(phi, rel=1e-14)
        assert slow == pytest.approx(phi - 1.0, rel=1e-14)

    def test_speeds_match_generalized_eigenvalues(self):
        for mat in (GOLDEN, MaterialParams(
            rho=2.5, c11=3.0, c55=1.0, gamma31=0.8, gamma15=0.1,
            eps1=1.0, eps3=0.7, mu=1.7,
        )):
            co = derive_coefficients(mat)
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
        from piezobeam.scenarios import pulse_time_of_flight

        with pytest.raises(IllegalRegime):
            pulse_time_of_flight(patch, n_elements=64)
        electro = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        with pytest.raises(IllegalRegime):
            pulse_time_of_flight(electro, n_elements=64)
