"""Linear algebra helpers, eigenmodes and the implicit midpoint integrator."""

import os

import numpy as np
import pytest

from piezobeam import solvers
from piezobeam.assembly import build_system
from piezobeam.config import parse_config
from piezobeam.errors import NotPositiveDefinite
from piezobeam.kernels import midpoint_sweep
from piezobeam.materials import (
    BoundaryCondition,
    Regime,
    Variant,
    VoltageSignal,
)
from piezobeam.solvers import (
    FactorizedOperator,
    eigenmodes,
    simulate,
    solve_spd,
    step_midpoint,
    step_operator,
)

from modelzoo import UNCOUPLED, make_spec

SHIPPED = [os.path.join(os.path.dirname(__file__), "..", "configs", name)
           for name in ("single_beam.ini", "patch_bimorph.ini")]


def shipped_system(path):
    with open(path, encoding="utf-8") as fh:
        config = parse_config(fh.read())
    return build_system(config.validated(), config.n_elements)


def scalar_sweep(dt, n_steps, k=1.0):
    """Unit oscillator x'' = -k x, x(0)=1, run through midpoint_sweep."""
    M = np.eye(1)
    K = np.array([[k]])
    op = FactorizedOperator.build(M + 0.25 * dt * dt * K)
    bvolts = np.zeros((n_steps, 1))
    rec = np.arange(n_steps + 1)
    return midpoint_sweep(
        op.L, M, K, bvolts, np.array([1.0]), np.array([0.0]), dt, rec, op.perm
    )


class TestSpdSolver:
    def test_matches_general_solver(self, rng):
        R = rng.standard_normal((12, 12))
        A = R @ R.T + 12.0 * np.eye(12)
        b = rng.standard_normal(12)
        assert np.allclose(solve_spd(A, b), np.linalg.solve(A, b), rtol=1e-12, atol=1e-13)

    def test_rejects_indefinite_matrix(self):
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(A, np.ones(2))
        with pytest.raises(NotPositiveDefinite):
            FactorizedOperator.build(A)

    def test_rejects_non_finite_matrix(self):
        A = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            FactorizedOperator.build(A)

    def test_banded_factor_keeps_decoupled_blocks_exact(self):
        # The single beam's bending block is decoupled from stretching and
        # charge: a load on the other fields must leave bending at exact
        # zeros, which c05's bitwise check relies on.
        sysm = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 512)
        op = step_operator(sysm, 1e-3)
        assert op.L.shape[0] - 1 <= 3  # half-bandwidth after the ordering
        bend = sysm.dofs_of("w")
        b = np.ones(sysm.n_dofs)
        b[bend] = 0.0
        assert np.all(op.solve(b)[bend] == 0.0)

    def test_refined_solve_is_accurate_on_a_stiff_coupled_system(self):
        # Clamped patch model with grounded charges, condition ~1e8.  The
        # reference is refined with extended-precision residuals until it is
        # exact to round-off; an unrefined banded or dense solve misses it by
        # ~1e-12 relative, the refined one by ~1e-16.
        sysm = build_system(make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC,
                                      bc=BoundaryCondition.CLAMPED_FREE), 32)
        keep = np.concatenate([sysm.mechanical_dofs(), sysm.dofs_of("qT")[1:],
                               sysm.dofs_of("qB")[1:]])
        A = sysm.K[keep][:, keep]
        b = (sysm.B @ np.ones(2))[keep]
        dense = A.toarray()
        ref = np.linalg.solve(dense, b)
        for _ in range(3):
            resid = b - dense.astype(np.longdouble) @ ref
            ref = ref + np.linalg.solve(dense, resid.astype(float))
        x = solve_spd(A, b)
        assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_factorization_reusable(self, rng):
        R = rng.standard_normal((6, 6))
        A = R @ R.T + 6.0 * np.eye(6)
        op = FactorizedOperator.build(A)
        for _ in range(3):
            b = rng.standard_normal(6)
            assert np.allclose(A @ op.solve(b), b, rtol=1e-11, atol=1e-12)


class TestEigenmodes:
    def test_discrete_rod_spectrum_closed_form(self):
        # For the P1 consistent-mass free-free rod the discrete eigenvalues
        # are known exactly: lambda_j = (6 c^2/le^2)(1-cos th)/(2+cos th),
        # th = j pi / n.  With gamma31 = 0 the stretching block decouples, so
        # these must appear verbatim in the assembled spectrum.
        n = 8
        sysm = build_system(make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, beam=UNCOUPLED), n)
        co = sysm.vspec.beam
        le = 1.0 / n
        c2 = co.alpha11 / co.rho
        theta = np.arange(1, n + 1) * np.pi / n
        rod = np.sqrt(6.0 * c2 / le**2 * (1.0 - np.cos(theta)) / (2.0 + np.cos(theta)))
        modes = eigenmodes(sysm.M, sysm.K, n_modes=sysm.n_dofs)
        for target in rod:
            assert np.min(np.abs(modes.omegas - target)) <= 1e-9 * target

    def test_zero_mode_counts(self):
        # free-free: axial + transverse translation + rotation = 3 rigid
        # modes; the dynamic charge adds one constant-charge gauge mode.
        electro = build_system(make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC), 8)
        full = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 8)
        assert eigenmodes(electro.M, electro.K, 6).n_zero == 3
        assert eigenmodes(full.M, full.K, 6).n_zero == 4
        clamped = build_system(
            make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, bc=BoundaryCondition.CLAMPED_FREE), 8
        )
        assert eigenmodes(clamped.M, clamped.K, 6).n_zero == 0

    def test_shapes_mass_orthonormal(self):
        sysm = build_system(make_spec(Variant.PATCH_MT, Regime.FULL_MAGNETIC), 8)
        modes = eigenmodes(sysm.M, sysm.K, n_modes=10)
        gram = modes.shapes.T @ sysm.M @ modes.shapes
        assert np.allclose(gram, np.eye(modes.shapes.shape[1]), atol=1e-9)
        assert np.all(np.diff(modes.omegas) >= -1e-12)

    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_shift_invert_branch_matches_dense_solve(self, path, monkeypatch):
        sysm = shipped_system(path)
        dense = eigenmodes(sysm.M, sysm.K, 16)
        monkeypatch.setattr(solvers, "DENSE_LIMIT", sysm.n_dofs - 1)
        lanczos = eigenmodes(sysm.M, sysm.K, 16)
        assert lanczos.n_zero == dense.n_zero
        z = dense.n_zero
        assert np.allclose(lanczos.omegas[z:], dense.omegas[z:], rtol=1e-6, atol=0.0)
        gram = lanczos.shapes.T @ (sysm.M @ lanczos.shapes)
        assert np.allclose(gram, np.eye(16), atol=1e-9)
        again = eigenmodes(sysm.M, sysm.K, 16)
        assert np.array_equal(again.omegas, lanczos.omegas)


class TestMidpointRecurrence:
    def test_first_two_steps_exact_rational(self):
        # dt = 0.1, m = k = 1: the recurrence gives x1 = 399/401,
        # v1 = -40/401, x2 = 157601/160801, v2 = -31920/160801.
        X, V, work = scalar_sweep(0.1, 2)
        assert X[1, 0] == pytest.approx(399.0 / 401.0, rel=1e-14)
        assert V[1, 0] == pytest.approx(-40.0 / 401.0, rel=1e-14)
        assert X[2, 0] == pytest.approx(157601.0 / 160801.0, rel=1e-14)
        assert V[2, 0] == pytest.approx(-31920.0 / 160801.0, rel=1e-14)
        assert np.all(work == 0.0)

    def test_second_order_accuracy(self):
        # global error against cos(t) shrinks ~4x when dt halves (measured
        # away from the extrema of cos, where the phase error is first order)
        t_end = 1.0
        errs = []
        for n in (100, 200):
            dt = t_end / n
            X, _, _ = scalar_sweep(dt, n)
            errs.append(abs(X[-1, 0] - np.cos(t_end)))
        ratio = errs[0] / errs[1]
        assert 3.6 <= ratio <= 4.4

    def test_time_reversibility(self, rng):
        sysm = build_system(make_spec(Variant.SINGLE_MT, Regime.FULL_MAGNETIC), 6)
        x0 = rng.standard_normal(sysm.n_dofs)
        v0 = rng.standard_normal(sysm.n_dofs)
        fwd = simulate(sysm, x0, v0, dt=1e-3, t_end=0.2)
        back = simulate(sysm, fwd.X[-1], -fwd.V[-1], dt=1e-3, t_end=0.2)
        assert np.abs(back.X[-1] - x0).max() <= 1e-10 * max(1.0, np.abs(x0).max())
        assert np.abs(back.V[-1] + v0).max() <= 1e-10 * max(1.0, np.abs(v0).max())

    def test_single_step_helper_matches_sweep(self, rng):
        vspec = make_spec(
            Variant.SINGLE_EB, Regime.FULL_MAGNETIC,
            voltage=VoltageSignal.sinusoid(1.0, 2.0),
        )
        sysm = build_system(vspec, 6)
        x0 = rng.standard_normal(sysm.n_dofs)
        v0 = rng.standard_normal(sysm.n_dofs)
        traj = simulate(sysm, x0, v0, dt=0.01, t_end=0.03)
        x, v = x0, v0
        for i in range(3):
            x, v = step_midpoint(sysm, x, v, t=0.01 * i, dt=0.01)
        assert np.allclose(x, traj.X[-1], rtol=1e-12, atol=1e-14)
        assert np.allclose(v, traj.V[-1], rtol=1e-12, atol=1e-14)

    def test_step_operator_cached_per_dt(self):
        sysm = build_system(make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC), 4)
        assert step_operator(sysm, 0.01) is step_operator(sysm, 0.01)
        assert step_operator(sysm, 0.01) is not step_operator(sysm, 0.02)


class TestSweep:
    def test_sweep_is_deterministic(self, rng):
        X1, V1, _ = scalar_sweep(0.05, 100)
        X2, V2, _ = scalar_sweep(0.05, 100)
        assert np.array_equal(X1, X2) and np.array_equal(V1, V2)

    def test_matches_dense_reference_loop(self):
        # The shipped patch model at 32 elements (165 dofs), stepped by the
        # textbook recurrence with dense matrices and a general solver.
        sysm = shipped_system(SHIPPED[1])
        assert sysm.n_dofs == 165
        dt, n_steps = 1e-3, 400
        zero = np.zeros(sysm.n_dofs)
        traj = simulate(sysm, zero, zero, dt=dt, t_end=n_steps * dt)
        M, K = sysm.M.toarray(), sysm.K.toarray()
        S = M + 0.25 * dt * dt * K
        x, v = zero, zero
        X, V = [x], [v]
        for step in range(n_steps):
            load = sysm.B @ sysm.voltages_at(dt * (step + 0.5))
            rhs = M @ v - 0.25 * dt * dt * (K @ v) - dt * (K @ x) + dt * load
            v_new = np.linalg.solve(S, rhs)
            x, v = x + 0.5 * dt * (v + v_new), v_new
            X.append(x)
            V.append(v)
        X, V = np.array(X), np.array(V)
        assert np.abs(traj.X - X).max() <= 1e-12 * np.abs(X).max()
        assert np.abs(traj.V - V).max() <= 1e-12 * np.abs(V).max()


class TestSimulate:
    def _forced_system(self):
        vspec = make_spec(
            Variant.PATCH_EB, Regime.FULL_MAGNETIC,
            voltage=(VoltageSignal.sinusoid(1.0, 3.0), VoltageSignal.sinusoid(-0.5, 2.0)),
        )
        return build_system(vspec, 6)

    def test_recording_stride_keeps_final_step(self, rng):
        sysm = self._forced_system()
        zero = np.zeros(sysm.n_dofs)
        traj = simulate(sysm, zero, zero, dt=0.01, t_end=0.1, stride=3)
        assert np.allclose(traj.t, [0.0, 0.03, 0.06, 0.09, 0.10])
        dense = simulate(sysm, zero, zero, dt=0.01, t_end=0.1, stride=1)
        assert np.array_equal(traj.X[-1], dense.X[-1])
        assert np.array_equal(traj.work, dense.work[[0, 3, 6, 9, 10]])

    def test_energy_ledger_matches_matrices(self, rng):
        sysm = self._forced_system()
        x0 = 0.01 * rng.standard_normal(sysm.n_dofs)
        v0 = 0.01 * rng.standard_normal(sysm.n_dofs)
        traj = simulate(sysm, x0, v0, dt=0.005, t_end=0.25)
        i = len(traj) // 2
        x, v = traj.X[i], traj.V[i]
        assert traj.stored[i] == pytest.approx(0.5 * x @ sysm.K @ x, rel=1e-11, abs=1e-14)
        qv = np.zeros_like(v)
        qd = sysm.charge_dofs()
        qv[qd] = v[qd]
        assert traj.magnetic[i] == pytest.approx(0.5 * qv @ sysm.M @ qv, rel=1e-11, abs=1e-14)
        assert traj.kinetic[i] + traj.magnetic[i] == pytest.approx(
            0.5 * v @ sysm.M @ v, rel=1e-11, abs=1e-14
        )
        # the ledger balances: energy gained equals work injected
        scale = max(traj.total.max(), 1e-30)
        assert np.abs(traj.balance_residual).max() <= 1e-10 * scale

    def test_trajectory_accessors(self, rng):
        sysm = self._forced_system()
        zero = np.zeros(sysm.n_dofs)
        traj = simulate(sysm, zero, zero, dt=0.01, t_end=0.05)
        w = traj.field_values("w")
        assert w.shape == (6, len(sysm.value_dofs_of("w")))

    def test_argument_validation(self):
        sysm = self._forced_system()
        zero = np.zeros(sysm.n_dofs)
        with pytest.raises(ValueError):
            simulate(sysm, np.zeros(3), zero, dt=0.01, t_end=0.1)
        with pytest.raises(ValueError):
            simulate(sysm, zero, zero, dt=0.01, t_end=0.1, stride=0)
        with pytest.raises(ValueError):
            simulate(sysm, zero, zero, dt=-0.01, t_end=0.1)
