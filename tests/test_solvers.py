"""Linear algebra helpers, eigenmodes and the implicit midpoint integrator."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from piezobeam.assembly import build_system
from piezobeam.config import parse_config
from piezobeam import scenarios, solvers
from piezobeam.errors import ConvergenceFailure, EnergyImbalance, NotPositiveDefinite
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
    step_operator,
)

from modelzoo import PATCH_COMBOS, UNCOUPLED, make_spec

SHIPPED = [os.path.join(os.path.dirname(__file__), "..", "configs", name)
           for name in ("single_beam.ini", "patch_bimorph.ini")]


def shipped_system(path):
    with open(path, encoding="utf-8") as fh:
        config = parse_config(fh.read())
    return build_system(config.validated(), config.n_elements)


def band_to_dense(ab, lower):
    """Dense matrix of a band in LAPACK storage, shape (p+1, n)."""
    p, n = ab.shape[0] - 1, ab.shape[1]
    D = np.zeros((n, n))
    for d in range(p + 1):
        i = np.arange(n - d)
        if lower:
            D[i + d, i] = ab[d, i]
        else:
            D[i, i + d] = ab[p - d, i + d]
    return D


def banded_spd(rng, n, p):
    """Random diagonally dominant SPD matrix with every diagonal up to p filled."""
    A = np.zeros((n, n))
    for d in range(1, p + 1):
        off = rng.standard_normal(n - d)
        A += np.diag(off, d) + np.diag(off, -d)
    return A + np.diag(np.abs(A).sum(axis=1) + 1.0 + rng.random(n))


def scalar_sweep(dt, n_steps, k=1.0):
    """Unit oscillator x'' = -k x, x(0)=1, run through midpoint_sweep."""
    M = np.eye(1)
    K = np.array([[k]])
    op = FactorizedOperator.build(M + 0.25 * dt * dt * K)
    x0, v0, load = np.array([1.0]), np.array([0.0]), np.zeros((n_steps, 1))
    _, _, X, V, vbar = midpoint_sweep(op.L, op.U, M, K, load, x0, v0, dt,
                                      np.arange(1, n_steps + 1), op.perm)
    work = np.cumsum(np.append(0.0, dt * (vbar * load).sum(axis=1)))
    return np.vstack([x0, X]), np.vstack([v0, V]), work


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
        keep = np.concatenate([sysm.class_dofs("stretching", "bending"), sysm.dofs_of("qT")[1:],
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

    @pytest.mark.parametrize("path", SHIPPED)
    def test_forward_sweeps_solve_the_step_matrix(self, path, rng):
        # U is L^T in upper band storage; both are Fortran ordered, as BLAS
        # would copy anything else on every solve.  The two sweeps match a
        # dense solve, for one right-hand side or several.
        sysm = shipped_system(path)
        dt = 1e-3
        op = step_operator(sysm, dt)
        assert op.L.flags.f_contiguous and op.U.flags.f_contiguous
        assert np.array_equal(band_to_dense(op.U, lower=False),
                              band_to_dense(op.L, lower=True).T)
        S = (sysm.M + (dt * dt / 4.0) * sysm.K).toarray()
        b = rng.standard_normal((sysm.n_dofs, 3))
        want = np.linalg.solve(S, b)
        got = op.solve(b)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert np.array_equal(op.solve(b[:, 1]), got[:, 1])


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

    @pytest.mark.parametrize("k", [1, 6])
    def test_zero_mode_counts(self, k):
        # free-free: axial + transverse translation + rotation = 3 rigid
        # modes; the dynamic charge adds one constant-charge gauge mode.
        # The count does not depend on how many modes are asked for.
        electro = build_system(make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC), 8)
        full = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 8)
        assert eigenmodes(electro.M, electro.K, k).n_zero == 3
        assert eigenmodes(full.M, full.K, k).n_zero == 4
        clamped = build_system(
            make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, bc=BoundaryCondition.CLAMPED_FREE), 8
        )
        assert eigenmodes(clamped.M, clamped.K, k).n_zero == 0

    @pytest.mark.parametrize("low", [
        [1e-11, 3.9e-10],                # a clamped beam's first two bending modes
        [1e-17, 2e-17, 3e-17, 5e-11],    # a physical mode just above the threshold
        [1e-17, 2e-17, 2e-11, 1e-8],     # a zero mode just below it
    ], ids=["physical-below", "physical-near", "zero-near"])
    def test_refuses_a_spectrum_without_a_gap_at_the_zero_threshold(self, low):
        def pencil(low):
            # M = I; the lowest eigenvalues of K are low * s, the rest of
            # order s = mean(diag K) / mean(diag M).
            bulk = np.linspace(1.0, 2.0, 40)
            s = bulk.sum() / (len(low) + len(bulk))
            K = scipy.sparse.diags(np.concatenate([np.array(low) * s, bulk])).tocsr()
            return scipy.sparse.identity(K.shape[0], format="csr"), K

        with pytest.raises(ConvergenceFailure, match="no clear gap"):
            eigenmodes(*pencil(low), 16)
        assert eigenmodes(*pencil([1e-17, 2e-17, 3e-17, 1e-9]), 16).n_zero == 3

    def test_counts_zero_modes_past_the_first_solve(self):
        # 20 zero modes, more than one solve of 16 modes returns
        low = np.arange(1, 21) * 1e-17
        K = scipy.sparse.diags(np.concatenate([low, np.linspace(1.0, 2.0, 40)])).tocsr()
        modes = eigenmodes(scipy.sparse.identity(60, format="csr"), K, 1)
        assert len(modes.omegas) == 1
        assert modes.n_zero == 20

    def test_refuses_to_count_zero_modes_on_a_too_fine_clamped_beam(self):
        # At 8192 elements the first bending mode of a clamped beam falls to
        # 1.6e-11 s, below the zero-mode threshold.
        sysm = build_system(
            make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, bc=BoundaryCondition.CLAMPED_FREE),
            8192)
        with pytest.raises(ConvergenceFailure, match="no clear gap"):
            eigenmodes(sysm.M, sysm.K, 16)

    def test_shapes_mass_orthonormal(self):
        sysm = build_system(make_spec(Variant.PATCH_MT, Regime.FULL_MAGNETIC), 8)
        modes = eigenmodes(sysm.M, sysm.K, n_modes=10)
        gram = modes.shapes.T @ sysm.M @ modes.shapes
        assert np.allclose(gram, np.eye(modes.shapes.shape[1]), atol=1e-9)
        assert np.all(np.diff(modes.omegas) >= -1e-12)

    @pytest.mark.parametrize("path, n_zero", zip(SHIPPED, (4, 5)),
                             ids=[os.path.basename(p) for p in SHIPPED])
    def test_matches_dense_solve(self, path, n_zero):
        # Reference: the full dense spectrum of the shipped model at 32
        # elements, whose zero modes sit far below the first physical one.
        sysm = shipped_system(path)
        ref = scipy.linalg.eigh(sysm.K.toarray(), sysm.M.toarray(), eigvals_only=True)
        assert np.abs(ref[:n_zero]).max() <= 1e-6 * ref[n_zero]
        modes = eigenmodes(sysm.M, sysm.K, 16)
        assert modes.n_zero == n_zero
        assert np.allclose(modes.omegas[n_zero:], np.sqrt(ref[n_zero:16]), rtol=1e-7, atol=0.0)
        gram = modes.shapes.T @ (sysm.M @ modes.shapes)
        assert np.allclose(gram, np.eye(16), atol=1e-9)
        again = eigenmodes(sysm.M, sysm.K, 16)
        assert np.array_equal(again.omegas, modes.omegas)
        assert np.array_equal(again.shapes, modes.shapes)


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
            load = sysm.B @ [sig(dt * (step + 0.5)) for sig in sysm.vspec.voltages]
            rhs = M @ v - 0.25 * dt * dt * (K @ v) - dt * (K @ x) + dt * load
            v_new = np.linalg.solve(S, rhs)
            x, v = x + 0.5 * dt * (v + v_new), v_new
            X.append(x)
            V.append(v)
        X, V = np.array(X), np.array(V)
        assert np.abs(traj.X - X).max() <= 1e-12 * np.abs(X).max()
        assert np.abs(traj.V - V).max() <= 1e-12 * np.abs(V).max()

    @pytest.mark.parametrize("split", [1, 112, 299])
    def test_two_calls_continue_as_one(self, rng, split):
        # A forced patch run cut at any step, the second call starting from
        # the state the first returned, is bitwise the run made in one call.
        sysm = shipped_system(SHIPPED[1])
        dt, n_steps = 1e-3, 300
        op = step_operator(sysm, dt)
        t_mid = dt * (np.arange(n_steps) + 0.5)
        load = np.column_stack([sig(t_mid) for sig in sysm.vspec.voltages]) @ sysm.B.T
        x0 = 1e-3 * rng.standard_normal(sysm.n_dofs)
        v0 = 1e-3 * rng.standard_normal(sysm.n_dofs)
        rec = np.arange(7, n_steps + 1, 7)
        L, U, M, K = op.L, op.U, sysm.M, sysm.K
        whole = midpoint_sweep(L, U, M, K, load, x0, v0, dt, rec, op.perm)
        x1, v1, X1, V1, vbar1 = midpoint_sweep(L, U, M, K, load[:split], x0, v0, dt,
                                               rec[rec <= split], op.perm)
        x2, v2, X2, V2, vbar2 = midpoint_sweep(L, U, M, K, load[split:], x1, v1, dt,
                                               rec[rec > split] - split, op.perm)
        for got, want in zip((x2, v2, np.vstack([X1, X2]), np.vstack([V1, V2]),
                              np.vstack([vbar1, vbar2])), whole):
            assert np.array_equal(got, want)
        assert len(whole[2]) == len(rec) and len(whole[4]) == n_steps


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
        qd = sysm.class_dofs("charge")
        qv[qd] = v[qd]
        assert traj.magnetic[i] == pytest.approx(0.5 * qv @ sysm.M @ qv, rel=1e-11, abs=1e-14)
        assert traj.kinetic[i] + traj.magnetic[i] == pytest.approx(
            0.5 * v @ sysm.M @ v, rel=1e-11, abs=1e-14
        )
        # the ledger balances: energy gained equals work injected
        scale = max(traj.total.max(), 1e-30)
        assert np.abs(traj.balance_residual).max() <= 1e-10 * scale

    def test_argument_validation(self):
        sysm = self._forced_system()
        zero = np.zeros(sysm.n_dofs)
        with pytest.raises(ValueError):
            simulate(sysm, np.zeros(3), zero, dt=0.01, t_end=0.1)
        with pytest.raises(ValueError):
            simulate(sysm, zero, zero, dt=0.01, t_end=0.1, stride=0)
        with pytest.raises(ValueError):
            simulate(sysm, zero, zero, dt=-0.01, t_end=0.1)


def shipped_spec(path):
    with open(path, encoding="utf-8") as fh:
        config = parse_config(fh.read())
    return config.validated(), config


def assert_batch_is_separate_runs(systems, x0s, v0s, dt, t_end, stride=1):
    """Every block of one batched sweep equals its own run, bit for bit."""
    batch = simulate(systems, x0s, v0s, dt, t_end, stride=stride)
    assert len(batch) == len(systems)
    for k, (system, x0, v0, traj) in enumerate(zip(systems, x0s, v0s, batch)):
        alone = simulate(system, x0, v0, dt, t_end, stride=stride)
        for name in ("t", "X", "V", "kinetic", "stored", "magnetic", "work"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), (k, name)


class TestBatch:
    def test_limit_systems_run_as_one_sweep(self):
        vspec, config = shipped_spec(SHIPPED[1])
        systems = [build_system(replace(vspec, regime=Regime.ELECTROSTATIC), config.n_elements)]
        systems += [build_system(scenarios._with_mu(vspec, mu), config.n_elements)
                    for mu in (5e-1, 5e-2, 5e-3, 5e-4)]
        zeros = [np.zeros(s.n_dofs) for s in systems]
        assert_batch_is_separate_runs(systems, zeros, zeros, config.dt, config.t_end)

    def test_patch_check_drives_run_as_one_sweep(self):
        vspec, config = shipped_spec(SHIPPED[1])
        systems = [scenarios._selectivity_setup(vspec, mode, config.n_elements, False)[0]
                   for mode in ("symmetric", "antisymmetric")]
        zeros = [np.zeros(s.n_dofs) for s in systems]
        assert_batch_is_separate_runs(systems, zeros, zeros, config.dt, config.t_end)

    @pytest.mark.parametrize("t_end", [0.5, 0.0])
    def test_mixed_bandwidths_at_a_stride(self, rng, t_end):
        systems = [shipped_system(SHIPPED[0]), shipped_system(SHIPPED[1]),
                   shipped_system(SHIPPED[0])]
        assert [step_operator(s, 1e-3).L.shape[0] - 1 for s in systems] == [3, 12, 3]
        x0s = [1e-3 * rng.standard_normal(s.n_dofs) for s in systems]
        v0s = [1e-3 * rng.standard_normal(s.n_dofs) for s in systems]
        assert_batch_is_separate_runs(systems, x0s, v0s, 1e-3, t_end, stride=7)

    @pytest.mark.parametrize("steps_per_chunk", [1, 5])
    def test_chunk_size_changes_no_bit(self, rng, monkeypatch, steps_per_chunk):
        # Loads, work and ledger are formed per chunk of steps; a chunk of
        # one step records lone rows, whose energies must sum as in a block.
        systems = [shipped_system(SHIPPED[1]), shipped_system(SHIPPED[0])]
        x0s = [1e-3 * rng.standard_normal(s.n_dofs) for s in systems]
        v0s = [1e-3 * rng.standard_normal(s.n_dofs) for s in systems]
        default = simulate(systems, x0s, v0s, 1e-3, 0.3, stride=2)
        n = sum(s.n_dofs for s in systems)
        monkeypatch.setattr(solvers, "CHUNK_ENTRIES", steps_per_chunk * n)
        small = simulate(systems, x0s, v0s, 1e-3, 0.3, stride=2)
        for a, b in zip(default, small):
            for name in ("X", "V", "kinetic", "stored", "magnetic", "work"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_without_velocities(self):
        sysm = shipped_system(SHIPPED[1])
        zero = np.zeros(sysm.n_dofs)
        kept = simulate(sysm, zero, zero, 1e-3, 0.3)
        dropped = simulate(sysm, zero, zero, 1e-3, 0.3, velocities=False)
        assert dropped.V is None
        for name in ("X", "kinetic", "stored", "magnetic", "work"):
            assert np.array_equal(getattr(kept, name), getattr(dropped, name)), name

    def test_unbalanced_block_is_named(self):
        vspec, config = shipped_spec(SHIPPED[0])
        systems = [build_system(scenarios._with_mu(vspec, mu), config.n_elements)
                   for mu in (0.5, 1e-18, 0.05)]
        zeros = [np.zeros(s.n_dofs) for s in systems]
        with pytest.raises(EnergyImbalance, match="^system 1 of 3: energy balance residual"):
            simulate(systems, zeros, zeros, config.dt, config.t_end)

    def test_limit_study_memory(self):
        # All five recorded trajectories live at once, without velocities and
        # without an n_steps x n load: keeping either would exceed the bound.
        vspec, config = shipped_spec(SHIPPED[1])
        n_rec = int(round(config.t_end / config.dt)) + 1
        n = sum(build_system(v, config.n_elements).n_dofs for v in
                [replace(vspec, regime=Regime.ELECTROSTATIC)] + 4 * [vspec])
        tracemalloc.start()
        try:
            scenarios.run_electrostatic_limit(vspec, (5e-1, 5e-2, 5e-3, 5e-4),
                                              config.n_elements, config.dt, config.t_end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n_rec * n * 8

    def test_one_system_memory(self):
        # One system at stride 1 without velocities holds its recorded states
        # plus a few chunk-sized arrays: keeping a chunk's recorded rows and
        # midpoint velocities alive through the next sweep exceeds the bound.
        vspec, config = shipped_spec(SHIPPED[0])
        sysm = build_system(vspec, config.n_elements)
        zero = np.zeros(sysm.n_dofs)
        tracemalloc.start()
        try:
            traj = simulate(sysm, zero, zero, config.dt, 8.0, stride=1, velocities=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_rec, n = traj.X.shape
        assert (n_rec, n) == (8001, 132)
        assert peak < n_rec * n * 8 + 8 * solvers.CHUNK_ENTRIES * 8

    @pytest.mark.parametrize("blocks", ["shipped", "synthetic"])
    def test_stacked_factor_solves_each_block(self, rng, blocks):
        # Half-bandwidths 3 and 12 on the shipped models; 3 and 20 on the
        # synthetic blocks, past the 16-entry tail of a dot-product solve.
        if blocks == "shipped":
            ops = [step_operator(shipped_system(path), 1e-3) for path in SHIPPED]
        else:
            ops = [FactorizedOperator.build(banded_spd(rng, n, p))
                   for n, p in ((60, 3), (90, 20), (40, 3))]
            assert [op.L.shape[0] - 1 for op in ops] == [3, 20, 3]
        stacked = FactorizedOperator.stack(ops)
        # else every banded solve copies them
        assert stacked.L.flags.f_contiguous and stacked.U.flags.f_contiguous
        for _ in range(5):
            b = [rng.standard_normal(op.L.shape[1]) for op in ops]
            x = stacked.solve(np.concatenate(b))
            assert np.array_equal(x, np.concatenate([op.solve(bk) for op, bk in zip(ops, b)]))


def unsplit_run(system, x0, v0, dt, n_steps):
    """States, velocities and ledger of one direct sweep of the whole system
    in its own coordinates, recorded at every step."""
    op = step_operator(system, dt)
    t_mid = dt * (np.arange(n_steps) + 0.5)
    load = np.column_stack([sig(t_mid) for sig in system.vspec.voltages]) @ system.B.T
    _, _, X, V, vbar = midpoint_sweep(op.L, op.U, system.M, system.K, load, x0, v0, dt,
                                      np.arange(1, n_steps + 1), op.perm)
    X, V = np.vstack([x0, X]), np.vstack([v0, V])
    qd = system.class_dofs("charge")

    def energy(A, Z):
        return 0.5 * np.sum(Z * (A @ Z.T).T, axis=1)

    magnetic = energy(system.M[qd][:, qd], V[:, qd])
    return {"X": X, "V": V, "magnetic": magnetic, "kinetic": energy(system.M, V) - magnetic,
            "stored": energy(system.K, X),
            "work": np.cumsum(np.append(0.0, dt * np.sum(vbar * load, axis=1)))}


def counting_sweeps(monkeypatch):
    """The number of dofs of every sweep simulate runs from now on."""
    swept = []

    def counting(L, U, M, K, bvolts, x0, *args):
        swept.append(len(x0))
        return midpoint_sweep(L, U, M, K, bvolts, x0, *args)

    monkeypatch.setattr(solvers, "midpoint_sweep", counting)
    return swept


class TestMirrorHalves:
    @pytest.mark.parametrize("n", [32, 512])
    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_cross_blocks_are_exact_zeros(self, variant, regime, n):
        # In mirror-adapted coordinates the top-charge slots carry the half
        # sum (even, with stretching) and the bottom-charge slots the half
        # difference (odd, with bending); nothing couples the two halves.
        sysm = build_system(make_spec(variant, regime), n)
        nt = len(sysm.class_dofs("charge")) // 2
        nm = sysm.n_dofs - 2 * nt
        odd = np.zeros(sysm.n_dofs, dtype=bool)
        odd[sysm.class_dofs("bending")] = True
        odd[nm + nt:] = True
        for A in (sysm.M, sysm.K):
            Ay = solvers._adapted(A, nm, nt)
            assert (Ay != Ay.T).nnz == 0  # bitwise symmetric
            for rows, cols in ((~odd, odd), (odd, ~odd)):
                assert np.all(Ay[rows][:, cols].data == 0.0)
            assert Ay[~odd][:, ~odd].count_nonzero() and Ay[odd][:, odd].count_nonzero()
        B = sysm.B
        By = solvers._paired(np.column_stack([B[:, 0] + B[:, 1], B[:, 0] - B[:, 1]]), nm, nt)
        assert np.all(By[~odd, 1] == 0.0) and np.all(By[odd, 0] == 0.0)
        assert np.any(By[~odd, 0]) and np.any(By[odd, 1])

    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_both_halves_map_back_to_the_unsplit_sweep(self, rng, monkeypatch,
                                                       variant, regime):
        # Unequal drives and a random initial state move both halves.
        vspec = make_spec(variant, regime, voltage=(VoltageSignal.sinusoid(1.0, 3.0),
                                                    VoltageSignal.sinusoid(-0.5, 2.0)))
        sysm = build_system(vspec, 16)
        x0 = 1e-3 * rng.standard_normal(sysm.n_dofs)
        v0 = 1e-3 * rng.standard_normal(sysm.n_dofs)
        blocks, pairs = solvers._split(sysm, x0, v0, np.ones((1, 2)))
        assert pairs is not None and len(blocks) == 2
        swept = counting_sweeps(monkeypatch)
        traj = simulate(sysm, x0, v0, 1e-3, 0.3)
        assert set(swept) == {sysm.n_dofs}
        want = unsplit_run(sysm, x0, v0, 1e-3, 300)
        for name, ref in want.items():
            got = getattr(traj, name)
            assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max(), name

    def test_equal_voltages_sweep_only_the_even_half(self, monkeypatch):
        # The shipped drive leaves the odd half at rest: it is never swept,
        # and bending and the charge difference stay exact zeros.
        vspec, config = shipped_spec(SHIPPED[1])
        sysm = build_system(vspec, 512)
        swept = counting_sweeps(monkeypatch)
        zero = np.zeros(sysm.n_dofs)
        traj = simulate(sysm, zero, zero, config.dt, 0.05, velocities=False)
        assert sysm.n_dofs == 2565
        assert set(swept) == {1026}
        assert 1026 == len(sysm.class_dofs("stretching")) + len(sysm.dofs_of("qT"))
        assert np.all(traj.X[:, sysm.class_dofs("bending")] == 0.0)
        assert np.array_equal(traj.X[:, sysm.dofs_of("qT")], traj.X[:, sysm.dofs_of("qB")])
        assert np.abs(traj.X[:, sysm.class_dofs("stretching")]).max() > 0.0

    def test_single_beam_sweeps_stretching_and_charge_only(self, monkeypatch):
        sysm = shipped_system(SHIPPED[0])
        swept = counting_sweeps(monkeypatch)
        zero = np.zeros(sysm.n_dofs)
        traj = simulate(sysm, zero, zero, 1e-3, 0.1)
        assert set(swept) == {len(sysm.class_dofs("stretching", "charge"))} == {66}
        bend = sysm.class_dofs("bending")
        assert np.all(traj.X[:, bend] == 0.0) and np.all(traj.V[:, bend] == 0.0)

    def test_nothing_moves_nothing_is_swept(self, monkeypatch):
        sysm = build_system(make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC), 8)
        swept = counting_sweeps(monkeypatch)
        zero = np.zeros(sysm.n_dofs)
        traj = simulate(sysm, zero, zero, 1e-3, 0.1)
        assert swept == []
        for name in ("X", "V", "kinetic", "stored", "magnetic", "work"):
            assert not np.any(getattr(traj, name)), name

    def test_broken_mirror_steps_unsplit(self, rng, monkeypatch):
        # A corrupted coupling breaks the mirror: the system steps as one
        # block in its own coordinates, bitwise the direct sweep.
        vspec, config = shipped_spec(SHIPPED[1])
        sysm = scenarios._corrupt_coupling(build_system(vspec, config.n_elements))
        zero = np.zeros(sysm.n_dofs)
        blocks, pairs = solvers._split(sysm, zero, zero, np.ones((1, 2)))
        assert pairs is None and len(blocks) == 1 and blocks[0].M is sysm.M
        swept = counting_sweeps(monkeypatch)
        traj = simulate(sysm, zero, zero, 1e-3, 0.2)
        assert set(swept) == {sysm.n_dofs}
        want = unsplit_run(sysm, zero, zero, 1e-3, 200)
        assert np.array_equal(traj.X, want["X"]) and np.array_equal(traj.V, want["V"])
