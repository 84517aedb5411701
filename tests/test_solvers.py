"""Linear algebra helpers, eigenmodes and the implicit midpoint integrator."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse._sparsetools
import scipy.sparse.linalg
from scipy.linalg.blas import daxpy, dscal
from scipy.sparse.csgraph import connected_components

from piezobeam.assembly import apply_mechanical_bc, assemble, build_system
from piezobeam.config import parse_config
from piezobeam import cli, kernels, scenarios, solvers
from piezobeam.errors import (
    ConvergenceFailure,
    EnergyImbalance,
    NonFiniteState,
    NotPositiveDefinite,
    SingularStepMatrix,
)
from piezobeam.kernels import cholesky_solve, midpoint_sweep
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

from modelzoo import ALL_COMBOS, PATCH_COMBOS, UNCOUPLED, make_spec, mesh_of
from recording import recorded

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
    _, _, _, X, V, vbar = midpoint_sweep(op.L, op.U, M, K, load, x0, v0, dt,
                                         np.arange(1, n_steps + 1))
    work = np.cumsum(np.append(0.0, dt * (vbar * load).sum(axis=1)))
    return np.vstack([x0, X]), np.vstack([v0, V]), work


class TestSpdSolver:
    def test_matches_general_solver(self, rng):
        R = rng.standard_normal((12, 12))
        A = R @ R.T + 12.0 * np.eye(12)
        b = rng.standard_normal(12)
        assert np.allclose(solve_spd(A, b), np.linalg.solve(A, b), rtol=1e-12, atol=1e-13)

    def test_rejects_indefinite_matrix(self):
        # The error keeps LAPACK's failing pivot, the second leading minor.
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(A, np.ones(2))
        with pytest.raises(NotPositiveDefinite, match="leading minor 2 of 2") as exc:
            FactorizedOperator.build(A)
        assert exc.value.pivot == 2

    def test_rejects_non_finite_matrix(self):
        A = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            FactorizedOperator.build(A)

    def test_step_operator_names_the_dt_of_a_singular_step_matrix(self):
        # A negated mass matrix makes M + (dt^2/4) K indefinite at a small
        # dt: the step is refused, and the message says for which dt.
        sysm = shipped_system(SHIPPED[0])
        with pytest.raises(SingularStepMatrix, match=r"not positive definite for dt=0\.001$"):
            step_operator(replace(sysm, M=-sysm.M), 1e-3)

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
    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_direct_kernels_give_the_eigsh_bits(self, variant, regime, bc, n):
        # ARPACK is fed the CSR kernel for M and the in-place banded solve
        # and deflation; it sees the same vectors as with the sparse M and
        # FactorizedOperator.solve, so every bit of omega and the shapes
        # stays.
        sysm = build_system(make_spec(variant, regime, bc=bc), n)
        null = sysm.null_space()
        modes = eigenmodes(sysm.M, sysm.K, 16, null, sysm.band_order())
        omegas, shapes = eigsh_modes(sysm.M, sysm.K, 16, null, sysm.band_order())
        assert modes.omegas[modes.n_zero:].tobytes() == omegas.tobytes()
        assert modes.shapes.tobytes() == shapes.tobytes()

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
        modes = eigenmodes(sysm.M, sysm.K, sysm.n_dofs, sysm.null_space(), sysm.band_order())
        for target in rod:
            assert np.min(np.abs(modes.omegas - target)) <= 1e-9 * target

    @pytest.mark.parametrize("k", [1, 6])
    def test_zero_mode_counts(self, k):
        # free-free: axial + transverse translation + rotation = 3 rigid
        # modes; the dynamic charge adds one constant-charge gauge mode.
        # The count does not depend on how many modes are asked for.
        electro = build_system(make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC), 8)
        full = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 8)
        assert eigenmodes(electro.M, electro.K, k, electro.null_space(), electro.band_order()).n_zero == 3
        assert eigenmodes(full.M, full.K, k, full.null_space(), full.band_order()).n_zero == 4
        clamped = build_system(
            make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, bc=BoundaryCondition.CLAMPED_FREE), 8
        )
        assert eigenmodes(clamped.M, clamped.K, k, clamped.null_space(), clamped.band_order()).n_zero == 0

    def test_returns_the_modes_of_a_fine_clamped_beam(self):
        # At 8192 elements the first bending mode of a clamped beam falls to
        # 1.6e-11 s: no threshold could tell it from a zero mode, but the
        # clamped model has none.
        sysm = build_system(
            make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, bc=BoundaryCondition.CLAMPED_FREE),
            8192)
        modes = eigenmodes(sysm.M, sysm.K, 16, sysm.null_space(), sysm.band_order())
        assert modes.n_zero == 0
        assert len(modes.omegas) == 16 and np.all(modes.omegas > 0.0)

    @pytest.mark.parametrize("variant, regime", ALL_COMBOS)
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    def test_every_case_returns_orthonormal_modes_at_4096_elements(self, variant, regime, bc):
        sysm = build_system(make_spec(variant, regime, bc=bc), 4096)
        modes = eigenmodes(sysm.M, sysm.K, 16, sysm.null_space(), sysm.band_order())
        assert len(modes.omegas) == 16 and np.all(np.diff(modes.omegas) >= 0.0)
        assert np.all(modes.omegas[:modes.n_zero] == 0.0)
        assert np.all(modes.omegas[modes.n_zero:] > 0.0)
        gram = modes.shapes.T @ (sysm.M @ modes.shapes)
        assert np.abs(gram - np.eye(16)).max() <= 1e-9

    @pytest.mark.parametrize("n_modes", [1, 4])
    def test_zero_modes_alone_need_no_lanczos_solve(self, monkeypatch, n_modes):
        def refuse(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        sysm = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 8)
        modes = eigenmodes(sysm.M, sysm.K, n_modes, sysm.null_space(), sysm.band_order())
        assert modes.n_zero == 4
        assert np.array_equal(modes.omegas, np.zeros(n_modes))
        gram = modes.shapes.T @ (sysm.M @ modes.shapes)
        assert np.abs(gram - np.eye(n_modes)).max() <= 1e-12

    def test_refuses_a_basis_vector_outside_the_kernel(self):
        # v = 1 stores energy once the end is clamped: a wrong model.
        sysm = build_system(
            make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC,
                      bc=BoundaryCondition.CLAMPED_FREE), 8)
        null = np.zeros((sysm.n_dofs, 1))
        null[sysm.dofs_of("v"), 0] = 1.0
        with pytest.raises(ConvergenceFailure, match="not in K's kernel"):
            eigenmodes(sysm.M, sysm.K, 4, null, sysm.band_order())

    def test_shapes_mass_orthonormal(self):
        sysm = build_system(make_spec(Variant.PATCH_MT, Regime.FULL_MAGNETIC), 8)
        modes = eigenmodes(sysm.M, sysm.K, 10, sysm.null_space(), sysm.band_order())
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
        modes = eigenmodes(sysm.M, sysm.K, 16, sysm.null_space(), sysm.band_order())
        assert modes.n_zero == n_zero
        assert np.all(modes.omegas[:n_zero] == 0.0)
        assert np.allclose(modes.omegas[n_zero:], np.sqrt(ref[n_zero:16]), rtol=1e-7, atol=0.0)
        gram = modes.shapes.T @ (sysm.M @ modes.shapes)
        assert np.allclose(gram, np.eye(16), atol=1e-9)
        again = eigenmodes(sysm.M, sysm.K, 16, sysm.null_space(), sysm.band_order())
        assert np.array_equal(again.omegas, modes.omegas)
        assert np.array_equal(again.shapes, modes.shapes)


def renumbered(blk, order):
    """The block in the numbering order (its dof i is blk's dof order[i]),
    M and K with their column indices sorted."""
    M, K = (scipy.sparse.csr_array(A[order][:, order]) for A in (blk.M, blk.K))
    M.sort_indices()
    K.sort_indices()
    return replace(blk, dofs=blk.dofs[order], M=M, K=K, B=blk.B[order],
                   charge=blk.charge[order], x0=blk.x0[order], v0=blk.v0[order])


def band_block(system, dt, x0, v0):
    """The whole system as one block in the band numbering of its step
    factor, the system's band order, and the factor."""
    op = step_operator(system, dt)
    assert np.array_equal(op.order, system.band_order())
    charge = np.zeros(system.n_dofs, dtype=bool)
    charge[system.class_dofs("charge")] = True
    blk = solvers._Block(dofs=np.arange(system.n_dofs), M=system.M, K=system.K, B=system.B,
                         drive=None, charge=charge, x0=x0, v0=v0)
    return renumbered(blk, op.order), op


def stacked_block(blocks, dt):
    """The blocks, each in its own band order, stacked block-diagonally as
    simulate stacks them, and the one factor of their stacked step matrix."""
    blk = replace(blocks[0], M=scipy.sparse.block_diag([b.M for b in blocks], format="csr"),
                  K=scipy.sparse.block_diag([b.K for b in blocks], format="csr"),
                  x0=np.concatenate([b.x0 for b in blocks]),
                  v0=np.concatenate([b.v0 for b in blocks]))
    return blk, step_operator(blk, dt)


def padded(ops):
    """Each factor's L, in its own band order, padded with exact zeros to the
    widest band and laid side by side: what the factor of the stacked matrix
    must be, bitwise."""
    L = np.zeros((max(op.L.shape[0] for op in ops), sum(op.L.shape[1] for op in ops)))
    start = 0
    for op in ops:
        L[:op.L.shape[0], start:start + op.L.shape[1]] = op.L
        start += op.L.shape[1]
    return L


def drive_load(system, dt, n_steps, B):
    """The system's load B V(t_mid) at every step midpoint, B's rows in any
    numbering."""
    t_mid = dt * (np.arange(n_steps) + 0.5)
    return np.column_stack([sig(t_mid) for sig in system.vspec.voltages]) @ B.T


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
        fwd = recorded(sysm, x0, v0, dt=1e-3, t_end=0.2)
        back = recorded(sysm, fwd.X[-1], -fwd.V[-1], dt=1e-3, t_end=0.2)
        assert np.abs(back.X[-1] - x0).max() <= 1e-10 * max(1.0, np.abs(x0).max())
        assert np.abs(back.V[-1] + v0).max() <= 1e-10 * max(1.0, np.abs(v0).max())


def reference_sweep(L, U, M, K, bvolts, x0, v0, dt, rec_steps, ab=None):
    """midpoint_sweep's loop before it called the CSR kernel directly and ran
    in a signed frame: K @ vbar, a doubled right-hand side, and
    v' = 2 vbar - v by negating v in place.  The sweep must return these
    bits."""
    half, dt2 = 0.5 * dt, dt * dt
    X, Vel = np.empty((2, len(rec_steps), len(x0)))
    vbars = np.empty((len(bvolts), len(x0)))
    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    a, b = ((M @ v - half * (K @ x), M @ v + half * (K @ x)) if ab is None else
            (np.array(c, dtype=float) for c in ab))
    rec = 0
    for i, load in enumerate(bvolts):
        vbar = vbars[i]
        np.copyto(vbar, a)
        daxpy(load, vbar, a=half)
        rhs2 = vbar + vbar
        cholesky_solve(L, U, vbar)
        a, b = rhs2 - a, rhs2 - b
        daxpy(K @ vbar, b, a=-dt2)
        a, b = b, a
        daxpy(vbar, x, a=dt)
        daxpy(vbar, dscal(-1.0, v), a=2.0)
        if rec < len(rec_steps) and rec_steps[rec] == i + 1:
            X[rec], Vel[rec] = x, v
            rec += 1
    return x, v, (a, b), X, Vel, vbars


def sweep_inputs(case, rng, dt, n_steps):
    """(L, U, M, K, load, x0, v0) of a sweep in band numbering: the shipped
    single beam's {v, q} block, the shipped patch's even half, or the whole
    single, patch and single systems stacked (half-bandwidths 3, 12, 3)."""
    if case == "stacked":
        systems = [shipped_system(SHIPPED[k]) for k in (0, 1, 0)]
        parts = [band_block(s, dt, 1e-3 * rng.standard_normal(s.n_dofs),
                            1e-3 * rng.standard_normal(s.n_dofs)) for s in systems]
        assert [op.L.shape[0] - 1 for _, op in parts] == [3, 11, 3]
        blocks = [blk for blk, _ in parts]
        blk, op = stacked_block(blocks, dt)
        load = np.hstack([drive_load(s, dt, n_steps, b.B) for s, b in zip(systems, blocks)])
        return op.L, op.U, blk.M, blk.K, load, blk.x0, blk.v0
    sysm = shipped_system(SHIPPED[["single", "patch"].index(case)])
    t_mid = dt * (np.arange(n_steps) + 0.5)
    volts = np.column_stack([sig(t_mid) for sig in sysm.vspec.voltages])
    zero = np.zeros(sysm.n_dofs)
    (blk,), _ = solvers._split(sysm, zero, zero, volts)  # {v, q}, or the even half
    blk = replace(blk, x0=1e-3 * rng.standard_normal(len(blk.dofs)),
                  v0=1e-3 * rng.standard_normal(len(blk.dofs)))
    op = step_operator(blk, dt)  # in the block's own band order
    return op.L, op.U, blk.M, blk.K, blk.drive @ blk.B.T, blk.x0, blk.v0


def with_index_dtype(A, dtype):
    A = scipy.sparse.csr_array(A)
    A.indices, A.indptr = A.indices.astype(dtype), A.indptr.astype(dtype)
    return A


def eigsh_modes(M, K, n_modes, null, order):
    """eigenmodes as it was before its operators called the kernels
    directly: eigsh given the sparse M, and OPinv through
    FactorizedOperator.solve and a deflation that allocates."""
    n, n_zero = null.shape
    R = scipy.linalg.cholesky(null.T @ (M @ null))
    Z = scipy.linalg.solve_triangular(R, null.T, trans="T").T
    k = min(n_modes, n - 1) - n_zero
    MZ = M @ Z

    def deflated(y):
        return y - Z @ (MZ.T @ y)

    sigma = -1e-6 * float(K.diagonal().mean()) / float(M.diagonal().mean())
    op = FactorizedOperator.build(K - sigma * M, order)
    opinv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lambda b: deflated(op.solve(b)),
                                               dtype=float)
    vals, vecs = scipy.sparse.linalg.eigsh(
        K, k=k, M=M, sigma=sigma, which="LM", OPinv=opinv,
        v0=deflated(np.random.default_rng(0).standard_normal(n)))
    order = np.argsort(vals)
    return np.sqrt(np.clip(vals[order], 0.0, None)), np.hstack([Z, vecs[:, order]])


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
        traj = recorded(sysm, zero, zero, dt=dt, t_end=n_steps * dt)
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

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n_steps", [40, 41])
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("case", ["single", "patch", "stacked"])
    def test_returns_the_bits_of_the_reference_loop(self, rng, case, stride, n_steps,
                                                    index_dtype):
        # Every array of both calls, the first forming the momenta and the
        # second continuing from them, is bitwise (signed zeros included) the
        # reference loop's.
        dt = 1e-3
        L, U, M, K, load, x0, v0 = sweep_inputs(case, rng, dt, 2 * n_steps)
        M, K = with_index_dtype(M, index_dtype), with_index_dtype(K, index_dtype)
        assert K.indices.dtype == index_dtype and K.indptr.dtype == index_dtype
        rec = np.arange(stride, n_steps + 1, stride)
        got = [midpoint_sweep(L, U, M, K, load[:n_steps], x0, v0, dt, rec)]
        want = [reference_sweep(L, U, M, K, load[:n_steps], x0, v0, dt, rec)]
        for out, sweep in ((got, midpoint_sweep), (want, reference_sweep)):
            x, v, ab = out[0][:3]
            out.append(sweep(L, U, M, K, load[n_steps:], x, v, dt, rec, ab))
        for g, w in zip(got, want):
            for a, b in zip(g[:2] + g[2] + g[3:], w[:2] + w[2] + w[3:]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_steps", [40, 41])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("case", ["single", "patch", "stacked"])
    def test_buffers_change_no_bit(self, rng, case, stride, n_steps):
        # Handed buffers (X and V row slices of wider arrays, as simulate
        # hands them), the sweep writes into them and returns their leading
        # rows, bitwise (signed zeros included) what it allocates without
        # them, over chunks of odd and even length and through ab.
        dt = 1e-3
        L, U, M, K, load, x0, v0 = sweep_inputs(case, rng, dt, 2 * n_steps)
        n, rec = len(x0), np.arange(stride, n_steps + 1, stride)
        wide = np.full((2, n_steps, n + 5), np.nan)
        out = (wide[0][:, :n], wide[1][:, :n], np.full((n_steps + 1, n), np.nan))
        x, v, ab, got, want = x0, v0, None, [], []
        for part in (load[:n_steps], load[n_steps:]):
            plain = midpoint_sweep(L, U, M, K, part, x, v, dt, rec, ab)
            into = midpoint_sweep(L, U, M, K, part, x, v, dt, rec, ab, out)
            for arr, buf in zip(into[3:], out):
                assert np.shares_memory(arr, buf)
            want += list(plain[:2] + plain[2] + plain[3:])
            got += [a.copy() for a in into[:2] + into[2] + into[3:]]
            x, v, ab = plain[:3]
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("split", [1, 112, 299])
    def test_two_calls_continue_as_one(self, rng, split):
        # A forced patch run cut at any step, the second call starting from
        # the state (x, v and the momenta) the first returned, is bitwise the
        # run made in one call.
        sysm = shipped_system(SHIPPED[1])
        dt, n_steps = 1e-3, 300
        blk, op = band_block(sysm, dt, 1e-3 * rng.standard_normal(sysm.n_dofs),
                             1e-3 * rng.standard_normal(sysm.n_dofs))
        load = drive_load(sysm, dt, n_steps, blk.B)
        rec = np.arange(7, n_steps + 1, 7)
        L, U, M, K = op.L, op.U, blk.M, blk.K
        whole = midpoint_sweep(L, U, M, K, load, blk.x0, blk.v0, dt, rec)
        x1, v1, ab1, X1, V1, vbar1 = midpoint_sweep(L, U, M, K, load[:split], blk.x0, blk.v0,
                                                    dt, rec[rec <= split])
        x2, v2, ab2, X2, V2, vbar2 = midpoint_sweep(L, U, M, K, load[split:], x1, v1, dt,
                                                    rec[rec > split] - split, ab1)
        for got, want in zip((x2, v2, ab2[0], ab2[1], np.vstack([X1, X2]), np.vstack([V1, V2]),
                              np.vstack([vbar1, vbar2])), whole[:2] + whole[2] + whole[3:]):
            assert np.array_equal(got, want)
        assert len(whole[3]) == len(rec) and len(whole[5]) == n_steps

    def test_momenta_track_the_state(self, rng):
        # The carried a = M v - dt/2 K x and b = M v + dt/2 K x stay those of
        # the stepped x and v, to round-off.
        sysm = shipped_system(SHIPPED[1])
        dt, n_steps = 1e-3, 500
        blk, op = band_block(sysm, dt, 1e-3 * rng.standard_normal(sysm.n_dofs),
                             1e-3 * rng.standard_normal(sysm.n_dofs))
        load = drive_load(sysm, dt, n_steps, blk.B)
        x, v, (a, b), *_ = midpoint_sweep(op.L, op.U, blk.M, blk.K, load, blk.x0, blk.v0, dt,
                                          np.arange(0))
        mv, kx = blk.M @ v, 0.5 * dt * (blk.K @ x)
        scale = np.abs(mv).max() + np.abs(kx).max()
        assert np.abs(a - (mv - kx)).max() <= 1e-11 * scale
        assert np.abs(b - (mv + kx)).max() <= 1e-11 * scale

    def test_one_sparse_product_per_step(self, rng, monkeypatch):
        # Continuing from carried momenta, a step multiplies by K once and
        # never by M; a first call forms the momenta with one product each.
        # Products are counted in scipy's CSR kernel, which A @ v runs and
        # the sweep calls directly.
        sysm = shipped_system(SHIPPED[0])
        dt, n_steps = 1e-3, 50
        blk, op = band_block(sysm, dt, 1e-3 * rng.standard_normal(sysm.n_dofs),
                             1e-3 * rng.standard_normal(sysm.n_dofs))
        M, K = blk.M, blk.K
        calls, kernel = [], scipy.sparse._sparsetools.csr_matvec

        def counted(n_row, n_col, indptr, indices, data, *vectors):
            calls.append("M" if data is M.data else "K" if data is K.data else "?")
            return kernel(n_row, n_col, indptr, indices, data, *vectors)

        monkeypatch.setattr(scipy.sparse._sparsetools, "csr_matvec", counted)
        monkeypatch.setattr(kernels, "csr_matvec", counted)
        load = drive_load(sysm, dt, n_steps, blk.B)
        rec = np.arange(1, n_steps + 1)
        x, v, ab, *_ = midpoint_sweep(op.L, op.U, M, K, load, blk.x0, blk.v0, dt, rec)
        assert calls == ["M", "K"] + n_steps * ["K"]
        calls.clear()
        midpoint_sweep(op.L, op.U, M, K, load, x, v, dt, rec, ab)
        assert calls == n_steps * ["K"]

    @pytest.mark.parametrize("bands", [(3, 20, 16, 5), (17, 1), (40, 3, 64)])
    def test_stacked_blocks_sweep_as_alone(self, rng, bands):
        # Blocks of mixed half-bandwidths, up to 64, stacked block-diagonally
        # in one sweep with one factor of the stacked step matrix: each
        # block's states, momenta and midpoint velocities are bitwise those
        # of its sweep alone.
        dt, n_steps = 1e-2, 40
        alone, parts = [], []
        for p in bands:
            n = 30 + 7 * p
            M = scipy.sparse.csr_array(banded_spd(rng, n, 1))
            K = scipy.sparse.csr_array(banded_spd(rng, n, p))
            op = FactorizedOperator.build(M + 0.25 * dt * dt * K)
            blk = solvers._Block(dofs=np.arange(n), M=M, K=K, B=np.zeros((n, 0)), drive=None,
                                 charge=np.zeros(n, dtype=bool), x0=rng.standard_normal(n),
                                 v0=rng.standard_normal(n))
            load = rng.standard_normal((n_steps, n))
            rec = np.arange(3, n_steps + 1, 3)
            alone.append(midpoint_sweep(op.L, op.U, blk.M, blk.K, load, blk.x0, blk.v0, dt, rec))
            parts.append((op, blk, load))
        assert max(op.L.shape[0] for op, _, _ in parts) - 1 >= 16
        blk, op = stacked_block([blk for _, blk, _ in parts], dt)
        assert op.L.tobytes() == padded([op for op, _, _ in parts]).tobytes()
        stacked = midpoint_sweep(op.L, op.U, blk.M, blk.K, np.hstack([ld for _, _, ld in parts]),
                                 blk.x0, blk.v0, dt, rec)
        start = 0
        for want in alone:
            c = slice(start, start + len(want[0]))
            start = c.stop
            got = (stacked[0][c], stacked[1][c], stacked[2][0][c], stacked[2][1][c],
                   stacked[3][:, c], stacked[4][:, c], stacked[5][:, c])
            for g, w in zip(got, want[:2] + want[2] + want[3:]):
                assert np.array_equal(g, w)


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
        traj = recorded(sysm, zero, zero, dt=0.01, t_end=0.1, stride=3)
        assert np.allclose(traj.t, [0.0, 0.03, 0.06, 0.09, 0.10])
        dense = recorded(sysm, zero, zero, dt=0.01, t_end=0.1, stride=1)
        assert np.array_equal(traj.X[-1], dense.X[-1])
        assert np.array_equal(traj.work, dense.work[[0, 3, 6, 9, 10]])

    def test_energy_ledger_matches_matrices(self, rng):
        sysm = self._forced_system()
        x0 = 0.01 * rng.standard_normal(sysm.n_dofs)
        v0 = 0.01 * rng.standard_normal(sysm.n_dofs)
        traj = recorded(sysm, x0, v0, dt=0.005, t_end=0.25)
        i = len(traj.t) // 2
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

    @pytest.mark.parametrize("m", [1, 2, 3, 397])
    def test_row_energies_sum_left_to_right(self, rng, m):
        # Each row's 0.5 z^T A z is bitwise the strictly sequential sum,
        # whatever the number of rows; entries spanning 12 decades make any
        # other order show.  Z is a column slice, as the recorded rows are.
        A = shipped_system(SHIPPED[1]).K
        n = A.shape[0]
        Z = (rng.standard_normal((m, n + 4)) * 10.0 ** rng.integers(-6, 6, n + 4))[:, 2:-2]
        AZ = A @ Z.T
        got, _ = solvers._row_energies(A, Z, np.empty((2, n * m)))
        for r in range(m):
            total = 0.0
            for z, az in zip(Z[r].tolist(), AZ[:, r].tolist()):
                total += z * az
            assert got[r] == 0.5 * total

    @pytest.mark.parametrize("m", [1, 397])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_two_product_ledger_is_the_three_product_one(self, rng, variant, regime, bc, m):
        # M has no entry between a charge dof and a mechanical one, so the
        # charge rows of M V^T are the products Mqq Vq^T: the magnetic
        # energy read off them, and the kinetic and stored energies, are
        # bitwise (signed zeros included) those of three separate products,
        # on every moving block, in band numbering, for a lone row too.
        sysm = build_system(make_spec(variant, regime, bc=bc), 32)
        x0, v0 = rng.standard_normal((2, sysm.n_dofs))
        blocks, _ = solvers._split(sysm, x0, v0, np.ones((1, sysm.B.shape[1])))
        for blk in blocks:
            n, q = len(blk.dofs), np.flatnonzero(blk.charge)
            V, Y = rng.standard_normal((2, m, n)) * 10.0 ** rng.integers(-6, 6, n)
            V[:, ::5], Y[:, 1::5] = -0.0, -0.0
            scratch = np.full((2, n * m), np.nan)
            kinetic, magnetic = solvers._row_energies(blk.M, V, scratch, q)
            stored, _ = solvers._row_energies(blk.K, Y, scratch)
            for got, want in ((kinetic, three_product(blk.M, V)),
                              (magnetic, three_product(blk.M[q][:, q], V[:, q])),
                              (stored, three_product(blk.K, Y))):
                assert got.shape == (m,) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_ledger_is_that_of_three_products(self, rng, monkeypatch, variant, regime, stride):
        # In simulate, with one step per chunk (each chunk records a lone
        # row, or none at stride 4) and at the default chunk size.
        voltage = (VoltageSignal.sinusoid(1.0, 3.0), VoltageSignal.sinusoid(-0.5, 2.0)) \
            if variant.is_patch else VoltageSignal.sinusoid(1.0, 3.0)
        sysm = build_system(make_spec(variant, regime, voltage=voltage), 8)
        x0, v0 = 1e-3 * rng.standard_normal((2, sysm.n_dofs))
        runs = []
        for entries in (solvers.CHUNK_ENTRIES, 1):
            monkeypatch.setattr(solvers, "CHUNK_ENTRIES", entries)
            for energies in (solvers._row_energies, three_product_energies):
                monkeypatch.setattr(solvers, "_row_energies", energies)
                runs.append(simulate(sysm, x0, v0, 1e-3, 0.05, stride=stride))
        for traj in runs[1:]:
            for name in ("kinetic", "stored", "magnetic", "work"):
                assert getattr(traj, name).tobytes() == getattr(runs[0], name).tobytes()

    def test_chunks_reuse_one_buffer(self, rng, monkeypatch):
        # A stride-1 run of at least three chunks: every chunk's observed
        # rows live in the same memory, and an observer that overwrites
        # them in place changes no later row and no ledger entry.
        sysm = build_system(make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC,
                                      voltage=(VoltageSignal.sinusoid(1.0, 3.0),) * 2), 8)
        monkeypatch.setattr(solvers, "CHUNK_ENTRIES", 400)
        x0 = np.zeros(sysm.n_dofs)
        seen, kept = [], []

        def observe(rows, X, V):
            seen.append((X, V))
            kept.append((X.copy(), V.copy()))
            X.fill(np.nan)
            V.fill(np.nan)

        traj = simulate(sysm, x0, x0, 1e-3, 0.1, observe=observe)
        assert len(seen) >= 4  # row 0, then three chunks at least
        for (X1, V1), (X2, V2) in zip(seen[1:], seen[2:]):
            assert np.shares_memory(X1, X2) and np.shares_memory(V1, V2)
        want = recorded(sysm, x0, x0, 1e-3, 0.1)
        assert np.concatenate([X for X, _ in kept]).tobytes() == want.X.tobytes()
        assert np.concatenate([V for _, V in kept]).tobytes() == want.V.tobytes()
        for name in ("kinetic", "stored", "magnetic", "work"):
            assert getattr(traj, name).tobytes() == getattr(want, name).tobytes()

    def test_argument_validation(self):
        sysm = self._forced_system()
        zero = np.zeros(sysm.n_dofs)
        with pytest.raises(ValueError):
            simulate(sysm, np.zeros(3), zero, dt=0.01, t_end=0.1)
        with pytest.raises(ValueError):
            simulate(sysm, zero, zero, dt=0.01, t_end=0.1, stride=0)
        with pytest.raises(ValueError):
            simulate(sysm, zero, zero, dt=-0.01, t_end=0.1)


def three_product(A, Z):
    """0.5 z^T A z for every row z of Z, from its own product A @ Z.T (the
    ledger's form before it shared one product between two energies)."""
    terms = A @ Z.T
    terms *= Z.T
    if len(Z) == 1 and len(terms):
        return 0.5 * np.cumsum(terms[:, 0])[-1:]
    return 0.5 * np.add.reduce(terms, axis=0)


def three_product_energies(A, Z, scratch, part=None):
    """solvers._row_energies from three products per block: the magnetic
    part through Mqq = M[q][:, q] and the charge columns of Z."""
    return three_product(A, Z), None if part is None else three_product(
        A[part][:, part], Z[:, part])


def shipped_spec(path):
    with open(path, encoding="utf-8") as fh:
        config = parse_config(fh.read())
    return config.validated(), config


def assert_batch_is_separate_runs(systems, x0s, v0s, dt, t_end, stride=1):
    """Every block of one batched sweep equals its own run, bit for bit."""
    batch = recorded(systems, x0s, v0s, dt, t_end, stride=stride)
    assert len(batch) == len(systems)
    for k, (system, x0, v0, traj) in enumerate(zip(systems, x0s, v0s, batch)):
        alone = recorded(system, x0, v0, dt, t_end, stride=stride)
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
        systems = [system for system, *_ in scenarios._selectivity_setup(
            vspec, config.n_elements, False)]
        zeros = [np.zeros(s.n_dofs) for s in systems]
        assert_batch_is_separate_runs(systems, zeros, zeros, config.dt, config.t_end)

    def test_one_factor_per_call_that_moves(self, monkeypatch):
        # simulate factors the stacked step matrix of its moving blocks once
        # per call: limit's five systems (under the shipped equal drives, the
        # even half of each, half-bandwidth 4), the patch check's two drives
        # (the even half of one and the odd half of the other, 6), and no
        # factor at all when nothing moves.
        factored, original = [], solvers.step_operator

        def counted(system, dt):
            op = original(system, dt)
            factored.append((op.L.shape[1], op.L.shape[0] - 1))
            return op

        monkeypatch.setattr(solvers, "step_operator", counted)
        vspec, config = shipped_spec(SHIPPED[1])
        mus = (5e-1, 5e-2, 5e-3, 5e-4)
        scenarios.run_electrostatic_limit(vspec, mus, config.n_elements, config.dt, 0.05)
        systems, _ = scenarios._limit_systems(vspec, mus, config.n_elements)
        evens = [solvers._split(s, np.zeros(s.n_dofs), np.zeros(s.n_dofs), np.ones((1, 2)))[0]
                 for s in systems]
        assert all(len(blocks) == 1 for blocks in evens)
        assert factored == [(sum(len(blk.dofs) for (blk,) in evens), 4)]
        factored.clear()
        scenarios.check_patch_voltage_selectivity(vspec, config.n_elements, config.dt, 0.05)
        assert factored == [(systems[1].n_dofs, 6)]  # the two halves hold every dof
        factored.clear()
        quiet = build_system(make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC), 8)  # no drive
        zero = np.zeros(quiet.n_dofs)
        simulate([quiet, quiet], [zero, zero], [zero, zero], config.dt, 0.05)
        assert factored == []

    @pytest.mark.parametrize("t_end", [0.5, 0.0])
    def test_mixed_bandwidths_at_a_stride(self, rng, t_end):
        systems = [shipped_system(SHIPPED[0]), shipped_system(SHIPPED[1]),
                   shipped_system(SHIPPED[0])]
        assert [step_operator(s, 1e-3).L.shape[0] - 1 for s in systems] == [3, 11, 3]
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
        default = recorded(systems, x0s, v0s, 1e-3, 0.3, stride=2)
        n = sum(s.n_dofs for s in systems)
        monkeypatch.setattr(solvers, "CHUNK_ENTRIES", steps_per_chunk * n)
        small = recorded(systems, x0s, v0s, 1e-3, 0.3, stride=2)
        for a, b in zip(default, small):
            for name in ("X", "V", "kinetic", "stored", "magnetic", "work"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_without_velocities(self):
        sysm = shipped_system(SHIPPED[1])
        zero = np.zeros(sysm.n_dofs)
        kept = recorded(sysm, zero, zero, 1e-3, 0.3)
        dropped = recorded(sysm, zero, zero, 1e-3, 0.3, velocities=False)
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_state_is_named_after_its_chunk(self, monkeypatch):
        # The middle system's drive overflows: the sweep stops after the
        # first chunk, naming that system and the chunk's steps.
        vspec, config = shipped_spec(SHIPPED[0])
        huge = replace(vspec, voltages=(VoltageSignal.sinusoid(1e308, 3.0),))
        systems = [build_system(v, config.n_elements) for v in (vspec, huge, vspec)]
        zeros = [np.zeros(s.n_dofs) for s in systems]
        monkeypatch.setattr(solvers, "CHUNK_ENTRIES", 5 * 3 * 66)
        swept, seen = counting_sweeps(monkeypatch), []
        with pytest.raises(NonFiniteState, match="^system 1 of 3: state not finite after "
                                                 "steps 1-5 of 2000$"):
            simulate(systems, zeros, zeros, config.dt, config.t_end,
                     observe=lambda rows, X, V: seen.append(rows))
        assert swept == [3 * 66]
        assert seen == [slice(0, 1)]  # the failing chunk's rows are never observed

    def test_limit_study_memory(self):
        # Five systems in one sweep keep their ledgers and the per-row sums
        # of squares, O(n_rec) each, plus a few chunk-sized arrays (the
        # observed rows span all 759 dofs, 2.6 chunks).  Keeping the
        # recorded rows over every dof would take n_rec x 759 floats, 23
        # chunks, and an n_steps x n load 9 chunks.
        vspec, config = shipped_spec(SHIPPED[1])
        n_rec = int(round(config.t_end / config.dt)) + 1
        tracemalloc.start()
        try:
            scenarios.run_electrostatic_limit(vspec, (5e-1, 5e-2, 5e-3, 5e-4),
                                              config.n_elements, config.dt, config.t_end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * solvers.CHUNK_ENTRIES * 8 + 8 * n_rec * 5 * 8

    def test_one_system_memory(self):
        # One system at stride 1 holds its ledger, O(n_rec), plus a few
        # chunk-sized arrays, and an observer what it keeps: n_rec more
        # floats for one column.  Keeping the recorded rows over every dof
        # would take n_rec x 132 floats, 16 chunks.
        vspec, config = shipped_spec(SHIPPED[0])
        sysm = build_system(vspec, config.n_elements)
        zero = np.zeros(sysm.n_dofs)
        kept = []

        def one_column(rows, X, V):
            kept.append(X[:, 1].copy())

        for observe, columns in ((None, 0), (one_column, 1)):
            tracemalloc.start()
            try:
                traj = simulate(sysm, zero, zero, config.dt, 8.0, stride=1, velocities=False,
                                observe=observe)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            n_rec = len(traj.t)
            assert (n_rec, sysm.n_dofs) == (8001, 132)
            assert peak < 8 * solvers.CHUNK_ENTRIES * 8 + (8 + 2 * columns) * n_rec * 8
        assert len(np.concatenate(kept)) == n_rec

    @pytest.mark.parametrize("blocks", ["shipped", (3, 20, 3), (40, 3, 64)])
    def test_stacked_factor_solves_each_block(self, rng, blocks):
        # One factor of the stacked step matrix is bitwise each block's own
        # factor padded with exact zeros, and solves each block bitwise as
        # its own factor does.  Half-bandwidths 3 and 11 on the shipped
        # models; up to 64 on the synthetic blocks, past the 16-entry tail
        # of a dot-product solve.
        dt = 1e-3
        if blocks == "shipped":
            systems = [shipped_system(path) for path in SHIPPED]
            blks = [band_block(s, dt, np.zeros(s.n_dofs), np.zeros(s.n_dofs))[0]
                    for s in systems]
        else:
            blks = []
            for p in blocks:
                n = 30 + 7 * p
                blks.append(solvers._Block(
                    dofs=np.arange(n), M=scipy.sparse.csr_array(banded_spd(rng, n, 1)),
                    K=scipy.sparse.csr_array(banded_spd(rng, n, p)), B=None, drive=None,
                    charge=None, x0=np.zeros(n), v0=np.zeros(n)))
        ops = [step_operator(blk, dt) for blk in blks]  # each in its own band order
        assert [op.L.shape[0] - 1 for op in ops] == ([3, 11] if blocks == "shipped"
                                                     else list(blocks))
        _, stacked = stacked_block(blks, dt)
        assert stacked.L.tobytes() == padded(ops).tobytes()
        # else every banded solve copies them
        assert stacked.L.flags.f_contiguous and stacked.U.flags.f_contiguous
        for _ in range(5):
            b = [rng.standard_normal(op.L.shape[1]) for op in ops]
            x = stacked.solve(np.concatenate(b))
            assert np.array_equal(x, np.concatenate([op.solve(bk) for op, bk in zip(ops, b)]))


def unsplit_run(system, x0, v0, dt, n_steps):
    """States, velocities and ledger of one direct sweep of the whole system
    in its own coordinates, recorded at every step."""
    blk, op = band_block(system, dt, x0, v0)
    load = drive_load(system, dt, n_steps, blk.B)
    _, _, _, Xb, Vb, vbar = midpoint_sweep(op.L, op.U, blk.M, blk.K, load, blk.x0, blk.v0, dt,
                                           np.arange(1, n_steps + 1))
    X, V = np.empty((2, n_steps + 1, system.n_dofs))
    X[:, blk.dofs], V[:, blk.dofs] = np.vstack([blk.x0, Xb]), np.vstack([blk.v0, Vb])
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


def pair_map(n, pairs):
    """T of solvers._paired on n dofs as a sparse matrix, built from the
    pairs."""
    rows = np.concatenate([np.arange(n), *pairs])
    cols = np.concatenate([np.arange(n), pairs[1], pairs[0]])
    vals = np.ones(len(rows))
    vals[pairs[1]] = -1.0  # T's diagonal on the hi slots
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(n, n))


def adapted(system):
    """(Ma, Ka, Ba, odd, odd_in) of the system in mirror-adapted coordinates:
    M and K as T (A T), B with its columns paired first, then its rows."""
    pairs, drives, odd, odd_in = solvers._parity(*solvers.mirror_map(system), system.B.shape[1])
    T = pair_map(system.n_dofs, pairs)
    B = solvers._paired(system.B.copy(), drives)
    solvers._paired(B.T, pairs)
    return T @ (system.M @ T), T @ (system.K @ T), B, odd, odd_in


class TestMirrorHalves:
    @pytest.mark.parametrize("n", [32, 512])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_cross_blocks_are_exact_zeros(self, variant, regime, bc, n):
        # In mirror-adapted coordinates the top-charge slots carry the half
        # sum (even, with stretching) and the bottom-charge slots the half
        # difference (odd, with bending); nothing couples the two halves.
        # A single beam has no pairs and one drive, which is even.
        sysm = build_system(make_spec(variant, regime, bc=bc), n)
        Ma, Ka, By, odd, odd_in = adapted(sysm)
        assert odd_in.tolist() == ([False, True] if variant.is_patch else [False])
        for Ay in (Ma, Ka):
            assert (Ay != Ay.T).nnz == 0  # bitwise symmetric
            for rows, cols in ((~odd, odd), (odd, ~odd)):
                assert np.all(Ay[rows][:, cols].data == 0.0)
            assert Ay[~odd][:, ~odd].count_nonzero() and Ay[odd][:, odd].count_nonzero()
        assert np.all(By[~odd][:, odd_in] == 0.0) and np.all(By[odd][:, ~odd_in] == 0.0)
        assert np.any(By[~odd][:, ~odd_in])
        assert np.any(By[odd][:, odd_in]) == variant.is_patch

    @pytest.mark.parametrize("n", [4, 32, 512])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_halves_are_the_components_of_the_adapted_graph(self, rng, variant, regime, bc, n):
        # The parity rule gives the blocks a graph search finds: the
        # connected components of |Ma| + |Ka|.
        sysm = build_system(make_spec(variant, regime, bc=bc), n)
        Ma, Ka, _, _, _ = adapted(sysm)
        graph = abs(Ma) + abs(Ka)
        graph.eliminate_zeros()
        n_comp, labels = connected_components(graph, directed=False)
        components = {frozenset(np.flatnonzero(labels == c)) for c in range(n_comp)}
        x0 = rng.standard_normal(sysm.n_dofs)
        blocks, _ = solvers._split(sysm, x0, x0, np.ones((1, sysm.B.shape[1])))
        assert {frozenset(blk.dofs) for blk in blocks} == components
        assert len(blocks) == 2

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_node_order_is_never_wider_than_rcm(self, rng, variant, regime, bc, n):
        # Each half comes in node order; reverse Cuthill-McKee on its step
        # matrix's graph gives no narrower band.
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        def half_bandwidth(A, order):
            at = np.empty(len(order), dtype=np.int64)
            at[order] = np.arange(len(order))
            coo = A.tocoo()
            return int(np.abs(at[coo.row] - at[coo.col]).max())

        sysm = build_system(make_spec(variant, regime, bc=bc), n)
        x0 = rng.standard_normal(sysm.n_dofs)
        blocks, _ = solvers._split(sysm, x0, x0, np.ones((1, sysm.B.shape[1])))
        assert len(blocks) == 2
        for blk in blocks:
            S = scipy.sparse.csr_array(blk.M + blk.K)
            node = half_bandwidth(S, np.arange(S.shape[0]))
            assert node == step_operator(blk, 1e-3).L.shape[0] - 1
            assert node <= half_bandwidth(S, reverse_cuthill_mckee(S, symmetric_mode=True))

    @pytest.mark.parametrize("n", [32, 512])
    def test_halves_sum_in_block_form(self, rng, n):
        # Each entry of a half is, bitwise, its value in the explicit block
        # form: with t the top and b the bottom charges and m the mechanical
        # dofs, A_mm, A_mt +- A_mb, A_tm +- A_bm and
        # (A_tt + A_bb) +- (A_tb + A_bt), + in the even half, - in the odd.
        vspec, _ = shipped_spec(SHIPPED[1])
        sysm = build_system(vspec, n)
        t, b = sysm.dofs_of("qT"), sysm.dofs_of("qB")
        m = np.setdiff1d(np.arange(sysm.n_dofs), np.concatenate([t, b]))
        order = np.concatenate([m, t, b])
        assert np.array_equal(np.sort(order), np.arange(sysm.n_dofs))
        x0 = rng.standard_normal(sysm.n_dofs)
        even, odd = solvers._split(sysm, x0, x0, np.ones((1, 2)))[0]
        inv = np.argsort(order)  # from [m | t | b] back to the system's numbering
        for name in ("M", "K"):
            A = getattr(sysm, name)

            def blk(r, c):
                return A[r][:, c]

            want = scipy.sparse.bmat([
                [blk(m, m), blk(m, t) + blk(m, b), blk(m, t) - blk(m, b)],
                [blk(t, m) + blk(b, m), (blk(t, t) + blk(b, b)) + (blk(t, b) + blk(b, t)), None],
                [blk(t, m) - blk(b, m), None, (blk(t, t) + blk(b, b)) - (blk(t, b) + blk(b, t))],
            ], format="csr")[inv][:, inv]
            for half in (even, odd):
                pair = [want[half.dofs][:, half.dofs].tocoo(), getattr(half, name).tocoo()]
                for Z in pair:
                    Z.sum_duplicates()
                    Z.eliminate_zeros()
                assert np.array_equal(pair[0].coords, pair[1].coords), name
                assert np.array_equal(pair[0].data, pair[1].data), name

    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_both_halves_map_back_to_the_unsplit_sweep(self, rng, monkeypatch,
                                                       variant, regime):
        # Unequal drives and a random initial state move both halves.
        vspec = make_spec(variant, regime, voltage=(VoltageSignal.sinusoid(1.0, 3.0),
                                                    VoltageSignal.sinusoid(-0.5, 2.0)))
        sysm = build_system(vspec, 16)
        x0 = 1e-3 * rng.standard_normal(sysm.n_dofs)
        v0 = 1e-3 * rng.standard_normal(sysm.n_dofs)
        blocks, _ = solvers._split(sysm, x0, v0, np.ones((1, 2)))
        assert len(blocks) == 2
        swept = counting_sweeps(monkeypatch)
        traj = recorded(sysm, x0, v0, 1e-3, 0.3)
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
        traj = recorded(sysm, zero, zero, config.dt, 0.05, velocities=False)
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
        traj = recorded(sysm, zero, zero, 1e-3, 0.1)
        assert set(swept) == {len(sysm.class_dofs("stretching", "charge"))} == {66}
        bend = sysm.class_dofs("bending")
        assert np.all(traj.X[:, bend] == 0.0) and np.all(traj.V[:, bend] == 0.0)

    @pytest.mark.parametrize("rows_per_chunk", [None, 3])
    def test_nothing_moves_nothing_is_swept(self, monkeypatch, rows_per_chunk):
        # The observer still sees every row, as exact zeros, chunk by chunk.
        sysm = build_system(make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC), 8)
        if rows_per_chunk:
            monkeypatch.setattr(solvers, "CHUNK_ENTRIES", rows_per_chunk * sysm.n_dofs)
        swept = counting_sweeps(monkeypatch)
        zero = np.zeros(sysm.n_dofs)
        traj = recorded(sysm, zero, zero, 1e-3, 0.1)
        assert swept == [] and len(traj.t) == 101
        for name in ("X", "V", "kinetic", "stored", "magnetic", "work"):
            assert not np.any(getattr(traj, name)), name

    def test_broken_mirror_steps_unsplit(self, rng, monkeypatch):
        # A corrupted coupling breaks the mirror: the system steps as one
        # block in its own coordinates, in its band order (node order), bitwise
        # the direct sweep.
        vspec, config = shipped_spec(SHIPPED[1])
        sysm = scenarios._corrupt_coupling(build_system(vspec, config.n_elements))
        zero = np.zeros(sysm.n_dofs)
        blocks, pairs = solvers._split(sysm, zero, zero, np.ones((1, 2)))
        assert pairs is None and len(blocks) == 1
        want, _ = band_block(sysm, 1e-3, zero, zero)
        assert np.array_equal(blocks[0].dofs, want.dofs)
        for name in ("M", "K"):
            got, ref = getattr(blocks[0], name), getattr(want, name)
            for k in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, k), getattr(ref, k)), name
        swept = counting_sweeps(monkeypatch)
        traj = recorded(sysm, zero, zero, 1e-3, 0.2)
        assert set(swept) == {sysm.n_dofs}
        want = unsplit_run(sysm, zero, zero, 1e-3, 200)
        assert np.array_equal(traj.X, want["X"]) and np.array_equal(traj.V, want["V"])


# --- the set-up as it was first written, the reference of its bits ----------


def reference_mirror(system):
    """(perm, sign) of the top/bottom mirror from the system's field dofs."""
    perm, sign = np.arange(system.n_dofs), np.ones(system.n_dofs)
    sign[system.class_dofs("bending")] = -1.0
    if "qT" in system.layout.fields:
        top, bot = system.dofs_of("qT"), system.dofs_of("qB")
        perm[top], perm[bot] = bot, top
    return perm, sign


def reference_band_order(system, dofs=slice(None)):
    """The band numbering as a lexsort by bending-after-the-rest (single
    beam), then node position."""
    pos = np.concatenate([system.layout.node_positions(f) for f in system.layout.fields])
    late = np.zeros(system.n_dofs, dtype=bool)
    late[system.class_dofs("bending")] = "qT" not in system.layout.fields
    return np.lexsort((pos[system.free_dofs][dofs], late[dofs]))


def reference_gathered(A, rows, cols, row_scale, col_scale):
    """The gathered CSR matrix built by scipy: a CSR array of the gathered
    rows, then sum_duplicates, which sorts each row and sums what meets."""
    counts = np.diff(A.indptr)[rows]
    indptr = np.append(0, np.cumsum(counts))
    src, vals = np.empty(indptr[-1], dtype=A.indices.dtype), np.empty(indptr[-1])
    scipy.sparse._sparsetools.csr_row_index(
        len(rows), np.asarray(rows, dtype=A.indices.dtype), A.indptr, A.indices, A.data,
        src, vals)
    vals *= col_scale[src]
    vals *= np.repeat(row_scale, counts)
    col = cols[src]
    keep = col >= 0
    if not keep.all():
        indptr = np.append(0, np.cumsum(keep))[indptr]
        vals, col = vals[keep], col[keep]
    G = scipy.sparse.csr_array((vals, col, indptr), shape=(len(rows),) * 2)
    G.sum_duplicates()
    return G


def reference_mirror_gap(A, perm, sign):
    mirrored = reference_gathered(A, perm, perm, sign, sign[perm])
    same = all(np.array_equal(getattr(mirrored, k), getattr(A, k))
               for k in ("indptr", "indices", "data"))
    return 0.0 if same else float(abs(mirrored - A).max())


def reference_halves(system, perm, sign):
    """The even and odd halves' dofs, M and K of an exactly mirror-symmetric
    system, each gathered as above."""
    n = system.n_dofs
    pairs, _, odd, _ = solvers._parity(perm, sign, system.B.shape[1])
    order, half = reference_band_order(system), np.ones(n)
    half[np.concatenate(pairs)] = 0.5
    halves = []
    for k, dofs in enumerate([order[~odd[order]], order[odd[order]]]):
        at, col_sign = np.full(n, -1), np.ones(n)
        at[perm[dofs]] = at[dofs] = np.arange(len(dofs))
        col_sign[pairs[1]] = -1.0 if k else 1.0
        halves.append((dofs, *(reference_gathered(A, dofs, at, col_sign[dofs] / half[dofs],
                                                  col_sign) for A in (system.M, system.K))))
    return halves


def reference_factor(M, K, dt, order=None):
    """(L, U) of M + (dt^2/4) K summed by scipy, its lower band filled from
    its COO entries in the order given and factored by cholesky_banded."""
    A = scipy.sparse.csr_array(M + (dt * dt / 4.0) * K)
    order = np.arange(A.shape[0]) if order is None else order
    entries = A.tocoo()
    at = np.empty(A.shape[0], dtype=np.int64)
    at[order] = np.arange(A.shape[0])
    row, col = at[entries.row], at[entries.col]
    lower = row >= col
    offset, col = row[lower] - col[lower], col[lower]
    ab = np.zeros((int(offset.max(initial=0)) + 1, A.shape[0]))
    ab[offset, col] = entries.data[lower]
    L = scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
    p, n = L.shape[0] - 1, L.shape[1]
    U = np.zeros(L.shape, order="F")
    for d in range(p + 1):
        U[p - d, d:] = L[d, :n - d]
    return L, U


def assert_same_csr(got, want, what):
    for k in ("indices", "indptr", "data"):
        assert getattr(got, k).dtype == getattr(want, k).dtype, (what, k)
        assert getattr(got, k).tobytes() == getattr(want, k).tobytes(), (what, k)


class TestSetUpBits:
    @pytest.mark.parametrize("n_elements", [1, 5, 32, 97, 512])
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    def test_split_and_step_factor_keep_their_bits(self, variant, regime, bc, n_elements):
        # The mirror, its gap, both halves' M and K and the step factors of
        # the halves and of the whole system are bitwise those the sorting
        # forms above build.  Every patch build is exactly mirror symmetric.
        vspec = make_spec(variant, regime, bc=bc)
        system = assemble(vspec, mesh_of(vspec, n_elements))
        if bc != BoundaryCondition.FREE_FREE:
            system = apply_mechanical_bc(system, bc)
        perm, sign = reference_mirror(system)
        got_perm, got_sign = solvers.mirror_map(system)
        assert got_perm.tobytes() == perm.tobytes() and got_sign.tobytes() == sign.tobytes()
        for A in (system.M, system.K):
            gap = solvers.mirror_gap(A, perm, sign)
            assert gap == reference_mirror_gap(A, perm, sign) == 0.0
        x0 = np.random.default_rng(n_elements).standard_normal(system.n_dofs)
        blocks, _ = solvers._split(system, x0, x0, np.ones((3, system.B.shape[1])))
        halves = reference_halves(system, perm, sign)
        assert [len(blk.dofs) for blk in blocks] == [len(dofs) for dofs, _, _ in halves]
        dt = 1e-3
        for k, (blk, (dofs, M, K)) in enumerate(zip(blocks, halves)):
            assert blk.dofs.tobytes() == dofs.tobytes()
            assert_same_csr(blk.M, M, f"half {k} M")
            assert_same_csr(blk.K, K, f"half {k} K")
            op, (L, U) = step_operator(blk, dt), reference_factor(M, K, dt)
            assert_same_bits(op.L, L, f"half {k} L")
            assert_same_bits(op.U, U, f"half {k} U")
        order = reference_band_order(system)
        op, (L, U) = step_operator(system, dt), reference_factor(system.M, system.K, dt, order)
        assert op.order.tobytes() == order.tobytes()
        assert_same_bits(op.L, L, "whole L")
        assert_same_bits(op.U, U, "whole U")

    @pytest.mark.parametrize("variant,regime", PATCH_COMBOS)
    def test_corrupted_coupling_steps_whole(self, variant, regime, rng):
        # PIEZOBEAM_CORRUPT_COUPLING's system breaks the mirror, in K (fully
        # dynamic, a gap the reference's and nonzero) or in B (electrostatic),
        # and steps unsplit, as one block gathered in band order and factored
        # bitwise as the reference does.
        system = scenarios._corrupt_coupling(build_system(make_spec(variant, regime), 32))
        perm, sign = reference_mirror(system)
        gap = solvers.mirror_gap(system.K, perm, sign)
        assert gap == reference_mirror_gap(system.K, perm, sign)
        assert (gap > 0.0) is (regime == Regime.FULL_MAGNETIC)
        x0 = rng.standard_normal(system.n_dofs)
        (blk,), pairs = solvers._split(system, x0, x0, np.ones((3, 2)))
        order = reference_band_order(system)
        assert pairs is None and blk.dofs.tobytes() == order.tobytes()
        at, ones = np.empty(system.n_dofs, dtype=np.int64), np.ones(system.n_dofs)
        at[order] = np.arange(system.n_dofs)
        for got, A in ((blk.M, system.M), (blk.K, system.K)):
            assert_same_csr(got, reference_gathered(A, order, at, ones, ones), "whole")
        L, U = reference_factor(blk.M, blk.K, 1e-3)
        op = step_operator(blk, 1e-3)
        assert_same_bits(op.L, L, "L")
        assert_same_bits(op.U, U, "U")


DRIVES = {
    # name: (patch voltages, single-beam voltage, random initial state)
    "equal": ((VoltageSignal.sinusoid(1.0, 3.0),) * 2, VoltageSignal.sinusoid(1.0, 3.0), False),
    "opposite": ((VoltageSignal.sinusoid(1.0, 3.0), VoltageSignal.sinusoid(-1.0, 3.0)),
                 VoltageSignal.sinusoid(-1.0, 3.0), False),
    "unequal": ((VoltageSignal.sinusoid(1.0, 3.0), VoltageSignal.sinusoid(-0.5, 2.0)),
                VoltageSignal.sinusoid(0.5, 2.0), True),
    "none": ((VoltageSignal.zero(),) * 2, VoltageSignal.zero(), False),
}


def selections(system, rng):
    """Dof selections of every kind an observer may name: whole mirror
    pairs, one slot of a pair, no pair, none at all, every dof, and index
    arrays in no order."""
    n = system.n_dofs
    out = {"every": np.arange(n), "none": np.arange(0),
           "mechanical": system.class_dofs("stretching", "bending"),
           "random": np.sort(rng.choice(n, n // 3, replace=False)),
           "unordered": rng.permutation(n)[:n // 2],
           "repeated": np.repeat(system.class_dofs("charge"), 2)[::-1]}
    if "qT" in system.layout.fields:
        top, bottom = system.dofs_of("qT"), system.dofs_of("qB")
        out["whole pairs"] = np.union1d(top, bottom)
        out["top slots"] = top
        out["bottom slots and bending"] = np.union1d(bottom[::2], system.class_dofs("bending"))
    return out


def scattered_rows(n, pairs, blocks, cols, Z):
    """A system's whole rows from the stacked moving rows Z as simulate
    formed them before it gathered from wide rows: exact zeros, the moving
    columns scattered in, then _paired (pairs None: no map)."""
    X = np.zeros((len(Z), n))
    for blk, c in zip(blocks, cols):
        X[:, blk.dofs] = Z[:, c]
    return X if pairs is None else solvers._paired(X, pairs)


def assert_same_bits(got, want, what):
    want = np.ascontiguousarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what
    assert got.tobytes() == want.tobytes(), what


class TestObservedColumns:
    """simulate(..., observed=dofs) forms only the named columns of each
    recorded row, bitwise those of the whole rows, signed zeros included."""

    @pytest.mark.parametrize("tiny_chunks", [False, True])
    @pytest.mark.parametrize("drive", list(DRIVES))
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_columns_are_those_of_the_whole_rows(self, rng, monkeypatch, variant, regime, bc,
                                                 drive, tiny_chunks):
        pair, single, moving = DRIVES[drive]
        sysm = build_system(make_spec(variant, regime, bc=bc,
                                      voltage=pair if variant.is_patch else single), 4)
        if tiny_chunks:
            monkeypatch.setattr(solvers, "CHUNK_ENTRIES", 40)
        # Negative zeros in the initial state reach row 0 of the blocks
        # that move; a block at rest gives positive zeros.
        n = sysm.n_dofs
        x0, v0 = 1e-3 * rng.standard_normal((2, n)) if moving else np.zeros((2, n))
        x0[::4], v0[1::4] = -0.0, -0.0
        whole = recorded(sysm, x0, v0, 1e-3, 0.05, stride=3)
        if moving:  # row 0 is the initial state, bitwise off the mirror pairs
            pairs = solvers._parity(*solvers.mirror_map(sysm), 1)[0]
            off = np.setdiff1d(np.arange(n), np.concatenate(pairs))
            assert_same_bits(whole.X[0, off], x0[off], "x0")
            assert_same_bits(whole.V[0, off], v0[off], "v0")
        sels = selections(sysm, rng)
        # Every selection in one batched sweep, and the first one alone.
        seen = {name: ([], []) for name in sels}

        def observe(rows, Xs, Vs):
            for (xs, vs), X, V in zip(seen.values(), Xs, Vs):
                xs.append(X.copy())
                vs.append(V.copy())

        simulate([sysm] * len(sels), [x0] * len(sels), [v0] * len(sels), 1e-3, 0.05, stride=3,
                 observe=observe, observed=list(sels.values()))
        for name, dofs in sels.items():
            for got, rows in zip(seen[name], (whole.X, whole.V)):
                assert_same_bits(np.concatenate(got), rows[:, dofs], name)
        alone, dofs = [], sels.get("bottom slots and bending", sels["mechanical"])
        simulate(sysm, x0, v0, 1e-3, 0.05, stride=3, velocities=False,
                 observe=lambda rows, X, V: alone.append(X.copy()), observed=dofs)
        assert_same_bits(np.concatenate(alone), whole.X[:, dofs], "alone")

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("drive", list(DRIVES))
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_wide_rows_gather_as_the_scatter_and_pair_map(self, rng, variant, regime, drive, m):
        # One gather from the wide rows, after the pair map's values are
        # written into them, is bitwise (signed zeros included) the rows the
        # observer read before: exact zeros with the moving columns
        # scattered in, _paired over the pairs the selection needs, then
        # the selection.  Blocks in a band-like numbering, blocks at rest,
        # pairs, picks, one slot of a pair and repeats are all covered.
        pair, single, moving = DRIVES[drive]
        sysm = build_system(make_spec(variant, regime,
                                      voltage=pair if variant.is_patch else single), 4)
        x0 = 1e-3 * rng.standard_normal(sysm.n_dofs) if moving else np.zeros(sysm.n_dofs)
        t_mid = 1e-3 * (np.arange(3) + 0.5)
        volts = np.column_stack([sig(t_mid) for sig in sysm.vspec.voltages])
        blocks, pairs = solvers._split(sysm, x0, x0, volts)
        blocks = [renumbered(blk, rng.permutation(len(blk.dofs))) for blk in blocks]
        ends = np.cumsum([len(blk.dofs) for blk in blocks], dtype=int)
        cols = [slice(e - len(blk.dofs), e) for blk, e in zip(blocks, ends)]
        n = int(ends[-1]) if len(blocks) else 0
        Z = rng.standard_normal((m, n))
        Z[:, ::3] = -0.0
        for name, dofs in selections(sysm, rng).items():
            want = scattered_rows(sysm.n_dofs, pairs, blocks, cols, Z)[:, dofs]
            plan = solvers._plan(sysm.n_dofs, pairs, blocks, cols, dofs, n, n + 1)
            W = np.full((m, n + 1 + 2 * len(plan[0])), np.nan)
            W[:, :n], W[:, n] = Z, 0.0
            out = np.full(m * (len(dofs) + 2 * len(plan[0])), np.nan)
            (got,) = solvers._observed([plan], W, out)
            assert got.size == 0 or np.shares_memory(got, out)
            assert_same_bits(got, want, name)

    def test_observed_must_index_the_system(self):
        sysm = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 4)
        zero = np.zeros(sysm.n_dofs)
        for bad in ([sysm.n_dofs], [-1]):
            with pytest.raises(ValueError, match="observed dofs"):
                simulate(sysm, zero, zero, 1e-3, 0.01, observed=bad)
        with pytest.raises(ValueError):
            simulate([sysm, sysm], [zero, zero], [zero, zero], 1e-3, 0.01, observed=[None])


def test_cli_import_loads_no_graph_module():
    # Every factor is ordered by node position, so no graph ordering (and
    # none of scipy.sparse.csgraph) is loaded.
    code = ("import sys, piezobeam.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.csgraph')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


class TestBenchmarkContract:
    """What perfbench takes from the package by name: a change here makes
    every benchmark run exit 2, or every traced one lose its sweep layer."""

    def test_backend_name_is_importable(self):
        from piezobeam.kernels import backend_name

        assert isinstance(backend_name(), str) and backend_name()

    @staticmethod
    def tracer():
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        return tracer

    def test_tracer_binds_the_sweep_arguments(self):
        # perfbench/tracer.py wraps kernels.midpoint_sweep on every name it
        # is bound to and counts from its arguments L, M, K, bvolts, x0 and
        # rec_steps, bound by name; M and K arrive in band numbering.
        tracer = self.tracer()
        sysm = shipped_system(SHIPPED[0])
        zero = np.zeros(sysm.n_dofs)
        t = tracer.Tracer()
        t.install()
        try:
            simulate(sysm, zero, zero, 1e-3, 0.3)
        finally:
            t.remove()
        assert t.missing == []
        assert solvers.midpoint_sweep is midpoint_sweep
        m = tracer.layer_metrics(t.take())
        assert m["kernels.steps"] == 300 and m["kernels.recorded_rows"] == 300
        (blk,), _ = solvers._split(sysm, zero, zero, np.ones((1, 1)))  # {v, q}
        op = step_operator(blk, 1e-3)
        assert m["kernels.operator_entries"] == op.L.size + blk.M.nnz + blk.K.nnz
        assert m["kernels.sweep_s"] > 0.0 and m["solvers.factor_builds"] == 1

    @pytest.mark.parametrize("path", SHIPPED)
    def test_worker_setup_path(self, path):
        # perfbench/worker.py's set-up calls these by name: parse_config,
        # build_system, resolved_dt and step_operator(system, dt).
        from piezobeam.config import resolved_dt

        with open(path, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        system = build_system(config.validated(), config.n_elements)
        op = step_operator(system, resolved_dt(config))
        assert isinstance(op, FactorizedOperator) and op.L.shape[1] == system.n_dofs

    def test_tracer_binds_the_eigenmodes_arguments(self, tmp_path):
        # perfbench/tracer.py counts solvers.eigenmodes' dofs from its
        # argument M, bound by name: a traced modes command raises KeyError
        # as soon as eigenmodes loses it.
        tracer = self.tracer()
        t = tracer.Tracer()
        t.install()
        try:
            code = cli.main(["modes", SHIPPED[1], "--n", "16", "--out", str(tmp_path)])
        finally:
            t.remove()
        assert t.missing == []
        assert code == 0
        m = tracer.layer_metrics(t.take())
        assert m["solvers.eigen_dofs"] == shipped_system(SHIPPED[1]).n_dofs

    def test_tracer_splits_a_patch_simulate_into_its_layers(self, tmp_path):
        # A traced simulate of the shipped patch config builds one system,
        # whose M, K and B the tracer sizes from build_system's result, and
        # factors one step matrix through FactorizedOperator.build under
        # step_operator.  A set-up that went round either would leave the
        # benchmark's assembly or factor layer reading zero.
        tracer = self.tracer()
        t = tracer.Tracer()
        t.install()
        try:
            assert cli.main(["simulate", SHIPPED[1], "--out", str(tmp_path)]) == 0
        finally:
            t.remove()
        assert t.missing == []
        m = tracer.layer_metrics(t.take())
        assert m["assembly.systems"] == 1 and m["solvers.factor_builds"] == 1
        system = shipped_system(SHIPPED[1])
        stored = sum(getattr(A, k).nbytes for A in (system.M, system.K)
                     for k in ("data", "indices", "indptr"))
        assert m["assembly.matrix_mb"] * tracer.MB == stored + system.B.nbytes

    def test_tracer_sees_one_factor_per_limit_sweep(self):
        # limit's five systems step in one simulate, which factors their
        # stacked step matrix once: one step_operator span, one build.
        tracer = self.tracer()
        vspec, config = shipped_spec(SHIPPED[1])
        t = tracer.Tracer()
        t.install()
        try:
            scenarios.run_electrostatic_limit(vspec, (5e-1, 5e-2, 5e-3, 5e-4),
                                              config.n_elements, config.dt, 0.05)
        finally:
            t.remove()
        assert t.missing == []
        spans = t.take()
        assert [s.name for s in spans].count("solvers.simulate") == 1
        assert [s.name for s in spans].count("solvers.step_operator") == 1
        assert tracer.layer_metrics(spans)["solvers.factor_builds"] == 1

    def test_tracer_sees_every_write_of_a_simulate(self, tmp_path):
        # The tracer wraps output.write_csv by name and counts the bytes of
        # the file at its path argument: simulate writes each CSV in one call
        # (the trajectory reuses the text of t and the ledger that writing
        # energy.csv returned), so every byte written shows in output.bytes,
        # and the sweep in kernels.sweep_s.
        tracer = self.tracer()
        t = tracer.Tracer()
        t.install()
        try:
            assert cli.main(["simulate", SHIPPED[0], "--out", str(tmp_path)]) == 0
        finally:
            t.remove()
        assert t.missing == []
        spans = t.take()
        csvs = [s for s in spans if s.name == "output.write_csv"]
        sizes = {f: os.path.getsize(tmp_path / f) for f in ("trajectory.csv", "energy.csv")}
        assert sorted(s.counts["bytes"] for s in csvs) == sorted(sizes.values())
        m = tracer.layer_metrics(spans)
        assert m["output.bytes"] == sum(os.path.getsize(p) for p in tmp_path.iterdir())
        assert m["output.write_s"] > 0.0 and m["kernels.sweep_s"] > 0.0
        assert m["kernels.steps"] == 2000
