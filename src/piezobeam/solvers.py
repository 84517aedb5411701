"""Linear algebra and time integration for the semi-discrete system.

The implicit midpoint rule (trapezoidal/Newmark with beta=1/4, gamma=1/2)
advances  M xdd + K x = B V(t)  via

    (M + dt^2/4 K) v_{n+1} = (M - dt^2/4 K) v_n - dt K x_n + dt B V(t_n + dt/2)
    x_{n+1} = x_n + dt (v_n + v_{n+1}) / 2

It is unconditionally stable, second order, time reversible, and conserves
every quadratic invariant of the flow; with forcing, the discrete energy
increment per step equals the midpoint work dt * vbar^T B V(t_mid) exactly
(in exact arithmetic), which is what the power-balance diagnostics check.

M and K are sparse: 1D elements couple only neighbouring nodes, so after a
reverse Cuthill-McKee ordering the step matrix is banded (half-bandwidth 3
on the single beam, 12 on the patch model), and one banded Cholesky
factorization serves every solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ConvergenceFailure, NotPositiveDefinite, SingularStepMatrix
from .kernels import midpoint_sweep

if TYPE_CHECKING:
    from .assembly import SemiDiscreteSystem

DENSE_LIMIT = 2000  # above this many dofs, eigensolves go through ARPACK


@dataclass
class FactorizedOperator:
    """Banded Cholesky factorization of a sparse SPD matrix A.

    perm is a reverse Cuthill-McKee ordering of A's sparsity graph and L the
    lower banded factor (LAPACK storage, shape (p+1, n), p the half-bandwidth)
    of A[perm][:, perm].  Exact zeros of A between decoupled blocks stay exact
    zeros in L, so a block without load solves to bitwise zero.
    """

    L: np.ndarray
    perm: np.ndarray

    @classmethod
    def build(cls, A) -> "FactorizedOperator":
        A = scipy.sparse.csr_array(A)
        perm = reverse_cuthill_mckee(A, symmetric_mode=True)
        lower = scipy.sparse.tril(A[perm][:, perm]).tocoo()
        offset = lower.row - lower.col
        ab = np.zeros((int(offset.max(initial=0)) + 1, A.shape[0]))
        ab[offset, lower.col] = lower.data
        try:
            L = scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("Cholesky factorization failed") from exc
        if not np.all(np.isfinite(L[0])):
            raise NotPositiveDefinite("Cholesky factorization produced a non-finite pivot")
        return cls(L=L, perm=perm)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for one right-hand side (n,) or several (n, k)."""
        x = np.empty(np.shape(b))
        x[self.perm] = scipy.linalg.cho_solve_banded(
            (self.L, True), np.asarray(b, dtype=float)[self.perm], check_finite=False)
        return x


def solve_spd(A, b: np.ndarray, check: bool = True) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A (sparse or dense).

    One step of iterative refinement with the residual in extended precision
    follows the banded solve: the band ordering interleaves strongly coupled
    fields, whose elimination loses digits that a field-by-field ordering
    keeps, and the refined solution is accurate to round-off of x itself.
    Raises NotPositiveDefinite when the factorization fails and verifies the
    relative residual stays below 1e-10 when `check` is set.
    """
    op = FactorizedOperator.build(A)
    b = np.asarray(b, dtype=float)
    x = op.solve(b)
    x = x + op.solve((b - scipy.sparse.csr_array(A).astype(np.longdouble) @ x).astype(float))
    if check:
        nb = np.linalg.norm(b)
        if nb > 0:
            res = np.linalg.norm(A @ x - b) / nb
            if not res <= 1e-10:
                raise NotPositiveDefinite(f"SPD solve residual {res:.3e} too large")
    return x


@dataclass
class ModeSet:
    """Generalized eigenpairs K phi = omega^2 M phi, ascending frequencies.

    shapes is (n_dofs, n_modes), M-orthonormal.  n_zero counts the rigid/gauge
    modes detected by |omega^2| < 1e-8 * omega^2_max.
    """

    omegas: np.ndarray
    shapes: np.ndarray
    n_zero: int


def eigenmodes(M, K, n_modes: int) -> ModeSet:
    """Lowest n_modes of the pencil (K, M), M and K sparse symmetric.

    Dense symmetric solve below DENSE_LIMIT dofs.  Above it, shift-invert
    Lanczos at a small negative shift: K - sigma M is SPD for sigma < 0 even
    when K is singular (rigid motions, charge gauge), so it factors like any
    step matrix.  A fixed start vector keeps the result byte-stable.
    ConvergenceFailure when the iteration cap is hit.
    """
    n = M.shape[0]
    n_modes = min(n_modes, n)
    if n <= DENSE_LIMIT:
        # Fortran-ordered copies go to LAPACK to overwrite, so eigh makes no
        # n x n copies of its own.
        vals, vecs = scipy.linalg.eigh(K.toarray(order="F"), M.toarray(order="F"),
                                       overwrite_a=True, overwrite_b=True,
                                       check_finite=False)
        lam_max = float(vals[-1]) if len(vals) else 0.0
        vals = vals[:n_modes]
        vecs = vecs[:, :n_modes]
    else:
        sigma = -1e-6 * float(K.diagonal().mean()) / float(M.diagonal().mean())
        op = FactorizedOperator.build(K - sigma * M)
        opinv = scipy.sparse.linalg.LinearOperator((n, n), matvec=op.solve, dtype=float)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                K, k=n_modes, M=M, sigma=sigma, which="LM", OPinv=opinv,
                v0=np.random.default_rng(0).standard_normal(n))
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ConvergenceFailure(
                f"eigenvalue iteration did not converge: {exc}"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        lam_max = float(abs(vals).max())
    lam = np.clip(vals, 0.0, None)
    omegas = np.sqrt(lam)
    n_zero = int(np.sum(np.abs(vals) < 1e-8 * max(lam_max, 1e-300)))
    return ModeSet(omegas=omegas, shapes=vecs, n_zero=n_zero)


def step_operator(system: SemiDiscreteSystem, dt: float) -> FactorizedOperator:
    """Factorization of M + (dt^2/4) K, cached on the system per dt."""
    key = ("step", float(dt) ** 2)
    op = system._caches.get(key)
    if op is None:
        S = system.M + (dt * dt / 4.0) * system.K
        try:
            op = FactorizedOperator.build(S)
        except NotPositiveDefinite as exc:
            raise SingularStepMatrix(
                f"step matrix not positive definite for dt={dt}"
            ) from exc
        system._caches[key] = op
    return op


def step_midpoint(system: SemiDiscreteSystem, x, v, t: float, dt: float):
    """One midpoint step from (x, v) at time t; returns (x_new, v_new)."""
    op = step_operator(system, dt)
    load = system.B @ system.voltages_at(t + dt / 2.0)
    X, V, _ = midpoint_sweep(op.L, system.M, system.K, load[None, :], x, v, dt,
                             [1], op.perm)
    return X[0], V[0]


@dataclass
class Trajectory:
    """Recorded states plus the energy ledger of a simulation run."""

    system: SemiDiscreteSystem
    t: np.ndarray
    X: np.ndarray
    V: np.ndarray
    kinetic: np.ndarray
    stored: np.ndarray
    magnetic: np.ndarray
    work: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.kinetic + self.stored + self.magnetic

    @property
    def balance_residual(self) -> np.ndarray:
        """(E(t) - E(0)) - cumulative work; zero for an exact balance."""
        return (self.total - self.total[0]) - self.work

    def __len__(self) -> int:
        return len(self.t)

    def field_values(self, name: str) -> np.ndarray:
        """Recorded nodal *values* of one field, shape (n_rec, n_values)."""
        idx = self.system.value_dofs_of(name)
        return self.X[:, idx]


def _row_energies(A, Z: np.ndarray) -> np.ndarray:
    """0.5 z^T A z for every row z of Z, A sparse symmetric.

    Rows go through in blocks, so the temporaries stay small next to the
    recorded states themselves.
    """
    block = 256
    out = np.empty(len(Z))
    for i in range(0, len(Z), block):
        z = Z[i:i + block]
        out[i:i + block] = 0.5 * np.einsum("ri,ri->r", z, (A @ z.T).T)
    return out


def simulate(system: SemiDiscreteSystem, x0, v0, dt: float, t_end: float,
             stride: int = 1) -> Trajectory:
    """Integrate with the implicit midpoint rule and record every `stride` steps.

    The cumulative work integral is accumulated at every step (not just the
    recorded ones) with the same midpoint quadrature the stepper uses, so the
    energy-balance residual stays at round-off level for any stride.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = system.n_dofs
    if x0.shape != (n,) or v0.shape != (n,):
        raise ValueError(f"initial state must have shape ({n},)")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    n_steps = max(0, int(round(t_end / dt)))
    op = step_operator(system, dt)

    t_mid = dt * (np.arange(n_steps) + 0.5)
    volts = np.column_stack([sig(t_mid) for sig in system.vspec.voltages]) \
        if n_steps else np.zeros((0, system.vspec.n_signals))
    bvolts = volts @ system.B.T if n_steps else np.zeros((0, n))

    rec_steps = list(range(0, n_steps + 1, stride))
    if rec_steps[-1] != n_steps:
        rec_steps.append(n_steps)
    rec_steps = np.asarray(rec_steps, dtype=np.int64)

    X, V, work = midpoint_sweep(op.L, system.M, system.K, bvolts, x0, v0, dt,
                                rec_steps, op.perm)

    kin = _row_energies(system.M, V)
    sto = _row_energies(system.K, X)
    qd = system.charge_dofs()
    if len(qd):
        mag = _row_energies(system.M[qd][:, qd], V[:, qd])
    else:
        mag = np.zeros(len(rec_steps))
    return Trajectory(
        system=system,
        t=rec_steps * dt,
        X=X,
        V=V,
        kinetic=kin - mag,
        stored=sto,
        magnetic=mag,
        work=work,
    )
