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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ConvergenceFailure, EnergyImbalance, NotPositiveDefinite, SingularStepMatrix
from .kernels import cholesky_solve, midpoint_sweep

if TYPE_CHECKING:
    from .assembly import SemiDiscreteSystem

# A mode is rigid or gauge (zero) when |omega^2| < ZERO_MODE_TOL * s, with
# s = mean(diag K) / mean(diag M).  Up to 2048 elements, zero modes of every
# variant, regime and boundary condition measure below 4.3e-12 s and physical
# ones above 2.4e-10 s.  The two meet on finer meshes (2.2e-11 s and 6.2e-11 s
# at 4096 elements): zero modes grow with K's conditioning, physical ones fall.
ZERO_MODE_TOL = 3e-11

# Entries of each per-chunk array of simulate (load, midpoint velocities,
# recorded rows): a chunk holds CHUNK_ENTRIES // n steps, 512 KiB per array.
CHUNK_ENTRIES = 1 << 16


@dataclass
class FactorizedOperator:
    """Banded Cholesky factorization of a sparse SPD matrix A.

    perm is a reverse Cuthill-McKee ordering of A's sparsity graph and L the
    lower banded factor (LAPACK storage, shape (p+1, n), p the half-bandwidth)
    of A[perm][:, perm].  U = L^T in upper band storage is formed once, on
    construction, so that both triangular solves run forward.  L and U are
    Fortran ordered: BLAS would copy anything else on every solve.  Exact
    zeros of A between decoupled blocks stay exact zeros in L, so a block
    without load solves to bitwise zero.
    """

    L: np.ndarray
    perm: np.ndarray
    U: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p, n = self.L.shape[0] - 1, self.L.shape[1]
        self.U = np.zeros(self.L.shape, order="F")
        for d in range(p + 1):  # band row p - d of U is row d of L, d columns on
            self.U[p - d, d:] = self.L[d, :n - d]

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

    @classmethod
    def stack(cls, ops) -> "FactorizedOperator":
        """The factor of block_diag(A_1, A_2, ...) from the factors of its
        blocks: each block keeps its own ordering and band, padded with
        exact zeros to the widest one.  Both solves update the solution by
        axpy, one column at a time, and a padded zero adds an exact zero,
        so each block solves bitwise as it does alone at any bandwidth."""
        sizes = [op.L.shape[1] for op in ops]
        offsets = np.cumsum([0] + sizes[:-1])
        L = np.zeros((max(op.L.shape[0] for op in ops), sum(sizes)), order="F")
        for op, a in zip(ops, offsets):
            L[:op.L.shape[0], a:a + op.L.shape[1]] = op.L
        return cls(L=L, perm=np.concatenate([op.perm + a for op, a in zip(ops, offsets)]))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for one right-hand side (n,) or several (n, k), solved one
        column at a time."""
        b = np.asarray(b, dtype=float)
        x = np.empty(b.shape)
        if b.ndim == 1:
            x[self.perm] = cholesky_solve(self.L, self.U, b[self.perm])
        else:
            for j in range(b.shape[1]):
                x[self.perm, j] = cholesky_solve(self.L, self.U, b[self.perm, j])
        return x


def solve_spd(A, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A (sparse or dense).

    One step of iterative refinement with the residual in extended precision
    follows the banded solve: the band ordering interleaves strongly coupled
    fields, whose elimination loses digits that a field-by-field ordering
    keeps, and the refined solution is accurate to round-off of x itself.
    Raises NotPositiveDefinite when the factorization fails or the relative
    residual exceeds 1e-10.
    """
    op = FactorizedOperator.build(A)
    b = np.asarray(b, dtype=float)
    x = op.solve(b)
    x = x + op.solve((b - scipy.sparse.csr_array(A).astype(np.longdouble) @ x).astype(float))
    nb = np.linalg.norm(b)
    if nb > 0:
        res = np.linalg.norm(A @ x - b) / nb
        if not res <= 1e-10:
            raise NotPositiveDefinite(f"SPD solve residual {res:.3e} too large")
    return x


@dataclass
class ModeSet:
    """Generalized eigenpairs K phi = omega^2 M phi, ascending frequencies.

    shapes is (n_dofs, n_modes), M-orthonormal.  n_zero counts the rigid and
    gauge modes of the pencil, those with |omega^2| < ZERO_MODE_TOL *
    mean(diag K) / mean(diag M); the rule depends neither on the mesh size
    nor on how many modes were asked for, so n_zero may exceed n_modes.
    """

    omegas: np.ndarray
    shapes: np.ndarray
    n_zero: int


def eigenmodes(M, K, n_modes: int) -> ModeSet:
    """Lowest n_modes of the pencil (K, M), M and K sparse symmetric.

    Shift-invert Lanczos (Ericsson & Ruhe 1980, through ARPACK) at a small
    negative shift sigma = -1e-6 s, s = mean(diag K) / mean(diag M): K - sigma M
    is SPD for sigma < 0 even when K is singular (rigid motions, charge
    gauge), so it factors like any step matrix.  At most n - 1 modes come
    back, ARPACK's limit.  The solve takes at least 16 modes (ARPACK crawls
    when k splits the cluster of zero eigenvalues: over 100 s for k = 2 on
    the shipped patch model at 2048 elements) and 16 more until it finds a
    physical one, so n_zero counts zero modes past those returned.  A fixed
    start vector keeps the result byte-stable.  ConvergenceFailure when the
    iteration cap is hit, or when no clear gap separates zero from physical
    modes: a |omega^2| / s within 3x of ZERO_MODE_TOL, or less than 100x
    between the last zero and first physical.
    """
    if n_modes < 1:
        raise ValueError(f"number of modes must be >= 1, got {n_modes}")
    n = M.shape[0]
    scale = float(K.diagonal().mean()) / float(M.diagonal().mean())
    sigma = -1e-6 * scale
    op = FactorizedOperator.build(K - sigma * M)
    opinv = scipy.sparse.linalg.LinearOperator((n, n), matvec=op.solve, dtype=float)
    keep, k = min(n_modes, n - 1), min(max(n_modes, 16), n - 1)
    while True:
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                K, k=k, M=M, sigma=sigma, which="LM", OPinv=opinv,
                v0=np.random.default_rng(0).standard_normal(n))
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ConvergenceFailure(f"eigenvalue iteration did not converge: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        ratio = np.abs(vals) / scale
        zero = ratio < ZERO_MODE_TOL
        if not zero.all() or k == n - 1:
            break
        k = min(k + 16, n - 1)
    last_zero, first_physical = ratio[zero].max(initial=0.0), ratio[~zero].min(initial=np.inf)
    if not (last_zero <= ZERO_MODE_TOL / 3
            and first_physical >= max(3 * ZERO_MODE_TOL, 100 * last_zero)):
        raise ConvergenceFailure(
            f"no clear gap between zero modes (|omega^2| / s up to {last_zero:.2e}) and physical "
            f"ones (from {first_physical:.2e}) at {ZERO_MODE_TOL:.0e}; use fewer elements")
    return ModeSet(omegas=np.sqrt(np.clip(vals[:keep], 0.0, None)), shapes=vecs[:, :keep],
                   n_zero=int(zero.sum()))


def step_operator(system: SemiDiscreteSystem, dt: float) -> FactorizedOperator:
    """Factorization of the midpoint step matrix M + (dt^2/4) K, the one
    place the step matrix is formed."""
    try:
        return FactorizedOperator.build(system.M + (dt * dt / 4.0) * system.K)
    except NotPositiveDefinite as exc:
        raise SingularStepMatrix(
            f"step matrix not positive definite for dt={dt}"
        ) from exc


@dataclass
class Trajectory:
    """Recorded states plus the energy ledger of a simulation run.

    V is None when the run was asked not to keep velocities.
    """

    t: np.ndarray
    X: np.ndarray
    V: np.ndarray | None
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

    @property
    def balance(self) -> tuple[float, float]:
        """(max |balance_residual|, max total energy): criterion 4's two sides."""
        return float(np.max(np.abs(self.balance_residual))), float(np.max(self.total))

    def __len__(self) -> int:
        return len(self.t)


def _row_energies(A, Z: np.ndarray) -> np.ndarray:
    """0.5 z^T A z for every row z of Z, A sparse symmetric.

    The products are summed strictly left to right, so a row's energy does
    not depend on which rows share its chunk (einsum sums a lone contiguous
    row in SIMD order, but several rows sequentially).  Z is one chunk of
    recorded rows, so the temporaries stay as small as the sweep's.
    """
    terms = Z * (A @ Z.T).T
    return 0.5 * np.cumsum(terms, axis=1)[:, -1] if terms.shape[1] else np.zeros(len(Z))


def simulate(system, x0, v0, dt: float, t_end: float, stride: int = 1,
             velocities: bool = True):
    """Integrate with the implicit midpoint rule and record every `stride` steps.

    `system` may also be a list of systems, with x0 and v0 lists of their
    initial states: one sweep then advances all of them as the blocks of one
    block-diagonal system, and a list of Trajectories comes back.  Each
    block is bitwise the run it would be alone (see FactorizedOperator.stack),
    and one system is the one-block case.

    The only caller of the sweep; it factors every block's step matrix once
    per call.  It feeds the sweep CHUNK_ENTRIES // n steps at a time, each
    call continuing from the state the last one returned, and per chunk and
    block forms the load B V(t_mid), the work integral (at every step, with
    the stepper's midpoint quadrature, so the energy-balance residual stays
    at round-off level for any stride) and the ledger of the recorded rows:
    no n_steps x n array is formed, and with velocities=False
    (Trajectory.V is then None) no recorded velocity outlives its chunk.
    Raises EnergyImbalance, naming the block, when a block's residual
    exceeds 1e-8 * its max energy or is not finite (criterion 4): such runs
    come from step matrices that factor but are too ill-conditioned to solve.
    """
    many = isinstance(system, (list, tuple))
    systems, x0s, v0s = (system, x0, v0) if many else ([system], [x0], [v0])
    x0s = [np.asarray(x, dtype=float) for x in x0s]
    v0s = [np.asarray(v, dtype=float) for v in v0s]
    for s, x, v in zip(systems, x0s, v0s, strict=True):
        if x.shape != (s.n_dofs,) or v.shape != (s.n_dofs,):
            raise ValueError(f"initial state must have shape ({s.n_dofs},)")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    n_steps = max(0, int(round(t_end / dt)))
    op = FactorizedOperator.stack([step_operator(s, dt) for s in systems])

    t_mid = dt * (np.arange(n_steps) + 0.5)
    volts = [np.column_stack([sig(t_mid) for sig in s.vspec.voltages]) for s in systems]
    ends = np.cumsum([s.n_dofs for s in systems]).tolist()
    blocks = [slice(a, b) for a, b in zip([0] + ends, ends)]
    rec_steps = np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))

    n_rec = len(rec_steps)
    trajs = [Trajectory(t=rec_steps * dt, X=np.empty((n_rec, s.n_dofs)),
                        V=np.empty((n_rec, s.n_dofs)) if velocities else None,
                        kinetic=np.empty(n_rec), stored=np.empty(n_rec),
                        magnetic=np.empty(n_rec), work=np.empty(n_rec)) for s in systems]
    parts = [(b, s, traj, qd, s.M[qd][:, qd]) for b, s, traj, qd in
             zip(blocks, systems, trajs, [s.class_dofs("charge") for s in systems])]

    M, K = systems[0].M, systems[0].K  # one system needs no block_diag copy
    if len(systems) > 1:
        M = scipy.sparse.block_diag([s.M for s in systems], format="csr")
        K = scipy.sparse.block_diag([s.K for s in systems], format="csr")
    chunk = max(1, CHUNK_ENTRIES // ends[-1])
    load = np.empty((min(chunk, n_steps), ends[-1]))
    x, v = np.concatenate(x0s), np.concatenate(v0s)
    total = np.zeros(len(systems))  # every block's work up to step a
    # Row 0 is the initial state; each later pass records one chunk's rows.
    X, V, work = x[None], v[None], total[None]
    done = a = 0
    while True:
        rows = slice(done, done + len(X))
        for k, (b, s, traj, qd, Mqq) in enumerate(parts):
            Xb, Vb = X[:, b], V[:, b]
            traj.X[rows] = Xb
            if velocities:
                traj.V[rows] = Vb
            traj.work[rows] = work[:, k]
            traj.magnetic[rows] = _row_energies(Mqq, Vb[:, qd])
            traj.kinetic[rows] = _row_energies(s.M, Vb) - traj.magnetic[rows]
            traj.stored[rows] = _row_energies(s.K, Xb)
        done = rows.stop
        del X, V, Xb, Vb  # no chunk's rows outlive its ledger
        if a == n_steps:
            break
        m = min(chunk, n_steps - a)
        for volts_s, s, b in zip(volts, systems, blocks):
            np.matmul(volts_s[a:a + m], s.B.T, out=load[:m, b])
        rec = rec_steps[done:np.searchsorted(rec_steps, a + m, side="right")] - a
        x, v, X, V, vbar = midpoint_sweep(op.L, op.U, M, K, load[:m], x, v, dt, rec,
                                          op.perm)
        # Work increments dt * vbar . load, one dot product per step and
        # block, summed in step order after the previous total.
        inc = np.empty((m + 1, len(systems)))
        inc[0] = total
        for k, b in enumerate(blocks):
            inc[1:, k] = np.matmul(vbar[:, None, b], load[:m, b, None])[:, 0, 0]
        del vbar
        inc[1:] *= dt
        cum = np.cumsum(inc, axis=0)
        total, work = cum[-1], cum[rec]
        a += m

    for k, traj in enumerate(trajs):
        resid, scale = traj.balance
        if not resid <= 1e-8 * scale:  # NaN fails too
            where = f"system {k} of {len(trajs)}: " if many else ""
            raise EnergyImbalance(
                f"{where}energy balance residual {resid:.3e} exceeds 1e-8 * max energy "
                f"{scale:.3e}")
    return trajs if many else trajs[0]
