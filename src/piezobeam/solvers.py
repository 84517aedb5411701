"""Linear algebra and time integration for the semi-discrete system.

The implicit midpoint rule (trapezoidal/Newmark with beta=1/4, gamma=1/2)
advances  M xdd + K x = f = B V(t)  via

    (M + dt^2/4 K) vbar = M v_n - dt/2 K x_n + dt/2 f(t_n + dt/2)
    x_{n+1} = x_n + dt vbar,   v_{n+1} = 2 vbar - v_n

vbar being the midpoint velocity.  The sweep carries the momenta
a = M v - dt/2 K x and b = M v + dt/2 K x, which it steps with one product
by K (see kernels.midpoint_sweep):

    b_{n+1} = 2 r - a_n,   a_{n+1} = 2 r - b_n - dt^2 K vbar,
    r = a_n + dt/2 f(t_n + dt/2) the right-hand side above.

It is unconditionally stable, second order, time reversible, and conserves
every quadratic invariant of the flow; with forcing, the discrete energy
increment per step equals the midpoint work dt * vbar^T B V(t_mid) exactly
(in exact arithmetic), which is what the power-balance diagnostics check.

M and K are sparse: 1D elements couple only neighbouring nodes, so after a
reverse Cuthill-McKee ordering the step matrix is banded (half-bandwidth 3
on the single beam, 12 on the patch model), and one banded Cholesky
factorization serves every solve.

simulate steps only what moves.  It cuts each system into the connected
components of |M| + |K|: {v, q} and {w} (or {w, psi}) on the single beam;
on the patch model, written in mirror-adapted coordinates (the charge
fields replaced by their half sum and half difference), the even half
{v, e} and the odd half {w, psi, o} of the top/bottom mirror (Healey &
Treacy 1991), whose step matrices have half-bandwidths 4 and 6 on the
patch_eb model.  A block at rest (zero initial state, and a load that
vanishes at every step: the odd half under equal voltages, the single
beam's bending) is never swept, and its rows are exact zeros.  When the
mirror does not hold bitwise, a patch system keeps its original
coordinates and steps as one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from .errors import (
    ConvergenceFailure,
    EnergyImbalance,
    NonFiniteState,
    NotPositiveDefinite,
    SingularStepMatrix,
)
from .kernels import cholesky_solve, midpoint_sweep

if TYPE_CHECKING:
    from .assembly import SemiDiscreteSystem

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

    shapes is (n_dofs, n_modes), M-orthonormal.  The first n_zero are the
    model's rigid and gauge modes at omega = 0.0; n_zero may exceed n_modes.
    """

    omegas: np.ndarray
    shapes: np.ndarray
    n_zero: int


def eigenmodes(M, K, n_modes: int, null: np.ndarray) -> ModeSet:
    """Lowest n_modes of the pencil (K, M), M and K sparse symmetric, and
    null (n, n_zero) a basis of K's kernel (SemiDiscreteSystem.null_space).

    The first n_zero modes are null M-orthonormalised, at omega = 0.0.  The
    rest, at most n - n_zero - 1, come from one shift-invert Lanczos solve
    (Ericsson & Ruhe 1980, through ARPACK), deflated as for floating
    structures (Farhat & Geradin 1998): its inverse operator and its fixed
    start vector (which keeps the result byte-stable) are projected
    M-orthogonally off span(null).  The shift sigma = -1e-6 mean(diag K) /
    mean(diag M) makes K - sigma M SPD although K is singular.
    ConvergenceFailure when a column z of null has max|K z| > 64 eps max|K|
    max|z| (a wrong model), or when ARPACK hits its iteration cap.
    """
    if n_modes < 1:
        raise ValueError(f"number of modes must be >= 1, got {n_modes}")
    n, n_zero = null.shape
    bound = 64 * np.finfo(float).eps * abs(K).max() * np.abs(null).max(axis=0)
    if np.any(np.abs(K @ null).max(axis=0) > bound):
        raise ConvergenceFailure("a rigid or gauge mode of the model is not in K's kernel")
    R = scipy.linalg.cholesky(null.T @ (M @ null))
    Z = scipy.linalg.solve_triangular(R, null.T, trans="T").T
    k = min(n_modes, n - 1) - n_zero
    if k < 1:
        return ModeSet(np.zeros(min(n_modes, n_zero)), Z[:, :n_modes], n_zero)

    MZ = M @ Z

    def deflated(y):
        return y - Z @ (MZ.T @ y)

    sigma = -1e-6 * float(K.diagonal().mean()) / float(M.diagonal().mean())
    op = FactorizedOperator.build(K - sigma * M)
    opinv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lambda b: deflated(op.solve(b)),
                                               dtype=float)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            K, k=k, M=M, sigma=sigma, which="LM", OPinv=opinv,
            v0=deflated(np.random.default_rng(0).standard_normal(n)))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.argsort(vals)
    omegas = np.sqrt(np.clip(vals[order], 0.0, None))
    return ModeSet(omegas=np.concatenate([np.zeros(n_zero), omegas]),
                   shapes=np.hstack([Z, vecs[:, order]]), n_zero=n_zero)


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


# --- the top/bottom mirror and the blocks of a step ---------------------------


def mirror_map(system: SemiDiscreteSystem):
    """Permutation and signs of the top/bottom mirror on the current dofs.

    The mirror negates transverse deflection and rotation and swaps the two
    patch charge fields; stretching dofs are fixed.
    """
    n = system.n_dofs
    perm = np.arange(n)
    sign = np.ones(n)
    sign[system.class_dofs("bending")] = -1.0
    if "qT" in system.layout.fields:
        top, bot = system.dofs_of("qT"), system.dofs_of("qB")
        perm[top], perm[bot] = bot, top
    return perm, sign


def mirror_gap(A, perm: np.ndarray, sign: np.ndarray) -> float:
    """Largest entry of |D A[perm][:, perm] D - A|, D = diag(sign); exact."""
    mirrored = A[perm][:, perm].tocoo()
    mirrored.data *= sign[mirrored.row] * sign[mirrored.col]
    mirrored = mirrored.tocsr()
    if (mirrored != A).nnz == 0:
        return 0.0
    return float(abs(mirrored - A).max())


def _paired(X, nm: int, nt: int):
    """T X, T the mirror-adapted map on the numbering [nm mechanical dofs |
    nt top charges | nt bottom charges]: the top rows become X_t + X_b, the
    bottom rows X_t - X_b, the rest stay.  X is an array or a sparse matrix.
    T is symmetric and T T = 2 on the charges, so T maps coordinates back
    and T / 2 maps them in."""
    top, bot = X[nm:nm + nt], X[nm + nt:]
    if scipy.sparse.issparse(X):
        return scipy.sparse.vstack([X[:nm], top + bot, top - bot], format="csr")
    return np.concatenate([X[:nm], top + bot, top - bot])


def _adapted(A, nm: int, nt: int):
    """T A T for sparse A (see _paired), its columns paired first, then its rows.

    An entry that couples the even class (stretching and the charge sum)
    with the odd one (bending and the charge difference) is then the sum of
    two terms, each pair of the form (a - c) + (c - a) or (a + c) - (c + a)
    when A is mirror symmetric, so it is exactly 0.0 whatever the sparse
    summation order; and every entry of the two halves equals, bitwise, its
    value in the explicit block form (A_TT + A_BB) +- (A_TB + A_BT) and its
    transpose.
    """
    return _paired(_paired(scipy.sparse.csr_array(A.T), nm, nt).T.tocsr(), nm, nt)


@dataclass
class _Block:
    """One moving block of a system's step (see _split)."""

    dofs: np.ndarray
    M: object
    K: object
    B: np.ndarray
    drive: np.ndarray
    charge: np.ndarray
    x0: np.ndarray
    v0: np.ndarray

    def renumbered(self, perm: np.ndarray) -> "_Block":
        """The block in the numbering perm: its dof i is this block's dof
        perm[i].  M and K keep their column indices sorted, so a row sums
        in the same order whether the block is swept alone or stacked."""
        def renumber(A):
            A = A[perm][:, perm]
            A.sort_indices()
            return A

        return replace(self, dofs=self.dofs[perm], M=renumber(self.M), K=renumber(self.K),
                       B=self.B[perm], charge=np.flatnonzero(np.isin(perm, self.charge)),
                       x0=self.x0[perm], v0=self.v0[perm])


def _split(system, x0: np.ndarray, v0: np.ndarray, volts: np.ndarray):
    """(blocks, pairs): the blocks of the system's step that move.

    The blocks are the connected components of the graph of |M| + |K|.  A
    patch system is first written in mirror-adapted coordinates: the
    mechanical dofs stay, and the top and bottom charges become
    x_qT = e + o, x_qB = e - o, e the half sum and o the half difference;
    the two voltages likewise become their half sum and half difference.
    When every entry coupling the even class {v, e} with the odd one
    {w, psi, o} is exactly 0.0 in M, K and B, the components are the two
    halves, and pairs is (nm, nt) for _paired; otherwise (the mirror does
    not hold bitwise) the system keeps its original coordinates and pairs
    is None.  A single beam's components are {v, q} and {w} (or {w, psi}).

    A block at rest, with zero initial state and a load that vanishes at
    every step (the odd half under equal voltages), is left out: its rows
    are exact zeros, bitwise what stepping it gives.  Rest is decided on
    exact values, the input rows and the drive samples, never on a product
    that could leave round-off.  Each _Block holds its dofs in the system's
    coordinates, its own M and K, the input columns B that reach it with
    their drive samples at every step midpoint (its load is drive @ B.T),
    its block-local charge dofs and its initial state x0, v0.
    """
    M, K, B, drive, pairs = system.M, system.K, system.B, volts, None
    y0, ydot0 = x0, v0
    n, charge = system.n_dofs, system.class_dofs("charge")
    perm, sign = mirror_map(system)
    nt = int(np.sum(perm > np.arange(n)))
    nm = n - 2 * nt
    # The layout numbers the top charges, then the bottom ones, last.
    if system.vspec.is_patch and np.array_equal(perm[nm:], np.roll(np.arange(nm, n), nt)):
        odd = np.concatenate([sign[:nm] < 0.0, np.repeat([False, True], nt)])
        Ma, Ka = _adapted(M, nm, nt), _adapted(K, nm, nt)
        Ba = _paired(np.column_stack([B[:, 0] + B[:, 1], B[:, 0] - B[:, 1]]), nm, nt)
        cross = np.any(Ba[~odd, 1]) or np.any(Ba[odd, 0])
        for A in (Ma, Ka):
            coo = A.tocoo()
            cross = cross or np.any(coo.data[odd[coo.row] != odd[coo.col]])
        if not cross:
            M, K, B, pairs = Ma, Ka, Ba, (nm, nt)
            drive = 0.5 * np.column_stack([volts[:, 0] + volts[:, 1],
                                           volts[:, 0] - volts[:, 1]])
            half = np.where(np.arange(n) < nm, 1.0, 0.5)
            y0, ydot0 = half * _paired(x0, nm, nt), half * _paired(v0, nm, nt)

    graph = abs(M) + abs(K)
    graph.eliminate_zeros()
    n_comp, labels = connected_components(graph, directed=False)
    blocks = []
    for c in range(n_comp):
        dofs = np.flatnonzero(labels == c)
        cols = np.flatnonzero(np.any(B[dofs] != 0.0, axis=0))
        if not (np.any(y0[dofs]) or np.any(ydot0[dofs]) or np.any(drive[:, cols])):
            continue
        Mb, Kb = (M, K) if n_comp == 1 else (M[dofs][:, dofs], K[dofs][:, dofs])
        blocks.append(_Block(dofs=dofs, M=Mb, K=Kb, B=B[dofs][:, cols], drive=drive[:, cols],
                             charge=np.flatnonzero(np.isin(dofs, charge)),
                             x0=y0[dofs], v0=ydot0[dofs]))
    return blocks, pairs


def simulate(system, x0, v0, dt: float, t_end: float, stride: int = 1,
             velocities: bool = True):
    """Integrate with the implicit midpoint rule and record every `stride` steps.

    `system` may also be a list of systems, with x0 and v0 lists of their
    initial states: one sweep then advances all of them, and a list of
    Trajectories comes back.

    Each system is cut into its blocks, those at rest left out (see _split).
    The blocks that move are stacked as the blocks of one block-diagonal
    system and swept together; each is bitwise the run it would be alone
    (see FactorizedOperator.stack), so each system is bitwise its own run.

    The only caller of the sweep; it factors every moving block's step
    matrix once per call and renumbers the block (M, K, the rows of B and
    the initial state) into the band numbering of its factor, where the
    sweep runs.  It feeds the sweep CHUNK_ENTRIES // n steps at a time (n
    the dofs that move), each call continuing from the state (x, v and the
    momenta a, b) the last one returned, and per chunk and block forms the
    load, the work integral (at every step, with the stepper's midpoint
    quadrature, so the energy-balance residual stays at round-off level for
    any stride) and the ledger of the recorded rows; a system's ledger is
    the sum of its blocks'.  The recorded rows are mapped back to the
    system's coordinates straight into its Trajectory: no n_steps x n array
    is formed, and with velocities=False (Trajectory.V is then None) no
    recorded velocity outlives its chunk.  Raises NonFiniteState, naming
    the system and the steps, after the first chunk that leaves a
    non-finite state (numpy's overflow warnings are silenced: the error
    reports such a run), and EnergyImbalance, naming the system, when its
    residual exceeds 1e-8 * its max energy or is not finite (criterion 4):
    such runs come from step matrices that factor but are too
    ill-conditioned to solve.
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

    t_mid = dt * (np.arange(n_steps) + 0.5)
    splits = [_split(s, x, v, np.column_stack([sig(t_mid) for sig in s.vspec.voltages]))
              for s, x, v in zip(systems, x0s, v0s)]
    rec_steps = np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))
    n_rec = len(rec_steps)
    trajs = [Trajectory(t=rec_steps * dt, X=np.zeros((n_rec, s.n_dofs)),
                        V=np.zeros((n_rec, s.n_dofs)) if velocities else None,
                        kinetic=np.zeros(n_rec), stored=np.zeros(n_rec),
                        magnetic=np.zeros(n_rec), work=np.zeros(n_rec)) for s in systems]

    names = [f"system {k} of {len(trajs)}: " if many else "" for k in range(len(trajs))]
    moving, parts = [], []
    for traj, (blocks, pairs), where in zip(trajs, splits, names):
        parts.append((traj, pairs, range(len(moving), len(moving) + len(blocks)), where))
        moving += blocks
    if moving:
        with np.errstate(over="ignore", invalid="ignore"):
            _sweep_blocks(moving, parts, dt, n_steps, rec_steps, velocities)

    for traj, where in zip(trajs, names):
        resid, scale = traj.balance
        if not resid <= 1e-8 * scale:  # NaN fails too
            raise EnergyImbalance(
                f"{where}energy balance residual {resid:.3e} exceeds 1e-8 * max energy "
                f"{scale:.3e}")
    return trajs if many else trajs[0]


def _sweep_blocks(moving, parts, dt, n_steps, rec_steps, velocities):
    """simulate's chunk loop over the stacked moving blocks.

    parts holds, per system, its Trajectory, its charge pairs (or None),
    the indices in moving of its blocks and its name in error messages.
    """
    ops = [step_operator(blk, dt) for blk in moving]
    op = FactorizedOperator.stack(ops)
    moving = [blk.renumbered(o.perm) for blk, o in zip(moving, ops)]
    Mqq = [blk.M[blk.charge][:, blk.charge] for blk in moving]
    M, K = moving[0].M, moving[0].K  # one block needs no block_diag copy
    if len(moving) > 1:
        M = scipy.sparse.block_diag([blk.M for blk in moving], format="csr")
        K = scipy.sparse.block_diag([blk.K for blk in moving], format="csr")
    n = M.shape[0]
    ends = np.cumsum([len(blk.dofs) for blk in moving])
    cols = [slice(e - len(blk.dofs), e) for blk, e in zip(moving, ends)]
    chunk = max(1, CHUNK_ENTRIES // n)
    load = np.empty((min(chunk, n_steps), n))
    x = np.concatenate([blk.x0 for blk in moving])
    v = np.concatenate([blk.v0 for blk in moving])
    ab = None  # the sweep forms the momenta from x and v on its first call
    total = np.zeros(len(moving))  # every block's work up to step a
    # Row 0 is the initial state; each later pass records one chunk's rows.
    Y, V, work = x[None], v[None], total[None]
    done = a = 0
    while True:
        rows = slice(done, done + len(Y))
        for traj, pairs, own, _ in parts:
            for j in own:
                blk = moving[j]
                Yb, Vb = Y[:, cols[j]], V[:, cols[j]]
                traj.X[rows, blk.dofs] = Yb
                if velocities:
                    traj.V[rows, blk.dofs] = Vb
                mag = _row_energies(Mqq[j], Vb[:, blk.charge])
                traj.magnetic[rows] += mag
                traj.kinetic[rows] += _row_energies(blk.M, Vb) - mag
                traj.stored[rows] += _row_energies(blk.K, Yb)
                traj.work[rows] += work[:, j]
            if pairs is not None and own:
                for arr in (traj.X, traj.V) if velocities else (traj.X,):
                    arr[rows] = _paired(arr[rows].T, *pairs).T
        done = rows.stop
        del Y, V, Yb, Vb  # no chunk's rows outlive its ledger
        if a == n_steps:
            break
        m = min(chunk, n_steps - a)
        for blk, c in zip(moving, cols):
            np.matmul(blk.drive[a:a + m], blk.B.T, out=load[:m, c])
        rec = rec_steps[done:np.searchsorted(rec_steps, a + m, side="right")] - a
        x, v, ab, Y, V, vbar = midpoint_sweep(op.L, op.U, M, K, load[:m], x, v, dt, rec, ab)
        finite = np.isfinite(x) & np.isfinite(v) & np.isfinite(ab[0]) & np.isfinite(ab[1])
        if not finite.all():
            j = np.searchsorted(ends, np.argmin(finite), side="right")
            name = next(name for _, _, own, name in parts if j in own)
            raise NonFiniteState(
                f"{name}state not finite after steps {a + 1}-{a + m} of {n_steps}")
        # Work increments dt * vbar . load, one dot product per step and
        # block, summed in step order after the previous total.
        inc = np.empty((m + 1, len(moving)))
        inc[0] = total
        for j, c in enumerate(cols):
            inc[1:, j] = np.matmul(vbar[:, None, c], load[:m, c, None])[:, 0, 0]
        del vbar
        inc[1:] *= dt
        cum = np.cumsum(inc, axis=0)
        total, work = cum[-1], cum[rec]
        a += m
