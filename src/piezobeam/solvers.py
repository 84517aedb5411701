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

simulate steps only what moves: the even and odd halves of each system's
top/bottom mirror (Healey & Treacy 1991), {v, q} and {w} (or {w, psi}) on
the single beam, {v, e} and {w, psi, o} on the patch model (e and o the
half sum and half difference of the charges), halves at rest left out.  It
keeps no recorded state: each chunk's rows go to the caller's observer, so
memory grows with the dofs and the recorded rows, not with their product.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
from scipy.sparse.csgraph import reverse_cuthill_mckee

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

# Entries of the chunk arrays of simulate: a chunk holds CHUNK_ENTRIES // n
# steps (n the dofs that move), so its load and its midpoint velocities are
# 512 KiB each, and its recorded rows at most as much.  One call allocates
# its chunk arrays once and reuses them for every chunk; the ledger's
# products and the observed rows (which span the dofs each observer reads)
# reuse the memory of the load and midpoint velocities.
CHUNK_ENTRIES = 1 << 16


def _gathered(A, idx: np.ndarray) -> scipy.sparse.csr_array:
    """A[idx][:, idx] of a CSR matrix A with distinct idx, column indices
    sorted: row i is row idx[i], column j is column idx[j].  One pass, where
    scipy's fancy indexing takes two; on a canonical A with idx ascending it
    equals that slice bitwise."""
    new = np.full(A.shape[0], -1)
    new[idx] = np.arange(len(idx))
    start, counts = A.indptr[idx], np.diff(A.indptr)[idx]
    row = np.repeat(np.arange(len(idx)), counts)
    pos = np.arange(len(row)) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    col = new[A.indices[pos]]
    keep = col >= 0
    indptr = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[keep], minlength=len(idx)), out=indptr[1:])
    out = scipy.sparse.csr_array((A.data[pos[keep]], col[keep], indptr),
                                 shape=(len(idx), len(idx)))
    out.sort_indices()
    return out


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
        entries = A.tocoo()
        at = np.empty(A.shape[0], dtype=np.int64)  # each dof's place in perm
        at[perm] = np.arange(A.shape[0])
        row, col = at[entries.row], at[entries.col]
        lower = row >= col  # the lower triangle of A[perm][:, perm]
        offset, col = row[lower] - col[lower], col[lower]
        ab = np.zeros((int(offset.max(initial=0)) + 1, A.shape[0]))
        ab[offset, col] = entries.data[lower]
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

    def deflated(y):  # in place
        y -= Z @ (MZ.T @ y)
        return y

    sigma = -1e-6 * float(K.diagonal().mean()) / float(M.diagonal().mean())
    op = FactorizedOperator.build(K - sigma * M)
    # ARPACK calls both operators once per Lanczos step: M calls the CSR
    # kernel directly, bitwise M @ x without scipy's sparse dispatch.
    Mc = scipy.sparse.csr_array(M, dtype=float)

    def mass(x):
        y = np.zeros(n)
        csr_matvec(n, n, Mc.indptr, Mc.indices, Mc.data, x, y)
        return y

    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            K, k=k, M=scipy.sparse.linalg.LinearOperator((n, n), matvec=mass, dtype=float),
            sigma=sigma, which="LM",
            OPinv=scipy.sparse.linalg.LinearOperator((n, n), dtype=float,
                                                     matvec=lambda b: deflated(op.solve(b))),
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
    """Recorded times and the energy ledger of a simulation run, one entry
    per recorded row; the rows themselves went to simulate's observer."""

    t: np.ndarray
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


def _row_energies(A, Z: np.ndarray, scratch, part=None):
    """(e, e_part): e = 0.5 z^T A z for every row z of Z, A sparse symmetric
    CSR with sorted indices, and e_part the same sum over the rows `part` of
    A (indices) alone, or None.  With no entry of A between `part` and the
    other dofs, e_part is bitwise 0.5 z_p^T A_pp z_p.

    A Z^T is scipy's CSR kernel (what A @ Z.T runs), from Z^T copied into
    the first of the flat arrays scratch and into the second, each of at
    least A.shape[0] len(Z) floats.  The products are summed strictly left
    to right, so a row's energy does not depend on which rows share its
    chunk: one reduction over axis 0 of the C-ordered (n, m) product adds it
    row by row, but numpy sums a lone contiguous column pairwise, so a lone
    row takes a cumulative sum.
    """
    n, m = A.shape[0], len(Z)
    zt, terms = (flat[:n * m].reshape(n, m) for flat in scratch)
    np.copyto(zt, Z.T)
    terms.fill(0.0)  # csr_matvecs adds into its output
    csr_matvecs(n, n, m, A.indptr, A.indices, A.data, zt.ravel(), terms.ravel())
    terms *= zt

    def half_sums(t):
        if m == 1 and len(t):
            return 0.5 * np.cumsum(t[:, 0])[-1:]
        return 0.5 * np.add.reduce(t, axis=0)

    if part is None:
        return half_sums(terms), None
    return half_sums(terms), half_sums(np.take(terms, part, axis=0, out=zt[:len(part)],
                                               mode="clip"))


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


def _paired(X: np.ndarray, pairs) -> np.ndarray:
    """Apply T in place to the last axis of X and return X: for each pair
    (lo, hi) the mirror swaps, slot lo becomes X_lo + X_hi and slot hi
    X_lo - X_hi, the rest stay.  T is symmetric and T T = 2 on the pairs,
    so T maps coordinates back and T / 2 maps them in."""
    lo, hi = pairs
    X[..., lo], X[..., hi] = X[..., lo] + X[..., hi], X[..., lo] - X[..., hi]
    return X


def _parity(system: SemiDiscreteSystem, n_in: int):
    """The rule that splits a step (see _split): the pairs (lo, hi) of dofs
    and of drives the mirror swaps (it reverses the drive order), and the
    odd ones: dofs of sign -1 and the hi dof and drive slots."""
    perm, sign = mirror_map(system)
    lo = np.flatnonzero(perm > np.arange(len(perm)))
    pairs, drives = (lo, perm[lo]), (np.arange(n_in // 2), n_in - 1 - np.arange(n_in // 2))
    odd, odd_in = sign < 0.0, np.zeros(n_in, dtype=bool)
    odd[pairs[1]] = odd_in[drives[1]] = True
    return pairs, drives, odd, odd_in


def _pair_map(n: int, pairs) -> scipy.sparse.csr_array:
    """T of _paired on n dofs as a sparse matrix, built from the pairs."""
    rows = np.concatenate([np.arange(n), *pairs])
    cols = np.concatenate([np.arange(n), pairs[1], pairs[0]])
    vals = np.ones(len(rows))
    vals[pairs[1]] = -1.0  # T's diagonal on the hi slots
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(n, n))


@dataclass
class _Block:
    """One moving block of a system's step (see _split)."""

    dofs: np.ndarray
    M: object
    K: object
    B: np.ndarray
    drive: np.ndarray
    charge: np.ndarray  # True on the block's charge dofs
    x0: np.ndarray
    v0: np.ndarray

    def renumbered(self, perm: np.ndarray) -> "_Block":
        """The block in the numbering perm: its dof i is this block's dof
        perm[i].  M and K come out with their column indices sorted, so a
        row sums in the same order whether the block is swept alone or
        stacked."""
        return replace(self, dofs=self.dofs[perm], M=_gathered(self.M, perm),
                       K=_gathered(self.K, perm), B=self.B[perm], charge=self.charge[perm],
                       x0=self.x0[perm], v0=self.v0[perm])


def _split(system, x0: np.ndarray, v0: np.ndarray, volts: np.ndarray, adapted=None):
    """(blocks, pairs): the blocks of the system's step that move.

    The blocks are the even and odd halves of the top/bottom mirror (see
    _parity), in mirror-adapted coordinates: x_lo = e + o and x_hi = e - o
    for each swapped pair, e the half sum and o the half difference, and
    the drives likewise.  M and K change coordinates as T (A T), columns
    first.  With A mirror symmetric, an entry coupling the halves is then a
    sum of two exact negatives, so exactly 0.0, and each entry of a half is
    bitwise its block form (A_TT + A_BB) +- (A_TB + A_BT).  When an entry
    coupling the halves in M, K or the adapted B is not exactly 0.0, the
    system keeps its own coordinates and steps as one block.  pairs maps
    the recorded rows back (_paired), or is None when they need no map.

    A block at rest, with zero initial state and a load that vanishes at
    every step (the odd half under equal voltages), is left out: its rows
    are exact zeros, bitwise what stepping it gives.  Rest is decided on
    exact values, the input rows and the drive samples, never on a product
    that could leave round-off.  Each _Block holds its dofs in the system's
    coordinates, its own M and K, the input columns B that reach it with
    their drive samples at every step midpoint (its load is drive @ B.T),
    a mask of its charge dofs and its initial state x0, v0.

    adapted, a dict, keeps each operator's T (A T), and whether it couples
    the halves, by the operator's id, for the systems of one simulate call
    that share it (an operator is in its own system's dof numbering, so
    sharing it means sharing that numbering).
    """
    n = system.n_dofs
    pairs, drives, odd, odd_in = _parity(system, volts.shape[1])
    B = _paired(system.B.copy(), drives)  # its columns paired first, then its rows
    _paired(B.T, pairs)
    drive = _paired(volts.copy(), drives)
    drive[:, np.concatenate(drives)] *= 0.5
    M, K, y0, ydot0 = system.M, system.K, x0, v0
    adapted = {} if adapted is None else adapted
    new = [A for A in (M, K) if id(A) not in adapted]
    T = _pair_map(n, pairs) if new and len(pairs[0]) else None
    for A in new:
        At = A if T is None else T @ (A @ T)
        coo = At.tocoo()
        adapted[id(A)] = At, bool(np.any(coo.data[odd[coo.row] != odd[coo.col]]))
    (M, cross_m), (K, cross_k) = adapted[id(M)], adapted[id(K)]
    if len(pairs[0]):
        half = np.ones(n)
        half[np.concatenate(pairs)] = 0.5  # T / 2 maps them in
        y0, ydot0 = half * _paired(np.array([x0, v0]), pairs)
    cross = np.any(B[odd[:, None] != odd_in]) or cross_m or cross_k
    halves = [np.flatnonzero(~odd), np.flatnonzero(odd)]
    if cross:
        halves = [np.arange(n)]
        M, K, B, drive, y0, ydot0 = system.M, system.K, system.B, volts, x0, v0
    charge = np.zeros(n, dtype=bool)
    charge[system.class_dofs("charge")] = True
    blocks = []
    for dofs in halves:
        cols = np.flatnonzero(np.any(B[dofs] != 0.0, axis=0))
        if not (np.any(y0[dofs]) or np.any(ydot0[dofs]) or np.any(drive[:, cols])):
            continue
        Mb, Kb = (M, K) if len(dofs) == n else (_gathered(M, dofs), _gathered(K, dofs))
        blocks.append(_Block(dofs=dofs, M=Mb, K=Kb, B=B[dofs][:, cols], drive=drive[:, cols],
                             charge=charge[dofs], x0=y0[dofs], v0=ydot0[dofs]))
    return blocks, None if cross or not len(pairs[0]) else pairs


def simulate(system, x0, v0, dt: float, t_end: float, stride: int = 1,
             velocities: bool = True, observe=None, observed=None):
    """Integrate with the implicit midpoint rule and record every `stride` steps.

    `system` may also be a list of systems, with x0 and v0 lists of their
    initial states: one sweep then advances all of them, and a list of
    Trajectories comes back.

    simulate keeps no recorded state.  After each chunk of steps it calls
    observe(rows, X, V) once, rows the slice of recorded rows the chunk
    covers (row 0, the initial state, comes first, alone), X those rows in
    the system's own coordinates, and V the velocities likewise, or None
    when velocities=False; for a list of systems X and V are lists with one
    array per system.  X and V hold the columns `observed` names, bitwise
    those of the full rows: an index array, or for a list of systems a list
    of them or None, None standing for every dof (the default).  The other
    columns are never formed.  The arrays are simulate's own, written again
    for every chunk, so they are valid only during the call: an observer
    copies what it keeps, and reduces each row as it goes past.  It may
    overwrite them in place: no two of them share memory.

    Each system is cut into its blocks, those at rest left out (see _split):
    their rows are exact zeros.  The blocks that move are stacked as the
    blocks of one block-diagonal system and swept together; each is bitwise
    the run it would be alone (see FactorizedOperator.stack), so each
    system is bitwise its own run.

    The only caller of the sweep; it factors every moving block's step
    matrix once per call and renumbers the block (M, K, the rows of B and
    the initial state) into the band numbering of its factor, where the
    sweep runs.  It feeds the sweep CHUNK_ENTRIES // n steps at a time (n
    the dofs that move), each call continuing from the state (x, v and the
    momenta a, b) the last one returned, and per chunk and block forms the
    load, the work integral (at every step, with the stepper's midpoint
    quadrature, so the energy-balance residual stays at round-off level for
    any stride) and the ledger of the recorded rows; a system's ledger is
    the sum of its blocks'.  Only the observed columns of the chunk's rows
    are mapped back to the system's coordinates (see _plan), and only for
    an observer.  The chunk arrays (load, midpoint velocities, recorded
    rows, the ledger's products, the observed rows) are allocated once per
    call, sized by what a chunk uses, and reused for every chunk; operators
    that systems share are mirror-adapted once (see _split).

    Raises NonFiniteState, naming the system and the steps, after the first
    chunk that leaves a non-finite state, before its rows are observed
    (numpy's overflow warnings are silenced: the error reports such a run),
    and EnergyImbalance, naming the system, when its residual exceeds
    1e-8 * its max energy or is not finite (criterion 4): such runs come
    from step matrices that factor but are too ill-conditioned to solve.
    """
    many = isinstance(system, (list, tuple))
    systems, x0s, v0s = (system, x0, v0) if many else ([system], [x0], [v0])
    observed = observed if many and observed is not None else [observed] * len(systems)
    x0s = [np.asarray(x, dtype=float) for x in x0s]
    v0s = [np.asarray(v, dtype=float) for v in v0s]
    observed = [np.arange(s.n_dofs) if d is None else np.asarray(d, dtype=np.int64)
                for s, d in zip(systems, observed, strict=True)]
    for s, x, v, d in zip(systems, x0s, v0s, observed, strict=True):
        if x.shape != (s.n_dofs,) or v.shape != (s.n_dofs,):
            raise ValueError(f"initial state must have shape ({s.n_dofs},)")
        if not np.all((0 <= d) & (d < s.n_dofs)):
            raise ValueError(f"observed dofs must be indices below {s.n_dofs}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    n_steps = max(0, int(round(t_end / dt)))
    if observe is not None and not many:
        each = observe

        def observe(rows, X, V):
            each(rows, X[0], None if V is None else V[0])

    t_mid = dt * (np.arange(n_steps) + 0.5)
    adapted = {}
    splits = [_split(s, x, v, np.column_stack([sig(t_mid) for sig in s.vspec.voltages]),
                     adapted) for s, x, v in zip(systems, x0s, v0s)]
    rec_steps = np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))
    n_rec = len(rec_steps)
    trajs = [Trajectory(t=rec_steps * dt, kinetic=np.zeros(n_rec), stored=np.zeros(n_rec),
                        magnetic=np.zeros(n_rec), work=np.zeros(n_rec)) for _ in systems]

    names = [f"system {k} of {len(trajs)}: " if many else "" for k in range(len(trajs))]
    moving, parts = [], []
    for traj, s, (blocks, pairs), dofs, where in zip(trajs, systems, splits, observed, names):
        parts.append((traj, s.n_dofs, pairs, range(len(moving), len(moving) + len(blocks)),
                      dofs, where))
        moving += blocks
    if moving:
        with np.errstate(over="ignore", invalid="ignore"):
            _sweep_blocks(moving, parts, dt, n_steps, rec_steps, velocities, observe)
    elif observe is not None:  # nothing moves: every row is exact zeros
        plans = [_plan(n, None, [], [], dofs, 0, 1) for _, n, _, _, dofs, _ in parts]
        step = max(1, CHUNK_ENTRIES // sum(s.n_dofs for s in systems))
        seen = sum(len(dofs) for _, _, _, _, dofs, _ in parts)
        for a in range(0, n_rec, step):
            rows = slice(a, min(a + step, n_rec))
            zeros = np.zeros((rows.stop - a, 1))
            observe(rows, _observed(plans, zeros, np.empty(len(zeros) * seen)),
                    _observed(plans, zeros, np.empty(len(zeros) * seen)) if velocities
                    else None)

    for traj, where in zip(trajs, names):
        resid, scale = traj.balance
        if not resid <= 1e-8 * scale:  # NaN fails too
            raise EnergyImbalance(
                f"{where}energy balance residual {resid:.3e} exceeds 1e-8 * max energy "
                f"{scale:.3e}")
    return trajs if many else trajs[0]


def _plan(n: int, pairs, blocks, cols, dofs: np.ndarray, zero: int, at: int):
    """How _observed forms columns dofs of a system's rows from the wide
    rows W of a chunk (see _sweep_blocks), blocks the system's moving blocks
    (renumbered) and cols their columns of W: (lo, hi, at, idx).

    A dof's value is its column of W, or column `zero` (an exact zero) when
    its block is at rest.  With pairs (None when the rows need no map),
    each pair that holds an observed dof is mapped back as _paired maps it:
    lo and hi are W's columns of its two slots, and x_lo + x_hi and
    x_lo - x_hi go to W's columns at + j and at + p + j, p = len(lo).  idx
    is W's column of each observed dof, in order; with every dof observed
    this is the whole system's rows, pair map and all.
    """
    src = np.full(n, zero)  # each system dof's column of W
    for blk, c in zip(blocks, cols):
        src[blk.dofs] = np.arange(c.start, c.stop)
    col = src.copy()
    lo = hi = np.zeros(0, dtype=np.int64)
    if pairs is not None:
        needed = np.zeros(n, dtype=bool)
        needed[dofs] = True
        held = needed[pairs[0]] | needed[pairs[1]]
        lo, hi = pairs[0][held], pairs[1][held]
        col[lo], col[hi] = at + np.arange(len(lo)), at + len(lo) + np.arange(len(lo))
    return src[lo], src[hi], at, col[dofs]


def _observed(plans, W, out):
    """Each system's observed columns of the rows W (see _plan), its blocks
    at rest exact zeros, its halves mapped back: one gather per system into
    out, a flat array of at least len(W) (sum of the observed dofs + twice
    the most pairs) floats.  No two of the arrays share memory."""
    m, arrays, used = len(W), [], 0
    for lo, hi, at, idx in plans:
        if len(lo):  # the pair map's values, from two gathers into out
            p = len(lo)
            e, o = out[used:used + m * p], out[used + m * p:used + 2 * m * p]
            e, o = (np.take(W, s, axis=1, out=t.reshape(m, p), mode="clip")
                    for s, t in ((lo, e), (hi, o)))
            np.add(e, o, out=W[:, at:at + p])
            np.subtract(e, o, out=W[:, at + p:at + 2 * p])
        X = out[used:used + m * len(idx)].reshape(m, len(idx))
        arrays.append(np.take(W, idx, axis=1, out=X, mode="clip"))
        used += X.size
    return arrays


def _sweep_blocks(moving, parts, dt, n_steps, rec_steps, velocities, observe):
    """simulate's chunk loop over the stacked moving blocks.

    parts holds, per system, its Trajectory, its dof count, its charge
    pairs (or None), the indices in moving of its blocks, the dofs its
    observer reads and its name in error messages.

    The recorded rows are the leading n columns of the wide rows X (and V,
    for an observer of velocities): column n holds an exact zero and the
    columns after it the pair map's values (see _plan), so _observed forms
    each system's columns with one gather.  The ledger's products and the
    observed rows are formed after the work integral has read the load and
    the midpoint velocities, so they reuse the two flat arrays those live
    in, lead and pool, the second made as large as they need.
    """
    ops = [step_operator(blk, dt) for blk in moving]
    op = FactorizedOperator.stack(ops)
    moving = [blk.renumbered(o.perm) for blk, o in zip(moving, ops)]
    charges = [np.flatnonzero(blk.charge) for blk in moving]
    M, K = moving[0].M, moving[0].K  # one block needs no block_diag copy
    if len(moving) > 1:
        M = scipy.sparse.block_diag([blk.M for blk in moving], format="csr")
        K = scipy.sparse.block_diag([blk.K for blk in moving], format="csr")
    n = M.shape[0]
    ends = np.cumsum([len(blk.dofs) for blk in moving])
    cols = [slice(e - len(blk.dofs), e) for blk, e in zip(moving, ends)]
    plans, width = [], n + 1
    for _, n_dofs, pairs, own, dofs, _ in parts:
        plans.append(_plan(n_dofs, pairs, [moving[j] for j in own], [cols[j] for j in own],
                           dofs, n, width))
        width += 2 * len(plans[-1][0])

    # Sizes: a chunk's steps, and the most rows a chunk records (row 0 alone).
    chunk = max(1, CHUNK_ENTRIES // n)
    steps = min(chunk, n_steps)
    bounds = np.append(np.arange(0, n_steps, chunk), n_steps)
    most = int(np.diff(np.searchsorted(rec_steps, bounds, side="right")).max(initial=1))
    # The ledger's products are at most most x n each; the observed rows
    # (X's in lead, V's in pool) and the pair map's values at most this:
    obs = 0 if observe is None else most * (sum(len(idx) for *_, idx in plans)
                                            + 2 * max(len(lo) for lo, *_ in plans))
    lead = np.empty(max(steps * n, most * n, obs))
    pool = np.empty(max(steps * n, most * n, obs if velocities else 0))
    load, vbars = lead[:steps * n].reshape(steps, n), pool[:steps * n].reshape(steps, n)
    scratch = (lead, pool)
    X, V = np.empty((most, width)), np.empty((most, width if velocities else n))
    X[:, n:] = V[:, n:] = 0.0  # column n stays an exact zero

    x = np.concatenate([blk.x0 for blk in moving])
    v = np.concatenate([blk.v0 for blk in moving])
    ab = None  # the sweep forms the momenta from x and v on its first call
    total = np.zeros(len(moving))  # every block's work up to step a
    # Row 0 is the initial state; each later pass records one chunk's rows.
    X[0, :n], V[0, :n], work, m_rec = x, v, total[None], 1
    done = a = 0
    while True:
        rows = slice(done, done + m_rec)
        for traj, _, _, own, _, _ in parts:
            for j in own:
                c = cols[j]
                kinetic, magnetic = _row_energies(moving[j].M, V[:m_rec, c], scratch, charges[j])
                traj.magnetic[rows] += magnetic
                traj.kinetic[rows] += kinetic - magnetic
                traj.stored[rows] += _row_energies(moving[j].K, X[:m_rec, c], scratch)[0]
                traj.work[rows] += work[:, j]
        if observe is not None:
            observe(rows, _observed(plans, X[:m_rec], lead),
                    _observed(plans, V[:m_rec], pool) if velocities else None)
        done = rows.stop
        if a == n_steps:
            break
        m = min(chunk, n_steps - a)
        for blk, c in zip(moving, cols):
            np.matmul(blk.drive[a:a + m], blk.B.T, out=load[:m, c])
        rec = rec_steps[done:np.searchsorted(rec_steps, a + m, side="right")] - a
        x, v, ab, _, _, vbar = midpoint_sweep(op.L, op.U, M, K, load[:m], x, v, dt, rec, ab,
                                              (X[:, :n], V[:, :n], vbars))
        m_rec = len(rec)
        finite = np.isfinite(x) & np.isfinite(v) & np.isfinite(ab[0]) & np.isfinite(ab[1])
        if not finite.all():
            j = np.searchsorted(ends, np.argmin(finite), side="right")
            name = next(name for _, _, _, own, _, name in parts if j in own)
            raise NonFiniteState(
                f"{name}state not finite after steps {a + 1}-{a + m} of {n_steps}")
        # Work increments dt * vbar . load, one dot product per step and
        # block, summed in step order after the previous total.  einsum
        # sums in a fixed order; a BLAS dot would depend on the thread count.
        inc = np.empty((m + 1, len(moving)))
        inc[0] = total
        for j, c in enumerate(cols):
            inc[1:, j] = np.einsum("ij,ij->i", vbar[:, c], load[:m, c])
        inc[1:] *= dt
        cum = np.cumsum(inc, axis=0)
        total, work = cum[-1], cum[rec]
        a += m
