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

M and K are sparse: 1D elements couple only neighbouring nodes, so with the
dofs ordered by node position the step matrix is banded (half-bandwidth 3
on the single beam, 11 on the patch model, 4 and 6 on the patch's mirror
halves), and one banded Cholesky factorization serves every solve, its band
filled straight from the CSR arrays (FactorizedOperator.build).

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
from scipy.linalg.lapack import dpbtrf
from scipy.sparse._sparsetools import (csr_has_canonical_format, csr_matvec, csr_matvecs,
                                       csr_row_index, csr_scale_columns, csr_scale_rows,
                                       csr_sort_indices, csr_sum_duplicates)

from .errors import NumericalFailure
from .kernels import cholesky_solve, midpoint_sweep
from .layout import FIELD_CLASS

if TYPE_CHECKING:
    from .assembly import SemiDiscreteSystem

# Entries of the chunk arrays of simulate: a chunk holds CHUNK_ENTRIES // n
# steps (n the dofs that move), so its load and its midpoint velocities are
# 512 KiB each, and its recorded rows at most as much.  One call allocates
# its chunk arrays once and reuses them for every chunk; the ledger's
# products and the observed rows (which span the dofs each observer reads)
# reuse the memory of the load and midpoint velocities.
CHUNK_ENTRIES = 1 << 16


def _gathered(A, rows: np.ndarray, cols: np.ndarray, row_scale, col_scale):
    """The CSR matrix G, len(rows) square, whose row i holds each stored
    entry A[rows[i], c] times row_scale[i] col_scale[c] in column cols[c]
    (left out where cols[c] < 0), entries that meet in a column summed and
    column indices sorted, as scipy's sum_duplicates sums and sorts them.
    One pass over the rows of A it reads."""
    m = len(rows)
    counts = np.diff(A.indptr)[rows]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    src, vals = np.empty(indptr[-1], dtype=A.indices.dtype), np.empty(indptr[-1])
    csr_row_index(m, np.asarray(rows, dtype=A.indices.dtype), A.indptr, A.indices, A.data,
                  src, vals)
    csr_scale_columns(m, A.shape[1], indptr, src, vals, np.asarray(col_scale, dtype=float))
    csr_scale_rows(m, A.shape[1], indptr, src, vals, np.asarray(row_scale, dtype=float))
    col = cols.take(src)
    if cols.min(initial=0) < 0:
        keep = col >= 0
        indptr = np.append(0, np.cumsum(keep))[indptr]
        vals, col = vals[keep], col[keep]
    if not csr_has_canonical_format(m, indptr, col):
        csr_sort_indices(m, indptr, col, vals)
        csr_sum_duplicates(m, m, indptr, col, vals)
    return scipy.sparse.csr_array((vals[:indptr[-1]], col[:indptr[-1]], indptr), shape=(m, m))


@dataclass
class FactorizedOperator:
    """Banded Cholesky factorization of a sparse SPD matrix A.

    order is the band numbering its builder gives (SemiDiscreteSystem's
    band_order, node order; the blocks simulate steps come in it) and L the
    lower banded factor (LAPACK storage, shape (p+1, n), p the half-bandwidth)
    of A[order][:, order].  U = L^T in upper band storage is formed once, on
    construction, so that both triangular solves run forward.  L and U are
    Fortran ordered: BLAS would copy anything else on every solve.

    Exact zeros of A between decoupled blocks stay exact zeros in L, so a
    block without load solves to bitwise zero.  The factor of a block-diagonal
    A is each block's own factor, padded with exact zeros to the widest band
    (LAPACK's dpbtrf only adds exact zeros for the padding; L and U checked
    bitwise up to half-bandwidth 64, under 1 and 2 BLAS threads), and both
    solves update the solution by axpy, where a padded zero adds an exact
    zero: each block solves bitwise as it does alone.
    """

    L: np.ndarray
    order: np.ndarray
    U: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p, n = self.L.shape[0] - 1, self.L.shape[1]
        self.U = np.zeros(self.L.shape, order="F")
        for d in range(p + 1):  # band row p - d of U is row d of L, d columns on
            self.U[p - d, d:] = self.L[d, :n - d]

    @classmethod
    def build(cls, A, order=None, K=None, c=0.0) -> "FactorizedOperator":
        """The factor of A, or of A + c K when K is given, A and K canonical
        CSR, in the band numbering order (default the identity).  The band is
        filled straight from the CSR arrays, one way: A's lower entries, then
        c times K's, added into zeros, so each entry is (0.0 + a) + c k,
        bitwise as scipy's A + c * K sums it; then the outer diagonals left
        all zero are trimmed, as scipy drops the zeros its sum makes.
        A failure raises NumericalFailure, whose pivot is LAPACK's first
        leading minor that is not positive definite."""
        n = A.shape[0]
        at = None  # each dof's place in order
        if order is not None:
            at = np.empty(n, dtype=np.int64)
            at[order] = np.arange(n)
        lower = []  # per matrix: offset, column and scaled value of its lower band entries
        for X, scale in ((A, 1.0),) if K is None else ((A, 1.0), (K, c)):
            row, col = np.repeat(np.arange(n), np.diff(X.indptr)), X.indices
            if at is not None:
                row, col = at[row], at[col]
            below = np.flatnonzero(row >= col)
            lower.append(((row - col).take(below), col.take(below), scale * X.data.take(below)))
        p = max(int(offset.max(initial=0)) for offset, _, _ in lower)
        ab = np.zeros((p + 1, n), order="F")
        for offset, col, vals in lower:
            ab[offset, col] += vals
        while p and not ab[p].any():
            p -= 1
        L, info = dpbtrf(np.asfortranarray(ab[:p + 1]), lower=1, overwrite_ab=1)
        if info > 0:
            raise NumericalFailure(f"Cholesky factorization failed: leading minor {info} "
                                   f"of {n} not positive definite", pivot=int(info))
        if not np.all(np.isfinite(L[0])):
            raise NumericalFailure("Cholesky factorization produced a non-finite pivot")
        return cls(L=L, order=np.arange(n) if order is None else np.asarray(order))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for one right-hand side (n,) or several (n, k), solved one
        column at a time."""
        b = np.asarray(b, dtype=float)
        x = np.empty(b.shape)
        if b.ndim == 1:
            x[self.order] = cholesky_solve(self.L, self.U, b[self.order])
        else:
            for j in range(b.shape[1]):
                x[self.order, j] = cholesky_solve(self.L, self.U, b[self.order, j])
        return x


def solve_spd(A, b: np.ndarray, order=None) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A (canonical CSR),
    factored in the band numbering order (see FactorizedOperator.build).

    One step of iterative refinement with the residual in extended precision
    follows the banded solve: the band ordering interleaves strongly coupled
    fields, whose elimination loses digits that a field-by-field ordering
    keeps, and the refined solution is accurate to round-off of x itself.
    Raises NumericalFailure when the factorization fails or the relative
    residual exceeds 1e-10.
    """
    op = FactorizedOperator.build(A, order)
    b = np.asarray(b, dtype=float)
    x = op.solve(b)
    x = x + op.solve((b - A.astype(np.longdouble) @ x).astype(float))
    nb = np.linalg.norm(b)
    if nb > 0:
        res = np.linalg.norm(A @ x - b) / nb
        if not res <= 1e-10:
            raise NumericalFailure(f"SPD solve residual {res:.3e} too large")
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


def eigenmodes(M, K, n_modes: int, null: np.ndarray, order: np.ndarray) -> ModeSet:
    """Lowest n_modes of the pencil (K, M), M and K symmetric canonical CSR, and
    null (n, n_zero) a basis of K's kernel (SemiDiscreteSystem.null_space),
    factored in the band numbering order (SemiDiscreteSystem.band_order; see
    FactorizedOperator).

    The first n_zero modes are null M-orthonormalised, at omega = 0.0.  The
    rest, at most n - n_zero - 1, come from one shift-invert Lanczos solve
    (Ericsson & Ruhe 1980, through ARPACK), deflated as for floating
    structures (Farhat & Geradin 1998): its inverse operator and its fixed
    start vector (which keeps the result byte-stable) are projected
    M-orthogonally off span(null).  The shift sigma = -1e-6 mean(diag K) /
    mean(diag M) makes K - sigma M SPD although K is singular.
    NumericalFailure when a column z of null has max|K z| > 64 eps max|K|
    max|z| (a wrong model), or when ARPACK hits its iteration cap (it names
    the range of K's diagonal, whose spread slows the iteration).
    """
    if n_modes < 1:
        raise ValueError(f"number of modes must be >= 1, got {n_modes}")
    n, n_zero = null.shape
    bound = 64 * np.finfo(float).eps * abs(K).max() * np.abs(null).max(axis=0)
    if np.any(np.abs(K @ null).max(axis=0) > bound):
        raise NumericalFailure("a rigid or gauge mode of the model is not in K's kernel")
    R = scipy.linalg.cholesky(null.T @ (M @ null))
    Z = scipy.linalg.solve_triangular(R, null.T, trans="T").T
    k = min(n_modes, n - 1) - n_zero
    if k < 1:
        return ModeSet(np.zeros(min(n_modes, n_zero)), Z[:, :n_modes], n_zero)

    MZ = M @ Z

    def deflated(y):  # in place
        y -= Z @ (MZ.T @ y)
        return y

    diag = K.diagonal()
    sigma = -1e-6 * float(diag.mean()) / float(M.diagonal().mean())
    op = FactorizedOperator.build(K, order, M, -sigma)  # K - sigma M
    # ARPACK calls both operators once per Lanczos step: M calls the CSR
    # kernel directly, bitwise M @ x without scipy's sparse dispatch.
    def mass(x):
        y = np.zeros(n)
        csr_matvec(n, n, M.indptr, M.indices, M.data, x, y)
        return y

    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            K, k=k, M=scipy.sparse.linalg.LinearOperator((n, n), matvec=mass, dtype=float),
            sigma=sigma, which="LM",
            OPinv=scipy.sparse.linalg.LinearOperator((n, n), dtype=float,
                                                     matvec=lambda b: deflated(op.solve(b))),
            v0=deflated(np.random.default_rng(0).standard_normal(n)))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalFailure(f"eigenvalue iteration did not converge: {exc}; K's diagonal "
                               f"spans {diag.min():.3g} to {diag.max():.3g}") from exc
    order = np.argsort(vals)
    omegas = np.sqrt(np.clip(vals[order], 0.0, None))
    return ModeSet(omegas=np.concatenate([np.zeros(n_zero), omegas]),
                   shapes=np.hstack([Z, vecs[:, order]]), n_zero=n_zero)


def step_operator(system: SemiDiscreteSystem, dt: float) -> FactorizedOperator:
    """Factorization of the midpoint step matrix M + (dt^2/4) K in the
    system's band_order, the one place the step matrix is formed."""
    try:
        return FactorizedOperator.build(system.M, system.band_order(), system.K, dt * dt / 4.0)
    except NumericalFailure as exc:
        raise NumericalFailure(
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
    names = list(system.layout.fields)
    field = system.fields_of()
    sign = np.where(np.array([FIELD_CLASS[f] == "bending" for f in names])[field], -1.0, 1.0)
    perm = np.arange(system.n_dofs)
    if "qT" in names:
        top, bot = np.flatnonzero(field == names.index("qT")), np.flatnonzero(field == names.index("qB"))
        perm[top], perm[bot] = bot, top
    return perm, sign


def mirror_gap(A, perm: np.ndarray, sign: np.ndarray) -> float:
    """Largest entry of |D A[perm][:, perm] D - A|, D = diag(sign); exact."""
    mirrored = _gathered(A, perm, perm, sign, sign[perm])  # perm is its own inverse
    same = all(np.array_equal(getattr(mirrored, k), getattr(A, k))
               for k in ("indptr", "indices", "data"))
    return 0.0 if same else float(abs(mirrored - A).max())


def _paired(X: np.ndarray, pairs) -> np.ndarray:
    """Apply T in place to the last axis of X and return X: for each pair
    (lo, hi) the mirror swaps, slot lo becomes X_lo + X_hi and slot hi
    X_lo - X_hi, the rest stay.  T is symmetric and T T = 2 on the pairs,
    so T maps coordinates back and T / 2 maps them in."""
    lo, hi = pairs
    a, b = X.take(lo, axis=-1), X.take(hi, axis=-1)
    X[..., lo], X[..., hi] = a + b, a - b
    return X


def _parity(perm: np.ndarray, sign: np.ndarray, n_in: int):
    """The rule that splits a step (see _split), from the mirror's perm and
    sign (mirror_map): the pairs (lo, hi) of dofs and of drives the mirror
    swaps (it reverses the drive order), and the odd ones: dofs of sign -1
    and the hi dof and drive slots."""
    lo = np.flatnonzero(perm > np.arange(len(perm)))
    pairs, drives = (lo, perm[lo]), (np.arange(n_in // 2), n_in - 1 - np.arange(n_in // 2))
    odd, odd_in = sign < 0.0, np.zeros(n_in, dtype=bool)
    odd[pairs[1]] = odd_in[drives[1]] = True
    return pairs, drives, odd, odd_in


@dataclass
class _Block:
    """One moving block of a system's step (see _split), in band order."""

    dofs: np.ndarray
    M: object
    K: object
    B: np.ndarray
    drive: np.ndarray
    charge: np.ndarray  # True on the block's charge dofs
    x0: np.ndarray
    v0: np.ndarray

    def band_order(self):
        return None  # M and K come in band order (see step_operator)


def _split(system, x0: np.ndarray, v0: np.ndarray, volts: np.ndarray, adapted=None):
    """(blocks, pairs): the blocks of the system's step that move.

    The blocks are the even and odd halves of the top/bottom mirror (see
    _parity), in mirror-adapted coordinates: x_lo = e + o and x_hi = e - o
    for each swapped pair, e the half sum and o the half difference, and
    the drives likewise.  There M and K are T (A T), never formed: for an
    exactly mirror-symmetric A (mirror_gap) nothing couples the halves, and
    with m, b the unpaired even and odd dofs and l, h the slots of a pair
    the even half is A_mm', 2 A_ml', 2 A_lm', 2 (A_ll' + A_lh') and the odd
    A_bb', 2 A_bl', 2 A_lb', 2 (A_ll' - A_lh'), gathered in band order.
    Else, or when the adapted B couples the halves, the system steps whole
    in its own coordinates.  pairs maps the rows back (_paired), or is None.

    A block at rest, with zero initial state and a load that vanishes at
    every step (the odd half under equal voltages), is left out: its rows
    are exact zeros, bitwise what stepping it gives.  Rest is decided on
    exact values, the input rows and the drive samples, never on a product
    that could leave round-off.  Each _Block holds its dofs in the system's
    coordinates, its own M and K, the input columns B that reach it with
    their drive samples at every step midpoint (its load is drive @ B.T),
    a mask of its charge dofs and its initial state x0, v0.  adapted, a
    dict, keeps by operator id whether it is mirror symmetric and the blocks
    gathered from it, for the systems of one simulate call that share it
    (and so share its dof numbering).
    """
    n = system.n_dofs
    perm, sign = mirror_map(system)
    pairs, drives, odd, odd_in = _parity(perm, sign, volts.shape[1])
    B = _paired(system.B.copy(), drives)  # its columns paired first, then its rows
    _paired(B.T, pairs)
    drive = _paired(volts.copy(), drives)
    drive[:, np.concatenate(drives)] *= 0.5
    adapted = {} if adapted is None else adapted
    memos = [adapted.setdefault(id(A), {}) for A in (system.M, system.K)]
    for A, memo in zip((system.M, system.K), memos):
        if "symmetric" not in memo:
            memo["symmetric"] = mirror_gap(A, perm, sign) == 0.0
    order, half = system.band_order(), np.ones(n)
    reach = np.ascontiguousarray(B.T) != 0.0  # which inputs reach which dofs
    whole = not all(memo["symmetric"] for memo in memos) or np.any(reach & (odd_in[:, None] != odd))
    if whole:
        halves, twin, B, drive = [order], np.arange(n), system.B, volts
        reach = np.ascontiguousarray(B.T) != 0.0
    else:
        halves, twin = [order[~odd[order]], order[odd[order]]], perm
        half[np.concatenate(pairs)] = 0.5  # T / 2 maps them in
        x0, v0 = half * _paired(np.array([x0, v0]), pairs)
    charge = np.array([FIELD_CLASS[f] == "charge" for f in system.layout.fields])[
        system.fields_of()]
    blocks = []
    for k, dofs in enumerate(halves):
        cols = np.flatnonzero(reach.take(dofs, axis=1).any(axis=1))
        if not (x0.take(dofs).any() or v0.take(dofs).any() or drive.take(cols, axis=1).any()):
            continue
        # A pair's columns meet in its slot of the half, the hi one counted
        # negative in the odd half; the row of a slot counts twice.
        at, col_sign = np.full(n, -1), np.ones(n)
        at[twin[dofs]] = at[dofs] = np.arange(len(dofs))
        col_sign[pairs[1]] = -1.0 if k else 1.0
        for A, memo in zip((system.M, system.K), memos):
            if (whole, k) not in memo:
                memo[whole, k] = _gathered(A, dofs, at, col_sign[dofs] / half[dofs], col_sign)
        blocks.append(_Block(dofs=dofs, M=memos[0][whole, k], K=memos[1][whole, k],
                             B=B[dofs][:, cols], drive=drive[:, cols],
                             charge=charge[dofs], x0=x0[dofs], v0=v0[dofs]))
    return blocks, None if whole or not len(pairs[0]) else pairs


def simulate(systems, x0s, v0s, dt: float, t_end: float, stride: int = 1,
             velocities: bool = True, observe=None, observed=None):
    """Integrate a list of systems from their lists of initial states x0s,
    v0s with the implicit midpoint rule, in one sweep, recording every
    `stride` steps; returns their list of Trajectories.

    simulate keeps no recorded state.  After each chunk of steps it calls
    observe(rows, X, V) once, rows the slice of recorded rows the chunk
    covers (row 0, the initial state, comes first, alone), X a list with
    each system's rows in its own coordinates, and V the velocities
    likewise, or None when velocities=False.  X and V hold the columns
    `observed` names, bitwise those of the full rows: a list with an index
    array or None per system, None standing for every dof (the default).
    The other columns are never formed.  The arrays are simulate's own,
    written again for every chunk, so they are valid only during the call:
    an observer copies what it keeps, and reduces each row as it goes past.
    It may overwrite them in place: no two of them share memory.

    Each system is cut into its blocks, those at rest left out (see _split):
    their rows are exact zeros.  The blocks that move are stacked as the
    blocks of one block-diagonal system and swept together; each is bitwise
    the run it would be alone (see FactorizedOperator), so each system is
    bitwise its own run.

    The only caller of the sweep; it factors the stacked step matrix once
    per call in which a block moves (step_operator), in the band order the
    blocks come in, where the sweep runs.  It feeds the sweep
    CHUNK_ENTRIES // n steps at a time (n the dofs that move, or every dof
    when none moves), each call continuing from the state (x, v and the
    momenta a, b) the last one returned, and per chunk and block forms the
    load, the work integral (at every step, with the stepper's midpoint
    quadrature, so the energy-balance residual stays at round-off level for
    any stride) and the ledger of the recorded rows; a system's ledger is
    the sum of its blocks'.  Only the observed columns of the chunk's rows
    are mapped back to the system's coordinates (see _plan), and only for
    an observer.  The chunk arrays (load, midpoint velocities, recorded
    rows, the ledger's products, the observed rows) are allocated once per
    call, sized by what a chunk uses, and reused for every chunk; operators
    that systems share are checked and split once (see _split).

    Raises NumericalFailure, naming the system and the steps, after the first
    chunk that leaves a non-finite state, before its rows are observed
    (numpy's overflow warnings are silenced: the error reports such a run),
    and, naming the system, when its energy balance residual exceeds
    1e-8 * its max energy or is not finite (criterion 4): such runs come
    from step matrices that factor but are too ill-conditioned to solve.
    """
    x0s = [np.asarray(x, dtype=float) for x in x0s]
    v0s = [np.asarray(v, dtype=float) for v in v0s]
    observed = [np.arange(s.n_dofs) if d is None else np.asarray(d, dtype=np.int64) for s, d in
                zip(systems, [None] * len(systems) if observed is None else observed, strict=True)]
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
    t_mid = dt * (np.arange(n_steps) + 0.5)
    adapted = {}
    splits = [_split(s, x, v, np.column_stack([sig(t_mid) for sig in s.vspec.voltages]),
                     adapted) for s, x, v in zip(systems, x0s, v0s)]
    rec_steps = np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))
    n_rec = len(rec_steps)
    trajs = [Trajectory(t=rec_steps * dt, kinetic=np.zeros(n_rec), stored=np.zeros(n_rec),
                        magnetic=np.zeros(n_rec), work=np.zeros(n_rec)) for _ in systems]

    names = [f"system {k} of {len(trajs)}: " if len(trajs) > 1 else "" for k in range(len(trajs))]
    moving, parts = [], []
    for traj, s, (blocks, pairs), dofs, where in zip(trajs, systems, splits, observed, names):
        parts.append((traj, s.n_dofs, pairs, range(len(moving), len(moving) + len(blocks)),
                      dofs, where))
        moving += blocks
    with np.errstate(over="ignore", invalid="ignore"):
        _sweep_blocks(moving, parts, dt, n_steps, rec_steps, velocities, observe)

    for traj, where in zip(trajs, names):
        resid, scale = traj.balance
        if not resid <= 1e-8 * scale:  # NaN fails too
            raise NumericalFailure(
                f"{where}energy balance residual {resid:.3e} exceeds 1e-8 * max energy "
                f"{scale:.3e}")
    return trajs


def _plan(n: int, pairs, blocks, cols, dofs: np.ndarray, zero: int, at: int):
    """How _observed forms columns dofs of a system's rows from the wide
    rows W of a chunk (see _sweep_blocks), blocks the system's moving blocks
    and cols their columns of W: (lo, hi, at, idx).

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
    charges = [np.flatnonzero(blk.charge) for blk in moving]
    if moving:  # one block needs no block_diag copy
        M, K = ((moving[0].M, moving[0].K) if len(moving) == 1 else
                (scipy.sparse.block_diag([blk.M for blk in moving], format="csr"),
                 scipy.sparse.block_diag([blk.K for blk in moving], format="csr")))
        op = step_operator(replace(moving[0], M=M, K=K), dt)  # reads M, K, band order
    ends = np.cumsum([0] + [len(blk.dofs) for blk in moving])[1:]
    n = int(ends[-1]) if moving else 0
    cols = [slice(e - len(blk.dofs), e) for blk, e in zip(moving, ends)]
    plans, width = [], n + 1
    for _, n_dofs, pairs, own, dofs, _ in parts:
        plans.append(_plan(n_dofs, pairs, [moving[j] for j in own], [cols[j] for j in own],
                           dofs, n, width))
        width += 2 * len(plans[-1][0])

    # Sizes: a chunk's steps, and the most rows a chunk records (row 0 alone).
    chunk = max(1, CHUNK_ENTRIES // (n or sum(n_dofs for _, n_dofs, *_ in parts)))
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

    x = np.concatenate([np.zeros(0)] + [blk.x0 for blk in moving])
    v = np.concatenate([np.zeros(0)] + [blk.v0 for blk in moving])
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
            # one drive: an outer product, bitwise matmul's and faster
            (np.multiply if blk.B.shape[1] == 1 else np.matmul)(
                blk.drive[a:a + m], blk.B.T, out=load[:m, c])
        rec = rec_steps[done:np.searchsorted(rec_steps, a + m, side="right")] - a
        m_rec = len(rec)
        if moving:  # else every row is exact zeros, column n
            x, v, ab, _, _, vbar = midpoint_sweep(op.L, op.U, M, K, load[:m], x, v, dt, rec,
                                                  ab, (X[:, :n], V[:, :n], vbars))
            finite = np.isfinite(x) & np.isfinite(v) & np.isfinite(ab[0]) & np.isfinite(ab[1])
            if not finite.all():
                j = np.searchsorted(ends, np.argmin(finite), side="right")
                name = next(name for _, _, _, own, _, name in parts if j in own)
                raise NumericalFailure(
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
