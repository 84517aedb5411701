"""Time-stepping kernel: the implicit midpoint sweep, and its banded solve.

The sweep carries momenta (see midpoint_sweep), so each step costs one
sparse matvec and one banded Cholesky solve, and a step is linear in the
number of dofs.  The matvec calls scipy's sequential CSR kernel directly
(csr_matvec, the kernel that K @ v runs) into a buffer zeroed every step:
the product is bitwise that of K @ v, without the dispatch that costs
three times the kernel at 66-165 moving dofs.  The solve is two
no-transpose BLAS tbsv sweeps, one on the lower factor L and one on
U = L^T in upper band storage; both update the solution column by column
with axpy, where the transposed sweep on L that LAPACK's banded Cholesky
solve runs takes one dot product per column.  No kernel is threaded, so
reruns are bitwise reproducible regardless of the BLAS thread count.  The
sweep is a plain loop over the load it is given, in the band numbering of
the factor; solvers.simulate cuts a run into chunks, each continuing the
last one, and hands it only the blocks that move, stacked as one
block-diagonal system (the halves of the patch model's top/bottom mirror,
the single beam's {v, q}), so n counts the dofs that move.  It also hands
every chunk the same arrays to write its recorded rows and midpoint
velocities into, so a run allocates them once, not once per chunk.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import daxpy, dtbsv
from scipy.sparse._sparsetools import csr_matvec


def backend_name() -> str:
    """Name of the time-stepping path, recorded in run reports."""
    return "sparse-banded"


# The BLAS wrappers take their arguments by position: f2py's keyword parsing
# costs about a third of a call at the sweep's sizes.  The orders are
# daxpy(x, y, n, a), y += a x, and
# dtbsv(k, a, x, incx, offx, lower, trans, diag, overwrite_x).


def cholesky_solve(L, U, b):
    """x with L L^T x = b, L the lower banded Cholesky factor (shape (p+1, n))
    and U = L^T in upper band storage, both Fortran ordered.  Overwrites b,
    a float64 vector."""
    p = L.shape[0] - 1
    return dtbsv(p, U, dtbsv(p, L, b, 1, 0, 1, 0, 0, 1), 1, 0, 0, 0, 0, 1)


def midpoint_sweep(L, U, M, K, bvolts, x0, v0, dt, rec_steps, ab=None, out=None):
    """Implicit midpoint sweep of  M xdd + K x = load,  in momentum form.

    Everything is in one numbering, the band numbering of L: L is the
    lower banded Cholesky factor (LAPACK storage, shape (p+1, n)) of
    S = M + (dt^2/4) K, U = L^T in upper band storage, and M and K are
    n x n float64 canonical CSR.  bvolts holds the load f = B V(t_mid) of
    each step, shape (n_steps, n).  The sweep carries a = M v - (dt/2) K x and
    b = M v + (dt/2) K x besides x and v; ab = (a, b) continues a previous
    call, else both are formed from x0 and v0, the only use of M.  A step
    solves S vbar = a + (dt/2) f and sets

        b' = 2 (a + (dt/2) f) - a,   a' = 2 (a + (dt/2) f) - b - dt^2 K vbar,
        x' = x + dt vbar,            v' = 2 vbar - v.

    rec_steps are the steps in 1..n_steps after which the state is
    recorded, ascending.  Returns (x, v, ab, X, V, vbar): the final state,
    the (a, b) to continue from, the states at rec_steps and every step's
    midpoint velocity, shape (n_steps, n).  out = (X, V, vbar) are arrays
    to write those three into, with at least len(rec_steps), len(rec_steps)
    and n_steps rows of n entries (X and V may be row slices of wider
    arrays); their leading rows come back.  Without out they are allocated.

    The loop runs in a signed frame: after step i it holds s a, s b and
    s v, and during step i + 1 the solve gives s vbar, with s = (-1)^i.
    Each update above is then one axpy whose result is the negation of the
    old one when s = -1 (2 vbar and 2 (a + (dt/2) f) are exact, and
    rounding is symmetric in sign), so every value is bitwise that of the
    recurrence, up to the sign of an exact zero; signs are restored on
    return: the rows recorded after odd steps and the odd midpoint
    velocities are negated once per call.
    """
    dt = float(dt)
    half, dt2 = 0.5 * dt, dt * dt
    n, n_rec = len(x0), len(rec_steps)
    if out is None:
        X, Vel, vbars = np.empty((n_rec, n)), np.empty((n_rec, n)), np.empty((len(bvolts), n))
    else:
        X, Vel, vbars = out[0][:n_rec], out[1][:n_rec], out[2][:len(bvolts)]

    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    if ab is None:
        mv, kx = M @ v, K @ x
        a, b = mv - half * kx, mv + half * kx
    else:
        a, b = (np.array(c, dtype=float) for c in ab)
    kv = np.empty(n)
    p, indptr, indices, data = L.shape[0] - 1, K.indptr, K.indices, K.data
    at = np.asarray(rec_steps).tolist() + [0]  # the steps to record; 0 is none
    sign, rec = 1.0, 0
    for i, load in enumerate(bvolts):
        vbar = vbars[i]
        vbar[:] = a
        daxpy(load, vbar, n, sign * half)  # s (a + (dt/2) f)
        daxpy(vbar, a, n, -2.0)  # -s b'
        daxpy(vbar, b, n, -2.0)
        # s vbar: L y = s (a + (dt/2) f), then U vbar = y (cholesky_solve)
        dtbsv(p, U, dtbsv(p, L, vbar, 1, 0, 1, 0, 0, 1), 1, 0, 0, 0, 0, 1)
        kv.fill(0.0)  # csr_matvec adds into its output
        csr_matvec(n, n, indptr, indices, data, vbar, kv)
        daxpy(kv, b, n, dt2)  # -s a'
        a, b = b, a
        daxpy(vbar, x, n, sign * dt)
        daxpy(vbar, v, n, -2.0)  # -s v'
        sign = -sign
        if i + 1 == at[rec]:
            X[rec] = x
            Vel[rec] = v  # s v; negated below after an odd step
            rec += 1
    np.multiply(Vel, -1.0, out=Vel, where=(np.asarray(rec_steps) % 2 == 1)[:, None])
    vbars[1::2] *= -1.0
    if sign < 0.0:
        v, a, b = -v, -a, -b
    return x, v, (a, b), X, Vel, vbars
