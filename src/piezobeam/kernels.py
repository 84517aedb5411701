"""Time-stepping kernel: the implicit midpoint sweep, and its banded solve.

The sweep carries momenta (see midpoint_sweep), so each step costs one
sparse matvec and one banded Cholesky solve, and a step is linear in the
number of dofs.  The matvec runs in scipy's sequential CSR kernel.  The
solve is two no-transpose BLAS tbsv sweeps, one on the lower factor L and
one on U = L^T in upper band storage; both update the solution column by
column with axpy, where the transposed sweep on L that LAPACK's banded
Cholesky solve runs takes one dot product per column.  No kernel is
threaded, so reruns are bitwise reproducible regardless of the BLAS thread
count.  The sweep is a plain loop over the load it is given, in the band
numbering of the factor; solvers.simulate cuts a run into chunks, each
continuing the last one, and hands it only the blocks that move, stacked
as one block-diagonal system (the halves of the patch model's top/bottom
mirror, the single beam's {v, q}), so n counts the dofs that move.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import daxpy, dscal, dtbsv


def backend_name() -> str:
    """Name of the time-stepping path, recorded in run reports."""
    return "sparse-banded"


def cholesky_solve(L, U, b):
    """x with L L^T x = b, L the lower banded Cholesky factor (shape (p+1, n))
    and U = L^T in upper band storage, both Fortran ordered.  Overwrites b,
    a float64 vector."""
    p = L.shape[0] - 1
    return dtbsv(p, U, dtbsv(p, L, b, lower=1, overwrite_x=1), overwrite_x=1)


def midpoint_sweep(L, U, M, K, bvolts, x0, v0, dt, rec_steps, ab=None):
    """Implicit midpoint sweep of  M xdd + K x = load,  in momentum form.

    Everything is in one numbering, the band numbering of L: L is the
    lower banded Cholesky factor (LAPACK storage, shape (p+1, n)) of
    S = M + (dt^2/4) K, U = L^T in upper band storage, and M and K are
    sparse n x n operators.  bvolts holds the load f = B V(t_mid) of each
    step, shape (n_steps, n).  The sweep carries a = M v - (dt/2) K x and
    b = M v + (dt/2) K x besides x and v; ab = (a, b) continues a previous
    call, else both are formed from x0 and v0, the only use of M.  A step
    solves S vbar = a + (dt/2) f and sets

        b' = 2 (a + (dt/2) f) - a,   a' = 2 (a + (dt/2) f) - b - dt^2 K vbar,
        x' = x + dt vbar,            v' = 2 vbar - v.

    rec_steps are the steps in 1..n_steps after which the state is
    recorded, ascending.  Returns (x, v, ab, X, V, vbar): the final state,
    the (a, b) to continue from, the states at rec_steps and every step's
    midpoint velocity, shape (n_steps, n).
    """
    dt = float(dt)
    half, dt2 = 0.5 * dt, dt * dt
    n = len(x0)
    X = np.empty((len(rec_steps), n))
    Vel = np.empty_like(X)
    vbars = np.empty((bvolts.shape[0], n))

    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    if ab is None:
        mv, kx = M @ v, K @ x
        a, b = mv - half * kx, mv + half * kx
    else:
        a, b = (np.array(c, dtype=float) for c in ab)
    rhs2 = np.empty(n)
    rec = 0
    for i, load in enumerate(bvolts):
        vbar = vbars[i]
        np.copyto(vbar, a)
        daxpy(load, vbar, a=half)  # the right-hand side a + (dt/2) f
        np.add(vbar, vbar, out=rhs2)
        cholesky_solve(L, U, vbar)
        np.subtract(rhs2, a, out=a)  # b'
        np.subtract(rhs2, b, out=b)
        daxpy(K @ vbar, b, a=-dt2)  # a'
        a, b = b, a
        daxpy(vbar, x, a=dt)
        daxpy(vbar, dscal(-1.0, v), a=2.0)
        if rec < len(X) and rec_steps[rec] == i + 1:
            X[rec], Vel[rec] = x, v
            rec += 1
    return x, v, (a, b), X, Vel, vbars
