"""Time-stepping kernel: the implicit midpoint sweep, and its banded solve.

Each step costs two sparse matvecs and one banded Cholesky solve, so a step
is linear in the number of dofs.  The matvecs run in scipy's sequential CSR
kernel.  The solve is two no-transpose BLAS tbsv sweeps, one on the lower
factor L and one on U = L^T in upper band storage; both update the solution
column by column with axpy, where the transposed sweep on L that LAPACK's
banded Cholesky solve runs takes one dot product per column.  Neither
kernel is threaded, so reruns are bitwise reproducible regardless of the
BLAS thread count.  The sweep is a plain loop over the load it is given;
solvers.simulate cuts a run into chunks, each continuing the last one, and
hands it only the blocks that move, stacked as one block-diagonal system
(the halves of the patch model's top/bottom mirror, the single beam's
{v, q}), so n counts the dofs that move.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtbsv


def backend_name() -> str:
    """Name of the time-stepping path, recorded in run reports."""
    return "sparse-banded"


def cholesky_solve(L, U, b):
    """x with L L^T x = b, L the lower banded Cholesky factor (shape (p+1, n))
    and U = L^T in upper band storage, both Fortran ordered.  Overwrites b,
    a float64 vector."""
    p = L.shape[0] - 1
    return dtbsv(p, U, dtbsv(p, L, b, lower=1, overwrite_x=1), overwrite_x=1)


def midpoint_sweep(L, U, M, K, bvolts, x0, v0, dt, rec_steps, perm):
    """Implicit midpoint sweep of  M xdd + K x = load.

    L is the lower banded Cholesky factor (LAPACK storage, shape (p+1, n))
    of S[perm][:, perm], S = M + (dt^2/4) K, and U = L^T in upper band
    storage; M and K are sparse n x n operators in the original numbering.
    bvolts holds the load B V(t_mid) of each step, shape (n_steps, n).
    rec_steps are the steps in 1..n_steps after which the state is
    recorded, ascending.  Returns (x, v, X, V, vbar): the final state, the
    states at rec_steps and every step's midpoint velocity, shape
    (n_steps, n).
    """
    dt = float(dt)
    n = len(x0)
    X = np.empty((len(rec_steps), n))
    Vel = np.empty_like(X)
    vbars = np.empty((bvolts.shape[0], n))

    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    rec, q = 0, 0.25 * dt * dt
    for i, load in enumerate(bvolts):
        # (M - q K) v - dt K x, with K read once
        rhs = M @ v - K @ (q * v + dt * x)
        rhs += dt * load
        v_new = np.empty(n)
        v_new[perm] = cholesky_solve(L, U, rhs[perm])
        vbar = vbars[i]
        np.add(v, v_new, out=vbar)
        vbar *= 0.5
        x = x + dt * vbar
        v = v_new
        if rec < len(X) and rec_steps[rec] == i + 1:
            X[rec], Vel[rec] = x, v
            rec += 1
    return x, v, X, Vel, vbars
