"""Time-stepping kernel: the implicit midpoint sweep.

Each step costs two sparse matvecs and one banded triangular solve pair, so
a step is linear in the number of dofs.  The matvecs run in scipy's
sequential CSR kernel and the solve in LAPACK's banded routine, neither of
which is threaded, so reruns are bitwise reproducible regardless of the BLAS
thread count.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs


def backend_name() -> str:
    """Name of the time-stepping path, recorded in run reports."""
    return "sparse-banded"


def midpoint_sweep(L, M, K, bvolts, x0, v0, dt, rec_steps, perm):
    """Implicit midpoint sweep of  M xdd + K x = load.

    L is the lower banded Cholesky factor (LAPACK storage, shape (p+1, n))
    of S[perm][:, perm], S = M + (dt^2/4) K; M and K are sparse (or dense)
    n x n operators in the original numbering.  bvolts holds the per-step
    load B @ V(t_mid), shape (n_steps, n).  rec_steps are the step indices
    (ascending, starting at 0) at which the state is recorded.  Returns
    (X, V, work) at the recorded steps; work is the cumulative
    midpoint-quadrature work integral, accumulated every step.
    """
    rec_steps = np.asarray(rec_steps, dtype=np.int64)
    dt = float(dt)
    n = len(x0)
    n_steps = bvolts.shape[0]
    n_rec = len(rec_steps)
    X = np.zeros((n_rec, n))
    Vel = np.zeros((n_rec, n))
    work = np.zeros(n_rec)
    pbtrs, = get_lapack_funcs(("pbtrs",), (L,))

    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    w = 0.0
    rec = 0
    if rec_steps[0] == 0:
        X[0] = x
        Vel[0] = v
        rec = 1
    q = 0.25 * dt * dt
    for step in range(n_steps):
        # (M - q K) v - dt K x, with K read once
        rhs = M @ v - K @ (q * v + dt * x)
        rhs += dt * bvolts[step]
        sol, _ = pbtrs(L, rhs[perm], lower=1)
        v_new = np.empty(n)
        v_new[perm] = sol
        vbar = 0.5 * (v + v_new)
        x = x + dt * vbar
        v = v_new
        w += dt * float(vbar @ bvolts[step])
        if rec < n_rec and rec_steps[rec] == step + 1:
            X[rec] = x
            Vel[rec] = v
            work[rec] = w
            rec += 1
    return X, Vel, work
