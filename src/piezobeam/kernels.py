"""Time-stepping kernel: the implicit midpoint sweep.

Each step costs two sparse matvecs and one banded triangular solve pair, so
a step is linear in the number of dofs.  The matvecs run in scipy's
sequential CSR kernel and the solve in LAPACK's banded routine, neither of
which is threaded, so reruns are bitwise reproducible regardless of the BLAS
thread count.

One sweep may advance several independent systems at once, stacked as the
blocks of one block-diagonal system: the fixed per-step cost of the Python
loop and the scipy dispatch is then paid once for all of them.  The load,
the work integral and the recorded states are handled a chunk of steps at a
time, per block, so no n_steps x n array is ever formed and every block gets
the same arithmetic as when it runs alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

# Entries of each per-chunk buffer (load, midpoint velocity, recorded rows):
# a chunk holds CHUNK_ENTRIES // n steps, 512 KiB per buffer.
CHUNK_ENTRIES = 1 << 16


def backend_name() -> str:
    """Name of the time-stepping path, recorded in run reports."""
    return "sparse-banded"


@dataclass(frozen=True)
class Loads:
    """The stacked load B_s V_s(t_mid) of the blocks of a sweep.

    volts[s] holds block s's voltages at the step midpoints, shape
    (n_steps, n_signals_s), and B[s] its input map, shape (n_s,
    n_signals_s).  The load is formed a chunk of steps at a time with one
    product per block; shape is that of the (never formed) stacked array.
    """

    volts: tuple
    B: tuple

    @property
    def shape(self) -> tuple:
        return (len(self.volts[0]), sum(len(b) for b in self.B))

    @property
    def blocks(self) -> list:
        """The slice of the stacked state that each block occupies."""
        ends = np.cumsum([len(b) for b in self.B]).tolist()
        return [slice(a, b) for a, b in zip([0] + ends, ends)]

    def rows(self, a: int, b: int, out: np.ndarray) -> None:
        """Write the load of steps a..b-1 into out[:b - a]."""
        for v, B, block in zip(self.volts, self.B, self.blocks):
            np.matmul(v[a:b], B.T, out=out[:b - a, block])


def midpoint_sweep(L, M, K, bvolts, x0, v0, dt, rec_steps, perm, record):
    """Implicit midpoint sweep of  M xdd + K x = load.

    L is the lower banded Cholesky factor (LAPACK storage, shape (p+1, n))
    of S[perm][:, perm], S = M + (dt^2/4) K; M and K are sparse n x n
    operators in the original numbering, block-diagonal over the blocks of
    bvolts, the Loads of the sweep.  rec_steps are the step indices at which
    the state is recorded: ascending, and rec_steps[0] must be 0 (the initial
    state is always recorded).

    record(i, X, V, work) receives recorded rows i, i+1, ... of the state
    (rows x n each) and of every block's cumulative midpoint-quadrature work
    integral (rows x n_blocks), accumulated every step; it is called for the
    initial state and once for each chunk of steps that records a row, and
    its arrays are reused after it returns.
    """
    dt = float(dt)
    n = len(x0)
    n_steps = bvolts.shape[0]
    blocks = bvolts.blocks
    chunk = max(1, CHUNK_ENTRIES // max(n, 1))
    load = np.empty((chunk, n))
    vbars = np.empty((chunk, n))
    X = np.empty((min(chunk, len(rec_steps)), n))
    Vel = np.empty_like(X)
    at = np.empty(len(X), dtype=np.int64)
    pbtrs, = get_lapack_funcs(("pbtrs",), (L,))

    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    w = np.zeros((1, len(blocks)))
    record(0, x[None], v[None], w)
    rec, nxt = 1, (int(rec_steps[1]) if len(rec_steps) > 1 else -1)
    q = 0.25 * dt * dt
    for a in range(0, n_steps, chunk):
        m = min(chunk, n_steps - a)
        bvolts.rows(a, a + m, load)
        r = 0
        for i in range(m):
            # (M - q K) v - dt K x, with K read once
            rhs = M @ v - K @ (q * v + dt * x)
            rhs += dt * load[i]
            sol, _ = pbtrs(L, rhs[perm], lower=1)
            v_new = np.empty(n)
            v_new[perm] = sol
            vbar = vbars[i]
            np.add(v, v_new, out=vbar)
            vbar *= 0.5
            x = x + dt * vbar
            v = v_new
            if a + i + 1 == nxt:
                X[r], Vel[r], at[r] = x, v, i
                r += 1
                rec += 1
                nxt = int(rec_steps[rec]) if rec < len(rec_steps) else -1
        # Work increments dt * vbar . load, one dot product per step and
        # block, summed in step order after the previous total.
        inc = np.empty((m + 1, len(blocks)))
        inc[0] = w[-1]
        for s, block in enumerate(blocks):
            inc[1:, s] = np.matmul(vbars[:m, None, block], load[:m, block, None])[:, 0, 0]
        inc[1:] *= dt
        w = np.cumsum(inc, axis=0)
        if r:
            record(rec - r, X[:r], Vel[:r], w[at[:r] + 1])
