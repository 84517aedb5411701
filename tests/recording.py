"""A recording observer for solvers.simulate, for tests that read whole rows.

simulate keeps no recorded state; recorded() runs it with an observer that
copies every row it is shown, checks that the rows arrive in order, each
exactly once, and hands them back next to the Trajectory.
"""

from dataclasses import dataclass

import numpy as np

from piezobeam.solvers import Trajectory, simulate


@dataclass
class Recorded:
    """A Trajectory plus every recorded row: X the states, V the velocities
    (None when the run kept none).  Trajectory's fields read through."""

    traj: Trajectory
    X: np.ndarray
    V: np.ndarray | None

    def __getattr__(self, name):
        return getattr(self.traj, name)


def recorded(system, x0, v0, dt, t_end, stride=1, velocities=True):
    """simulate(...) with every row kept: a Recorded, or a list of them for a
    list of systems."""
    many = isinstance(system, (list, tuple))
    systems, x0s, v0s = (system, x0, v0) if many else ([system], [x0], [v0])
    X, V, seen = [[] for _ in systems], [[] for _ in systems], []

    def observe(rows, Xs, Vs):
        assert (Vs is None) is not velocities
        seen.append(rows)
        for k, s in enumerate(systems):
            assert Xs[k].shape == (rows.stop - rows.start, s.n_dofs)
            X[k].append(Xs[k].copy())
            if velocities:
                assert Vs[k].shape == Xs[k].shape
                V[k].append(Vs[k].copy())

    trajs = simulate(systems, x0s, v0s, dt, t_end, stride=stride, velocities=velocities,
                     observe=observe)
    stops = [r.stop for r in seen]
    assert [r.start for r in seen] == [0] + stops[:-1] and stops[-1] == len(trajs[0].t)
    out = [Recorded(traj, np.concatenate(xs),
                    np.concatenate(vs) if velocities else None)
           for traj, xs, vs in zip(trajs, X, V)]
    return out if many else out[0]
