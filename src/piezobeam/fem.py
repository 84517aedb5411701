"""Reference-element machinery: 1D shape functions and Gauss quadrature.

All elements live on the unit reference interval xi in [0, 1].  Physical
derivatives pick up 1/le^d factors; Hermite slope dofs carry an le factor so
that the degrees of freedom are the physical nodal values and slopes.
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre rules on [0, 1].  Four points integrate polynomials up to
# degree 7 exactly, which covers every energy integrand that appears here
# (the worst case is the Hermite-cubic mass term of degree 6).  The one-point
# rule is used deliberately for the shear term to avoid locking.
_g4, _w4 = np.polynomial.legendre.leggauss(4)
GAUSS_FULL = (0.5 * (_g4 + 1.0), 0.5 * _w4)
GAUSS_REDUCED = (np.array([0.5]), np.array([1.0]))


def _p1(deriv, xi):
    if deriv == 0:
        return np.stack([1.0 - xi, xi], axis=-1)
    if deriv == 1:
        one = np.ones_like(xi)
        return np.stack([-one, one], axis=-1)
    return np.zeros(xi.shape + (2,))


def _p2(deriv, xi):
    if deriv == 0:
        return np.stack(
            [(1.0 - xi) * (1.0 - 2.0 * xi), 4.0 * xi * (1.0 - xi), xi * (2.0 * xi - 1.0)],
            axis=-1,
        )
    if deriv == 1:
        return np.stack([4.0 * xi - 3.0, 4.0 - 8.0 * xi, 4.0 * xi - 1.0], axis=-1)
    if deriv == 2:
        one = np.ones_like(xi)
        return np.stack([4.0 * one, -8.0 * one, 4.0 * one], axis=-1)
    return np.zeros(xi.shape + (3,))


def _hermite(deriv, xi):
    # Columns: value-left, slope-left, value-right, slope-right (le factors
    # on the slope columns are applied in shape_table).
    if deriv == 0:
        return np.stack(
            [
                1.0 - 3.0 * xi ** 2 + 2.0 * xi ** 3,
                xi - 2.0 * xi ** 2 + xi ** 3,
                3.0 * xi ** 2 - 2.0 * xi ** 3,
                -(xi ** 2) + xi ** 3,
            ],
            axis=-1,
        )
    if deriv == 1:
        return np.stack(
            [
                -6.0 * xi + 6.0 * xi ** 2,
                1.0 - 4.0 * xi + 3.0 * xi ** 2,
                6.0 * xi - 6.0 * xi ** 2,
                -2.0 * xi + 3.0 * xi ** 2,
            ],
            axis=-1,
        )
    if deriv == 2:
        return np.stack(
            [
                -6.0 + 12.0 * xi,
                -4.0 + 6.0 * xi,
                6.0 - 12.0 * xi,
                -2.0 + 6.0 * xi,
            ],
            axis=-1,
        )
    raise ValueError(f"unsupported derivative order {deriv}")


_REF = {"p1": _p1, "p2": _p2, "hermite": _hermite}


def shape_table(basis: str, deriv: int, xi: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Physical shape-function derivatives, shape (n_elem, n_qp, n_local).

    basis: 'p1' | 'p2' | 'hermite'; deriv: 0, 1 or 2; xi: quadrature points on
    [0, 1]; lengths: element lengths.
    """
    ref = _REF[basis](deriv, np.asarray(xi, dtype=float))  # (n_qp, n_loc)
    lengths = np.asarray(lengths, dtype=float)
    scale = lengths[:, None, None] ** (-deriv) if deriv else np.ones((len(lengths), 1, 1))
    table = scale * ref[None, :, :]
    if basis == "hermite":
        table = table.copy()
        table[:, :, 1] *= lengths[:, None]
        table[:, :, 3] *= lengths[:, None]
    return table


def endpoint_values(basis: str, deriv: int, at_right: bool, length: float) -> np.ndarray:
    """Shape-function derivative values at an element endpoint (local dofs)."""
    xi = np.array([1.0 if at_right else 0.0])
    tab = shape_table(basis, deriv, xi, np.array([length]))
    return tab[0, 0, :]
