"""Degree-of-freedom layout and discrete field states.

Dofs are numbered field-major: all dofs of the first field, then the second,
and so on, contiguous and non-overlapping.  Mechanical fields live on the
whole mesh; charge fields of patch variants live only on the patch submesh.

Field bases:
    v, psi            P1 Lagrange
    w                 Hermite cubic (Euler-Bernoulli), P1 (Mindlin-Timoshenko)
    q                 P1 (single beam)
    qT, qB            P2 on the patch submesh (E-B), P1 (M-T)

The P2 charge space in the Euler-Bernoulli patch model is deliberate: the
statically eliminated charge gradient tracks v' + h0 w'', which is piecewise
linear when w is Hermite cubic, so a piecewise-linear charge could not
reproduce the exact electrostatic reduction element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeMismatch, UnknownBc
from .materials import BoundaryCondition, ValidatedModelSpec, Variant
from .mesh import Mesh


@dataclass(frozen=True)
class FieldDofs:
    """One field's slot in the global vector."""

    name: str
    basis: str          # 'p1' | 'p2' | 'hermite'
    offset: int         # first global dof index
    count: int          # number of dofs
    region: str         # 'all' | 'patch' (which elements support the field)


def field_plan(vspec: ValidatedModelSpec) -> list:
    """(name, basis, region) triples for the variant/regime, in layout order."""
    eb = not vspec.is_mindlin
    plan = [("v", "p1", "all")]
    plan.append(("w", "hermite" if eb else "p1", "all"))
    if vspec.is_mindlin:
        plan.append(("psi", "p1", "all"))
    if vspec.regime.value == "full_magnetic":
        if vspec.is_patch:
            qbasis = "p2" if eb else "p1"
            plan.append(("qT", qbasis, "patch"))
            plan.append(("qB", qbasis, "patch"))
        else:
            plan.append(("q", "p1", "all"))
    return plan


# Each basis as an element chain: element k of a field's submesh holds its
# dofs stride * k to stride * k + n_local - 1, as (stride, n_local); the
# Hermite dofs come as (value, slope) per node.
CHAIN = {"p1": (1, 2), "p2": (2, 3), "hermite": (2, 4)}


# Motion class of each field: the paper's stretching, bending and charge
# groups.  Clamping fixes the non-charge fields; modes are classified by them.
FIELD_CLASS = {"v": "stretching", "w": "bending", "psi": "bending",
               "q": "charge", "qT": "charge", "qB": "charge"}


@dataclass(frozen=True)
class DofLayout:
    """Global dof numbering for a validated spec on a mesh."""

    vspec: ValidatedModelSpec
    mesh: Mesh
    fields: dict
    n_dofs: int

    def dof_slice(self, name: str) -> slice:
        f = self.fields[name]
        return slice(f.offset, f.offset + f.count)

    def class_dofs(self, *kinds: str) -> np.ndarray:
        """Global indices, ascending, of every field whose FIELD_CLASS is in kinds."""
        return np.concatenate([np.arange(0)] + [
            np.arange(f.offset, f.offset + f.count)
            for f in self.fields.values() if FIELD_CLASS[f.name] in kinds])

    def field_elements(self, name: str) -> np.ndarray:
        """Indices of mesh elements supporting the field."""
        return self.mesh.region(self.fields[name].region)[0]

    def element_dofs(self, name: str, elems: np.ndarray) -> np.ndarray:
        """Global dof indices on the given supporting elements, shape (len(elems), n_local)."""
        f = self.fields[name]
        stride, n_local = CHAIN[f.basis]
        local = elems - self.field_elements(name)[0]  # element index within the field's submesh
        return f.offset + stride * local[:, None] + np.arange(n_local)

    def node_positions(self, name: str) -> np.ndarray:
        """Coordinates associated with each dof of the field.

        Hermite slope dofs share their node's coordinate; P2 midside dofs sit
        at element midpoints.
        """
        f = self.fields[name]
        elems = self.field_elements(name)
        nodes = self.mesh.nodes[elems[0]: elems[-1] + 2]
        if f.basis == "p1":
            return nodes
        if f.basis == "p2":
            mids = 0.5 * (nodes[:-1] + nodes[1:])
            out = np.empty(2 * len(mids) + 1)
            out[0::2] = nodes
            out[1::2] = mids
            return out
        return np.repeat(nodes, 2)

    def value_dofs(self, name: str) -> np.ndarray:
        """Global indices of the dofs that are nodal *values* of the field."""
        f = self.fields[name]
        all_idx = np.arange(f.offset, f.offset + f.count)
        if f.basis == "hermite":
            return all_idx[0::2]
        return all_idx

    def constrained_dofs(self, bc: BoundaryCondition) -> np.ndarray:
        """Essential dofs for the mechanical boundary condition at x = 0."""
        if bc == BoundaryCondition.FREE_FREE:
            return np.array([], dtype=int)
        if bc != BoundaryCondition.CLAMPED_FREE:
            raise UnknownBc(f"unsupported boundary condition {bc!r}")
        # Every non-charge dof at the left end node: values, and Hermite slopes too.
        return np.concatenate([np.arange(0)] + [
            f.offset + np.flatnonzero(self.node_positions(f.name) == self.mesh.nodes[0])
            for f in self.fields.values() if FIELD_CLASS[f.name] != "charge"])


def build_layout(vspec: ValidatedModelSpec, mesh: Mesh) -> DofLayout:
    fields = {}
    offset = 0
    for name, basis, region in field_plan(vspec):
        n_el = len(mesh.region(region)[0])
        if basis == "p1":
            count = n_el + 1
        elif basis == "p2":
            count = 2 * n_el + 1
        else:
            count = 2 * (n_el + 1)
        fields[name] = FieldDofs(name, basis, offset, count, region)
        offset += count
    return DofLayout(vspec=vspec, mesh=mesh, fields=fields, n_dofs=offset)


@dataclass
class FieldState:
    """Nodal coefficients and velocities of every field on a layout."""

    layout: DofLayout
    coeffs: dict
    velocities: dict

    def __post_init__(self):
        for name, f in self.layout.fields.items():
            for store in (self.coeffs, self.velocities):
                arr = np.asarray(store.get(name, np.zeros(f.count)), dtype=float)
                if arr.shape != (f.count,):
                    raise FieldShapeMismatch(
                        f"field {name!r}: expected shape ({f.count},), got {arr.shape}"
                    )
                store[name] = arr

    @classmethod
    def from_vectors(cls, layout: DofLayout, x: np.ndarray, xdot: np.ndarray) -> "FieldState":
        x = np.asarray(x, dtype=float)
        xdot = np.asarray(xdot, dtype=float)
        if x.shape != (layout.n_dofs,) or xdot.shape != (layout.n_dofs,):
            raise FieldShapeMismatch(
                f"state vectors must have shape ({layout.n_dofs},)"
            )
        coeffs = {n: x[layout.dof_slice(n)].copy() for n in layout.fields}
        vels = {n: xdot[layout.dof_slice(n)].copy() for n in layout.fields}
        return cls(layout, coeffs, vels)


def interpolate_field(layout: DofLayout, name: str, f, df=None) -> np.ndarray:
    """Nodal coefficients interpolating callable f (and slope df for Hermite)."""
    spec = layout.fields[name]
    if spec.basis == "hermite":
        if df is None:
            raise FieldShapeMismatch("Hermite interpolation needs the slope callable df")
        elems = layout.field_elements(name)
        nodes = layout.mesh.nodes[elems[0]: elems[-1] + 2]
        out = np.empty(2 * len(nodes))
        out[0::2] = [f(x) for x in nodes]
        out[1::2] = [df(x) for x in nodes]
        return out
    pos = layout.node_positions(name)
    return np.array([f(x) for x in pos], dtype=float)
