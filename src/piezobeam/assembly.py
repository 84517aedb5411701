"""Assembly of the semi-discrete system  M xdd + K x = B V(t).

M and K are the exact Hessians of the kinetic(+magnetic) and stored energy
functionals defined in forms.py, evaluated with the same quadrature rules, so
0.5 x^T K x reproduces the stored energy of the interpolated fields to
round-off.  B collects the gradient of the voltage work, one column per
voltage signal.

M and K are scipy.sparse CSR arrays.  Element contributions are collected as
(row, col, value) triplets in a fixed element order and duplicates are summed
sequentially in that order, so every entry is bit-identical run to run
regardless of thread environment (and to a dense np.add.at accumulation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import MeshSpecMismatch, NotPositiveDefinite, SingularElectricBlock
from .fem import GAUSS_FULL, GAUSS_REDUCED, endpoint_values, shape_table
from .forms import build_forms
from .layout import FIELD_CLASS, DofLayout, FieldState, build_layout, interpolate_field
from .materials import BoundaryCondition, Regime, ValidatedModelSpec
from .mesh import Mesh
from .solvers import FactorizedOperator


@dataclass
class SemiDiscreteSystem:
    """Assembled matrices plus the bookkeeping to map dofs back to fields.

    free_dofs maps the current (possibly constrained/reduced) dof numbering
    into the layout's full numbering; constrained dofs are implicitly zero.
    """

    vspec: ValidatedModelSpec
    mesh: Mesh
    layout: DofLayout
    M: scipy.sparse.csr_array
    K: scipy.sparse.csr_array
    B: np.ndarray
    free_dofs: np.ndarray
    charge_reduced: bool = False

    @property
    def n_dofs(self) -> int:
        return self.M.shape[0]

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Lift a vector in current numbering to the full layout numbering."""
        full = np.zeros(self.layout.n_dofs)
        full[self.free_dofs] = x
        return full

    def state(self, x: np.ndarray, xdot: np.ndarray) -> FieldState:
        return FieldState.from_vectors(self.layout, self.embed(x), self.embed(xdot))

    def current_dofs(self, full: np.ndarray) -> np.ndarray:
        """Current-numbering indices, ascending, of the surviving dofs among
        the given full-numbering ones."""
        return np.flatnonzero(np.isin(self.free_dofs, full))

    def dofs_of(self, name: str) -> np.ndarray:
        """Current-numbering indices of a field's surviving dofs."""
        sl = self.layout.dof_slice(name)
        return self.current_dofs(np.arange(sl.start, sl.stop))

    def class_dofs(self, *kinds: str) -> np.ndarray:
        """Current-numbering indices of the surviving dofs of every field in
        the given motion classes (see layout.FIELD_CLASS)."""
        return self.current_dofs(self.layout.class_dofs(*kinds))

    def null_space(self) -> np.ndarray:
        """K's known kernel (n_dofs, k): the rigid motions v = 1, w = 1 and
        w = x (with psi = -1 under Mindlin-Timoshenko, whose shear is
        (w' + psi)^2), and each charge field's constant gauge.  A column is
        kept when it vanishes on every eliminated dof: a clamped end fixes
        the rigid motions, the electrostatic reduction the gauges."""
        layout, one = self.layout, (lambda s: 1.0)
        motions = [{"v": (one,)}, {"w": (one, lambda s: 0.0)},
                   {"w": (lambda s: s, one), "psi": (lambda s: -1.0,)}]
        motions += [{name: (one,)} for name in layout.fields if FIELD_CLASS[name] == "charge"]
        Z = np.zeros((layout.n_dofs, len(motions)))
        for j, motion in enumerate(motions):
            for name in motion.keys() & layout.fields.keys():  # no psi under E-B
                Z[layout.dof_slice(name), j] = interpolate_field(layout, name, *motion[name])
        kept = ~np.any(np.delete(Z, self.free_dofs, axis=0), axis=0)
        return Z[self.free_dofs][:, kept]


def _summed_csr(rows, cols, vals, n: int) -> scipy.sparse.csr_array:
    """CSR array of the triplets, duplicates summed in triplet order from 0.0."""
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    data = np.bincount(inverse, weights=vals, minlength=len(keys))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return scipy.sparse.csr_array((data, keys % n, indptr), shape=(n, n))


def _assemble_terms(layout: DofLayout, terms, n: int) -> scipy.sparse.csr_array:
    rows, cols, vals = [], [], []
    for term in terms:
        elems, _ = layout.mesh.region(term.region)
        if len(elems) == 0:
            continue
        lengths = layout.mesh.lengths[elems]
        xi, wq = GAUSS_REDUCED if term.reduced_quad else GAUSS_FULL
        tables = []
        dof_tabs = []
        for fname, deriv in term.channels:
            fd = layout.fields[fname]
            dof_tabs.append(layout.element_dofs(fname, elems))
            tables.append(shape_table(fd.basis, deriv, xi, lengths))
        k = len(term.channels)
        for i in range(k):
            for j in range(i, k):
                c = term.coeff[i, j]
                if c == 0.0:
                    continue
                # (n_e, n_loc_i, n_loc_j), exact Gauss quadrature
                block = c * np.einsum(
                    "q,e,eqa,eqb->eab", wq, lengths, tables[i], tables[j]
                )
                if i == j:
                    # einsum's contraction order is not symmetric in (a, b);
                    # averaging restores bitwise-symmetric element blocks
                    block = 0.5 * (block + np.swapaxes(block, 1, 2))
                pairs = [(dof_tabs[i], dof_tabs[j], block)]
                if i != j:
                    pairs.append((dof_tabs[j], dof_tabs[i], np.swapaxes(block, 1, 2)))
                for r, cidx, blk in pairs:
                    r, cidx = np.broadcast_arrays(r[:, :, None], cidx[:, None, :])
                    rows.append(r.ravel())
                    cols.append(cidx.ravel())
                    vals.append(blk.ravel())
    return _summed_csr(np.concatenate(rows).astype(np.int64),
                       np.concatenate(cols).astype(np.int64),
                       np.concatenate(vals), n)


def _assemble_loads(layout: DofLayout, loads, n: int, n_sig: int) -> np.ndarray:
    """B[:, j] = d(work)/d(dofs) per unit signal j.

    Each load term integrates a pure derivative over its region, so only the
    region-boundary shape values survive: the column is coeff * [phi]_edges.
    """
    B = np.zeros((n, n_sig))
    for lt in loads:
        elems, _ = layout.mesh.region(lt.region)
        lengths = layout.mesh.lengths[elems]
        fd = layout.fields[lt.field]
        dof_tab = layout.element_dofs(lt.field, elems)
        left = endpoint_values(fd.basis, lt.deriv - 1, False, lengths[0])
        right = endpoint_values(fd.basis, lt.deriv - 1, True, lengths[-1])
        np.add.at(B[:, lt.signal], dof_tab[-1], lt.coeff * right)
        np.add.at(B[:, lt.signal], dof_tab[0], -lt.coeff * left)
    return B


def assemble(vspec: ValidatedModelSpec, mesh: Mesh) -> SemiDiscreteSystem:
    """Build M, K, B on the given mesh (must match the spec's geometry)."""
    if vspec.is_patch:
        if mesh.patch_span is None:
            raise MeshSpecMismatch("patch variant requires a mesh with a patch span")
        left, right = mesh.region("patch")[1]
        a, b = vspec.geometry.patch_start, vspec.geometry.patch_end
        if abs(left - a) > 1e-12 or abs(right - b) > 1e-12:
            raise MeshSpecMismatch("mesh patch span does not match the spec geometry")
    if abs(mesh.length - vspec.geometry.length) > 1e-12:
        raise MeshSpecMismatch("mesh length does not match the spec geometry")

    layout = build_layout(vspec, mesh)
    forms = build_forms(vspec)
    n = layout.n_dofs
    M = _assemble_terms(layout, forms.kinetic, n)
    K = _assemble_terms(layout, forms.stored, n)
    B = _assemble_loads(layout, forms.loads, n, vspec.n_signals)
    return SemiDiscreteSystem(
        vspec=vspec,
        mesh=mesh,
        layout=layout,
        M=M,
        K=K,
        B=B,
        free_dofs=np.arange(n),
    )


def apply_mechanical_bc(system: SemiDiscreteSystem, bc: BoundaryCondition) -> SemiDiscreteSystem:
    """Eliminate essential mechanical dofs (homogeneous) by row/col deletion."""
    fixed_full = system.layout.constrained_dofs(bc)
    keep = np.where(~np.isin(system.free_dofs, fixed_full))[0]
    return replace(
        system,
        M=system.M[keep][:, keep],
        K=system.K[keep][:, keep],
        B=system.B[keep],
        free_dofs=system.free_dofs[keep],
    )


def _grounded_charge_split(system: SemiDiscreteSystem):
    """Partition current dofs into mechanical and grounded charge dofs.

    One dof per charge field is pinned to zero: the charge fields only enter
    the energy through their gradients and the voltage loads sum to zero
    against constants, so the constant charge offsets are pure gauge and the
    reduction does not depend on which dof is pinned.
    """
    mech = system.class_dofs("stretching", "bending")
    # pin the first dof of each charge field
    charge = [system.dofs_of(name)[1:] for name in system.layout.fields
              if FIELD_CLASS[name] == "charge"]
    return mech, np.concatenate(charge)


def reduce_electrostatic(system: SemiDiscreteSystem) -> SemiDiscreteSystem:
    """Schur-complement elimination of the charge dofs (electrostatic limit).

    Returns a system over the mechanical dofs only:
        K_red = K_mm - K_mq K_qq^-1 K_qm
        B_red = -K_mq K_qq^-1 B_q
        M_red = M_mm   (magnetic mass dropped)

    K_red is numerically dense: at 512 patch elements it holds 404,967
    entries against 7,685 for the directly assembled electrostatic K, so its
    step matrix factors at full bandwidth.  It is a verification oracle
    (criterion 7); no stepping path may use it, and the electrostatic regime
    assembles its own banded K instead.
    """
    if system.vspec.regime != Regime.FULL_MAGNETIC or system.charge_reduced:
        raise SingularElectricBlock("reduce_electrostatic needs a fully dynamic system")
    mech, charge = _grounded_charge_split(system)
    K_mm = system.K[mech][:, mech]
    K_mq = system.K[mech][:, charge]
    K_qq = system.K[charge][:, charge]
    B_q = system.B[charge]
    try:
        op = FactorizedOperator.build(K_qq)
    except NotPositiveDefinite as exc:
        raise SingularElectricBlock(
            "charge-charge stiffness block is singular after grounding"
        ) from exc
    # The Schur complement of a charge chain is structurally dense over the
    # mechanical dofs it touches; it cancels back to a banded matrix only in
    # exact arithmetic, so it is stored with its round-off entries.
    K_red = K_mm.toarray() - K_mq @ op.solve(K_mq.T.toarray())
    B_red = -K_mq @ op.solve(B_q)
    K_red = 0.5 * (K_red + K_red.T)  # symmetrize round-off
    return replace(
        system,
        M=system.M[mech][:, mech],
        K=scipy.sparse.csr_array(K_red),
        B=B_red,
        free_dofs=system.free_dofs[mech],
        charge_reduced=True,
    )


def build_system(vspec: ValidatedModelSpec, n_elements: int) -> SemiDiscreteSystem:
    """Mesh, assemble and apply the spec's mechanical boundary condition."""
    from .mesh import build_mesh

    mesh = build_mesh(vspec.geometry, n_elements, patch=vspec.is_patch)
    system = assemble(vspec, mesh)
    if vspec.mechanical_bc != BoundaryCondition.FREE_FREE:
        system = apply_mechanical_bc(system, vspec.mechanical_bc)
    return system

