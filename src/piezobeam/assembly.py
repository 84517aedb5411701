"""Assembly of the semi-discrete system  M xdd + K x = B V(t).

M and K are the exact Hessians of the kinetic(+magnetic) and stored energy
functionals defined in forms.py, evaluated with the same quadrature rules, so
0.5 x^T K x reproduces the stored energy of the interpolated fields to
round-off.  B collects the gradient of the voltage work, one column per
voltage signal.

M and K are scipy.sparse CSR arrays, summed straight into the slots of a
pattern known from the element chain, in a fixed element order and with
nothing sorted, so every entry is bit-identical run to run regardless of
thread environment (and to a dense np.add.at accumulation).
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
        given = np.zeros(self.layout.n_dofs, dtype=bool)
        given[full] = True
        return np.flatnonzero(given[self.free_dofs])

    def dofs_of(self, name: str) -> np.ndarray:
        """Current-numbering indices of a field's surviving dofs."""
        sl = self.layout.dof_slice(name)
        return self.current_dofs(np.arange(sl.start, sl.stop))

    def class_dofs(self, *kinds: str) -> np.ndarray:
        """Current-numbering indices of the surviving dofs of every field in
        the given motion classes (see layout.FIELD_CLASS)."""
        return self.current_dofs(self.layout.class_dofs(*kinds))

    def band_order(self, dofs=slice(None)) -> np.ndarray:
        """The band numbering of the submatrix on dofs (ascending current
        dofs, default all): indices into dofs by node position, then dof.
        Without charge pairs (the single beam) the mirror negates bending
        alone, nothing couples it to the rest, and it comes after the rest."""
        pos = np.concatenate([self.layout.node_positions(f) for f in self.layout.fields])
        late = np.zeros(self.n_dofs, dtype=bool)
        late[self.class_dofs("bending")] = "qT" not in self.layout.fields
        return np.lexsort((pos[self.free_dofs][dofs], late[dofs]))

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


def _element_blocks(layout: DofLayout, terms):
    """Every element block of the terms, in the order assembly sums them:
    per term and channel pair (i, j), j >= i, the blocks at (i, j) and,
    when i != j, their transposes at (j, i).  Yields (rows, cols, field,
    block): the row and column fields' dofs on the term's elements, shapes
    (n_e, a) and (n_e, b), the column field and the blocks (n_e, a, b)."""
    for term in terms:
        elems, _ = layout.mesh.region(term.region)
        if len(elems) == 0:
            continue
        # An element block depends on the element only through its length:
        # compute one per distinct length and gather them by element.
        lengths, inv = np.unique(layout.mesh.lengths[elems], return_inverse=True)
        xi, wq = GAUSS_REDUCED if term.reduced_quad else GAUSS_FULL
        tables = [shape_table(layout.fields[f].basis, d, xi, lengths) for f, d in term.channels]
        dof_tabs = [layout.element_dofs(f, elems) for f, _ in term.channels]
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
                block = block[inv]
                yield dof_tabs[i], dof_tabs[j], term.channels[j][0], block
                if i != j:
                    yield dof_tabs[j], dof_tabs[i], term.channels[i][0], np.swapaxes(block, 1, 2)


def _assemble_terms(layout: DofLayout, terms, n: int) -> scipy.sparse.csr_array:
    """The CSR matrix of the terms, each entry summed from 0.0 in the order
    _element_blocks yields its contributions.  On a 1D element chain a row's
    columns in one field form one range, so the pattern is known from each
    row's first and last column per field, and entry (r, c) of field f sits
    at slot base[f][r] + c: one bincount over every block's slots sums the
    entries in that order, and nothing is sorted."""
    blocks = list(_element_blocks(layout, terms))
    fields = list(layout.fields)
    lo, hi = np.full((len(fields), n), n), np.full((len(fields), n), -1)
    for rows, cols, name in {(id(r), id(c)): (r, c, f) for r, c, f, _ in blocks}.values():
        # Local dof k of element e is rows[0, 0] + d with d = s e + k: row d
        # lies on elements ceil((d - a + 1) / s) to d // s, its column range.
        a, s = rows.shape[1], rows[1, 0] - rows[0, 0] if len(rows) > 1 else 1
        d, f = np.arange(rows[-1, -1] - rows[0, 0] + 1), fields.index(name)
        span = slice(rows[0, 0], rows[-1, -1] + 1)
        lo[f, span] = np.minimum(lo[f, span], cols[np.maximum(0, (d - a + s) // s), 0])
        hi[f, span] = np.maximum(hi[f, span], cols[np.minimum(len(rows) - 1, d // s), -1])
    width = np.maximum(hi - lo + 1, 0).T.ravel()  # row-major over (row, field)
    end = np.cumsum(width)
    start = end - width - lo.T.ravel()  # slot of column 0 of each row's field
    base = start.reshape(n, len(fields)).T
    slots = [(base[fields.index(f)][r][:, :, None] + c[:, None, :]).ravel()
             for r, c, f, _ in blocks]
    data = np.bincount(np.concatenate(slots), np.concatenate([b.ravel() for *_, b in blocks]),
                       end[-1])
    return scipy.sparse.csr_array((data, np.arange(end[-1]) - np.repeat(start, width),
                                   np.append(0, end[len(fields) - 1::len(fields)])),
                                  shape=(n, n))


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


def with_mass(system: SemiDiscreteSystem, vspec: ValidatedModelSpec) -> SemiDiscreteSystem:
    """system with vspec and the M that vspec assembles, kept on system's
    dofs: bitwise the system build_system(vspec) builds when vspec differs
    from system.vspec only in what forms reads in kinetic terms alone (mu).
    K, B and the bookkeeping are shared."""
    M = _assemble_terms(system.layout, build_forms(vspec).kinetic, system.layout.n_dofs)
    if system.n_dofs < system.layout.n_dofs:
        M = M[system.free_dofs][:, system.free_dofs]
    return replace(system, vspec=vspec, M=M)


def apply_mechanical_bc(system: SemiDiscreteSystem, bc: BoundaryCondition) -> SemiDiscreteSystem:
    """Eliminate essential mechanical dofs (homogeneous) by row/col deletion."""
    fixed = np.zeros(system.layout.n_dofs, dtype=bool)
    fixed[system.layout.constrained_dofs(bc)] = True
    keep = np.flatnonzero(~fixed[system.free_dofs])
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
        op = FactorizedOperator.build(K_qq, system.band_order(charge))
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

