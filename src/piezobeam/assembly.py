"""Assembly of the semi-discrete system  M xdd + K x = B V(t).

M and K are the exact Hessians of the kinetic(+magnetic) and stored energy
functionals defined in forms.py, evaluated with the same quadrature rules, so
0.5 x^T K x reproduces the stored energy of the interpolated fields to
round-off.  B collects the gradient of the voltage work, one column per
voltage signal.

M and K are scipy.sparse CSR arrays, assembled together in one pass
(_assemble): element blocks formed once per distinct element length, the
pattern known from the element chain, and every block summed straight into
its slots by an ordered np.add.at, in a fixed element order and with nothing
sorted, so every entry is bit-identical run to run regardless of thread
environment (and to a dense np.add.at accumulation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import MeshSpecMismatch, NotPositiveDefinite, SingularElectricBlock
from .fem import GAUSS_FULL, GAUSS_REDUCED, endpoint_values, gauss_table
from .forms import build_forms
from .layout import CHAIN, FIELD_CLASS, DofLayout, FieldState, build_layout, interpolate_field
from .materials import BoundaryCondition, ModelSpec
from .mesh import Mesh
from .solvers import FactorizedOperator


@dataclass
class SemiDiscreteSystem:
    """Assembled matrices plus the bookkeeping to map dofs back to fields.

    free_dofs maps the current (possibly constrained/reduced) dof numbering
    into the layout's full numbering; constrained dofs are implicitly zero.
    """

    vspec: ModelSpec
    mesh: Mesh
    layout: DofLayout
    M: scipy.sparse.csr_array
    K: scipy.sparse.csr_array
    B: np.ndarray
    free_dofs: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.M.shape[0]

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Lift a vector in current numbering to the full layout numbering."""
        full = np.zeros(self.layout.n_dofs)
        full[self.free_dofs] = x
        return full

    def state(self, x: np.ndarray, xdot: np.ndarray) -> FieldState:
        """The fields of (x, xdot) on a layout of this system's own spec: with_mass
        and the drives of a shared assembly replace vspec but keep the layout."""
        layout = replace(self.layout, vspec=self.vspec)
        return FieldState.from_vectors(layout, self.embed(x), self.embed(xdot))

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

    def fields_of(self) -> np.ndarray:
        """Each current dof's field, as its index in layout.fields."""
        counts = [f.count for f in self.layout.fields.values()]
        return np.repeat(np.arange(len(counts)), counts)[self.free_dofs]

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
        pos = pos[self.free_dofs][dofs]
        if "qT" in self.layout.fields:
            return np.argsort(pos, kind="stable")
        late = np.zeros(self.n_dofs, dtype=bool)
        late[self.class_dofs("bending")] = True
        return np.lexsort((pos, late[dofs]))

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


def _element_tables(terms, fields: dict, lengths: np.ndarray) -> dict:
    """Every term's element blocks on the distinct element lengths: by
    id(term), (blocks, at), blocks (n_u, N, N) over the term's local dofs
    and at the slice of each channel's dofs in them, so that the block of
    channels (i, j) on lengths[u] is blocks[u, at[i], at[j]].  A block
    depends on the element only through its length.

    One einsum per quadrature rule forms every channel pair of every term
    at once, each entry summed over the points in the same order as
    alone.  The block at (j, i), i < j, is the transpose of the one at
    (i, j); einsum's contraction order is not symmetric in (a, b), so
    averaging restores bitwise-symmetric blocks at (i, i)."""
    tables = {}
    for reduced in {term.reduced_quad for term in terms}:
        group = [term for term in terms if term.reduced_quad == reduced]
        keys = [(fields[f].basis, d, reduced) for term in group for f, d in term.channels]
        shapes = {key: gauss_table(*key, lengths) for key in dict.fromkeys(keys)}
        shapes = [shapes[key] for key in keys]
        ends = list(itertools.accumulate(t.shape[2] for t in shapes))
        at = [slice(b - t.shape[2], b) for t, b in zip(shapes, ends)]
        ch = np.repeat(np.arange(len(shapes)), [t.shape[2] for t in shapes])
        first = list(itertools.accumulate([len(term.channels) for term in group], initial=0))
        coeff = np.zeros((len(shapes),) * 2)  # every term's coefficients, block diagonal
        for term, k in zip(group, first):
            coeff[k:k + len(term.channels), k:k + len(term.channels)] = term.coeff
        table = np.concatenate(shapes, axis=2)
        wq = (GAUSS_REDUCED if reduced else GAUSS_FULL)[1]
        full = coeff[ch[:, None], ch] * np.einsum("q,e,eqa,eqb->eab", wq, lengths, table, table)
        flip = np.swapaxes(full, 1, 2)
        full = np.where(ch[:, None] == ch, 0.5 * (full + flip),
                        np.where(ch[:, None] < ch, full, flip))
        tables.update({id(term): (full, at[k:k + len(term.channels)])
                       for term, k in zip(group, first)})
    return tables


def _element_blocks(term, tables: dict, dofs: dict, elems: np.ndarray):
    """Every element block of the term on elems, in the order assembly
    sums them: per channel pair (i, j), j >= i, the block at (i, j) and,
    when i != j, its transpose at (j, i).  Yields (fields, rows, cols,
    table): the row and column fields, their dofs on the elements, shapes
    (a, n_e) and (b, n_e), from dofs (each field's dofs on element 0 of
    the mesh, and its stride), and the blocks (n_u, a, b) on the distinct
    lengths (see _element_tables)."""
    full, at = tables[id(term)]
    tabs = [first[:, None] + stride * elems for first, stride in
            (dofs[f] for f, _ in term.channels)]
    for i, j in itertools.combinations_with_replacement(range(len(term.channels)), 2):
        if term.coeff[i, j] == 0.0:
            continue
        for a, b in [(i, j), (j, i)][:1 + (i != j)]:
            yield ((term.channels[a][0], term.channels[b][0]), tabs[a], tabs[b],
                   full[:, at[a], at[b]])


def _assemble(layout: DofLayout, term_sets) -> list:
    """The CSR matrix of each set of terms, each entry summed from 0.0 over
    the blocks in the order _element_blocks yields them, term by term,
    and within a block over the elements in ascending order.

    On a 1D element chain a row lies on one element or two neighbours, and
    the columns of a field on a run of elements form one range, so the
    pattern is arithmetic on each field's chain (CHAIN): row r's columns
    in its k-th coupled field are lo[r, k] to lo[r, k] + width[r, k] - 1,
    over the elements on which a term couples the two fields, and entry
    (r, c) there sits at slot base[k, r] + c.  Nothing is sorted.  One
    ordered np.add.at per block sums into the slots, by local row and
    column dof from the right node down, then by element: in a block only
    an element's right node and the next element's left node share
    entries, so each entry still sees its elements in ascending order."""
    mesh, n = layout.mesh, layout.n_dofs
    lengths, inv = np.unique(mesh.lengths, return_inverse=True)
    tables = _element_tables([t for terms in term_sets for t in terms], layout.fields, lengths)
    fields = list(layout.fields.values())
    names = [f.name for f in fields]
    regions = {name: mesh.region(name)[0] for name in ("all", "patch")}
    lengths_of = {name: inv.take(elems) for name, elems in regions.items()}  # index into lengths
    stride, n_local = np.array([CHAIN[f.basis] for f in fields]).T
    e0 = np.array([regions[f.region][0] for f in fields])
    offset = np.array([f.offset for f in fields])
    dofs = {f.name: (o - s * e + np.arange(a), s)
            for f, o, s, a, e in zip(fields, offset, stride, n_local, e0)}
    # Row d of a field lies on elements e0 + ceil((d - a + 1) / s) to
    # e0 + floor(d / s) of its chain, (s, a) = CHAIN[basis].
    of = np.repeat(np.arange(len(fields)), [f.count for f in fields])  # each row's field
    d = np.arange(n) - offset.take(of)
    s, a, e = stride.take(of), n_local.take(of), e0.take(of)
    row_first, row_last = e + np.maximum(d - a + s, 0) // s, e + d // s
    matrices = []
    for terms in term_sets:
        blocks = [(elems, lengths_of[term.region], block) for term in terms
                  if len(elems := regions[term.region])
                  for block in _element_blocks(term, tables, dofs, elems)]
        span = {}  # each coupled field pair's first and last element
        for elems, _, (pair, *_) in blocks:
            lo, hi = span.get(pair, (elems[0], elems[-1]))
            span[pair] = min(lo, elems[0]), max(hi, elems[-1])
        # Each row's ranges, one per field its field couples to (the k-th of
        # coupled[f]), over the elements first[f, k] to last[f, k].
        coupled = [[g for g in names if (f, g) in span] for f in names]
        at = {(f, g): k for f, gs in zip(names, coupled) for k, g in enumerate(gs)}
        first, last, g = np.zeros((3, len(fields), max(map(len, coupled))), dtype=np.int64)
        first[:] = n  # no range where nothing couples
        for (f, gk), k in at.items():
            g[names.index(f), k] = names.index(gk)
            first[names.index(f), k], last[names.index(f), k] = span[f, gk]
        g = g.take(of, axis=0)  # the field of each row's ranges
        lo_e = np.maximum(row_first[:, None], first.take(of, axis=0))
        hi_e = np.minimum(row_last[:, None], last.take(of, axis=0))
        st = stride.take(g)
        width = np.where(hi_e >= lo_e, st * (hi_e - lo_e) + n_local.take(g), 0)
        lo = (offset - stride * e0).take(g) + st * lo_e
        end = np.cumsum(width).reshape(width.shape)  # row-major over (row, range)
        base = (end - width - lo).T.copy()  # slot of column 0 of each range
        data = np.zeros(end[-1, -1])
        for _, u, (pair, rows, cols, table) in blocks:
            slots = base[at[pair]].take(rows[::-1])
            vals = table[:, ::-1, ::-1].transpose(1, 2, 0).take(u, axis=2)
            np.add.at(data, (slots[:, None, :] + cols[::-1][None, :, :]).ravel(), vals.ravel())
        # Column indices: each nonempty range counts up from its lo.
        step = np.ones(len(data), dtype=np.int64)
        ranges = np.flatnonzero(width)
        starts, los = end.ravel()[ranges] - width.ravel()[ranges], lo.ravel()[ranges]
        step[starts] = los - np.append(0, (los + width.ravel()[ranges])[:-1] - 1)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = end[:, -1]
        matrices.append(scipy.sparse.csr_array((data, np.cumsum(step, out=step), indptr),
                                               shape=(n, n)))
    return matrices


def _assemble_loads(layout: DofLayout, loads, n: int, n_sig: int) -> np.ndarray:
    """B[:, j] = d(work)/d(dofs) per unit signal j.

    Each load term integrates a pure derivative over its region, so only the
    region-boundary shape values survive: the column is coeff * [phi]_edges.
    """
    B = np.zeros((n, n_sig))
    lengths = layout.mesh.lengths
    for lt in loads:
        elems, _ = layout.mesh.region(lt.region)
        basis = layout.fields[lt.field].basis
        left, right = layout.element_dofs(lt.field, elems[[0, -1]])
        np.add.at(B[:, lt.signal], right,
                  lt.coeff * endpoint_values(basis, lt.deriv - 1, True, lengths[elems[-1]]))
        np.add.at(B[:, lt.signal], left,
                  -lt.coeff * endpoint_values(basis, lt.deriv - 1, False, lengths[elems[0]]))
    return B


def assemble(vspec: ModelSpec, mesh: Mesh) -> SemiDiscreteSystem:
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
    M, K = _assemble(layout, (forms.kinetic, forms.stored))
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


def with_mass(system: SemiDiscreteSystem, vspec: ModelSpec) -> SemiDiscreteSystem:
    """system with vspec and the M that vspec assembles, kept on system's
    dofs: bitwise the system build_system(vspec) builds when vspec differs
    from system.vspec only in what forms reads in kinetic terms alone (mu).
    K, B and the bookkeeping are shared."""
    M, = _assemble(system.layout, (build_forms(vspec).kinetic,))
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
    if not len(system.class_dofs("charge")):
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
    )


def build_system(vspec: ModelSpec, n_elements: int) -> SemiDiscreteSystem:
    """Mesh, assemble and apply the spec's mechanical boundary condition."""
    from .mesh import build_mesh

    mesh = build_mesh(vspec.geometry, n_elements, patch=vspec.is_patch)
    system = assemble(vspec, mesh)
    if vspec.mechanical_bc != BoundaryCondition.FREE_FREE:
        system = apply_mechanical_bc(system, vspec.mechanical_bc)
    return system

