"""Assembled matrices: golden element blocks, symmetry, energy consistency,
boundary conditions and the electrostatic charge elimination."""

import numpy as np
import pytest
import scipy.sparse

from piezobeam.assembly import (
    apply_mechanical_bc,
    assemble,
    build_system,
    reduce_electrostatic,
)
from piezobeam.errors import MeshSpecMismatch, SingularElectricBlock
from piezobeam.fem import GAUSS_FULL, GAUSS_REDUCED, shape_table
from piezobeam.forms import build_forms, work_rate
from piezobeam.layout import FieldState, interpolate_field
from piezobeam.materials import (
    BeamGeometry,
    BoundaryCondition,
    Regime,
    Variant,
    VoltageSignal,
)
from piezobeam.mesh import build_mesh

from modelzoo import ALL_COMBOS, UNCOUPLED, make_spec, mesh_of

UNIT_GEO = BeamGeometry(length=1.0, thickness=1.0)


def system_for(variant, regime, n=6, **kw):
    return build_system(make_spec(variant, regime, **kw), n)


def overlapping_block_assemble(element_matrix, n_elem, stride):
    """Reference assembly of identical element matrices with `stride` shared dofs."""
    k = element_matrix.shape[0]
    n = stride * n_elem + (k - stride)
    out = np.zeros((n, n))
    for e in range(n_elem):
        i = stride * e
        out[i: i + k, i: i + k] += element_matrix
    return out


class TestGoldenElementMatrices:
    """Assembled blocks of an uncoupled unit-coefficient model against the
    classical closed-form element matrices."""

    def setup_method(self):
        # gamma31 = 0 so v, w, q blocks are independent; rho h = 1,
        # alpha1 h = 4, bending stiffness alpha1 h^3/12 = 1/3, beta3 h = 1.
        self.vspec = make_spec(
            Variant.SINGLE_EB, Regime.FULL_MAGNETIC, beam=UNCOUPLED, geometry=UNIT_GEO
        )
        self.sys = build_system(self.vspec, 2)
        self.le = 0.5

    def _block(self, A, name):
        idx = self.sys.dofs_of(name)
        return A.toarray()[np.ix_(idx, idx)]

    def test_axial_mass_and_stiffness(self):
        le = self.le
        mass_el = le / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        stiff_el = 4.0 / le * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(
            self._block(self.sys.M, "v"), overlapping_block_assemble(mass_el, 2, 1),
            rtol=1e-14, atol=1e-15,
        )
        assert np.allclose(
            self._block(self.sys.K, "v"), overlapping_block_assemble(stiff_el, 2, 1),
            rtol=1e-14, atol=1e-15,
        )

    def test_bending_mass_and_stiffness(self):
        le = self.le
        mass_el = (
            le / 420.0
            * np.array(
                [
                    [156.0, 22.0 * le, 54.0, -13.0 * le],
                    [22.0 * le, 4.0 * le**2, 13.0 * le, -3.0 * le**2],
                    [54.0, 13.0 * le, 156.0, -22.0 * le],
                    [-13.0 * le, -3.0 * le**2, -22.0 * le, 4.0 * le**2],
                ]
            )
        )
        stiff_el = (
            (1.0 / 3.0)
            / le**3
            * np.array(
                [
                    [12.0, 6.0 * le, -12.0, 6.0 * le],
                    [6.0 * le, 4.0 * le**2, -6.0 * le, 2.0 * le**2],
                    [-12.0, -6.0 * le, 12.0, -6.0 * le],
                    [6.0 * le, 2.0 * le**2, -6.0 * le, 4.0 * le**2],
                ]
            )
        )
        # rotary inertia rho h^3/12 adds to the slope dofs on top of the
        # translational Hermite mass; isolate it by subtracting.
        slope_mass_el = (
            (1.0 / 12.0)
            / (30.0 * le)
            * np.array(
                [
                    [36.0, 3.0 * le, -36.0, 3.0 * le],
                    [3.0 * le, 4.0 * le**2, -3.0 * le, -le**2],
                    [-36.0, -3.0 * le, 36.0, -3.0 * le],
                    [3.0 * le, -le**2, -3.0 * le, 4.0 * le**2],
                ]
            )
        )
        expected_m = overlapping_block_assemble(mass_el + slope_mass_el, 2, 2)
        assert np.allclose(self._block(self.sys.M, "w"), expected_m, rtol=1e-13, atol=1e-15)
        assert np.allclose(
            self._block(self.sys.K, "w"), overlapping_block_assemble(stiff_el, 2, 2),
            rtol=1e-13, atol=1e-13,
        )

    def test_decoupled_blocks_have_no_cross_terms(self):
        for a, b in (("v", "w"), ("v", "q"), ("w", "q")):
            ia, ib = self.sys.dofs_of(a), self.sys.dofs_of(b)
            assert np.all(self.sys.K.toarray()[np.ix_(ia, ib)] == 0.0)
            assert np.all(self.sys.M.toarray()[np.ix_(ia, ib)] == 0.0)


class TestMatrixStructure:
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_bitwise_symmetry(self, variant, regime):
        sysm = system_for(variant, regime, n=8)
        assert np.array_equal(sysm.M.toarray(), sysm.M.T.toarray())
        assert np.array_equal(sysm.K.toarray(), sysm.K.T.toarray())

    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_mass_positive_definite_stiffness_psd(self, variant, regime):
        sysm = system_for(variant, regime, n=8)
        np.linalg.cholesky(sysm.M.toarray())  # raises if not PD
        vals = np.linalg.eigvalsh(sysm.K.toarray())
        assert vals.min() > -1e-12 * vals.max()

    def test_free_free_rigid_and_gauge_nullspace(self):
        sysm = system_for(Variant.SINGLE_EB, Regime.FULL_MAGNETIC, n=8)
        scale = np.abs(sysm.K).max()
        lay = sysm.layout
        candidates = {
            "axial translation": interpolate_field(lay, "v", lambda x: np.ones_like(x)),
            "transverse translation": interpolate_field(
                lay, "w", lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
            ),
            "rotation": interpolate_field(lay, "w", lambda x: x, lambda x: np.ones_like(x)),
            "charge gauge": interpolate_field(lay, "q", lambda x: np.ones_like(x)),
        }
        fields = {"axial translation": "v", "transverse translation": "w",
                  "rotation": "w", "charge gauge": "q"}
        for label, coeffs in candidates.items():
            vec = np.zeros(sysm.n_dofs)
            vec[sysm.dofs_of(fields[label])] = coeffs
            assert np.abs(sysm.K @ vec).max() <= 1e-12 * scale, label

    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    def test_null_space_holds_the_rigid_and_gauge_modes(self, variant, regime, bc):
        # Columns per case, in the order full-free, full-clamped,
        # electro-free, electro-clamped: three rigid motions free-free only,
        # one gauge per charge field under every boundary condition.
        counts = (5, 2, 3, 0) if variant.is_patch else (4, 1, 3, 0)
        case = 2 * (regime == Regime.ELECTROSTATIC) + (bc == BoundaryCondition.CLAMPED_FREE)
        systems = [(system_for(variant, regime, n=32, bc=bc), counts[case])]
        if regime == Regime.FULL_MAGNETIC:  # the reduction drops the gauges
            systems.append((reduce_electrostatic(systems[0][0]), counts[case + 2]))
        for sysm, count in systems:
            Z = sysm.null_space()
            assert Z.shape == (sysm.n_dofs, count)
            # the bound eigenmodes applies to every column
            bound = 64 * np.finfo(float).eps * np.abs(sysm.K).max() * np.abs(Z).max(axis=0)
            assert np.all(np.abs(sysm.K @ Z).max(axis=0) <= bound)

    def test_voltage_load_hits_charge_ends_only(self):
        sysm = system_for(Variant.SINGLE_EB, Regime.FULL_MAGNETIC, n=4)
        q = sysm.dofs_of("q")
        col = sysm.B[:, 0]
        assert col[q[0]] == 1.0 and col[q[-1]] == -1.0
        mask = np.ones(sysm.n_dofs, dtype=bool)
        mask[[q[0], q[-1]]] = False
        assert np.all(col[mask] == 0.0)

    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_input_map_matches_work_rate(self, variant, regime, rng):
        # B must be the exact gradient of the voltage work, so for any
        # velocity the power v^T B V(t) equals the functional work rate.
        volt_kw = {}
        if variant.is_patch:
            volt_kw["voltage"] = (
                VoltageSignal.sinusoid(1.3, 2.0),
                VoltageSignal.constant(-0.7),
            )
        else:
            volt_kw["voltage"] = VoltageSignal.sinusoid(2.0, 1.5)
        sysm = system_for(variant, regime, n=6, **volt_kw)
        x = rng.standard_normal(sysm.n_dofs)
        v = rng.standard_normal(sysm.n_dofs)
        for t in (0.0, 0.11, 0.37):
            expected = work_rate(sysm.state(x, v), t)
            power = float(v @ sysm.B @ [sig(t) for sig in sysm.vspec.voltages])
            assert power == pytest.approx(expected, rel=1e-12, abs=1e-13)


class TestEnergyConsistency:
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS[:4])
    def test_quadratic_forms_match_functionals(self, variant, regime, rng):
        sysm = system_for(variant, regime, n=6)
        x = rng.standard_normal(sysm.n_dofs)
        v = rng.standard_normal(sysm.n_dofs)
        st = sysm.state(x, v)
        from piezobeam.forms import kinetic_energy, magnetic_energy, stored_energy

        assert 0.5 * x @ sysm.K @ x == pytest.approx(stored_energy(st), rel=1e-12)
        assert 0.5 * v @ sysm.M @ v == pytest.approx(kinetic_energy(st), rel=1e-12)
        q = sysm.class_dofs("charge")
        vq = v[q]
        assert 0.5 * vq @ sysm.M[q][:, q] @ vq == pytest.approx(magnetic_energy(st), rel=1e-12)


class TestBoundaryConditions:
    def test_clamping_removes_root_dofs_and_kills_rigid_modes(self):
        for variant in (Variant.SINGLE_EB, Variant.SINGLE_MT):
            free = system_for(variant, Regime.ELECTROSTATIC, n=8)
            clamped = system_for(
                variant, Regime.ELECTROSTATIC, n=8, bc=BoundaryCondition.CLAMPED_FREE
            )
            assert clamped.n_dofs == free.n_dofs - 3
            np.linalg.cholesky(clamped.K.toarray())  # no rigid modes left
            keep = clamped.free_dofs
            assert np.array_equal(clamped.K.toarray(), free.K.toarray()[np.ix_(keep, keep)])
            assert np.array_equal(clamped.M.toarray(), free.M.toarray()[np.ix_(keep, keep)])
            assert np.array_equal(clamped.B, free.B[keep])

    def test_embed_inverts_the_reduction(self, rng):
        sysm = system_for(
            Variant.PATCH_MT, Regime.FULL_MAGNETIC, n=8, bc=BoundaryCondition.CLAMPED_FREE
        )
        x = rng.standard_normal(sysm.n_dofs)
        lifted = sysm.embed(x)
        assert lifted.shape == (sysm.layout.n_dofs,)
        assert np.array_equal(lifted[sysm.free_dofs], x)
        fixed = np.setdiff1d(np.arange(sysm.layout.n_dofs), sysm.free_dofs)
        assert np.all(lifted[fixed] == 0.0)

    def test_apply_bc_is_idempotent_on_free_free(self):
        sysm = system_for(Variant.SINGLE_EB, Regime.FULL_MAGNETIC, n=4)
        again = apply_mechanical_bc(sysm, BoundaryCondition.FREE_FREE)
        assert again.n_dofs == sysm.n_dofs


class TestChargeElimination:
    @pytest.mark.parametrize("variant", (Variant.PATCH_EB, Variant.PATCH_MT))
    def test_schur_complement_equals_direct_reduced_assembly(self, variant):
        full = build_system(make_spec(variant, Regime.FULL_MAGNETIC), 6)
        reduced = reduce_electrostatic(full)
        direct = build_system(make_spec(variant, Regime.ELECTROSTATIC), 6)
        assert reduced.n_dofs == direct.n_dofs
        for name in ("M", "K", "B"):
            a, b = getattr(reduced, name), getattr(direct, name)
            scale = np.abs(b).max()
            assert np.abs(a - b).max() <= 1e-12 * scale, name

    def test_single_beam_elimination_matches_direct_too(self):
        full = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 6)
        reduced = reduce_electrostatic(full)
        direct = build_system(make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC), 6)
        for name in ("M", "K", "B"):
            a, b = getattr(reduced, name), getattr(direct, name)
            scale = max(np.abs(b).max(), 1e-30)
            assert np.abs(a - b).max() <= 1e-12 * scale, name
        assert reduced.charge_reduced

    def test_elimination_requires_a_charge_block(self):
        electro = build_system(make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC), 4)
        with pytest.raises(SingularElectricBlock):
            reduce_electrostatic(electro)
        full = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 4)
        once = reduce_electrostatic(full)
        with pytest.raises(SingularElectricBlock):
            reduce_electrostatic(once)

    def test_mesh_must_match_spec(self):
        vspec = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC)
        plain = build_mesh(BeamGeometry(length=1.0, thickness=0.1), 8)
        with pytest.raises(MeshSpecMismatch):
            assemble(vspec, plain)


def reference_element_blocks(layout, terms):
    """The element blocks of the terms in the order assembly sums them, as
    the slot assembly first formed them, one einsum per channel pair and
    per distinct length of the term's elements: per term and channel pair
    (i, j), j >= i, the blocks at (i, j) and, when i != j, their transposes
    at (j, i).  Yields (rows, cols, block): the row and column fields'
    dofs on the term's elements, (n_e, a) and (n_e, b), and the blocks
    (n_e, a, b)."""
    for term in terms:
        elems, _ = layout.mesh.region(term.region)
        if len(elems) == 0:
            continue
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
                block = c * np.einsum("q,e,eqa,eqb->eab", wq, lengths, tables[i], tables[j])
                if i == j:
                    block = 0.5 * (block + np.swapaxes(block, 1, 2))
                block = block[inv]
                yield dof_tabs[i], dof_tabs[j], block
                if i != j:
                    yield dof_tabs[j], dof_tabs[i], np.swapaxes(block, 1, 2)


def unique_summed_csr(rows, cols, vals, n):
    """_summed_csr's first form: np.unique numbers the distinct keys."""
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    data = np.bincount(inverse, weights=vals, minlength=len(keys))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return keys % n, indptr, data


@pytest.mark.parametrize("n_elements", [1, 2, 3, 5, 32, 97, 512])
@pytest.mark.parametrize("variant,regime", ALL_COMBOS)
@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
def test_slot_assembly_matches_a_unique_reference(variant, regime, bc, n_elements):
    # M and K, assembled straight into their slots, are bitwise the CSR
    # arrays of the np.unique form over the element triplets in the same
    # order, duplicates summed in triplet order, with the boundary
    # condition's dofs removed as apply_mechanical_bc removes them.  97
    # elements give element lengths that are not dyadic.
    vspec = make_spec(variant, regime, bc=bc)
    system = assemble(vspec, mesh_of(vspec, n_elements))
    n = system.n_dofs
    if bc != BoundaryCondition.FREE_FREE:
        system = apply_mechanical_bc(system, bc)
    keep = system.free_dofs
    forms = build_forms(vspec)
    for terms, got in ((forms.kinetic, system.M), (forms.stored, system.K)):
        rows, cols, vals = [], [], []
        for r, c, block in reference_element_blocks(system.layout, terms):
            r, c = np.broadcast_arrays(r[:, :, None], c[:, None, :])
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(block.ravel())
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        if n_elements > 1:  # neighbouring elements add into shared slots
            assert len(np.unique(rows * n + cols)) < len(rows)
        indices, indptr, data = unique_summed_csr(rows, cols, vals, n)
        want = scipy.sparse.csr_array((data, indices, indptr), shape=(n, n))
        if len(keep) < n:
            want = want[keep][:, keep]
        for k in ("indices", "indptr", "data"):
            assert getattr(got, k).tobytes() == getattr(want, k).tobytes(), k
