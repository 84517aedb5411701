"""Meshing, shape functions, dof layout and discrete field states."""

import numpy as np
import pytest

from piezobeam.errors import (
    FieldShapeMismatch,
    InvalidGeometry,
    TooFewElements,
    UnknownBc,
)
from piezobeam.fem import GAUSS_FULL, GAUSS_REDUCED, endpoint_values, shape_table
from piezobeam.assembly import build_system
from piezobeam.layout import FIELD_CLASS, FieldState, build_layout, interpolate_field
from piezobeam.materials import BeamGeometry, BoundaryCondition, Regime, Variant
from piezobeam.mesh import build_mesh

from modelzoo import ALL_COMBOS, PATCH_GEO, make_spec


class TestMesh:
    def test_uniform_mesh(self):
        mesh = build_mesh(BeamGeometry(length=2.0, thickness=0.1), 8)
        assert np.allclose(mesh.nodes, np.linspace(0.0, 2.0, 9))
        assert mesh.n_elements == 8
        assert np.allclose(mesh.lengths, 0.25)
        assert mesh.length == 2.0
        # without a patch span the "patch" covers everything
        assert np.array_equal(mesh.region("patch")[0], np.arange(8))

    def test_patch_edges_become_nodes(self):
        mesh = build_mesh(PATCH_GEO, 8, patch=True)
        assert PATCH_GEO.patch_start in mesh.nodes
        assert PATCH_GEO.patch_end in mesh.nodes
        ia, ib = mesh.patch_span
        assert mesh.nodes[ia] == PATCH_GEO.patch_start
        assert mesh.nodes[ib] == PATCH_GEO.patch_end
        assert mesh.region("patch")[1] == (PATCH_GEO.patch_start, PATCH_GEO.patch_end)

    def test_element_apportionment_tracks_segment_lengths(self):
        # segments 0.25 / 0.5 / 0.25 of the unit beam
        mesh = build_mesh(PATCH_GEO, 8, patch=True)
        ia, ib = mesh.patch_span
        assert (ia, ib - ia, mesh.n_elements - ib) == (2, 4, 2)
        # 5 elements cannot split evenly; the longest segment gets the extra
        mesh5 = build_mesh(PATCH_GEO, 5, patch=True)
        ia, ib = mesh5.patch_span
        assert (ia, ib - ia, mesh5.n_elements - ib) == (1, 3, 1)

    def test_every_segment_keeps_at_least_one_element(self):
        lopsided = BeamGeometry(
            length=1.0, core_half_thickness=0.05, patch_thickness=0.03,
            patch_start=0.49, patch_end=0.51,
        )
        mesh = build_mesh(lopsided, 4, patch=True)
        ia, ib = mesh.patch_span
        assert ib - ia >= 1
        assert ia >= 1 and mesh.n_elements - ib >= 1

    def test_too_few_elements(self):
        geo = BeamGeometry(length=1.0, thickness=0.1)
        with pytest.raises(TooFewElements):
            build_mesh(geo, 1)
        with pytest.raises(TooFewElements):
            build_mesh(PATCH_GEO, 3, patch=True)

    def test_patch_mesh_requires_interval(self):
        with pytest.raises(InvalidGeometry):
            build_mesh(BeamGeometry(length=1.0, thickness=0.1), 8, patch=True)


class TestShapeFunctions:
    def test_partition_of_unity(self):
        xi = GAUSS_FULL[0]
        lengths = np.array([0.3, 0.7])
        for basis in ("p1", "p2"):
            tab = shape_table(basis, 0, xi, lengths)
            assert np.allclose(tab.sum(axis=2), 1.0, atol=1e-14)
            dtab = shape_table(basis, 1, xi, lengths)
            assert np.allclose(dtab.sum(axis=2), 0.0, atol=1e-12)
        # Hermite value columns partition unity
        herm = shape_table("hermite", 0, xi, lengths)
        assert np.allclose(herm[:, :, 0] + herm[:, :, 2], 1.0, atol=1e-14)

    def test_hermite_reproduces_cubics(self):
        # A Hermite element reproduces any cubic exactly from nodal values/slopes.
        le = 0.4
        xi = GAUSS_FULL[0]
        poly = np.polynomial.Polynomial([0.3, -1.2, 2.0, 0.7])
        dpoly = poly.deriv()
        dofs = np.array([poly(0.0), dpoly(0.0), poly(le), dpoly(le)])
        for deriv in (0, 1, 2):
            tab = shape_table("hermite", deriv, xi, np.array([le]))
            vals = tab[0] @ dofs
            exact = poly.deriv(deriv)(xi * le) if deriv else poly(xi * le)
            assert np.allclose(vals, exact, rtol=1e-13, atol=1e-13)

    def test_quadrature_degree(self):
        # the full rule integrates polynomials up to degree 7 exactly on [0, 1]
        xi, w = GAUSS_FULL
        for p in range(8):
            assert w @ xi**p == pytest.approx(1.0 / (p + 1), rel=1e-14)
        assert w @ xi**8 != pytest.approx(1.0 / 9.0, rel=1e-10)
        xr, wr = GAUSS_REDUCED
        assert xr.tolist() == [0.5] and wr.tolist() == [1.0]

    def test_endpoint_values(self):
        le = 0.5
        assert np.allclose(endpoint_values("p1", 0, False, le), [1.0, 0.0])
        assert np.allclose(endpoint_values("p1", 0, True, le), [0.0, 1.0])
        assert np.allclose(endpoint_values("p1", 1, True, le), [-2.0, 2.0])
        # Hermite first derivative at the right end picks the slope dof
        herm = endpoint_values("hermite", 1, True, le)
        assert np.allclose(herm, [0.0, 0.0, 0.0, 1.0])
        p2 = endpoint_values("p2", 0, False, le)
        assert np.allclose(p2, [1.0, 0.0, 0.0])


class TestDofLayout:
    def test_field_inventory_per_variant(self):
        cases = {
            (Variant.SINGLE_EB, Regime.FULL_MAGNETIC): ("v", "w", "q"),
            (Variant.SINGLE_EB, Regime.ELECTROSTATIC): ("v", "w"),
            (Variant.SINGLE_MT, Regime.FULL_MAGNETIC): ("v", "w", "psi", "q"),
            (Variant.PATCH_EB, Regime.FULL_MAGNETIC): ("v", "w", "qT", "qB"),
            (Variant.PATCH_MT, Regime.FULL_MAGNETIC): ("v", "w", "psi", "qT", "qB"),
            (Variant.PATCH_MT, Regime.ELECTROSTATIC): ("v", "w", "psi"),
        }
        for (variant, regime), names in cases.items():
            vspec = make_spec(variant, regime)
            mesh = build_mesh(vspec.geometry, 8, patch=vspec.is_patch)
            lay = build_layout(vspec, mesh)
            assert tuple(lay.fields) == names

    def test_dof_counts_and_contiguity(self):
        vspec = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC)
        mesh = build_mesh(vspec.geometry, 8, patch=True)
        lay = build_layout(vspec, mesh)
        n_patch = len(mesh.region("patch")[0])
        assert lay.fields["v"].count == 9            # P1 on 8 elements
        assert lay.fields["w"].count == 18           # Hermite: 2 per node
        assert lay.fields["qT"].count == 2 * n_patch + 1   # P2 on the patch
        offsets = [lay.fields[n].offset for n in lay.fields]
        counts = [lay.fields[n].count for n in lay.fields]
        assert offsets == [0] + list(np.cumsum(counts[:-1]))
        assert lay.n_dofs == sum(counts)

    @pytest.mark.parametrize("bc", BoundaryCondition)
    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_charge_and_mechanical_dofs_partition(self, variant, regime, bc):
        sysm = build_system(make_spec(variant, regime, bc=bc), 8)
        assert set(sysm.layout.fields) <= set(FIELD_CLASS)
        kinds = ("stretching", "bending", "charge")
        for numbering, n in ((sysm.layout, sysm.layout.n_dofs), (sysm, sysm.n_dofs)):
            parts = [numbering.class_dofs(k) for k in kinds]
            assert all(np.all(np.diff(p) > 0) for p in parts)
            assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n))

    def test_value_dofs_skip_hermite_slopes(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        mesh = build_mesh(vspec.geometry, 4)
        lay = build_layout(vspec, mesh)
        w = lay.fields["w"]
        assert np.array_equal(lay.value_dofs("w"), np.arange(w.offset, w.offset + w.count, 2))
        assert np.array_equal(lay.value_dofs("v"), np.arange(0, 5))

    def test_node_positions(self):
        vspec = make_spec(Variant.PATCH_EB, Regime.FULL_MAGNETIC)
        mesh = build_mesh(vspec.geometry, 8, patch=True)
        lay = build_layout(vspec, mesh)
        xv = lay.node_positions("v")
        assert np.array_equal(xv, mesh.nodes)
        xw = lay.node_positions("w")
        assert np.array_equal(xw, np.repeat(mesh.nodes, 2))
        xq = lay.node_positions("qT")
        ia, ib = mesh.patch_span
        pnodes = mesh.nodes[ia: ib + 1]
        assert np.array_equal(xq[0::2], pnodes)
        assert np.allclose(xq[1::2], 0.5 * (pnodes[:-1] + pnodes[1:]))
        assert len(xq) == lay.fields["qT"].count

    def test_constrained_dofs(self):
        for variant, n_fixed in ((Variant.SINGLE_EB, 3), (Variant.SINGLE_MT, 3)):
            vspec = make_spec(variant, Regime.ELECTROSTATIC)
            mesh = build_mesh(vspec.geometry, 4)
            lay = build_layout(vspec, mesh)
            assert len(lay.constrained_dofs(BoundaryCondition.CLAMPED_FREE)) == n_fixed
            assert len(lay.constrained_dofs(BoundaryCondition.FREE_FREE)) == 0

    def test_unknown_bc_rejected(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        mesh = build_mesh(vspec.geometry, 4)
        lay = build_layout(vspec, mesh)
        with pytest.raises(UnknownBc):
            lay.constrained_dofs("pinned")


class TestFieldState:
    def _layout(self, variant=Variant.SINGLE_EB, regime=Regime.FULL_MAGNETIC):
        vspec = make_spec(variant, regime)
        mesh = build_mesh(vspec.geometry, 4, patch=vspec.is_patch)
        return build_layout(vspec, mesh)

    def test_vector_roundtrip(self, rng):
        lay = self._layout()
        x = rng.standard_normal(lay.n_dofs)
        v = rng.standard_normal(lay.n_dofs)
        state = FieldState.from_vectors(lay, x, v)
        # fields are numbered contiguously in layout order
        x2 = np.concatenate([state.coeffs[n] for n in lay.fields])
        v2 = np.concatenate([state.velocities[n] for n in lay.fields])
        assert np.array_equal(x, x2) and np.array_equal(v, v2)
        assert set(state.coeffs) == set(lay.fields)

    def test_missing_fields_zero_filled(self):
        lay = self._layout()
        state = FieldState(lay, coeffs={"v": np.ones(5)}, velocities={})
        assert np.array_equal(state.coeffs["v"], np.ones(5))
        assert np.array_equal(state.coeffs["w"], np.zeros(10))
        assert np.array_equal(state.velocities["q"], np.zeros(5))

    def test_shape_mismatch_rejected(self):
        lay = self._layout()
        with pytest.raises(FieldShapeMismatch):
            FieldState(lay, coeffs={"v": np.ones(4)}, velocities={})

    def test_interpolation_of_smooth_functions(self):
        lay = self._layout()
        f = lambda x: np.sin(x)
        df = lambda x: np.cos(x)
        vv = interpolate_field(lay, "v", f)
        assert np.allclose(vv, np.sin(lay.node_positions("v")))
        ww = interpolate_field(lay, "w", f, df)
        assert np.allclose(ww[0::2], np.sin(lay.node_positions("w")[0::2]))
        assert np.allclose(ww[1::2], np.cos(lay.node_positions("w")[1::2]))
        with pytest.raises(FieldShapeMismatch):
            interpolate_field(lay, "w", f)  # Hermite needs the derivative
