"""Meshing, shape functions, dof layout and discrete field states."""

import numpy as np
import pytest

from piezobeam.errors import InputError
from piezobeam.fem import GAUSS_FULL, GAUSS_REDUCED, endpoint_values, shape_table
from piezobeam.assembly import build_system
from piezobeam.forms import stored_energy
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
        with pytest.raises(InputError, match="^mesh needs >= 2 elements, got 1$"):
            build_mesh(geo, 1)
        with pytest.raises(InputError, match="^patch mesh needs >= 4 elements, got 3$"):
            build_mesh(PATCH_GEO, 3, patch=True)

    def test_patch_mesh_requires_interval(self):
        with pytest.raises(InputError, match=r"^patch interval \[None, None\] invalid for "
                                             r"length 1\.0$") as info:
            build_mesh(BeamGeometry(length=1.0, thickness=0.1), 8, patch=True)
        assert info.value.key == "patch_start"


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
        with pytest.raises(InputError, match="^unsupported boundary condition 'pinned'$"):
            lay.constrained_dofs("pinned")


class TestFieldState:
    def _layout(self, variant=Variant.SINGLE_EB, regime=Regime.FULL_MAGNETIC):
        vspec = make_spec(variant, regime)
        mesh = build_mesh(vspec.geometry, 4, patch=vspec.is_patch)
        return vspec, build_layout(vspec, mesh)

    def test_vector_roundtrip(self, rng):
        vspec, lay = self._layout()
        coeffs = {n: rng.standard_normal(f.count) for n, f in lay.fields.items()}
        rates = {n: rng.standard_normal(f.count) for n, f in lay.fields.items()}
        # fields are numbered contiguously in layout order
        state = FieldState(vspec, lay, np.concatenate(list(coeffs.values())),
                           np.concatenate(list(rates.values())))
        for name in lay.fields:
            assert np.array_equal(state.x[lay.dof_slice(name)], coeffs[name])
            assert np.array_equal(state.xdot[lay.dof_slice(name)], rates[name])

    @pytest.mark.parametrize("variant,regime", ALL_COMBOS)
    def test_system_state_zero_fills_constrained_dofs(self, variant, regime, rng):
        clamped = BoundaryCondition.CLAMPED_FREE
        sysm = build_system(make_spec(variant, regime, bc=clamped), 4)
        x, v = rng.standard_normal((2, sysm.n_dofs))
        state = sysm.state(x, v)
        fixed = np.setdiff1d(np.arange(sysm.layout.n_dofs), sysm.free_dofs)
        assert np.array_equal(fixed, sysm.layout.constrained_dofs(clamped))
        assert len(fixed) > 0
        for full, current in ((state.x, x), (state.xdot, v)):
            assert np.all(full[fixed] == 0.0)
            assert np.array_equal(full[sysm.free_dofs], current)
        assert state.vspec is sysm.vspec and state.layout is sysm.layout

    def test_shape_mismatch_rejected(self):
        vspec, lay = self._layout()
        n = lay.n_dofs
        for x, xdot in ((np.ones(n - 1), np.zeros(n)), (np.zeros(n), np.ones((n, 1)))):
            with pytest.raises(InputError, match=rf"^state vectors must have shape \({n},\)$"):
                FieldState(vspec, lay, x, xdot)

    def test_spec_of_another_field_plan_rejected(self):
        # Read with the electrostatic spec, the fully dynamic layout's charge
        # dofs would drop out of the stored energy: 8.504 in place of 10.877.
        system = build_system(make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC), 8)
        x = np.random.default_rng(0).standard_normal(36)
        assert system.n_dofs == 36
        own = FieldState(system.vspec, system.layout, x, x)
        assert stored_energy(own) == pytest.approx(0.5 * x @ (system.K @ x), rel=1e-12)
        assert stored_energy(own) == pytest.approx(10.877, abs=5e-4)
        with pytest.raises(InputError, match=r"^layout numbers fields \['v', 'w', 'q'\], not "
                                             r"the spec's field plan \['v', 'w'\]$"):
            FieldState(make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC), system.layout, x, x)

    def test_interpolation_of_smooth_functions(self):
        _, lay = self._layout()
        f = lambda x: np.sin(x)
        df = lambda x: np.cos(x)
        vv = interpolate_field(lay, "v", f)
        assert np.allclose(vv, np.sin(lay.node_positions("v")))
        ww = interpolate_field(lay, "w", f, df)
        assert np.allclose(ww[0::2], np.sin(lay.node_positions("w")[0::2]))
        assert np.allclose(ww[1::2], np.cos(lay.node_positions("w")[1::2]))
        with pytest.raises(InputError, match="^Hermite interpolation needs the slope callable df$"):
            interpolate_field(lay, "w", f)  # Hermite needs the derivative
