"""Energy functionals, work rate and pointwise field recovery.

The reference numbers are hand integrations of the energy densities for
polynomial fields that the finite element spaces represent exactly, so the
comparisons hold to round-off.
"""

import numpy as np
import pytest

from piezobeam.errors import InputError
from piezobeam.forms import (
    eval_field_at,
    kinetic_energy,
    magnetic_energy,
    recover_pointwise,
    stored_energy,
    work_rate,
)
from piezobeam.layout import FieldState, build_layout, interpolate_field
from piezobeam.materials import (
    BeamGeometry,
    MaterialParams,
    Regime,
    Variant,
    VoltageSignal,
)
from piezobeam.mesh import build_mesh

from modelzoo import UNCOUPLED, make_spec

# Unit-thickness beam with round derived values: alpha1 = 4, beta3 = 2,
# g3b3 = 2, alpha3 = 2, beta1 = 4.
ROUND = MaterialParams(
    rho=1.0, c11=2.0, c55=1.0, gamma31=1.0, gamma15=0.5,
    eps1=0.25, eps3=0.5, mu=1.0,
)
UNIT_GEO = BeamGeometry(length=1.0, thickness=1.0)


def interp_state(vspec, lay, coeffs=None, velocities=None):
    """FieldState with fields given as (f, df) callables per name; the fields
    not named are zero."""
    def expand(spec):
        out = np.zeros(lay.n_dofs)
        for name, fns in (spec or {}).items():
            f, df = fns if isinstance(fns, tuple) else (fns, None)
            out[lay.dof_slice(name)] = interpolate_field(lay, name, f, df)
        return out

    return FieldState(vspec, lay, expand(coeffs), expand(velocities))


def single_layout(variant, regime, n=4, mat=ROUND, geo=UNIT_GEO):
    vspec = make_spec(variant, regime, beam=mat, geometry=geo)
    mesh = build_mesh(geo, n)
    return vspec, build_layout(vspec, mesh)


def patch_layout(variant=Variant.PATCH_EB, regime=Regime.FULL_MAGNETIC, n=8):
    vspec = make_spec(variant, regime)
    mesh = build_mesh(vspec.geometry, n, patch=True)
    return vspec, build_layout(vspec, mesh)


class TestStoredEnergy:
    def test_single_beam_hand_integral(self):
        # 1/2 * [alpha1 v'^2 + alpha1/12 w''^2 + beta3 q'^2 - 2 g3b3 v' q']
        # with v=x, w=x^2/2, q=x gives (4 + 1/3 + 2 - 4)/2 = 7/6.
        vspec, lay = single_layout(Variant.SINGLE_EB, Regime.FULL_MAGNETIC)
        st = interp_state(
            vspec, lay,
            {"v": lambda x: x, "w": (lambda x: x**2 / 2, lambda x: x), "q": lambda x: x},
        )
        assert stored_energy(st) == pytest.approx(7.0 / 6.0, rel=1e-14)
        # dropping the bending contribution leaves (4 + 2 - 4)/2 = 1
        st2 = interp_state(vspec, lay, {"v": lambda x: x, "q": lambda x: x})
        assert stored_energy(st2) == pytest.approx(1.0, rel=1e-14)

    def test_patch_beam_hand_integral(self):
        # Same construction on the patched beam (v=x, w=x^2/2, qT=x, qB=2x):
        # core contributes 251009/1920000 over the whole span, the two patch
        # layers 98461/1600000 over [0.25, 0.75].
        vspec, lay = patch_layout()
        st = interp_state(
            vspec, lay,
            {
                "v": lambda x: x,
                "w": (lambda x: x**2 / 2, lambda x: x),
                "qT": lambda x: x,
                "qB": lambda x: 2 * x,
            },
        )
        expected = 251009.0 / 1920000.0 + 98461.0 / 1600000.0
        assert expected == pytest.approx(1845811.0 / 9600000.0, rel=1e-15)
        assert stored_energy(st) == pytest.approx(expected, rel=1e-13)

    def test_quadratic_scaling(self, rng):
        vspec, lay = patch_layout(Variant.PATCH_MT)
        x = rng.standard_normal(lay.n_dofs)
        st = FieldState(vspec, lay, x, np.zeros_like(x))
        st3 = FieldState(vspec, lay, 3.0 * x, np.zeros_like(x))
        assert stored_energy(st3) == pytest.approx(9.0 * stored_energy(st), rel=1e-12)

    def test_rigid_motions_store_nothing(self):
        vspec, lay = single_layout(Variant.SINGLE_EB, Regime.FULL_MAGNETIC)
        rigid = interp_state(
            vspec, lay,
            {
                "v": lambda x: np.full_like(x, 2.0),
                "w": (lambda x: 1.0 + 3.0 * x, lambda x: np.full_like(x, 3.0)),
                "q": lambda x: np.full_like(x, 5.0),
            },
        )
        assert stored_energy(rigid) == pytest.approx(0.0, abs=1e-13)
        # shear model: rotation w = c x with psi = -c kills both channels
        vspecm, laym = single_layout(Variant.SINGLE_MT, Regime.FULL_MAGNETIC)
        rigid_mt = interp_state(
            vspecm, laym,
            {"w": lambda x: 3.0 * x, "psi": lambda x: np.full_like(x, -3.0)},
        )
        assert stored_energy(rigid_mt) == pytest.approx(0.0, abs=1e-13)

    def test_zero_coupling_splits_energy(self, rng):
        vspec = make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC, beam=UNCOUPLED)
        mesh = build_mesh(vspec.geometry, 4)
        lay = build_layout(vspec, mesh)
        x = rng.standard_normal(lay.n_dofs)
        zero = np.zeros_like(x)
        both = FieldState(vspec, lay, x, zero)
        mech_only = x.copy()
        mech_only[lay.dof_slice("q")] = 0.0
        q_only = x - mech_only
        e_m = stored_energy(FieldState(vspec, lay, mech_only, zero))
        e_q = stored_energy(FieldState(vspec, lay, q_only, zero))
        assert stored_energy(both) == pytest.approx(e_m + e_q, rel=1e-13)


class TestKineticAndMagneticEnergy:
    def test_rotary_inertia_hand_integral(self):
        # rho h^3/12 = 1 for rho=12, h=1: unit rotary velocity stores 1/2.
        heavy = MaterialParams(
            rho=12.0, c11=2.0, c55=1.0, gamma31=1.0, gamma15=0.5,
            eps1=1.0, eps3=0.5, mu=3.0,
        )
        vspec, lay = single_layout(Variant.SINGLE_MT, Regime.FULL_MAGNETIC, mat=heavy)
        st = interp_state(vspec, lay, velocities={"psi": lambda x: np.ones_like(x)})
        assert kinetic_energy(st) == pytest.approx(0.5, rel=1e-14)
        assert magnetic_energy(st) == 0.0

    def test_charge_rate_energy_is_magnetic(self):
        # mu h = 3: a unit charge rate stores 3/2.  kinetic_energy covers all
        # velocity-quadratic terms, here the magnetic one alone.
        heavy = MaterialParams(
            rho=12.0, c11=2.0, c55=1.0, gamma31=1.0, gamma15=0.5,
            eps1=1.0, eps3=0.5, mu=3.0,
        )
        vspec, lay = single_layout(Variant.SINGLE_MT, Regime.FULL_MAGNETIC, mat=heavy)
        st = interp_state(vspec, lay, velocities={"q": lambda x: np.ones_like(x)})
        assert magnetic_energy(st) == pytest.approx(1.5, rel=1e-14)
        assert kinetic_energy(st) == pytest.approx(1.5, rel=1e-14)

    def test_electrostatic_regime_has_no_magnetic_energy(self, rng):
        vspec, lay = single_layout(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        x = rng.standard_normal(lay.n_dofs)
        st = FieldState(vspec, lay, x, x)
        assert magnetic_energy(st) == 0.0


class TestWorkRate:
    def test_single_beam_charge_jump(self):
        vspec = make_spec(
            Variant.SINGLE_EB,
            Regime.FULL_MAGNETIC,
            beam=ROUND,
            geometry=UNIT_GEO,
            voltage=VoltageSignal.constant(2.0),
        )
        mesh = build_mesh(UNIT_GEO, 4)
        lay = build_layout(vspec, mesh)
        # qdot = x: end-to-end charge rate jump is 1, so power = -V * 1 = -2
        st = interp_state(vspec, lay, velocities={"q": lambda x: x})
        assert work_rate(st, t=0.0) == pytest.approx(-2.0, rel=1e-14)

    def test_zero_voltage_means_zero_power(self, rng):
        vspec, lay = patch_layout(Variant.PATCH_EB, Regime.FULL_MAGNETIC)
        x = rng.standard_normal(lay.n_dofs)
        st = FieldState(vspec, lay, x, x)
        assert work_rate(st, t=0.0) == 0.0


class TestPointwiseRecovery:
    def test_single_beam_kinematics_and_constitutive_law(self):
        vspec, lay = single_layout(Variant.SINGLE_EB, Regime.FULL_MAGNETIC)
        st = interp_state(
            vspec, lay,
            {"v": lambda x: x, "w": (lambda x: x**2 / 2, lambda x: x), "q": lambda x: x},
            {"q": lambda x: x},
        )
        p = recover_pointwise(st, x=0.5, z=0.3)
        assert p.layer == "beam"
        assert p.U1 == pytest.approx(0.5 - 0.3 * 0.5, rel=1e-14)   # v - z w'
        assert p.U3 == pytest.approx(0.125, rel=1e-14)              # w
        assert p.S11 == pytest.approx(1.0 - 0.3, rel=1e-14)         # v' - z w''
        assert p.D3 == pytest.approx(1.0, rel=1e-14)                # q'
        co = vspec.beam
        assert p.T11 == pytest.approx(co.alpha1 * p.S11 - co.g3b3 * p.D3, rel=1e-13)
        assert p.E3 == pytest.approx(-co.g3b3 * p.S11 + co.beta3 * p.D3, rel=1e-13)
        assert p.B2 == pytest.approx(-co.mu * 0.5, rel=1e-14)       # -mu qdot

    def test_short_circuit_midplane_response(self):
        # with the charge eliminated, D3 tracks gamma31 v', so the midplane
        # sees E3 = 0 and the short-circuit stiffness T11 = alpha11 v'
        vspec, lay = single_layout(Variant.SINGLE_EB, Regime.ELECTROSTATIC)
        st = interp_state(
            vspec, lay,
            {"v": lambda x: 3.0 * x, "w": (lambda x: x**2 / 2, lambda x: x)},
        )
        p = recover_pointwise(st, x=0.5, z=0.0)
        assert p.D3 == pytest.approx(vspec.beam.gamma31 * 3.0, rel=1e-13)
        assert p.E3 == pytest.approx(0.0, abs=1e-13)
        assert p.T11 == pytest.approx(vspec.beam.alpha11 * 3.0, rel=1e-13)

    def test_shear_recovery(self):
        vspec, lay = single_layout(Variant.SINGLE_MT, Regime.FULL_MAGNETIC)
        st = interp_state(
            vspec, lay,
            {"v": lambda x: x, "w": lambda x: 0.25 * x, "psi": lambda x: np.full_like(x, -0.5)},
        )
        p = recover_pointwise(st, x=0.5, z=0.3)
        assert p.U1 == pytest.approx(0.5 + 0.3 * -0.5, rel=1e-13)   # v + z psi
        assert p.S13 == pytest.approx(0.5 * (0.25 - 0.5), rel=1e-13)
        co = vspec.beam
        assert p.T13 == pytest.approx(
            co.alpha3 * p.S13 - co.gamma15 * co.beta1 * p.D1, rel=1e-13
        )
        assert p.E1 == pytest.approx(
            -co.gamma15 * co.beta1 * p.S13 + co.beta1 * p.D1, rel=1e-13
        )

    def test_patch_layers_move_with_their_bond_line(self):
        vspec, lay = patch_layout()
        st = interp_state(
            vspec, lay,
            {"v": lambda x: x, "w": (lambda x: x**2 / 2, lambda x: x)},
        )
        h0 = vspec.geometry.core_half_thickness
        h1 = vspec.geometry.patch_thickness
        core = recover_pointwise(st, 0.5, h0)
        top = recover_pointwise(st, 0.5, h0 + 0.5 * h1)
        bottom = recover_pointwise(st, 0.5, -h0 - 0.5 * h1)
        assert (core.layer, top.layer, bottom.layer) == ("core", "top", "bottom")
        assert top.U1 == core.U1                 # layer rides on z = +h0
        assert bottom.U1 == pytest.approx(0.5 - h0 * 0.5, rel=1e-14)
        assert top.S11 == pytest.approx(1.0 + h0, rel=1e-14)
        assert bottom.S11 == pytest.approx(1.0 - h0, rel=1e-14)

    def test_out_of_domain_points_rejected(self):
        vspec, lay = patch_layout()
        st = interp_state(vspec, lay, {"v": lambda x: x})
        h0 = vspec.geometry.core_half_thickness
        h1 = vspec.geometry.patch_thickness
        with pytest.raises(InputError, match=r"^\(x=0\.5, z=\S+\) lies outside core and patches$"):
            recover_pointwise(st, 0.5, h0 + 2.0 * h1)   # above the top layer
        with pytest.raises(InputError, match=r"^x=-0\.1 outside \[0, 1\.0\]$"):
            recover_pointwise(st, -0.1, 0.0)            # left of the beam
        with pytest.raises(InputError, match=r"^\(x=0\.1, z=\S+\) lies outside core and patches$"):
            recover_pointwise(st, 0.1, h0 + 0.5 * h1)   # layer z outside the patch span


class TestFieldEvaluation:
    def test_nodal_and_derivative_evaluation(self):
        _, lay = single_layout(Variant.SINGLE_EB, Regime.ELECTROSTATIC, n=8)
        flat = np.concatenate([
            interpolate_field(lay, "v", lambda x: 2.0 * x + 1.0),
            interpolate_field(lay, "w", lambda x: x**3, lambda x: 3.0 * x**2),
        ])
        assert eval_field_at(lay, flat, "v", 0.4375) == pytest.approx(1.875, rel=1e-14)
        assert eval_field_at(lay, flat, "v", 0.4375, deriv=1) == pytest.approx(2.0, rel=1e-14)
        # Hermite interpolation is exact for cubics, derivatives included
        for deriv, val in ((0, 0.3**3), (1, 3 * 0.3**2), (2, 6 * 0.3)):
            assert eval_field_at(lay, flat, "w", 0.3, deriv=deriv) == pytest.approx(
                val, rel=1e-12
            )
