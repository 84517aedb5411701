"""Material parameters, derived coefficients, voltage signals, spec validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from piezobeam.errors import (
    IllegalRegime,
    InvalidGeometry,
    MissingPatchMaterial,
    NonPositiveParameter,
)
from piezobeam.materials import (
    BeamGeometry,
    BoundaryCondition,
    MaterialParams,
    ModelSpec,
    Regime,
    Variant,
    VoltageSignal,
)

from modelzoo import BEAM, PATCH, PATCH_GEO, SINGLE_GEO, make_spec


class TestDerivedCoefficients:
    def test_hand_computed_values(self):
        co = MaterialParams(
            rho=2.0, c11=2.0, c55=1.0, gamma31=1.0, gamma15=0.5,
            eps1=0.25, eps3=0.5, mu=3.0,
        )
        assert co.beta3 == 2.0
        assert co.beta1 == 4.0
        assert co.alpha11 == 2.0
        assert co.alpha1 == 4.0          # c11 + gamma31^2 / eps3
        assert co.alpha3 == 2.0          # c55 + gamma15^2 / eps1
        assert co.g3b3 == 2.0
        assert co.rho == 2.0 and co.mu == 3.0

    def test_short_circuit_stiffness_identity(self):
        for co in (BEAM, PATCH):
            assert co.alpha1 - co.gamma31 ** 2 * co.beta3 == pytest.approx(
                co.alpha11, rel=1e-15
            )

    @given(
        c11=st.floats(1e-3, 1e3),
        eps3=st.floats(1e-3, 1e3),
        gamma31=st.floats(-10.0, 10.0),
    )
    def test_coupling_matrix_positive_definite(self, c11, eps3, gamma31):
        co = MaterialParams(
            rho=1.0, c11=c11, c55=1.0, gamma31=gamma31, gamma15=0.0,
            eps1=1.0, eps3=eps3, mu=1.0,
        )
        # the stretching block's coefficients [[alpha1, -g3b3], [-g3b3, beta3]]
        cmat = np.array([[co.alpha1, -co.g3b3], [-co.g3b3, co.beta3]])
        assert np.array_equal(cmat, cmat.T)
        det = np.linalg.det(cmat)
        # the determinant identity cancels alpha1*beta3 against g3b3^2, so
        # round-off scales with the cancelled terms, not with the result
        cancel = co.alpha1 * co.beta3
        assert det == pytest.approx(co.alpha11 * co.beta3, abs=1e-12 * cancel)
        assert np.all(np.linalg.eigvalsh(cmat) > 0.0)


class TestParameterValidation:
    @pytest.mark.parametrize("name", ["rho", "c11", "c55", "eps1", "eps3"])
    def test_nonpositive_constant_rejected(self, name):
        kwargs = dict(
            rho=1.0, c11=1.0, c55=1.0, gamma31=0.1, gamma15=0.1,
            eps1=1.0, eps3=1.0, mu=1.0,
        )
        kwargs[name] = 0.0
        with pytest.raises(NonPositiveParameter):
            MaterialParams(**kwargs)

    def test_negative_mu_rejected_but_zero_allowed(self):
        kwargs = dict(
            rho=1.0, c11=1.0, c55=1.0, gamma31=0.1, gamma15=0.1,
            eps1=1.0, eps3=1.0, mu=0.0,
        )
        assert MaterialParams(**kwargs).mu == 0.0
        kwargs["mu"] = -1.0
        with pytest.raises(NonPositiveParameter):
            MaterialParams(**kwargs)

    def test_geometry_positivity(self):
        with pytest.raises(NonPositiveParameter):
            BeamGeometry(length=0.0)
        with pytest.raises(NonPositiveParameter):
            BeamGeometry(length=1.0, thickness=-0.1)


class TestVoltageSignal:
    def test_sinusoid_matches_closed_form(self):
        sig = VoltageSignal.sinusoid(amplitude=2.0, frequency=3.0)
        t = np.linspace(0.0, 1.0, 17)
        expected = 2.0 * np.sin(2.0 * math.pi * 3.0 * t)
        assert np.allclose(sig(t), expected, rtol=0, atol=1e-15)
        assert isinstance(sig(0.25), float)

    def test_step_turns_on_at_step_time(self):
        sig = VoltageSignal.step(amplitude=5.0, step_time=0.5)
        assert sig(0.49) == 0.0
        assert sig(0.5) == 5.0
        assert sig(0.51) == 5.0

    def test_zero_and_constant(self):
        assert VoltageSignal.zero()(123.0) == 0.0
        assert VoltageSignal.constant(7.0)(123.0) == 7.0
        assert np.array_equal(VoltageSignal.constant(7.0)(np.zeros(3)), np.full(3, 7.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(IllegalRegime):
            VoltageSignal(kind="sawtooth")


class TestSpecValidation:
    def test_single_beam_spec_roundtrip(self):
        vspec = make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC)
        assert not vspec.is_patch and not vspec.is_mindlin
        assert vspec.n_signals == 1

    def test_patch_spec_roundtrip(self):
        vspec = make_spec(Variant.PATCH_MT, Regime.ELECTROSTATIC)
        assert vspec.is_patch and vspec.is_mindlin
        assert vspec.n_signals == 2

    def test_patch_variant_requires_patch_material(self):
        with pytest.raises(MissingPatchMaterial):
            ModelSpec(
                variant=Variant.PATCH_EB,
                regime=Regime.ELECTROSTATIC,
                beam=BEAM,
                geometry=PATCH_GEO,
                voltages=(VoltageSignal.zero(), VoltageSignal.zero()),
            )

    def test_patch_variant_requires_patch_geometry(self):
        with pytest.raises(InvalidGeometry):
            ModelSpec(
                variant=Variant.PATCH_EB,
                regime=Regime.ELECTROSTATIC,
                beam=BEAM,
                patch=PATCH,
                geometry=SINGLE_GEO,
                voltages=(VoltageSignal.zero(), VoltageSignal.zero()),
            )

    def test_patch_interval_must_be_inside_beam(self):
        bad = BeamGeometry(
            length=1.0, core_half_thickness=0.05, patch_thickness=0.03,
            patch_start=0.75, patch_end=0.25,
        )
        with pytest.raises(InvalidGeometry):
            make_spec(Variant.PATCH_EB, Regime.ELECTROSTATIC, geometry=bad)

    def test_voltage_arity_must_match_variant(self):
        with pytest.raises(IllegalRegime):
            make_spec(
                Variant.PATCH_EB,
                Regime.ELECTROSTATIC,
                voltage=VoltageSignal.zero(),
            )
        with pytest.raises(IllegalRegime):
            make_spec(
                Variant.SINGLE_EB,
                Regime.ELECTROSTATIC,
                voltage=(VoltageSignal.zero(), VoltageSignal.zero()),
            )

    def test_single_variant_requires_thickness(self):
        geo = BeamGeometry(length=1.0)
        with pytest.raises(InvalidGeometry):
            make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, geometry=geo)

    def test_fully_dynamic_regime_needs_positive_mu(self):
        dead = MaterialParams(
            rho=1.0, c11=1.0, c55=1.0, gamma31=0.1, gamma15=0.1,
            eps1=1.0, eps3=1.0, mu=0.0,
        )
        with pytest.raises(NonPositiveParameter):
            make_spec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC, beam=dead)
        # but the same material is fine once the charge is eliminated
        vspec = make_spec(Variant.SINGLE_EB, Regime.ELECTROSTATIC, beam=dead)
        assert vspec.regime is Regime.ELECTROSTATIC

    def test_boundary_conditions_carried_through(self):
        vspec = make_spec(
            Variant.SINGLE_MT,
            Regime.FULL_MAGNETIC,
            bc=BoundaryCondition.CLAMPED_FREE,
        )
        assert vspec.mechanical_bc is BoundaryCondition.CLAMPED_FREE


ZERO = VoltageSignal.zero()
DEAD = MaterialParams(rho=1.0, c11=1.0, c55=1.0, gamma31=0.1, gamma15=0.1,
                      eps1=1.0, eps3=1.0, mu=0.0)
PAIR_MSG = "patch voltage must be a pair of VoltageSignal"
ONE_MSG = "single-beam variants take exactly one voltage signal"
MU_MSG = "fully dynamic regime requires mu > 0 on the charge-carrying layer"


def _geo(**fields):
    return BeamGeometry(**{**PATCH_GEO.__dict__, **fields})


# (variant, regime, ModelSpec fields beyond the defaults, error, key, message):
# every violation the spec's own checks catch, in the order they run.
SPEC_VIOLATIONS = [
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(patch=None),
     MissingPatchMaterial, None, "patch_eb requires patch_material"),
    (Variant.PATCH_MT, Regime.ELECTROSTATIC, dict(geometry=SINGLE_GEO), InvalidGeometry,
     "core_half_thickness", "patch variant needs geometry field core_half_thickness"),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(geometry=_geo(patch_end=None)),
     InvalidGeometry, "patch_end", "patch variant needs geometry field patch_end"),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC,
     dict(geometry=_geo(patch_start=0.75, patch_end=0.25)), InvalidGeometry, "patch_start",
     "patch interval [0.75, 0.25] must satisfy 0 < a < b < L=1.0"),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(geometry=_geo(patch_end=1.5)),
     InvalidGeometry, "patch_end", "patch interval [0.25, 1.5] must satisfy 0 < a < b < L=1.0"),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(voltages=ZERO), IllegalRegime, None,
     "patch variants take a (top, bottom) voltage pair"),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(voltages=(ZERO,)), IllegalRegime, None,
     PAIR_MSG),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(voltages=(ZERO,) * 3), IllegalRegime, None,
     PAIR_MSG),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(voltages=[ZERO, ZERO]), IllegalRegime, None,
     PAIR_MSG),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(voltages=(ZERO, 1.0)), IllegalRegime, None,
     PAIR_MSG),
    (Variant.PATCH_EB, Regime.ELECTROSTATIC, dict(voltages=None), IllegalRegime, None,
     PAIR_MSG),
    (Variant.SINGLE_EB, Regime.ELECTROSTATIC, dict(geometry=BeamGeometry(length=1.0)),
     InvalidGeometry, "thickness", "single-beam variant needs geometry field thickness"),
    (Variant.SINGLE_EB, Regime.ELECTROSTATIC, dict(voltages=ZERO), IllegalRegime, None,
     ONE_MSG),
    (Variant.SINGLE_MT, Regime.ELECTROSTATIC, dict(voltages=(ZERO, ZERO)), IllegalRegime,
     None, ONE_MSG),
    (Variant.SINGLE_EB, Regime.ELECTROSTATIC, dict(voltages=(None,)), IllegalRegime, None,
     ONE_MSG),
    (Variant.SINGLE_EB, Regime.ELECTROSTATIC, dict(voltages=5), IllegalRegime, None, ONE_MSG),
    (Variant.SINGLE_EB, Regime.FULL_MAGNETIC, dict(beam=DEAD), NonPositiveParameter, "mu",
     MU_MSG),
    (Variant.PATCH_EB, Regime.FULL_MAGNETIC, dict(patch=DEAD), NonPositiveParameter, "mu",
     MU_MSG),
]


@pytest.mark.parametrize("variant, regime, fields, error, key, message", SPEC_VIOLATIONS)
def test_spec_checks_itself_on_construction(variant, regime, fields, error, key, message):
    patch = variant.is_patch
    kwargs = dict(variant=variant, regime=regime, beam=BEAM, patch=PATCH if patch else None,
                  geometry=PATCH_GEO if patch else SINGLE_GEO,
                  voltages=(ZERO, ZERO) if patch else (ZERO,))
    with pytest.raises(error) as info:
        ModelSpec(**{**kwargs, **fields})
    assert type(info.value) is error
    assert str(info.value) == message
    assert getattr(info.value, "key", None) == key


def test_single_beam_ignores_a_patch_material():
    # The patch layer, though given, is not a single beam's charge-carrying layer.
    spec = ModelSpec(Variant.SINGLE_EB, Regime.FULL_MAGNETIC, BEAM, SINGLE_GEO, patch=DEAD)
    assert spec.patch is DEAD and spec.voltages == (ZERO,)
