"""Model definition: materials, derived coefficients, geometry, voltage signals.

The transversely polarized piezoelectric constitutive law couples stress,
strain, electric displacement and electric field through the raw constants
(c11, c55, gamma31, gamma15, eps1, eps3).  All beam models are written in
terms of the derived coefficients

    beta1 = 1/eps1          beta3 = 1/eps3
    alpha11 = c11           alpha33 = c55
    alpha1 = alpha11 + gamma31^2 * beta3
    alpha3 = alpha33 + gamma15^2 * beta1

alpha1 is the stretching stiffness at zero electric displacement; eliminating
the charge statically takes it back down to alpha11.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllegalRegime,
    InvalidGeometry,
    MissingPatchMaterial,
    NonPositiveParameter,
)


class Variant(enum.Enum):
    """Kinematic model: single beam or beam with two symmetric patches,
    each under Euler-Bernoulli or Mindlin-Timoshenko kinematics."""

    SINGLE_EB = "single_eb"
    SINGLE_MT = "single_mt"
    PATCH_EB = "patch_eb"
    PATCH_MT = "patch_mt"

    @property
    def is_patch(self) -> bool:
        return self in (Variant.PATCH_EB, Variant.PATCH_MT)

    @property
    def is_mindlin(self) -> bool:
        return self in (Variant.SINGLE_MT, Variant.PATCH_MT)


class Regime(enum.Enum):
    """Electromagnetic regime: fully dynamic charge (magnetic effects kept)
    or electrostatic reduction with the charge eliminated."""

    FULL_MAGNETIC = "full_magnetic"
    ELECTROSTATIC = "electrostatic"


class BoundaryCondition(enum.Enum):
    FREE_FREE = "free_free"
    CLAMPED_FREE = "clamped_free"


@dataclass(frozen=True)
class MaterialParams:
    """Raw constitutive constants of one homogeneous layer.

    rho      mass density
    c11/c55  elastic moduli (axial / shear)
    gamma31  axial piezoelectric coupling (any sign)
    gamma15  shear piezoelectric coupling (any sign)
    eps1/3   dielectric permittivities
    mu       magnetic permeability; 0 is allowed only when the layer is used
             in the electrostatic regime
    """

    rho: float
    c11: float
    c55: float
    gamma31: float
    gamma15: float
    eps1: float
    eps3: float
    mu: float

    def __post_init__(self):
        for name in ("rho", "c11", "c55", "eps1", "eps3"):
            if not getattr(self, name) > 0.0:
                raise NonPositiveParameter(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.mu < 0.0:
            raise NonPositiveParameter(f"mu must be >= 0, got {self.mu!r}")


@dataclass(frozen=True)
class DerivedCoefficients:
    """Coefficients the energy functionals are written in; immutable."""

    alpha1: float
    alpha3: float
    alpha11: float
    alpha33: float
    beta1: float
    beta3: float
    gamma31: float
    gamma15: float
    rho: float
    mu: float

    @property
    def g3b3(self) -> float:
        """Stretching/charge coupling gamma31 * beta3."""
        return self.gamma31 * self.beta3

    def coupling_matrix(self) -> np.ndarray:
        """Stretching-block coefficient matrix [[alpha1, -g3b3], [-g3b3, beta3]].

        Positive definite for any valid material: its determinant reduces to
        alpha11 * beta3.
        """
        return np.array(
            [[self.alpha1, -self.g3b3], [-self.g3b3, self.beta3]], dtype=float
        )


def derive_coefficients(material: MaterialParams) -> DerivedCoefficients:
    """Map raw constants to the derived coefficient set (see module docstring)."""
    beta1 = 1.0 / material.eps1
    beta3 = 1.0 / material.eps3
    alpha11 = material.c11
    alpha33 = material.c55
    alpha1 = alpha11 + material.gamma31 ** 2 * beta3
    alpha3 = alpha33 + material.gamma15 ** 2 * beta1
    return DerivedCoefficients(
        alpha1=alpha1,
        alpha3=alpha3,
        alpha11=alpha11,
        alpha33=alpha33,
        beta1=beta1,
        beta3=beta3,
        gamma31=material.gamma31,
        gamma15=material.gamma15,
        rho=material.rho,
        mu=material.mu,
    )


@dataclass(frozen=True)
class BeamGeometry:
    """Geometry per unit width.

    Single-beam variants use (length, thickness).  Patch variants use the
    core half-thickness h0, the patch thickness h1 and the patch interval
    [patch_start, patch_end] strictly inside (0, length); both patches are
    bonded symmetrically at z = +-h0.
    """

    length: float
    thickness: float | None = None
    core_half_thickness: float | None = None
    patch_thickness: float | None = None
    patch_start: float | None = None
    patch_end: float | None = None

    def __post_init__(self):
        if not self.length > 0.0:
            raise NonPositiveParameter(f"length must be > 0, got {self.length!r}")
        for name in ("thickness", "core_half_thickness", "patch_thickness"):
            val = getattr(self, name)
            if val is not None and not val > 0.0:
                raise NonPositiveParameter(f"{name} must be > 0, got {val!r}")


@dataclass(frozen=True)
class VoltageSignal:
    """Scalar voltage signal V(t); evaluate with call syntax.

    kind is one of 'zero', 'constant', 'step', 'sinusoid'.  A step turns on
    at step_time; a sinusoid is amplitude * sin(2 pi frequency t).
    """

    kind: str = "zero"
    amplitude: float = 0.0
    frequency: float = 0.0
    step_time: float = 0.0

    _KINDS = ("zero", "constant", "step", "sinusoid")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise IllegalRegime(f"unknown voltage kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "VoltageSignal":
        return cls("zero")

    @classmethod
    def constant(cls, amplitude: float) -> "VoltageSignal":
        return cls("constant", amplitude=amplitude)

    @classmethod
    def step(cls, amplitude: float, step_time: float = 0.0) -> "VoltageSignal":
        return cls("step", amplitude=amplitude, step_time=step_time)

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float) -> "VoltageSignal":
        return cls("sinusoid", amplitude=amplitude, frequency=frequency)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "constant":
            out = np.full_like(t, self.amplitude)
        elif self.kind == "step":
            out = np.where(t >= self.step_time, self.amplitude, 0.0)
        else:
            out = self.amplitude * np.sin(2.0 * math.pi * self.frequency * t)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelSpec:
    """Complete model description prior to validation."""

    variant: Variant
    regime: Regime
    beam_material: MaterialParams
    geometry: BeamGeometry
    mechanical_bc: BoundaryCondition = BoundaryCondition.FREE_FREE
    patch_material: MaterialParams | None = None
    voltage: VoltageSignal | tuple = field(default_factory=VoltageSignal.zero)


@dataclass(frozen=True)
class ValidatedModelSpec:
    """A ModelSpec that passed validate_spec, plus derived data.

    voltages is always a tuple: one signal for single-beam variants, the
    (top, bottom) pair for patch variants.
    """

    variant: Variant
    regime: Regime
    geometry: BeamGeometry
    mechanical_bc: BoundaryCondition
    beam: DerivedCoefficients
    patch: DerivedCoefficients | None
    voltages: tuple

    @property
    def is_patch(self) -> bool:
        return self.variant.is_patch

    @property
    def is_mindlin(self) -> bool:
        return self.variant.is_mindlin

    @property
    def n_signals(self) -> int:
        return len(self.voltages)

    @property
    def charge_coeffs(self) -> DerivedCoefficients:
        """Coefficients of the layer that carries the charge field(s)."""
        return self.patch if self.is_patch else self.beam


def validate_spec(spec: ModelSpec) -> ValidatedModelSpec:
    """Check variant/regime/geometry/voltage consistency.

    Raises the most specific error for the first violation found:
    InvalidGeometry, MissingPatchMaterial, IllegalRegime or
    NonPositiveParameter.
    """
    geo = spec.geometry
    if spec.variant.is_patch:
        if spec.patch_material is None:
            raise MissingPatchMaterial(f"{spec.variant.value} requires patch_material")
        for name in ("core_half_thickness", "patch_thickness", "patch_start", "patch_end"):
            if getattr(geo, name) is None:
                raise InvalidGeometry(f"patch variant needs geometry field {name}")
        a, b = geo.patch_start, geo.patch_end
        if not (0.0 < a < b < geo.length):
            raise InvalidGeometry(
                f"patch interval [{a}, {b}] must satisfy 0 < a < b < L={geo.length}"
            )
        if isinstance(spec.voltage, VoltageSignal):
            raise IllegalRegime("patch variants take a (top, bottom) voltage pair")
        voltages = tuple(spec.voltage)
        if len(voltages) != 2 or not all(isinstance(v, VoltageSignal) for v in voltages):
            raise IllegalRegime("patch voltage must be a pair of VoltageSignal")
    else:
        if geo.thickness is None:
            raise InvalidGeometry("single-beam variant needs geometry field thickness")
        if not isinstance(spec.voltage, VoltageSignal):
            raise IllegalRegime("single-beam variants take exactly one voltage signal")
        voltages = (spec.voltage,)

    beam = derive_coefficients(spec.beam_material)
    patch = derive_coefficients(spec.patch_material) if spec.variant.is_patch else None

    if spec.regime == Regime.FULL_MAGNETIC:
        charge_mu = (patch or beam).mu
        if not charge_mu > 0.0:
            raise NonPositiveParameter(
                "fully dynamic regime requires mu > 0 on the charge-carrying layer"
            )

    return ValidatedModelSpec(
        variant=spec.variant,
        regime=spec.regime,
        geometry=geo,
        mechanical_bc=spec.mechanical_bc,
        beam=beam,
        patch=patch,
        voltages=voltages,
    )

