"""Model definition: materials, derived coefficients, geometry, voltage signals.

The transversely polarized piezoelectric constitutive law couples stress,
strain, electric displacement and electric field through the raw constants
(c11, c55, gamma31, gamma15, eps1, eps3).  All beam models are written in
terms of the derived coefficients, read-only properties of MaterialParams:

    beta1 = 1/eps1          beta3 = 1/eps3
    alpha11 = c11
    alpha1 = alpha11 + gamma31^2 * beta3
    alpha3 = c55 + gamma15^2 * beta1

alpha1 is the stretching stiffness at zero electric displacement; eliminating
the charge statically takes it back down to alpha11.  A ModelSpec checks its
variant, regime, geometry and voltages against each other on construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
                raise NonPositiveParameter(f"{name} must be > 0, got {getattr(self, name)!r}",
                                           name)
        if self.mu < 0.0:
            raise NonPositiveParameter(f"mu must be >= 0, got {self.mu!r}", "mu")

    @property
    def beta1(self) -> float:
        return 1.0 / self.eps1

    @property
    def beta3(self) -> float:
        return 1.0 / self.eps3

    @property
    def alpha11(self) -> float:
        return self.c11

    @property
    def alpha1(self) -> float:
        return self.c11 + self.gamma31 ** 2 * self.beta3

    @property
    def alpha3(self) -> float:
        return self.c55 + self.gamma15 ** 2 * self.beta1

    @property
    def g3b3(self) -> float:
        """Stretching/charge coupling gamma31 * beta3."""
        return self.gamma31 * self.beta3


def stretching_wave_speeds(coeffs: MaterialParams) -> tuple:
    """Characteristic speeds (fast, slow) of the coupled stretching system.

    Closed-form eigenvalues of diag(1/rho, 1/mu) @ [[alpha1, -g3b3],
    [-g3b3, beta3]]; the determinant term reduces to alpha11*beta3/(rho*mu),
    positive for every valid material, so both speeds are real and positive.
    """
    tr = coeffs.alpha1 / coeffs.rho + coeffs.beta3 / coeffs.mu
    det = coeffs.alpha11 * coeffs.beta3 / (coeffs.rho * coeffs.mu)
    disc = np.sqrt(tr * tr - 4.0 * det)
    lam_fast = 0.5 * (tr + disc)
    lam_slow = 0.5 * (tr - disc)
    return float(np.sqrt(lam_fast)), float(np.sqrt(lam_slow))


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
            raise NonPositiveParameter(f"length must be > 0, got {self.length!r}", "length")
        for name in ("thickness", "core_half_thickness", "patch_thickness"):
            val = getattr(self, name)
            if val is not None and not val > 0.0:
                raise NonPositiveParameter(f"{name} must be > 0, got {val!r}", name)


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
    """Complete model description, checked on construction.

    voltages is a tuple: one signal for single-beam variants, the (top,
    bottom) pair for patch variants.  patch is read for patch variants only.
    Raises the most specific error for the first violation found:
    InvalidGeometry, MissingPatchMaterial, IllegalRegime or
    NonPositiveParameter.
    """

    variant: Variant
    regime: Regime
    beam: MaterialParams
    geometry: BeamGeometry
    mechanical_bc: BoundaryCondition = BoundaryCondition.FREE_FREE
    patch: MaterialParams | None = None
    voltages: tuple = (VoltageSignal.zero(),)

    def __post_init__(self):
        geo, voltages = self.geometry, self.voltages
        if self.is_patch:
            if self.patch is None:
                raise MissingPatchMaterial(f"{self.variant.value} requires patch_material")
            for name in ("core_half_thickness", "patch_thickness", "patch_start", "patch_end"):
                if getattr(geo, name) is None:
                    raise InvalidGeometry(f"patch variant needs geometry field {name}", name)
            a, b = geo.patch_start, geo.patch_end
            if not (0.0 < a < b < geo.length):
                raise InvalidGeometry(
                    f"patch interval [{a}, {b}] must satisfy 0 < a < b < L={geo.length}",
                    "patch_end" if 0.0 < a < b else "patch_start")
            if isinstance(voltages, VoltageSignal):
                raise IllegalRegime("patch variants take a (top, bottom) voltage pair")
        elif geo.thickness is None:
            raise InvalidGeometry("single-beam variant needs geometry field thickness",
                                  "thickness")
        if not (isinstance(voltages, tuple) and len(voltages) == (2 if self.is_patch else 1)
                and all(isinstance(v, VoltageSignal) for v in voltages)):
            raise IllegalRegime("patch voltage must be a pair of VoltageSignal" if self.is_patch
                                else "single-beam variants take exactly one voltage signal")
        charge = self.patch if self.is_patch else self.beam
        if self.regime == Regime.FULL_MAGNETIC and not charge.mu > 0.0:
            raise NonPositiveParameter(
                "fully dynamic regime requires mu > 0 on the charge-carrying layer", "mu")

    @property
    def is_patch(self) -> bool:
        return self.variant.is_patch

    @property
    def is_mindlin(self) -> bool:
        return self.variant.is_mindlin

    @property
    def n_signals(self) -> int:
        return len(self.voltages)
