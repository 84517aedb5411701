"""Shared model specs, materials and builders used across the test suite.

All numeric material values here are normalized test values chosen so that
derived coefficients come out as simple rationals; they are not meant to
represent any physical material.
"""

import itertools

import numpy as np
import pytest

from piezobeam.materials import (
    BeamGeometry,
    BoundaryCondition,
    MaterialParams,
    ModelSpec,
    Regime,
    Variant,
    VoltageSignal,
)
from piezobeam.mesh import Mesh, build_mesh

# Beam layer used in most tests: alpha1 = 2 + 0.49 * 1.25, beta3 = 1.25.
BEAM = MaterialParams(
    rho=1.0, c11=2.0, c55=1.0, gamma31=0.7, gamma15=0.3,
    eps1=1.2, eps3=0.8, mu=0.5,
)

# Patch layer with distinct constants so core/patch mixups cannot cancel.
PATCH = MaterialParams(
    rho=1.4, c11=3.0, c55=1.2, gamma31=0.9, gamma15=0.2,
    eps1=1.0, eps3=0.6, mu=0.8,
)

# gamma31 = 0 decouples stretching from charge entirely.
UNCOUPLED = MaterialParams(
    rho=1.0, c11=4.0, c55=1.0, gamma31=0.0, gamma15=0.0,
    eps1=1.0, eps3=1.0, mu=1.0,
)

# Chosen so the coupled stretching pencil has eigenvalues (3 +/- sqrt 5)/2:
# alpha1 = 2, beta3 = 1, g3b3 = 1, rho = mu = 1.
GOLDEN = MaterialParams(
    rho=1.0, c11=1.0, c55=1.0, gamma31=1.0, gamma15=0.0,
    eps1=1.0, eps3=1.0, mu=1.0,
)

SINGLE_GEO = BeamGeometry(length=1.0, thickness=0.1)
SLENDER_GEO = BeamGeometry(length=1.0, thickness=0.01)
PATCH_GEO = BeamGeometry(
    length=1.0,
    core_half_thickness=0.05,
    patch_thickness=0.03,
    patch_start=0.25,
    patch_end=0.75,
)

ALL_COMBOS = tuple(itertools.product(Variant, Regime))
SINGLE_COMBOS = tuple((v, r) for v, r in ALL_COMBOS if not v.is_patch)
PATCH_COMBOS = tuple((v, r) for v, r in ALL_COMBOS if v.is_patch)


def make_spec(
    variant,
    regime,
    *,
    bc=BoundaryCondition.FREE_FREE,
    geometry=None,
    beam=BEAM,
    patch=PATCH,
    voltage=None,
):
    """Checked spec with sensible defaults for the variant; a single-beam
    voltage may be given bare or as a 1-tuple."""
    if variant.is_patch:
        geometry = geometry or PATCH_GEO
        if voltage is None:
            voltage = (VoltageSignal.zero(), VoltageSignal.zero())
    else:
        geometry = geometry or SINGLE_GEO
        patch = None
        if voltage is None:
            voltage = VoltageSignal.zero()
        if isinstance(voltage, VoltageSignal):
            voltage = (voltage,)
    return ModelSpec(variant=variant, regime=regime, beam=beam, geometry=geometry,
                     mechanical_bc=bc, patch=patch, voltages=voltage)


def mesh_of(vspec, n):
    """The spec's mesh at n elements, below build_mesh's minimum too: a
    patch mesh needs its two edges as interior nodes (3 elements)."""
    geo = vspec.geometry
    if n >= (4 if vspec.is_patch else 2):
        return build_mesh(geo, n, patch=vspec.is_patch)
    if not vspec.is_patch:
        return Mesh(nodes=np.linspace(0.0, geo.length, n + 1))
    if n < 3:
        pytest.skip("a patch mesh has at least 3 elements")
    return Mesh(nodes=np.array([0.0, geo.patch_start, geo.patch_end, geo.length]),
                patch_span=(1, 2))
