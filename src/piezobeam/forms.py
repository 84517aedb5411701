"""Energy functionals of the beam models and their quadratic-form structure.

Every model is defined here once, as three ingredients:

* kinetic terms     -- velocity-quadratic densities (mechanical + magnetic),
* stored terms      -- displacement/charge-quadratic densities (elastic + electric),
* load terms        -- voltage work, linear in the fields.

Each energy term is (1/2) * integral of u^T C u over a region, where u is a
small vector of field derivatives ("channels") and C a constant symmetric
coefficient matrix per region.  Mass/stiffness matrices are the exact
Hessians of these functionals and the input map is the gradient of the
voltage work, so the discrete dynamics inherit the energy balance

    d/dt (kinetic + magnetic + stored) = work rate.

Sign conventions follow the per-unit-width energy blocks of the underlying
model: the voltage work for one electrode pair is W = -V(t) [q]_electrodes,
and eliminating the charge statically turns the stretching stiffness alpha1
into alpha11 and moves the voltage into boundary/jump loads.

The shear density alpha3 (w' + psi)^2 is flagged for one-point quadrature;
everything else uses the full rule (exact for these polynomial degrees).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, IllegalRegime
from .fem import GAUSS_FULL, GAUSS_REDUCED, shape_table
from .layout import DofLayout, FieldState
from .materials import Regime, ValidatedModelSpec, Variant


@dataclass(frozen=True)
class EnergyTerm:
    """(1/2) integral over `region` of u^T coeff u, u_i = D^(deriv_i) field_i."""

    channels: tuple          # ((field, deriv), ...)
    coeff: np.ndarray        # (k, k) symmetric
    region: str = "all"      # 'all' | 'patch'
    reduced_quad: bool = False
    magnetic: bool = False   # kinetic terms only: charge (magnetic) energy


@dataclass(frozen=True)
class LoadTerm:
    """Generalized force coeff * V_signal(t) * integral_region D^deriv(test fn)."""

    field: str
    deriv: int
    signal: int
    coeff: float
    region: str = "all"


@dataclass(frozen=True)
class FormSet:
    kinetic: tuple
    stored: tuple
    loads: tuple


def _sym(entries, k):
    C = np.zeros((k, k))
    for (i, j), val in entries.items():
        C[i, j] = val
        C[j, i] = val
    return C


def build_forms(vspec: ValidatedModelSpec) -> FormSet:
    """Energy and load terms for the variant/regime of a validated spec."""
    full = vspec.regime == Regime.FULL_MAGNETIC
    if vspec.is_patch:
        return _patch_forms(vspec, full)
    return _single_forms(vspec, full)


def _single_forms(vspec, full):
    m = vspec.beam
    h = vspec.geometry.thickness
    g3b3 = m.g3b3
    bend = m.alpha1 * h ** 3 / 12.0
    kinetic = []
    stored = []
    loads = []

    if vspec.variant == Variant.SINGLE_EB:
        mech_ch = (("v", 0), ("w", 0), ("w", 1))
    else:
        mech_ch = (("v", 0), ("w", 0), ("psi", 0))
    kinetic.append(
        EnergyTerm(mech_ch, np.diag([m.rho * h, m.rho * h, m.rho * h ** 3 / 12.0]))
    )
    if full:
        kinetic.append(EnergyTerm((("q", 0),), np.array([[m.mu * h]]), magnetic=True))

    strain = ("w", 2) if vspec.variant == Variant.SINGLE_EB else ("psi", 1)
    if full:
        ch = (("v", 1), strain, ("q", 1))
        C = _sym({(0, 0): h * m.alpha1, (1, 1): bend, (2, 2): h * m.beta3, (0, 2): -h * g3b3}, 3)
        stored.append(EnergyTerm(ch, C))
        loads.append(LoadTerm("q", 1, 0, -1.0))
    else:
        ch = (("v", 1), strain)
        stored.append(EnergyTerm(ch, np.diag([h * m.alpha11, bend])))
        loads.append(LoadTerm("v", 1, 0, -m.gamma31))

    if vspec.is_mindlin:
        shear = _sym({(0, 0): h * m.alpha3, (1, 1): h * m.alpha3, (0, 1): h * m.alpha3}, 2)
        stored.append(EnergyTerm((("w", 1), ("psi", 0)), shear, reduced_quad=True))

    return FormSet(tuple(kinetic), tuple(stored), tuple(loads))


def _patch_forms(vspec, full):
    b, p = vspec.beam, vspec.patch
    g = vspec.geometry
    h0, h1 = g.core_half_thickness, g.patch_thickness
    eb = not vspec.is_mindlin
    rot = ("w", 1) if eb else ("psi", 0)      # rotary velocity channel
    strain = ("w", 2) if eb else ("psi", 1)   # bending strain channel
    g3b3 = p.g3b3

    kinetic = [
        EnergyTerm(
            (("v", 0), ("w", 0), rot),
            np.diag([2.0 * b.rho * h0, 2.0 * b.rho * h0, 2.0 * b.rho * h0 ** 3 / 3.0]),
        ),
        EnergyTerm(
            (("v", 0), rot),
            np.diag([2.0 * p.rho * h1, 2.0 * p.rho * h1 * h0 ** 2]),
            region="patch",
        ),
    ]
    if full:
        kinetic.append(
            EnergyTerm(
                (("qT", 0), ("qB", 0)),
                np.diag([p.mu * h1, p.mu * h1]),
                region="patch",
                magnetic=True,
            )
        )

    stored = [
        EnergyTerm(
            (("v", 1), strain),
            np.diag([2.0 * b.alpha1 * h0, 2.0 * b.alpha1 * h0 ** 3 / 3.0]),
        )
    ]
    if vspec.is_mindlin:
        shear = _sym(
            {(0, 0): 2.0 * h0 * b.alpha3, (1, 1): 2.0 * h0 * b.alpha3, (0, 1): 2.0 * h0 * b.alpha3},
            2,
        )
        stored.append(EnergyTerm((("w", 1), ("psi", 0)), shear, reduced_quad=True))

    if full:
        # Both patch strains v' +- h0 * (bending strain) couple to their own
        # charge gradient; the symmetric/antisymmetric structure below is what
        # makes equal voltages drive pure stretching and opposite voltages
        # pure bending.
        ch = (("v", 1), strain, ("qT", 1), ("qB", 1))
        C = _sym(
            {
                (0, 0): 2.0 * h1 * p.alpha1,
                (1, 1): 2.0 * h1 * p.alpha1 * h0 ** 2,
                (2, 2): h1 * p.beta3,
                (3, 3): h1 * p.beta3,
                (0, 2): -h1 * g3b3,
                (0, 3): -h1 * g3b3,
                (1, 2): -h1 * g3b3 * h0,
                (1, 3): h1 * g3b3 * h0,
            },
            4,
        )
        stored.append(EnergyTerm(ch, C, region="patch"))
        loads = [LoadTerm("qT", 1, 0, -1.0, "patch"), LoadTerm("qB", 1, 1, -1.0, "patch")]
    else:
        stored.append(
            EnergyTerm(
                (("v", 1), strain),
                np.diag([2.0 * h1 * p.alpha11, 2.0 * h1 * p.alpha11 * h0 ** 2]),
                region="patch",
            )
        )
        bend_field, bend_deriv = strain
        loads = [
            LoadTerm("v", 1, 0, -p.gamma31, "patch"),
            LoadTerm("v", 1, 1, -p.gamma31, "patch"),
            LoadTerm(bend_field, bend_deriv, 0, -p.gamma31 * h0, "patch"),
            LoadTerm(bend_field, bend_deriv, 1, p.gamma31 * h0, "patch"),
        ]

    return FormSet(tuple(kinetic), tuple(stored), tuple(loads))


# --- evaluation on discrete fields ------------------------------------------


def _term_elements(layout: DofLayout, term_region: str):
    mesh = layout.mesh
    if term_region == "all":
        elems = np.arange(mesh.n_elements)
    else:
        sl = mesh.patch_elements
        elems = np.arange(sl.start, sl.stop)
    return elems, mesh.lengths[elems]


def _flat(arrays, layout):
    out = np.zeros(layout.n_dofs)
    for name in layout.fields:
        out[layout.dof_slice(name)] = arrays[name]
    return out


def eval_terms(layout: DofLayout, terms, arrays) -> float:
    """Sum of (1/2) u^T C u energies for nodal field arrays (a dict)."""
    flat = _flat(arrays, layout)
    total = 0.0
    for term in terms:
        elems, lengths = _term_elements(layout, term.region)
        if len(elems) == 0:
            continue
        xi, wq = GAUSS_REDUCED if term.reduced_quad else GAUSS_FULL
        U = []
        for field, deriv in term.channels:
            fd = layout.fields[field]
            pos = elems - layout.field_elements(field)[0]
            dof_tab = layout.element_dofs(field)[pos]
            table = shape_table(fd.basis, deriv, xi, lengths)
            U.append(np.einsum("eql,el->eq", table, flat[dof_tab]))
        U = np.array(U)  # (k, n_e, n_qp)
        dens = np.einsum("ieq,ij,jeq->eq", U, term.coeff, U)
        total += 0.5 * float(np.einsum("eq,q,e->", dens, wq, lengths))
    return total


def stored_energy(state: FieldState) -> float:
    """Elastic + electric energy of the interpolated fields (per unit width)."""
    forms = build_forms(state.layout.vspec)
    return eval_terms(state.layout, forms.stored, state.coeffs)


def kinetic_energy(state: FieldState) -> float:
    """Velocity-quadratic energy: mechanical kinetic plus magnetic."""
    forms = build_forms(state.layout.vspec)
    return eval_terms(state.layout, forms.kinetic, state.velocities)


def magnetic_energy(state: FieldState) -> float:
    forms = build_forms(state.layout.vspec)
    mag = [t for t in forms.kinetic if t.magnetic]
    return eval_terms(state.layout, mag, state.velocities)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split at one instant (per unit width)."""

    kinetic: float
    stored: float
    magnetic: float

    @property
    def total(self) -> float:
        return self.kinetic + self.stored + self.magnetic


def energy_breakdown(state: FieldState) -> EnergyBreakdown:
    mag = magnetic_energy(state)
    kin = kinetic_energy(state) - mag
    return EnergyBreakdown(kinetic=kin, stored=stored_energy(state), magnetic=mag)


def _shape_weights(layout: DofLayout, field: str, x: float, deriv: int):
    """Full-numbering dofs and weights w with D^deriv field(x) = w @ flat[dofs]."""
    fd = layout.fields[field]
    elems = layout.field_elements(field)
    nodes = layout.mesh.nodes
    lo, hi = nodes[elems[0]], nodes[elems[-1] + 1]
    if not (lo - 1e-12 <= x <= hi + 1e-12):
        raise OutOfDomain(f"x={x} outside support [{lo}, {hi}] of field {field!r}")
    e = int(np.clip(np.searchsorted(nodes, x, side="right") - 1, elems[0], elems[-1]))
    le = nodes[e + 1] - nodes[e]
    xi = np.array([(x - nodes[e]) / le])
    table = shape_table(fd.basis, deriv, xi, np.array([le]))[0, 0]
    return layout.element_dofs(field)[e - elems[0]], table


def eval_field_at(layout: DofLayout, arrays, field: str, x: float, deriv: int = 0) -> float:
    """Evaluate D^deriv of a field at position x from its nodal array."""
    dofs, weights = _shape_weights(layout, field, x, deriv)
    return float(weights @ _flat(arrays, layout)[dofs])


def interpolation_row(layout: DofLayout, field: str, x: float, deriv: int = 0) -> np.ndarray:
    """Row r over the full dof numbering with r @ flat = D^deriv field(x)."""
    dofs, weights = _shape_weights(layout, field, x, deriv)
    row = np.zeros(layout.n_dofs)
    row[dofs] = weights
    return row


def work_rate(state: FieldState, t: float) -> float:
    """Instantaneous power fed by the voltage sources.

    Fully dynamic regime: -sum_j V_j(t) [qdot_j] across its electrode pair.
    Electrostatic regime: the same power expressed through the effective
    mechanical loads of the reduced model.
    """
    layout = state.layout
    vspec = layout.vspec
    forms = build_forms(vspec)
    mesh = layout.mesh
    power = 0.0
    for lt in forms.loads:
        if lt.region == "patch":
            ia, ib = mesh.patch_span
            left, right = mesh.nodes[ia], mesh.nodes[ib]
        else:
            left, right = mesh.nodes[0], mesh.nodes[-1]
        v = vspec.voltages[lt.signal](t)
        jump = eval_field_at(layout, state.velocities, lt.field, right, lt.deriv - 1) - \
            eval_field_at(layout, state.velocities, lt.field, left, lt.deriv - 1)
        power += lt.coeff * v * jump
    return power


# --- pointwise recovery -------------------------------------------------------


@dataclass(frozen=True)
class PointwiseFields:
    """Displacements, strains, stresses and electromagnetic fields at (x, z)."""

    x: float
    z: float
    layer: str  # 'beam' | 'core' | 'top' | 'bottom'
    U1: float
    U3: float
    S11: float
    S13: float
    T11: float
    T13: float
    D1: float
    D3: float
    E1: float
    E3: float
    B2: float


def recover_pointwise(state: FieldState, x: float, z: float) -> PointwiseFields:
    """Through-thickness fields at (x, z) from the current discrete state.

    In the electrostatic regime the electric displacement is the statically
    eliminated short-circuit value gamma31 * (layer stretching strain).
    """
    layout = state.layout
    vspec = layout.vspec
    full = vspec.regime == Regime.FULL_MAGNETIC
    geo = vspec.geometry
    if not (0.0 <= x <= geo.length):
        raise OutOfDomain(f"x={x} outside [0, {geo.length}]")

    def ev(field, deriv=0, of="coeffs"):
        arrays = state.coeffs if of == "coeffs" else state.velocities
        return eval_field_at(layout, arrays, field, x, deriv)

    eb = not vspec.is_mindlin
    if vspec.is_patch:
        h0, h1 = geo.core_half_thickness, geo.patch_thickness
        a, b = geo.patch_start, geo.patch_end
        if abs(z) <= h0:
            layer = "core"
        elif h0 < abs(z) <= h0 + h1 and a <= x <= b:
            layer = "top" if z > 0 else "bottom"
        else:
            raise OutOfDomain(f"(x={x}, z={z}) lies outside core and patches")
    else:
        if abs(z) > geo.thickness / 2.0:
            raise OutOfDomain(f"|z|={abs(z)} exceeds half thickness")
        layer = "beam"

    if layer in ("beam", "core"):
        m = vspec.beam
        if eb:
            # Bonded-patch geometry ties the top/bottom layers to v + h0 w',
            # so the composite core carries the opposite rotation sign from
            # the lone beam's v - z w' convention.
            s = 1.0 if vspec.is_patch else -1.0
            U1 = ev("v") + s * z * ev("w", 1)
            S11 = ev("v", 1) + s * z * ev("w", 2)
            S13 = 0.0
        else:
            U1 = ev("v") + z * ev("psi")
            S11 = ev("v", 1) + z * ev("psi", 1)
            S13 = 0.5 * (ev("w", 1) + ev("psi"))
        if layer == "beam":
            D3 = ev("q", 1) if full else m.gamma31 * ev("v", 1)
            B2 = -m.mu * ev("q", 0, "velocities") if full else 0.0
        else:
            D3 = 0.0
            B2 = 0.0
    else:
        m = vspec.patch
        sign = 1.0 if layer == "top" else -1.0
        h0 = geo.core_half_thickness
        rot = ("w", 1) if eb else ("psi", 0)
        U1 = ev("v") + sign * h0 * ev(*rot)
        bend_field, bend_deriv = ("w", 2) if eb else ("psi", 1)
        S11 = ev("v", 1) + sign * h0 * ev(bend_field, bend_deriv)
        S13 = 0.0
        qname = "qT" if layer == "top" else "qB"
        D3 = ev(qname, 1) if full else m.gamma31 * S11
        B2 = -m.mu * ev(qname, 0, "velocities") if full else 0.0

    U3 = ev("w")
    D1 = 0.0
    T11 = m.alpha1 * S11 - m.g3b3 * D3
    E3 = -m.g3b3 * S11 + m.beta3 * D3
    T13 = m.alpha3 * S13 - m.gamma15 * m.beta1 * D1
    E1 = -m.gamma15 * m.beta1 * S13 + m.beta1 * D1
    return PointwiseFields(
        x=x, z=z, layer=layer, U1=U1, U3=U3, S11=S11, S13=S13,
        T11=T11, T13=T13, D1=D1, D3=D3, E1=E1, E3=E3, B2=B2,
    )
