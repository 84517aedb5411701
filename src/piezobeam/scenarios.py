"""Structure checks, limit studies and diagnostics built on the simulator.

Each check returns a ScenarioReport whose metrics carry the measured value,
the tolerance applied, and a short note on how the expected value was
established (structural identity, closed-form oracle, executed sweep).
Structural claims are asserted twice: algebraically, on the assembled
matrices and input map, and dynamically, on trajectory norms, so round-off
in the time stepper cannot mask a defect in the operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import SemiDiscreteSystem, _grounded_charge_split, build_system
from .errors import ConvergenceFailure, IllegalRegime, InsufficientMeshes
from .layout import CHARGE_FIELDS
from .materials import (
    BoundaryCondition,
    DerivedCoefficients,
    Regime,
    ValidatedModelSpec,
    VoltageSignal,
)
from .solvers import FactorizedOperator, eigenmodes, simulate, solve_spd
from .kernels import midpoint_sweep


@dataclass(frozen=True)
class MetricCheck:
    """One measured scalar with its acceptance bound.

    kind 'below' passes iff value <= bound, 'at_least' iff value >= bound;
    bound None marks an informational value that cannot fail.
    """

    name: str
    value: float
    unit: str = "1"
    bound: float | None = None
    kind: str = "below"
    basis: str = ""

    @property
    def passed(self) -> bool:
        if self.bound is None:
            return True
        if self.kind == "at_least":
            return self.value >= self.bound
        return self.value <= self.bound

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "bound": self.bound,
            "kind": self.kind,
            "basis": self.basis,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of one executable check; fails iff any bounded metric fails."""

    scenario: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def metric(self, name: str) -> MetricCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class LimitStudy:
    """Distance between the fully dynamic and the reduced model over a mu sweep."""

    mus: tuple
    distances: tuple
    static_gap: float
    monotone: bool

    def __post_init__(self):
        mus = np.asarray(self.mus)
        if len(mus) == 0 or np.any(mus <= 0.0):
            raise ValueError("mu values must be strictly positive")
        if np.any(np.diff(mus) >= 0.0):
            raise ValueError("mu values must be strictly decreasing")

    def as_dict(self) -> dict:
        return {
            "mu": list(self.mus),
            "distance": list(self.distances),
            "static_gap": self.static_gap,
            "monotone_decreasing": self.monotone,
        }


# --- single-beam decoupling ---------------------------------------------------


_BENDING_FIELDS = ("w", "psi")


def _bending_dofs(system: SemiDiscreteSystem) -> np.ndarray:
    idx = [system.dofs_of(f) for f in _BENDING_FIELDS if f in system.layout.fields]
    return np.concatenate(idx)


def check_single_beam_decoupling(vspec: ValidatedModelSpec, n_elements: int,
                                 dt: float, t_end: float) -> ScenarioReport:
    """Bending must receive no voltage forcing and stay exactly zero.

    The bending rows of the input map are structurally zero for single-beam
    variants, and the bending block of the step matrix factors independently,
    so from zero initial data the bending dofs remain bitwise zero; both
    facts are checked, the second on a simulated trajectory.
    """
    if vspec.is_patch:
        raise IllegalRegime("decoupling check applies to single-beam variants only")
    system = build_system(vspec, n_elements)
    bend = _bending_dofs(system)
    b_rows = float(np.max(np.abs(system.B[bend]))) if len(bend) else 0.0

    traj = simulate(system, np.zeros(system.n_dofs), np.zeros(system.n_dofs),
                    dt, t_end)
    x_bend = float(np.max(np.abs(traj.X[:, bend]))) if len(bend) else 0.0
    v_bend = float(np.max(np.abs(traj.V[:, bend]))) if len(bend) else 0.0
    stretch = float(np.max(np.abs(traj.X[:, system.dofs_of("v")])))

    checks = (
        MetricCheck("input_map_bending_rows_max", b_rows, "N/V", 0.0, "below",
                    "structural identity: voltage work involves no bending dof"),
        MetricCheck("trajectory_bending_max", x_bend, "m", 0.0, "below",
                    "block-triangular factorization keeps unforced dofs at zero"),
        MetricCheck("trajectory_bending_rate_max", v_bend, "m/s", 0.0, "below",
                    "block-triangular factorization keeps unforced dofs at zero"),
        MetricCheck("stretch_response_max", stretch, "m", basis="measured"),
    )
    return ScenarioReport("single-beam-decoupling", checks)


# --- patch voltage selectivity --------------------------------------------------


def _mirror_map(system: SemiDiscreteSystem):
    """Permutation and signs of the top/bottom mirror on the current dofs.

    The mirror negates transverse deflection and rotation and swaps the two
    patch charge fields; stretching dofs are fixed.
    """
    n = system.n_dofs
    perm = np.arange(n)
    sign = np.ones(n)
    for name in _BENDING_FIELDS:
        if name in system.layout.fields:
            sign[system.dofs_of(name)] = -1.0
    if "qT" in system.layout.fields:
        top, bot = system.dofs_of("qT"), system.dofs_of("qB")
        perm[top], perm[bot] = bot, top
    return perm, sign


def _mirror_gap(A, perm: np.ndarray, sign: np.ndarray) -> float:
    """Largest entry of |D A[perm][:, perm] D - A|, D = diag(sign); exact."""
    mirrored = A[perm][:, perm].tocoo()
    mirrored.data *= sign[mirrored.row] * sign[mirrored.col]
    mirrored = mirrored.tocsr()
    if (mirrored != A).nnz == 0:
        return 0.0
    return float(abs(mirrored - A).max())


def _negated(sig: VoltageSignal) -> VoltageSignal:
    return replace(sig, amplitude=-sig.amplitude)


def _corrupt_coupling(system: SemiDiscreteSystem) -> SemiDiscreteSystem:
    """Flip the sign of the bottom-layer bending coupling (negative control)."""
    bend = system.dofs_of("psi" if system.vspec.is_mindlin else "w")
    K = system.K.copy()
    B = system.B.copy()
    if "qB" in system.layout.fields:
        qb = system.dofs_of("qB")
        rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
        cols = K.indices
        flip = (np.isin(rows, bend) & np.isin(cols, qb)) | \
            (np.isin(rows, qb) & np.isin(cols, bend))
        K.data[flip] *= -1.0
    else:
        B[bend, 1] *= -1.0
    return replace(system, K=K, B=B, _caches={})


def check_patch_voltage_selectivity(vspec: ValidatedModelSpec, mode: str,
                                    n_elements: int, dt: float, t_end: float,
                                    corrupt_sign: bool = False) -> ScenarioReport:
    """Equal voltages drive pure stretching; opposite voltages pure bending.

    mode 'symmetric' applies (V, V) and requires the bending response to stay
    below 1e-12 of the stretching scale; 'antisymmetric' applies (V, -V) and
    requires the converse.  The underlying mirror symmetry of M, K and the
    input map is asserted bitwise first.  corrupt_sign flips one coupling
    block beforehand; the check must then fail (negative control).
    """
    if not vspec.is_patch:
        raise IllegalRegime("voltage selectivity applies to patch variants only")
    mode = mode.strip().lower()
    if mode not in ("symmetric", "antisymmetric"):
        raise ValueError(f"mode must be 'symmetric' or 'antisymmetric', got {mode!r}")
    sym = mode == "symmetric"

    base = vspec.voltages[0]
    pair = (base, base) if sym else (base, _negated(base))
    vspec = replace(vspec, voltages=pair)
    system = build_system(vspec, n_elements)
    if corrupt_sign:
        system = _corrupt_coupling(system)

    perm, sign = _mirror_map(system)
    gap_m = _mirror_gap(system.M, perm, sign)
    gap_k = _mirror_gap(system.K, perm, sign)
    tb = sign[:, None] * system.B[perm]
    gap_b = 0.0 if np.array_equal(tb, system.B[:, ::-1]) \
        else float(np.max(np.abs(tb - system.B[:, ::-1])))

    # The combined load of the chosen drive must vanish on the quiet block
    # before any time stepping happens.
    u = np.array([1.0, 1.0]) if sym else np.array([1.0, -1.0])
    quiet = _bending_dofs(system) if sym else system.dofs_of("v")
    active = system.dofs_of("v") if sym else _bending_dofs(system)
    load_quiet = float(np.max(np.abs((system.B @ u)[quiet])))

    traj = simulate(system, np.zeros(system.n_dofs), np.zeros(system.n_dofs),
                    dt, t_end)
    scale = float(np.max(np.abs(traj.X[:, active])))
    leak = float(np.max(np.abs(traj.X[:, quiet])))
    ratio = leak / scale if scale > 0.0 else (0.0 if leak == 0.0 else np.inf)

    checks = [
        MetricCheck("mass_mirror_gap", gap_m, "kg", 0.0, "below",
                    "structural identity: top/bottom layers assemble identically"),
        MetricCheck("stiffness_mirror_gap", gap_k, "N/m", 0.0, "below",
                    "structural identity: top/bottom layers assemble identically"),
        MetricCheck("input_map_mirror_gap", gap_b, "N/V", 0.0, "below",
                    "structural identity: mirror swaps the two voltage signals"),
        MetricCheck("combined_load_on_quiet_block", load_quiet, "N/V", 0.0, "below",
                    "structural identity: the drive lies in one symmetry class"),
        MetricCheck("quiet_over_active_ratio", ratio, "1", 1e-12, "below",
                    "mirror-symmetric dynamics leave the odd class unexcited"),
        MetricCheck("active_response_max", scale, "m", basis="measured"),
    ]
    if "qT" in system.layout.fields:
        qt = traj.X[:, system.dofs_of("qT")]
        qb = traj.X[:, system.dofs_of("qB")]
        mism = qt - qb if sym else qt + qb
        qs = float(np.max(np.abs(qt)))
        mirror_gap = float(np.max(np.abs(mism))) / qs if qs > 0.0 else 0.0
        checks.append(
            MetricCheck("charge_mirror_gap", mirror_gap, "1", 1e-12, "below",
                        "mirror-symmetric dynamics tie the two charge fields"))
    return ScenarioReport(f"patch-selectivity-{mode}", tuple(checks))


# --- electrostatic limit --------------------------------------------------------


def _with_mu(vspec: ValidatedModelSpec, mu: float) -> ValidatedModelSpec:
    layer = "patch" if vspec.is_patch else "beam"
    coeffs = replace(getattr(vspec, layer), mu=float(mu))
    return replace(vspec, **{layer: coeffs})


def static_solution(system: SemiDiscreteSystem, volts) -> np.ndarray:
    """Equilibrium state under constant voltages, in current dof numbering.

    Fully dynamic systems get one dof per charge field grounded first (the
    constant-charge gauge); those entries come back as zeros.
    """
    volts = np.asarray(volts, dtype=float)
    rhs = system.B @ volts
    full = system.vspec.regime == Regime.FULL_MAGNETIC and not system.charge_reduced
    if not full:
        return solve_spd(system.K, rhs)
    mech, charge = _grounded_charge_split(system)
    keep = np.sort(np.concatenate([mech, charge]))
    x = np.zeros(system.n_dofs)
    x[keep] = solve_spd(system.K[keep][:, keep], rhs[keep])
    return x


def run_electrostatic_limit(vspec: ValidatedModelSpec, mus, n_elements: int,
                            dt: float, t_end: float) -> LimitStudy:
    """Distance between the fully dynamic model and its charge-eliminated twin.

    For each mu (descending) both models run from rest under the spec's
    voltages; the distance is the relative L2-in-time gap of the mechanical
    displacement dofs.  The static gap compares the two equilibria under
    constant unit voltages with the left end clamped (rigid motion removed).
    """
    if vspec.regime != Regime.FULL_MAGNETIC:
        raise IllegalRegime("the limit study starts from the fully dynamic regime")
    mus = tuple(float(m) for m in mus)

    red_spec = replace(vspec, regime=Regime.ELECTROSTATIC)
    red = build_system(red_spec, n_elements)
    zero = np.zeros(red.n_dofs)
    traj_red = simulate(red, zero, zero, dt, t_end)
    den = float(np.sqrt(np.sum(traj_red.X ** 2)))

    distances = []
    for mu in mus:
        system = build_system(_with_mu(vspec, mu), n_elements)
        z = np.zeros(system.n_dofs)
        traj = simulate(system, z, z, dt, t_end)
        diff = traj.X[:, system.mechanical_dofs()] - traj_red.X
        num = float(np.sqrt(np.sum(diff ** 2)))
        distances.append(num / den if den > 0.0 else num)

    ones = np.ones(vspec.n_signals)
    clamped = replace(vspec, mechanical_bc=BoundaryCondition.CLAMPED_FREE)
    sys_full = build_system(clamped, n_elements)
    sys_red = build_system(replace(clamped, regime=Regime.ELECTROSTATIC), n_elements)
    x_full = static_solution(sys_full, ones)[sys_full.mechanical_dofs()]
    x_red = static_solution(sys_red, ones)
    ref = float(np.max(np.abs(x_red)))
    static_gap = float(np.max(np.abs(x_full - x_red))) / ref if ref > 0.0 else 0.0

    monotone = bool(np.all(np.diff(distances) < 0.0)) if len(distances) > 1 else True
    return LimitStudy(mus=mus, distances=tuple(distances),
                      static_gap=static_gap, monotone=monotone)


# --- modal classification and convergence --------------------------------------


def mode_energy_fractions(system: SemiDiscreteSystem, shape: np.ndarray) -> dict:
    """Mass-energy fraction of each field in one mode shape (sums to 1)."""
    mshape = system.M @ shape
    total = float(shape @ mshape)
    return {
        name: float(shape[idx] @ mshape[idx]) / total
        for name, idx in ((n, system.dofs_of(n)) for n in system.layout.fields)
    }


def classify_mode(fractions: dict) -> str:
    """'stretching', 'bending' or 'charge' by dominant energy group."""
    charge = sum(v for k, v in fractions.items() if k in CHARGE_FIELDS)
    bend = sum(v for k, v in fractions.items() if k in _BENDING_FIELDS)
    stretch = fractions.get("v", 0.0)
    groups = [(stretch, "stretching"), (bend, "bending"), (charge, "charge")]
    return max(groups)[1]


def mode_frequency(vspec: ValidatedModelSpec, n_elements: int, kind: str,
                   number: int = 1) -> float:
    """Frequency of the number-th nonzero mode whose energy class is `kind`."""
    system = build_system(vspec, n_elements)
    ms = eigenmodes(system.M, system.K, system.n_dofs)
    found = 0
    for i in range(ms.n_zero, len(ms.omegas)):
        cls = classify_mode(mode_energy_fractions(system, ms.shapes[:, i]))
        if cls == kind:
            found += 1
            if found == number:
                return float(ms.omegas[i])
    raise ConvergenceFailure(
        f"fewer than {number} {kind} modes in the first {len(ms.omegas)}"
    )


def run_convergence_study(vspec: ValidatedModelSpec, element_counts, kind: str,
                          number: int = 1, reference: float | None = None
                          ) -> ScenarioReport:
    """Observed order of convergence of one modal frequency under refinement.

    reference None uses the finest mesh as the reference value (and excludes
    it from the fit); a float is treated as the exact frequency.  Passes iff
    the least-squares order is at least 1.8.
    """
    counts = [int(c) for c in element_counts]
    if len(counts) < 3:
        raise InsufficientMeshes("a convergence study needs at least 3 meshes")
    if sorted(counts) != counts or len(set(counts)) != len(counts):
        raise InsufficientMeshes("element counts must be strictly increasing")

    omegas = [mode_frequency(vspec, n, kind, number) for n in counts]
    if reference is None:
        ref = omegas[-1]
        fit_counts, fit_omegas = counts[:-1], omegas[:-1]
        basis = "refinement against the finest-mesh frequency"
    else:
        ref = float(reference)
        fit_counts, fit_omegas = counts, omegas
        basis = "refinement against the closed-form frequency"
    errs = np.array([abs(w - ref) / ref for w in fit_omegas])
    errs = np.maximum(errs, 1e-15)  # guard exact hits for the log fit
    slope = np.polyfit(np.log(fit_counts), np.log(errs), 1)[0]
    order = float(-slope)

    checks = [MetricCheck("observed_order", order, "1", 1.8, "at_least", basis)]
    for n, e in zip(fit_counts, errs):
        checks.append(MetricCheck(f"relative_error_n{n}", float(e), "1",
                                  basis="measured"))
    return ScenarioReport(f"convergence-{kind}-mode{number}", tuple(checks))


# --- stretching wave speeds -----------------------------------------------------


def stretching_wave_speeds(coeffs: DerivedCoefficients) -> tuple:
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


def pulse_time_of_flight(vspec: ValidatedModelSpec, n_elements: int = 512,
                         courant: float = 0.25, x0_frac: float = 0.1,
                         sigma_frac: float = 0.02,
                         probe_fracs: tuple = (0.55, 0.85)) -> ScenarioReport:
    """Measure the fast stretching-wave speed from pulse arrival times.

    A Gaussian velocity pulse is launched in the axial displacement; the
    arrival at two probe nodes is the first time the axial velocity exceeds
    1% of its peak there.  Differencing the two arrivals cancels the
    threshold-crossing offset of the pulse tail; the pulse must be wide
    enough that the consistent-mass dispersion (fast high-k precursor) stays
    under the threshold.  Bending dofs are dropped from the sweep: they are
    exactly decoupled from axial pulses.
    """
    if vspec.is_patch or vspec.regime != Regime.FULL_MAGNETIC:
        raise IllegalRegime("time of flight runs on a single fully dynamic beam")
    system = build_system(vspec, n_elements)
    c_fast, c_slow = stretching_wave_speeds(vspec.beam)
    L = vspec.geometry.length

    idx = np.concatenate([system.dofs_of("v"), system.dofs_of("q")])
    m = system.M[idx][:, idx]
    k = system.K[idx][:, idx]
    nodes = system.layout.node_positions("v")
    n_v = len(nodes)

    x0, sigma = x0_frac * L, sigma_frac * L
    v0 = np.zeros(len(idx))
    v0[:n_v] = np.exp(-0.5 * ((nodes - x0) / sigma) ** 2)

    probes = [int(np.argmin(np.abs(nodes - f * L))) for f in probe_fracs]
    x_probe = nodes[probes]
    dt = courant * float(np.min(system.mesh.lengths)) / c_fast
    t_end = 1.1 * (x_probe[-1] - x0) / c_fast
    n_steps = int(np.ceil(t_end / dt))

    op = FactorizedOperator.build(m + (dt * dt / 4.0) * k)
    rec = np.arange(n_steps + 1, dtype=np.int64)
    _, Vel, _ = midpoint_sweep(op.L, m, k, np.zeros((n_steps, len(idx))),
                               np.zeros(len(idx)), v0, dt, rec, op.perm)

    t = rec * dt
    arrivals = []
    for p in probes:
        series = np.abs(Vel[:, p])
        thresh = 0.01 * float(series.max())
        arrivals.append(t[int(np.argmax(series >= thresh))])
    span = arrivals[-1] - arrivals[0]
    c_meas = (x_probe[-1] - x_probe[0]) / span if span > 0.0 else np.inf
    rel = abs(c_meas - c_fast) / c_fast

    checks = (
        MetricCheck("fast_speed_closed_form", c_fast, "m/s",
                    basis="closed-form 2x2 eigenvalue"),
        MetricCheck("slow_speed_closed_form", c_slow, "m/s",
                    basis="closed-form 2x2 eigenvalue"),
        MetricCheck("fast_speed_measured", float(c_meas), "m/s",
                    basis="two-probe time of flight"),
        MetricCheck("fast_speed_relative_error", float(rel), "1", 0.05, "below",
                    "pulse arrival must match the characteristic speed"),
    )
    return ScenarioReport("stretching-wave-time-of-flight", checks)
