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

from .assembly import (
    SemiDiscreteSystem,
    _grounded_charge_split,
    apply_mechanical_bc,
    build_system,
    with_mass,
)
from .errors import ConvergenceFailure, IllegalRegime, InsufficientMeshes, NotPositiveDefinite
from .layout import FIELD_CLASS
from .materials import (
    BoundaryCondition,
    ModelSpec,
    Regime,
    VoltageSignal,
    stretching_wave_speeds,
)
from .solvers import eigenmodes, mirror_gap, mirror_map, simulate, solve_spd


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


def _validated_mus(mus) -> tuple:
    """mus as floats; ValueError unless non-empty, finite, positive and
    strictly decreasing."""
    mus = tuple(float(m) for m in mus)
    if not mus or not np.all(np.isfinite(mus)) or min(mus) <= 0.0 \
            or np.any(np.diff(mus) >= 0.0):
        raise ValueError(
            f"mu values must be finite, positive and strictly decreasing, got {mus}")
    return mus


@dataclass(frozen=True)
class LimitStudy:
    """Distance between the fully dynamic and the reduced model over a mu sweep."""

    mus: tuple
    distances: tuple
    static_gap: float
    monotone: bool

    def __post_init__(self):
        _validated_mus(self.mus)

    def as_dict(self) -> dict:
        return {
            "mu": list(self.mus),
            "distance": list(self.distances),
            "static_gap": self.static_gap,
            "monotone_decreasing": self.monotone,
        }


def _peak(A: np.ndarray) -> float:
    """max |A|, 0.0 for an empty A.  Exact, so the max over chunks of rows,
    or over per-dof maxima, is the max over all of them."""
    return float(np.max(np.abs(A), initial=0.0))


# --- single-beam decoupling ---------------------------------------------------


def check_single_beam_decoupling(vspec: ModelSpec, n_elements: int,
                                 dt: float, t_end: float) -> ScenarioReport:
    """Bending must receive no voltage forcing and stay exactly zero.

    The bending rows of the input map are structurally zero for single-beam
    variants, and bending shares no entry of M or K with stretching and
    charge, so from zero initial data the bending block is at rest: simulate
    never sweeps it, and the bending dofs remain bitwise zero.  Both facts
    are checked, the second on a simulated trajectory.  IllegalRegime
    when the beam never stretches (zero drive or no steps): a bending
    response of zero would then show nothing.
    """
    if vspec.is_patch:
        raise IllegalRegime("decoupling check applies to single-beam variants only")
    system = build_system(vspec, n_elements)
    b_rows = _peak(system.B[system.class_dofs("bending")])
    # The observer reads stretching and bending, at these positions of its rows.
    mech = system.class_dofs("stretching", "bending")
    at_stretch, at_bend = (np.searchsorted(mech, system.class_dofs(kind))
                           for kind in ("stretching", "bending"))

    peak_x, peak_v = np.zeros((2, len(mech)))  # running max |x|, |v| per dof

    def observe(rows, X, V):  # in place: the rows are simulate's scratch
        np.maximum(peak_x, np.abs(X[0], out=X[0]).max(axis=0), out=peak_x)
        np.maximum(peak_v, np.abs(V[0], out=V[0]).max(axis=0), out=peak_v)

    simulate([system], [np.zeros(system.n_dofs)], [np.zeros(system.n_dofs)], dt, t_end,
             observe=observe, observed=[mech])
    x_bend, v_bend = _peak(peak_x[at_bend]), _peak(peak_v[at_bend])
    stretch = _peak(peak_x[at_stretch])
    if stretch == 0.0:
        raise IllegalRegime("the beam never stretches (zero drive or no steps)")

    checks = (
        MetricCheck("input_map_bending_rows_max", b_rows, "N/V", 0.0, "below",
                    "structural identity: voltage work involves no bending dof"),
        MetricCheck("trajectory_bending_max", x_bend, "m", 0.0, "below",
                    "an unforced block at rest is never swept: exact zeros"),
        MetricCheck("trajectory_bending_rate_max", v_bend, "m/s", 0.0, "below",
                    "an unforced block at rest is never swept: exact zeros"),
        MetricCheck("stretch_response_max", stretch, "m", basis="measured"),
    )
    return ScenarioReport("single-beam-decoupling", checks)


# --- patch voltage selectivity --------------------------------------------------


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
    return replace(system, K=K, B=B)


_DRIVES = ("symmetric", "antisymmetric")


def _selectivity_setup(vspec: ModelSpec, n_elements: int, corrupt_sign: bool):
    """Per drive of _DRIVES: its system, structural checks, and quiet and
    active dofs.

    One system is built, and corrupted, for every drive: B is per unit
    signal, so the drives differ only in vspec.voltages, and the mirror gaps
    of M, K and B are the same for all of them.
    """
    base = vspec.voltages[0]
    pairs = {"symmetric": (base, base), "antisymmetric": (base, _negated(base))}
    system = build_system(replace(vspec, voltages=pairs["symmetric"]), n_elements)
    if corrupt_sign:
        system = _corrupt_coupling(system)

    perm, sign = mirror_map(system)
    gap_m = mirror_gap(system.M, perm, sign)
    gap_k = mirror_gap(system.K, perm, sign)
    tb = sign[:, None] * system.B[perm]
    gap_b = 0.0 if np.array_equal(tb, system.B[:, ::-1]) \
        else float(np.max(np.abs(tb - system.B[:, ::-1])))
    gaps = [
        MetricCheck("mass_mirror_gap", gap_m, "kg", 0.0, "below",
                    "structural identity: top/bottom layers assemble identically"),
        MetricCheck("stiffness_mirror_gap", gap_k, "N/m", 0.0, "below",
                    "structural identity: top/bottom layers assemble identically"),
        MetricCheck("input_map_mirror_gap", gap_b, "N/V", 0.0, "below",
                    "structural identity: mirror swaps the two voltage signals"),
    ]
    stretch, bend = system.class_dofs("stretching"), system.class_dofs("bending")
    setups = []
    for mode in _DRIVES:
        sym = mode == "symmetric"
        # The combined load of the chosen drive must vanish on the quiet
        # block before any time stepping happens.
        u = np.array([1.0, 1.0]) if sym else np.array([1.0, -1.0])
        quiet, active = (bend, stretch) if sym else (stretch, bend)
        load_quiet = float(np.max(np.abs((system.B @ u)[quiet])))
        checks = gaps + [
            MetricCheck("combined_load_on_quiet_block", load_quiet, "N/V", 0.0, "below",
                        "structural identity: the drive lies in one symmetry class")]
        drive = replace(system.vspec, voltages=pairs[mode])
        setups.append((replace(system, vspec=drive), checks, quiet, active))
    return setups


def check_patch_voltage_selectivity(vspec: ModelSpec, n_elements: int,
                                    dt: float, t_end: float,
                                    corrupt_sign: bool = False) -> tuple:
    """Equal voltages drive pure stretching; opposite voltages pure bending.

    Returns the (symmetric, antisymmetric) reports.  The symmetric drive
    applies (V, V) and requires the bending response to stay below 1e-12 of
    the stretching scale; the antisymmetric drive applies (V, -V) and
    requires the converse.  Both drives run in one batched sweep and share
    one assembled system (see _selectivity_setup).  The underlying mirror
    symmetry of M, K and the input map is asserted bitwise first.  When it
    holds, simulate steps the even and odd halves of the mirror apart and
    leaves the quiet one at rest, so both dynamic ratios are exactly 0; a
    broken mirror steps unsplit, and its leak shows.  corrupt_sign flips one
    coupling block beforehand; the check must then fail (negative control).
    IllegalRegime when a drive never moves its active class (zero drive or
    no steps): there is no scale to measure the leak against.
    """
    if not vspec.is_patch:
        raise IllegalRegime("voltage selectivity applies to patch variants only")
    setups = _selectivity_setup(vspec, n_elements, corrupt_sign)
    systems = [system for system, *_ in setups]  # one layout, two drives
    charged = "qT" in systems[0].layout.fields
    none = np.zeros(0, dtype=int)  # a model without charge fields
    top, bot = (systems[0].dofs_of("qT"), systems[0].dofs_of("qB")) if charged else (none, none)
    # Per drive, the running max |x| per dof, and of the charge mirror
    # mismatch qT -+ qB.
    peaks = [np.zeros(system.n_dofs) for system in systems]
    mismatch = np.zeros(len(systems))

    def observe(rows, Xs, V):  # in place: the rows are simulate's scratch
        for k, (m, X) in enumerate(zip(_DRIVES, Xs)):
            gap = X[:, top]
            (np.subtract if m == "symmetric" else np.add)(gap, X[:, bot], out=gap)
            mismatch[k] = max(mismatch[k], float(np.abs(gap, out=gap).max(initial=0.0)))
            np.maximum(peaks[k], np.abs(X, out=X).max(axis=0), out=peaks[k])

    zeros = [np.zeros(system.n_dofs) for system in systems]
    simulate(systems, zeros, zeros, dt, t_end, velocities=False, observe=observe)

    reports = []
    for m, (_, checks, quiet, active), peak, mism in zip(_DRIVES, setups, peaks, mismatch):
        scale, leak, qs = _peak(peak[active]), _peak(peak[quiet]), _peak(peak[top])
        if scale == 0.0:
            raise IllegalRegime(f"the {m} drive never moves the beam (zero drive or no steps)")
        checks = checks + [
            MetricCheck("quiet_over_active_ratio", leak / scale, "1", 1e-12, "below",
                        "mirror-symmetric dynamics leave the odd class unexcited"),
            MetricCheck("active_response_max", scale, "m", basis="measured"),
        ]
        if charged:
            mirror_gap = float(mism) / qs if qs > 0.0 else 0.0
            checks.append(
                MetricCheck("charge_mirror_gap", mirror_gap, "1", 1e-12, "below",
                            "mirror-symmetric dynamics tie the two charge fields"))
        reports.append(ScenarioReport(f"patch-selectivity-{m}", tuple(checks)))
    return tuple(reports)


# --- electrostatic limit --------------------------------------------------------


def _with_mu(vspec: ModelSpec, mu: float) -> ModelSpec:
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
    full = len(system.class_dofs("charge")) > 0
    keep = np.arange(system.n_dofs)
    if full:
        keep = np.sort(np.concatenate(_grounded_charge_split(system)))
    K = system.K[keep][:, keep] if full else system.K
    x = np.zeros(system.n_dofs)
    try:
        x[keep] = solve_spd(K, rhs[keep], system.band_order(keep))
    except NotPositiveDefinite as exc:
        clamped = not np.isin(system.layout.constrained_dofs(BoundaryCondition.CLAMPED_FREE),
                              system.free_dofs).any()
        diag = K.diagonal()
        raise NotPositiveDefinite(
            f"static solution of the {'clamped' if clamped else 'free-free'} "
            f"{'fully dynamic' if full else 'electrostatic'} system: stiffness K on "
            f"{len(keep)} dofs{', one charge per field grounded,' if full else ''} whose "
            f"diagonal spans {diag.min():.3g} to {diag.max():.3g}: {exc}", exc.pivot) from exc
    return x


def _limit_systems(vspec: ModelSpec, mus: tuple, n_elements: int):
    """(runs, clamped): the systems of a limit study, each bitwise the one
    build_system builds, from one assembly per regime.

    runs are the electrostatic model and the fully dynamic one at each mu,
    under vspec's boundary condition; clamped is the (fully dynamic,
    electrostatic) pair of the static gap, at mus[0], left end clamped.  mu
    enters M alone (forms reads it in kinetic terms only), so the fully
    dynamic runs share K and B and only M is assembled again (with_mass).
    Each regime is assembled free-free, and each boundary condition applied
    to that assembly, as build_system applies it.
    """
    free = replace(vspec, mechanical_bc=BoundaryCondition.FREE_FREE)
    assembled = [build_system(_with_mu(free, mus[0]), n_elements),
                 build_system(replace(free, regime=Regime.ELECTROSTATIC), n_elements)]

    def under(bc: BoundaryCondition) -> list:
        return [replace(s if bc == BoundaryCondition.FREE_FREE else apply_mechanical_bc(s, bc),
                        vspec=replace(s.vspec, mechanical_bc=bc)) for s in assembled]

    full, red = under(vspec.mechanical_bc)
    runs = [red, full] + [with_mass(full, _with_mu(full.vspec, mu)) for mu in mus[1:]]
    return runs, under(BoundaryCondition.CLAMPED_FREE)


def run_electrostatic_limit(vspec: ModelSpec, mus, n_elements: int,
                            dt: float, t_end: float) -> LimitStudy:
    """Distance between the fully dynamic model and its charge-eliminated twin.

    For each mu (descending) both models run from rest under the spec's
    voltages, all in one batched sweep; the distance is the relative
    L2-in-time gap of the mechanical displacement dofs, the only dofs the
    observer reads.  The static gap compares the two equilibria under
    constant unit voltages with the left end clamped (rigid motion
    removed).  Both regimes are assembled once (see _limit_systems).
    IllegalRegime when the electrostatic model never moves (zero drive or
    no steps): nothing to measure.
    """
    if vspec.regime != Regime.FULL_MAGNETIC:
        raise IllegalRegime("the limit study starts from the fully dynamic regime")
    mus = _validated_mus(mus)

    systems, (sys_full, sys_red) = _limit_systems(vspec, mus, n_elements)
    mech = systems[1].class_dofs("stretching", "bending")  # every run's, in red's order
    # Per recorded row, the sum of squares of the electrostatic state and of
    # each fully dynamic run's gap to it: a per-row reduce, then one total,
    # gives the same sums however the rows are chunked.
    squares = [[] for _ in systems]

    def observe(rows, Xs, V):  # in place: the rows are simulate's scratch
        red, *full = Xs
        for sums, gap in zip(squares[1:], full):
            gap -= red
            gap *= gap
            sums.append(np.add.reduce(gap, axis=1))
        red *= red
        squares[0].append(np.add.reduce(red, axis=1))

    zeros = [np.zeros(s.n_dofs) for s in systems]
    simulate(systems, zeros, zeros, dt, t_end, velocities=False, observe=observe,
             observed=[None] + [mech] * len(mus))
    den, *nums = (float(np.sqrt(np.sum(np.concatenate(sums)))) for sums in squares)
    if den == 0.0:
        raise IllegalRegime("the electrostatic model never moves (zero drive or no steps)")
    distances = [num / den for num in nums]

    ones = np.ones(vspec.n_signals)
    x_full = static_solution(sys_full, ones)[sys_full.class_dofs("stretching", "bending")]
    x_red = static_solution(sys_red, ones)
    ref = float(np.max(np.abs(x_red)))
    static_gap = float(np.max(np.abs(x_full - x_red))) / ref if ref > 0.0 else 0.0

    monotone = bool(np.all(np.diff(distances) < 0.0)) if len(distances) > 1 else True
    return LimitStudy(mus=mus, distances=tuple(distances),
                      static_gap=static_gap, monotone=monotone)


# --- modal classification and convergence --------------------------------------


def mode_energy_fractions(system: SemiDiscreteSystem, shapes: np.ndarray) -> list:
    """Mass-energy fraction of each field in each column of shapes (n, k):
    k dicts, each summing to 1, from one product shapes * (M @ shapes)."""
    terms = shapes * (system.M @ shapes)
    sums = {name: np.add.reduce(terms[system.dofs_of(name)], axis=0)
            for name in system.layout.fields}
    total = sum(sums.values())
    return [{name: float(s[j] / total[j]) for name, s in sums.items()}
            for j in range(shapes.shape[1])]


def class_fractions(fractions: dict) -> dict:
    """Per-field energy fractions summed per motion class (see
    layout.FIELD_CLASS); every class is present."""
    out = dict.fromkeys(FIELD_CLASS.values(), 0.0)
    for name, frac in fractions.items():
        out[FIELD_CLASS[name]] += frac
    return out


def classify_mode(fractions: dict) -> str:
    """'stretching', 'bending' or 'charge' by dominant energy group."""
    return max((frac, kind) for kind, frac in class_fractions(fractions).items())[1]


def mode_frequency(vspec: ModelSpec, n_elements: int, kind: str,
                   number: int = 1) -> float:
    """Frequency of the number-th nonzero mode whose energy class is `kind`.

    Searches the lowest 16 * number modes, doubling the count until the mode
    turns up or all n - 1 modes that eigenmodes can return have been searched.
    """
    system = build_system(vspec, n_elements)
    null, n_modes = system.null_space(), 16 * number
    while True:
        ms = eigenmodes(system.M, system.K, n_modes, null, system.band_order())
        fractions = mode_energy_fractions(system, ms.shapes[:, ms.n_zero:])
        hits = [w for w, fr in zip(ms.omegas[ms.n_zero:], fractions) if classify_mode(fr) == kind]
        if len(hits) >= number:
            return float(hits[number - 1])
        if n_modes >= system.n_dofs:
            raise ConvergenceFailure(
                f"fewer than {number} {kind} modes in the first {len(ms.omegas)}")
        n_modes *= 2


def run_convergence_study(vspec: ModelSpec, element_counts, kind: str,
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


# Pulse run: step as a fraction of the finest element's fast transit time,
# pulse centre and width, and the two probes, as fractions of the length.
PULSE_COURANT = 0.25
PULSE_X0_FRAC = 0.1
PULSE_SIGMA_FRAC = 0.02
PULSE_PROBE_FRACS = (0.55, 0.85)


def pulse_time_of_flight(vspec: ModelSpec, n_elements: int = 512) -> ScenarioReport:
    """Measure the fast stretching-wave speed from pulse arrival times.

    A Gaussian velocity pulse is launched in the axial displacement; the
    arrival at two probe nodes is the first time the axial velocity exceeds
    1% of its peak there.  Differencing the two arrivals cancels the
    threshold-crossing offset of the pulse tail; the pulse must be wide
    enough that the consistent-mass dispersion (fast high-k precursor) stays
    under the threshold.  No voltage drives the run, so simulate sweeps the
    axial and charge block alone and leaves bending at rest.
    """
    if vspec.is_patch or vspec.regime != Regime.FULL_MAGNETIC:
        raise IllegalRegime("time of flight runs on a single fully dynamic beam")
    system = build_system(vspec, n_elements)
    c_fast, c_slow = stretching_wave_speeds(vspec.beam)
    L = vspec.geometry.length

    v_dofs = system.dofs_of("v")
    # The positions of the surviving v dofs: a clamped root has none.
    nodes = system.layout.node_positions("v")[
        system.free_dofs[v_dofs] - system.layout.dof_slice("v").start]

    x0, sigma = PULSE_X0_FRAC * L, PULSE_SIGMA_FRAC * L
    v0 = np.zeros(system.n_dofs)
    v0[v_dofs] = np.exp(-0.5 * ((nodes - x0) / sigma) ** 2)

    probes = [int(np.argmin(np.abs(nodes - f * L))) for f in PULSE_PROBE_FRACS]
    x_probe = nodes[probes]
    dt = PULSE_COURANT * float(np.min(system.mesh.lengths)) / c_fast
    t_end = 1.1 * (x_probe[-1] - x0) / c_fast
    n_steps = int(np.ceil(t_end / dt))
    unloaded = replace(system, B=np.zeros_like(system.B))
    at_probes = []  # the velocity at the probe dofs, the one thing the run keeps

    def observe(rows, X, V):
        at_probes.append(V[0].copy())

    (traj,) = simulate([unloaded], [np.zeros(system.n_dofs)], [v0], dt, n_steps * dt,
                       observe=observe, observed=[v_dofs[probes]])
    arrivals = []
    for series in np.abs(np.concatenate(at_probes)).T:
        thresh = 0.01 * float(series.max())
        arrivals.append(traj.t[int(np.argmax(series >= thresh))])
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
