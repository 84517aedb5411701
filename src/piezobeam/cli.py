"""Command line front end: simulate, modes, check, limit.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 scenario failure.  All outputs are byte-stable across reruns, and across
BLAS thread counts (checked up to 8192 elements) except modes.csv on fine
meshes: on the patch model at 2048 elements its trailing digits depend on
the thread count.  CSV numbers carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np
import scipy.sparse

from . import __version__
from .assembly import build_system
from .config import RunConfig, config_digest, parse_config, resolved_dt
from .errors import InputError, NumericalFailure
from .forms import interpolation_row
from .kernels import backend_name
from .layout import FIELD_CLASS
from .scenarios import (
    _validated_mus,
    check_patch_voltage_selectivity,
    check_single_beam_decoupling,
    class_fractions,
    classify_mode,
    mode_energy_fractions,
    run_electrostatic_limit,
)
from .solvers import eigenmodes, simulate
from .output import svg_line_plot, write_csv, write_json

_CLASS_CODE = {"stretching": 0.0, "bending": 1.0, "charge": 2.0}


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def _provenance(config: RunConfig, system) -> list:
    return [
        f"piezobeam {__version__}",
        f"config sha256 {config_digest(config)}",
        f"mesh elements={system.layout.mesh.n_elements} dofs={system.n_dofs}",
        f"backend {backend_name()}",
    ]


def _probe_position(layout, field: str, probe: float) -> float:
    """Clamp the probe into the field's support (charge fields live on the patch)."""
    _, (lo, hi) = layout.mesh.region(layout.fields[field].region)
    return min(max(probe, lo), hi)


def cmd_simulate(config: RunConfig, out: str, svg: bool) -> int:
    vspec = config.validated()
    system = build_system(vspec, config.n_elements)
    dt = resolved_dt(config)
    layout = system.layout
    probe = config.probe if config.probe is not None else vspec.geometry.length
    # One interpolation row per field, restricted to the surviving dofs
    # (constrained dofs are zero), as one sparse matrix: each probe value
    # sums its few terms in a fixed order, however the rows are chunked.
    # The observer reads the columns the rows touch, ascending, so the
    # matrix keeps its terms, in their order, and then each field's nodal
    # values, so that a field's peak is the max over one slice of columns.
    probe_rows = np.vstack([
        interpolation_row(layout, field, _probe_position(layout, field, probe))[system.free_dofs]
        for field in layout.fields])
    touched = np.flatnonzero(np.any(probe_rows != 0.0, axis=0))
    interp = scipy.sparse.csr_array(probe_rows[:, touched])
    values = [system.current_dofs(layout.value_dofs(field)) for field in layout.fields]
    read = np.concatenate([touched] + values)
    ends = np.cumsum([len(touched)] + [len(idx) for idx in values])
    probes, peaks = [], []

    def observe(rows, Xs, V):  # in place: the rows are simulate's scratch
        (X,) = Xs
        probes.append((interp @ X[:, :ends[0]].T).T)
        np.abs(X, out=X)
        peaks.append(np.column_stack([X[:, a:b].max(axis=1, initial=0.0)
                                      for a, b in zip(ends[:-1], ends[1:])]))

    zero = np.zeros(system.n_dofs)
    (traj,) = simulate([system], [zero], [zero], dt, config.t_end, stride=config.stride,
                       velocities=False, observe=observe, observed=[read])
    probes, peaks = np.concatenate(probes), np.concatenate(peaks)
    resid, scale = traj.balance

    energy_names = ["E_kin", "E_stored", "E_mag", "E_total", "work_in",
                    "balance_residual"]
    energy_cols = [traj.kinetic, traj.stored, traj.magnetic, traj.total,
                   traj.work, traj.balance_residual]
    comments = _provenance(config, system) + [f"dt {dt!r}"]
    # t and the ledger go to both CSVs: the second takes the first's text.
    t_text, *energy_text = write_csv(os.path.join(out, "energy.csv"), ["t"] + energy_names,
                                     [traj.t] + energy_cols, comments)
    names, columns = ["t"], [t_text]
    for j, field in enumerate(layout.fields):
        names += [f"{field}_probe", f"{field}_max"]
        columns += [probes[:, j], peaks[:, j]]
    names.extend(energy_names)
    columns.extend(energy_text)
    write_csv(os.path.join(out, "trajectory.csv"), names, columns, comments)

    write_json(os.path.join(out, "simulate_report.json"), {
        "config_sha256": config_digest(config),
        "backend": backend_name(),
        "n_dofs": system.n_dofs,
        "n_steps": int(round(config.t_end / dt)),
        "dt": dt,
        "max_energy": scale,
        "max_balance_residual": resid,
        "final_energy": float(traj.total[-1]),
    })
    if svg:
        motion = [(f"{f}_probe", traj.t, columns[names.index(f"{f}_probe")])
                  for f in layout.fields if FIELD_CLASS[f] != "charge"]
        svg_line_plot(os.path.join(out, "trajectory.svg"), motion,
                      title="probe displacements", xlabel="t", ylabel="value")
        svg_line_plot(os.path.join(out, "energy.svg"),
                      [(n, traj.t, c) for n, c in zip(energy_names[:4], energy_cols)],
                      title="energy ledger", xlabel="t", ylabel="energy")
    return 0


def cmd_modes(config: RunConfig, out: str, svg: bool, n_modes: int) -> int:
    vspec = config.validated()
    system = build_system(vspec, config.n_elements)
    ms = eigenmodes(system.M, system.K, n_modes, system.null_space(), system.band_order())
    k = len(ms.omegas)

    fractions = mode_energy_fractions(system, ms.shapes)
    classes = [classify_mode(fr) for fr in fractions]
    by_class = [class_fractions(fr) for fr in fractions]

    comments = _provenance(config, system) + [
        "class codes: 0 stretching, 1 bending, 2 charge"]
    write_csv(os.path.join(out, "modes.csv"),
              ["index", "omega_rad_s", "freq_hz", "is_zero", "class",
               "frac_stretch", "frac_bend", "frac_charge"],
              [np.arange(k, dtype=float), ms.omegas, ms.omegas / (2.0 * np.pi),
               (np.arange(k) < ms.n_zero).astype(float),
               [_CLASS_CODE[c] for c in classes],
               [c["stretching"] for c in by_class], [c["bending"] for c in by_class],
               [c["charge"] for c in by_class]],
              comments)
    write_json(os.path.join(out, "modes_report.json"), {
        "config_sha256": config_digest(config),
        "n_modes": k,
        "n_zero": ms.n_zero,
        "omega_rad_s": [float(w) for w in ms.omegas],
        "classes": classes,
    })
    if svg:
        series = []
        layout = system.layout
        for i in range(ms.n_zero, min(k, ms.n_zero + 4)):  # the first four physical modes
            field = next(f for f in layout.fields if FIELD_CLASS[f] == classes[i])
            full = system.embed(ms.shapes[:, i])
            series.append((f"mode {i} ({classes[i]})",
                           layout.node_positions(field),
                           full[layout.value_dofs(field)]))
        if series:
            svg_line_plot(os.path.join(out, "modes.svg"), series,
                          title="mode shapes (dominant field)", xlabel="x",
                          ylabel="shape")
    return 0


def cmd_check(config: RunConfig, out: str) -> int:
    vspec = config.validated()
    dt = resolved_dt(config)
    corrupt = os.environ.get("PIEZOBEAM_CORRUPT_COUPLING", "") == "1"
    if vspec.is_patch:
        reports = check_patch_voltage_selectivity(
            vspec, config.n_elements, dt, config.t_end, corrupt_sign=corrupt)
    else:
        reports = [check_single_beam_decoupling(vspec, config.n_elements, dt, config.t_end)]
    passed = all(r.passed for r in reports)
    write_json(os.path.join(out, "check_report.json"), {
        "config_sha256": config_digest(config),
        "passed": passed,
        "scenarios": [r.as_dict() for r in reports],
    })
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.scenario}: {status}")
    return 0 if passed else 4


def cmd_limit(config: RunConfig, out: str, svg: bool, mus) -> int:
    vspec = config.validated()
    dt = resolved_dt(config)
    study = run_electrostatic_limit(vspec, mus, config.n_elements, dt,
                                    config.t_end)
    write_csv(os.path.join(out, "limit.csv"), ["mu", "distance"],
              [np.array(study.mus), np.array(study.distances)],
              [f"piezobeam {__version__}",
               f"config sha256 {config_digest(config)}"])
    write_json(os.path.join(out, "limit_report.json"), {
        "config_sha256": config_digest(config),
        **study.as_dict(),
    })
    if svg:
        svg_line_plot(os.path.join(out, "limit.svg"),
                      [("distance", np.array(study.mus), np.array(study.distances))],
                      title="electrostatic limit", xlabel="mu",
                      ylabel="relative L2 distance", logx=True, logy=True)
    print(f"electrostatic-limit: monotone={study.monotone} "
          f"static_gap={study.static_gap:.3e}")
    return 0 if study.monotone else 4


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="piezobeam",
        description="Voltage-actuated piezoelectric beam simulator")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="path to a run configuration file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--svg", action="store_true", help="also write SVG plots")

    common(sub.add_parser("simulate", help="time-integrate and write CSVs"))
    mp = sub.add_parser("modes", help="modal analysis")
    common(mp)
    mp.add_argument("--n", type=int, default=8, help="number of modes")
    common(sub.add_parser("check", help="run the structure checks"))
    lp = sub.add_parser("limit", help="electrostatic-limit study")
    common(lp)
    lp.add_argument("--mu", default="5e-1,5e-2,5e-3,5e-4",
                    help="comma-separated descending mu values")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        # Command-line values are checked before any work, as configuration
        # errors; any ValueError after that is a numerical failure (numpy's
        # LinAlgError is one).
        if args.command == "modes" and args.n < 1:
            raise InputError(f"number of modes must be >= 1, got {args.n}")
        if args.command == "limit":
            try:
                mus = _validated_mus(float(tok) for tok in args.mu.split(",") if tok.strip())
            except ValueError as exc:
                raise InputError(str(exc)) from exc
        os.makedirs(args.out, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, args.svg)
        if args.command == "modes":
            return cmd_modes(config, args.out, args.svg, args.n)
        if args.command == "check":
            return cmd_check(config, args.out)
        return cmd_limit(config, args.out, args.svg, mus)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
