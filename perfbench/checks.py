"""Output checks, one per CLI command kind.

Each check compares the files a command wrote with a property the method
must have or with a value computed here from the config, never with a stored
copy of earlier output.  check(command) returns None when the output passes
and a one-line reason when it does not.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import LIMIT_MUS, is_patch, n_steps, read_config

BALANCE_BOUND = 1e-8      # max|balance_residual| <= 1e-8 * max(E_total)
STATIC_GAP_BOUND = 1e-12  # static full-magnetic vs electrostatic equilibria
MODE_RTOL = 1e-3          # rod spectrum against k*pi*c/L


def read_csv(path: str) -> dict:
    """Columns of a CSV whose '#' lines are comments and first row a header."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(tok) for tok in r.split(",")] for r in rows[1:]])
    data = data.reshape(len(rows) - 1, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_simulate(cmd: dict, cp) -> str | None:
    traj = read_csv(os.path.join(cmd["out"], "trajectory.csv"))
    energy = read_csv(os.path.join(cmd["out"], "energy.csv"))
    for name, cols in (("trajectory", traj), ("energy", energy)):
        if not all(np.all(np.isfinite(c)) for c in cols.values()):
            return f"{name}.csv holds a non-finite value"
    n = n_steps(cp)
    dt = cp.getfloat("solver", "dt")
    stride = cp.getint("solver", "stride")
    rows = len(range(0, n + 1, stride)) + (n % stride != 0)
    if len(energy["t"]) != rows:
        return f"{len(energy['t'])} recorded rows, expected {rows}"
    if energy["t"][-1] != n * dt:
        return f"last t {energy['t'][-1]!r} != n_steps*dt {n * dt!r}"
    resid = float(np.max(np.abs(energy["balance_residual"])))
    scale = float(np.max(energy["E_total"]))
    if not resid <= BALANCE_BOUND * scale:
        return f"balance residual {resid:.3e} > {BALANCE_BOUND:g} * max E {scale:.3e}"
    if not is_patch(cp):
        bending = [c for c in traj if c.split("_")[0] in ("w", "psi")]
        if not bending:
            return "no bending columns in trajectory.csv"
        for c in bending:
            if np.any(traj[c] != 0.0):
                return f"single-beam bending column {c} is not exactly zero"
    return None


def _check_check(cmd: dict, cp) -> str | None:
    report = _read_json(os.path.join(cmd["out"], "check_report.json"))
    expected = 2 if is_patch(cp) else 1
    scenarios = report.get("scenarios", [])
    if len(scenarios) != expected:
        return f"{len(scenarios)} scenarios, expected {expected}"
    failed = [s["scenario"] for s in scenarios if not s["passed"]]
    if failed or report.get("passed") is not True:
        return f"scenarios failed: {failed}"
    return None


def _check_limit(cmd: dict, cp) -> str | None:
    cols = read_csv(os.path.join(cmd["out"], "limit.csv"))
    mus = [float(m) for m in LIMIT_MUS.split(",")]
    if list(cols["mu"]) != mus:
        return f"mu column {list(cols['mu'])} != requested {mus}"
    dist = cols["distance"]
    if not (np.all(np.isfinite(dist)) and np.all(dist > 0.0)):
        return "distances not finite and positive"
    if not np.all(np.diff(dist) < 0.0):
        return f"distances not strictly decreasing: {list(dist)}"
    gap = _read_json(os.path.join(cmd["out"], "limit_report.json"))["static_gap"]
    if not gap <= STATIC_GAP_BOUND:
        return f"static gap {gap!r} > {STATIC_GAP_BOUND:g}"
    return None


def rod_speeds(cp) -> tuple:
    """(c_slow, c_fast) of the beam's stretching/charge system.

    Eigenvalues of diag(1/rho, 1/mu) [[alpha1, -g], [-g, beta3]] with
    beta3 = 1/eps3, alpha1 = c11 + gamma31^2 beta3 and g = gamma31 beta3.
    """
    m = {k: cp.getfloat("material.beam", k) for k in ("rho", "c11", "gamma31", "eps3", "mu")}
    beta3 = 1.0 / m["eps3"]
    alpha1 = m["c11"] + m["gamma31"] ** 2 * beta3
    g = m["gamma31"] * beta3
    A = np.diag([1.0 / m["rho"], 1.0 / m["mu"]]) @ np.array([[alpha1, -g], [-g, beta3]])
    lam = np.sort(np.linalg.eigvals(A).real)
    return math.sqrt(lam[0]), math.sqrt(lam[1])


def _check_modes(cmd: dict, cp) -> str | None:
    report = _read_json(os.path.join(cmd["out"], "modes_report.json"))
    omegas = np.array(report["omega_rad_s"])
    wanted = int(cmd["argv"][cmd["argv"].index("--n") + 1])
    if len(omegas) != wanted:
        return f"{len(omegas)} modes, expected {wanted}"
    if not (np.all(np.isfinite(omegas)) and np.all(np.diff(omegas) >= 0.0)):
        return "frequencies not finite and ascending"
    if is_patch(cp):
        return None
    n_zero = report["n_zero"]
    if n_zero != 4:
        return f"n_zero {n_zero}, expected 4 (two rigid motions, axial, charge gauge)"
    found = [float(w) for w, c in zip(omegas[n_zero:], report["classes"][n_zero:])
             if c != "bending"]
    c_slow, c_fast = rod_speeds(cp)
    length = cp.getfloat("geometry", "length")
    # Free-free rod modes k*pi*c/L of both speeds, merged, up to 2*pi*c_fast/L.
    top = 2.0 * math.pi * c_fast / length * (1.0 + MODE_RTOL)
    expected = sorted(w for c in (c_slow, c_fast) for k in range(1, 64)
                      if (w := k * math.pi * c / length) <= top)
    if len(found) < len(expected):
        return f"non-bending spectrum {found} does not reach 2*pi*c_fast/L"
    got = found[:len(expected)]
    err = max(abs(f - e) / e for f, e in zip(got, expected))
    if not err <= MODE_RTOL:
        return f"non-bending modes {got} vs k*pi*c/L {expected}: rel. error {err:.2e}"
    return None


_CHECKS = {"simulate": _check_simulate, "check": _check_check,
           "limit": _check_limit, "modes": _check_modes}


def check(cmd: dict) -> str | None:
    """None if the command's outputs pass, else why they do not."""
    try:
        return _CHECKS[cmd["kind"]](cmd, read_config(cmd["config"]))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
