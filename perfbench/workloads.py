"""Workload inputs: which CLI commands a pass runs, on which configs.

Every config is one of the shipped files under configs/ with a few keys
rewritten: the mesh size and run length fixed per workload, and the drive
amplitude and frequency drawn from the seed near their shipped values.
This module uses the standard library only, so the driver can prepare
inputs without importing numpy.
"""

from __future__ import annotations

import configparser
import os
import random

PATCH = "configs/patch_bimorph.ini"
SINGLE = "configs/single_beam.ini"
LIMIT_MUS = "5e-1,5e-2,5e-3,5e-4"
# Enough modes that the single beam's non-bending spectrum reaches
# 2*pi*c_fast/L (the fifth entry of the merged rod sequence).
MODES_N = 16


def read_config(path: str) -> configparser.ConfigParser:
    """The config's raw values, read without the program's own parser."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    return cp


def n_steps(cp: configparser.ConfigParser) -> int:
    """Midpoint steps of one trajectory of this config: round(t_end/dt)."""
    if not cp.has_option("solver", "dt"):
        raise ValueError("benchmark configs must set [solver] dt")
    return int(round(cp.getfloat("solver", "t_end") / cp.getfloat("solver", "dt")))


def is_patch(cp: configparser.ConfigParser) -> bool:
    return cp.get("model", "variant").startswith("patch")


def _voltage_sections(cp: configparser.ConfigParser) -> list:
    return [s for s in cp.sections() if s == "voltage" or s.startswith("voltage.")]


def write_config(src: str, dst: str, solver: dict, drive: tuple) -> None:
    """Copy src to dst, setting [solver] keys and every voltage section's
    amplitude and frequency; each rewritten key must exist in src."""
    amplitude, frequency = drive
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    section, done, out = None, set(), []
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif "=" in stripped and not stripped.startswith(("#", ";")):
            key = stripped.split("=", 1)[0].strip()
            new = None
            if section == "solver" and key in solver:
                new = solver[key]
            elif section and section.startswith("voltage") and key == "amplitude":
                new = amplitude
            elif section and section.startswith("voltage") and key == "frequency":
                new = frequency
            if new is not None:
                line = f"{key} = {new!r}" if isinstance(new, float) else f"{key} = {new}"
                done.add((section, key))
        out.append(line)
    wanted = {("solver", k) for k in solver}
    wanted |= {(s, k) for s in _voltage_sections(read_config(src))
               for k in ("amplitude", "frequency")}
    if wanted - done:
        raise ValueError(f"{src}: keys not found: {sorted(wanted - done)}")
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def seeded_drive(seed: int, shipped: configparser.ConfigParser) -> tuple:
    """Amplitude within 20% and frequency within 10% of the shipped drive."""
    rng = random.Random(seed)
    section = _voltage_sections(shipped)[0]
    amplitude = shipped.getfloat(section, "amplitude") * rng.uniform(0.8, 1.2)
    frequency = shipped.getfloat(section, "frequency") * rng.uniform(0.9, 1.1)
    return amplitude, frequency


# name -> [(command, shipped config, [solver] overrides, extra CLI args)].
# The smoke variant keeps the command lists and shrinks the large meshes.
_PLANS = {
    "simulate-large": [
        ("simulate", PATCH, {"elements": 512, "t_end": 0.2, "stride": 50}, []),
    ],
    "record-every-step": [
        ("check", PATCH, {}, []),
        ("check", SINGLE, {}, []),
        ("simulate", SINGLE, {"stride": 1}, []),
    ],
    "study-many-systems": [
        ("limit", PATCH, {}, ["--mu", LIMIT_MUS]),
        ("modes", PATCH, {"elements": 320}, ["--n", str(MODES_N)]),
        ("modes", SINGLE, {"elements": 384}, ["--n", str(MODES_N)]),
    ],
}
_SMOKE_ELEMENTS = {512: 48, 320: 96, 384: 96}
NAMES = tuple(_PLANS)


def prepare(name: str, seed: int, root: str, out: str, smoke: bool = False) -> dict:
    """Write the workload's configs under `out` and describe one pass.

    Returns {"commands": [...], "setup": [...], "steps_per_pass": int,
    "drive": [amplitude, frequency]}.  Each command carries its argv, its
    kind, its config path and output directory; each setup entry names a
    config and whether it time-steps (so its step matrix is factored).
    """
    drive = seeded_drive(seed, read_config(os.path.join(root, PATCH)))
    commands, setup, steps = [], [], 0
    for i, (kind, shipped, solver, extra) in enumerate(_PLANS[name]):
        solver = dict(solver)
        if smoke and solver.get("elements") in _SMOKE_ELEMENTS:
            solver["elements"] = _SMOKE_ELEMENTS[solver["elements"]]
        config = os.path.join(out, f"{i}-{kind}.ini")
        write_config(os.path.join(root, shipped), config, solver, drive)
        cp = read_config(config)
        trajectories = {"simulate": 1, "check": 2 if is_patch(cp) else 1,
                        "limit": 1 + len(LIMIT_MUS.split(",")), "modes": 0}[kind]
        steps += trajectories * n_steps(cp)
        cmd_out = os.path.join(out, f"{i}-{kind}")
        commands.append({"kind": kind, "config": config, "out": cmd_out,
                         "argv": [kind, config, "--out", cmd_out] + extra})
        setup.append({"config": config, "time_steps": trajectories > 0})
    return {"commands": commands, "setup": setup, "steps_per_pass": steps,
            "drive": list(drive)}
