"""Run configuration: a small INI dialect, parsed with line-anchored errors.

Grammar (line oriented):

    # comment           ; comment
    [section]
    key = value

Known sections: [model], [material.beam], [material.patch], [geometry],
[voltage] for single-beam variants or [voltage.top] / [voltage.bottom] for
patch variants, and [solver].  Unknown sections or keys are errors, not
warnings; duplicate keys are errors.  serialize_config emits a canonical
form that parses back to an equal RunConfig.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import InputError
from .materials import (
    BeamGeometry,
    BoundaryCondition,
    MaterialParams,
    ModelSpec,
    Regime,
    Variant,
    VoltageSignal,
    stretching_wave_speeds,
)
from .mesh import build_mesh

_MATERIAL_KEYS = ("rho", "c11", "c55", "gamma31", "gamma15", "eps1", "eps3", "mu")
_VOLTAGE_KEYS = ("kind", "amplitude", "frequency", "step_time")

SECTION_KEYS = {
    "model": ("variant", "regime", "bc"),
    "material.beam": _MATERIAL_KEYS,
    "material.patch": _MATERIAL_KEYS,
    "geometry": ("length", "thickness", "core_half_thickness",
                 "patch_thickness", "patch_start", "patch_end"),
    "voltage": _VOLTAGE_KEYS,
    "voltage.top": _VOLTAGE_KEYS,
    "voltage.bottom": _VOLTAGE_KEYS,
    "solver": ("elements", "dt", "t_end", "stride", "probe"),
}


@dataclass(frozen=True)
class RunConfig:
    """A validated model description plus solver settings."""

    spec: ModelSpec
    n_elements: int = 32
    dt: float | None = None
    t_end: float = 1.0
    stride: int = 1
    probe: float | None = None

    def validated(self) -> ModelSpec:
        return self.spec


def _tokenize(text: str):
    """Yield (line_no, section, key, value) entries; collect syntax issues."""
    entries = {}
    issues = []
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                issues.append((ln, f"unterminated section header {line!r}"))
                continue
            section = line[1:-1].strip()
            if section not in SECTION_KEYS:
                raise InputError([(ln, f"unknown section [{section}]")])
            entries.setdefault(section, {})
            continue
        if "=" not in line:
            issues.append((ln, f"expected 'key = value', got {line!r}"))
            continue
        if section is None:
            issues.append((ln, "key/value outside any [section]"))
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SECTION_KEYS[section]:
            raise InputError([(ln, f"unknown key {key!r} in [{section}]")])
        if key in entries[section]:
            issues.append((ln, f"duplicate key {key!r} in [{section}]"))
            continue
        entries[section][key] = (ln, value)
    if issues:
        raise InputError(issues)
    return entries


def _real(raw: str) -> float:
    """A finite float; nan and +-inf are rejected like any malformed number."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _typed(entries, section, key, conv, default=None):
    if section not in entries or key not in entries[section]:
        return default
    ln, raw = entries[section][key]
    try:
        return conv(raw)
    except (ValueError, KeyError):
        raise InputError([(ln, f"bad value {raw!r} for {key} in [{section}]")])


_VARIANTS = {v.value: v for v in Variant}
_REGIMES = {r.value: r for r in Regime}
_BCS = {b.value: b for b in BoundaryCondition}


def _anchored(entries, section: str, exc: InputError) -> InputError:
    """exc, which names a key, at the line of that key in [section]; line 0
    when the file does not set that key."""
    ln = entries.get(section, {}).get(exc.key, (0, None))[0]
    return InputError([(ln, f"{exc.key} in [{section}]: {exc}")])


def _material(entries, section) -> MaterialParams | None:
    if section not in entries:
        return None
    kwargs = {k: _typed(entries, section, k, _real, 0.0) for k in _MATERIAL_KEYS}
    try:
        return MaterialParams(**kwargs)
    except InputError as exc:
        raise _anchored(entries, section, exc) from exc


def _geometry(entries) -> BeamGeometry:
    kwargs = {key: _typed(entries, "geometry", key, _real, 1.0 if key == "length" else None)
              for key in SECTION_KEYS["geometry"]}
    try:
        return BeamGeometry(**kwargs)
    except InputError as exc:
        raise _anchored(entries, "geometry", exc) from exc


def _voltage(entries, section) -> VoltageSignal:
    if section not in entries:
        return VoltageSignal.zero()
    kwargs = dict(kind=_typed(entries, section, "kind", str, "zero"),
                  amplitude=_typed(entries, section, "amplitude", _real, 0.0),
                  frequency=_typed(entries, section, "frequency", _real, 0.0),
                  step_time=_typed(entries, section, "step_time", _real, 0.0))
    try:
        return VoltageSignal(**kwargs)
    except InputError as exc:
        raise _anchored(entries, section, exc) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate configuration text.

    Raises InputError with (line, message) pairs, for textual problems and
    for values that fail physical validity (non-positive lengths, patch
    interval out of order, ...).
    """
    entries = _tokenize(text)
    for required in ("model", "material.beam", "geometry"):
        if required not in entries:
            raise InputError(f"missing required section [{required}]")

    variant = _typed(entries, "model", "variant", _VARIANTS.__getitem__)
    regime = _typed(entries, "model", "regime", _REGIMES.__getitem__)
    bc = _typed(entries, "model", "bc", _BCS.__getitem__, BoundaryCondition.FREE_FREE)
    if variant is None or regime is None:
        raise InputError("[model] must set both 'variant' and 'regime'")

    beam = _material(entries, "material.beam")
    patch = _material(entries, "material.patch")
    geometry = _geometry(entries)
    if variant.is_patch:
        voltages = (_voltage(entries, "voltage.top"), _voltage(entries, "voltage.bottom"))
        if "voltage" in entries:
            raise InputError(
                "patch variants use [voltage.top]/[voltage.bottom], not [voltage]")
    else:
        voltages = (_voltage(entries, "voltage"),)
        for bad in ("voltage.top", "voltage.bottom"):
            if bad in entries:
                raise InputError(
                    f"single-beam variants use [voltage], not [{bad}]")
    try:
        spec = ModelSpec(variant=variant, regime=regime, beam=beam, geometry=geometry,
                         mechanical_bc=bc, patch=patch, voltages=voltages)
    except InputError as exc:
        # ModelSpec keys geometry fields, the patch material, and mu on the
        # charge-carrying layer; its voltage errors name no key.
        if exc.key is None:
            raise
        if exc.key == "patch":
            raise InputError(f"missing required section [material.patch]: {exc}") from exc
        section = "geometry" if exc.key in SECTION_KEYS["geometry"] else \
            "material.patch" if variant.is_patch else "material.beam"
        raise _anchored(entries, section, exc) from exc

    config = RunConfig(
        spec=spec,
        n_elements=_typed(entries, "solver", "elements", int, 32),
        dt=_typed(entries, "solver", "dt", _real),
        t_end=_typed(entries, "solver", "t_end", _real, 1.0),
        stride=_typed(entries, "solver", "stride", int, 1),
        probe=_typed(entries, "solver", "probe", _real),
    )
    min_elements = 4 if variant.is_patch else 2
    # A set dt must divide t_end: a run takes round(t_end / dt) steps.
    steps = config.t_end / config.dt if (config.dt or 0.0) > 0.0 and config.t_end > 0.0 else 0.0
    checks = (
        ("elements", config.n_elements >= min_elements, f">= {min_elements} for {variant.value}"),
        ("stride", config.stride >= 1, ">= 1"),
        ("t_end", config.t_end > 0.0, "> 0"),
        ("dt", config.dt is None or config.dt > 0.0, "> 0"),
        ("t_end" if "t_end" in entries.get("solver", {}) else "dt",
         min(steps % 1.0, 1.0 - steps % 1.0) <= 1e-9 * steps,
         f"such that t_end / dt = {steps:.12g} is a whole number"),
    )
    # Every default passes, so a failing value was read from [solver].
    issues = [(entries["solver"][key][0], f"{key} must be {need}, got {entries['solver'][key][1]}")
              for key, ok, need in checks if not ok]
    if issues:
        raise InputError(issues)
    return config


def _fmt(x) -> str:
    return repr(float(x))


def _emit_voltage(lines, section, sig: VoltageSignal):
    lines.append(f"[{section}]")
    lines.append(f"kind = {sig.kind}")
    lines.append(f"amplitude = {_fmt(sig.amplitude)}")
    if sig.kind == "sinusoid":
        lines.append(f"frequency = {_fmt(sig.frequency)}")
    if sig.kind == "step":
        lines.append(f"step_time = {_fmt(sig.step_time)}")
    lines.append("")


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    spec = config.spec
    lines = ["[model]",
             f"variant = {spec.variant.value}",
             f"regime = {spec.regime.value}",
             f"bc = {spec.mechanical_bc.value}",
             ""]
    for section, mat in (("material.beam", spec.beam), ("material.patch", spec.patch)):
        if mat is None:
            continue
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {_fmt(getattr(mat, k))}" for k in _MATERIAL_KEYS)
        lines.append("")
    lines.append("[geometry]")
    geo = spec.geometry
    for key in SECTION_KEYS["geometry"]:
        val = getattr(geo, key)
        if val is not None:
            lines.append(f"{key} = {_fmt(val)}")
    lines.append("")
    if spec.variant.is_patch:
        top, bottom = spec.voltages
        _emit_voltage(lines, "voltage.top", top)
        _emit_voltage(lines, "voltage.bottom", bottom)
    else:
        _emit_voltage(lines, "voltage", *spec.voltages)
    lines.append("[solver]")
    lines.append(f"elements = {config.n_elements}")
    if config.dt is not None:
        lines.append(f"dt = {_fmt(config.dt)}")
    lines.append(f"t_end = {_fmt(config.t_end)}")
    lines.append(f"stride = {config.stride}")
    if config.probe is not None:
        lines.append(f"probe = {_fmt(config.probe)}")
    lines.append("")
    return "\n".join(lines)


def config_digest(config: RunConfig) -> str:
    """Stable identity of a config: sha256 of its canonical serialization."""
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()


def heuristic_dt(vspec: ModelSpec, n_elements: int) -> float:
    """Default step: a quarter of the fastest wave's transit over the finest
    element.  The integrator is unconditionally stable; this is an accuracy
    choice, not a stability bound."""
    mesh = build_mesh(vspec.geometry, n_elements, patch=vspec.is_patch)
    h_min = float(min(mesh.lengths))
    full = vspec.regime == Regime.FULL_MAGNETIC
    speeds = []
    for coeffs in (vspec.beam, vspec.patch) if vspec.is_patch else (vspec.beam,):
        if full and coeffs.mu > 0.0:
            speeds.append(stretching_wave_speeds(coeffs)[0])
        else:
            speeds.append((coeffs.alpha1 / coeffs.rho) ** 0.5)
    return 0.25 * h_min / max(speeds)


def resolved_dt(config: RunConfig) -> float:
    """The set dt, or else the largest step not above heuristic_dt that
    divides t_end, so a run ends at t_end."""
    if config.dt is not None:
        return config.dt
    dt = heuristic_dt(config.validated(), config.n_elements)
    return config.t_end / math.ceil(config.t_end / dt)
