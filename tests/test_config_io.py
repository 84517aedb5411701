"""INI configuration parsing/serialization and the CSV/JSON/SVG writers."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from piezobeam.config import (
    SECTION_KEYS,
    config_digest,
    heuristic_dt,
    parse_config,
    resolved_dt,
    serialize_config,
)
from piezobeam.errors import ParseError, UnitViolation, UnknownKey
from piezobeam.materials import Regime, Variant
from piezobeam.output import read_csv, svg_line_plot, write_csv, write_json

SINGLE_INI = """\
[model]
variant = single_eb
regime = full_magnetic
bc = free_free

[material.beam]
rho = 1.0
c11 = 2.0
c55 = 1.0
gamma31 = 0.7
gamma15 = 0.3
eps1 = 1.2
eps3 = 0.8
mu = 0.5

[geometry]
length = 1.0
thickness = 0.1

[voltage]
kind = sinusoid
amplitude = 1.0
frequency = 3.0

[solver]
elements = 8
dt = 0.001
t_end = 0.5
stride = 5
"""

PATCH_INI = """\
[model]
variant = patch_mt
regime = electrostatic
bc = clamped_free

[material.beam]
rho = 1.0
c11 = 2.0
c55 = 1.0
gamma31 = 0.7
gamma15 = 0.3
eps1 = 1.2
eps3 = 0.8
mu = 0.5

[material.patch]
rho = 1.4
c11 = 3.0
c55 = 1.2
gamma31 = 0.9
gamma15 = 0.2
eps1 = 1.0
eps3 = 0.6
mu = 0.0

[geometry]
length = 1.0
core_half_thickness = 0.05
patch_thickness = 0.03
patch_start = 0.25
patch_end = 0.75

[voltage.top]
kind = step
amplitude = 2.0
step_time = 0.1

[voltage.bottom]
kind = constant
amplitude = -2.0

[solver]
elements = 12
t_end = 1.0
probe = 0.6
"""


class TestParsing:
    def test_single_beam_config(self):
        cfg = parse_config(SINGLE_INI)
        assert cfg.spec.variant is Variant.SINGLE_EB
        assert cfg.spec.regime is Regime.FULL_MAGNETIC
        assert cfg.n_elements == 8
        assert cfg.dt == 0.001 and cfg.t_end == 0.5 and cfg.stride == 5
        assert cfg.spec.voltages[0](0.25) != 0.0
        assert cfg.validated().n_signals == 1

    def test_patch_config(self):
        cfg = parse_config(PATCH_INI)
        assert cfg.spec.variant is Variant.PATCH_MT
        top, bottom = cfg.spec.voltages
        assert top(0.05) == 0.0   # step still off
        assert top(0.15) == 2.0
        assert bottom(0.0) == -2.0
        assert cfg.validated().n_signals == 2
        assert cfg.probe == 0.6
        assert cfg.dt is None

    def test_single_beam_default_step_ignores_a_patch_section(self):
        # A light, stiff patch layer would set the default step if it were read.
        bare = SINGLE_INI.replace("dt = 0.001\n", "")
        patched = bare.replace("[geometry]", "[material.patch]\nrho = 1.0e-3\nc11 = 1.0e3\n"
                               "c55 = 1.0\neps1 = 1.0\neps3 = 1.0\nmu = 0.0\n\n[geometry]")
        cfg = parse_config(patched)
        assert cfg.spec.patch is not None and cfg.dt is None
        assert resolved_dt(cfg) == resolved_dt(parse_config(bare))
        assert "[material.patch]" in serialize_config(cfg)

    def test_roundtrip_through_serialization(self):
        for text in (SINGLE_INI, PATCH_INI):
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_digest_tracks_content(self):
        a = parse_config(SINGLE_INI)
        b = parse_config(SINGLE_INI)
        assert config_digest(a) == config_digest(b)
        c = parse_config(SINGLE_INI.replace("rho = 1.0", "rho = 2.0"))
        assert config_digest(a) != config_digest(c)
        assert len(config_digest(a)) == 64


NON_FLOAT_KEYS = {"variant", "regime", "bc", "kind", "elements", "stride"}
FLOAT_KEYS = [(section, key) for section, keys in SECTION_KEYS.items()
              for key in keys if key not in NON_FLOAT_KEYS]


def with_value(text, section, key, value):
    """text with `key = value` in [section] (replaced, or inserted right after
    the header) and the 1-based line number of that entry."""
    lines = text.splitlines()
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
               len(lines))
    for i in range(start + 1, end):
        if lines[i].partition("=")[0].strip() == key:
            lines[i] = f"{key} = {value}"
            break
    else:
        i = start + 1
        lines.insert(i, f"{key} = {value}")
    return "\n".join(lines) + "\n", i + 1


class TestParseErrors:
    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("section,key", FLOAT_KEYS,
                             ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
    def test_non_finite_value_rejected_at_its_line(self, section, key, value):
        base = SINGLE_INI if f"[{section}]" in SINGLE_INI else PATCH_INI
        text, line = with_value(base, section, key, value)
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        (ln, msg), = exc.value.issues
        assert ln == line and key in msg

    def test_unknown_key_reports_line_number(self):
        bad = SINGLE_INI.replace("rho = 1.0", "density = 1.0")
        with pytest.raises(UnknownKey) as exc:
            parse_config(bad)
        (line, msg), = exc.value.issues
        assert "density" in msg
        assert SINGLE_INI.splitlines()[line - 1] == "rho = 1.0"

    def test_unknown_section_rejected(self):
        with pytest.raises(UnknownKey):
            parse_config(SINGLE_INI + "\n[damping]\nvalue = 1\n")

    def test_duplicate_key_rejected(self):
        bad = SINGLE_INI.replace("rho = 1.0", "rho = 1.0\nrho = 2.0")
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_missing_required_section(self):
        truncated = SINGLE_INI.split("[geometry]")[0]
        with pytest.raises(ParseError):
            parse_config(truncated)

    def test_malformed_line_collects_issue(self):
        bad = SINGLE_INI.replace("rho = 1.0", "rho 1.0")
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_non_numeric_value(self):
        bad = SINGLE_INI.replace("rho = 1.0", "rho = heavy")
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_wrong_voltage_section_for_variant(self):
        bad = SINGLE_INI.replace("[voltage]", "[voltage.top]")
        with pytest.raises(UnknownKey):
            parse_config(bad)

    def test_physical_validity_mapped_to_unit_violation(self):
        swapped = PATCH_INI.replace("patch_start = 0.25", "patch_start = 0.9")
        with pytest.raises(UnitViolation):
            parse_config(swapped)
        negative = SINGLE_INI.replace("rho = 1.0", "rho = -1.0")
        with pytest.raises(UnitViolation):
            parse_config(negative)
        solver_cases = (
            (SINGLE_INI, "dt = 0.001", "dt = -0.001"),
            (SINGLE_INI, "elements = 8", "elements = 0"),
            (SINGLE_INI, "elements = 8", "elements = 1"),
            (PATCH_INI, "elements = 12", "elements = 3"),
        )
        # The charge-carrying layer's mu is checked against the regime.
        text, line = with_value(PATCH_INI.replace("regime = electrostatic",
                                                  "regime = full_magnetic"),
                                "material.patch", "mu", "0.0")
        with pytest.raises(UnitViolation) as exc:
            parse_config(text)
        [(ln, msg)] = exc.value.issues
        assert ln == line and msg.startswith("mu in [material.patch]: ")
        for text, good, bad in solver_cases:
            line = text.splitlines().index(good) + 1
            with pytest.raises(UnitViolation) as exc:
                parse_config(text.replace(good, bad))
            [(ln, msg)] = exc.value.issues
            assert ln == line and msg.startswith(bad.split()[0] + " must be ")


    @pytest.mark.parametrize("t_end, ok", [("0.0105", False), ("0.2", True), ("2.0", True)])
    def test_set_dt_must_divide_t_end(self, t_end, ok):
        # The run takes round(t_end / dt) steps: a remainder is an error on
        # the t_end line, never a silently shorter run.
        text = SINGLE_INI.replace("t_end = 0.5", f"t_end = {t_end}")
        if ok:
            assert parse_config(text).t_end == float(t_end)
            return
        with pytest.raises(UnitViolation) as exc:
            parse_config(text)
        [(ln, msg)] = exc.value.issues
        assert ln == text.splitlines().index(f"t_end = {t_end}") + 1
        assert msg == "t_end must be such that t_end / dt = 10.5 is a whole number, got 0.0105"

    def test_heuristic_dt_needs_no_whole_number_of_steps(self):
        text = SINGLE_INI.replace("dt = 0.001\n", "").replace("t_end = 0.5", "t_end = 0.0105")
        assert parse_config(text).dt is None


class TestTimeStepHeuristic:
    def test_resolved_dt_prefers_explicit_value(self):
        cfg = parse_config(SINGLE_INI)
        assert resolved_dt(cfg) == 0.001
        auto = parse_config(SINGLE_INI.replace("dt = 0.001\n", ""))
        assert auto.dt is None
        dt = resolved_dt(auto)
        assert dt <= heuristic_dt(auto.validated(), 8)
        assert auto.t_end / dt == pytest.approx(round(auto.t_end / dt), rel=1e-12)

    @pytest.mark.parametrize("t_end", [0.0105, 0.5, 1e-6])
    def test_heuristic_dt_ends_the_run_at_t_end(self, t_end):
        # The heuristic step is shortened to divide t_end: the run takes
        # ceil(t_end / heuristic_dt) steps and its last one lands on t_end.
        text = SINGLE_INI.replace("dt = 0.001\n", "").replace("t_end = 0.5", f"t_end = {t_end}")
        cfg = parse_config(text)
        bound, dt = heuristic_dt(cfg.validated(), 8), resolved_dt(cfg)
        n_steps = round(t_end / dt)
        assert n_steps == math.ceil(t_end / bound) >= 1
        assert dt <= bound and n_steps * dt == pytest.approx(t_end, rel=1e-12)

    def test_heuristic_follows_mesh_and_wave_speed(self):
        vspec = parse_config(SINGLE_INI).validated()
        dt8 = heuristic_dt(vspec, 8)
        dt32 = heuristic_dt(vspec, 32)
        assert dt8 > 0 and dt32 == pytest.approx(dt8 / 4.0, rel=1e-12)


class TestTabularOutput:
    def test_csv_roundtrip_is_lossless(self, tmp_path, rng):
        path = tmp_path / "data.csv"
        t = rng.standard_normal(7)
        value = rng.standard_normal(7) * 1e-17
        write_csv(path, ["t", "value"], [t, value], comments=("generator demo", "seed 2024"))
        comments, header, back = read_csv(path)
        assert comments == ["generator demo", "seed 2024"]
        assert header == ["t", "value"]
        assert np.array_equal(back["t"], t)
        assert np.array_equal(back["value"], value)

    def test_csv_bytes_stable(self, tmp_path):
        cols = [np.array([1.0, 2.0 / 3.0]), np.array([0.1, 0.2])]
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_csv(p1, ["a", "b"], cols)
        write_csv(p2, ["a", "b"], cols)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_text_is_17_digit_format(self, tmp_path):
        # Each value reads as format(x, ".17g"), special values and integer
        # columns included; the text write_csv returns writes the same.
        specials = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e308, 2.0 / 3.0, 0.1]
        ints = np.array([0, -3, 7, 2**53 + 1, -(2**60), 12, 1, 10**17])
        path = tmp_path / "special.csv"
        text = write_csv(path, ["x", "n"], [specials, ints])
        write_csv(tmp_path / "again.csv", ["x", "n"], [text[0], ints])
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert rows == [[format(float(x), ".17g"), format(float(k), ".17g")]
                        for x, k in zip(specials, ints)]
        assert rows[:4] == [["inf", "0"], ["-inf", "-3"], ["nan", "7"], ["-0", "9007199254740992"]]

    def test_json_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"zeta": 1, "alpha": [1.5, None], "nested": {"b": 2, "a": 1}})
        raw = path.read_text()
        assert raw.endswith("\n")
        assert raw.index('"alpha"') < raw.index('"zeta"')
        assert json.loads(raw)["nested"] == {"a": 1, "b": 2}


class TestSvgPlots:
    def test_plot_is_wellformed_and_complete(self, tmp_path):
        path = tmp_path / "plot.svg"
        x = np.linspace(0.0, 1.0, 50)
        svg_line_plot(
            path,
            [("first <series>", x, np.sin(x)), ("second & third", x, np.cos(x))],
            title="response",
            xlabel="time",
            ylabel="amplitude <1>",
        )
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        polylines = root.iter("{http://www.w3.org/2000/svg}polyline")
        drawn = [p for p in polylines if p.get("points")]
        assert len(drawn) >= 2
        text = path.read_text()
        assert "&lt;series&gt;" in text and "second &amp; third" in text

    def test_log_axes(self, tmp_path):
        path = tmp_path / "log.svg"
        x = np.logspace(-3, 0, 20)
        svg_line_plot(path, [("decay", x, x**2)], logx=True, logy=True)
        ET.fromstring(path.read_text())  # parses cleanly
