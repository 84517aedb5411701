"""End-to-end checks of the command line driver (in-process and subprocess)."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piezobeam import __version__, cli, scenarios, solvers
from piezobeam.assembly import build_system
from piezobeam.cli import _probe_position, main
from piezobeam.config import parse_config, resolved_dt
from piezobeam.errors import InputError, NumericalFailure
from piezobeam.forms import eval_field_at
from piezobeam.layout import FIELD_CLASS
from piezobeam.materials import BoundaryCondition, Regime, Variant
from piezobeam.output import read_csv

from recording import recorded

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = [os.path.join(CONFIGS, name) for name in ("single_beam.ini", "patch_bimorph.ini")]


def shipped_with(tmp_path, name, **solver):
    """A shipped config with some keys rewritten, in every section that has
    them, or dropped where the value is None."""
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        key = line.partition("=")[0].strip()
        if key in solver:
            lines[i] = "" if solver[key] is None else f"{key} = {solver[key]}"
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)

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

PATCH_FULL_INI = """\
[model]
variant = patch_eb
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

[material.patch]
rho = 1.4
c11 = 3.0
c55 = 1.2
gamma31 = 0.9
gamma15 = 0.2
eps1 = 1.0
eps3 = 0.6
mu = 0.8

[geometry]
length = 1.0
core_half_thickness = 0.05
patch_thickness = 0.03
patch_start = 0.25
patch_end = 0.75

[voltage.top]
kind = sinusoid
amplitude = 1.0
frequency = 3.0

[voltage.bottom]
kind = sinusoid
amplitude = 0.5
frequency = 2.0

[solver]
elements = 6
dt = 0.001
t_end = 0.3
"""

FAR_PATCH_MT_INI = """\
[model]
variant = patch_mt
regime = full_magnetic
bc = clamped_free

[material.beam]
rho = 1.0
c11 = 0.019998894068262548
c55 = 101649.72390161591
gamma31 = -1.0
gamma15 = 147.1420783900021
eps1 = 0.0001004227975982902
eps3 = 0.02224421140807547
mu = 17676.478420006817

[material.patch]
rho = 47276.02443127727
c11 = 0.0001115294577732349
c55 = 79.43282347242814
gamma31 = -2741.9916647680284
gamma15 = -2.3719685445209136e-06
eps1 = 1.0
eps3 = 1.000000000000002e-06
mu = 1.0

[geometry]
length = 1.0
core_half_thickness = 0.05
patch_thickness = 0.03
patch_start = 0.25
patch_end = 0.75

[voltage.top]
kind = step
amplitude = -0.0002659356036146779
frequency = 0.6455401854311179
step_time = 0.028240855731674848

[voltage.bottom]
kind = zero
amplitude = 3.1622776601683795
frequency = 71.67983965369936
step_time = 0.0259617676653577

[solver]
elements = 7
dt = 0.002642802567719284
t_end = 0.050213248786666394
stride = 1
"""

PATCH_STATIC_INI = PATCH_FULL_INI.replace(
    "regime = full_magnetic", "regime = electrostatic")


@pytest.fixture
def single_cfg(tmp_path):
    path = tmp_path / "single.ini"
    path.write_text(SINGLE_INI)
    return str(path)


@pytest.fixture
def patch_cfg(tmp_path):
    path = tmp_path / "patch.ini"
    path.write_text(PATCH_FULL_INI)
    return str(path)


class TestSimulate:
    def test_writes_tables_and_report(self, single_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", single_cfg, "--out", str(out)]) == 0
        for name in ("trajectory.csv", "energy.csv", "simulate_report.json"):
            assert (out / name).is_file()
        comments, header, cols = read_csv(str(out / "trajectory.csv"))
        assert header[0] == "t"
        assert len(cols["t"]) == 101  # 500 steps at stride 5, plus t=0
        assert any("sha256" in c for c in comments)
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["n_steps"] == 500
        assert report["dt"] == 0.001
        assert report["backend"] == "sparse-banded"
        assert len(report["config_sha256"]) == 64

    def test_reruns_are_byte_identical(self, single_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", single_cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", single_cfg, "--out", str(out_b)]) == 0
        for name in ("trajectory.csv", "energy.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_svg_flag_draws_plots(self, single_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", single_cfg, "--out", str(out), "--svg"]) == 0
        for name in ("trajectory.svg", "energy.svg"):
            root = ET.fromstring((out / name).read_text())
            assert root.tag.endswith("svg")


    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_probe_columns_match_pointwise_evaluation(self, path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", path, "--out", str(out)]) == 0
        _, _, cols = read_csv(str(out / "trajectory.csv"))
        with open(path, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        system = build_system(config.validated(), config.n_elements)
        zero = np.zeros(system.n_dofs)
        traj = recorded(system, zero, zero, resolved_dt(config), config.t_end,
                        stride=config.stride)
        layout = system.layout
        for field in layout.fields:
            px = _probe_position(layout, field, config.probe)
            ref = np.array([eval_field_at(layout, system.embed(x), field, px) for x in traj.X])
            got = cols[f"{field}_probe"]
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), field
            if not config.validated().is_patch and FIELD_CLASS[field] == "bending":
                assert np.all(got == 0.0), field

    def test_large_patch_run_builds_no_dense_operator(self, tmp_path):
        # 10,245 dofs at stride 1: one dense n x n array would take 840 MB,
        # and the recorded rows over every dof 25 MB.  The run holds what
        # building the system takes, a few chunk-sized arrays and
        # O(n_rec) per written column.
        cfg = shipped_with(tmp_path, "patch_bimorph.ini", elements=2048, t_end=0.3,
                           stride=1)
        with open(cfg, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        tracemalloc.start()
        try:
            build_system(config.validated(), config.n_elements)
            _, setup = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            assert main(["simulate", cfg, "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = json.loads((out / "simulate_report.json").read_text())
        n, n_rec = report["n_dofs"], report["n_steps"] + 1
        _, header, _ = read_csv(str(out / "trajectory.csv"))
        assert n > 10000 and n_rec == 301
        assert peak < setup + 8 * solvers.CHUNK_ENTRIES * 8 + 8 * n_rec * len(header) * 8
        assert report["max_balance_residual"] <= 1e-8 * report["max_energy"]


class TestChunking:
    """simulate hands its callers the recorded rows chunk by chunk; what they
    write must not depend on where the chunks end: the probe product, the
    running maxima and the per-row sums of the limit study."""

    @pytest.mark.parametrize("command,name,keys", [
        ("simulate", "patch_bimorph.ini", {"stride": 1, "probe": 0.4937}),
        ("simulate", "patch_bimorph.ini", {"stride": 7, "probe": 0.4937}),
        ("check", "single_beam.ini", {}),
        ("check", "patch_bimorph.ini", {}),
        ("limit", "single_beam.ini", {}),
        ("limit", "patch_bimorph.ini", {}),
    ])
    def test_files_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, command, name,
                                                   keys):
        # 200 entries cut the run into chunks of one to three steps; the
        # default, into chunks of 220-992 steps.  The probe lies between
        # nodes, so each probe value sums several terms.
        cfg = shipped_with(tmp_path, name, **keys)
        svg = ["--svg"] if command != "check" else []
        written = []
        for run, entries in (("default", solvers.CHUNK_ENTRIES), ("small", 200)):
            monkeypatch.setattr(solvers, "CHUNK_ENTRIES", entries)
            out = tmp_path / run
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, cfg, "--out", str(out)] + svg) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1] and len(written[0]) >= 1


class TestRealisticSize:
    """Every command on each shipped config at 512 elements, short runs."""

    @pytest.mark.parametrize("name", ["single_beam.ini", "patch_bimorph.ini"])
    def test_every_command_at_512_elements(self, tmp_path, capsys, name):
        cfg = shipped_with(tmp_path, name, elements=512, t_end=0.2)
        for command, extra in (("simulate", []), ("check", []), ("limit", []),
                               ("modes", ["--n", "8"])):
            assert main([command, cfg, "--out", str(tmp_path / command)] + extra) == 0, command
        report = json.loads((tmp_path / "simulate" / "simulate_report.json").read_text())
        assert report["n_dofs"] >= 4 * 512 and report["n_steps"] == 200
        # c04's bound: |Delta E - work_in| <= 1e-8 max(E)
        assert 0.0 < report["max_balance_residual"] <= 1e-8 * report["max_energy"]
        for table in ("trajectory.csv", "energy.csv"):
            _, _, cols = read_csv(str(tmp_path / "simulate" / table))
            assert all(np.all(np.isfinite(c)) for c in cols.values()), table
        assert json.loads((tmp_path / "check" / "check_report.json").read_text())["passed"]
        limit = json.loads((tmp_path / "limit" / "limit_report.json").read_text())
        assert limit["monotone_decreasing"] and np.all(np.isfinite(limit["distance"]))
        assert all(a > b > 0.0 for a, b in zip(limit["distance"], limit["distance"][1:]))
        modes = json.loads((tmp_path / "modes" / "modes_report.json").read_text())
        assert modes["n_modes"] == 8 and np.all(np.isfinite(modes["omega_rad_s"]))


class TestModes:
    def test_writes_mode_table(self, single_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["modes", single_cfg, "--out", str(out), "--n", "5"]) == 0
        comments, header, cols = read_csv(str(out / "modes.csv"))
        assert header[:3] == ["index", "omega_rad_s", "freq_hz"]
        assert len(cols["index"]) == 5
        assert any("class codes" in c for c in comments)
        report = json.loads((out / "modes_report.json").read_text())
        assert report["n_modes"] == 5
        assert len(report["omega_rad_s"]) == 5

    def test_one_parser_parses_each_call_afresh(self, single_cfg, tmp_path):
        # The parser is built once per process; an option given to one call
        # does not stick to the next.
        assert cli._parser() is cli._parser()
        for run, extra, n_modes in (("a", ["--n", "3"], 3), ("b", [], 8)):
            out = tmp_path / run
            assert main(["modes", single_cfg, "--out", str(out)] + extra) == 0
            assert json.loads((out / "modes_report.json").read_text())["n_modes"] == n_modes

    def test_svg_flag(self, single_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["modes", single_cfg, "--out", str(out), "--svg"]) == 0
        assert (out / "modes.svg").is_file()

    @pytest.mark.parametrize("name, n_zero", [("single_beam.ini", 4), ("patch_bimorph.ini", 5)])
    def test_reruns_are_byte_identical_on_the_shipped_configs(self, tmp_path, name, n_zero):
        # 2052 and 2565 dofs: rigid modes and the charge gauges make K
        # singular; they come from the model, at omega = 0 exactly.
        cfg = shipped_with(tmp_path, name, elements=512)
        runs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["modes", cfg, "--out", str(out), "--n", "16"]) == 0
            report = json.loads((out / "modes_report.json").read_text())
            assert report["n_zero"] == n_zero
            _, _, cols = read_csv(str(out / "modes.csv"))
            assert cols["is_zero"].tolist() == [1.0] * n_zero + [0.0] * (16 - n_zero)
            assert np.all(cols["omega_rad_s"][:n_zero] == 0.0)
            assert np.all(cols["omega_rad_s"][n_zero:] > 0.0)
            runs.append((out / "modes.csv").read_bytes())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", ["35", "36", "100"])
    def test_asking_for_every_mode_returns_all_but_one(self, single_cfg, tmp_path, n):
        out = tmp_path / "run"
        assert main(["modes", single_cfg, "--out", str(out), "--n", n]) == 0
        comments, _, cols = read_csv(str(out / "modes.csv"))
        assert any("dofs=36" in c for c in comments)
        assert len(cols["index"]) == 35
        report = json.loads((out / "modes_report.json").read_text())
        assert report["n_modes"] == 35
        assert report["n_zero"] == 4

    @pytest.mark.parametrize("path, n_zero", zip(SHIPPED, (4, 5)),
                             ids=[os.path.basename(p) for p in SHIPPED])
    def test_one_mode_still_counts_every_zero_mode(self, tmp_path, path, n_zero):
        out = tmp_path / "run"
        assert main(["modes", path, "--out", str(out), "--n", "1"]) == 0
        report = json.loads((out / "modes_report.json").read_text())
        assert report["n_modes"] == 1
        assert report["n_zero"] == n_zero
        _, _, cols = read_csv(str(out / "modes.csv"))
        assert cols["is_zero"].tolist() == [1.0]

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejects_a_mode_count_below_one(self, single_cfg, tmp_path, capsys, n):
        out = tmp_path / "run"
        assert main(["modes", single_cfg, "--out", str(out), "--n", n]) == 2
        assert "number of modes must be >= 1" in capsys.readouterr().err
        assert not (out / "modes.csv").exists()

    @pytest.mark.parametrize("name, n_zero, n_dofs",
                             [("single_beam.ini", 4, 8196), ("patch_bimorph.ini", 5, 10245)])
    def test_large_run_builds_no_dense_operator(self, tmp_path, name, n_zero, n_dofs):
        cfg = shipped_with(tmp_path, name, elements=2048)
        for n in ("1", "2", "16"):
            out = tmp_path / n
            tracemalloc.start()
            try:
                assert main(["modes", cfg, "--out", str(out), "--n", n]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            comments, _, _ = read_csv(str(out / "modes.csv"))
            assert any(f"dofs={n_dofs}" in c for c in comments)
            report = json.loads((out / "modes_report.json").read_text())
            assert report["n_zero"] == n_zero
            # one dense n x n float array would take 8 n^2 bytes (~840 MB on the patch)
            assert peak < 0.05 * 8 * n_dofs * n_dofs


class TestCheck:
    def test_single_beam_passes(self, single_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["check", single_cfg, "--out", str(out)]) == 0
        assert "single-beam-decoupling: pass" in capsys.readouterr().out
        report = json.loads((out / "check_report.json").read_text())
        assert report["passed"] is True

    def test_patch_runs_both_parities(self, patch_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["check", patch_cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "patch-selectivity-symmetric: pass" in stdout
        assert "patch-selectivity-antisymmetric: pass" in stdout

    def test_corrupted_coupling_is_caught(self, patch_cfg, tmp_path,
                                          capsys, monkeypatch):
        monkeypatch.setenv("PIEZOBEAM_CORRUPT_COUPLING", "1")
        out = tmp_path / "run"
        assert main(["check", patch_cfg, "--out", str(out)]) == 4
        assert "FAIL" in capsys.readouterr().out
        report = json.loads((out / "check_report.json").read_text())
        assert report["passed"] is False
        for scenario in report["scenarios"]:  # the corrupted K breaks the mirror, M does not
            values = {c["name"]: c["value"] for c in scenario["checks"]}
            assert values["mass_mirror_gap"] == 0.0 and values["stiffness_mirror_gap"] > 0.0

    def test_fine_patch_mesh_keeps_parity_exact(self, tmp_path, capsys):
        # In mirror-adapted coordinates the quiet half of either drive gets
        # an exactly zero load and is at rest, so both ratios are exactly 0
        # at any mesh size.  Sweeping the whole system let solve round-off
        # leak into the quiet class, growing as n^2 (2.4e-12 at 256
        # elements, over c06's 1e-12 bound).
        cfg = shipped_with(tmp_path, "patch_bimorph.ini", elements=256)
        out = tmp_path / "run"
        assert main(["check", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert len(report["scenarios"]) == 2
        for scenario in report["scenarios"]:
            values = {c["name"]: c["value"] for c in scenario["checks"]}
            assert values["quiet_over_active_ratio"] == 0.0, scenario["scenario"]
            assert values["charge_mirror_gap"] == 0.0, scenario["scenario"]

    def test_fine_patch_mesh_still_catches_corrupted_coupling(self, tmp_path, capsys,
                                                              monkeypatch):
        # The corrupted system breaks the mirror, so it steps unsplit, as one
        # block in its own coordinates, and its leak shows.
        monkeypatch.setenv("PIEZOBEAM_CORRUPT_COUPLING", "1")
        cfg = shipped_with(tmp_path, "patch_bimorph.ini", elements=256)
        out = tmp_path / "run"
        assert main(["check", cfg, "--out", str(out)]) == 4
        report = json.loads((out / "check_report.json").read_text())
        leak = max(c["value"] for s in report["scenarios"] for c in s["checks"]
                   if c["name"] == "quiet_over_active_ratio")
        assert leak > 1e-3

    def test_far_from_unit_patch_mt_constants_keep_parity_exact(self, tmp_path, capsys):
        # Drawn by the TestEveryConfig generator: with the whole system swept,
        # 3.5e-10 of the active response leaked into the quiet class (exit 4).
        path = tmp_path / "far.ini"
        path.write_text(FAR_PATCH_MT_INI)
        out = tmp_path / "run"
        assert main(["check", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "check_report.json").read_text())
        for scenario in report["scenarios"]:
            values = {c["name"]: c["value"] for c in scenario["checks"]}
            assert values["quiet_over_active_ratio"] == 0.0, scenario["scenario"]
            assert values["charge_mirror_gap"] == 0.0, scenario["scenario"]

    def test_corruption_hook_ignores_single_beams(self, single_cfg, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("PIEZOBEAM_CORRUPT_COUPLING", "1")
        assert main(["check", single_cfg, "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("name", ["single_beam.ini", "patch_bimorph.ini"])
    def test_refuses_a_run_that_measured_nothing(self, tmp_path, capsys, name):
        # A zero drive leaves the active response at exactly 0: a zero leak
        # or bending response then shows nothing, and no passing report may
        # be written.  (A run of no steps, which no config can ask for, is
        # refused in test_scenarios.py.)
        out = tmp_path / "run"
        cfg = shipped_with(tmp_path, name, kind="zero")
        assert main(["check", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "zero drive or no steps" in captured.err
        assert "pass" not in captured.out
        assert not (out / "check_report.json").exists()


class TestLimit:
    def test_reports_monotone_shrinkage(self, patch_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["limit", patch_cfg, "--out", str(out),
                     "--mu", "0.5,0.05"])
        assert code == 0
        assert "electrostatic-limit: monotone=True" in capsys.readouterr().out
        _, header, cols = read_csv(str(out / "limit.csv"))
        assert header == ["mu", "distance"]
        assert cols["distance"][0] > cols["distance"][1] > 0.0

    def test_refuses_a_run_that_never_moves(self, tmp_path, capsys):
        # A zero drive leaves the electrostatic model at rest: every
        # distance would be 0, a study of nothing.  (A run of no steps is
        # refused in test_scenarios.py.)
        out = tmp_path / "run"
        cfg = shipped_with(tmp_path, "patch_bimorph.ini", kind="zero")
        assert main(["limit", cfg, "--out", str(out)]) == 2
        assert "error: the electrostatic model never moves" in capsys.readouterr().err
        assert not (out / "limit.csv").exists() and not (out / "limit_report.json").exists()

    def test_rejects_electrostatic_config(self, tmp_path):
        path = tmp_path / "static.ini"
        path.write_text(PATCH_STATIC_INI)
        assert main(["limit", str(path), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("mus", ["5e-1,-1e-2", "nan,5e-1", "5e-1,inf",
                                     "5e-1,0", "5e-2,5e-1", ""])
    def test_rejects_bad_mu_list_before_building_a_system(
            self, patch_cfg, tmp_path, capsys, monkeypatch, mus):
        def unreachable(*args, **kwargs):
            raise AssertionError("a system was built for a rejected mu list")

        monkeypatch.setattr(scenarios, "build_system", unreachable)
        out = tmp_path / "run"
        assert main(["limit", patch_cfg, "--out", str(out), "--mu", mus]) == 2
        assert "error: mu values" in capsys.readouterr().err
        assert not (out / "limit.csv").exists()


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


_POSITIVE = _log_uniform(-6.0, 6.0)
_SIGNED = st.tuples(st.sampled_from((-1.0, 1.0)), _POSITIVE).map(lambda p: p[0] * p[1])
_GEOMETRY = {
    False: {"length": 1.0, "thickness": 0.1},
    True: {"length": 1.0, "core_half_thickness": 0.05, "patch_thickness": 0.03,
           "patch_start": 0.25, "patch_end": 0.75},
}


@st.composite
def config_texts(draw):
    """INI text of a random short run: any variant, regime and boundary
    condition, material constants spread over twelve decades."""
    variant = draw(st.sampled_from(Variant))
    sections = {"model": {
        "variant": variant.value,
        "regime": draw(st.sampled_from(Regime)).value,
        "bc": draw(st.sampled_from(BoundaryCondition)).value,
    }}
    for layer in ("beam", "patch") if variant.is_patch else ("beam",):
        sections[f"material.{layer}"] = {
            key: draw(_SIGNED if key.startswith("gamma") else _POSITIVE)
            for key in ("rho", "c11", "c55", "gamma31", "gamma15", "eps1", "eps3", "mu")}
    sections["geometry"] = _GEOMETRY[variant.is_patch]
    for name in ("voltage.top", "voltage.bottom") if variant.is_patch else ("voltage",):
        sections[name] = {
            "kind": draw(st.sampled_from(("zero", "constant", "step", "sinusoid"))),
            "amplitude": draw(_SIGNED),
            "frequency": draw(_log_uniform(-1.0, 2.0)),
            "step_time": draw(st.floats(0.0, 0.05)),
        }
    dt = draw(_log_uniform(-5.0, -1.0))
    sections["solver"] = {"elements": draw(st.integers(4, 8)), "dt": dt,
                          "t_end": max(1, round(0.05 / dt)) * dt,  # whole steps near 0.05
                          "stride": 1}
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for name, keys in sections.items())


def _run_cli(command, text, tmp_path_factory):
    """(exit code, stderr, output directory) of one command on config text."""
    base = tmp_path_factory.mktemp("prop")
    path = base / "run.ini"
    path.write_text(text)
    out = base / "run"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(path), "--out", str(out)])
    return code, err.getvalue(), out


def _assert_refused(code, err, out, outputs):
    assert code in (2, 3)
    assert "error:" in err
    assert not any((out / name).exists() for name in outputs)


class TestEveryConfig:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(text=config_texts())
    def test_simulate_rejects_or_balances(self, text, tmp_path_factory):
        # Either the run is refused with an error line, or its output is
        # finite and meets c04's energy-balance bound.
        code, err, out = _run_cli("simulate", text, tmp_path_factory)
        if code == 0:
            _, _, traj = read_csv(str(out / "trajectory.csv"))
            _, _, energy = read_csv(str(out / "energy.csv"))
            for cols in (traj, energy):
                assert all(np.all(np.isfinite(c)) for c in cols.values())
            bound = 1e-8 * np.max(energy["E_total"])
            assert np.max(np.abs(energy["balance_residual"])) <= bound
        else:
            _assert_refused(code, err, out, ("trajectory.csv", "energy.csv"))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(text=config_texts())
    def test_check_rejects_or_reports(self, text, tmp_path_factory):
        # Both patch drives run in one batched sweep.  A passing check writes
        # a finite report; a failing one (exit 4) still writes its report.
        code, err, out = _run_cli("check", text, tmp_path_factory)
        if code in (0, 4):
            report = json.loads((out / "check_report.json").read_text())
            assert report["passed"] is (code == 0)
            if code == 0:
                values = [c["value"] for s in report["scenarios"] for c in s["checks"]]
                assert np.all(np.isfinite(values))
        else:
            _assert_refused(code, err, out, ("check_report.json",))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(text=config_texts())
    def test_modes_rejects_or_reports(self, text, tmp_path_factory):
        # Either modes.csv holds finite frequencies in ascending order, or
        # the run is refused: a config error names its line (exit 2), a
        # numerical failure says what failed on an error line (exit 3).
        code, err, out = _run_cli("modes", text, tmp_path_factory)
        if code == 0:
            _, _, cols = read_csv(str(out / "modes.csv"))
            omega = cols["omega_rad_s"]
            assert len(omega) >= 1 and np.all(np.isfinite(omega))
            assert np.all(np.diff(omega) >= 0.0)
        else:
            _assert_refused(code, err, out, ("modes.csv", "modes_report.json"))
            line = r"^error: line \d+: " if code == 2 else r"^error: "
            assert re.search(line, err, re.MULTILINE), err

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(text=config_texts())
    def test_limit_rejects_or_reports(self, text, tmp_path_factory):
        # Five systems in one batched sweep; configs outside the fully
        # dynamic regime, and runs whose electrostatic model never moves
        # (zero drive, no steps), are refused.  Exit 4 (not monotone) writes
        # finite reports too.
        code, err, out = _run_cli("limit", text, tmp_path_factory)
        if code in (0, 4):
            _, _, cols = read_csv(str(out / "limit.csv"))
            report = json.loads((out / "limit_report.json").read_text())
            assert report["monotone_decreasing"] is (code == 0)
            assert np.all(np.isfinite(cols["distance"])) and np.isfinite(report["static_gap"])
        else:
            _assert_refused(code, err, out, ("limit.csv", "limit_report.json"))


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.ini")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_exits_with_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(SINGLE_INI.replace("rho = 1.0", "rho = 1.0\nbogus = 2"))
        assert main(["simulate", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_non_finite_value_exits_with_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(SINGLE_INI.replace("amplitude = 1.0", "amplitude = nan"))
        assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 2
        line = SINGLE_INI.splitlines().index("amplitude = 1.0") + 1
        assert f"line {line}:" in capsys.readouterr().err
        assert not (tmp_path / "run" / "trajectory.csv").exists()

    @pytest.mark.parametrize("name,elements", [("patch_bimorph.ini", 3),
                                               ("single_beam.ini", 1)])
    def test_too_few_elements_exits_with_config_error(self, tmp_path, capsys, name, elements):
        cfg = shipped_with(tmp_path, name, elements=elements)
        out = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        with open(cfg, encoding="utf-8") as fh:
            line = fh.read().splitlines().index(f"elements = {elements}") + 1
        assert f"error: line {line}: elements must be >= " in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("name,key,value,section", [
        ("single_beam.ini", "rho", "-1.0", "material.beam"),
        ("patch_bimorph.ini", "patch_start", "0.9", "geometry"),
    ], ids=["negative-density", "patch-interval"])
    def test_model_validity_error_names_key_section_and_line(
            self, tmp_path, capsys, name, key, value, section):
        cfg = shipped_with(tmp_path, name, **{key: value})
        out = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        with open(cfg, encoding="utf-8") as fh:
            line = fh.read().splitlines().index(f"{key} = {value}") + 1
        assert f"error: line {line}: {key} in [{section}]: " in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_unknown_voltage_kind_names_its_line(self, tmp_path, capsys):
        cfg = shipped_with(tmp_path, "single_beam.ini", kind="sawtooth")
        out = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: line 24: kind in [voltage]: "
                                           "unknown voltage kind 'sawtooth'\n")
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("error, code, message", [
        (InputError("x"), 2, "x"),
        (InputError([(3, "y")]), 2, "line 3: y"),
        (OSError("no space left"), 2, "no space left"),
        (NumericalFailure("z"), 3, "z"),
        (ValueError("bad shape"), 3, "bad shape"),
        (np.linalg.LinAlgError("broke down"), 3, "broke down"),
    ], ids=["input", "input-at-a-line", "os", "numerical", "value", "linalg"])
    def test_each_error_class_maps_to_its_exit_code(
            self, single_cfg, tmp_path, capsys, monkeypatch, error, code, message):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "cmd_simulate", failing)
        assert main(["simulate", single_cfg, "--out", str(tmp_path / "run")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unbalanced_run_exits_with_numerical_error(self, tmp_path, capsys):
        # A piezo-stiffened core modulus of 1e16 against a mass density of
        # 1e-4 leaves a free-free step matrix that factors, but so badly
        # conditioned that the energy reaches ~1e78, far from the work put in.
        path = tmp_path / "stiff.ini"
        path.write_text(PATCH_STATIC_INI.replace(
            "rho = 1.0\nc11 = 2.0\nc55 = 1.0\ngamma31 = 0.7\ngamma15 = 0.3\n"
            "eps1 = 1.2\neps3 = 0.8\n",
            "rho = 1e-4\nc11 = 100.0\nc55 = 1.0\ngamma31 = 1e5\ngamma15 = -1.0\n"
            "eps1 = 1.0\neps3 = 1e-6\n", 1))
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--out", str(out)]) == 3
        assert "energy balance residual" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("name", ["single_beam.ini"])
    def test_check_with_a_vanishing_permeability_exits_with_numerical_error(
            self, tmp_path, capsys, name):
        # mu = 1e-18 leaves a step matrix that factors but cannot be solved
        # to any accuracy; the energy ledger of the first run shows it.
        cfg = shipped_with(tmp_path, name, mu="1e-18")
        out = tmp_path / "run"
        assert main(["check", cfg, "--out", str(out)]) == 3
        assert "energy balance residual" in capsys.readouterr().err
        assert not (out / "check_report.json").exists()

    def test_check_on_the_patch_with_a_vanishing_permeability_tracks_the_electrostatic_model(
            self, tmp_path, capsys):
        # The patch model steps mu = 1e-18 stably: check balances both
        # drives (the gate is 1e-8 of max energy; both measure near 4e-14)
        # and passes, and the run stays within round-off of the
        # charge-eliminated model, which mu -> 0 approaches (distance
        # about 3.5 mu above the floor, 2.3e-12 measured here).
        cfg = shipped_with(tmp_path, "patch_bimorph.ini", mu="1e-18")
        out = tmp_path / "run"
        assert main(["check", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "check_report.json").read_text())["passed"] is True
        config = cli._load_config(cfg)
        study = scenarios.run_electrostatic_limit(config.validated(), (1e-18,),
                                                  config.n_elements, config.dt, config.t_end)
        assert study.distances[0] <= 1e-10

    def test_non_finite_state_stops_the_run_after_its_chunk(self, tmp_path, capsys):
        # A drive of 1e308 overflows in the first steps: the run stops after
        # the first chunk of steps, naming them, instead of stepping NaNs to
        # the end and failing the energy balance.
        cfg = shipped_with(tmp_path, "single_beam.ini", amplitude="1e308")
        out = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out)]) == 3
        # numpy's overflow warnings stay quiet: the error line is all of stderr
        assert capsys.readouterr().err == "error: state not finite after steps 1-992 of 2000\n"
        assert not (out / "trajectory.csv").exists()

    def test_linear_algebra_failure_exits_with_numerical_error(
            self, single_cfg, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError is a ValueError; past the argument checks it
        # must not pass for a configuration error.
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalue solver broke down")

        monkeypatch.setattr(cli, "eigenmodes", broken)
        out = tmp_path / "run"
        assert main(["modes", single_cfg, "--out", str(out), "--n", "4"]) == 3
        assert "error: eigenvalue solver broke down" in capsys.readouterr().err
        assert not (out / "modes.csv").exists()

    # A valid config that config_texts drew: patch_mt under full_magnetic on
    # 8 elements, a core layer whose constants span twelve decades and a
    # unit patch layer.  K's diagonal spans 0.24 to 2.3e17, so the static
    # solve of limit's clamped system fails at LAPACK's last pivot and the
    # shift-invert iteration of modes does not converge.
    _ILL_CONDITIONED = """[model]
variant = patch_mt
regime = full_magnetic
bc = free_free
[material.beam]
rho = 0.0031
c11 = 0.316
c55 = 7.62
gamma31 = -1.0
gamma15 = -434000.0
eps1 = 1.32e-06
eps3 = 2.43e-05
mu = 9.15e-05
[material.patch]
rho = 1.0
c11 = 1.0
c55 = 1.0
gamma31 = -1.0
gamma15 = -1.0
eps1 = 1.0
eps3 = 1.0
mu = 1.0
[geometry]
length = 1.0
core_half_thickness = 0.05
patch_thickness = 0.03
patch_start = 0.25
patch_end = 0.75
[voltage.top]
kind = constant
amplitude = 1.0
[voltage.bottom]
kind = constant
amplitude = 1.0
[solver]
elements = 8
dt = 0.001
t_end = 0.05
stride = 1
"""

    @pytest.mark.parametrize("command,names", [
        ("limit", ("static solution of the clamped fully dynamic system: stiffness K on 32 "
                   "dofs", "leading minor 32 of 32 not positive definite")),
        ("modes", ("eigenvalue iteration did not converge", "No convergence")),
    ])
    def test_ill_conditioned_solve_names_its_operator(self, tmp_path_factory, command, names):
        code, err, out = _run_cli(command, self._ILL_CONDITIONED, tmp_path_factory)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert re.search(r"diagonal spans 0\.24 to 2\.28e\+17", err), err
        for name in names:
            assert name in err, err
        assert not any(out.glob("*.csv"))

    def test_undecodable_config_exits_with_config_error(self, tmp_path, capsys):
        path = tmp_path / "binary.ini"
        path.write_bytes(b"[model]\nvariant = \xff\xfe\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err

    def test_non_numeric_mu_exits_with_config_error(self, patch_cfg, tmp_path, capsys):
        assert main(["limit", patch_cfg, "--out", str(tmp_path / "r"), "--mu", "5e-1,x"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestConsoleEntryPoint:
    def test_module_invocation(self, single_cfg, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "piezobeam.cli",
             "simulate", single_cfg, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "trajectory.csv").is_file()
