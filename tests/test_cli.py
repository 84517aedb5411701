"""End-to-end checks of the command line driver (in-process and subprocess)."""

import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from piezobeam import __version__
from piezobeam.assembly import build_system
from piezobeam.cli import _probe_position, main
from piezobeam.config import parse_config, resolved_dt
from piezobeam.forms import eval_field_at
from piezobeam.output import read_csv
from piezobeam.solvers import simulate

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = [os.path.join(CONFIGS, name) for name in ("single_beam.ini", "patch_bimorph.ini")]


def shipped_with(tmp_path, name, **solver):
    """A shipped config with some [solver] keys rewritten."""
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        key = line.partition("=")[0].strip()
        if key in solver:
            lines[i] = f"{key} = {solver[key]}"
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
        traj = simulate(system, zero, zero, resolved_dt(config), config.t_end,
                        stride=config.stride)
        layout = system.layout
        for field in layout.fields:
            px = _probe_position(layout, field, config.probe)
            ref = []
            for x in traj.X:
                full = system.embed(x)
                arrays = {name: full[layout.dof_slice(name)] for name in layout.fields}
                ref.append(eval_field_at(layout, arrays, field, px))
            ref = np.array(ref)
            got = cols[f"{field}_probe"]
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), field
            if not config.validated().is_patch and field in ("w", "psi"):
                assert np.all(got == 0.0), field

    def test_large_patch_run_builds_no_dense_operator(self, tmp_path):
        cfg = shipped_with(tmp_path, "patch_bimorph.ini", elements=2048, t_end=0.02,
                           stride=1)
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            assert main(["simulate", cfg, "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = json.loads((out / "simulate_report.json").read_text())
        n = report["n_dofs"]
        assert n > 10000
        # one dense n x n float array would take 8 n^2 bytes (~840 MB here)
        assert peak < 0.05 * 8 * n * n
        assert report["max_balance_residual"] <= 1e-8 * report["max_energy"]


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

    def test_svg_flag(self, single_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["modes", single_cfg, "--out", str(out), "--svg"]) == 0
        assert (out / "modes.svg").is_file()

    def test_lanczos_path_on_the_shipped_single_beam(self, tmp_path):
        # 2052 dofs, above the dense limit: rigid modes and the charge gauge
        # make K singular, which the negative shift must absorb.
        cfg = shipped_with(tmp_path, "single_beam.ini", elements=512)
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["modes", cfg, "--out", str(out), "--n", "16"]) == 0
            report = json.loads((out / "modes_report.json").read_text())
            assert report["n_zero"] == 4
            runs.append((out / "modes.csv").read_bytes())
        assert runs[0] == runs[1]


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

    def test_corruption_hook_ignores_single_beams(self, single_cfg, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("PIEZOBEAM_CORRUPT_COUPLING", "1")
        assert main(["check", single_cfg, "--out", str(tmp_path / "r")]) == 0


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

    def test_rejects_electrostatic_config(self, tmp_path):
        path = tmp_path / "static.ini"
        path.write_text(PATCH_STATIC_INI)
        assert main(["limit", str(path), "--out", str(tmp_path / "r")]) == 2


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
