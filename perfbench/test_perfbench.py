"""Tests of the benchmark harness itself (not part of the package's suite).

    python -m pytest perfbench -q

Smoke runs shrink the large meshes so every workload finishes in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _bench(*args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _smoke(workload, trace=0, env=None) -> dict:
    return _result(_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                          "--trace", str(trace), "--smoke", env=env))


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        list(tracer.LAYER_METRICS)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_passes_every_check(workload):
    r = _smoke(workload)
    assert r["correct"] and r["failed"] == 0
    per_pass = len(workloads._PLANS[workload])
    assert r["attempted"] >= 4 * per_pass and r["attempted"] % per_pass == 0
    assert list(r["metrics"]) == [name for name, _ in run.E2E_METRICS]
    assert all(m["value"] > 0.0 for m in r["metrics"].values())


def test_negative_control_counts_the_corrupted_check_as_failed():
    env = dict(os.environ, PIEZOBEAM_CORRUPT_COUPLING="1")
    r = _smoke("record-every-step", env=env)
    passes = r["attempted"] // 3
    # Only the patch check sees the corrupted coupling; it exits 4 every pass,
    # so the program itself reported the fault and no output is silently wrong.
    assert r["failed"] == passes
    assert r["correct"]


def test_trace_reports_every_layer_metric():
    r = _smoke("study-many-systems", trace=1)
    assert r["correct"] and r["failed"] == 0
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert list(m) == [name for name, _, _ in tracer.LAYER_METRICS]
    # limit: 5 trajectories of round(2.0/0.001) steps and 7 system builds;
    # modes: two more systems and two dense eigensolves.
    assert m["kernels.steps"] == 10000 and m["kernels.recorded_rows"] == 10005
    assert m["assembly.systems"] == 9 and m["solvers.factor_builds"] == 5
    assert m["solvers.eigen_dofs"] == (5 * 96 + 5) + (4 * 96 + 4)
    for name in ("cli.import_s", "config.parse_s", "mesh.build_s", "assembly.assemble_s",
                 "solvers.factor_s", "solvers.ledger_s", "solvers.eigen_s",
                 "kernels.sweep_s", "scenarios.self_s", "scenarios.static_s",
                 "output.write_s", "output.bytes", "kernels.bytes_per_step"):
        assert m[name] > 0.0, name


def test_layer_self_time_excludes_children():
    def span(name, parent, cpu):
        s = tracer.Span(name, parent)
        s.cpu = cpu
        return s

    spans = [span("solvers.simulate", -1, 5.0),
             span("solvers.step_operator", 0, 1.0),
             span(tracer.FACTOR_BUILD, 1, 0.8),
             span("kernels.midpoint_sweep", 0, 3.0),
             span("solvers.step_operator", -1, 0.1)]
    spans[3].counts = {"steps": 10, "rows": 2, "entries": 12, "bytes_per_step": 100}
    m = tracer.layer_metrics(spans)
    assert m["solvers.ledger_s"] == pytest.approx(1.0)
    assert m["solvers.factor_s"] == pytest.approx(1.1)
    assert m["solvers.factor_builds"] == 1 and m["solvers.factor_hit_ratio"] == 0.5
    assert m["kernels.step_us"] == pytest.approx(3e5)


def test_checks_reject_wrong_simulate_output(tmp_path):
    inputs = workloads.prepare("record-every-step", 5, ROOT, str(tmp_path), smoke=True)
    cmd = inputs["commands"][2]
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; sys.path.insert(0, 'src'); import piezobeam.cli as c; "
                           f"sys.exit(c.main({cmd['argv']!r}))"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert checks.check(cmd) is None
    path = os.path.join(cmd["out"], "trajectory.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = [i for i, ln in enumerate(lines) if not ln.startswith("#")][0]
    col = lines[header].split(",").index("w_max")
    row = lines[-1].split(",")
    row[col] = "1e-300"
    lines[-1] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert "bending column w_max" in checks.check(cmd)


def test_rod_speeds_give_the_shipped_spectrum():
    cp = workloads.read_config(os.path.join(ROOT, workloads.SINGLE))
    c_slow, c_fast = checks.rod_speeds(cp)
    # Free-free rod: omega_k = k*pi*c/L; the shipped beam has L = 1.
    assert 3.1415926 * c_slow == pytest.approx(3.606, rel=1e-3)
    assert 3.1415926 * c_fast == pytest.approx(6.120, rel=1e-3)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "simulate-large", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
