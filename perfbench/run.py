#!/usr/bin/env python3
"""piezobeam benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above perfbench/.  A run
starts fresh Python processes (perfbench/worker.py), with BLAS and OpenMP
pinned to one thread, one after another:

  * SETUP_RUNS set-up processes, half before and half after the measuring
    process.  Each times, in CPU seconds, the import of piezobeam.cli, the
    parse of the workload's configs, their system builds and, for configs
    that time-step, the step-matrix factorizations.  setup_s is the median.
  * One measuring process.  It runs one untimed warm-up pass over the
    workload's CLI commands, then whole timed passes for S seconds, and
    checks every command's output.  cpu_s is the CPU time of the fastest
    pass.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
ones instead: the measuring process alternates untraced and traced passes
(see tracer.py).  The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit status 2 without a result when the checkout holds no piezobeam source
or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import LAYER_METRICS

SETUP_RUNS = 6
RUN_LIMIT_S = 170.0  # every process of a run ends within this, or the run fails
E2E_METRICS = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(Exception):
    pass


def _child(mode: str, inputs_path: str, *extra: str, deadline: float) -> dict:
    """Run one worker process to its end, or kill it at `deadline` (perf_counter)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, inputs_path, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process did not end within the run's "
                         f"{RUN_LIMIT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    for rel in ("src/piezobeam/cli.py", workloads.PATCH, workloads.SINGLE):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} not found under {ROOT}")
    out = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out)
    try:
        inputs = workloads.prepare(args.workload, args.seed, ROOT, out, smoke=args.smoke)
        inputs["root"] = ROOT
        inputs_path = os.path.join(out, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        # Half the set-up processes run before the measuring process and half
        # after it, so their median spans more than one speed regime.
        half = 1 if args.smoke else SETUP_RUNS // 2
        setups = [_child("setup", inputs_path, deadline=deadline) for _ in range(half)]
        extra = ["--seconds", repr(args.seconds)] + (["--trace"] if args.trace else [])
        m = _child("measure", inputs_path, *extra, deadline=deadline)
        setups += [_child("setup", inputs_path, deadline=deadline) for _ in range(half)]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    # The host's speed shifts between regimes lasting tens of seconds, and
    # contention only ever adds CPU time, so the least disturbed pass is the
    # steadiest estimate of the program's own cost.
    cpu_s = min(m["cpu_s"])
    print(f"workload {args.workload} seed {args.seed} backend {m['backend']} "
          f"drive amplitude={inputs['drive'][0]:.6g} frequency={inputs['drive'][1]:.6g}")
    print(f"passes {len(m['cpu_s'])}: cpu_s min {cpu_s:.4f} median "
          f"{statistics.median(m['cpu_s']):.4f}; wall_s min {min(m['wall_s']):.4f} "
          f"median {statistics.median(m['wall_s']):.4f} (reference only)")
    for line in m["wrong"]:
        print(f"wrong output: {line}")
    if args.trace:
        layers = dict(m["layers"], **{
            "cli.import_s": statistics.median(s["import_s"] for s in setups)})
        if m["missing"]:
            print(f"not traced (missing): {', '.join(m['missing'])}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "cpu_s": cpu_s,
            "steps_per_s": inputs["steps_per_pass"] / cpu_s,
            "peak_rss_mb": m["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}
    return {"correct": not m["wrong"], "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink the large meshes and set up once (harness tests)")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
