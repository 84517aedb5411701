"""One benchmark process: set-up timing or the timed passes of a workload.

    python3 perfbench/worker.py setup   INPUTS.json
    python3 perfbench/worker.py measure INPUTS.json --seconds S [--trace]

INPUTS.json is what workloads.prepare returned, plus the checkout root.
BLAS and OpenMP are pinned to BLAS_THREADS threads before numpy is first
imported.  The last line of standard output is this process's result as
JSON.
"""

from __future__ import annotations

import os
import sys
import time

# One thread: the outputs are byte-identical across thread counts, and on a
# 2-core machine a second BLAS thread made pass times less steady and added a
# quarter more CPU time per pass (see README.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from checks import check  # noqa: E402 - imports numpy, after the thread pins

MIN_PASSES = 3


def _import_cli(root: str):
    """Import piezobeam.cli from the checkout's src/, and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import piezobeam.cli as cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"piezobeam imported from {where}, not from {src}")
    return cli


def setup(inputs: dict) -> dict:
    """CPU time from a fresh interpreter to the first step of every config:
    import piezobeam.cli, parse each config, build its system and, when it
    time-steps, factor its step matrix."""
    c0 = time.process_time()
    _import_cli(inputs["root"])
    import_s = time.process_time() - c0
    from piezobeam.assembly import build_system
    from piezobeam.config import parse_config, resolved_dt
    from piezobeam.solvers import step_operator

    for entry in inputs["setup"]:
        with open(entry["config"], encoding="utf-8") as fh:
            config = parse_config(fh.read())
        system = build_system(config.validated(), config.n_elements)
        if entry["time_steps"]:
            step_operator(system, resolved_dt(config))
    return {"setup_s": time.process_time() - c0, "import_s": import_s}


class Runner:
    """Runs whole passes over a workload's commands and checks every output."""

    def __init__(self, cli, commands):
        self.cli, self.commands = cli, commands
        self.attempted = self.failed = 0
        self.wrong = []  # outputs that failed a check after exit 0

    def run_pass(self) -> tuple:
        """(CPU s, wall s) spent inside the CLI over one pass; checks excluded."""
        cpu = wall = 0.0
        for cmd in self.commands:
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.cli.main(cmd["argv"])
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                rc = f"raised {exc!r}"
            cpu += time.process_time() - c0
            wall += time.perf_counter() - w0
            self.attempted += 1
            reason = f"exit {rc}" if rc != 0 else check(cmd)
            if reason is not None:
                self.failed += 1
                if rc == 0:
                    self.wrong.append(f"{cmd['kind']} {cmd['config']}: {reason}")
                if self.failed <= 3:
                    print(f"failed: {' '.join(cmd['argv'][:2])}: {reason}", file=sys.stderr)
        return cpu, wall

    def run_for(self, seconds: float) -> list:
        """Whole passes until `seconds` of wall time have gone (MIN_PASSES at least)."""
        samples = []
        start = time.perf_counter()
        while len(samples) < MIN_PASSES or time.perf_counter() - start < seconds:
            samples.append(self.run_pass())
        return samples


def measure(inputs: dict, seconds: float, trace: bool) -> dict:
    cli = _import_cli(inputs["root"])
    from piezobeam.kernels import backend_name

    runner = Runner(cli, inputs["commands"])
    runner.run_pass()  # warm-up, untimed
    if not trace:
        plain = runner.run_for(seconds)
        result = {"cpu_s": [c for c, _ in plain], "wall_s": [w for _, w in plain]}
    else:
        # Untraced and traced passes alternate, so drift in the machine's
        # speed during the run does not show up as tracing overhead.
        from tracer import Tracer, layer_metrics, median_metrics

        tracer = Tracer()
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
            plain.append(runner.run_pass())
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.remove()
            layers.append(layer_metrics(tracer.take()))
        result = {"cpu_s": [c for c, _ in plain], "wall_s": [w for _, w in plain],
                  "traced_cpu_s": [c for c, _ in traced], "missing": tracer.missing,
                  "layers": median_metrics(layers)}
        result["layers"]["trace.overhead_s"] = statistics.median(
            t - p for (t, _), (p, _) in zip(traced, plain))
    result["backend"] = backend_name()
    result.update(attempted=runner.attempted, failed=runner.failed, wrong=runner.wrong,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def main(argv) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("inputs")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    if args.mode == "setup":
        result = setup(inputs)
    else:
        result = measure(inputs, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
