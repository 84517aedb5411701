"""Shared fixtures and the acceptance-criteria terminal summary.

The tests in test_acceptance.py are named test_c01_* .. test_c11_*; after a
run, the hook below prints one pass/fail line per criterion so the overall
gate can be read at a glance.
"""

import os
import re

import numpy as np
import pytest

CRITERIA = {
    "c01": "energy functions match the assembled quadratic forms",
    "c02": "stiffness equals the finite-difference curvature of stored energy",
    "c03": "unforced midpoint runs conserve energy over 10^4 steps",
    "c04": "forced runs balance energy change against injected work",
    "c05": "single-beam bending is exactly voltage-free",
    "c06": "patch voltage parity selects stretching vs bending",
    "c07": "charge elimination matches the directly assembled reduced model",
    "c08": "vanishing permeability recovers the reduced dynamics",
    "c09": "modal frequencies converge to closed-form values",
    "c10": "stretching wave speeds match the dispersion relation",
    "c11": "simulate CLI output is byte-reproducible",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_(c\d\d)_")


def pytest_configure(config):
    # pyproject's pythonpath setting puts src/ on sys.path of this process
    # only; the subprocess tests (c11, the console entry point) import the
    # package from the same src/ through PYTHONPATH.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, ()):
            match = _PATTERN.search(getattr(rep, "nodeid", ""))
            if match is None:
                continue
            key = match.group(1)
            if status == "passed":
                outcomes.setdefault(key, "pass")
            else:
                outcomes[key] = "FAIL"
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key, label in CRITERIA.items():
        verdict = outcomes.get(key, "not run")
        terminalreporter.write_line(f"{key} {verdict:7s} {label}")
