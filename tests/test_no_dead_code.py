"""No code that nothing calls: every function, class and method defined in
src/piezobeam is named somewhere in src/piezobeam, bar the verification
oracles and test-facing entry points listed here."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "piezobeam"

# Kept though no src/ code names them: oracles the tests check the solvers
# and assembly against, and API the tests and README call.
KEPT = {
    "reduce_electrostatic", "stored_energy", "kinetic_energy", "magnetic_energy", "work_rate",
    "recover_pointwise", "read_csv", "run_convergence_study", "pulse_time_of_flight",
    "ScenarioReport.metric", "VoltageSignal.constant", "VoltageSignal.sinusoid",
}


def test_every_definition_is_named_in_src():
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):  # dunders are called implicitly
                defined += [f"{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unnamed = [name for name in defined if name.split(".")[-1] not in named]
    assert sorted(set(unnamed) - KEPT) == []
    assert sorted(KEPT - set(unnamed)) == []  # a kept name that gained a caller leaves KEPT
