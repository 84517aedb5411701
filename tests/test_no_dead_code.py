"""No code that nothing calls: every function, class and method defined in
src/piezobeam is used somewhere in src/piezobeam, bar the verification
oracles and test-facing entry points listed here.

A method counts as used only through an attribute access (obj.name); a
function or class only through a loaded name, an attribute or an import.
A local variable or parameter that merely shares a definition's name does
not count."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "piezobeam"

# Kept though no src/ code uses them: oracles the tests check the solvers
# and assembly against (SemiDiscreteSystem.state feeds them), and API the
# tests and README call.
KEPT = {
    "reduce_electrostatic", "stored_energy", "kinetic_energy", "magnetic_energy", "work_rate",
    "recover_pointwise", "read_csv", "run_convergence_study", "pulse_time_of_flight",
    "ScenarioReport.metric", "SemiDiscreteSystem.state", "VoltageSignal.constant",
    "VoltageSignal.sinusoid", "VoltageSignal.step",
}


def test_every_definition_is_named_in_src():
    defined, attributes, loaded = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):  # dunders are called implicitly
                defined += [f"{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    unused = [name for name in defined
              if name.split(".")[-1] not in (attributes if "." in name else attributes | loaded)]
    assert sorted(set(unused) - KEPT) == []
    assert sorted(KEPT - set(unused)) == []  # a kept name that gained a user leaves KEPT
