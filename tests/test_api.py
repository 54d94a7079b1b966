"""Top-level package names: the library surface the README documents."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import morseflow

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# library surface that no code in src/ calls: the acceptance tests and
# library users do
UNCALLED_SURFACE = {
    "count_connecting",   # flow: one pair's count
    "concatenate",        # maslov: joins loops (np.concatenate shares the name)
    "from_samples",       # maslov.LagrangianLoop: a loop from arrays
    "one",                # novikov.NovikovElement: the unit
}


def test_all_names_resolve():
    for name in morseflow.__all__:
        assert getattr(morseflow, name) is not None


def test_readme_library_import_line():
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^from morseflow import \([^)]*\)", text, re.MULTILINE)
    assert found is not None
    exec(found.group(0), {})


def test_benchmark_tracer_entry_points_resolve():
    # a renamed entry point would silently zero its layer metric in perfbench
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    looked_up = list(tracing.TIMED.values()) + [
        ("morseflow.flow", "make_rhs"), ("morseflow.geometry", "seed_points"),
        ("morseflow.novikov", "mul"), ("morseflow.funcexpr", "ScalarField")]
    for modname, attr in looked_up:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"
    assert "from_text" in vars(importlib.import_module("morseflow.funcexpr").ScalarField)


def test_every_function_in_src_is_referenced():
    # code that only tests call belongs in tests/: every module-level
    # function and non-dunder method is named somewhere in src/ outside its
    # own body, as a name or an attribute
    defs, uses = [], []
    for path in sorted((ROOT / "src" / "morseflow").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for d in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(d, ast.FunctionDef) and not (
                        d.name.startswith("__") and d.name.endswith("__")):
                    defs.append((path.name, d.name, d.lineno, d.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.append((path.name, name, node.lineno))
    unreferenced = [f"{file}:{name}" for file, name, start, end in defs
                    if name not in UNCALLED_SURFACE
                    and not any(n == name and not (f == file and start <= line <= end)
                                for f, n, line in uses)]
    assert unreferenced == []
