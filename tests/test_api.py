"""Top-level package names: the library surface the README documents."""

import importlib
import importlib.util
import re
from pathlib import Path

import morseflow

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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
