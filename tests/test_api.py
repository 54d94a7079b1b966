"""Top-level package names: the library surface the README documents."""

import re
from pathlib import Path

import morseflow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    for name in morseflow.__all__:
        assert getattr(morseflow, name) is not None


def test_readme_library_import_line():
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^from morseflow import \([^)]*\)", text, re.MULTILINE)
    assert found is not None
    exec(found.group(0), {})
