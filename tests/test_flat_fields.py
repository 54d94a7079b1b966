"""A field so flat that the sweep's absolute gradient tolerance cannot pin
its critical points down is refused, not listed with spurious points."""

import json

import pytest

from morseflow import cli

TORUS = "cos(2*pi*x1) + cos(2*pi*x2)"


@pytest.mark.parametrize("argv", [
    ["critpoints", "--manifold", "torus2", "--function", f"1e-10*({TORUS})"],
    ["connections", "--manifold", "torus2", "--function", f"1e-10*({TORUS})"],
    ["critpoints", "--manifold", "sphere2", "--function", "1e-12*(x3 + 0.1*x1*x2)"],
])
def test_flat_field_is_refused(capsys, argv):
    # at 1e-10 the torus field used to list 68 points with exit 0, the
    # sphere field 200: each point's rows sit farther apart than the dedupe radius
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseflow: error: critical point (")
    assert "above 5e-07: f is too flat, scale it up" in captured.err


def test_small_but_not_flat_field_lists_its_four_points(capsys):
    assert cli.main(["critpoints", "--manifold", "torus2", "--function", f"1e-8*({TORUS})"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert sorted(json.loads(ln)["index"] for ln in lines[1:]) == [0, 1, 1, 2]
