"""Random command lines over the 7 subcommands, drawn from small pools of
valid and broken manifolds, expressions, flags and files: every run exits
0, 1 or 2 and prints no traceback.  An exception escaping main fails the
test, and so does a numpy RuntimeWarning (pyproject.toml makes it an
error); flagged counts (ResolutionWarning) are expected at short --tmax."""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morseflow import cli
from morseflow.errors import ResolutionWarning

# manifold and function pairs: Morse fields, degenerate fields, fields with
# faults or kinks, and text the parser or the manifold check refuses
FIELDS = (
    ("torus2", "cos(2*pi*x1) + cos(2*pi*x2)"),
    ("torus2", "cos(2*pi*x1) + cos(2*pi*x2) + 0.05*cos(2*pi*(x1 + x2))"),
    ("torus2", "0*x1"),
    ("torus2", "cos(2*pi*x1)"),
    ("torus2", "cos(2*pi*x1)+cos(2*pi*x2)+0.1*sqrt(sin(2*pi*(x1-1/32))^2)"),
    ("torus2", "x1"),
    # probes of counts that are not Morse-Smale: flagged at --grid 6, and a
    # saddle connection along x2 = 1/2
    ("torus2", "sin(2*pi*x1) + 0.5*sin(2*pi*5*x2) + 0.2*cos(2*pi*(3*x1-x2))"),
    ("torus2", "(2+cos(2*pi*x2))*cos(2*pi*x1)"),
    ("circle", "cos(2*pi*x1) + 0.3*sin(2*pi*x1)"),
    ("circle", "cos(2*pi*3*x1)"),
    ("circle", "log(cos(2*pi*x1))"),
    ("circle", "1/sin(2*pi*x1)"),
    ("circle", "exp(exp(exp(3*cos(2*pi*x1))))"),
    ("torusN:3", "cos(2*pi*x1) + cos(2*pi*x2) + cos(2*pi*x3)"),
    ("torusN:5", "cos(2*pi*x1) + cos(2*pi*x5)"),
    ("sphere2", "x3"),
    ("sphere2", "x1*x2*x3"),
    ("sphere2", "x3 + 0.1*sqrt(x1^2)"),
    ("rp1", "(x2^2) / (x1^2 + x2^2)"),
    ("rp2", "(x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)"),
    ("rp2", "x1"),
    ("rp3", "(x2^2 + 2*x3^2 + 3*x4^2) / (x1^2 + x2^2 + x3^2 + x4^2)"),
    ("torus2", "cos(2*pi*x1"),
    ("torus2", "x9"),
    ("circle", "cos(2*pi*x1)^0.5"),
    ("klein", "x1"),
    ("torusN:0", "x1"),
    ("torusN:x", "x1"),
)
DIMS = {"torus2": 2, "circle": 1, "torusN:3": 3, "torusN:5": 5, "sphere2": 3, "rp1": 2,
        "rp2": 3, "rp3": 4}
# at most one of these is appended; a later flag overrides an earlier one
BROKEN = ([],) * 20 + (["--tmax", "0"], ["--epsilon", "nan"], ["--grid", "1"],
                       ["--out", "csv"], ["--out", "xml"], ["--scan", "64"],
                       ["--config", "missing.cfg"], ["--manifold"], ["--bogus"])


# --from coordinates beyond [-1, 1]: non-finite, and large enough that their
# squares overflow
EXTREME = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1.7976931348623157e308)

LOOPS = ("half_turn.csv", "broken.csv", "missing.csv", "nan.csv", "inf.csv", "huge.csv",
         "reversed.csv")


@pytest.fixture(scope="module")
def loop_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("loops")
    rows = [",".join(repr(float(v)) for v in (t, np.cos(np.pi * t), np.sin(np.pi * t)))
            for t in np.linspace(0.0, 1.0, 33)]
    (d / "half_turn.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    # frame 4 scaled to nan, inf and 1e308, and the rows in reverse theta order
    t = 0.125
    for name, c in (("nan.csv", math.nan), ("inf.csv", math.inf), ("huge.csv", 1e308)):
        frame4 = ",".join(repr(v) for v in (t, c * math.cos(math.pi * t), c * math.sin(math.pi * t)))
        (d / name).write_text("\n".join(rows[:4] + [frame4] + rows[5:]) + "\n", encoding="utf-8")
    (d / "reversed.csv").write_text("\n".join(rows[::-1]) + "\n", encoding="utf-8")
    (d / "broken.csv").write_text("0,1\nnot,a,number\n", encoding="utf-8")
    return d


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def command_lines(draw):
    cmd = draw(st.sampled_from(sorted(cli._DISPATCH)))
    manifold, function = draw(st.sampled_from(FIELDS))
    argv = [cmd, "--base" if cmd == "floer" else "--manifold", manifold, "--function", function,
            "--tmax", repr(draw(st.floats(0.01, 5.0)))]
    argv += draw(_flag("--grid", st.integers(2, 6).map(str)))
    argv += draw(_flag("--epsilon", st.floats(0.01, 40.0).map(repr)))
    if cmd in ("critpoints", "flow"):
        argv += draw(_flag("--out", st.sampled_from(("json", "csv"))))
    if cmd == "flow":
        # mostly as many coordinates as the manifold's fields have variables
        size = draw(st.sampled_from((DIMS.get(manifold, 2),) * 3 + (1, 4)))
        coord = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(EXTREME)).map(repr)
        coords = draw(st.lists(coord, min_size=size, max_size=size))
        argv += ["--from", ",".join(coords)]
    if cmd == "maslov":
        argv += ["--loop", draw(st.sampled_from(LOOPS))]
    return argv + draw(st.sampled_from(BROKEN))


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
def test_random_command_lines_exit_cleanly(loop_dir, argv):
    argv = [str(loop_dir / a) if a in LOOPS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
