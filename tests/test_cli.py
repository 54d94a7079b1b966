"""Command line behavior: exit codes, report shape, determinism, config
precedence.  Everything drives main(argv) in-process."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from morseflow import cli, floer, flow, geometry, maslov, pipeline
from morseflow.funcexpr import ScalarField

TORUS_ARGS = ["--manifold", "torus2", "--function", "cos(2*pi*x1) + cos(2*pi*x2)"]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_critpoints_json(capsys):
    code, out, _ = run_cli(capsys, ["critpoints"] + TORUS_ARGS)
    assert code == 0
    lines = out.strip().split("\n")
    head = json.loads(lines[0])
    assert head["config"]["manifold"] == "torus2"
    records = [json.loads(ln) for ln in lines[1:]]
    assert len(records) == 4
    assert sorted(r["index"] for r in records) == [0, 1, 1, 2]


def test_nonperiodic_function_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["critpoints", "--manifold", "torus2",
                                      "--function", "x1"])
    assert code == 2
    assert "periodic" in err


def test_periodicity_checked_in_every_variable_of_torus6(capsys):
    # the check probes each of the six variables, more than it has probe values
    code, out, err = run_cli(capsys, ["critpoints", "--manifold", "torusN:6",
                                      "--function", "cos(2*pi*x1) + x6"])
    assert code == 2
    assert "not 1-periodic in x6" in err


def test_bad_expression_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["critpoints", "--manifold", "torus2",
                                    "--function", "cos(2*pi*x1"])
    assert code == 2


def test_unknown_manifold_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["critpoints", "--manifold", "klein",
                                    "--function", "x1"])
    assert code == 2
    listed = err.split("(expected ", 1)[1].split(")", 1)[0]
    names = [name.strip() for name in listed.split(",")]
    assert {"circle", "rp3"} <= set(names)
    for name in names:
        geometry.parse_manifold(name.replace(":k", ":3"))
    # the --manifold help text lists the same names
    assert cli.main(["critpoints", "--help"]) == 0
    assert listed in " ".join(capsys.readouterr().out.split())


def test_missing_function_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["critpoints", "--manifold", "torus2"])
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_scale_variant_projective_field_rejected(capsys):
    code, _, err = run_cli(capsys, ["critpoints", "--manifold", "rp2",
                                    "--function", "x1^2 + x2^2 + x3^2"])
    assert code == 2
    assert "scale" in err


def test_domain_error_exits_1(capsys):
    # the rp3 weight field has a pair of index (2, 1) with no index-1 end
    # under f or -f; counting refuses it
    num = "1*x2^2 + 2*x3^2 + 3*x4^2"
    den = "x1^2 + x2^2 + x3^2 + x4^2"
    code, _, err = run_cli(capsys, ["homology", "--manifold", "rp3",
                                    "--function", f"({num}) / ({den})"])
    assert code == 1
    assert err.startswith("morseflow: error:")


def test_domain_error_inside_flow_exits_1(capsys):
    # d/dx1 sqrt(x1^2) divides by zero on the x1 = 0 circle the flow starts on
    code, _, err = run_cli(capsys, ["flow", "--manifold", "sphere2", "--function",
                                    "x3 + 0.1*sqrt(x1^2)", "--from", "0,0.6,0.8"])
    assert code == 1
    assert err.startswith("morseflow: error:")
    assert "Traceback" not in err


def test_float_fault_in_sweep_is_domain_error_without_warning(capsys):
    # the odd grid seeds the x1 = 0 circle, where numpy scalars divide by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, ["critpoints", "--manifold", "sphere2", "--function",
                                        "x3 + 0.1*sqrt(x1^2)", "--grid", "5"])
    assert code == 1
    assert err.startswith("morseflow: error:")
    assert "Warning" not in err


def test_fault_at_a_seed_is_domain_error_without_warning(capsys):
    # the seed column x1 = 1/32 sits on the zero of sin(2*pi*(x1 - 1/32)),
    # where the derivative of the sqrt divides zero by zero
    code, out, err = run_cli(capsys, [
        "critpoints", "--manifold", "torus2", "--function",
        "cos(2*pi*x1)+cos(2*pi*x2)+0.1*sqrt(sin(2*pi*(x1-1/32))^2)"])
    assert code == 1
    assert out == ""
    assert err.startswith("morseflow: error: gradient evaluation failed")
    assert "Warning" not in err


def test_seed_grid_limit(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["critpoints", "--manifold", "torusN:5",
                                      "--function", "cos(2*pi*x1) + cos(2*pi*x5)"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "1048576 seeds on torusN:5" in err and "largest grid that fits is 9" in err
    code, _, err = run_cli(capsys, ["critpoints", "--manifold", "circle", "--function",
                                    "cos(2*pi*x1)", "--grid", "70000"])
    assert code == 2 and "largest grid that fits is 65536" in err
    code, out, _ = run_cli(capsys, ["critpoints", "--manifold", "torusN:4", "--function",
                                    "cos(2*pi*x1) + cos(2*pi*x2) + cos(2*pi*x3) + cos(2*pi*x4)",
                                    "--grid", "8"])
    assert code == 0
    indices = [json.loads(line)["index"] for line in out.splitlines()[1:]]
    assert [indices.count(k) for k in range(5)] == [1, 4, 6, 4, 1]


def test_torus_dimension_no_seed_grid_fits_refused(capsys):
    # the smallest grid, 2, gives 2^k seeds: refused before the field is built
    for k in (17, 1_000_000):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["critpoints", "--manifold", f"torusN:{k}",
                                          "--function", "x1"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith(f"morseflow: usage error: torusN:{k}:")
        assert "the largest torusN:k that fits is torusN:16" in err
    assert geometry.parse_manifold("torusN:16") == geometry.torus(16)


@pytest.mark.parametrize("cmd", ["critpoints", "connections", "homology"])
@pytest.mark.parametrize("manifold,function,at", [
    # the derivative of log u is u'/u, finite where u < 0, so Newton
    # converges at x1 = 0.5 where f = log(-1) or log(-0.5)
    ("circle", "log(cos(2*pi*x1))", "(0.5,)"),
    ("torus2", "log(cos(2*pi*x1)+0.5) + cos(2*pi*x2)", "(0.5, "),
])
def test_critical_point_where_f_is_undefined_refused(capsys, cmd, manifold, function, at):
    code, out, err = run_cli(capsys, [cmd, "--manifold", manifold, "--function", function])
    assert code == 1 and out == ""
    assert err.startswith(f"morseflow: error: f is undefined at the critical point {at}")


def test_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    for cmd in cli._DISPATCH:
        ns = parser.parse_args([cmd])
        assert ns.epsilon == floer.EPSILON_DEFAULT
        assert ns.tmax == flow.T_MAX_DEFAULT


SWEEPING = ["critpoints", "connections", "flow", "homology", "arnold", "floer"]
_FLOW_START = {"sphere2": "0.6,0,0.8", "circle": "0.2", "torus2": "0.2,0.3"}


@pytest.mark.parametrize("cmd", SWEEPING)
@pytest.mark.parametrize("argv,needle", [
    # the sweep misses the minimum on the x1 = 0 kink; the two maxima it finds
    # have the Euler characteristic 2 of S^2, but there is no minimum
    (["--manifold", "sphere2", "--function", "x3 + 0.1*sqrt(x1^2)"],
     "Euler characteristic 2 (sphere2: 2) and indices [2] (need 0 and 2)"),
    # a 3-point grid finds two minima and one maximum of cos(16 pi x)
    (["--manifold", "circle", "--function", "cos(2*pi*8*x1)", "--grid", "3"],
     "Euler characteristic 1 (circle: 0)"),
    # a narrow dip on a slope adds a minimum and a saddle near (0.25, 0.3);
    # the 64-point grid finds the saddle but not the minimum: 5 points
    (["--manifold", "torus2", "--function", "cos(2*pi*x1) + cos(2*pi*x2) - 0.2*exp(400*("
      "cos(2*pi*(x1-0.25)) + cos(2*pi*(x2-0.3)) - 2))", "--grid", "64"],
     "Euler characteristic -1 (torus2: 0)"),
    # scaled by 1e6, only the maximum converges below the residual tolerance
    (["--manifold", "torus2", "--function",
      "1e6*(cos(2*pi*x1) + cos(2*pi*x2) + 0.05*sin(2*pi*(x1+2*x2)))"],
     "Euler characteristic 1 (torus2: 0) and indices [2]"),
    # a constant: every seed is a degenerate minimum
    (["--manifold", "torus2", "--function", "0*x1"],
     "Euler characteristic 256 (torus2: 0)"),
])
def test_impossible_critical_points_refused(capsys, cmd, argv, needle):
    if cmd == "flow":
        argv = argv + ["--from", _FLOW_START[argv[1]]]
    code, out, err = run_cli(capsys, [cmd] + argv)
    assert code == 1
    assert out == ""
    assert err.startswith("morseflow: error:")
    assert needle in err


def test_disconnected_ranks_refused(capsys):
    # the 4-point grid finds 8 of the 12 critical points (chi 0, a minimum and
    # a maximum); seeds drained towards the missed points are retired as
    # stalled, 8 of the 16 counts are flagged and b0 = b2 = 0.  Retiring them
    # takes about 0.1 s; running them to t_max took over 2 s.
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run_cli(capsys, ["homology", "--manifold", "torus2", "--function",
                                          "cos(2*pi*3*x1) + cos(2*pi*x2)", "--grid", "4"])
    assert time.perf_counter() - t0 < 0.5
    assert code == 1
    assert out == ""
    assert err.startswith("morseflow: error: ranks [0, 0, 0] have b0 = 0 and b2 = 0")
    assert "8 of 16 counts are flagged" in err


_FLAGGED_AT_GRID_6 = ["--manifold", "torus2", "--function",
                      "sin(2*pi*x1) + 0.5*sin(2*pi*5*x2) + 0.2*cos(2*pi*(3*x1-x2))"]


@pytest.mark.parametrize("cmd", ["homology", "arnold", "floer"])
def test_flagged_counts_refused(capsys, cmd):
    # the 6-point grid finds 16 of the 24 critical points; seeds draining
    # towards the missed ones are not captured, and 30 of the 64 counts are
    # flagged, while the ranks still read (1, 2, 1) by luck
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run_cli(capsys, [cmd] + _FLAGGED_AT_GRID_6 + ["--grid", "6"])
    assert (code, out) == (1, "")
    assert err.startswith("morseflow: error: 30 of 64 counts are flagged")


def test_flagged_counts_still_listed_and_resolved_by_a_finer_grid(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run_cli(capsys, ["connections"] + _FLAGGED_AT_GRID_6 + ["--grid", "6"])
    assert code == 0
    assert sum(c["flagged"] for c in json.loads(out)["counts"]) == 30
    code, out, err = run_cli(capsys, ["homology"] + _FLAGGED_AT_GRID_6 + ["--grid", "10"])
    assert (code, err) == (0, "")
    assert json.loads(out)["ranks"] == [1, 2, 1]


def test_homology_report_shape(capsys):
    code, out, _ = run_cli(capsys, ["homology"] + TORUS_ARGS)
    assert code == 0
    d = json.loads(out)
    assert d["ranks"] == [1, 2, 1]
    assert d["euler"] == 0
    assert d["morse"] is True
    assert d["inequalities"]["all_ok"] is True
    assert d["boundary_matrices"]["1"] == ["00"]
    assert [c["raw_count"] for c in d["counts"]] == [2, 2, 2, 2]


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, ["homology"] + TORUS_ARGS)
    _, out2, _ = run_cli(capsys, ["homology"] + TORUS_ARGS)
    assert out1 == out2


def test_flow_csv_shape(capsys):
    code, out, _ = run_cli(capsys, ["flow", "--manifold", "sphere2",
                                    "--function", "x3", "--from", "1,0,0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# config:")
    assert lines[2] == "t,x1,x2,x3,f"
    last = lines[-1].split(",")
    assert float(last[3]) < -0.999  # ends near the south pole


@pytest.mark.parametrize("out", ["csv", "json"])
@pytest.mark.parametrize("manifold,function,start", [
    ("torus2", "cos(2*pi*x1) + cos(2*pi*x2)", "0.23,0.41"),
    ("sphere2", "x3 + 0.3*x1*x2", "0.6,0,0.8"),
])
def test_flow_report_f_is_the_field_at_each_row(capsys, out, manifold, function, start):
    m = geometry.parse_manifold(manifold)
    field = ScalarField.from_text(function, m.ambient_dim)
    code, text, _ = run_cli(capsys, ["flow", "--manifold", manifold, "--function", function,
                                     "--from", start, "--out", out])
    assert code == 0
    if out == "json":
        rows = [(p, repr(f)) for _, p, f in json.loads(text)["samples"]]
    else:
        rows = [(row[1:-1], row[-1]) for row in
                (line.split(",") for line in text.strip().split("\n")[3:])]
    assert len(rows) > 20
    for point, f in rows:
        assert f == repr(field.value(tuple(float(v) for v in point)))


def test_flow_start_with_overflowing_norm(capsys):
    # the squares of 1e308 overflow; the start is still the point (1, 0, 0),
    # the same flow as from (1, 0, 0) itself
    _, want, _ = run_cli(capsys, ["flow", "--manifold", "sphere2", "--function", "x3",
                                  "--from", "1,0,0"])
    for start in ("1e308,0,0", "1.7976931348623157e308,0,0"):
        code, out, err = run_cli(capsys, ["flow", "--manifold", "sphere2", "--function", "x3",
                                          "--from", start])
        assert code == 0 and err == ""
        assert out.split("\n")[1:] == want.split("\n")[1:]


def test_flow_start_with_vanishing_norm(capsys):
    # the squares of 1e-300 underflow to 0; each start is still the point
    # (1, 0, 0), the same flow as from (1, 0, 0) itself
    _, want, _ = run_cli(capsys, ["flow", "--manifold", "sphere2", "--function", "x3",
                                  "--from", "1,0,0"])
    for start in ("1e-13,0,0", "1e-300,0,0", "5e-324,0,0"):
        code, out, err = run_cli(capsys, ["flow", "--manifold", "sphere2", "--function", "x3",
                                          "--from", start])
        assert code == 0 and err == ""
        assert out.split("\n")[1:] == want.split("\n")[1:]
    # on RP^2 a start times 2^-1000 is the same point
    rp2 = ["flow", "--manifold", "rp2", "--function", "(x1^2+2*x2^2+3*x3^2)/(x1^2+x2^2+x3^2)"]
    _, want, _ = run_cli(capsys, rp2 + ["--from", "1,0.2,0.1"])
    start = ",".join(repr(v * 2.0 ** -1000) for v in (1, 0.2, 0.1))
    code, out, err = run_cli(capsys, rp2 + ["--from", start])
    assert code == 0 and err == ""
    assert out.split("\n")[1:] == want.split("\n")[1:]


def test_torus_flow_start_is_reduced_mod_1(capsys):
    # x1 = 1e17 is the torus point x1 = 0; unreduced, f would be evaluated at
    # 2*pi*1e17, where rounding makes it wrong, and no step could move x1
    _, want, _ = run_cli(capsys, ["flow"] + TORUS_ARGS + ["--from=0,0.3"])
    for start in ("1e17,0.3", "-3,0.3", "-1e-300,0.3"):
        code, out, err = run_cli(capsys, ["flow"] + TORUS_ARGS + [f"--from={start}"])
        assert code == 0 and err == ""
        assert out.split("\n")[1:] == want.split("\n")[1:]
    # a start already in [0, 1) keeps its bits
    code, out, _ = run_cli(capsys, ["flow"] + TORUS_ARGS + ["--from=0.1234567890123,0.3"])
    assert out.split("\n")[3].split(",")[1] == "0.1234567890123"


def test_flow_bad_start_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["flow", "--manifold", "sphere2",
                                  "--function", "x3", "--from", "1,0"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["flow", "--manifold", "sphere2",
                                  "--function", "x3", "--from", "a,b,c"])
    assert code == 2


def test_connections_report(capsys):
    code, out, _ = run_cli(capsys, ["connections"] + TORUS_ARGS)
    assert code == 0
    d = json.loads(out)
    assert {(c["source"], c["sink"]) for c in d["counts"]} == \
        {(1, 0), (2, 0), (3, 1), (3, 2)}
    assert all(c["count_mod2"] == 0 for c in d["counts"])


_UPRIGHT_TORUS = ["--manifold", "torus2", "--function", "(2+cos(2*pi*x2))*cos(2*pi*x1)"]


@pytest.mark.parametrize("cmd", ["homology", "arnold", "floer", "connections"])
def test_saddle_connection_refused(capsys, cmd):
    # both seeds of index-1 point 1 run into index-1 point 2: not Morse-Smale
    code, out, err = run_cli(capsys, [cmd] + _UPRIGHT_TORUS)
    assert (code, out) == (1, "")
    assert err.startswith("morseflow: error: saddle connection: ")
    assert "point 1 " in err and "point 2," in err and "perturb" in err


def test_perturbed_saddle_connection_counts(capsys):
    perturbed = _UPRIGHT_TORUS[:-1] + [_UPRIGHT_TORUS[-1] + " + 1e-6*sin(2*pi*x2)"]
    code, out, err = run_cli(capsys, ["homology"] + perturbed)
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert d["ranks"] == [1, 2, 1]
    assert [c["raw_count"] for c in d["counts"]] == [2, 2, 2, 2]


def test_arnold_values(capsys):
    code, out, _ = run_cli(capsys, ["arnold"] + TORUS_ARGS)
    assert json.loads(out)["arnold_bound"] == 4
    code, out, _ = run_cli(capsys, ["arnold", "--manifold", "sphere2",
                                    "--function", "x3"])
    assert json.loads(out)["arnold_bound"] == 2


def test_floer_circle(capsys):
    code, out, _ = run_cli(capsys, ["floer", "--base", "circle",
                                    "--function", "cos(2*pi*x1)"])
    assert code == 0
    d = json.loads(out)
    assert d["hf_ranks"] == [1, 1]
    assert d["total_rank"] == 2
    assert d["t1_matches_morse"] is True
    assert all(s["agrees"] for s in d["strip_checks"])


@pytest.mark.parametrize("base, function, hf, nonzero_d2", [
    ("sphere2", "x3 + 0.6*x1^2 - 0.3*x3^2 + 0.8*x1^2*x3", [1, 0, 1], 2),
    ("rp2", "(x2^2+2*x3^2)/(x1^2+x2^2+x3^2)", [1, 1, 1], 0),
])
def test_floer_on_sphere_and_projective_bases(capsys, base, function, hf, nonzero_d2):
    code, out, _ = run_cli(capsys, ["floer", "--base", base, "--function", function])
    assert code == 0
    d = json.loads(out)
    assert d["hf_ranks"] == hf
    assert sum(e != "0" for row in d["differential"]["2"] for e in row) == nonzero_d2
    assert d["t1_matches_morse"] is True
    assert d["strip_checks"] and all(s["agrees"] for s in d["strip_checks"])


def test_floer_without_base_names_every_manifold(capsys):
    code, _, err = run_cli(capsys, ["floer", "--function", "cos(2*pi*x1)"])
    assert code == 2
    assert geometry.MANIFOLD_NAMES in err


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tmax = 150\nepsilon = 0.07  # tighter pushoff\n",
                   encoding="utf-8")
    code, out, _ = run_cli(capsys, ["arnold"] + TORUS_ARGS +
                           ["--config", str(cfg), "--epsilon", "0.09"])
    assert code == 0
    d = json.loads(out)
    assert d["config"]["tmax"] == 150.0     # from the file
    assert d["config"]["epsilon"] == 0.09   # flag wins


def test_config_file_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("granularity = 8\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, ["arnold"] + TORUS_ARGS + ["--config", str(cfg)])
    assert code == 2


def test_seed_is_not_an_option(capsys, tmp_path):
    # neither is the seed-circle resolution --scan
    for key, value in (("seed", "3"), ("scan", "64")):
        code, _, _ = run_cli(capsys, ["arnold"] + TORUS_ARGS + [f"--{key}", value])
        assert code == 2
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["arnold"] + TORUS_ARGS + ["--config", str(cfg)])
        assert code == 2
        assert f"unknown config key '{key}'" in err


def test_maslov_loop_file(capsys, tmp_path):
    thetas = np.linspace(0.0, 1.0, 65)
    path = tmp_path / "half_turn.csv"
    rows = []
    for t in thetas:
        fr = np.array([[np.cos(np.pi * t)], [np.sin(np.pi * t)]])
        rows.append(",".join([repr(float(t))] + [repr(float(v)) for v in fr.ravel()]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["maslov", "--loop", str(path)])
    assert code == 0
    d = json.loads(out)
    assert d["index"] == 1
    assert d["n"] == 1


def test_maslov_missing_loop_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["maslov"])
    assert code == 2


def test_maslov_open_loop_is_domain_error(capsys, tmp_path):
    thetas = np.linspace(0.0, 1.0, 33)
    path = tmp_path / "open.csv"
    rows = []
    for t in thetas:
        fr = np.array([[np.cos(np.pi * t / 2)], [np.sin(np.pi * t / 2)]])
        rows.append(",".join([repr(float(t))] + [repr(float(v)) for v in fr.ravel()]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, ["maslov", "--loop", str(path)])
    assert code == 1


CIRCLE_ARGS = ["--manifold", "circle", "--function", "cos(2*pi*x1)"]


@pytest.mark.parametrize("argv", [
    ["homology"] + CIRCLE_ARGS + ["--tmax", "nan"],   # integrated forever before
    ["floer", "--base", "circle", "--function", "cos(2*pi*x1)", "--epsilon", "inf"],
    ["floer"] + CIRCLE_ARGS + ["--epsilon", "1e400"],
    ["arnold"] + CIRCLE_ARGS + ["--tmax=-inf"],
])
def test_non_finite_floats_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("morseflow: usage error: --")
    assert "must be finite and positive" in err


@pytest.mark.parametrize("argv", [
    TORUS_ARGS + ["--from", "nan,0.5"],
    TORUS_ARGS + ["--from", "0.5,-inf"],
    ["--manifold", "sphere2", "--function", "x3", "--from", "nan,0,1"],
    ["--manifold", "rp2", "--function", "x1^2 + 2*x2^2", "--from", "0,inf,1"],
])
def test_non_finite_start_ends_without_traceback(capsys, argv):
    code, _, err = run_cli(capsys, ["flow"] + argv + ["--tmax", "1"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    TORUS_ARGS + ["--from", "nan,0.5"],
    TORUS_ARGS + ["--from", "0.5,inf"],
    ["--manifold", "sphere2", "--function", "x3", "--from", "nan,0,1"],
    ["--manifold", "sphere2", "--function", "x3", "--from", "0,0,0"],
])
def test_non_finite_start_is_usage_error_before_the_sweep(capsys, monkeypatch, argv):
    def sweep(*args, **kwargs):
        raise AssertionError("the critical-point sweep ran")
    monkeypatch.setattr(pipeline, "find_critical_points", sweep)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["flow"] + argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("morseflow: usage error: --from")


@pytest.mark.parametrize("cmd", SWEEPING)
def test_field_validated_once_per_request(capsys, monkeypatch, cmd):
    calls = []
    validate = pipeline.validate_field
    for module in (pipeline, cli):   # every module that binds it by name
        if getattr(module, "validate_field", None) is validate:
            monkeypatch.setattr(module, "validate_field",
                                lambda *a: calls.append(a) or validate(*a))
    argv = [cmd] + TORUS_ARGS + (["--from", "0.2,0.3"] if cmd == "flow" else [])
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out
    assert len(calls) == 1


@pytest.mark.parametrize("tmax", ["1e-15", "1e-300"])
def test_tmax_below_the_step_floor_is_one_short_step(capsys, tmax):
    # the one step is cut to t_max, below the 1e-14 floor of a collapsed step
    code, out, err = run_cli(capsys, ["flow"] + TORUS_ARGS + ["--from", "0.2,0.3",
                                                              "--tmax", tmax])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "# status: unresolved sink: None"
    assert [float(row.split(",")[0]) for row in lines[3:]] == [0.0, float(tmax)]


def test_homology_at_a_tiny_tmax_refuses_the_flagged_counts(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run_cli(capsys, ["homology"] + TORUS_ARGS + ["--tmax", "1e-300"])
    assert (code, out) == (1, "")
    assert err.startswith("morseflow: error: 4 of 4 counts are flagged")


def test_resolution_warning_prints_as_a_morseflow_line():
    # the default warning filters of a fresh process, not the test suite's
    argv = ["homology", "--manifold", "torus2", "--function",
            "cos(2*pi*3*x1) + cos(2*pi*x2)", "--grid", "4"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "morseflow.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert any(ln.startswith("morseflow: warning: seed trajectory") for ln in lines)
    assert all(ln.startswith("morseflow: ") for ln in lines)
    assert not any("flow.py" in ln for ln in lines)


def test_one_parser_serves_every_call_without_leaking_config(capsys, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid = 6\n")
    code, out, _ = run_cli(capsys, ["critpoints"] + TORUS_ARGS + ["--config", str(cfg)])
    assert code == 0 and json.loads(out.split("\n")[0])["config"]["grid"] == 6
    code, out, _ = run_cli(capsys, ["critpoints"] + TORUS_ARGS)
    assert code == 0 and json.loads(out.split("\n")[0])["config"]["grid"] is None
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["--help"]) == 0
    assert cli.main(["homology", "--help"]) == 0


def test_overflowing_action_refused_without_warning(capsys):
    # 1.7e308 is finite, but the action drop 1.7e308 * 2 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["floer", "--base", "circle", "--function",
                                          "cos(2*pi*x1)", "--epsilon", "1.7e308"])
    assert (code, out) == (1, "")
    assert err.startswith("morseflow: error:")
    assert "Warning" not in err


@pytest.mark.parametrize("function", [
    "(" * 300 + "x1" + ")" * 300,
    "sin(" * 300 + "x1" + ")" * 300,
    "+".join(["x1"] * 1501),
])
def test_deep_expression_is_usage_error(capsys, function):
    code, out, err = run_cli(capsys, ["critpoints", "--manifold", "circle",
                                      "--function", function])
    assert (code, out) == (2, "")
    assert err.startswith("morseflow: usage error: expression nests deeper than")
    assert "Traceback" not in err


def test_non_finite_config_value_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("tmax = nan\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["homology"] + CIRCLE_ARGS + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("morseflow: usage error: --tmax must be finite and positive")


@pytest.mark.parametrize("function,offset", [
    ("cos(2*pi*x1)+x1^²", 16),
    ("cos(2*pi*x1)*²", 13),
    ("cos(2*pi*x١)", 10),
])
def test_non_ascii_expression_is_usage_error(capsys, function, offset):
    code, out, err = run_cli(capsys, ["critpoints", "--manifold", "circle",
                                      "--function", function])
    assert (code, out) == (2, "")
    assert err.startswith("morseflow: usage error:")
    assert f"at offset {offset}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["connections", "homology", "arnold", "floer", "maslov"])
def test_csv_refused_by_json_only_subcommands(capsys, tmp_path, cmd):
    code, out, err = run_cli(capsys, [cmd] + CIRCLE_ARGS + ["--out", "csv"])
    assert (code, out) == (2, "")
    assert f"morseflow {cmd}: error: argument --out" in err
    cfg = tmp_path / "csv.cfg"
    cfg.write_text("out = csv\n", encoding="utf-8")
    code, out, err = run_cli(capsys, [cmd] + CIRCLE_ARGS + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert f"morseflow {cmd}: error: argument --out" in err


def test_config_keys_are_the_subcommands_own_options(capsys, tmp_path):
    cfg = tmp_path / "foreign.cfg"
    cfg.write_text("# homology takes no loop file\ntmax = 50\nloop = loop.csv\n",
                   encoding="utf-8")
    code, out, err = run_cli(capsys, ["homology"] + CIRCLE_ARGS + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert f"{cfg}:3: unknown config key 'loop' for homology" in err
    # the dest of --from is not a key; the option name is
    cfg.write_text("start = 1,0,0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["flow", "--manifold", "sphere2", "--function", "x3",
                                    "--config", str(cfg)])
    assert code == 2
    assert "unknown config key 'start' for flow" in err
    cfg.write_text("from = 1,0,0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["flow", "--manifold", "sphere2", "--function", "x3",
                                    "--config", str(cfg), "--out", "json"])
    assert code == 0
    assert json.loads(out)["config"]["from"] == "1,0,0"


def test_config_values_are_checked_like_flags(capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("grid = many\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["critpoints"] + CIRCLE_ARGS + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "argument --grid: invalid int value: 'many'" in err
    cfg.write_text("grid = 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["critpoints"] + CIRCLE_ARGS + ["--config", str(cfg)])
    assert code == 2
    assert "--grid must be at least 2" in err


def _half_turn_loop(path):
    rows = []
    for t in np.linspace(0.0, 1.0, 65):
        frame = (np.cos(np.pi * t), np.sin(np.pi * t))
        rows.append(",".join(repr(float(v)) for v in (t, *frame)))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


REPORT_KEYS = {"cmd", "manifold", "function", "grid", "epsilon", "tmax", "out"}


@pytest.mark.parametrize("argv,extra", [
    (["critpoints"] + CIRCLE_ARGS, set()),
    (["flow"] + CIRCLE_ARGS + ["--from", "0.3"], {"from"}),
    (["connections"] + CIRCLE_ARGS, set()),
    (["homology"] + CIRCLE_ARGS, set()),
    (["arnold"] + CIRCLE_ARGS, set()),
    (["floer"] + CIRCLE_ARGS, set()),
    (["floer", "--base", "circle", "--function", "cos(2*pi*x1)"], {"base"}),
    (["maslov", "--loop", "LOOP"], {"loop"}),
])
def test_report_config_key_set(capsys, tmp_path, argv, extra):
    argv = [_half_turn_loop(tmp_path / "loop.csv") if a == "LOOP" else a for a in argv]
    code, out, _ = run_cli(capsys, argv + ["--out", "json"])
    assert code == 0
    first = out.split("\n", 1)[0] if argv[0] == "critpoints" else out
    assert set(json.loads(first)["config"]) == REPORT_KEYS | extra


def test_readme_common_flags_match_parser(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Every subcommand takes(.*?)\.\s", text, re.DOTALL).group(1)
    listed = set(re.findall(r"`(--[a-z]+)", sentence))
    common = None
    for cmd in cli._DISPATCH:
        assert cli.main([cmd, "--help"]) == 0
        options = set(re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.MULTILINE))
        common = options if common is None else common & options
    assert listed == common


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(morseflow .*?)```", text, re.DOTALL).group(1)
    examples = block.strip().split("\n")
    assert len(examples) == 7
    monkeypatch.chdir(tmp_path)
    _half_turn_loop(tmp_path / "loop.csv")
    for line in examples:
        argv = shlex.split(line)
        assert argv[0] == "morseflow"
        code, out, err = run_cli(capsys, argv[1:])
        assert (code, err) == (0, ""), line
        assert out


@pytest.mark.parametrize("manifold,function,ranks", [
    ("circle", "1e4*cos(2*pi*x1)", [1, 1]),
    ("torus2", "1e4*(cos(2*pi*x1) + cos(2*pi*x2))", [1, 2, 1]),
])
def test_scaled_fields_keep_minima_at_the_rounding_floor(capsys, manifold, function, ranks):
    code, out, err = run_cli(capsys, ["homology", "--manifold", manifold, "--function", function])
    assert (code, err) == (0, "")
    assert json.loads(out)["ranks"] == ranks


def test_minimum_whose_rounding_floor_exceeds_the_tolerance_refused(capsys):
    # at 1e5 the minimum's residual bottoms out near 1.1e-10, above RESIDUAL_TOL:
    # the saddles and the maximum are kept, the minimum is not
    code, out, err = run_cli(capsys, ["homology", "--manifold", "torus2", "--function",
                                      "1e5*(cos(2*pi*x1) + cos(2*pi*x2))"])
    assert (code, out) == (1, "")
    assert "Euler characteristic -1 (torus2: 0)" in err
