"""Command line behavior: exit codes, report shape, determinism, config
precedence.  Everything drives main(argv) in-process."""

import json
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from morseflow import cli, geometry, maslov

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


@pytest.mark.parametrize("argv,needle", [
    # the sweep misses the minimum on the x1 = 0 kink; the two maxima it finds
    # have the Euler characteristic 2 of S^2, but there is no minimum
    (["--manifold", "sphere2", "--function", "x3 + 0.1*sqrt(x1^2)"],
     "Euler characteristic 2 (sphere2: 2) and indices [2] (need 0 and 2)"),
    # a 3-point grid finds two minima and one maximum of cos(16 pi x)
    (["--manifold", "circle", "--function", "cos(2*pi*8*x1)", "--grid", "3"],
     "Euler characteristic 1 (torusN:1: 0)"),
])
def test_impossible_critical_points_refused(capsys, argv, needle):
    code, out, err = run_cli(capsys, ["homology"] + argv)
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
