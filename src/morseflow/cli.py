"""Command line entry point.

Subcommands: critpoints, flow, connections, homology, floer, maslov,
arnold.  All but maslov take their critical points from `pipeline.locate`,
which validates the field, sweeps once and refuses point sets no Morse
function has.  `build_parser` declares every option once, with its type,
default and choices.  A --config file (flat key=value lines, # comments,
keys named like the subcommand's options) is read into --key=value
tokens placed before the command line's own flags, so flags override
file values and argparse checks both.  Reports embed the fully resolved
configuration and are byte-identical for identical config.  Exit codes:
0 success, 1 domain errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from . import floer as floer_mod
from . import flow as flow_mod
from . import geometry, maslov, novikov
from .errors import MorseflowError, NoConvergenceError, UsageError
from .funcexpr import ScalarField
from .pipeline import locate, run_morse


def _config_tokens(ns: argparse.Namespace) -> list[str]:
    """The lines of ns.config as --key=value tokens for ns.cmd's parser."""
    keys = {"from" if dest == "start" else dest for dest in vars(ns)} - {"cmd", "config"}
    path, tokens = ns.config, []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = (s.strip() for s in line.partition("="))
                if not eq:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                if key not in keys:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r} for {ns.cmd}")
                tokens.append(f"--{key}={val}")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return tokens


def _parse_args(argv) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        at = argv.index(ns.cmd) + 1
        ns = parser.parse_args(argv[:at] + _config_tokens(ns) + argv[at:])
    if ns.grid is not None and ns.grid < 2:
        raise UsageError("--grid must be at least 2")
    for key in ("epsilon", "tmax"):
        val = getattr(ns, key)
        if not (math.isfinite(val) and val > 0):
            raise UsageError(f"--{key} must be finite and positive, got {val!r}")
    return ns


def _report_config(ns: argparse.Namespace) -> dict:
    d = {key: getattr(ns, key) for key in
         ("cmd", "manifold", "function", "grid", "epsilon", "tmax", "out")}
    for key, dest in (("from", "start"), ("loop", "loop"), ("base", "base")):
        if getattr(ns, dest, None) is not None:
            d[key] = getattr(ns, dest)
    return d


def _field_on(ns: argparse.Namespace, manifold_name: str | None):
    if manifold_name is None:
        raise UsageError("--manifold is required")
    if ns.function is None:
        raise UsageError("--function is required")
    m = geometry.parse_manifold(manifold_name)
    return ScalarField.from_text(ns.function, m.ambient_dim), m


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _point_record(p) -> dict:
    return {
        "id": p.id,
        "location": list(p.location),
        "index": p.index,
        "eigenvalues": list(p.eigenvalues),
        "residual": p.residual,
        "nondegenerate": p.nondegenerate,
    }


def _cmd_critpoints(ns: argparse.Namespace) -> str:
    field, m = _field_on(ns, ns.manifold)
    pts = locate(field, m, ns.grid)
    if ns.out == "csv":
        lines = [f"# config: {json.dumps(_report_config(ns), sort_keys=True)}"]
        d = m.ambient_dim
        lines.append(",".join([f"x{k + 1}" for k in range(d)]
                              + ["index", "residual", "eigenvalues"]))
        for p in pts:
            lines.append(",".join([repr(v) for v in p.location]
                                  + [str(p.index), repr(p.residual),
                                     ";".join(repr(e) for e in p.eigenvalues)]))
        return "\n".join(lines) + "\n"
    records = [json.dumps({"config": _report_config(ns)}, sort_keys=True)]
    for p in pts:
        records.append(json.dumps(_point_record(p), sort_keys=True))
    return "\n".join(records) + "\n"


def _cmd_flow(ns: argparse.Namespace) -> str:
    field, m = _field_on(ns, ns.manifold)
    if ns.start is None:
        raise UsageError("flow requires --from x1,...,xd")
    try:
        start = tuple(float(tok) for tok in ns.start.split(","))
    except ValueError:
        raise UsageError(f"--from expects comma-separated reals, got {ns.start!r}")
    if len(start) != m.ambient_dim:
        raise UsageError(f"--from needs {m.ambient_dim} coordinates for {m.name}")
    if not all(map(math.isfinite, start)):
        raise UsageError(f"--from expects finite coordinates, got {ns.start!r}")
    if m.kind == "torus":
        # a tiny negative v % 1.0 is 1.0; the second mod makes it 0
        start = tuple(v % 1.0 % 1.0 for v in start)
    elif not any(start):
        raise UsageError(f"--from is the zero vector, which is no point of {m.name}")
    capture = flow_mod.capture_lookup(m, locate(field, m, ns.grid))
    try:
        traj = flow_mod.integrate(field, m, start, capture, t_max=ns.tmax)
        status = "captured"
    except NoConvergenceError as exc:
        traj = exc.trajectory
        status = "unresolved"
    fs = [field.value(p) for p in traj.points]
    if ns.out == "json":
        return _json_report({
            "config": _report_config(ns),
            "status": status,
            "source": traj.source_label,
            "sink": traj.sink_label,
            "energy": traj.energy,
            "samples": [[t, list(p), f] for t, p, f in
                        zip(traj.times, traj.points, fs)],
        })
    lines = [f"# config: {json.dumps(_report_config(ns), sort_keys=True)}",
             f"# status: {status} sink: {traj.sink_label}",
             ",".join(["t"] + [f"x{k + 1}" for k in range(len(traj.points[0]))] + ["f"])]
    for t, p, f in zip(traj.times, traj.points, fs):
        lines.append(",".join([repr(t)] + [repr(v) for v in p] + [repr(f)]))
    return "\n".join(lines) + "\n"


def _count_record(c) -> dict:
    return {
        "source": c.source, "sink": c.sink, "raw_count": c.raw_count,
        "count_mod2": c.count_mod2, "flagged": c.flagged,
        "n_representatives": len(c.representatives),
    }


def _cmd_connections(ns: argparse.Namespace) -> str:
    field, m = _field_on(ns, ns.manifold)
    pts = locate(field, m, ns.grid)
    counts = flow_mod.connection_counts(field, m, pts, t_max=ns.tmax)
    return _json_report({
        "config": _report_config(ns),
        "points": [_point_record(p) for p in pts],
        "counts": [_count_record(c) for c in counts],
    })


def _homology_payload(ns: argparse.Namespace, run) -> dict:
    return {
        "config": _report_config(ns),
        "points": [_point_record(p) for p in run.points],
        "generators": {str(k): v for k, v in run.complex.generators.items()},
        "boundary_matrices": {str(k): mat.bitstrings()
                              for k, mat in run.complex.matrices.items()},
        "counts": [_count_record(c) for c in run.counts],
        "morse": run.morse,
        "ranks": list(run.ranks.by_degree),
        "euler": run.ranks.euler(),
        "inequalities": {
            "rows": [list(r) for r in run.inequalities.rows],
            "euler_crit": run.inequalities.euler_crit,
            "euler_betti": run.inequalities.euler_betti,
            "all_ok": run.inequalities.all_ok,
        },
    }


def _cmd_homology(ns: argparse.Namespace) -> str:
    field, m = _field_on(ns, ns.manifold)
    run = run_morse(field, m, grid=ns.grid, t_max=ns.tmax)
    return _json_report(_homology_payload(ns, run))


def _cmd_arnold(ns: argparse.Namespace) -> str:
    field, m = _field_on(ns, ns.manifold)
    run = run_morse(field, m, grid=ns.grid, t_max=ns.tmax)
    return _json_report({
        "config": _report_config(ns),
        "ranks": list(run.ranks.by_degree),
        "arnold_bound": floer_mod.arnold_bound(run.ranks),
    })


def _cmd_floer(ns: argparse.Namespace) -> str:
    base = ns.base or ns.manifold
    if base is None:
        raise UsageError(f"floer requires --base ({geometry.MANIFOLD_NAMES})")
    field, m = _field_on(ns, base)
    run = run_morse(field, m, grid=ns.grid, t_max=ns.tmax)
    fc = floer_mod.build_floer_complex(run.points, run.counts, epsilon=ns.epsilon)
    hf = floer_mod.hf_ranks(fc)
    t1_ok = fc.mod2_matrices() == run.complex.matrices
    reps = [traj for c in run.counts for traj in c.representatives]
    weights = floer_mod.strip_area_check(field, m, reps, epsilon=ns.epsilon, points=run.points)
    strip_checks = [{"source": w.source, "sink": w.sink, "analytic": w.analytic,
                     "quadrature": w.quadrature, "agrees": w.agrees} for w in weights]
    return _json_report({
        "config": _report_config(ns),
        "generators": {str(k): v for k, v in fc.morse.generators.items()},
        "f_values": {str(p.id): p.value for p in run.points},
        "differential": {str(k): [[novikov.format_novikov(e) for e in row]
                                  for row in rows]
                         for k, rows in fc.matrices.items()},
        "hf_ranks": list(hf.by_degree),
        "total_rank": hf.total,
        "arnold_bound": floer_mod.arnold_bound(hf),
        "t1_matches_morse": t1_ok,
        "strip_checks": strip_checks,
    })


def _cmd_maslov(ns: argparse.Namespace) -> str:
    if ns.loop is None:
        raise UsageError("maslov requires --loop FILE.csv")
    try:
        loop = maslov.LagrangianLoop.from_csv(ns.loop)
    except OSError as exc:
        raise UsageError(f"cannot read loop file {ns.loop}: {exc}")
    idx = maslov.maslov_index(loop)
    return _json_report({
        "config": _report_config(ns),
        "n": loop.n,
        "samples": len(loop.frames),
        "index": idx,
    })


_DISPATCH = {
    "critpoints": _cmd_critpoints,
    "flow": _cmd_flow,
    "connections": _cmd_connections,
    "homology": _cmd_homology,
    "floer": _cmd_floer,
    "maslov": _cmd_maslov,
    "arnold": _cmd_arnold,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; parse_args
    leaves it unchanged, so calls of main share it."""
    parser = argparse.ArgumentParser(
        prog="morseflow",
        description="Morse homology from counted gradient flow lines, "
                    "with a Novikov-field Floer lift.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--manifold", help=geometry.MANIFOLD_NAMES)
        p.add_argument("--function", help="scalar field expression in x1..xn")
        p.add_argument("--grid", type=int, help="seed grid resolution")
        p.add_argument("--epsilon", type=float, default=floer_mod.EPSILON_DEFAULT,
                       help="Hamiltonian pushoff size")
        p.add_argument("--tmax", type=float, default=flow_mod.T_MAX_DEFAULT,
                       help="integration time limit")
        p.add_argument("--out", choices=("json", "csv") if name in ("critpoints", "flow")
                       else ("json",), default="csv" if name == "flow" else "json",
                       help="output format")
        p.add_argument("--config", help="key=value config file; flags override")
        if name == "flow":
            p.add_argument("--from", dest="start", help="start point x1,...,xd")
        if name == "maslov":
            p.add_argument("--loop", help="CSV of loop samples: theta, frame row-major")
        if name == "floer":
            p.add_argument("--base", help=f"base manifold: {geometry.MANIFOLD_NAMES}")
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"morseflow: warning: {message}\n"


def main(argv=None) -> int:
    # warnings the filters let through print like errors, without the
    # source location inside the installed package
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        ns = _parse_args(argv)
        report = _DISPATCH[ns.cmd](ns)
    except SystemExit as exc:  # argparse printed --help or a usage error
        return 0 if exc.code in (0, None) else 2
    except UsageError as exc:
        print(f"morseflow: usage error: {exc}", file=sys.stderr)
        return 2
    except MorseflowError as exc:
        print(f"morseflow: error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = format_warning
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
