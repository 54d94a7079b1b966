"""Command line entry point.

Subcommands: critpoints, flow, connections, homology, floer, maslov,
arnold.  Flag values override --config file values (flat key=value
lines, # comments), which override built-in defaults.  Reports embed
the fully resolved configuration and are byte-identical for identical
config.  Exit codes: 0 success, 1 domain errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import floer as floer_mod
from . import flow as flow_mod
from . import geometry, maslov, novikov
from .critpoint import find_critical_points
from .errors import MorseflowError, NoConvergenceError, UsageError
from .funcexpr import ScalarField
from .pipeline import run_morse, validate_field

_DEFAULTS = {
    "manifold": None, "function": None, "grid": None, "scan": 64,
    "epsilon": 0.05, "tmax": 200.0, "out": None, "start": None,
    "loop": None, "base": None,
}
_INT_KEYS = {"grid", "scan"}
_FLOAT_KEYS = {"epsilon", "tmax"}


@dataclass
class RunConfig:
    cmd: str
    manifold: str | None
    function: str | None
    grid: int | None
    scan: int
    epsilon: float
    tmax: float
    out: str
    start: str | None
    loop: str | None
    base: str | None

    def as_dict(self) -> dict:
        d = {
            "cmd": self.cmd, "manifold": self.manifold, "function": self.function,
            "grid": self.grid, "scan": self.scan, "epsilon": self.epsilon,
            "tmax": self.tmax, "out": self.out,
        }
        if self.start is not None:
            d["from"] = self.start
        if self.loop is not None:
            d["loop"] = self.loop
        if self.base is not None:
            d["base"] = self.base
        return d


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                if key == "from":
                    key = "start"
                if key not in _DEFAULTS:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = val
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return values


def _coerce(key: str, val):
    if val is None or not isinstance(val, str):
        return val
    try:
        if key in _INT_KEYS:
            return int(val)
        if key in _FLOAT_KEYS:
            return float(val)
    except ValueError:
        raise UsageError(f"config value for {key} must be numeric, got {val!r}")
    return val


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_vals = _read_config_file(args.config) if args.config else {}
    merged = {}
    for key, default in _DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_vals:
            merged[key] = _coerce(key, file_vals[key])
        else:
            merged[key] = default
    if merged["out"] is None:
        merged["out"] = "csv" if args.cmd == "flow" else "json"
    if merged["out"] not in ("json", "csv"):
        raise UsageError(f"--out must be json or csv, got {merged['out']!r}")
    for key in ("grid", "scan"):
        if merged[key] is not None and merged[key] < 2:
            raise UsageError(f"--{key} must be at least 2")
    for key in ("epsilon", "tmax"):
        if merged[key] is not None and merged[key] <= 0:
            raise UsageError(f"--{key} must be positive")
    return RunConfig(cmd=args.cmd, **merged)


def _field_on(cfg: RunConfig, manifold_name: str | None):
    if manifold_name is None:
        raise UsageError("--manifold is required")
    if cfg.function is None:
        raise UsageError("--function is required")
    m = geometry.parse_manifold(manifold_name)
    field = ScalarField.from_text(cfg.function, m.ambient_dim)
    validate_field(field, m)
    return field, m


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


def _cmd_critpoints(cfg: RunConfig) -> str:
    field, m = _field_on(cfg, cfg.manifold)
    pts = find_critical_points(field, m, cfg.grid)
    if cfg.out == "csv":
        lines = [f"# config: {json.dumps(cfg.as_dict(), sort_keys=True)}"]
        d = m.ambient_dim
        lines.append(",".join([f"x{k + 1}" for k in range(d)]
                              + ["index", "residual", "eigenvalues"]))
        for p in pts:
            lines.append(",".join([repr(v) for v in p.location]
                                  + [str(p.index), repr(p.residual),
                                     ";".join(repr(e) for e in p.eigenvalues)]))
        return "\n".join(lines) + "\n"
    records = [json.dumps({"config": cfg.as_dict()}, sort_keys=True)]
    for p in pts:
        records.append(json.dumps(_point_record(p), sort_keys=True))
    return "\n".join(records) + "\n"


def _cmd_flow(cfg: RunConfig) -> str:
    field, m = _field_on(cfg, cfg.manifold)
    if cfg.start is None:
        raise UsageError("flow requires --from x1,...,xd")
    try:
        start = tuple(float(tok) for tok in cfg.start.split(","))
    except ValueError:
        raise UsageError(f"--from expects comma-separated reals, got {cfg.start!r}")
    if len(start) != m.ambient_dim:
        raise UsageError(f"--from needs {m.ambient_dim} coordinates for {m.name}")
    pts = find_critical_points(field, m, cfg.grid)
    try:
        traj = flow_mod.integrate(field, m, start, t_max=cfg.tmax, points=pts)
        status = "captured"
    except NoConvergenceError as exc:
        traj = exc.trajectory
        status = "unresolved"
    if cfg.out == "json":
        return _json_report({
            "config": cfg.as_dict(),
            "status": status,
            "source": traj.source_label,
            "sink": traj.sink_label,
            "energy": traj.energy,
            "samples": [[t, list(p), f] for t, p, f in
                        zip(traj.times, traj.points, traj.f_values)],
        })
    lines = [f"# config: {json.dumps(cfg.as_dict(), sort_keys=True)}",
             f"# status: {status} sink: {traj.sink_label}",
             ",".join(["t"] + [f"x{k + 1}" for k in range(len(traj.points[0]))] + ["f"])]
    for t, p, f in zip(traj.times, traj.points, traj.f_values):
        lines.append(",".join([repr(t)] + [repr(v) for v in p] + [repr(f)]))
    return "\n".join(lines) + "\n"


def _count_record(c) -> dict:
    return {
        "source": c.source, "sink": c.sink, "raw_count": c.raw_count,
        "count_mod2": c.count_mod2, "flagged": c.flagged,
        "n_representatives": len(c.representatives),
    }


def _cmd_connections(cfg: RunConfig) -> str:
    field, m = _field_on(cfg, cfg.manifold)
    pts = find_critical_points(field, m, cfg.grid)
    counts = flow_mod.connection_counts(field, m, pts, scan_resolution=cfg.scan,
                                        t_max=cfg.tmax)
    return _json_report({
        "config": cfg.as_dict(),
        "points": [_point_record(p) for p in pts],
        "counts": [_count_record(c) for c in counts],
    })


def _homology_payload(cfg: RunConfig, run) -> dict:
    return {
        "config": cfg.as_dict(),
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


def _cmd_homology(cfg: RunConfig) -> str:
    field, m = _field_on(cfg, cfg.manifold)
    run = run_morse(field, m, grid=cfg.grid, scan=cfg.scan, t_max=cfg.tmax)
    return _json_report(_homology_payload(cfg, run))


def _cmd_arnold(cfg: RunConfig) -> str:
    field, m = _field_on(cfg, cfg.manifold)
    run = run_morse(field, m, grid=cfg.grid, scan=cfg.scan, t_max=cfg.tmax)
    return _json_report({
        "config": cfg.as_dict(),
        "ranks": list(run.ranks.by_degree),
        "arnold_bound": floer_mod.arnold_bound(run.ranks),
    })


def _cmd_floer(cfg: RunConfig) -> str:
    base = cfg.base or cfg.manifold
    if base is None:
        raise UsageError("floer requires --base (torus2 or circle)")
    field, m = _field_on(cfg, base)
    run = run_morse(field, m, grid=cfg.grid, scan=cfg.scan, t_max=cfg.tmax)
    fc = floer_mod.build_floer_complex(field, m, run.counts, epsilon=cfg.epsilon,
                                       points=run.points)
    hf = floer_mod.hf_ranks(fc)
    t1_ok = fc.mod2_matrices() == run.complex.matrices
    strip_checks = []
    for c in run.counts:
        for traj in c.representatives:
            w = floer_mod.strip_area_check(field, m, traj, epsilon=cfg.epsilon,
                                           points=run.points)
            strip_checks.append({
                "source": w.source, "sink": w.sink, "analytic": w.analytic,
                "quadrature": w.quadrature, "agrees": w.agrees,
            })
    return _json_report({
        "config": cfg.as_dict(),
        "generators": {str(k): v for k, v in fc.generators.items()},
        "f_values": {str(k): v for k, v in sorted(fc.f_values.items())},
        "differential": {str(k): [[novikov.format_novikov(e) for e in row]
                                  for row in rows]
                         for k, rows in fc.matrices.items()},
        "hf_ranks": list(hf.by_degree),
        "total_rank": hf.total,
        "arnold_bound": floer_mod.arnold_bound(hf),
        "t1_matches_morse": t1_ok,
        "strip_checks": strip_checks,
    })


def _cmd_maslov(cfg: RunConfig) -> str:
    if cfg.loop is None:
        raise UsageError("maslov requires --loop FILE.csv")
    try:
        loop = maslov.LagrangianLoop.from_csv(cfg.loop)
    except OSError as exc:
        raise UsageError(f"cannot read loop file {cfg.loop}: {exc}")
    idx = maslov.maslov_index(loop)
    return _json_report({
        "config": cfg.as_dict(),
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


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--scan", type=int, help="seed sphere scan resolution")
        p.add_argument("--epsilon", type=float, help="Hamiltonian pushoff size")
        p.add_argument("--tmax", type=float, help="integration time limit")
        p.add_argument("--out", choices=("json", "csv"), help="output format")
        p.add_argument("--config", help="key=value config file; flags override")
        if name == "flow":
            p.add_argument("--from", dest="start", help="start point x1,...,xd")
        if name == "maslov":
            p.add_argument("--loop", help="CSV of loop samples: theta, frame row-major")
        if name == "floer":
            p.add_argument("--base", help="base manifold: torus2 or circle")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _resolve(args)
        report = _DISPATCH[args.cmd](cfg)
    except UsageError as exc:
        print(f"morseflow: usage error: {exc}", file=sys.stderr)
        return 2
    except MorseflowError as exc:
        print(f"morseflow: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
