"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` swaps the public entry points of each morseflow module
(and the two private flow steps the pipeline calls, `_scan` and
`make_rhs`) for wrappers that time the call and count its work, in every
morseflow module that bound the original by name.  `uninstall()` puts the
originals back.  Nothing under src/ changes; spans inside the program are
later work (ROADMAP item 1).

Times are inclusive wall times of the wrapped calls.  Each span also
tracks the time its wrapped children took, so a span's self time is its
duration minus its children's; `cli.report_s` is the self time of
`cli.main`, i.e. argument handling, field validation and report
formatting.

Integration counters are read off what `integrate` does: every accepted
step appends one sample, and every attempted step evaluates the RHS six
times (stages 2-7) after one initial evaluation, plus once more per
accepted step on the sphere and RP^n, where the renormalized state is
re-evaluated.  Rejected steps are attempted minus accepted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# name -> (module, attribute) of each timed entry point
TIMED = {
    "flow.count": ("morseflow.flow", "connection_counts"),
    "flow.scan": ("morseflow.flow", "_scan"),
    "flow.integrate": ("morseflow.flow", "integrate"),
    "critpoint.find": ("morseflow.critpoint", "find_critical_points"),
    "floer.build": ("morseflow.floer", "build_floer_complex"),
    "floer.hf": ("morseflow.floer", "hf_ranks"),
    "floer.strip": ("morseflow.floer", "strip_area_check"),
    "novikov.rank": ("morseflow.novikov", "lambda_rank"),
    "maslov.index": ("morseflow.maslov", "maslov_index"),
    "gf2chain.build": ("morseflow.gf2chain", "build_complex"),
    "gf2chain.rank": ("morseflow.gf2chain", "homology_ranks"),
}


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)       # span name -> inclusive seconds
        self.self_time = defaultdict(float)  # span name -> seconds minus children
        self.count = defaultdict(int)
        self._children = []                  # child seconds of each open span
        self._patches = []
        self._in_scan = 0
        self.missing = []                    # entry points this program lacks

    # --- spans ------------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn as span `name`, crediting its duration to the enclosing span."""
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._children.pop()
            self.time[name] += dt
            self.self_time[name] += dt - child
            if self._children:
                self._children[-1] += dt

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # --- patching ---------------------------------------------------------------

    def _swap(self, original, replacement):
        """Rebind every morseflow module attribute that is `original`."""
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "morseflow":
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _lookup(self, modname, attr):
        """The entry point, or None (noted in `missing`) once it is renamed."""
        original = getattr(sys.modules[modname], attr, None)
        if original is None:
            self.missing.append(f"{modname}.{attr}")
        return original

    def install(self):
        import morseflow.cli  # noqa: F401  (loads every module that is patched)

        self.missing = []

        after = {
            "flow.count": lambda a, r: self._add(
                "flow.representatives", sum(len(c.representatives) for c in r)),
            "critpoint.find": lambda a, r: self._add("critpoint.points", len(r)),
            "floer.strip": lambda a, r: self._add("floer.strips", 1),
            "maslov.index": lambda a, r: self._add("maslov.frames", len(a[0].frames)),
        }
        for name, (modname, attr) in TIMED.items():
            original = self._lookup(modname, attr)
            if original is None:   # the layer reads 0
                continue
            if name == "flow.integrate":
                wrapped = self._integrate_wrapper(original)
            elif name == "flow.scan":
                wrapped = self._scan_wrapper(original)
            else:
                wrapped = self._timed(name, original, after.get(name))
            self._swap(original, wrapped)

        make_rhs = self._lookup("morseflow.flow", "make_rhs")
        if make_rhs is not None:
            def counting_make_rhs(fld, m):
                rhs = make_rhs(fld, m)

                def counted(y):
                    self.count["flow.rhs_evals"] += 1
                    return rhs(y)
                return counted
            # Only integrate's binding: strip quadrature's RHS is not flow work.
            flow = sys.modules["morseflow.flow"]
            flow.make_rhs = counting_make_rhs
            self._patches.append((flow, "make_rhs", make_rhs))

        seed_points = self._lookup("morseflow.geometry", "seed_points")
        if seed_points is not None:
            def counting_seed_points(m, resolution):
                seeds = seed_points(m, resolution)
                self._add("critpoint.seeds", len(seeds))
                return seeds
            self._swap(seed_points, counting_seed_points)

        mul = self._lookup("morseflow.novikov", "mul")
        if mul is not None:
            def counting_mul(a, b):
                self.count["novikov.muls"] += 1
                return mul(a, b)
            self._swap(mul, counting_mul)

        cls = sys.modules["morseflow.funcexpr"].ScalarField
        from_text = cls.__dict__["from_text"]

        def traced_from_text(klass, text, dim):
            fld = self.call("funcexpr.compile", from_text.__func__, klass, text, dim)
            grad = fld._grad

            def counted(*x):
                self.count["funcexpr.grad_evals"] += 1
                return grad(*x)
            fld._grad = counted
            return fld
        cls.from_text = classmethod(traced_from_text)
        self._patches.append((cls, "from_text", from_text))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- flow counters ----------------------------------------------------------

    def _add(self, name, n):
        self.count[name] += n

    def _scan_wrapper(self, original):
        def _scan(*args, **kwargs):
            self._in_scan += 1
            try:
                return self.call("flow.scan", original, *args, **kwargs)
            finally:
                self._in_scan -= 1
        return _scan

    def _integrate_wrapper(self, original):
        from morseflow.errors import NoConvergenceError

        def integrate(fld, m, *args, **kwargs):
            rhs_before = self.count["flow.rhs_evals"]
            traj = None
            try:
                traj = self.call("flow.integrate", original, fld, m, *args, **kwargs)
                return traj
            except NoConvergenceError as exc:
                traj = exc.trajectory
                self.count["flow.unresolved"] += 1
                raise
            finally:
                self.count["flow.trajectories"] += 1
                if self._in_scan:
                    self.count["flow.scan_trajectories"] += 1
                accepted = len(traj.times) - 1 if traj is not None else 0
                rhs = self.count["flow.rhs_evals"] - rhs_before
                if rhs:
                    extra = accepted if m.kind != "torus" else 0
                    attempted = (rhs - 1 - extra) // 6
                    self.count["flow.accepted_steps"] += accepted
                    self.count["flow.rejected_steps"] += max(0, attempted - accepted)
        return integrate


def layer_metrics(tracer: Tracer, requests: int, overhead: float) -> dict:
    """Per-request means of the per-layer metrics, named as in BENCHMARK.json."""
    t, c = tracer.time, tracer.count
    per = 1.0 / requests
    out = {
        "flow.count_s": t["flow.count"] * per,
        "flow.scan_s": t["flow.scan"] * per,
        "flow.refine_s": (t["flow.count"] - t["flow.scan"]) * per,
        "flow.integrate_s": t["flow.integrate"] * per,
    }
    for name in ("flow.trajectories", "flow.scan_trajectories", "flow.accepted_steps",
                 "flow.rejected_steps", "flow.rhs_evals", "flow.unresolved"):
        out[name] = c[name] * per
    out["flow.steps_per_s"] = (c["flow.accepted_steps"] / t["flow.integrate"]
                               if t["flow.integrate"] > 0 else 0.0)
    out["flow.useful_frac"] = (c["flow.representatives"] / c["flow.trajectories"]
                               if c["flow.trajectories"] else 0.0)
    out["critpoint.find_s"] = t["critpoint.find"] * per
    out["critpoint.seeds"] = c["critpoint.seeds"] * per
    out["critpoint.points"] = c["critpoint.points"] * per
    out["floer.build_s"] = t["floer.build"] * per
    out["floer.hf_s"] = t["floer.hf"] * per
    out["floer.strip_s"] = t["floer.strip"] * per
    out["floer.strips"] = c["floer.strips"] * per
    out["novikov.rank_s"] = t["novikov.rank"] * per
    out["novikov.muls"] = c["novikov.muls"] * per
    out["maslov.index_s"] = t["maslov.index"] * per
    out["maslov.frames"] = c["maslov.frames"] * per
    out["gf2chain.build_s"] = t["gf2chain.build"] * per
    out["gf2chain.rank_s"] = t["gf2chain.rank"] * per
    out["funcexpr.compile_s"] = t["funcexpr.compile"] * per
    out["funcexpr.grad_evals"] = c["funcexpr.grad_evals"] * per
    out["cli.main_s"] = t["cli.main"] * per
    out["cli.report_s"] = tracer.self_time["cli.main"] * per
    out["trace_overhead_frac"] = overhead
    return out
