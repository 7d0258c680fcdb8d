"""Per-layer spans and counts, recorded from outside the program.

The tracer rebinds the public functions of each layer wherever the program
looks them up (module globals such as ``toast.detect_stabilizer`` and
``lifting.verify_divisor_match``, the ``runge.solve`` attribute, and methods of
``CompactRegion``), so calls the program makes into another layer are timed
as well as calls the benchmark makes. Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of the spans nested
inside it. Spans and counts are only recorded while ``active`` is set, which
the runner does around timed jobs and nowhere else.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

from equilift.errors import DegreeCapExceeded

# span name -> (module, public function names); every binding of the same
# function object in any loaded equilift module is replaced
SPANS = {
    "divisors.stabilizer": ("divisors", ("detect_stabilizer",)),
    "toast.build": ("toast", ("build_covariant_toast",)),
    "toast.axioms": ("toast", ("verify_axioms",)),
    "runge.solve": ("runge", ("solve",)),
    "lifting.lift": ("lifting", ("lift_weierstrass", "lift_mittag_leffler",
                                 "lift_poisson_2d")),
    "builders.membership": ("builders", ("verify_divisor_match",)),
    "core.count_zeros": ("core", ("count_zeros",)),
    "core.refine_zero": ("core", ("refine_zero",)),
}

# CompactRegion methods: area is timed, the pairwise predicates only counted
# (hundreds of thousands of calls per job; a span each would dominate them)
REGION_SPANS = {"core.area": "area"}
REGION_COUNTS = {"core.intersects": "intersects",
                 "core.contained_in": "contained_in"}


class Tracer:
    def __init__(self):
        self.enabled = False    # installed: jobs record spans
        self.active = False     # inside a timed job
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    # -- recording

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, name, t0):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self.self_s[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dt

    def timed(self, name, fn, *args):
        """Run fn inside a span (used for the benchmark's own calls, such as
        evaluating psi on a grid)."""
        return self._span_wrapper(name, fn)(*args)

    def _span_wrapper(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._leave(name, t0)
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            self._leave(name, t0)
            if after is not None:
                after(args, kwargs, out, None)
            return out
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- per-layer extras, read from arguments and results

    def _after_solve(self, args, kwargs, cert, exc):
        if exc is not None:
            if isinstance(exc, DegreeCapExceeded):
                self.counts["runge.cap_retries"] += 1
            return
        self.counts["runge.degree_total"] += int(cert.degree)

    def _after_lift(self, args, kwargs, trace, exc):
        if exc is None:
            self.counts["lifting.offsets_stored"] += sum(
                len(sol.offsets) for lv in trace.levels
                for sol in lv.solutions.values())

    def _after_count_zeros(self, default_nodes):
        def after(args, kwargs, out, exc):
            self.counts["core.contour_nodes"] += int(
                kwargs.get("nodes", args[2] if len(args) > 2 else default_nodes))
        return after

    # -- installation

    def install(self):
        """Rebind every traced name in the loaded equilift modules."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "equilift" or name.startswith("equilift.")}
        after = {"runge.solve": self._after_solve,
                 "lifting.lift": self._after_lift}
        core = mods["equilift.core"]
        nodes = inspect.signature(core.count_zeros).parameters["nodes"].default
        after["core.count_zeros"] = self._after_count_zeros(nodes)
        for span, (modname, names) in SPANS.items():
            home = mods[f"equilift.{modname}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span_wrapper(span, original, after.get(span))
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        region = core.CompactRegion
        for span, meth in REGION_SPANS.items():
            original = getattr(region, meth)
            self._restore.append((region, meth, original))
            setattr(region, meth, self._span_wrapper(span, original))
        for name, meth in REGION_COUNTS.items():
            original = getattr(region, meth)
            self._restore.append((region, meth, original))
            setattr(region, meth, self._count_wrapper(name, original))
        self.enabled = True

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        self.enabled = False

    # -- results

    def per_job(self, jobs):
        """Per-layer metrics as totals divided by the number of timed jobs.
        Every run repeats whole rounds of the same jobs, so the per-job
        counts repeat exactly for a given seed."""
        s, c, k = self.self_s, self.calls, self.counts
        fits = c["runge.solve"]
        return {
            "divisors.stabilizer_s": (s["divisors.stabilizer"] / jobs, "s"),
            "toast.build_s": (s["toast.build"] / jobs, "s"),
            "toast.axioms_s": (s["toast.axioms"] / jobs, "s"),
            "core.area_s": (s["core.area"] / jobs, "s"),
            "core.intersects_calls": (c["core.intersects"] / jobs, "count"),
            "core.contained_in_calls": (c["core.contained_in"] / jobs, "count"),
            "runge.solve_s": (s["runge.solve"] / jobs, "s"),
            "runge.fits": (fits / jobs, "count"),
            "runge.degree_mean": (k["runge.degree_total"] / fits if fits else 0.0,
                                  "degree"),
            "runge.cap_retries": (k["runge.cap_retries"] / jobs, "count"),
            "lifting.lift_s": (s["lifting.lift"] / jobs, "s"),
            "lifting.offsets_stored": (k["lifting.offsets_stored"] / jobs, "count"),
            "lifting.psi_eval_s": (s["lifting.psi_eval"] / jobs, "s"),
            "builders.membership_s": (s["builders.membership"] / jobs, "s"),
            "core.count_zeros_s": (s["core.count_zeros"] / jobs, "s"),
            "core.count_zeros_calls": (c["core.count_zeros"] / jobs, "count"),
            "core.contour_nodes": (k["core.contour_nodes"] / jobs, "count"),
            "core.refine_zero_s": (s["core.refine_zero"] / jobs, "s"),
            "core.refine_zero_calls": (c["core.refine_zero"] / jobs, "count"),
        }
