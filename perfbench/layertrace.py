"""Per-layer trace for one benchmark round (used only with --trace 1).

Two sources, both installed from the benchmark's side so hallalg itself
is unchanged:

* spans: wrappers around hallalg's public entry points record calls and
  inclusive wall time (re-entrant calls are timed once, at the outermost
  call) and a few work counts read from arguments and results;
* a stdlib cProfile over the timed phases, aggregated by module file for
  self time, plus exact call counts of named hot functions.  Time spent
  in builtins is charged to the module that called them.

Patches, which swaps hallalg functions for wrappers and back, is also
used by the untraced verify_suite round to time the suite's criteria and
Hall products.

All times are taken with the profiler running, so they are larger than
untraced times; compare traced numbers only with traced numbers.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import os
import pstats
import sys
import time
from collections import defaultdict

LAYERS = ("gf", "partitions", "coeffring", "repengine", "hallcore",
          "primitives", "fourier", "suite", "cli")

CRITERIA = ("alambda", "xi", "autsum", "primitivity", "central", "pairing",
            "explicit", "glsum", "fourier", "kernel", "basis", "bialgebra")

# (metric, unit, better); the order is the order BENCHMARK.json lists them.
PER_LAYER = (
    [("gf.self_s", "s", "lower"),
     ("gf.mat_mul_calls", "count", "lower"),
     ("gf.field_op_calls", "count", "lower"),
     ("partitions.self_s", "s", "lower"),
     ("coeffring.self_s", "s", "lower"),
     ("coeffring.fraction_self_s", "s", "lower"),
     ("coeffring.sqrtext_mul_calls", "count", "lower"),
     ("coeffring.sqrtext_add_calls", "count", "lower"),
     ("repengine.self_s", "s", "lower"),
     ("repengine.sub_table_s", "s", "lower"),
     ("repengine.subspace_tuples_tried", "count", "lower"),
     ("repengine.submodules_found", "count", "higher"),
     ("repengine.stable_ratio", "ratio", "higher"),
     ("repengine.class_of_point_calls", "count", "lower"),
     ("repengine.hall_polynomial_s", "s", "lower"),
     ("repengine.hall_polynomial_samples", "count", "lower"),
     ("repengine.grade_data_s", "s", "lower"),
     ("repengine.points_scanned", "count", "lower"),
     ("repengine.orbit_acts", "count", "lower"),
     ("hallcore.self_s", "s", "lower"),
     ("hallcore.multiply_s", "s", "lower"),
     ("hallcore.multiply_calls", "count", "lower"),
     ("hallcore.comultiply_s", "s", "lower"),
     ("hallcore.comultiply_calls", "count", "lower"),
     ("hallcore.rref_s", "s", "lower"),
     ("primitives.self_s", "s", "lower"),
     ("fourier.self_s", "s", "lower"),
     ("suite.self_s", "s", "lower")]
    + [(f"suite.{name}_s", "s", "lower") for name in CRITERIA]
    + [("cli.self_s", "s", "lower"),
       ("cli.cache_read_s", "s", "lower"),
       ("cli.cache_write_s", "s", "lower"),
       ("cli.cache_bytes", "bytes", "lower"),
       ("cli.cache_hits", "count", "higher"),
       ("cli.cache_misses", "count", "lower"),
       ("trace.wall_s", "s", "lower")]
)


class Patches:
    """Replaces hallalg functions by wrappers and puts the originals back."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr, wrapper_of):
        """Wrap owner.attr; a module function is replaced in every hallalg
        module that imported it by name.  A missing attribute is skipped,
        so a renamed function degrades a metric to zero instead of failing."""
        original = inspect.getattr_static(owner, attr, None)
        if original is None:
            return
        wrapped = wrapper_of(original)
        if inspect.isclass(owner):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for name, module in list(sys.modules.items()):
            if name == "hallalg" or name.startswith("hallalg."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    """Installs spans on hallalg, profiles the timed phases, reports metrics."""

    def __init__(self):
        self.span_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._active = defaultdict(bool)
        self._patches = Patches()
        self._profile = cProfile.Profile()
        self._hot = {}

    # -- spans ----------------------------------------------------------------

    def _span(self, name, fn, after=None):
        active, span_s, calls = self._active, self.span_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if active[name]:
                result = fn(*args, **kwargs)
            else:
                active[name] = True
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_s[name] += time.perf_counter() - start
                    active[name] = False
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        from hallalg import cli, coeffring, gf, hallcore, repengine

        counts = self.counts

        def found(args, table):
            counts["repengine.submodules_found"] += sum(table.values())

        def samples(args, poly):
            counts["repengine.hall_polynomial_samples"] += len(args[0])

        def cache_read(args, data):
            counts["cli.cache_hits" if data is not None else "cli.cache_misses"] += 1

        def cache_write(args, _):
            counts["cli.cache_bytes"] += os.path.getsize(args[0])

        def scanned(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for point in fn(*args, **kwargs):
                    counts["repengine.points_scanned"] += 1
                    yield point
            return wrapper

        def span(name, after=None):
            return lambda fn: self._span(name, fn, after)

        wrap = self._patches.wrap
        for cls in (repengine.NilpotentCyclicEngine, repengine.BruteForceEngine):
            wrap(cls, "sub_table", span("repengine.sub_table"))
        wrap(repengine, "_submodule_table", span("repengine._submodule_table", found))
        wrap(repengine, "hall_polynomial", span("repengine.hall_polynomial"))
        wrap(coeffring, "interpolate_q", span("coeffring.interpolate_q", samples))
        wrap(repengine.BruteForceEngine, "grade_data", span("repengine.grade_data"))
        wrap(repengine.BruteForceEngine, "_iter_points", scanned)
        wrap(hallcore, "multiply", span("hallcore.multiply"))
        wrap(hallcore, "comultiply", span("hallcore.comultiply"))
        wrap(hallcore, "sqrtext_rref", span("hallcore.rref"))
        wrap(cli, "_load_cache", span("cli.cache_read", cache_read))
        wrap(cli, "_store_cache", span("cli.cache_write", cache_write))

        def functions(owner, *names):
            return [f for f in (getattr(owner, n, None) for n in names) if f is not None]

        nil, brute = repengine.NilpotentCyclicEngine, repengine.BruteForceEngine
        self._hot = {
            "gf.mat_mul_calls": functions(gf, "mat_mul"),
            "gf.field_op_calls": functions(gf.FieldSpec, "add", "sub", "mul", "neg",
                                           "inv", "power"),
            "coeffring.sqrtext_mul_calls": functions(coeffring.SqrtExt, "__mul__"),
            "coeffring.sqrtext_add_calls": functions(coeffring.SqrtExt, "__add__", "__sub__"),
            "repengine.subspace_tuples_tried": functions(repengine, "_sub_quotient_point"),
            "repengine.class_of_point_calls": (functions(nil, "class_of_point")
                                               + functions(brute, "class_of_point")),
            "repengine.orbit_acts": functions(brute, "_act"),
        }

    def uninstall(self):
        self._patches.restore()

    # -- profiler -------------------------------------------------------------

    def start(self):
        self.install()
        self._profile.enable()

    def stop(self):
        self._profile.disable()
        self.uninstall()

    # -- report ---------------------------------------------------------------

    def metrics(self, wall_s, criterion_s):
        stats = pstats.Stats(self._profile).stats
        package = os.path.dirname(sys.modules["hallalg"].__file__)

        def layer_of(filename):
            if os.path.dirname(filename) == package:
                return os.path.splitext(os.path.basename(filename))[0]
            if os.path.basename(filename) == "fractions.py":
                return "fraction"
            return None

        self_s = defaultdict(float)
        ncalls = {}
        for key, (_, nc, tottime, _, callers) in stats.items():
            ncalls[key] = nc
            if key[0] == "~":  # builtins: charge each caller its share
                for (cfile, _, _), (_, _, ctt, _) in callers.items():
                    layer = layer_of(cfile)
                    if layer:
                        self_s[layer] += ctt
            elif layer_of(key[0]):
                self_s[layer_of(key[0])] += tottime

        def calls_of(functions):
            total = 0
            for fn in functions:
                code = fn.__code__
                total += ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
            return total

        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out["coeffring.fraction_self_s"] = self_s["fraction"]
        for metric, functions in self._hot.items():
            out[metric] = calls_of(functions)
        tried = out["repengine.subspace_tuples_tried"]
        found = self.counts["repengine.submodules_found"]
        out.update({
            "repengine.sub_table_s": self.span_s["repengine.sub_table"],
            "repengine.submodules_found": found,
            "repengine.stable_ratio": found / tried if tried else 0.0,
            "repengine.hall_polynomial_s": self.span_s["repengine.hall_polynomial"],
            "repengine.hall_polynomial_samples": self.counts["repengine.hall_polynomial_samples"],
            "repengine.grade_data_s": self.span_s["repengine.grade_data"],
            "repengine.points_scanned": self.counts["repengine.points_scanned"],
            "hallcore.multiply_s": self.span_s["hallcore.multiply"],
            "hallcore.multiply_calls": self.calls["hallcore.multiply"],
            "hallcore.comultiply_s": self.span_s["hallcore.comultiply"],
            "hallcore.comultiply_calls": self.calls["hallcore.comultiply"],
            "hallcore.rref_s": self.span_s["hallcore.rref"],
            "cli.cache_read_s": self.span_s["cli.cache_read"],
            "cli.cache_write_s": self.span_s["cli.cache_write"],
            "cli.cache_bytes": self.counts["cli.cache_bytes"],
            "cli.cache_hits": self.counts["cli.cache_hits"],
            "cli.cache_misses": self.counts["cli.cache_misses"],
            "trace.wall_s": wall_s,
        })
        for name in CRITERIA:
            out[f"suite.{name}_s"] = criterion_s.get(name, 0.0)
        return out
