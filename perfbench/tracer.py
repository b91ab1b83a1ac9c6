"""In-memory span tracer installed around the package's public functions.

Each call to a target opens a span (id, parent id, name, start, end, raised).
Spans stay in memory; the benchmark summarises them and writes them out at
the end. A span's self time is its duration minus the part of it covered by
its child spans. Counters are computed at the same boundaries from the
arguments and results of the wrapped calls, by hooks that run before and
after the call in ``perfbench.hook`` spans of their own.

The wrappers are installed from outside the package: every module-level
name in ``sparsemfd.*`` bound to a target function is rebound to the
wrapper, because modules import names directly (``from .kriging import
impute_network``). Classmethod targets are rewrapped on their class.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

PACKAGE = "sparsemfd"

# (module, qualified name) of every timed public function, by layer
TARGETS = (
    ("variogram", "fit_variogram"),
    ("variogram", "empirical_variogram"),
    ("variogram", "distance_bin_edges"),
    ("network", "site_distance_matrix"),
    ("network", "cross_distance_matrix"),
    ("network", "load_network"),
    ("network", "load_detector_sites"),
    ("synth", "generate_scenario"),
    ("synth", "covariance_factor"),
    ("kriging", "solve_kriging"),
    ("kriging", "impute_network"),
    ("kriging", "network_mean_from_field"),
    ("kriging", "ImputationDistances.build"),
    ("sensing", "aggregate_to_links"),
    ("sensing", "sample_coverage"),
    ("sensing", "edie_network_truth"),
    ("sensing", "load_readings"),
    ("scaling", "uniform_scaled_mean"),
    ("scaling", "hierarchical_scaled_mean"),
    ("scaling", "HierarchyPartition.from_network"),
    ("tableio", "write_table"),
    ("mfd", "build_mfd"),
    ("mfd", "fit_quadratic_with_ci"),
    ("metrics", "compute_metrics"),
    ("metrics", "paired_t_test"),
    ("experiment", "run_experiment"),
    ("experiment", "write_outputs"),
    ("experiment", "emit_plot_data"),
)

FUNCTION_FIELDS = ("calls", "self_s", "raised")

# counters computed at the wrapped boundaries; ratios have their own unit
COUNTERS = {
    "variogram.pairs_binned": "count",
    "variogram.fit_useful_ratio": "share",
    "network.pairs_computed": "count",
    "synth.cholesky_flop": "flop",
    "kriging.solve_useful_ratio": "share",
    "kriging.neighbors_mean": "count",
    "sensing.readings_aggregated": "count",
    "tableio.rows_written": "count",
    "tableio.bytes_written": "byte",
}

# a fitted range beyond this multiple of the largest lag used is not useful
USEFUL_RANGE_FACTOR = 10.0

# counter hooks run in spans of their own, so that their cost is not booked
# as self time of the caller
HOOK_SPAN = "perfbench.hook"


def span_name(module, qualname):
    return f"{module}.{qualname}"


class Tracer:
    """Collects spans and counters of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [id, parent, name, start, end, raised]
        self.counts = {}
        self._stack = []

    def open(self, name):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                name, self.clock(), None, False]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, raised=False):
        span[4] = self.clock()
        span[5] = raised
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span '{span[2]}' closed out of order")

    def add(self, counter, amount=1):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around a block."""
        span = self.open(name)
        try:
            yield span
        except BaseException:
            self.close(span, raised=True)
            raise
        self.close(span)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                with self.span(HOOK_SPAN):
                    args, kwargs = hook.before(self, args, kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, raised=True)
                if hook is not None:
                    with self.span(HOOK_SPAN):
                        hook.after(self, args, kwargs, None, exc)
                raise
            self.close(span)
            if hook is not None:
                with self.span(HOOK_SPAN):
                    hook.after(self, args, kwargs, result, None)
            return result

        return traced

    def self_times(self):
        """Self time of every span: duration minus the union of its children."""
        children = {}
        for span in self.spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append((span[3], span[4]))
        out = []
        for span in self.spans:
            start, end = span[3], span[4]
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span[0], ())):
                c_start = max(c_start, reach)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def summary(self, names):
        """Per-name calls, self time and raised count, for ``names``."""
        stats = {name: {"calls": 0, "self_s": 0.0, "raised": 0} for name in names}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = stats.get(span[2])
            if entry is None:
                continue
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["raised"] += int(span[5])
        return stats

    def root_duration(self, name):
        return sum(s[4] - s[3] for s in self.spans if s[1] is None and s[2] == name)

    def counter_values(self):
        """Counters as reported: ratios from their numerator and denominator."""
        c = self.counts
        return {
            "variogram.pairs_binned": c.get("variogram.pairs_binned", 0),
            "variogram.fit_useful_ratio": _ratio(
                c.get("variogram.fits_useful", 0), c.get("variogram.fits_attempted", 0)
            ),
            "network.pairs_computed": c.get("network.pairs_computed", 0),
            "synth.cholesky_flop": c.get("synth.cholesky_flop", 0),
            "kriging.solve_useful_ratio": _ratio(
                c.get("kriging.solves_solved", 0), c.get("kriging.solves_attempted", 0)
            ),
            "kriging.neighbors_mean": _ratio(
                c.get("kriging.neighbors_total", 0), c.get("kriging.solves_solved", 0)
            ),
            "sensing.readings_aggregated": c.get("sensing.readings_aggregated", 0),
            "tableio.rows_written": c.get("tableio.rows_written", 0),
            "tableio.bytes_written": c.get("tableio.bytes_written", 0),
        }

    def dump(self, path, extra=None):
        payload = {"spans": self.spans, "counts": self.counts}
        payload.update(extra or {})
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        return path


def _ratio(numerator, denominator):
    """A share; 0 when nothing was attempted (the attempt count is in the dump)."""
    return numerator / denominator if denominator else 0.0


# --- counter hooks ---------------------------------------------------------

class _Hook:
    def __init__(self, fn):
        self.signature = inspect.signature(fn)

    def bind(self, args, kwargs):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, kwargs, result, exc):
        pass


class _FitHook(_Hook):
    def after(self, tracer, args, kwargs, result, exc):
        tracer.add("variogram.fits_attempted")
        if exc is not None or result.degenerate:
            return
        bound = self.bind(args, kwargs)
        empirical = bound["empirical"]
        usable = (
            empirical.populated
            & (empirical.pair_counts >= bound["min_pairs"])
            & np.isfinite(empirical.gamma_hat)
        )
        largest_lag = float(empirical.centers[usable].max())
        if result.range_km <= USEFUL_RANGE_FACTOR * largest_lag:
            tracer.add("variogram.fits_useful")


class _EmpiricalHook(_Hook):
    def after(self, tracer, args, kwargs, result, exc):
        if exc is None:
            tracer.add("variogram.pairs_binned", int(result.pair_counts.sum()))


class _DistanceHook(_Hook):
    def __init__(self, fn, square):
        super().__init__(fn)
        self.square = square

    def after(self, tracer, args, kwargs, result, exc):
        if exc is not None:
            return
        rows, cols = result.shape
        pairs = rows * (rows - 1) // 2 if self.square else rows * cols
        tracer.add("network.pairs_computed", pairs)


class _CholeskyHook(_Hook):
    def after(self, tracer, args, kwargs, result, exc):
        n = result.shape[0] if exc is None else len(self.bind(args, kwargs)["distances"])
        tracer.add("synth.cholesky_flop", n ** 3 // 3)


class _SolveHook(_Hook):
    def after(self, tracer, args, kwargs, result, exc):
        tracer.add("kriging.solves_attempted")
        if exc is None:
            tracer.add("kriging.solves_solved")
            tracer.add("kriging.neighbors_total", len(result.neighbor_ids))


class _AggregateHook(_Hook):
    def before(self, tracer, args, kwargs):
        tracer.add("sensing.readings_aggregated", len(self.bind(args, kwargs)["readings"]))
        return args, kwargs


class _WriteTableHook(_Hook):
    """Rows are the lines of the written file after its header."""

    def after(self, tracer, args, kwargs, result, exc):
        if exc is None:
            with open(os.fspath(self.bind(args, kwargs)["path"]), "rb") as handle:
                data = handle.read()
            tracer.add("tableio.rows_written", data.count(b"\n") - 1)
            tracer.add("tableio.bytes_written", len(data))


_HOOKS = {
    "variogram.fit_variogram": _FitHook,
    "variogram.empirical_variogram": _EmpiricalHook,
    "network.site_distance_matrix": lambda fn: _DistanceHook(fn, square=True),
    "network.cross_distance_matrix": lambda fn: _DistanceHook(fn, square=False),
    "synth.covariance_factor": _CholeskyHook,
    "kriging.solve_kriging": _SolveHook,
    "sensing.aggregate_to_links": _AggregateHook,
    "tableio.write_table": _WriteTableHook,
}


# --- installation ----------------------------------------------------------

class Installation:
    """Wrappers installed into the package; ``restore`` undoes every rebinding."""

    def __init__(self):
        self.installed = []  # span names that were found and wrapped
        self.absent = []  # span names whose target no longer exists
        self._undo = []

    def rebind(self, original, wrapper, modules):
        """Point every module-level name bound to ``original`` at ``wrapper``."""
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def package_modules(package=PACKAGE):
    """The loaded modules of ``package``, the package itself included."""
    importlib.import_module(package)
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


def install(tracer, targets=TARGETS, package=PACKAGE):
    """Wrap every target; a target that cannot be found is listed as absent."""
    modules = package_modules(package)
    installation = Installation()
    for module_name, qualname in targets:
        name = span_name(module_name, qualname)
        try:
            module = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            installation.absent.append(name)
            continue
        if "." in qualname:
            owner_name, attr = qualname.split(".", 1)
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if not isinstance(raw, classmethod):
                installation.absent.append(name)
                continue
            hook = _make_hook(name, raw.__func__)
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, hook)))
            installation._undo.append((owner, attr, raw))
        else:
            original = getattr(module, qualname, None)
            if not callable(original):
                installation.absent.append(name)
                continue
            wrapper = tracer.wrap(name, original, _make_hook(name, original))
            installation.rebind(original, wrapper, modules)
        installation.installed.append(name)
    return installation


def _make_hook(name, fn):
    factory = _HOOKS.get(name)
    return factory(fn) if factory is not None else None
