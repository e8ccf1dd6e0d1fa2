"""Span tracing of ``pshmodels`` from outside the package.

The tracer wraps the public entry points of each module where callers look
them up: body and model methods on their classes, module functions in
every ``pshmodels`` module that binds them by name, and the CLI's suite
runner table. Spans are kept in flat in-memory arrays (name, parent,
start, end), grouped into rounds, written out once at the end, and reduced
to per-layer metrics afterwards.
"""
from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from array import array
from collections import Counter
from types import SimpleNamespace

import numpy as np

# (module, function, span name) for module-level entry points.
FUNCTIONS = (
    ("sampling", "substream", "sampling.substream"),
    ("sampling", "unit_vector", "sampling.unit_vector"),
    ("levi", "levi_matrix", "levi.levi_matrix"),
    ("levi", "levi_line", "levi.levi_line"),
    ("levi", "tube_levi_residual", "levi.tube_levi_residual"),
    ("levi", "gauge_identity_residuals", "levi.gauge_identity_residuals"),
    ("maximality", "max_violation", "maximality.max_violation"),
    ("geodesics", "chart", "geodesics.chart"),
    ("geodesics", "identity_residual", "geodesics.identity_residual"),
    ("geodesics", "striptube_geodesic", "geodesics.striptube_geodesic"),
    ("cli", "_load_model", "cli.load_model"),
    ("cli", "_emit", "cli.emit"),
)
# (method, span name), patched on every ConvexBody subclass defining it.
# Only _gauge is wrapped, not gauge: gauge validates and calls _gauge, and
# the models call _gauge directly, so each evaluation counts once.
BODY_METHODS = (
    ("_gauge", "bodies.gauge"),
    ("contains", "bodies.contains"),
    ("_gauge_bisect", "bodies.bisect"),
    ("support", "bodies.support"),
)
MODEL_METHODS = (
    ("potential", "models.potential"),
    ("member", "models.member"),
    ("sample_member", "models.sample_member"),
    ("sample_fd_safe", "models.sample_fd_safe"),
)
COMPETITOR_FACTORIES = ("slab_pullback", "linear_pullback",
                        "geodesic_pullback")
SUITES = ("psh", "ma", "tube-levi", "gauge-derivatives", "maximality",
          "geodesics", "schwarz")
REJECTS = "models.member.rejects"
COMPETITOR_EVALS = "maximality.competitor_evals"


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest, so a span's children are disjoint
    intervals inside it and cover exactly the sum of their durations.
    """
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    covered = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.rounds: list = []  # (first span, end span, counter snapshot)
        self.missing: list = []
        self._stack = [-1]
        self._patches: list = []
        self._round_start = 0
        for name in SPAN_NAMES:
            self.intern(name)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count_false: str | None = None):
        """fn wrapped in a span; a call nested directly in a span of the
        same name (a super() delegation) is merged into the outer span."""
        nid = self.intern(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(top)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count_false and not result:
                counts[count_false] += 1
            return result
        return span

    # -- installation -----------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _patch_everywhere(self, original, replacement) -> bool:
        found = False
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                    found = True
        return found

    def _patch_methods(self, base, attr, name, **kw):
        found = False
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **kw))
                found = True
        if not found:
            self.missing.append(f"{base.__name__}.{attr}")

    def install(self) -> None:
        """Wrap the package's entry points; hooks not found are listed in
        ``missing`` and their metrics read zero."""
        from pshmodels import (bodies, cli, geodesics, levi, maximality,
                               models, sampling)
        mods = {"sampling": sampling, "levi": levi, "maximality": maximality,
                "geodesics": geodesics, "cli": cli}
        for attr, name in BODY_METHODS:
            self._patch_methods(bodies.ConvexBody, attr, name)
        # the Polytope constructor runs the LPs (bounding box, Chebyshev)
        self._patch_methods(bodies.Polytope, "__init__", "bodies.construct")
        for attr, name in MODEL_METHODS:
            self._patch_methods(models.Model, attr, name,
                                count_false=REJECTS if attr == "member"
                                else None)
        for module, attr, name in FUNCTIONS:
            original = getattr(mods[module], attr, None)
            if original is None or not self._patch_everywhere(
                    original, self.wrap(name, original)):
                self.missing.append(f"{module}.{attr}")
        for attr in COMPETITOR_FACTORIES:
            original = getattr(maximality, attr, None)
            if original is None:
                self.missing.append(f"maximality.{attr}")
                continue
            self._patch_everywhere(original, self._counting_factory(original))
        runners = getattr(cli, "_SUITE_RUNNERS", {})
        for suite in SUITES:
            if suite in runners:
                self._set(runners, suite,
                          self.wrap(f"cli.suite.{suite}", runners[suite]))
            else:
                self.missing.append(f"cli._SUITE_RUNNERS[{suite!r}]")
        if getattr(cli, "csv", None) is csv:
            self._set(cli, "csv", _TracedCsv(self))
        else:
            self.missing.append("cli.csv")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _counting_factory(self, factory):
        """factory with each returned competitor's evaluator counted."""
        counts = self.counts

        @functools.wraps(factory)
        def make(*args, **kwargs):
            competitor = factory(*args, **kwargs)
            evaluate = competitor.evaluate

            def counted(z):
                counts[COMPETITOR_EVALS] += 1
                return evaluate(z)
            competitor.evaluate = counted
            return competitor
        return make

    # -- rounds and output ------------------------------------------------

    def begin_round(self) -> None:
        self._round_start = len(self.start)
        self.counts.clear()

    def end_round(self) -> None:
        self.rounds.append((self._round_start, len(self.start),
                            dict(self.counts)))

    def save(self, path) -> None:
        """Write every recorded span and the round boundaries."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end),
                 rounds=np.array([r[:2] for r in self.rounds], dtype=np.int64)
                 .reshape(-1, 2))

    def round_metrics(self, index: int) -> dict:
        lo, hi, counts = self.rounds[index]
        name = np.asarray(self.name[lo:hi], dtype=np.int64)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        parent = np.where(parent >= 0, parent - lo, -1)
        start = np.asarray(self.start[lo:hi])
        end = np.asarray(self.end[lo:hi])
        return layer_metrics(self.names, name, parent, start, end, counts)


class _TracedCsv:
    """Stands in for the csv module in pshmodels.cli: CSV rows written by
    a command count as emission time."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def writer(self, *args, **kwargs):
        inner = csv.writer(*args, **kwargs)
        return SimpleNamespace(
            writerow=self._tracer.wrap("cli.emit", inner.writerow),
            writerows=self._tracer.wrap("cli.emit", inner.writerows))


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "pshmodels" or n.startswith("pshmodels.")]


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(s for s in _subclasses(sub) if s not in seen)
    return seen


# Spans reported with calls and self time.
TIMED_SPANS = ("bodies.gauge", "bodies.contains", "bodies.bisect",
               "bodies.support", "models.potential", "models.member",
               "models.sample_member", "models.sample_fd_safe",
               "sampling.substream", "levi.levi_matrix", "levi.levi_line",
               "levi.tube_levi_residual", "levi.gauge_identity_residuals",
               "maximality.max_violation", "geodesics.chart",
               "geodesics.identity_residual", "geodesics.striptube_geodesic")
SPAN_NAMES = tuple(n for _, n in BODY_METHODS) + ("bodies.construct",) \
    + tuple(n for _, n in MODEL_METHODS) + tuple(n for _, _, n in FUNCTIONS) \
    + tuple(f"cli.suite.{s}" for s in SUITES)


def layer_metrics(names, name, parent, start, end, counts) -> dict:
    """Per-layer metrics of one round of spans.

    ``calls`` are span counts, ``self_s`` summed self times, ``us_per_call``
    the mean inclusive duration in microseconds, ``.s`` and ``construct_s``
    summed inclusive durations.
    """
    ids = {n: i for i, n in enumerate(names)}
    width = len(names)
    calls = np.bincount(name, minlength=width)
    own = np.bincount(name, weights=self_times(parent, start, end),
                      minlength=width)
    total = np.bincount(name, weights=end - start, minlength=width)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def children(child, of):
        return int(np.sum((name == ids[child]) & (parent_name == ids[of])))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for span in TIMED_SPANS:
        m[f"{span}.calls"] = int(calls[ids[span]])
        m[f"{span}.self_s"] = float(own[ids[span]])
    for span in ("bodies.gauge", "models.potential", "sampling.substream"):
        m[f"{span}.us_per_call"] = 1e6 * ratio(float(total[ids[span]]),
                                               int(calls[ids[span]]))
    m["bodies.construct_s"] = float(total[ids["bodies.construct"]])
    m["bodies.bisect.contains_per_call"] = ratio(
        children("bodies.contains", "bodies.bisect"), m["bodies.bisect.calls"])
    m["models.member.reject_frac"] = ratio(counts.get(REJECTS, 0),
                                           m["models.member.calls"])
    m["models.sample_fd_safe.contains_per_sample"] = ratio(
        children("bodies.contains", "models.sample_fd_safe"),
        m["models.sample_fd_safe.calls"])
    m["sampling.unit_vector.calls"] = int(calls[ids["sampling.unit_vector"]])
    m["levi.field_evals_per_matrix"] = ratio(
        children("models.potential", "levi.levi_line"),
        m["levi.levi_matrix.calls"])
    m["maximality.competitor_evals"] = int(counts.get(COMPETITOR_EVALS, 0))
    for suite in SUITES:
        m[f"cli.suite.{suite}.s"] = float(total[ids[f"cli.suite.{suite}"]])
    m["cli.load_model.s"] = float(total[ids["cli.load_model"]])
    m["cli.emit.s"] = float(total[ids["cli.emit"]])
    return m


def combine_rounds(rounds: list, exact: set) -> tuple:
    """Metrics over traced rounds: exact metrics from the first round,
    checked equal in every round; the others are medians.

    Returns (metrics, names of exact metrics that differed between rounds).
    """
    first = rounds[0]
    unstable = sorted(k for k in first if k in exact
                      and any(r[k] != first[k] for r in rounds[1:]))
    combined = {k: first[k] if k in exact
                else statistics.median(r[k] for r in rounds) for k in first}
    return combined, unstable
