"""Per-layer tracing of relaxarea from outside the package.

The tracer rebinds the public functions of each ``relaxarea.*`` module, the
``VectorField`` evaluation methods and the ``Domain`` chart and membership
methods to timing wrappers, and restores the originals on ``uninstall``.
A function imported by name into several modules (``distance_to_chain``
lives in ``chains`` and is imported into ``fields``, ``quadrature`` and
``topology``) is rebound in every namespace that holds it, so no call path
escapes.  No file of the package is changed.

Each wrapped call opens a span (name, start, end, parent, task id).  A
span's self time is its duration minus the durations of its child spans,
so time spent in code that is not wrapped (private helpers, integrand and
field closures) is charged to the nearest wrapped caller.  Spans stay in
memory and are written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: public functions per module, mapped to the span name that records them
FUNCTIONS = {
    "relaxarea.fields": {
        "area_integrand": "fields.area_integrand",
        "minors2": "fields.minors2",
    },
    "relaxarea.chains": {
        "distance_to_chain": "chains.distance_to_chain",
        "chain_boundary": "chains.boundary",
        "interior_boundary": "chains.boundary",
    },
    "relaxarea.quadrature": {
        "integrate": "quadrature.integrate",
    },
    "relaxarea.topology": {
        "extract_lines_3d": "topology.extract",
        "extract_vortices_2d": "topology.extract",
        "winding_number": "topology.winding_number",
    },
    "relaxarea.recovery": {
        name: "recovery.build"
        for name in (
            "vortex_smoothing_2d", "cone_dipole", "remove_point_singularity",
            "homogeneous_cone_extension", "counterexample_sequence",
            "cylinder_analogue_2d", "disk_defect_field_3d", "linear_disk_filler",
            "cone_defect_field_4d", "cone_defect_filler",
        )
    } | {
        name: "recovery.report"
        for name in ("graph_mass", "point_removal_report", "cone_extension_report")
    },
    "relaxarea.relaxation": {
        "fit_power_model": "relaxation.fit",
    } | {
        name: "relaxation.study"
        for name in (
            "convergence_study", "study_from_rows", "extrapolate_limit",
            "strict_bv_check", "study_vortex_smoothing", "study_cone_dipole",
            "study_dipole_gradient", "study_chain_disk", "study_counterexample",
            "study_cylinder_analogue_2d", "subadditivity_experiment",
        )
    },
    "relaxarea.cli": {
        "main": "cli.main",
    },
}

#: per-layer metrics reported by a traced run, with their units
PER_LAYER_UNITS = {
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrand.calls": "count",
    "quadrature.integrand.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.cells": "count",
    "quadrature.points_per_call": "points/call",
    "quadrature.unconverged": "count",
    "fields.jacobian_many.calls": "count",
    "fields.jacobian_many.points": "count",
    "fields.jacobian_many.self_s": "s",
    "fields.evaluate_many.calls": "count",
    "fields.evaluate_many.points": "count",
    "fields.evaluate_many.self_s": "s",
    "fields.area_integrand.self_s": "s",
    "fields.minors2.self_s": "s",
    "chains.distance_to_chain.calls": "count",
    "chains.distance_to_chain.point_cells": "count",
    "chains.distance_to_chain.self_s": "s",
    "chains.boundary.self_s": "s",
    "domains.charts.calls": "count",
    "domains.map.self_s": "s",
    "domains.membership.points": "count",
    "topology.extract.calls": "count",
    "topology.extract.self_s": "s",
    "topology.field_calls": "count",
    "topology.lift_points": "count",
    "topology.winding_number.calls": "count",
    "topology.winding_number.self_s": "s",
    "recovery.build.calls": "count",
    "recovery.build.self_s": "s",
    "recovery.report.self_s": "s",
    "relaxation.fit.calls": "count",
    "relaxation.fit.self_s": "s",
    "relaxation.study.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_frac": "ratio",
}

#: Gauss order 8 cell plus its embedded order-4 error rule, per dimension
_CELL_NODES = {d: 8**d + 4**d for d in (2, 3, 4)}


def _rows(X) -> int:
    return 1 if np.ndim(X) < 2 else len(X)


class Tracer:
    """Span recorder and counter set for one traced phase of a run."""

    def __init__(self):
        self.task = None
        self.keep_spans = True
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, child seconds, name]
        self._undo: list[tuple] = []
        self.reset()

    # -- accumulation -------------------------------------------------------

    def reset(self):
        """Zero the counters and self times (spans already kept stay)."""
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def _parent_name(self):
        return self._stack[-2][2] if len(self._stack) > 1 else None

    def wrap(self, name, fn, after=None):
        """Timing wrapper; ``after(tracer, args, kwargs, result, exc)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            idx = -1
            if tracer.keep_spans:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            frame = [idx, 0.0, name]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                dur = end - start
                tracer.self_s[name] += dur - frame[1]
                tracer.counts[name + ".calls"] += 1
                if after is not None:
                    after(tracer, args, kwargs, result, exc)
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tracer.spans[idx] = (name, start, end, parent, tracer.task)

        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "relaxarea"
                                   or modname.startswith("relaxarea.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        import relaxarea.cli  # noqa: F401  (load every module to rebind)
        from relaxarea import domains, fields, relaxation

        afters = {
            "chains.distance_to_chain": _after_distance,
            "topology.extract": _after_extract,
        }
        for modname, table in FUNCTIONS.items():
            mod = sys.modules[modname]
            for fname, span in table.items():
                original = getattr(mod, fname)
                if span == "quadrature.integrate":
                    replacement = self._wrap_integrate(original)
                else:
                    replacement = self.wrap(span, original, afters.get(span))
                self._rebind_everywhere(original, replacement)

        vf = fields.VectorField
        self._patch_attr(vf, "evaluate_many", self.wrap(
            "fields.evaluate_many", vf.evaluate_many, _after_evaluate))
        self._patch_attr(vf, "jacobian_many", self.wrap(
            "fields.jacobian_many", vf.jacobian_many, _after_points))

        for cls in (domains.Domain, domains.Ball, domains.Annulus, domains.Cube,
                    domains.Cone, domains.Difference):
            if "membership" in cls.__dict__:
                self._patch_attr(cls, "membership", self.wrap(
                    "domains.membership", cls.__dict__["membership"],
                    _after_points))
            if "charts" in cls.__dict__:
                self._patch_attr(cls, "charts", self.wrap(
                    "domains.charts", self._charts_wrapper(cls.__dict__["charts"])))

        # output bytes are counted without a span, so writing stays in cli self
        write_text = relaxation.write_text

        def counted_write(text, path):
            self.counts["cli.bytes_written"] += len(text.encode("utf-8"))
            return write_text(text, path)

        self._rebind_everywhere(write_text, counted_write)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _charts_wrapper(self, charts_fn):
        tracer = self

        def charts(domain):
            out = charts_fn(domain)
            if out is None:
                return None
            return [
                dataclasses.replace(
                    ch,
                    to_physical=tracer.wrap("domains.map", ch.to_physical),
                    weight=tracer.wrap("domains.map", ch.weight),
                    mask=None if ch.mask is None
                    else tracer.wrap("domains.map", ch.mask),
                )
                for ch in out
            ]

        return charts

    def _wrap_integrate(self, integrate):
        tracer = self
        from relaxarea.errors import NoConvergence

        def with_counted_integrand(f, domain, *args, **kwargs):
            traced_f = tracer.wrap("quadrature.integrand", f, _after_integrand)
            return integrate(traced_f, domain, *args, **kwargs)

        def after(tr, args, kwargs, result, exc):
            if isinstance(exc, NoConvergence):
                tr.counts["quadrature.unconverged"] += 1
            if result is None:
                return
            if not result.converged:
                tr.counts["quadrature.unconverged"] += 1
            nodes = result.nodes_used
            tr.counts["quadrature.nodes"] += nodes
            domain = args[1] if len(args) > 1 else kwargs["domain"]
            per_cell = _CELL_NODES[domain.n]
            if nodes % per_cell == 0:  # skips Monte Carlo fallback results
                tr.counts["quadrature.cells"] += nodes // per_cell

        wrapped = self.wrap("quadrature.integrate", with_counted_integrand, after)
        return functools.wraps(integrate)(wrapped)

    # -- reporting ----------------------------------------------------------

    def raw(self) -> dict:
        """Counters and self times accumulated since the last ``reset``."""
        out = dict(self.counts)
        out.update({name + ".self_s": v for name, v in self.self_s.items()})
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start", "end", "parent", "task"])
            for i, (name, start, end, parent, task) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent,
                                 task])


def per_layer(raw: dict) -> dict:
    """Reported per-layer metrics (except the overhead) from raw counters."""
    out = {name: raw.get(name, 0) for name in PER_LAYER_UNITS
           if name != "trace.overhead_frac"}
    calls = raw.get("quadrature.integrand.calls", 0)
    out["quadrature.points_per_call"] = (
        raw.get("quadrature.integrand.points", 0) / calls if calls else 0.0)
    out["topology.lift_points"] = (raw.get("topology.field_points", 0)
                                   - raw.get("topology.lattice_nodes", 0))
    for name, value in out.items():
        if PER_LAYER_UNITS[name] == "s":
            out[name] = float(value)
    return out


# -- counters attached to single wrappers -------------------------------------


def _after_points(tr, args, kwargs, result, exc):
    """Rows of the point batch passed as the first argument after self."""
    tr.counts[tr._stack[-1][2] + ".points"] += _rows(args[1])


def _after_evaluate(tr, args, kwargs, result, exc):
    rows = _rows(args[1])
    tr.counts["fields.evaluate_many.points"] += rows
    if tr._parent_name() == "topology.extract":
        tr.counts["topology.field_calls"] += 1
        tr.counts["topology.field_points"] += rows


def _after_distance(tr, args, kwargs, result, exc):
    chain = args[1] if len(args) > 1 else kwargs["chain"]
    tr.counts["chains.distance_to_chain.point_cells"] += (
        _rows(args[0]) * len(chain.cells))


def _after_extract(tr, args, kwargs, result, exc):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tr.counts["topology.lattice_nodes"] += grid.resolution ** grid.n


def _after_integrand(tr, args, kwargs, result, exc):
    tr.counts["quadrature.integrand.points"] += _rows(args[0])
