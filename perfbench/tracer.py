"""Span tracer that measures projlab's layers from outside the package.

`install` replaces public functions with timing wrappers in every projlab
module namespace that holds them (a name imported with `from .x import f`
is a separate binding), and wraps the chart evaluation methods at class
level.  Spans stay in memory as flat arrays until `summary` and `save` run
at the end of the process.  Wrappers never touch arguments or results, so a
traced run writes the same report bytes as an untraced one.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array

import numpy as np

CHART_METHODS = ("point", "jacobian", "hessian", "normal", "normal_jacobian")


def _rows(x) -> int:
    """Number of points in a batch whose last axis is the coordinate."""
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    if len(shape) < 2:
        return 1
    return math.prod(shape[:-1])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _report_bytes(paths) -> int:
    return os.path.getsize(paths["report"]) + os.path.getsize(paths["csv"])


# span name -> (module, attribute, rows from (args, kwargs), outcome from result)
TARGETS = {
    "cone.nearest_direction": ("projlab.cone", "nearest_direction",
                               lambda a, k: _rows(_arg(a, k, 1, "dirs")), None),
    "cone.line_cone_points": ("projlab.cone", "line_cone_points", None, len),
    "cone.line_cone_tube_volume": ("projlab.cone", "line_cone_tube_volume", None, None),
    "cone.cone_distance": ("projlab.cone", "cone_distance",
                           lambda a, k: _rows(_arg(a, k, 1, "p")), None),
    "cone.tube_components": ("projlab.cone", "tube_components", None, None),
    "cone.tangent_plane_angle": ("projlab.cone", "tangent_plane_angle", None, None),
    "cone.make_transversal_lines": ("projlab.cone", "make_transversal_lines", None, len),
    "manifold.frame_matrices": ("projlab.manifold", "frame_matrices",
                                lambda a, k: _rows(_arg(a, k, 1, "x")), None),
    # the lazy `constants` cache is filled by this one call per chart
    "manifold.constants": ("projlab.manifold", "_estimate_constants", None, None),
    "projmap.pair_intersection_volume": ("projlab.projmap", "pair_intersection_volume",
                                         lambda a, k: _arg(a, k, 3, "samples"),
                                         lambda r: r.hits),
    "projmap.c2_distance": ("projlab.projmap", "c2_distance", None, None),
    "sets.covering_number": ("projlab.sets", "covering_number",
                             lambda a, k: _rows(_arg(a, k, 0, "points")), None),
    "sets.box_dimension": ("projlab.sets", "box_dimension", None, None),
    "sets.build_cantor_dust": ("projlab.sets", "build_cantor_dust", None, None),
    "util.sample_ball": ("projlab.util", "sample_ball",
                         lambda a, k: _arg(a, k, 2, "count"), None),
    "util.rng_stream": ("projlab.util", "rng_stream", None, None),
    "cli.parse_config": ("projlab.cli", "parse_config", None, None),
    "cli.dispatch": ("projlab.cli", "dispatch", None, None),
}


class Tracer:
    """In-memory span recorder: one row per call of a wrapped function.

    Spans of one process share `run_id`; `parent` is the index of the
    enclosing span, or -1 at top level.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.outcome = array("q")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._stack = [-1]
        self._depth: list[int] = []

    def wrap(self, name: str, fn, rows=None, outcome=None):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.outer.append(depth[nid] == 0)
            self.rows.append(rows(args, kwargs) if rows else 0)
            self.outcome.append(0)
            self.end.append(0.0)
            stack.append(i)
            depth[nid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
                depth[nid] -= 1
            if outcome:
                self.outcome[i] = outcome(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded projlab module that binds it."""
        from projlab import experiments, manifold

        modules = [m for k, m in sys.modules.items() if k.startswith("projlab") and m]
        for span, (modname, attr, rows, outcome) in TARGETS.items():
            orig = getattr(sys.modules[modname], attr)
            traced = self.wrap(span, orig, rows, outcome)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        for key, fn in list(experiments.EXPERIMENTS.items()):
            experiments.EXPERIMENTS[key] = self.wrap("experiments.driver", fn)
        report = experiments.ExperimentReport
        report.write = self.wrap("experiments.report_write", report.write,
                                 outcome=_report_bytes)
        charts = [manifold.ManifoldChart]
        for cls in charts:
            charts.extend(cls.__subclasses__())
            for meth in CHART_METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, self.wrap(
                        "manifold.chart_eval", vars(cls)[meth],
                        lambda a, k: _rows(_arg(a, k, 1, "x"))))

    def arrays(self) -> dict:
        """Copies of the span columns (a view would pin the buffers)."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "rows": np.array(self.rows, dtype=np.int64),
            "outcome": np.array(self.outcome, dtype=np.int64),
            "outer": np.array(self.outer, dtype=bool),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), run_id=np.array(self.run_id),
                            **self.arrays())

    def summary(self) -> dict:
        return layer_metrics(self.names, self.arrays())

    def module_self_s(self) -> dict:
        """Self seconds per projlab module (the span name's first part)."""
        sp = self.arrays()
        own = np.bincount(sp["name"], weights=self_times(sp["parent"], sp["start"], sp["end"]),
                          minlength=len(self.names))
        out: dict[str, float] = {}
        for name, seconds in zip(self.names, own):
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + float(seconds)
        return out


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct child spans cover."""
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


def layer_metrics(names: list[str], sp: dict) -> dict:
    """Per-layer metrics, name -> {"value", "unit"}, from one process's spans."""
    dur = sp["end"] - sp["start"]
    own = self_times(sp["parent"], sp["start"], sp["end"])
    index = {nm: i for i, nm in enumerate(names)}

    def mask(name):
        return sp["name"] == index.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def total(name):
        return float(dur[mask(name) & sp["outer"]].sum())

    def self_s(name):
        return float(own[mask(name)].sum())

    def rows(name):
        return int(sp["rows"][mask(name)].sum())

    def outcome(name):
        return int(sp["outcome"][mask(name)].sum())

    def pct(values, q):
        return float(np.percentile(values, q)) if values.size else 0.0

    nd = dur[mask("cone.nearest_direction")] * 1e6
    chart_rows = sp["rows"][mask("manifold.chart_eval")]
    mtl = mask("cone.make_transversal_lines")
    cut_in_search = mask("cone.line_cone_points") & np.isin(
        sp["parent"], np.flatnonzero(mtl))
    tried = int(np.count_nonzero(cut_in_search))
    samples = rows("projmap.pair_intersection_volume")
    hits = outcome("projmap.pair_intersection_volume")
    out = {
        "cone.nearest_direction.calls": (calls("cone.nearest_direction"), "count"),
        "cone.nearest_direction.rows": (rows("cone.nearest_direction"), "count"),
        "cone.nearest_direction.self_s": (self_s("cone.nearest_direction"), "s"),
        "cone.nearest_direction.call_p50_us": (pct(nd, 50), "us"),
        "cone.nearest_direction.call_p99_us": (pct(nd, 99), "us"),
        "cone.line_cone_points.calls": (calls("cone.line_cone_points"), "count"),
        "cone.line_cone_points.cuts": (outcome("cone.line_cone_points"), "count"),
        "cone.line_cone_points.self_s": (self_s("cone.line_cone_points"), "s"),
        "cone.line_cone_points.total_s": (total("cone.line_cone_points"), "s"),
        "cone.line_cone_tube_volume.calls": (calls("cone.line_cone_tube_volume"), "count"),
        "cone.line_cone_tube_volume.self_s": (self_s("cone.line_cone_tube_volume"), "s"),
        "cone.cone_distance.calls": (calls("cone.cone_distance"), "count"),
        "cone.cone_distance.rows": (rows("cone.cone_distance"), "count"),
        "cone.cone_distance.self_s": (self_s("cone.cone_distance"), "s"),
        "cone.tube_components.calls": (calls("cone.tube_components"), "count"),
        "cone.tube_components.total_s": (total("cone.tube_components"), "s"),
        "cone.tangent_plane_angle.calls": (calls("cone.tangent_plane_angle"), "count"),
        "cone.make_transversal_lines.total_s": (total("cone.make_transversal_lines"), "s"),
        "cone.make_transversal_lines.accept_ratio": (
            outcome("cone.make_transversal_lines") / tried if tried else 0.0, "ratio"),
        "manifold.chart_eval.calls": (calls("manifold.chart_eval"), "count"),
        "manifold.chart_eval.rows": (int(chart_rows.sum()), "count"),
        "manifold.chart_eval.self_s": (self_s("manifold.chart_eval"), "s"),
        "manifold.chart_eval.rows_per_call_p50": (pct(chart_rows, 50), "count"),
        "manifold.frame_matrices.calls": (calls("manifold.frame_matrices"), "count"),
        "manifold.frame_matrices.rows": (rows("manifold.frame_matrices"), "count"),
        "manifold.frame_matrices.self_s": (self_s("manifold.frame_matrices"), "s"),
        "manifold.constants.total_s": (total("manifold.constants"), "s"),
        "projmap.pair_intersection_volume.calls": (
            calls("projmap.pair_intersection_volume"), "count"),
        "projmap.pair_intersection_volume.samples": (samples, "count"),
        "projmap.pair_intersection_volume.hits": (hits, "count"),
        "projmap.pair_intersection_volume.hit_ratio": (
            hits / samples if samples else 0.0, "ratio"),
        "projmap.pair_intersection_volume.self_s": (
            self_s("projmap.pair_intersection_volume"), "s"),
        "projmap.c2_distance.calls": (calls("projmap.c2_distance"), "count"),
        "projmap.c2_distance.total_s": (total("projmap.c2_distance"), "s"),
        "sets.covering_number.calls": (calls("sets.covering_number"), "count"),
        "sets.covering_number.points": (rows("sets.covering_number"), "count"),
        "sets.covering_number.self_s": (self_s("sets.covering_number"), "s"),
        "sets.box_dimension.calls": (calls("sets.box_dimension"), "count"),
        "sets.box_dimension.total_s": (total("sets.box_dimension"), "s"),
        "sets.build_cantor_dust.total_s": (total("sets.build_cantor_dust"), "s"),
        "util.sample_ball.calls": (calls("util.sample_ball"), "count"),
        "util.sample_ball.rows": (rows("util.sample_ball"), "count"),
        "util.sample_ball.self_s": (self_s("util.sample_ball"), "s"),
        "util.rng_stream.calls": (calls("util.rng_stream"), "count"),
        "experiments.driver.total_s": (total("experiments.driver"), "s"),
        "experiments.driver.self_s": (self_s("experiments.driver"), "s"),
        "experiments.report_write.total_s": (total("experiments.report_write"), "s"),
        "experiments.report_bytes": (outcome("experiments.report_write"), "bytes"),
        "cli.parse_config.total_s": (total("cli.parse_config"), "s"),
        "cli.dispatch.total_s": (total("cli.dispatch"), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
