"""Per-layer spans and counts, taken from outside the program.

The tracer wraps library functions at the names their callers bind (a
module global such as ``cloudsr.refine.concave_hull``, or a method on the
shared ``SpatialIndex`` class) and restores every original on exit.  Spans
nest, so each layer gets its total time and its self time (total minus the
time of the spans it caused).  Nothing under ``src/`` knows about it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict


class Tracer:
    """Context manager that installs the wrappers while active."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()   # (parent span, child span) -> calls
        self.hull_sizes: list[int] = []
        self.k_used_max = 0
        self.churn: list[int] = []
        self.hull_members: set[int] = set()   # every hull member this frame
        self.dense = None                  # last densify output
        self.loss2d_final = 0.0            # last total of the last refine trace
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._prev_members: frozenset | None = None

    # (module, attribute, span name, observer of (span, args, result))
    def layers(self):
        return [
            ("cloudsr.cli", "read_ply", "ply_io.read_ply", self._read_bytes),
            ("cloudsr.cli", "write_ply", "ply_io.write_ply", self._write_bytes),
            ("cloudsr.cli", "read_pixmap", "pixmap.read_pixmap", None),
            ("cloudsr.cli", "densify", "densify.densify", self._dense),
            ("cloudsr.refine", "densify", "densify.densify", self._dense),
            ("cloudsr.refine", "canny", "edges.canny", self._edges),
            ("cloudsr.refine", "refine", "refine.refine", self._refined),
            ("cloudsr.refine", "project_cloud", "camera.project_cloud", self._culled),
            ("cloudsr.refine", "projection_jacobians", "camera.projection_jacobians", None),
            ("cloudsr.refine", "concave_hull", "hull.concave_hull", self._hull),
            ("cloudsr.refine", "combined_loss", "losses.combined_loss", None),
            ("cloudsr.hull", "polygon_is_simple", "hull.polygon_is_simple", None),
            ("cloudsr.hull", "contains_all", "hull.contains_all", None),
            ("cloudsr.densify", "bin_downsample", "geometry.bin_downsample", None),
            ("cloudsr.geometry", "SpatialIndex.__init__", "geometry.index_build", self._indexed),
            ("cloudsr.geometry", "SpatialIndex.knn_batch", "geometry.knn_batch", self._queried),
            ("cloudsr.geometry", "SpatialIndex.nearest_batch", "geometry.nearest_batch", self._queried),
            ("cloudsr.metrics", "eval_metrics", "metrics.eval_metrics", None),
        ]

    def targets(self):
        """(owner, attribute name, span name, observer) for every wrapped name."""
        out = []
        for module, attr, span, observe in self.layers():
            # sys.modules, not attribute access: the package re-exports
            # the function cloudsr.refine.refine as cloudsr.refine
            owner = importlib.import_module(module)
            cls, _, name = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
            out.append((owner, name, span, observe))
        return out

    def __enter__(self):
        for owner, name, span, observe in self.targets():
            original = vars(owner)[name]
            setattr(owner, name, self._wrap(span, original, observe))
            self._patches.append((owner, name, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        return False

    def begin_frame(self) -> None:
        """Hull churn and membership are per frame."""
        self._prev_members = None
        self.hull_members = set()

    def _wrap(self, span, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            self.calls[span] += 1
            self.nested[(parent, span)] += 1
            entry = [span, 0.0]   # span name, seconds of its child spans
            self._stack.append(entry)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.seconds[span] += dt
                self.self_seconds[span] += dt - entry[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if observe is not None:
                observe(span, args, result)
            return result
        return wrapper

    # observers: counts taken where the work happens
    def _read_bytes(self, span, args, result):
        self.counts["ply_io.read_ply.bytes"] += os.path.getsize(args[0])

    def _write_bytes(self, span, args, result):
        self.counts["ply_io.write_ply.bytes"] += os.path.getsize(args[1])

    def _dense(self, span, args, result):
        self.dense = result

    def _edges(self, span, args, result):
        self.counts["edges.canny.edge_count"] += len(result)

    def _refined(self, span, args, result):
        trace = result[1]
        self.loss2d_final = trace.records[-1].total
        self.counts["refine.iterations"] += trace.records[-1].iteration
        self.counts["refine.accepted_steps"] += trace.accepted_steps()

    def _culled(self, span, args, result):
        self.counts["camera.culled"] += len(args[0]) - len(result[0])

    def _hull(self, span, args, result):
        members = frozenset(result.source_indices.tolist())
        self.hull_sizes.append(len(members))
        self.k_used_max = max(self.k_used_max, result.k_used)
        if self._prev_members is not None:
            self.churn.append(len(members ^ self._prev_members))
        self._prev_members = members
        self.hull_members |= members

    def _indexed(self, span, args, result):
        self.counts["geometry.index_build.rows"] += args[0].count

    def _queried(self, span, args, result):
        self.counts[span + ".query_rows"] += result[0].shape[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, frames: int) -> dict:
    """Per-layer figures per traced frame (all frames see the same input,
    so counts are exact)."""
    m = {}
    for span in ("geometry.knn_batch", "geometry.nearest_batch",
                 "geometry.bin_downsample", "hull.concave_hull",
                 "hull.polygon_is_simple", "hull.contains_all",
                 "losses.combined_loss", "camera.project_cloud",
                 "camera.projection_jacobians"):
        m[span + ".calls"] = t.calls[span] / frames
        m[span + ".s"] = t.seconds[span] / frames
    m["geometry.index_build.calls"] = t.calls["geometry.index_build"] / frames
    for span in ("refine.refine", "densify.densify", "edges.canny",
                 "metrics.eval_metrics", "ply_io.read_ply",
                 "ply_io.write_ply", "pixmap.read_pixmap"):
        m[span + ".s"] = t.seconds[span] / frames
    m["refine.self_s"] = t.self_seconds["refine.refine"] / frames
    for name in ("geometry.knn_batch.query_rows", "geometry.nearest_batch.query_rows",
                 "geometry.index_build.rows", "edges.canny.edge_count",
                 "camera.culled", "refine.iterations", "refine.accepted_steps",
                 "ply_io.read_ply.bytes", "ply_io.write_ply.bytes"):
        m[name] = t.counts[name] / frames

    # every hull refresh inside refine is followed by one base loss
    # evaluation; the other loss evaluations are line-search trials
    hulls = t.nested[("refine.refine", "hull.concave_hull")]
    trials = t.nested[("refine.refine", "losses.combined_loss")] - hulls
    accepted = t.counts["refine.accepted_steps"]
    m["refine.backtracks"] = (trials - accepted) / frames
    m["refine.accept_ratio"] = _ratio(accepted, trials)
    m["refine.loss2d_final"] = t.loss2d_final
    m["hull.size"] = _ratio(sum(t.hull_sizes), len(t.hull_sizes))
    m["hull.k_used_max"] = float(t.k_used_max)
    m["hull.churn_mean"] = _ratio(sum(t.churn), len(t.churn))
    m["hull.attempts_per_refresh"] = _ratio(t.calls["hull.polygon_is_simple"],
                                            t.calls["hull.concave_hull"])
    return m


#: per-layer metrics of a traced run: name -> unit
LAYER_UNITS = {
    **{f"{s}.calls": "count" for s in (
        "geometry.knn_batch", "geometry.nearest_batch", "geometry.index_build",
        "geometry.bin_downsample", "hull.concave_hull", "hull.polygon_is_simple",
        "hull.contains_all", "losses.combined_loss", "camera.project_cloud",
        "camera.projection_jacobians")},
    **{f"{s}.s": "s" for s in (
        "geometry.knn_batch", "geometry.nearest_batch", "geometry.bin_downsample",
        "hull.concave_hull", "hull.polygon_is_simple", "hull.contains_all",
        "losses.combined_loss", "camera.project_cloud",
        "camera.projection_jacobians", "refine.refine", "densify.densify",
        "edges.canny", "metrics.eval_metrics", "ply_io.read_ply",
        "ply_io.write_ply", "pixmap.read_pixmap")},
    "geometry.knn_batch.query_rows": "rows",
    "geometry.nearest_batch.query_rows": "rows",
    "geometry.index_build.rows": "rows",
    "hull.size": "vertices",
    "hull.k_used_max": "count",
    "hull.churn_mean": "members",
    "hull.attempts_per_refresh": "ratio",
    "camera.culled": "count",
    "refine.self_s": "s",
    "refine.iterations": "count",
    "refine.accepted_steps": "count",
    "refine.backtracks": "count",
    "refine.accept_ratio": "ratio",
    "refine.loss2d_final": "1",
    "refine.cd3d_delta": "1",
    "refine.hd3d_delta": "1",
    "densify.dense_cd3d": "1",
    "edges.canny.edge_count": "count",
    "ply_io.read_ply.bytes": "bytes",
    "ply_io.write_ply.bytes": "bytes",
    "trace.frame_s": "s",
    "trace.untraced_frame_s": "s",
    "trace.overhead_s": "s",
}
