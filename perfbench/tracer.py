"""Span tracing around hyperflow's public functions, installed from outside.

The tracer replaces each traced function with a timing wrapper in its
defining module and in every hyperflow module that imported it by value
(``from .hypersurface import surface_distance`` binds the original object,
so patching only the defining module would miss those call sites).  Methods
are patched on their class; the ``curvature_data`` cached property gets a
new cached property around a wrapped getter, so caching is unchanged and
only real computations are counted.

Spans (name, start, end, parent) stay in memory until ``save`` writes them.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from functools import cached_property

import numpy as np


def _pairs(*shapes) -> int:
    """Kernel operation count: points x elements of the broadcast shapes."""
    return int(np.prod(np.broadcast_shapes(*shapes)[:-1]))


def _points(args) -> int:
    return int(np.atleast_2d(np.asarray(args[1])).shape[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._open: list[list] = []  # [span index, time covered by children]
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.patched_sites: set[str] = set()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """Timing wrapper; ``count(args, kwargs, result)`` adds to counts."""
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            frame = [index, 0.0]
            self._open.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._open.pop()
                self.span_end[index] = end
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if self._open:
                    self._open[-1][1] += duration
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value, label: str) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)
        self.patched_sites.add(label)

    def patch_function(self, module, attr: str, name: str, count=None) -> None:
        """Wrap module.attr everywhere a hyperflow module holds that object."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, count)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "hyperflow" or mod_name.startswith("hyperflow.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped, f"{mod_name}.{key}")

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, cached_property):
            wrapped = cached_property(self.wrap(name, original.func, count))
            wrapped.__set_name__(cls, attr)
        else:
            wrapped = self.wrap(name, original, count)
        self._set(cls, attr, wrapped, f"{cls.__module__}.{cls.__name__}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def save(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            parent=np.array(self.span_parent, dtype=np.int64),
            patched_sites=np.array(sorted(self.patched_sites)),
        )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every hyperflow layer."""
    from hyperflow import cli, flow_engine, geometry, hypersurface, reflection, rigidity, speeds

    def count_vertices(args, kwargs, result):
        return {"hypersurface.curvature.vertices": args[0].num_vertices}

    def count_points(name):
        return lambda args, kwargs, result: {f"{name}.points": _points(args)}

    def count_verdict(args, kwargs, result):
        return {f"reflection.verdicts.{result.status.value}": 1}

    def count_bytes(args, kwargs, result):
        return {"hypersurface.write_surface.bytes": os.path.getsize(args[1])}

    # geometry kernels: pairs = query points x elements
    tracer.patch_function(
        geometry, "point_segment_distance", "geometry.point_segment_distance",
        lambda a, k, r: {"geometry.point_segment_distance.pairs":
                         _pairs(np.atleast_2d(a[0])[:, None, :].shape, a[1].shape)},
    )
    tracer.patch_function(
        geometry, "winding_number_2d", "geometry.winding_number_2d",
        lambda a, k, r: {"geometry.winding_number_2d.pairs":
                         _pairs(np.atleast_2d(a[1])[:, None, :].shape, a[0].shape)},
    )
    tracer.patch_function(
        geometry, "winding_number_3d", "geometry.winding_number_3d",
        lambda a, k, r: {"geometry.winding_number_3d.pairs":
                         _pairs(np.atleast_2d(a[2])[:, None, :].shape, a[1].shape)},
    )
    tracer.patch_function(
        geometry, "point_triangle_distance", "geometry.point_triangle_distance",
        lambda a, k, r: {"geometry.point_triangle_distance.pairs":
                         _pairs(*(np.shape(x) for x in a[:4]))},
    )

    H = hypersurface
    tracer.patch_method(H.DiscreteHypersurface, "__init__", "hypersurface.construct")
    tracer.patch_method(H.DiscreteHypersurface, "curvature_data", "hypersurface.curvature", count_vertices)
    for fn in ("surface_distance", "signed_interior_distance", "classify_points"):
        tracer.patch_function(H, fn, f"hypersurface.{fn}", count_points(f"hypersurface.{fn}"))
    for fn in ("contains_point", "enclosed_volume", "inner_outer_radii", "read_surface"):
        tracer.patch_function(H, fn, f"hypersurface.{fn}")
    tracer.patch_function(H, "write_surface", "hypersurface.write_surface", count_bytes)

    tracer.patch_method(speeds.SpeedFunction, "values", "speeds.values")

    for fn in ("evolve", "stable_substep", "flow_residual"):
        tracer.patch_function(flow_engine, fn, f"flow_engine.{fn}")
    tracer.patch_method(flow_engine.Trajectory, "interpolate_vertices", "flow_engine.interpolate_vertices")

    tracer.patch_function(
        reflection, "strict_reflection_check", "reflection.strict_reflection_check", count_verdict
    )
    for fn in ("first_touch_time", "symmetry_certificate"):
        tracer.patch_function(reflection, fn, f"reflection.{fn}")

    tracer.patch_function(rigidity, "rigidity_audit", "rigidity.rigidity_audit")
    tracer.patch_function(cli, "main", "cli.main")


# Functions whose calls, total_s and self_s are reported, in report order.
REPORTED = (
    "flow_engine.evolve",
    "flow_engine.stable_substep",
    "flow_engine.flow_residual",
    "hypersurface.construct",
    "hypersurface.curvature",
    "hypersurface.enclosed_volume",
    "hypersurface.surface_distance",
    "hypersurface.signed_interior_distance",
    "hypersurface.classify_points",
    "hypersurface.contains_point",
    "hypersurface.inner_outer_radii",
    "hypersurface.read_surface",
    "hypersurface.write_surface",
    "speeds.values",
    "geometry.point_segment_distance",
    "geometry.winding_number_2d",
    "geometry.winding_number_3d",
    "geometry.point_triangle_distance",
    "reflection.strict_reflection_check",
    "reflection.first_touch_time",
    "reflection.symmetry_certificate",
    "rigidity.rigidity_audit",
    "cli.main",
)

COUNTS = (
    "geometry.point_segment_distance.pairs",
    "geometry.winding_number_2d.pairs",
    "geometry.winding_number_3d.pairs",
    "geometry.point_triangle_distance.pairs",
    "hypersurface.surface_distance.points",
    "hypersurface.signed_interior_distance.points",
    "hypersurface.classify_points.points",
    "hypersurface.write_surface.bytes",
    "reflection.verdicts.strict",
    "reflection.verdicts.nonstrict",
    "reflection.verdicts.fails",
    "reflection.verdicts.vacuous",
)


def layer_metrics(tracer: Tracer, requested_steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name in REPORTED:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.total_s"] = (tracer.total_s[name], "s")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "bytes" if name.endswith(".bytes") else "count")
    vertices = tracer.counts["hypersurface.curvature.vertices"]
    out["hypersurface.curvature.us_per_vertex"] = (
        1e6 * tracer.self_s["hypersurface.curvature"] / vertices if vertices else 0.0, "us"
    )
    out["flow_engine.stages_per_step"] = (
        tracer.calls["hypersurface.curvature"] / requested_steps if requested_steps else 0.0, "count"
    )
    out["reflection.bisection_steps"] = (tracer.calls["flow_engine.interpolate_vertices"], "count")
    main_s = tracer.total_s["cli.main"]
    out["cli.artifacts_s"] = (main_s - tracer.total_s["flow_engine.evolve"] if main_s else 0.0, "s")
    return out
