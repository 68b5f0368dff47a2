"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracer.py`` patches hyperflow functions by name, so a rename in
the package would break traced benchmark runs; this installs the tracer
unedited and checks that it wraps every reported name and restores every
binding it touched.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

# the tracer patches every layer, cli included: load them all before the
# bindings are recorded, so the test does not depend on test order
from hyperflow import cli, geometry, hypersurface, shapes  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module-level and class-level binding in the hyperflow modules."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hyperflow" or mod_name.startswith("hyperflow.")):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    return out


def test_tracer_wraps_every_traced_name_and_restores_it():
    M = shapes.circle_polygon(1.0, 256)
    expected = geometry.point_segment_distance(np.zeros((1, 2)), M.vertices, np.roll(M.vertices, -1, axis=0))
    # a polygon with more edges than one kernel call takes, so that a
    # one-point query goes through the centroid grid
    edges = hypersurface._BALL_PAIRS + 64
    big = shapes.circle_polygon(1.0, edges)
    big_expected = geometry.point_segment_distance(np.zeros((1, 2)), big.vertices, np.roll(big.vertices, -1, axis=0))
    near_vertex = np.array([[1.0 + 0.4 * 2.0 * np.sin(np.pi / edges), 0.0]])  # 0.4 edge lengths out
    tracing = _load_tracer()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        during = _bindings()
        assert set(tracing.REPORTED) <= set(tracer.names)
        changed = {".".join(k) for k, v in before.items() if during[k] is not v}
        assert changed == tracer.patched_sites
        assert "hyperflow.geometry.point_segment_distance" in changed

        tracer.patch_function(
            geometry, "point_segment_pair_distance", "pair_kernel",
            lambda a, k, r: {"pair_kernel.pairs": r.size},
        )
        # a one-point query on the 256-gon is one kernel call over every edge
        centre = hypersurface.surface_distance(M, np.array([[0.0, 0.0]]))
        assert tracer.calls["pair_kernel"] == 1
        assert tracer.counts["pair_kernel.pairs"] == 256
        assert np.array_equal(centre, expected)
        # through the grid the paired kernel measures one first edge, then
        # the ball of centroids within that distance plus the reach: from the
        # circle's centre the ball holds every edge and gives the all-pairs
        # value, next to a vertex it holds only the two edges there
        centre = hypersurface.surface_distance(big, np.array([[0.0, 0.0]]))
        assert tracer.calls["pair_kernel"] == 1 + 1 + 2  # the ball's pairs take two kernel calls
        assert tracer.counts["pair_kernel.pairs"] == 256 + 1 + edges
        assert np.array_equal(centre, big_expected)
        hypersurface.surface_distance(big, near_vertex)
        assert tracer.calls["pair_kernel"] == 4 + 2
        assert tracer.counts["pair_kernel.pairs"] == 256 + 1 + edges + 1 + 2
        assert tracer.calls["geometry.point_segment_distance"] == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_a_tracer_installed_after_a_query_counts_the_next_query():
    # the first query fills the memo of query structures untraced; the
    # kernels must still be looked up in geometry at each call
    M = shapes.icosphere(1.0, 2)
    pts = np.random.default_rng(4).uniform(-1.5, 1.5, size=(200, 3))
    want = hypersurface.signed_interior_distance(M, pts)
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        got = hypersurface.signed_interior_distance(M, pts)
        hit = tracer.calls["geometry.point_triangle_distance"], tracer.counts["geometry.point_triangle_distance.pairs"]
        hypersurface._snapshot.cache_clear()
        hypersurface.signed_interior_distance(M, pts)
        fresh = tracer.calls["geometry.point_triangle_distance"] - hit[0]
    finally:
        tracer.uninstall()
    assert np.array_equal(got, want)
    assert hit[0] >= 2 and hit[1] >= pts.shape[0]
    assert fresh == hit[0]
    # the memo filled under the tracer does not keep its wrappers
    hypersurface.signed_interior_distance(M, pts)
    assert tracer.calls["geometry.point_triangle_distance"] == 2 * hit[0]
