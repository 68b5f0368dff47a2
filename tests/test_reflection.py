import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hyperflow.errors import CenterOutside, NeverTouches, StartNotStrict
from hyperflow.flow_engine import FlowConfig, evolve
from hyperflow.reflection import (
    Hyperplane,
    ReflectionStatus,
    first_touch_time,
    monitor_reflection,
    strict_reflection_check,
    symmetry_certificate,
)
from hyperflow import families, shapes
from hyperflow.speeds import mean_curvature


def plane(v, c):
    return Hyperplane(V=np.asarray(v, dtype=float), c=float(c))


# ---------------------------------------------------------------------------
# reflection map


def test_reflect_formula_examples():
    assert plane([1, 0], 0.0).reflect(np.array([[1.0, 0.0]]))[0] == pytest.approx([-1.0, 0.0])
    assert plane([1, 0], 0.25).reflect(np.array([[1.0, 0.0]]))[0] == pytest.approx([-0.5, 0.0])
    assert plane([0, 1], 1.0).reflect(np.array([[1.0, 2.0]]))[0] == pytest.approx([1.0, 0.0])


coords = st.floats(min_value=-10.0, max_value=10.0)


@given(
    px=coords, py=coords,
    vx=st.floats(min_value=-1.0, max_value=1.0), vy=st.floats(min_value=-1.0, max_value=1.0),
    c=coords,
)
@example(px=0.3, py=0.7, vx=1.0, vy=1e-6, c=1.0)  # |V| - 1 = 5e-13 must still be normalised
def test_reflection_is_an_involution(px, py, vx, vy, c):
    if abs(vx) + abs(vy) < 1e-3:
        vx = 1.0
    pl = plane([vx, vy], c)
    pts = np.array([[px, py]])
    assert np.abs(pl.reflect(pl.reflect(pts)) - pts).max() < 1e-12


def test_plane_normalises_direction():
    pl = plane([3.0, 4.0], 1.0)
    assert np.linalg.norm(pl.V) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# strict reflection verdicts


def test_circle_cap_reflects_strictly(unit_circle_256):
    v = strict_reflection_check(unit_circle_256, plane([1, 0], 0.5))
    assert v.status is ReflectionStatus.STRICT
    assert v.inclusion_margin > 0.0
    assert v.tangency_margin > 1e-3


def test_symmetry_plane_is_nonstrict(unit_circle_256):
    v = strict_reflection_check(unit_circle_256, plane([1, 0], 0.0))
    assert v.status is ReflectionStatus.NONSTRICT
    assert abs(v.inclusion_margin) < 1e-9


def test_missing_plane_is_vacuous(unit_circle_256):
    v = strict_reflection_check(unit_circle_256, plane([1, 0], 1.5))
    assert v.status is ReflectionStatus.VACUOUS


def test_far_side_surface_fails_with_witness():
    M = shapes.circle_polygon(1.0, 256, center=(2.0, 0.0))
    v = strict_reflection_check(M, plane([1, 0], 0.5))
    assert v.status is ReflectionStatus.FAILS
    assert "witness_reflected" in v.details


def test_exactly_mirror_symmetric_polygon_is_nonstrict(ellipse_2_1):
    # uniform-angle sampling with even count maps onto itself under x -> -x,
    # so the reflection lands exactly on the surface
    v = strict_reflection_check(ellipse_2_1, plane([1, 0], 0.0))
    assert v.status is ReflectionStatus.NONSTRICT
    assert abs(v.inclusion_margin) < 1e-9


def test_ellipse_loses_strictness_at_oblique_plane():
    # reflected cap of a wide ellipse exits across a 45-degree plane
    M = shapes.ellipse_polygon(np.exp(-1.0), np.exp(-2.0), 512)
    v = strict_reflection_check(M, plane([1, 1], 0.2))
    assert v.status is ReflectionStatus.FAILS


# ---------------------------------------------------------------------------
# first touch


def test_first_touch_matches_logarithm():
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256)
    for c in (0.5, 0.9, 0.25):
        tau = first_touch_time(fam, plane([1, 0], c))
        assert tau == pytest.approx(math.log(c), abs=1e-3)


def test_first_touch_never_touches():
    fam = families.exponential_sphere_family(-2.0, 0.0, 0.05, n=1, resolution=64)
    with pytest.raises(NeverTouches):
        first_touch_time(fam, plane([1, 0], 1.5))


def test_first_touch_clamps_to_start_for_tiny_offsets():
    fam = families.exponential_sphere_family(-2.0, 0.0, 0.05, n=1, resolution=64)
    tau = first_touch_time(fam, plane([1, 0], 1e-3))
    assert tau == fam.t0


def test_touch_time_nondecreasing_in_offset():
    fam = families.exponential_sphere_family(-4.0, 0.0, 0.02, n=1, resolution=128)
    offsets = [0.05, 0.1, 0.2, 0.4, 0.8]
    taus = [first_touch_time(fam, plane([1, 0], c)) for c in offsets]
    assert all(b > a for a, b in zip(taus, taus[1:]))


# ---------------------------------------------------------------------------
# monitoring


def test_monitor_ellipse_under_flow_stays_strict(ellipse_2_1):
    traj = evolve(ellipse_2_1, mean_curvature(1), 0.0, FlowConfig(t_end=0.3, dt=2e-3))
    out = monitor_reflection(traj, plane([1, 0], 0.2), t_start=0.0, stride=2)
    assert all(v.status is ReflectionStatus.STRICT for _, v in out)
    assert out[-1][0] == traj.t1


def test_monitor_requires_strict_start(unit_circle_256):
    fam = families.exponential_sphere_family(-1.0, 0.0, 0.05, n=1, resolution=64)
    with pytest.raises(StartNotStrict):
        monitor_reflection(fam, plane([1, 0], 0.0), t_start=-1.0)  # symmetry plane
    with pytest.raises(StartNotStrict):
        monitor_reflection(fam, plane([1, 0], 0.5), t_start=5.0)  # past the end


def test_monitor_growing_circle_family():
    fam = families.exponential_sphere_family(-1.0, 0.0, 0.02, n=1, resolution=128)
    tau = first_touch_time(fam, plane([1, 0], 0.6))
    start = next(t for t, _ in fam.frames if t > tau + 0.02)
    out = monitor_reflection(fam, plane([1, 0], 0.6), t_start=start)
    assert all(v.status is ReflectionStatus.STRICT for _, v in out)


# ---------------------------------------------------------------------------
# symmetry certificates


def test_icosphere_certifies_spherical(icosphere_sub3):
    out = symmetry_certificate(icosphere_sub3, [0.0, 0.0, 0.0], directions=64, tol=1e-6)
    assert out.spherical
    assert out.deviation < 1e-6
    # reflected vertices land on the smooth sphere, not on mesh facets, so
    # the residual defect is the mesh sagitta, O(h^2)
    assert out.max_reflection_defect < 1e-2


def test_ellipse_fails_certificate_with_axis_witness(ellipse_2_1):
    out = symmetry_certificate(ellipse_2_1, [0.0, 0.0], directions=64, tol=1e-6)
    assert not out.spherical
    assert abs(out.witness_direction[0]) == pytest.approx(1.0, abs=1e-6)


def test_noisy_sphere_deviation_matches_noise_band():
    M = shapes.noisy_sphere(1.0, amplitude=0.01, subdivisions=3, seed=2)
    out = symmetry_certificate(M, [0.0, 0.0, 0.0], directions=32, tol=1e-3)
    assert not out.spherical
    assert out.deviation == pytest.approx(0.02, rel=0.1)


def test_certificate_rejects_outside_center(unit_circle_256):
    with pytest.raises(CenterOutside):
        symmetry_certificate(unit_circle_256, [5.0, 0.0], directions=8, tol=1e-6)


def test_certificate_spherical_implies_tight_radii(unit_circle_256):
    tol = 1e-6
    out = symmetry_certificate(unit_circle_256, [0.0, 0.0], directions=16, tol=tol)
    assert out.spherical
    r = np.linalg.norm(unit_circle_256.vertices, axis=1)
    assert r.max() - r.min() <= tol * r.mean()
