"""Vectorised geometric primitives used by the surface and reflection code.

Everything here operates on raw numpy arrays; the mesh containers live in
``hypersurface``.  The closest-point kernels also report which feature of a
segment or triangle holds the closest point, so a caller can take the
inside/outside sign of a signed distance from that feature's pseudonormal.
The winding numbers (signed crossing count in the plane, summed solid angle
in space) only break ties, for points whose pseudonormal offset is within
rounding of the surface.  The all-pairs ``point_segment_distance`` is the
exact reference for pruned searches.  The all-pairs kernels broadcast blocks
of query points against every element, with points per block chosen so
that a block holds about ``_PAIRS`` point-element pairs: their temporaries
stay a few megabytes whatever the element count.

The paired kernels (segment and triangle distances, and the intersection
tests of the embeddedness sweep) and the 3D winding number work one
component at a time: they take the views ``x[..., i]`` and form every dot
product, cross product, clip, ``where`` and length on (...)-shaped arrays,
never looping over a length-3 axis.  Dot products sum in the order of
``np.einsum``, cross products as ``np.cross`` forms them and lengths in the
order of ``np.linalg.norm``, so every distance and winding number has the
bits of the row-form kernels kept as oracles in the tests, and the triangle
test the verdicts of the scalar pair test kept there.  Only the
closest-point forms label features.
"""

from __future__ import annotations

import numpy as np

_PAIRS = 1 << 16  # point-element pairs per broadcast block


def _block(elements: int) -> int:
    """Query points per broadcast block against ``elements`` elements."""
    return max(1, _PAIRS // elements)


def winding_number_2d(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Integer winding numbers of a closed polygon around each query point."""
    points = np.atleast_2d(points)
    x1 = vertices[:, 0]
    y1 = vertices[:, 1]
    x2 = np.concatenate([x1[1:], x1[:1]])
    y2 = np.concatenate([y1[1:], y1[:1]])
    out = np.empty(points.shape[0], dtype=np.int64)
    step = _block(x1.shape[0])
    for s in range(0, points.shape[0], step):
        px = points[s : s + step, 0][:, None]
        py = points[s : s + step, 1][:, None]
        up = (y1[None, :] <= py) & (y2[None, :] > py)
        down = (y1[None, :] > py) & (y2[None, :] <= py)
        left = (x2 - x1)[None, :] * (py - y1[None, :]) - (px - x1[None, :]) * (y2 - y1)[None, :]
        wn = np.sum(up & (left > 0.0), axis=1) - np.sum(down & (left < 0.0), axis=1)
        out[s : s + step] = wn
    return out


def winding_number_3d(vertices: np.ndarray, faces: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Generalised winding number: summed signed solid angle over 4*pi.

    Close to 1 inside a consistently oriented closed surface and close to 0
    outside (van Oosterom-Strackee per-triangle solid angles).  The corners
    relative to a block of points, their lengths, dot products and the cross
    product b x c are taken one component at a time on (points, faces)
    arrays, with the bits of the row form kept as the oracle in the tests.
    """
    points = np.atleast_2d(points)
    corners = [[vertices[faces[:, j], i] for i in range(3)] for j in range(3)]
    out = np.empty(points.shape[0], dtype=float)
    step = _block(faces.shape[0])
    for s in range(0, points.shape[0], step):
        p = [x[:, None] for x in points[s : s + step].T]
        a, b, c = ([ti[None, :] - pi for ti, pi in zip(t, p)] for t in corners)
        la, lb, lc = _length(a), _length(b), _length(c)
        den = la * lb * lc
        den += _dot(a, b) * lc
        den += _dot(b, c) * la
        den += _dot(c, a) * lb
        # a . (b x c), the components of b x c as np.cross forms them, summed in _dot's order
        num = a[0] * (b[1] * c[2] - b[2] * c[1])
        num += a[2] * (b[0] * c[1] - b[1] * c[0])
        num += a[1] * (b[2] * c[0] - b[0] * c[2])
        num += 0.0  # einsum's sum starts at +0, so a zero triple product is +0: arctan2 reads its sign
        # the solid angles are 2 arctan2(num, den); doubling after the sum is exact
        out[s : s + step] = np.sum(np.arctan2(num, den, out=num), axis=1) * 2.0 / (4.0 * np.pi)
    return out


def _parts(x: np.ndarray) -> list:
    """The components ``x[..., i]`` of vectors stored along the last axis."""
    return [x[..., i] for i in range(x.shape[-1])]


def _dot(x: list, y: list) -> np.ndarray:
    """Dot product of two component lists, with the bits of ``np.einsum`` up to the sign of a zero.

    einsum over a last axis of length 2 or 3 sums in two lanes, the even
    components in one and the odd in the other, and adds the lanes last:
    (x0 y0 + x2 y2) + x1 y1.  Its lanes start at +0, so a sum of -0
    products is +0 there and -0 here; a caller whose result reads that sign
    adds +0 to the sum.
    """
    s = x[0] * y[0]
    if len(x) == 3:
        s += x[2] * y[2]
    return s + x[1] * y[1]


def _length(x: list) -> np.ndarray:
    """Euclidean length of a component list, with the bits of ``np.linalg.norm``."""
    s = x[0] * x[0]
    for xi in x[1:]:
        s += xi * xi
    return np.sqrt(s)


def _divisor(x: np.ndarray) -> np.ndarray:
    """x where it is clearly nonzero, 1 elsewhere."""
    return np.where(np.abs(x) > 1e-300, x, 1.0)


def _segment_parameter(p: list, a: list, b: list) -> tuple[list, np.ndarray]:
    """Components of d = b - a and the parameter t of the closest point a + t d."""
    d = [bi - ai for ai, bi in zip(a, b)]
    dd = _dot(d, d)
    dd = np.where(dd > 0.0, dd, 1.0)
    num = _dot([pi - ai for pi, ai in zip(p, a)], d)
    num += 0.0  # einsum's sum starts at +0, so a zero numerator is +0: a + t d reads the sign of t's zero
    return d, np.clip(num / dd, 0.0, 1.0)


def closest_point_segment(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray):
    """Closest point of each paired segment, all shapes (..., d), and its feature.

    Features: 0 the segment's interior, 1 endpoint a, 2 endpoint b.
    """
    a = _parts(seg_a)
    d, t = _segment_parameter(_parts(points), a, _parts(seg_b))
    closest = np.stack([ai + t * di for ai, di in zip(a, d)], axis=-1)
    return closest, np.where(t <= 0.0, 1, np.where(t >= 1.0, 2, 0))


def point_segment_pair_distance(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Distance from each point to its paired segment, all shapes (..., d)."""
    p, a = _parts(points), _parts(seg_a)
    d, t = _segment_parameter(p, a, _parts(seg_b))
    return _length([pi - (ai + t * di) for pi, ai, di in zip(p, a, d)])


def point_segment_distance(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Min distance from each point to a set of segments, shape (P,).

    All P x m pairs, so this is the exact reference for pruned searches.
    """
    points = np.atleast_2d(points)
    out = np.empty(points.shape[0], dtype=float)
    step = _block(seg_a.shape[0])
    for s in range(0, points.shape[0], step):
        p = points[s : s + step, None, :]
        out[s : s + step] = np.min(point_segment_pair_distance(p, seg_a[None], seg_b[None]), axis=1)
    return out


def _triangle_closest(p: list, a: list, b: list, c: list) -> tuple[list, tuple]:
    """Components of the closest point of each paired triangle, and its region masks.

    Vectorised classification over the seven Voronoi regions of the triangle.
    The masks are on_ab, on_ca, on_bc, at_a, at_b and at_c; where several
    hold, the later one names the region.
    """
    ab = [bi - ai for ai, bi in zip(a, b)]
    ac = [ci - ai for ai, ci in zip(a, c)]
    ap = [pi - ai for pi, ai in zip(p, a)]
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    bp = [pi - bi for pi, bi in zip(p, b)]
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    cp = [pi - ci for pi, ci in zip(p, c)]
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    d43 = d4 - d3
    d56 = d5 - d6
    w_bc = np.clip(d43 / _divisor(d43 + d56), 0.0, 1.0)
    denom = _divisor(va + vb + vc)
    v_in = vb / denom
    w_in = vc / denom
    t_ab = np.clip(d1 / _divisor(d1 - d3), 0.0, 1.0)
    t_ac = np.clip(d2 / _divisor(d2 - d6), 0.0, 1.0)

    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    on_ca = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    on_bc = (va <= 0) & (d43 >= 0) & (d56 >= 0)
    at_a = (d1 <= 0) & (d2 <= 0)
    at_b = (d3 >= 0) & (d4 <= d3)
    at_c = (d6 >= 0) & (d5 <= d6)
    closest = []
    for ai, bi, ci, abi, aci in zip(a, b, c, ab, ac):
        q = ai + v_in * abi + w_in * aci  # interior default
        q = np.where(on_ab, ai + t_ab * abi, q)
        q = np.where(on_ca, ai + t_ac * aci, q)
        q = np.where(on_bc, bi + w_bc * (ci - bi), q)
        q = np.where(at_a, ai, q)
        q = np.where(at_b, bi, q)
        closest.append(np.where(at_c, ci, q))
    return closest, (on_ab, on_ca, on_bc, at_a, at_b, at_c)


def closest_point_triangle(points: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Closest point of each paired triangle, all shapes (..., 3), and its feature.

    Features: 0 the interior, 1-3 the edges ab, bc, ca, 4-6 the corners a, b, c.
    """
    closest, (on_ab, on_ca, on_bc, at_a, at_b, at_c) = _triangle_closest(*(_parts(x) for x in (points, a, b, c)))
    # later regions override earlier ones, so the last match names the feature
    feature = np.select([at_c, at_b, at_a, on_bc, on_ca, on_ab], [6, 5, 4, 2, 3, 1], 0)
    return np.stack(closest, axis=-1), feature


def point_triangle_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Distance from each point to its paired triangle, all shapes (..., 3)."""
    p = _parts(points)
    closest, _ = _triangle_closest(p, *(_parts(x) for x in (a, b, c)))
    return _length([pi - qi for pi, qi in zip(p, closest)])


def segments_intersect(a1, a2, b1, b2) -> np.ndarray:
    """Proper or touching intersection test for paired 2D segments."""

    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (q[..., 1] - p[..., 1]) * (
            r[..., 0] - p[..., 0]
        )

    d1 = orient(b1, b2, a1)
    d2 = orient(b1, b2, a2)
    d3 = orient(a1, a2, b1)
    d4 = orient(a1, a2, b2)
    proper = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)

    def on_seg(p, q, r):
        collinear = orient(p, q, r) == 0.0
        within = (
            (np.minimum(p[..., 0], q[..., 0]) <= r[..., 0])
            & (r[..., 0] <= np.maximum(p[..., 0], q[..., 0]))
            & (np.minimum(p[..., 1], q[..., 1]) <= r[..., 1])
            & (r[..., 1] <= np.maximum(p[..., 1], q[..., 1]))
        )
        return collinear & within

    touching = on_seg(b1, b2, a1) | on_seg(b1, b2, a2) | on_seg(a1, a2, b1) | on_seg(a1, a2, b2)
    return proper | touching


def triangles_intersect(a1, b1, c1, a2, b2, c2) -> np.ndarray:
    """Intersection test for paired triangles in space, all shapes (..., 3).

    A pair is apart when either triangle's plane has the other's three
    corners beyond 1e-14 on one side.  Otherwise it meets when an edge of
    either triangle crosses the other's plane inside the triangle, within a
    1e-12 barycentric band; an edge in the plane and a triangle of zero area
    cross nothing.  Pairs that share a vertex should be excluded by the caller.
    """
    t1 = [_parts(x) for x in (a1, b1, c1)]
    t2 = [_parts(x) for x in (a2, b2, c2)]
    apart = hit = False
    for (a, b, c), other in ((t1, t2), (t2, t1)):
        v0 = [bi - ai for ai, bi in zip(a, b)]
        v1 = [ci - ai for ai, ci in zip(a, c)]
        n = [v0[1] * v1[2] - v0[2] * v1[1], v0[2] * v1[0] - v0[0] * v1[2], v0[0] * v1[1] - v0[1] * v1[0]]
        d = [_dot([pi - ai for pi, ai in zip(p, a)], n) for p in other]
        apart = apart | (d[0] > 1e-14) & (d[1] > 1e-14) & (d[2] > 1e-14)
        apart = apart | (d[0] < -1e-14) & (d[1] < -1e-14) & (d[2] < -1e-14)
        d00, d01, d11 = _dot(v0, v0), _dot(v0, v1), _dot(v1, v1)
        den = d00 * d11 - d01 * d01
        flat = (_dot(n, n) == 0.0) | (den == 0.0)
        den = np.where(flat, 1.0, den)
        for i in range(3):
            p, q, dp, dq = other[i], other[(i + 1) % 3], d[i], d[(i + 1) % 3]
            denom = dp - dq  # 0 when the edge lies in the plane
            crosses = ~flat & ~(dp * dq > 0.0) & (denom != 0.0)
            t = np.where(crosses, dp, 0.0) / np.where(crosses, denom, 1.0)
            v2 = [pi + t * (qi - pi) - ai for pi, qi, ai in zip(p, q, a)]
            d20, d21 = _dot(v2, v0), _dot(v2, v1)
            v = (d11 * d20 - d01 * d21) / den
            w = (d00 * d21 - d01 * d20) / den
            hit = hit | crosses & (v >= -1e-12) & (w >= -1e-12) & (v + w <= 1.0 + 1e-12)
    return ~apart & hit


def fibonacci_sphere_directions(count: int) -> np.ndarray:
    """Low-discrepancy unit directions on the 2-sphere."""
    i = np.arange(count, dtype=float) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    golden = np.pi * (1.0 + np.sqrt(5.0))
    theta = golden * i
    return np.column_stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)]
    )


def uniform_circle_directions(count: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(count, dtype=float) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])
