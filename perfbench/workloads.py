"""The benchmark's four workloads: seeded inputs, one timed operation, gates.

Each workload builds its inputs from the seed (``build``), turns them into
fresh arguments for one operation outside the timed section (``prepare``,
so no cached property of an earlier operation is reused), runs the timed
operation (``run``) and checks its output against a law or oracle that the
benchmark computes itself (``check``, which returns a failure message or
None).  A run repeats whole cycles of ``cycle`` operations; inputs that
change the cost of an operation are stratified across one cycle, so that a
run's median does not depend on where its seed fell in the input range.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

from hyperflow import cli, families, flow_engine, reflection, rigidity, shapes, speeds
from hyperflow.hypersurface import DiscreteHypersurface, read_surface, write_surface


def _rotation_2d(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _rotation_3d(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random proper rotation (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _perimeter(verts: np.ndarray) -> float:
    return float(np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1).sum())


def _polygon_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _mesh_area(verts: np.ndarray, faces: np.ndarray) -> float:
    a, b, c = (verts[faces[:, i]] for i in range(3))
    return 0.5 * float(np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


class CurveFlow:
    """Rotated ellipses with axes (2, b) under speed 1/k, evolved with RK4 substeps.

    One cycle takes b from each of ``cycle`` strata of [0.9, 1.1], because
    the substep count, and so the cost, falls as b grows.  The perimeter of
    a closed curve under normal speed 1/k grows exactly as L(0) e^t.
    """

    name = "curve_flow"
    cycle = 4
    T_END = 0.25
    DT = 1e-3
    VERTICES = 256

    def build(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        bs = 0.9 + 0.2 * (np.arange(self.cycle) + rng.uniform(size=self.cycle)) / self.cycle
        angles = rng.uniform(0.0, 2.0 * math.pi, size=self.cycle)
        verts = []
        for b, angle in zip(bs, angles):
            base = shapes.ellipse_polygon(2.0, float(b), self.VERTICES).vertices
            verts.append(DiscreteHypersurface(base @ _rotation_2d(float(angle)).T).vertices)
        return {"verts": verts, "speed": speeds.mean_curvature(1)}

    def requested_steps(self) -> int:
        return self.cycle * round(self.T_END / self.DT)

    def prepare(self, inputs: dict, i: int):
        return DiscreteHypersurface(inputs["verts"][i % self.cycle])

    def run(self, inputs: dict, M0):
        config = flow_engine.FlowConfig(t_end=self.T_END, dt=self.DT)
        return flow_engine.evolve(M0, inputs["speed"], 0.0, config)

    def check(self, inputs: dict, i: int, M0, traj) -> str | None:
        if abs(traj.t1 - self.T_END) > 1e-9:
            return f"flow stopped at t = {traj.t1}"
        L0 = _perimeter(M0.vertices)
        err = max(abs(_perimeter(M.vertices) / (L0 * math.exp(t)) - 1.0) for t, M in traj.frames)
        if not err <= 1e-4:
            return f"perimeter law off by {err:.3e} (limit 1e-4)"
        areas = np.array([_polygon_area(M.vertices) for _, M in traj.frames])
        if not np.all(np.diff(areas) > 0.0):
            return "enclosed area did not rise strictly across frames"
        return None


class MeshFlow:
    """``hyperflow simulate`` on a rotated near-round ellipsoid mesh under 1/H.

    The 2562-vertex mesh (s = 4) is written to a file in set-up, and the
    CLI reads it, evolves it and writes every frame and its diagnostics.
    Under normal speed 1/H the surface area grows as A(0) e^t.
    """

    name = "mesh_flow"
    cycle = 1
    T_END = 0.1
    DT = 1e-3
    SUBDIVISIONS = 4

    def build(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        rot = _rotation_3d(rng)
        delta = float(rng.uniform(0.0, 0.05))
        base = shapes.ellipsoid_mesh(1.0, 1.0 + delta, 1.0 - delta, self.SUBDIVISIONS)
        M = DiscreteHypersurface(base.vertices @ rot.T, base.faces)
        path = workdir / "mesh_input.obj"
        write_surface(M, path)
        return {"path": path, "area": _mesh_area(M.vertices, M.faces), "workdir": workdir}

    def requested_steps(self) -> int:
        return self.cycle * round(self.T_END / self.DT)

    def prepare(self, inputs: dict, i: int):
        out = inputs["workdir"] / f"simulate-{i}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def run(self, inputs: dict, out: Path):
        return cli.main([
            "simulate", "--out", str(out),
            "--set", "shape=mesh", "--set", f"mesh_file={inputs['path']}",
            "--set", "speed=H", "--set", f"dt={self.DT}", "--set", f"t_end={self.T_END}",
            "--set", "frame_interval=0.01",
        ])

    def check(self, inputs: dict, i: int, out: Path, code: int) -> str | None:
        try:
            if code != 0:
                return f"simulate exited with code {code}"
            index = json.loads((out / "index.json").read_text())
            t1 = float(index["t1"])
            if abs(t1 - self.T_END) > 1e-9:
                return f"flow stopped at t = {t1}"
            last = read_surface(out / index["frames"][-1]["file"])
            err = abs(_mesh_area(last.vertices, last.faces) / (inputs["area"] * math.exp(t1)) - 1.0)
            if not err <= 1e-2:
                return f"area law off by {err:.3e} (limit 1e-2)"
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)


class RigidityAudit:
    """Criterion-7 positive control: the full audit of expanding round 256-gons.

    601 frames e^t on [-6, 0], 16 plane directions turned by a seeded phase
    (cost does not depend on it), offsets c = 0.4, 0.2, 0.1, 0.05.  The first
    touch of the plane at offset c is at tau = log c.
    """

    name = "rigidity_audit"
    cycle = 1
    C_SCHEDULE = (0.4, 0.2, 0.1, 0.05)
    DIRECTIONS = 16

    def build(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        phase = rng.uniform(0.0, 2.0 * math.pi / self.DIRECTIONS)
        theta = phase + 2.0 * math.pi * np.arange(self.DIRECTIONS) / self.DIRECTIONS
        return {
            "directions": np.column_stack([np.cos(theta), np.sin(theta)]),
            "speed": speeds.mean_curvature(1),
            # built here so that set-up time covers family generation; each
            # operation audits a fresh copy, with no curvature cached
            "family": self._family(),
        }

    @staticmethod
    def _family():
        return families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256)

    def requested_steps(self) -> int:
        return 0

    def prepare(self, inputs: dict, i: int):
        return self._family()

    def run(self, inputs: dict, family):
        return rigidity.rigidity_audit(
            family, inputs["speed"], np.zeros(2),
            directions=inputs["directions"], c_schedule=self.C_SCHEDULE,
        )

    def check(self, inputs: dict, i: int, family, report) -> str | None:
        if not report.overall:
            return "audit verdict is FAIL"
        taus = [row["tau"] for row in report.tau_table]
        if len(taus) != self.DIRECTIONS * len(self.C_SCHEDULE) or any(isinstance(t, str) for t in taus):
            return "a plane never touched the family"
        err = max(abs(row["tau"] - math.log(row["c"])) for row in report.tau_table)
        if not err < 1e-3:
            return f"|tau - log c| = {err:.3e} (limit 1e-3)"
        deviation = report.limit_symmetry[-1]["deviation"]
        if not deviation < 1e-6:
            return f"final deviation {deviation:.3e} (limit 1e-6)"
        return None


class MeshReflection:
    """Strict reflection checks of a rotated ellipsoid mesh (642 vertices).

    Planes are parallel to the three symmetry planes, on both sides, at
    offsets stratified over (0, 0.9 semi-axis).  A convex body symmetric about
    a parallel plane reflects into itself, so no verdict may be FAILS.  One
    query in ORACLE_EVERY has its inclusion margin recomputed by a
    brute-force oracle.
    """

    name = "mesh_reflection"
    AXES = (1.5, 1.0, 0.75)
    SUBDIVISIONS = 3
    PER_DIRECTION = 20
    cycle = 6 * PER_DIRECTION
    ORACLE_EVERY = 10

    def build(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        rot = _rotation_3d(rng)
        base = shapes.ellipsoid_mesh(*self.AXES, self.SUBDIVISIONS)
        M = DiscreteHypersurface(base.vertices @ rot.T, base.faces)
        M.curvature_data  # warm the cached normals every query reads
        planes = []
        for axis, semi in enumerate(self.AXES):
            for sign in (1.0, -1.0):
                strata = np.arange(self.PER_DIRECTION) + rng.uniform(size=self.PER_DIRECTION)
                for c in 0.9 * semi * strata / self.PER_DIRECTION:
                    planes.append(reflection.Hyperplane(V=sign * rot[:, axis], c=float(c)))
        planes = [planes[j] for j in rng.permutation(len(planes))]
        return {"mesh": M, "planes": planes, "oracle": ConvexOracle(M.vertices, M.faces)}

    def requested_steps(self) -> int:
        return 0

    def prepare(self, inputs: dict, i: int):
        return inputs["planes"][i % self.cycle]

    def run(self, inputs: dict, plane):
        return reflection.strict_reflection_check(inputs["mesh"], plane)

    def check(self, inputs: dict, i: int, plane, verdict) -> str | None:
        if verdict.status is reflection.ReflectionStatus.FAILS:
            return f"FAILS verdict at plane V={plane.V.tolist()} c={plane.c}"
        if i % self.ORACLE_EVERY:
            return None
        expected = inputs["oracle"].inclusion_margin(plane.V, plane.c)
        if expected is None:
            if verdict.status not in (reflection.ReflectionStatus.NONSTRICT, reflection.ReflectionStatus.VACUOUS):
                return f"oracle finds no vertex beyond the plane, verdict {verdict.status.value}"
            return None
        if not abs(verdict.inclusion_margin - expected) <= 1e-9:
            return f"inclusion margin {verdict.inclusion_margin!r} != oracle {expected!r}"
        return None


class ConvexOracle:
    """Brute-force inclusion margins for a closed convex triangle mesh.

    Inside a convex polytope the distance to the boundary is the smallest
    distance to a face plane, so the margin of a reflected vertex is
    min_f (d_f - n_f . p) over all faces, with no spatial pruning.
    """

    def __init__(self, verts: np.ndarray, faces: np.ndarray):
        a, b, c = (verts[faces[:, i]] for i in range(3))
        n = np.cross(b - a, c - a)
        self.normals = n / np.linalg.norm(n, axis=1)[:, None]
        self.offsets = np.einsum("ij,ij->i", self.normals, a)
        self.verts = verts
        scale = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
        self.band = reflection.INCLUSION_BAND_FACTOR * scale
        excess = float((verts @ self.normals.T - self.offsets).max())
        if excess > 1e-12 * scale:
            raise ValueError(f"oracle needs a convex mesh; a vertex lies {excess:.3e} beyond a face plane")

    def inclusion_margin(self, V: np.ndarray, c: float) -> float | None:
        s = self.verts @ V - c
        beyond = s > self.band
        if not np.any(beyond):
            return None
        reflected = self.verts[beyond] - 2.0 * s[beyond, None] * V[None, :]
        return float((self.offsets[None, :] - reflected @ self.normals.T).min())


WORKLOADS = {w.name: w for w in (CurveFlow(), MeshFlow(), RigidityAudit(), MeshReflection())}
