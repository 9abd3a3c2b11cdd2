"""Seeded synthetic inputs for the benchmark workloads.

Everything here is built with pccorrupt's public API (TriangleMesh,
write_off, sample_surface, save_cloud).  The workload seed only moves
shapes, scales and sample positions; tessellations, point counts and
directory layouts are fixed, so the amount of work per run does not
depend on the seed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from pccorrupt import TriangleMesh, normalize_unit_sphere, sample_surface, save_cloud, write_off

# face counts 600, 1,520, 3,480 and 6,240: the BVH depth grows with them
MESH_CLASSES = (
    ("prism", lambda: prism(150)),
    ("ellipsoid", lambda: uv_sphere(20, 40, (1.0, 0.7, 0.5))),
    ("spindle", lambda: uv_sphere(30, 60, (0.5, 0.5, 1.0))),
    ("sphere", lambda: uv_sphere(40, 80)),
)
# coarse shapes for sampled clouds; cheap to sample, easy to tell apart
CLOUD_CLASSES = (
    ("sphere", lambda: uv_sphere(9, 12)),
    ("box", lambda: prism(4, radius=0.9, half_height=0.6)),
    ("cone", lambda: cone(16)),
    ("cylinder", lambda: prism(14, radius=0.6, half_height=1.0)),
)

DENSE_POINTS = 2048
SPARSE_POINTS = 256
SPARSE_EVERY = 16  # one cloud in 16 stands in for a sparse scan


def uv_sphere(n_lat: int, n_lon: int, scale=(1.0, 1.0, 1.0)) -> TriangleMesh:
    """Latitude/longitude sphere: 2 * n_lon * (n_lat - 1) faces."""
    verts = [(0.0, 0.0, 1.0)]
    for i in range(1, n_lat):
        theta = math.pi * i / n_lat
        for j in range(n_lon):
            phi = 2.0 * math.pi * j / n_lon
            verts.append((math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi), math.cos(theta)))
    verts.append((0.0, 0.0, -1.0))
    last = len(verts) - 1
    faces = [(0, 1 + j, 1 + (j + 1) % n_lon) for j in range(n_lon)]
    for i in range(n_lat - 2):
        a, b = 1 + i * n_lon, 1 + (i + 1) * n_lon
        for j in range(n_lon):
            j2 = (j + 1) % n_lon
            faces += [(a + j, b + j, b + j2), (a + j, b + j2, a + j2)]
    base = 1 + (n_lat - 2) * n_lon
    faces += [(last, base + (j + 1) % n_lon, base + j) for j in range(n_lon)]
    return TriangleMesh(np.array(verts) * np.asarray(scale), np.array(faces, dtype=np.int64))


def prism(n_side: int, radius: float = 0.6, half_height: float = 1.0) -> TriangleMesh:
    """Closed n-sided prism: 4 * n_side faces."""
    ring = [(radius * math.cos(2 * math.pi * j / n_side),
             radius * math.sin(2 * math.pi * j / n_side)) for j in range(n_side)]
    verts = [(x, y, -half_height) for x, y in ring] + [(x, y, half_height) for x, y in ring]
    verts += [(0.0, 0.0, -half_height), (0.0, 0.0, half_height)]
    c_lo, c_hi = 2 * n_side, 2 * n_side + 1
    faces = []
    for j in range(n_side):
        j2 = (j + 1) % n_side
        faces += [(j, j2, n_side + j), (j2, n_side + j2, n_side + j),
                  (c_lo, j2, j), (c_hi, n_side + j, n_side + j2)]
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))


def cone(n_side: int) -> TriangleMesh:
    """Closed cone with an n-sided base: 2 * n_side faces."""
    ring = [(math.cos(2 * math.pi * j / n_side), math.sin(2 * math.pi * j / n_side), -0.6)
            for j in range(n_side)]
    verts = ring + [(0.0, 0.0, -0.6), (0.0, 0.0, 1.0)]
    c_lo, apex = n_side, n_side + 1
    faces = []
    for j in range(n_side):
        j2 = (j + 1) % n_side
        faces += [(c_lo, j2, j), (j, j2, apex)]
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))


def _jittered(mesh: TriangleMesh, rng: np.random.Generator, amount: float) -> TriangleMesh:
    """Random anisotropic scale within +-amount and a random turn about z."""
    scale = 1.0 + rng.uniform(-amount, amount, size=3)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return TriangleMesh((mesh.vertices * scale) @ turn.T, mesh.faces)


def write_meshes(root: Path, seed: int) -> None:
    """One OFF mesh in a directory per class of MESH_CLASSES."""
    rng = np.random.default_rng([seed, 0x6D657368])
    for name, build in MESH_CLASSES:
        (root / name).mkdir(parents=True, exist_ok=True)
        (root / name / f"{name}_000.off").write_text(write_off(_jittered(build(), rng, 0.05)))


def write_clouds(root: Path, seed: int, stream: int, per_class: int, n_points) -> None:
    """Binary PLY clouds in a directory per class of CLOUD_CLASSES, written
    round-robin over the classes; n_points maps the running index of a
    cloud to its point count."""
    rng = np.random.default_rng([seed, stream])
    meshes = [(name, build()) for name, build in CLOUD_CLASSES]
    for name, _ in meshes:
        (root / name).mkdir(parents=True, exist_ok=True)
    for i in range(per_class):
        for c, (name, mesh) in enumerate(meshes):
            shape = _jittered(mesh, rng, 0.1)
            n = n_points(i * len(meshes) + c)
            cloud = sample_surface(shape, n, seed=int(rng.integers(1 << 62)))
            save_cloud(normalize_unit_sphere(cloud), root / name / f"{name}_{i:03d}.ply")


def scan_points(index: int) -> int:
    """Point count of the gen_cloud input with this running index."""
    return SPARSE_POINTS if index % SPARSE_EVERY == SPARSE_EVERY - 1 else DENSE_POINTS
