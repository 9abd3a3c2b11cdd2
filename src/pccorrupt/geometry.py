"""Core point-cloud and mesh types, OFF parsing, surface sampling, kNN.

All coordinates are double precision.  Types are immutable after
construction (each holds its own C-contiguous, read-only copy of the
arrays it was given), so they can be shared freely across worker
processes and threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OffParseError(ValueError):
    """Malformed OFF input; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateGeometryError(ValueError):
    """Input geometry has no usable extent (zero area, zero spread, ...)."""


def _as_points(array, name="points"):
    pts = np.asarray(array, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contain non-finite coordinates")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points, shape (n, 3) float64, n >= 1."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(np.array(self.points, dtype=np.float64, order="C"))
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class TriangleMesh:
    """Triangle mesh: vertices (v, 3) float64 and faces (f, 3) int64.

    Every face index must be a valid vertex index and the three indices of
    a face must be distinct.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        verts = _as_points(np.array(self.vertices, dtype=np.float64, order="C"), "vertices")
        faces = np.array(self.faces, dtype=np.int64, order="C")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must have shape (f, 3), got {faces.shape}")
        if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
            raise ValueError("face index out of range")
        if faces.size:
            distinct = (
                (faces[:, 0] != faces[:, 1])
                & (faces[:, 1] != faces[:, 2])
                & (faces[:, 0] != faces[:, 2])
            )
            if not distinct.all():
                raise ValueError("face with repeated vertex indices")
        verts.setflags(write=False)
        faces.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", faces)

    @property
    def triangles(self) -> np.ndarray:
        """Face corner coordinates, shape (f, 3, 3)."""
        return self.vertices[self.faces]

    def face_areas(self) -> np.ndarray:
        tri = self.triangles
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)


# ---------------------------------------------------------------------------
# OFF parsing / writing


def _off_lines(text):
    """Yield (line_number, stripped_line) skipping blanks and comments."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_off(data) -> TriangleMesh:
    """Parse OFF text (str or bytes) into a TriangleMesh.

    Accepts the malformed ModelNet40 variant where the counts are fused to
    the magic line ("OFF492 306 0").  Polygons with more than three
    vertices are fan-triangulated from their first vertex.  Faces with
    repeated indices (zero-area slivers) are dropped.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")
    lines = _off_lines(data)

    try:
        no, magic = next(lines)
    except StopIteration:
        raise OffParseError("empty file") from None
    if not magic.startswith("OFF"):
        raise OffParseError(f"missing OFF magic, got {magic[:16]!r}", no)

    rest = magic[3:].strip()
    if rest:
        counts_line, counts_no = rest, no
    else:
        try:
            counts_no, counts_line = next(lines)
        except StopIteration:
            raise OffParseError("missing count line", no + 1) from None
    parts = counts_line.split()
    if len(parts) != 3:
        raise OffParseError(f"expected 3 counts, got {counts_line!r}", counts_no)
    try:
        n_vert, n_face, _ = (int(p) for p in parts)
    except ValueError:
        raise OffParseError(f"non-integer counts {counts_line!r}", counts_no) from None
    if n_vert < 0 or n_face < 0:
        raise OffParseError("negative counts", counts_no)

    vertices = []  # grown line by line: the count line may claim any size
    for i in range(n_vert):
        try:
            no, line = next(lines)
        except StopIteration:
            raise OffParseError(
                f"truncated: expected {n_vert} vertices, got {i}", counts_no
            ) from None
        tokens = line.split()
        if len(tokens) != 3:
            raise OffParseError(f"expected 3 coordinates, got {line!r}", no)
        try:
            vertices.append([float(t) for t in tokens])
        except ValueError:
            raise OffParseError(f"bad coordinate in {line!r}", no) from None

    triangles = []
    for i in range(n_face):
        try:
            no, line = next(lines)
        except StopIteration:
            raise OffParseError(
                f"truncated: expected {n_face} faces, got {i}", counts_no
            ) from None
        tokens = line.split()
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise OffParseError(f"bad face line {line!r}", no) from None
        if not values or len(values) != values[0] + 1:
            raise OffParseError(f"face vertex count mismatch in {line!r}", no)
        arity, idx = values[0], values[1:]
        if arity < 3:
            raise OffParseError(f"face with fewer than 3 vertices in {line!r}", no)
        for j in idx:
            if j < 0 or j >= n_vert:
                raise OffParseError(f"face index {j} out of range 0..{n_vert - 1}", no)
        # fan triangulation from vertex 0 of the polygon
        for k in range(1, arity - 1):
            tri = (idx[0], idx[k], idx[k + 1])
            if len(set(tri)) == 3:
                triangles.append(tri)

    faces = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    return TriangleMesh(np.array(vertices, dtype=np.float64).reshape(-1, 3), faces)


def write_off(mesh: TriangleMesh) -> str:
    """Serialize a mesh to canonical OFF text (round-trips with parse_off)."""
    out = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    for v in mesh.vertices:
        out.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for f in mesh.faces:
        out.append(f"3 {int(f[0])} {int(f[1])} {int(f[2])}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Sampling and normalization


def sample_surface(
    mesh: TriangleMesh, n: int, seed: int, return_face_indices: bool = False
):
    """Sample n points area-weighted over the mesh surface.

    Faces are chosen proportionally to their area (zero-area faces get
    weight 0) and points are drawn by uniform barycentric sampling inside
    the chosen triangle.  Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    areas = mesh.face_areas()
    total = areas.sum()
    if not total > 0.0:
        raise DegenerateGeometryError("mesh has zero total surface area")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    face_idx = rng.choice(len(areas), size=n, p=areas / total)
    tri = mesh.triangles[face_idx]
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    pts = (
        tri[:, 0]
        + u[:, None] * (tri[:, 1] - tri[:, 0])
        + v[:, None] * (tri[:, 2] - tri[:, 0])
    )
    cloud = PointCloud(pts)
    if return_face_indices:
        return cloud, face_idx
    return cloud


def _unit_sphere(points: np.ndarray, what: str) -> np.ndarray:
    """`points` centred at their centroid and scaled to a max norm of 1."""
    centred = points - points.mean(axis=0)
    radius = np.linalg.norm(centred, axis=1).max()
    if not radius > 0.0:
        raise DegenerateGeometryError(f"{what} has zero extent")
    return centred / radius


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Center the cloud at its centroid and scale the max norm to 1."""
    return PointCloud(_unit_sphere(cloud.points, "cloud"))


def normalize_mesh(mesh: TriangleMesh) -> TriangleMesh:
    """Apply the unit-sphere normalization convention to mesh vertices."""
    return TriangleMesh(_unit_sphere(mesh.vertices, "mesh"), mesh.faces)


# ---------------------------------------------------------------------------
# Nearest neighbors


def nearest_indices(points: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points to `query`, ascending distance.

    Ties are broken by lower index (a stable sort on d^2), which keeps
    cluster membership decisions platform-stable.
    """
    points = np.asarray(points, dtype=np.float64)
    if k > len(points):
        raise ValueError(f"k={k} exceeds cloud size {len(points)}")
    d2 = ((points - np.asarray(query, dtype=np.float64)) ** 2).sum(axis=1)
    return np.argsort(d2, kind="stable")[:k]
