"""Ray-cast visibility: single-view occlusion clouds and LiDAR scan patterns.

A pinhole camera at distance 2.5 looks at the origin from one of five
canonical azimuths (0, 72, 144, 216, 288 degrees) with a random elevation
in [30, 60] degrees.  Rays keep their nearest triangle intersection
(Moller-Trumbore, t > 1e-9), accelerated by an axis-aligned BVH whose
traversal is exact (same nearest hit as exhaustive iteration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, TriangleMesh
from .severity import SEVERITIES

CANONICAL_AZIMUTHS = (0.0, 72.0, 144.0, 216.0, 288.0)
DEFAULT_FOV_DEG = 50.0
DEFAULT_CAMERA_DISTANCE = 2.5
RAY_T_MIN = 1e-9

_LEAF_SIZE = 8
_DET_EPS = 1e-12


class DegenerateViewError(RuntimeError):
    """No ray hit the mesh from the requested pose."""


@dataclass(frozen=True)
class ViewPose:
    """Sensor pose: canonical azimuth, elevation in [30, 60] deg, looking at origin."""

    azimuth_deg: float
    elevation_deg: float
    distance: float = DEFAULT_CAMERA_DISTANCE

    def __post_init__(self):
        if self.azimuth_deg not in CANONICAL_AZIMUTHS:
            raise ValueError(
                f"azimuth must be one of {CANONICAL_AZIMUTHS}, got {self.azimuth_deg}"
            )
        if not 30.0 <= self.elevation_deg <= 60.0:
            raise ValueError(
                f"elevation must be within [30, 60] deg, got {self.elevation_deg}"
            )
        if not self.distance > 0:
            raise ValueError("camera distance must be > 0")

    @property
    def position(self) -> np.ndarray:
        az = math.radians(self.azimuth_deg)
        el = math.radians(self.elevation_deg)
        return self.distance * np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )

    def basis(self):
        """Orthonormal (forward, right, up) of the sensor frame."""
        pos = self.position
        forward = -pos / np.linalg.norm(pos)
        right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
        right /= np.linalg.norm(right)
        up = np.cross(right, forward)
        return forward, right, up


def view_pose(severity_index: int, rng: np.random.Generator) -> ViewPose:
    """Pose for view index 1..5: azimuth 72*(i-1) deg, elevation ~ U(30, 60)."""
    if severity_index not in SEVERITIES:
        raise ValueError(f"severity index must be in 1..5, got {severity_index}")
    azimuth = CANONICAL_AZIMUTHS[severity_index - 1]
    elevation = rng.uniform(30.0, 60.0)
    return ViewPose(azimuth, elevation)


@dataclass
class _Node:
    lo: np.ndarray
    hi: np.ndarray
    left: int = -1
    right: int = -1
    start: int = 0
    count: int = 0


class Bvh:
    """Median-split BVH over mesh triangles with batched exact traversal."""

    def __init__(self, mesh: TriangleMesh):
        if len(mesh.faces) == 0:
            raise ValueError("cannot build a BVH over an empty mesh")
        tri = mesh.triangles
        self._v0 = tri[:, 0]
        self._e1 = tri[:, 1] - tri[:, 0]
        self._e2 = tri[:, 2] - tri[:, 0]
        self._tri_lo = tri.min(axis=1)
        self._tri_hi = tri.max(axis=1)
        centroids = tri.mean(axis=1)

        self._order = np.arange(len(tri))
        self._nodes: list[_Node] = []
        self._build(0, len(tri), centroids)

    def _build(self, start, end, centroids) -> int:
        idx = self._order[start:end]
        lo = self._tri_lo[idx].min(axis=0)
        hi = self._tri_hi[idx].max(axis=0)
        node_id = len(self._nodes)
        self._nodes.append(_Node(lo, hi))
        node = self._nodes[node_id]
        if end - start <= _LEAF_SIZE:
            node.start, node.count = start, end - start
            return node_id
        axis = int(np.argmax(hi - lo))
        key = centroids[idx, axis]
        local = np.argsort(key, kind="stable")
        self._order[start:end] = idx[local]
        mid = (start + end) // 2
        node.left = self._build(start, mid, centroids)
        node.right = self._build(mid, end, centroids)
        return node_id

    def nearest_hits(self, origins: np.ndarray, directions: np.ndarray):
        """Nearest intersection per ray: (t, triangle index); misses are (inf, -1).

        Accepts a single shared origin (shape (3,)) or one origin per ray.
        """
        directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
        n = len(directions)
        origins = np.asarray(origins, dtype=np.float64)
        if origins.ndim == 1:
            origins = np.broadcast_to(origins, (n, 3))
        safe = np.where(np.abs(directions) < 1e-300, 1e-300, directions)
        inv_dir = 1.0 / safe

        best_t = np.full(n, np.inf)
        best_tri = np.full(n, -1, dtype=np.int64)
        self._visit(0, np.arange(n), origins, directions, inv_dir, best_t, best_tri)
        return best_t, best_tri

    def _visit(self, node_id, ray_ids, origins, directions, inv_dir, best_t, best_tri):
        if ray_ids.size == 0:
            return
        node = self._nodes[node_id]
        o = origins[ray_ids]
        inv = inv_dir[ray_ids]
        t1 = (node.lo[None, :] - o) * inv
        t2 = (node.hi[None, :] - o) * inv
        tmin = np.minimum(t1, t2).max(axis=1)
        tmax = np.maximum(t1, t2).min(axis=1)
        live = (tmax >= np.maximum(tmin, 0.0)) & (tmin < best_t[ray_ids])
        ray_ids = ray_ids[live]
        if ray_ids.size == 0:
            return
        if node.count > 0:
            tris = self._order[node.start : node.start + node.count]
            self._intersect_leaf(tris, ray_ids, origins, directions, best_t, best_tri)
        else:
            self._visit(node.left, ray_ids, origins, directions, inv_dir, best_t, best_tri)
            self._visit(node.right, ray_ids, origins, directions, inv_dir, best_t, best_tri)

    def _intersect_leaf(self, tris, ray_ids, origins, directions, best_t, best_tri):
        o = origins[ray_ids][:, None, :]
        d = directions[ray_ids][:, None, :]
        v0 = self._v0[tris][None, :, :]
        e1 = self._e1[tris][None, :, :]
        e2 = self._e2[tris][None, :, :]

        pvec = np.cross(d, e2)
        det = (e1 * pvec).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_det = np.where(np.abs(det) > _DET_EPS, 1.0 / det, 0.0)
            tvec = o - v0
            u = (tvec * pvec).sum(axis=2) * inv_det
            qvec = np.cross(tvec, e1)
            v = (d * qvec).sum(axis=2) * inv_det
            t = (e2 * qvec).sum(axis=2) * inv_det
        valid = (
            (np.abs(det) > _DET_EPS)
            & (u >= 0.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (t > RAY_T_MIN)
        )
        t = np.where(valid, t, np.inf)
        # lowest triangle array position wins exact ties, matching brute force
        col = np.argmin(t, axis=1)
        rows = np.arange(len(ray_ids))
        t_best_local = t[rows, col]
        better = t_best_local < best_t[ray_ids]
        upd = ray_ids[better]
        best_t[upd] = t_best_local[better]
        best_tri[upd] = tris[col[better]]


def _pinhole_directions(pose: ViewPose, grid: int, fov_deg: float) -> np.ndarray:
    forward, right, up = pose.basis()
    half = math.tan(math.radians(fov_deg) / 2.0)
    coords = half * (2.0 * (np.arange(grid) + 0.5) / grid - 1.0)
    xs, ys = np.meshgrid(coords, -coords, indexing="xy")  # row-major, top row first
    dirs = (
        forward[None, :]
        + xs.reshape(-1, 1) * right[None, :]
        + ys.reshape(-1, 1) * up[None, :]
    )
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def raycast_visible(
    mesh: TriangleMesh,
    pose: ViewPose,
    n_rays: int,
    fov_deg: float = DEFAULT_FOV_DEG,
    bvh: Bvh | None = None,
) -> PointCloud:
    """Hit points of a ceil(sqrt(n_rays))^2 pinhole ray grid, nearest hits only."""
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    grid = math.ceil(math.sqrt(n_rays))
    dirs = _pinhole_directions(pose, grid, fov_deg)
    if bvh is None:
        bvh = Bvh(mesh)
    t, tri = bvh.nearest_hits(pose.position, dirs)
    hit = tri >= 0
    if not hit.any():
        raise DegenerateViewError(
            f"no ray hit the mesh from azimuth {pose.azimuth_deg} deg"
        )
    return PointCloud(pose.position[None, :] + t[hit, None] * dirs[hit])


def sensor_frame_elevation(points: np.ndarray, pose: ViewPose) -> np.ndarray:
    """Vertical angle atan2(up-component, forward-component) per point."""
    forward, _right, up = pose.basis()
    delta = np.asarray(points, dtype=np.float64) - pose.position
    return np.arctan2(delta @ up, delta @ forward)


def lidar_scan(
    mesh: TriangleMesh,
    pose: ViewPose,
    n_beams: int = 32,
    azimuth_steps: int = 512,
    fov_deg: float = DEFAULT_FOV_DEG,
    bvh: Bvh | None = None,
    return_beams: bool = False,
):
    """Scan-line raycast: n_beams elevation lines x azimuth_steps per line.

    Beam i holds a fixed sensor-frame vertical angle, so its hit points are
    exactly coplanar (the plane spanned by the beam's central direction and
    the sensor's right axis).
    """
    if n_beams < 2:
        raise ValueError("n_beams must be >= 2")
    if azimuth_steps < 1:
        raise ValueError("azimuth_steps must be >= 1")
    forward, right, up = pose.basis()
    half = math.radians(fov_deg) / 2.0
    beam_angles = np.linspace(-half, half, n_beams)
    az_angles = np.linspace(-half, half, azimuth_steps)
    tan_beam = np.tan(beam_angles)
    tan_az = np.tan(az_angles)
    dirs = (
        forward[None, None, :]
        + tan_az[None, :, None] * right[None, None, :]
        + tan_beam[:, None, None] * up[None, None, :]
    ).reshape(-1, 3)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    if bvh is None:
        bvh = Bvh(mesh)
    t, tri = bvh.nearest_hits(pose.position, dirs)
    hit = tri >= 0
    if not hit.any():
        raise DegenerateViewError(
            f"no LiDAR ray hit the mesh from azimuth {pose.azimuth_deg} deg"
        )
    points = pose.position[None, :] + t[hit, None] * dirs[hit]
    cloud = PointCloud(points)
    if return_beams:
        beam_ids = np.repeat(np.arange(n_beams), azimuth_steps)[hit]
        return cloud, beam_ids
    return cloud


def occlusion_cloud(
    mesh: TriangleMesh,
    pose: ViewPose,
    target_range: tuple[int, int] = (768, 1280),
    start_grid: int = 96,
    max_iterations: int = 6,
    fov_deg: float = DEFAULT_FOV_DEG,
    bvh: Bvh | None = None,
) -> PointCloud:
    """Single-view occlusion cloud with the ray budget auto-scaled.

    Starts at start_grid^2 rays and binary-searches the grid size until the
    hit count lands in target_range or max_iterations casts elapse.
    """
    if bvh is None:
        bvh = Bvh(mesh)
    lo_grid, hi_grid = 8, 512
    grid = start_grid
    cloud = None
    for _ in range(max_iterations):
        cloud = raycast_visible(mesh, pose, grid * grid, fov_deg=fov_deg, bvh=bvh)
        if target_range[0] <= cloud.count <= target_range[1]:
            break
        if cloud.count < target_range[0]:
            lo_grid = grid + 1
        else:
            hi_grid = grid - 1
        if lo_grid > hi_grid:
            break
        grid = (lo_grid + hi_grid) // 2
    return cloud


def lidar_cloud(
    mesh: TriangleMesh,
    pose: ViewPose,
    rng: np.random.Generator,
    n_beams: int = 32,
    azimuth_steps: int = 512,
    max_points: int = 1024,
    fov_deg: float = DEFAULT_FOV_DEG,
    bvh: Bvh | None = None,
) -> PointCloud:
    """LiDAR-style cloud, randomly downsampled to at most max_points."""
    cloud = lidar_scan(
        mesh, pose, n_beams=n_beams, azimuth_steps=azimuth_steps,
        fov_deg=fov_deg, bvh=bvh,
    )
    if cloud.count <= max_points:
        return cloud
    keep = np.sort(rng.choice(cloud.count, size=max_points, replace=False))
    return PointCloud(cloud.points[keep])
