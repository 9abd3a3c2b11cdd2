"""Ray-cast visibility: single-view occlusion clouds and LiDAR scan patterns.

A pinhole camera at distance CAMERA_DISTANCE (2.5) looks at the origin
from one of five canonical azimuths (0, 72, 144, 216, 288 degrees) with a
random elevation in [30, 60] degrees.  Rays keep their nearest triangle
intersection (Moller-Trumbore, t > 1e-9; at equal t the lowest triangle
index).  The caster bins the rays of a view on its image plane and tests
each triangle only against the rays near its projection; the result is
exact (the same nearest hit as exhaustive iteration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, TriangleMesh, _as_points

CANONICAL_AZIMUTHS = (0.0, 72.0, 144.0, 216.0, 288.0)  # view i looks from the (i-1)-th
ELEVATION_RANGE_DEG = (30.0, 60.0)
FIELD_OF_VIEW_DEG = 50.0  # of the pinhole grid and of the LiDAR pattern
CAMERA_DISTANCE = 2.5
RAY_T_MIN = 1e-9
OCCLUSION_HITS = (768, 1280)  # hit counts occlusion_cloud searches for
LIDAR_BEAMS = 32  # elevation lines of the LiDAR pattern
LIDAR_AZIMUTH_STEPS = 512  # rays per line
LIDAR_POINTS = 1024  # lidar_cloud keeps at most this many hits

_DET_EPS = 1e-12
_RAYS_PER_BIN = 1  # mean rays per image-plane bin; sets the grid size
_MIN_COS = 1e-3  # a triangle is "in front" if every corner has cos(angle to axis) > this
_PAD = 1e-9  # image-plane margin per unit of a triangle's worst |w| / depth
_CHUNK = 1 << 15  # (triangle, ray) pairs tested per step
_PROBE_GRID = 32  # side of occlusion_cloud's first ray grid


class DegenerateViewError(ValueError):
    """No ray hit the mesh from the requested pose."""


@dataclass(frozen=True)
class ViewPose:
    """Sensor pose: canonical azimuth, elevation within ELEVATION_RANGE_DEG,
    looking at the origin from CAMERA_DISTANCE."""

    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self):
        if self.azimuth_deg not in CANONICAL_AZIMUTHS:
            raise ValueError(
                f"azimuth must be one of {CANONICAL_AZIMUTHS}, got {self.azimuth_deg}"
            )
        lo, hi = ELEVATION_RANGE_DEG
        if not lo <= self.elevation_deg <= hi:
            raise ValueError(
                f"elevation must be within [{lo:g}, {hi:g}] deg, got {self.elevation_deg}"
            )

    @property
    def position(self) -> np.ndarray:
        az = math.radians(self.azimuth_deg)
        el = math.radians(self.elevation_deg)
        return CAMERA_DISTANCE * np.array(
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


def view_pose(view_index: int, rng: np.random.Generator) -> ViewPose:
    """Pose for view i >= 1: CANONICAL_AZIMUTHS[i - 1], elevation ~ U(ELEVATION_RANGE_DEG)."""
    if view_index not in range(1, len(CANONICAL_AZIMUTHS) + 1):
        raise ValueError(f"view index must be in 1..{len(CANONICAL_AZIMUTHS)}, got {view_index}")
    return ViewPose(CANONICAL_AZIMUTHS[view_index - 1], rng.uniform(*ELEVATION_RANGE_DEG))


def _cross(a, b):
    """a x b for (3, n) coordinate rows, with np.cross's float operations."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    """a . b for (3, n) coordinate rows, summed in np.sum's order."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class Bvh:
    """Exact nearest-hit caster for bundles of rays from one shared origin.

    Rays are binned by where their directions meet an image plane facing
    the bundle.  Each triangle wholly in front of the origin is tested
    against the rays in the bins its projection covers, row by row; every
    other triangle is tested against every ray.  Each (triangle, ray) pair
    goes through the same Moller-Trumbore arithmetic, so the result is
    that of exhaustive iteration.
    """

    def __init__(self, mesh: TriangleMesh):
        if len(mesh.faces) == 0:
            raise ValueError("cannot cast rays against an empty mesh")
        self._vertices = mesh.vertices
        self._faces = mesh.faces
        tri = mesh.triangles.transpose(1, 2, 0)  # (corner, coordinate, face)
        self._v0 = tri[0]
        self._e1 = tri[1] - tri[0]
        self._e2 = tri[2] - tri[0]

    def nearest_hits(self, origin: np.ndarray, directions: np.ndarray):
        """Nearest intersection per ray: (t, triangle index); misses are (inf, -1).

        All rays start at `origin`, shape (3,).  Among hits at equal t the
        lowest triangle index wins.
        """
        origin = np.asarray(origin, dtype=np.float64)
        if origin.shape != (3,):
            raise ValueError(f"origin must have shape (3,), got {origin.shape}")
        _as_points(origin[None], "origin")
        directions = _as_points(np.asarray(directions, dtype=np.float64).reshape(-1, 3),
                                "directions")
        n = len(directions)
        best_t = np.full(n, np.inf)
        best_tri = np.full(n, len(self._faces), dtype=np.int64)  # above every index

        # with one origin these Moller-Trumbore terms depend on the triangle only
        tvec = origin[:, None] - self._v0
        qvec = np.stack(_cross(tvec, self._e1))
        tnum = _dot(self._e2, qvec)
        dirs = directions.T.copy()

        ray_order, tri_ids, lo, hi = self._candidates(origin, directions)
        lens = hi - lo
        cuts = np.searchsorted(np.cumsum(lens), np.arange(_CHUNK, lens.sum(), _CHUNK))
        found = []
        for tris, start, length in zip(*(np.split(a, cuts) for a in (tri_ids, lo, lens))):
            before = np.cumsum(length) - length
            rays = ray_order[np.repeat(start - before, length) + np.arange(length.sum())]
            tris = np.repeat(tris, length)
            # np.take: a[:, idx] measured ~4x slower on these (3, n) arrays
            d = np.take(dirs, rays, axis=1)
            pvec = _cross(d, np.take(self._e2, tris, axis=1))
            det = _dot(np.take(self._e1, tris, axis=1), pvec)
            ok = np.abs(det) > _DET_EPS
            with np.errstate(divide="ignore", over="ignore"):
                inv_det = np.where(ok, 1.0 / det, 0.0)
            u = _dot(np.take(tvec, tris, axis=1), pvec) * inv_det
            v = _dot(d, np.take(qvec, tris, axis=1)) * inv_det
            t = tnum[tris] * inv_det
            valid = ok & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > RAY_T_MIN)
            found.append((rays[valid], t[valid], tris[valid]))

        rays, t, tris = (np.concatenate(c) for c in zip(*found))
        np.minimum.at(best_t, rays, t)
        nearest = t == best_t[rays]
        np.minimum.at(best_tri, rays[nearest], tris[nearest])
        best_tri[best_tri == len(self._faces)] = -1
        return best_t, best_tri

    def _candidates(self, origin, directions):
        """Candidate pairs as segments: triangle tri_ids[i] against the rays
        ray_order[lo[i]:hi[i]]."""
        n = len(directions)
        axis = directions.sum(axis=0)
        forward = axis / np.linalg.norm(axis) if axis.any() else np.array([1.0, 0.0, 0.0])
        right = np.cross(forward, np.eye(3)[np.argmin(np.abs(forward))])
        right /= np.linalg.norm(right)
        frame = np.stack([forward, right, np.cross(forward, right)], axis=1)

        # rays binned on a uniform grid by where they cross the image plane.
        # A ray at cos <= _MIN_COS / 2 to the axis stays a finite angle away
        # from every triangle in front (their cone is convex); it goes last
        # in ray_order and meets only the triangles not in front.
        depth, dr, du = (directions @ frame).T
        is_ahead = depth > _MIN_COS / 2 * np.linalg.norm(directions, axis=1)
        ahead = np.flatnonzero(is_ahead)
        m = len(ahead)
        rx, ry = dr[ahead] / depth[ahead], du[ahead] / depth[ahead]
        grid = max(1, math.isqrt(m // _RAYS_PER_BIN))
        x0, y0 = (rx.min(), ry.min()) if m else (0.0, 0.0)
        wx = (rx.max() - x0) / grid if m and rx.max() > x0 else 1.0
        wy = (ry.max() - y0) / grid if m and ry.max() > y0 else 1.0
        cols = np.minimum(np.floor((rx - x0) / wx), grid - 1)
        bins = (np.minimum(np.floor((ry - y0) / wy), grid - 1) * grid + cols).astype(np.int64)
        sort = np.argsort(bins, kind="stable")
        ray_order = np.concatenate([ahead[sort], np.flatnonzero(~is_ahead)])
        bin_start = np.searchsorted(bins[sort], np.arange(grid * grid + 1))

        # triangles in front, projected; per-triangle arrays are (3, triangles).
        # The pad covers rounding in projection, binning and Moller-Trumbore,
        # which grows with a corner's |w| / depth.
        w = self._vertices - origin
        wz, wr, wu = (w @ frame).T
        in_front = (wz > _MIN_COS * np.linalg.norm(w, axis=1))[self._faces].all(axis=1)
        front = np.flatnonzero(in_front)
        corners = self._faces[front].T
        with np.errstate(divide="ignore", invalid="ignore"):
            px, py = (wr / wz)[corners], (wu / wz)[corners]
            pad = _PAD * (np.linalg.norm(w, axis=1) / wz)[corners].max(axis=0)

        # one entry k per (triangle, bin row) its padded y-span covers
        r0 = np.floor((py.min(axis=0) - pad - y0) / wy)
        r1 = np.floor((py.max(axis=0) + pad - y0) / wy)
        keep = np.flatnonzero((r1 >= 0) & (r0 <= grid - 1))
        r0 = np.maximum(r0[keep], 0).astype(np.int64)
        nrows = np.minimum(r1[keep], grid - 1).astype(np.int64) - r0 + 1
        k = np.repeat(keep, nrows)
        rows = np.repeat(r0 - np.cumsum(nrows) + nrows, nrows) + np.arange(len(k))

        # the triangle's x-span within the row's padded strip: its edges
        # clipped to the strip (a flat edge's ends are its neighbours' ends)
        xb, yb = np.roll(px, -1, axis=0), np.roll(py, -1, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.take(np.where(yb != py, (xb - px) / (yb - py), 0.0), k, axis=1)
        e_lo = np.take(np.minimum(py, yb), k, axis=1)
        e_hi = np.take(np.maximum(py, yb), k, axis=1)
        xa, ya, pad = np.take(px, k, axis=1), np.take(py, k, axis=1), pad[k]
        s_lo = y0 + rows * wy - pad
        s_hi = y0 + (rows + 1) * wy + pad
        x_lo = xa + (np.clip(s_lo, e_lo, e_hi) - ya) * slope
        x_hi = xa + (np.clip(s_hi, e_lo, e_hi) - ya) * slope
        meets = (e_hi >= s_lo) & (e_lo <= s_hi)
        span_lo = np.where(meets, np.minimum(x_lo, x_hi), np.inf).min(axis=0) - pad
        span_hi = np.where(meets, np.maximum(x_lo, x_hi), -np.inf).max(axis=0) + pad
        c0 = np.floor((span_lo - x0) / wx)
        c1 = np.floor((span_hi - x0) / wx)
        keep = (c1 >= 0) & (c0 <= grid - 1) & (span_lo <= span_hi)
        cells = rows[keep] * grid
        c0 = np.maximum(c0[keep], 0).astype(np.int64)
        c1 = np.minimum(c1[keep], grid - 1).astype(np.int64)

        # and the triangles not in front against every ray
        behind = np.flatnonzero(~in_front)
        tri_ids = np.concatenate([front[k[keep]], behind])
        lo = np.concatenate([bin_start[cells + c0], np.zeros_like(behind)])
        hi = np.concatenate([bin_start[cells + c1 + 1], np.full_like(behind, n)])
        nonempty = hi > lo
        return ray_order, tri_ids[nonempty], lo[nonempty], hi[nonempty]


def _sensor_rays(pose: ViewPose, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit rays along forward + a*right + b*up of the pose's frame, one per (a, b)."""
    forward, right, up = pose.basis()
    dirs = forward[None, :] + a[:, None] * right[None, :] + b[:, None] * up[None, :]
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _pinhole_directions(pose: ViewPose, grid: int) -> np.ndarray:
    """A grid x grid image plane evenly spaced in tangent, row-major, top row first."""
    half = math.tan(math.radians(FIELD_OF_VIEW_DEG) / 2.0)
    coords = half * (2.0 * (np.arange(grid) + 0.5) / grid - 1.0)
    return _sensor_rays(pose, np.tile(coords, grid), np.repeat(-coords, grid))


def _lidar_directions(pose: ViewPose) -> np.ndarray:
    """LIDAR_BEAMS lines of LIDAR_AZIMUTH_STEPS rays, evenly spaced in angle, beam-major."""
    half = math.radians(FIELD_OF_VIEW_DEG) / 2.0
    tan_beam = np.tan(np.linspace(-half, half, LIDAR_BEAMS))
    tan_az = np.tan(np.linspace(-half, half, LIDAR_AZIMUTH_STEPS))
    return _sensor_rays(pose, np.tile(tan_az, LIDAR_BEAMS),
                        np.repeat(tan_beam, LIDAR_AZIMUTH_STEPS))


def _hit_points(bvh: Bvh, pose: ViewPose, dirs: np.ndarray, what: str) -> PointCloud:
    """The nearest hit of each ray from the pose along `dirs`; DegenerateViewError
    if no `what` hits the mesh."""
    t, tri = bvh.nearest_hits(pose.position, dirs)
    hit = tri >= 0
    if not hit.any():
        raise DegenerateViewError(
            f"no {what} hit the mesh from azimuth {pose.azimuth_deg} deg"
        )
    return PointCloud(pose.position[None, :] + t[hit, None] * dirs[hit])


def raycast_visible(
    mesh: TriangleMesh, pose: ViewPose, n_rays: int, bvh: Bvh | None = None
) -> PointCloud:
    """Hit points of a ceil(sqrt(n_rays))^2 pinhole ray grid, nearest hits only."""
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    grid = math.ceil(math.sqrt(n_rays))
    dirs = _pinhole_directions(pose, grid)
    return _hit_points(Bvh(mesh) if bvh is None else bvh, pose, dirs, "ray")


def lidar_scan(mesh: TriangleMesh, pose: ViewPose) -> PointCloud:
    """Scan-line raycast: LIDAR_BEAMS elevation lines x LIDAR_AZIMUTH_STEPS
    rays per line, evenly spaced in angle over the field of view.

    Beam i holds a fixed sensor-frame vertical angle, so its hit points are
    exactly coplanar (the plane spanned by the beam's central direction and
    the sensor's right axis).
    """
    return _hit_points(Bvh(mesh), pose, _lidar_directions(pose), "LiDAR ray")


def occlusion_cloud(mesh: TriangleMesh, pose: ViewPose) -> PointCloud:
    """Single-view occlusion cloud with the ray budget auto-scaled.

    Searches the side of the square pinhole grid for a hit count in
    OCCLUSION_HITS.  The first cast is a _PROBE_GRID^2 probe.  Hit counts
    scale with the grid's area, so after a cast with `hits` out of range the
    next side is `round(grid * sqrt(mid / hits))`, `mid` being the middle of
    OCCLUSION_HITS, clamped to a bracket that starts at [8, 512] and shrinks
    past every cast.  A cast that hits nothing predicts the largest side
    left.  The search stops at a hit count in range, an empty bracket or the
    sixth cast, and returns that last cast's cloud; DegenerateViewError is
    raised only if that last cast hit nothing.
    """
    bvh = Bvh(mesh)
    lo_grid, hi_grid = 8, 512
    mid = sum(OCCLUSION_HITS) / 2
    grid = _PROBE_GRID
    for _ in range(6):
        try:
            cloud = raycast_visible(mesh, pose, grid * grid, bvh=bvh)
            hits, miss = cloud.count, None
        except DegenerateViewError as exc:
            hits, miss = 0, exc
        if OCCLUSION_HITS[0] <= hits <= OCCLUSION_HITS[1]:
            break
        if hits < OCCLUSION_HITS[0]:
            lo_grid = grid + 1
        else:
            hi_grid = grid - 1
        if lo_grid > hi_grid:
            break
        guess = round(grid * math.sqrt(mid / hits)) if hits else hi_grid
        grid = min(max(guess, lo_grid), hi_grid)
    if miss is not None:
        raise miss
    return cloud


def lidar_cloud(mesh: TriangleMesh, pose: ViewPose, rng: np.random.Generator) -> PointCloud:
    """LiDAR-style cloud, randomly downsampled to at most LIDAR_POINTS."""
    cloud = lidar_scan(mesh, pose)
    if cloud.count <= LIDAR_POINTS:
        return cloud
    keep = np.sort(rng.choice(cloud.count, size=LIDAR_POINTS, replace=False))
    return PointCloud(cloud.points[keep])
