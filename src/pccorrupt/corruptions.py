"""The fifteen corruption operators and their severity-driven dispatcher.

Each operator is a plain function taking explicit parameters plus a
numpy Generator, so tests can drive them directly.  apply_corruption()
passes the severity table's record for (kind, severity) to the kind's
operator as keyword arguments and derives the random stream from (seed,
kind ordinal, severity, sample key), which makes every sample's
corruption independent of processing order.  No operator reports its
draws: those keys and the table's parameters replay any output exactly,
and they are what a provenance sidecar records (pipeline.sidecar_json).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import _rng
from .geometry import PointCloud, TriangleMesh, nearest_indices
from .deformation import (
    INVERSE_MULTIQUADRIC,
    LATTICE_RESOLUTION,
    MULTIQUADRIC,
    RbfKernel,
    apply_ffd,
    apply_rbf,
    deformation_lattice,
    random_unit_vectors,
    solve_rbf,
)
from .occlusion import lidar_cloud, occlusion_cloud, view_pose
from .severity import CorruptionKind, CorruptionSpec, SeverityTable

# ---------------------------------------------------------------------------
# noise family


def uniform_noise(cloud: PointCloud, scale: float, rng: np.random.Generator) -> PointCloud:
    """Add U(-scale, scale) independently to every coordinate."""
    jitter = rng.uniform(-scale, scale, size=cloud.points.shape)
    return PointCloud(cloud.points + jitter)


def gaussian_noise(cloud: PointCloud, sigma: float, rng: np.random.Generator) -> PointCloud:
    jitter = rng.normal(0.0, sigma, size=cloud.points.shape)
    return PointCloud(cloud.points + jitter)


def impulse_noise(
    cloud: PointCloud, count: int, magnitude: float, rng: np.random.Generator
) -> PointCloud:
    """Kick `count` distinct points by +-magnitude per coordinate; the rest
    are carried over bit-for-bit."""
    n = cloud.count
    if count > n:
        raise ValueError(f"cannot pick {count} distinct points out of {n}")
    points = cloud.points.copy()
    idx = rng.choice(n, size=count, replace=False)
    signs = rng.integers(0, 2, size=(count, 3)) * 2 - 1
    points[idx] += magnitude * signs
    return PointCloud(points)


def upsampling_noise(
    cloud: PointCloud, count: int, bound: float, rng: np.random.Generator
) -> PointCloud:
    """Append `count` near-duplicates of randomly chosen anchor points.

    Anchors are drawn with replacement; each copy is offset by
    U(-bound, bound) per coordinate.  Originals come first in the output.
    """
    anchors = rng.integers(0, cloud.count, size=count)
    offsets = rng.uniform(-bound, bound, size=(count, 3))
    extra = cloud.points[anchors] + offsets
    return PointCloud(np.concatenate([cloud.points, extra], axis=0))


def background_noise(cloud: PointCloud, count: int, rng: np.random.Generator) -> PointCloud:
    """Append `count` clutter points drawn uniformly from the [-1, 1]^3 cube."""
    extra = rng.uniform(-1.0, 1.0, size=(count, 3))
    return PointCloud(np.concatenate([cloud.points, extra], axis=0))


# ---------------------------------------------------------------------------
# density family (the view-based members live in occlusion.py)

CLUSTER_FRACTION = 0.75  # of a cluster's points that a density change adds or drops


def local_density_increase(
    cloud: PointCloud, n_clusters: int, cluster_size: int, rng: np.random.Generator
) -> PointCloud:
    """Densify n_clusters neighbourhoods by duplicating-with-jitter.

    For each cluster an anchor is drawn uniformly from the original points,
    floor(CLUSTER_FRACTION * cluster_size) of its cluster_size nearest
    originals are picked and re-added with N(0, 0.01^2) jitter.  Adds
    exactly n_clusters * floor(CLUSTER_FRACTION * cluster_size) points.
    """
    if cluster_size > cloud.count:
        raise ValueError("cluster_size exceeds the cloud size")
    added = []
    n_new = int(CLUSTER_FRACTION * cluster_size)
    for _ in range(n_clusters):
        anchor = int(rng.integers(0, cloud.count))
        hood = nearest_indices(cloud.points, cloud.points[anchor], cluster_size)
        picked = rng.choice(hood, size=n_new, replace=False)
        jitter = rng.normal(0.0, 0.01, size=(n_new, 3))
        added.append(cloud.points[picked] + jitter)
    return PointCloud(np.concatenate([cloud.points] + added, axis=0))


def local_density_decrease(
    cloud: PointCloud, n_clusters: int, cluster_size: int, rng: np.random.Generator
) -> PointCloud:
    """Thin out n_clusters neighbourhoods, one after another.

    Each round works on the surviving points only: an anchor is drawn,
    its cluster_size nearest survivors are found and floor(CLUSTER_FRACTION
    * cluster_size) of them are dropped.  Removes exactly n_clusters *
    floor(CLUSTER_FRACTION * cluster_size) points overall.
    """
    points = cloud.points
    n_drop = int(CLUSTER_FRACTION * cluster_size)
    for _ in range(n_clusters):
        if cluster_size > len(points):
            raise ValueError("not enough surviving points for another cluster")
        if len(points) - n_drop < 1:
            raise ValueError("density decrease would empty the cloud")
        anchor = int(rng.integers(0, len(points)))
        hood = nearest_indices(points, points[anchor], cluster_size)
        dropped = rng.choice(hood, size=n_drop, replace=False)
        keep = np.ones(len(points), dtype=bool)
        keep[dropped] = False
        points = points[keep]
    return PointCloud(points)


def cutout(
    cloud: PointCloud, n_clusters: int, k: int, rng: np.random.Generator
) -> PointCloud:
    """Remove n_clusters whole kNN patches, one after another.

    Each round draws an anchor among the survivors and deletes the
    anchor's k nearest survivors (the anchor itself included), so exactly
    n_clusters * k points disappear.
    """
    points = cloud.points
    for _ in range(n_clusters):
        if k >= len(points):
            raise ValueError("cutout would remove the whole cloud")
        anchor = int(rng.integers(0, len(points)))
        hood = nearest_indices(points, points[anchor], k)
        keep = np.ones(len(points), dtype=bool)
        keep[hood] = False
        points = points[keep]
    return PointCloud(points)


# ---------------------------------------------------------------------------
# transformation family


def rotation_matrix_xyz(angles_rad: np.ndarray) -> np.ndarray:
    """R = Rz @ Ry @ Rx for per-axis angles (ax, ay, az)."""
    ax, ay, az = angles_rad
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def random_rotation(
    cloud: PointCloud, max_angle_deg: float, rng: np.random.Generator
) -> PointCloud:
    """Rotate by independent U(-max, max) degree angles about x, then y, then z."""
    angles = np.radians(rng.uniform(-max_angle_deg, max_angle_deg, size=3))
    return PointCloud(cloud.points @ rotation_matrix_xyz(angles).T)


def random_shear(cloud: PointCloud, max_coeff: float, rng: np.random.Generator) -> PointCloud:
    """Shear x and y by the z coordinate: x += a*z, y += b*z, z untouched."""
    a, b = rng.uniform(-max_coeff, max_coeff, size=2)
    points = cloud.points.copy()
    points[:, 0] += a * points[:, 2]
    points[:, 1] += b * points[:, 2]
    return PointCloud(points)


def ffd_corrupt(cloud: PointCloud, distance: float, rng: np.random.Generator) -> PointCloud:
    """Free-form deformation: each point of the cloud's control lattice
    shifted by `distance` along its own random unit direction."""
    n = LATTICE_RESOLUTION**3
    disp = np.zeros((n, 3)) if distance == 0.0 else distance * random_unit_vectors(n, rng)
    return apply_ffd(cloud, disp)


def rbf_corrupt(
    cloud: PointCloud,
    distance: float,
    rng: np.random.Generator,
    variant: str = MULTIQUADRIC,
) -> PointCloud:
    """Radial-basis deformation anchored at the cloud's lattice rest positions,
    with the mean lattice spacing as kernel radius."""
    _, _, rest, spacing = deformation_lattice(cloud.points)
    centers = rest.reshape(-1, 3)
    displacements = distance * random_unit_vectors(len(centers), rng)
    kernel = RbfKernel(variant, float(np.mean(spacing)))
    return apply_rbf(cloud, solve_rbf(centers, displacements, kernel))


# ---------------------------------------------------------------------------
# dispatch


# kind -> op(data, rng=..., **record), an adapter where a record is not the
# operator's arguments.  The view adapters look their operator up by name on
# every call, so a module attribute replaced at run time (a tracer) sees it.
_OPS = {
    CorruptionKind.OCCLUSION: lambda mesh, rng, view_index: occlusion_cloud(
        mesh, view_pose(view_index, rng)
    ),
    CorruptionKind.LIDAR: lambda mesh, rng, view_index: lidar_cloud(
        mesh, view_pose(view_index, rng), rng
    ),
    CorruptionKind.LOCAL_DENSITY_INC: local_density_increase,
    CorruptionKind.LOCAL_DENSITY_DEC: local_density_decrease,
    CorruptionKind.CUTOUT: cutout,
    CorruptionKind.UNIFORM: uniform_noise,
    CorruptionKind.GAUSSIAN: gaussian_noise,
    CorruptionKind.IMPULSE: lambda c, rng, count_div, count_mul, magnitude: impulse_noise(
        c, (c.count // count_div) * count_mul, magnitude, rng
    ),
    CorruptionKind.UPSAMPLING: lambda c, rng, count_div, count_mul, bound: upsampling_noise(
        c, (c.count * count_mul) // count_div, bound, rng
    ),
    CorruptionKind.BACKGROUND: background_noise,
    CorruptionKind.ROTATION: random_rotation,
    CorruptionKind.SHEAR: random_shear,
    CorruptionKind.FFD: ffd_corrupt,
    CorruptionKind.RBF: partial(rbf_corrupt, variant=MULTIQUADRIC),
    CorruptionKind.INV_RBF: partial(rbf_corrupt, variant=INVERSE_MULTIQUADRIC),
}


def apply_corruption(
    data: PointCloud | TriangleMesh,
    spec: CorruptionSpec,
    table: SeverityTable | None = None,
    sample_key: int = 0,
) -> PointCloud:
    """Corrupt one sample according to spec, deterministically.

    View-based kinds (occlusion, lidar) need a TriangleMesh; every other
    kind needs a PointCloud.  `sample_key` decorrelates samples processed
    under the same seed -- pass a stable per-sample hash.  The output is a
    function of the input, the table's parameters for (kind, severity) and
    the stream keys alone, so those replay it exactly.
    """
    table = table if table is not None else SeverityTable.default()
    kind, severity = spec.kind, spec.severity
    params = table.params(kind, severity)
    rng = _rng.stream(spec.seed, kind.ordinal, severity, sample_key)
    expected = TriangleMesh if kind.needs_mesh else PointCloud
    if not isinstance(data, expected):
        raise TypeError(f"{kind.value} corruption needs a {expected.__name__} input")
    return _OPS[kind](data, rng=rng, **params)
