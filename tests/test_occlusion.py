"""View simulation: poses, BVH raycasting, occlusion and LiDAR clouds."""

import math

import numpy as np
import pytest

from pccorrupt import (
    Bvh,
    CANONICAL_AZIMUTHS,
    DegenerateViewError,
    TriangleMesh,
    ViewPose,
    lidar_cloud,
    lidar_scan,
    occlusion_cloud,
    raycast_visible,
    sensor_frame_elevation,
    view_pose,
)
from pccorrupt.occlusion import RAY_T_MIN

from synthdata import box_mesh, prism_mesh, pyramid_mesh, uv_sphere


def brute_nearest_hits(mesh, origin, directions):
    """Reference Moller-Trumbore over every (ray, triangle) pair."""
    tris = mesh.triangles
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    n_rays = len(directions)
    best_t = np.full(n_rays, np.inf)
    best_tri = np.full(n_rays, -1, dtype=np.int64)
    for r in range(n_rays):
        d = directions[r]
        p = np.cross(np.broadcast_to(d, e2.shape), e2)
        det = (e1 * p).sum(axis=1)
        ok = np.abs(det) > 1e-12
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        s = origin - tris[:, 0]
        u = (s * p).sum(axis=1) * inv
        q = np.cross(s, e1)
        v = (q @ d) * inv
        t = (e2 * q).sum(axis=1) * inv
        valid = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > RAY_T_MIN)
        if valid.any():
            idx = np.flatnonzero(valid)
            # nearest t; ties at equal t resolve to the lowest triangle index
            order = np.lexsort((idx, t[idx]))
            best_tri[r] = idx[order[0]]
            best_t[r] = t[idx[order[0]]]
    return best_t, best_tri


# -- poses -----------------------------------------------------------------


def test_view_pose_canonical_azimuths():
    assert CANONICAL_AZIMUTHS == (0.0, 72.0, 144.0, 216.0, 288.0)
    rng = np.random.default_rng(0)
    for s in range(1, 6):
        pose = view_pose(s, rng)
        assert pose.azimuth_deg == 72.0 * (s - 1)
        assert 30.0 <= pose.elevation_deg <= 60.0
        assert pose.distance == 2.5
    with pytest.raises(ValueError):
        view_pose(0, rng)


def test_view_pose_validation():
    with pytest.raises(ValueError):
        ViewPose(10.0, 45.0)
    with pytest.raises(ValueError):
        ViewPose(0.0, 20.0)
    with pytest.raises(ValueError):
        ViewPose(0.0, 45.0, distance=0.0)


def test_pose_basis_orthonormal_and_aimed_at_origin():
    pose = ViewPose(144.0, 42.0)
    forward, right, up = pose.basis()
    for v in (forward, right, up):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert abs(forward @ right) < 1e-12
    assert abs(forward @ up) < 1e-12
    assert abs(right @ up) < 1e-12
    # looking at the origin from `position`
    assert np.allclose(pose.position + np.linalg.norm(pose.position) * forward, 0.0,
                       atol=1e-12)
    assert right[2] == pytest.approx(0.0, abs=1e-12)  # right stays horizontal


# -- BVH vs brute force ----------------------------------------------------


@pytest.mark.parametrize("builder", [box_mesh, uv_sphere, pyramid_mesh, prism_mesh])
def test_bvh_matches_brute_force(builder):
    mesh = builder()
    bvh = Bvh(mesh)
    rng = np.random.default_rng(31)
    origin = np.array([2.0, 1.5, 1.8])
    targets = rng.uniform(-1, 1, size=(400, 3))
    dirs = targets - origin
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    t, tri = bvh.nearest_hits(origin, dirs)
    bt, btri = brute_nearest_hits(mesh, origin, dirs)
    assert np.array_equal(tri, btri)
    hit = tri >= 0
    assert hit.sum() > 100  # the bundle must actually intersect the shape
    assert np.allclose(t[hit], bt[hit], rtol=0, atol=1e-12)
    assert np.all(np.isinf(t[~hit]))


def test_bvh_misses_report_no_hit():
    bvh = Bvh(box_mesh())
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    t, tri = bvh.nearest_hits(np.array([5.0, 5.0, 5.0]), dirs)
    assert np.all(tri == -1)


def test_bvh_per_ray_origins():
    mesh = uv_sphere()
    bvh = Bvh(mesh)
    origins = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    dirs = -origins / np.linalg.norm(origins, axis=1, keepdims=True)
    t, tri = bvh.nearest_hits(origins, dirs)
    assert np.all(tri >= 0)
    # a (faceted) unit sphere seen from 3 units away: first hit near t = 2
    assert np.allclose(t, 2.0, atol=0.12)


# -- visible-surface clouds ------------------------------------------------


def test_raycast_visible_points_are_nearest_hits():
    mesh = pyramid_mesh()
    pose = ViewPose(72.0, 35.0)
    cloud = raycast_visible(mesh, pose, 900)
    origin = pose.position
    dirs = cloud.points - origin
    ts = np.linalg.norm(dirs, axis=1)
    dirs /= ts[:, None]
    bt, btri = brute_nearest_hits(mesh, origin, dirs)
    assert np.all(btri >= 0)
    # each emitted point must BE the first surface the ray meets
    assert np.abs(bt - ts).max() < 1e-9


def test_occlusion_cloud_hits_target_range():
    mesh = uv_sphere()
    pose = ViewPose(0.0, 45.0)
    cloud = occlusion_cloud(mesh, pose)
    assert 768 <= cloud.count <= 1280


def test_occlusion_cloud_sees_only_near_side():
    mesh = uv_sphere()
    pose = ViewPose(0.0, 30.0)
    cloud = occlusion_cloud(mesh, pose)
    # all visible points lie on the camera-facing hemisphere (positive
    # component toward the camera, allowing a silhouette margin)
    toward = pose.position / np.linalg.norm(pose.position)
    assert (cloud.points @ toward).min() > -0.35


def test_raycast_degenerate_view_errors():
    tiny = TriangleMesh(
        np.array([[0.0, 0.0, 99.0], [0.01, 0.0, 99.0], [0.0, 0.01, 99.0]]),
        np.array([[0, 1, 2]]),
    )
    with pytest.raises(DegenerateViewError):
        raycast_visible(tiny, ViewPose(0.0, 45.0), 64)


# -- LiDAR -----------------------------------------------------------------


def test_lidar_beams_have_constant_sensor_elevation():
    mesh = uv_sphere()
    pose = ViewPose(216.0, 50.0)
    cloud, beam_ids = lidar_scan(mesh, pose, return_beams=True)
    elev = sensor_frame_elevation(cloud.points, pose)
    for b in np.unique(beam_ids):
        spread = np.ptp(elev[beam_ids == b])
        assert spread < 1e-9


def test_lidar_beams_are_coplanar():
    mesh = box_mesh()
    pose = ViewPose(288.0, 40.0)
    cloud, beam_ids = lidar_scan(mesh, pose, return_beams=True)
    for b in np.unique(beam_ids):
        pts = cloud.points[beam_ids == b]
        if len(pts) < 4:
            continue
        centered = pts - pts.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        assert s[-1] < 1e-9  # thickness of the best-fit plane


def test_lidar_cloud_downsample_cap():
    mesh = uv_sphere()
    pose = ViewPose(0.0, 45.0)
    rng = np.random.default_rng(5)
    full = lidar_scan(mesh, pose)
    capped = lidar_cloud(mesh, pose, rng, max_points=1024)
    assert capped.count == min(1024, full.count)
    rows = {tuple(p) for p in full.points}
    assert all(tuple(p) in rows for p in capped.points)


def test_lidar_scan_row_structure():
    mesh = uv_sphere()
    pose = ViewPose(0.0, 45.0)
    cloud, beam_ids = lidar_scan(mesh, pose, n_beams=8, azimuth_steps=64,
                                 return_beams=True)
    assert beam_ids.max() < 8
    assert cloud.count == len(beam_ids)
    # the sphere fills the middle of the field of view; central beams hit
    mid = (beam_ids == 4).sum()
    assert mid > 10
