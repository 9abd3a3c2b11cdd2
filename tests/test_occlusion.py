"""View simulation: poses, ray casting, occlusion and LiDAR clouds."""

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
    occlusion,
    occlusion_cloud,
    raycast_visible,
    view_pose,
)
from pccorrupt.occlusion import (
    CAMERA_DISTANCE,
    FIELD_OF_VIEW_DEG,
    LIDAR_AZIMUTH_STEPS,
    LIDAR_BEAMS,
    OCCLUSION_HITS,
    RAY_T_MIN,
    _PROBE_GRID,
    _lidar_directions,
    _pinhole_directions,
)
from pccorrupt.severity import SEVERITIES

from synthdata import box_mesh, prism_mesh, pyramid_mesh, uv_sphere


def brute_nearest_hits(mesh, origin, directions):
    """Reference Moller-Trumbore over every (ray, triangle) pair.

    Same float operations per pair as the caster (cross products and
    3-term sums in the same order), so hit distances compare bit for bit.
    """
    tris = mesh.triangles
    e1 = (tris[:, 1] - tris[:, 0]).T[:, None, :]  # (3, 1, faces)
    e2 = (tris[:, 2] - tris[:, 0]).T[:, None, :]
    s = (origin - tris[:, 0]).T[:, None, :]
    q = (s[1] * e1[2] - s[2] * e1[1], s[2] * e1[0] - s[0] * e1[2],
         s[0] * e1[1] - s[1] * e1[0])
    tnum = e2[0] * q[0] + e2[1] * q[1] + e2[2] * q[2]
    n_rays = len(directions)
    best_t = np.full(n_rays, np.inf)
    best_tri = np.full(n_rays, -1, dtype=np.int64)
    step = max(1, 50_000 // len(tris))
    for r0 in range(0, n_rays, step):
        d = directions[r0:r0 + step].T[:, :, None]  # (3, rays, 1)
        p = (d[1] * e2[2] - d[2] * e2[1], d[2] * e2[0] - d[0] * e2[2],
             d[0] * e2[1] - d[1] * e2[0])
        det = e1[0] * p[0] + e1[1] * p[1] + e1[2] * p[2]
        ok = np.abs(det) > 1e-12
        with np.errstate(divide="ignore", over="ignore"):
            inv = np.where(ok, 1.0 / det, 0.0)
        u = (s[0] * p[0] + s[1] * p[1] + s[2] * p[2]) * inv
        v = (d[0] * q[0] + d[1] * q[1] + d[2] * q[2]) * inv
        t = tnum * inv
        t[~(ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > RAY_T_MIN))] = np.inf
        # nearest t; argmin resolves ties at equal t to the lowest triangle index
        col = np.argmin(t, axis=1)
        t_col = t[np.arange(len(col)), col]
        hit = t_col < np.inf
        best_t[r0:r0 + step][hit] = t_col[hit]
        best_tri[r0:r0 + step][hit] = col[hit]
    return best_t, best_tri


# -- poses -----------------------------------------------------------------


def test_view_pose_canonical_azimuths():
    assert CANONICAL_AZIMUTHS == (0.0, 72.0, 144.0, 216.0, 288.0)
    assert CAMERA_DISTANCE == 2.5
    rng = np.random.default_rng(0)
    for s in range(1, 6):
        pose = view_pose(s, rng)
        assert pose.azimuth_deg == 72.0 * (s - 1)
        assert 30.0 <= pose.elevation_deg <= 60.0
        assert np.linalg.norm(pose.position) == pytest.approx(CAMERA_DISTANCE)
    with pytest.raises(ValueError):
        view_pose(0, rng)


def test_view_pose_validation():
    with pytest.raises(ValueError):
        ViewPose(10.0, 45.0)
    with pytest.raises(ValueError):
        ViewPose(0.0, 20.0)


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


# -- caster vs brute force -------------------------------------------------


def assert_same_as_brute(mesh, origin, dirs, audit=slice(None)):
    """Cast the whole bundle; rays[audit] must equal brute force exactly."""
    t, tri = Bvh(mesh).nearest_hits(origin, dirs)
    bt, btri = brute_nearest_hits(mesh, origin, dirs[audit])
    assert np.array_equal(t[audit], bt)
    assert np.array_equal(tri[audit], btri)
    return t, tri


@pytest.mark.parametrize("builder", [box_mesh, uv_sphere, pyramid_mesh, prism_mesh])
def test_bvh_matches_brute_force(builder):
    mesh = builder()
    rng = np.random.default_rng(31)
    origin = np.array([2.0, 1.5, 1.8])
    targets = rng.uniform(-1, 1, size=(400, 3))
    dirs = targets - origin
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    t, tri = assert_same_as_brute(mesh, origin, dirs)
    hit = tri >= 0
    assert hit.sum() > 100  # the bundle must actually intersect the shape
    assert np.all(np.isinf(t[~hit]))


VIEW_MESHES = {
    "sphere_6240": lambda: uv_sphere(n_lat=40, n_lon=80),
    "prism_150": lambda: prism_mesh(n_side=150),  # thin fan triangles on the caps
}
# (directions of one cast, ray rows, rows audited per azimuth on the big sphere)
VIEW_PATTERNS = {
    "pinhole_48": (lambda pose: _pinhole_directions(pose, 48), 48, 1),
    "pinhole_96": (lambda pose: _pinhole_directions(pose, 96), 96, 4),
    "lidar_32x512": (_lidar_directions, LIDAR_BEAMS, 8),
}


@pytest.mark.parametrize("pattern", sorted(VIEW_PATTERNS))
@pytest.mark.parametrize("mesh_name", sorted(VIEW_MESHES))
def test_bvh_matches_brute_force_on_view_patterns(mesh_name, pattern):
    mesh = VIEW_MESHES[mesh_name]()
    make_dirs, n_rows, stride = VIEW_PATTERNS[pattern]
    if len(mesh.faces) < 1000:
        stride = 1
    for i, azimuth in enumerate(CANONICAL_AZIMUTHS):
        pose = ViewPose(azimuth, 33.0 + 6.0 * i)
        dirs = make_dirs(pose)
        # on the big sphere brute force audits every stride-th row of rays,
        # a different residue per azimuth; every ray is still cast
        rows = np.arange(len(dirs)) // (len(dirs) // n_rows)
        audit = rows % stride == i % stride
        t, tri = assert_same_as_brute(mesh, pose.position, dirs, audit)
        assert (tri[audit] >= 0).any() and (tri[audit] < 0).any()


def test_bvh_origin_inside_mesh():
    # every triangle of the box straddles the image plane of some bundle
    mesh = box_mesh()
    rng = np.random.default_rng(7)
    origin = np.array([0.1, -0.2, 0.3])
    everywhere = rng.normal(size=(1500, 3))
    cone = np.array([1.0, 0.3, -0.2]) + 0.8 * rng.uniform(-1, 1, size=(1500, 3))
    for dirs in (everywhere, cone):
        t, tri = assert_same_as_brute(mesh, origin, dirs)
        assert np.all(tri >= 0)  # no ray escapes a closed box


def test_bvh_rays_pointing_away_all_miss():
    mesh = uv_sphere(n_lat=20, n_lon=40)
    rng = np.random.default_rng(8)
    origin = np.array([3.0, 0.5, -0.5])
    dirs = np.array([1.0, 0.0, 0.0]) + 0.6 * rng.uniform(-1, 1, size=(2000, 3))
    t, tri = assert_same_as_brute(mesh, origin, dirs)
    assert np.all(tri == -1) and np.all(np.isinf(t))


def test_bvh_exact_ties_resolve_to_lowest_triangle_index():
    # unit squares in z = 0 split along a diagonal, faces in shuffled order,
    # two faces repeated; with dyadic coordinates and |det| = 4 every
    # Moller-Trumbore step is exact, so rays through a shared vertex or edge
    # hit all triangles around it at exactly t = 1
    n = 4
    verts = np.array([(x, y, 0.0) for y in range(n + 1) for x in range(n + 1)])
    faces = []
    for y in range(n):
        for x in range(n):
            a, b = y * (n + 1) + x, y * (n + 1) + x + 1
            c, d = a + n + 1, b + n + 1
            faces += [(a, b, d), (a, d, c)] if (x + y) % 2 else [(a, b, c), (b, d, c)]
    faces = np.array(faces)[np.random.default_rng(9).permutation(2 * n * n)]
    faces = np.concatenate([faces, faces[[5, 11]]])
    mesh = TriangleMesh(verts, faces)
    origin = np.array([1.25, 2.5, 4.0])
    edges = {tuple(sorted(e)) for f in faces for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))}
    targets = np.concatenate([verts, [(verts[a] + verts[b]) / 2 for a, b in sorted(edges)]])
    t, tri = assert_same_as_brute(mesh, origin, targets - origin)
    assert np.all(t == 1.0)
    for target, got in zip(targets, tri):
        touching = [i for i, f in enumerate(faces) if _in_triangle(target, verts[f])]
        assert got == min(touching)


def _in_triangle(p, corners):
    """Is p inside or on the xy-projection of the triangle?"""
    sides = [(q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0])
             for o, q in zip(corners, np.roll(corners, -1, axis=0))]
    return min(sides) >= 0 or max(sides) <= 0


def test_bvh_misses_report_no_hit():
    bvh = Bvh(box_mesh())
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    t, tri = bvh.nearest_hits(np.array([5.0, 5.0, 5.0]), dirs)
    assert np.all(tri == -1)


def test_bvh_rejects_per_ray_origins():
    bvh = Bvh(uv_sphere())
    origins = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    with pytest.raises(ValueError, match="origin"):
        bvh.nearest_hits(origins, -origins)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bvh_rejects_non_finite_origin(bad):
    # a NaN origin would report every ray as a miss
    bvh = Bvh(uv_sphere())
    with pytest.raises(ValueError, match="origin contain non-finite coordinates"):
        bvh.nearest_hits(np.array([3.0, bad, 0.0]), np.array([[-1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bvh_rejects_non_finite_directions(bad):
    # one NaN direction would poison the bundle axis and make the cast exhaustive
    bvh = Bvh(uv_sphere())
    pose = ViewPose(0.0, 45.0)
    dirs = _pinhole_directions(pose, 8)
    dirs[17, 1] = bad
    with pytest.raises(ValueError, match="directions contain non-finite coordinates"):
        bvh.nearest_hits(pose.position, dirs)


@pytest.mark.parametrize("case", ["sphere_6240_pinhole_48", "doubled_faces", "no_rays"])
def test_bvh_results_do_not_depend_on_chunk_size(monkeypatch, case):
    pose = ViewPose(72.0, 39.0)
    dirs = _pinhole_directions(pose, 48)
    mesh = uv_sphere()
    if case == "sphere_6240_pinhole_48":
        mesh = VIEW_MESHES["sphere_6240"]()
    elif case == "doubled_faces":
        # face i and face 2F - 1 - i are the same triangle, so every hit ties
        # at exactly equal t, with the two pairs far apart in chunk order
        mesh = TriangleMesh(mesh.vertices, np.concatenate([mesh.faces, mesh.faces[::-1]]))
    else:
        dirs = np.empty((0, 3))
    default = occlusion._CHUNK
    results = []
    for chunk in (1, 97, default):
        monkeypatch.setattr(occlusion, "_CHUNK", chunk)
        results.append(Bvh(mesh).nearest_hits(pose.position, dirs))
    t, tri = results[-1]
    assert t.dtype == np.float64 and tri.dtype == np.int64
    assert t.shape == tri.shape == (len(dirs),)
    for chunk_t, chunk_tri in results:
        assert np.array_equal(chunk_t, t) and np.array_equal(chunk_tri, tri)
    if case == "doubled_faces":
        # the lowest index wins: the same hits as on the undoubled mesh
        single_t, single_tri = Bvh(uv_sphere()).nearest_hits(pose.position, dirs)
        assert (single_tri >= 0).any()
        assert np.array_equal(t, single_t) and np.array_equal(tri, single_tri)


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


def _count_casts(monkeypatch):
    """Ray counts of every cast occlusion_cloud makes from here on."""
    casts = []
    cast = occlusion.raycast_visible

    def counted(mesh, pose, n_rays, bvh=None):
        casts.append(n_rays)
        return cast(mesh, pose, n_rays, bvh=bvh)

    monkeypatch.setattr(occlusion, "raycast_visible", counted)
    return casts


@pytest.mark.parametrize("mesh", [uv_sphere(), prism_mesh(150)], ids=["sphere", "prism_150"])
def test_occlusion_cloud_lands_in_range_by_its_second_cast(monkeypatch, mesh):
    casts = _count_casts(monkeypatch)
    for severity in SEVERITIES:
        casts.clear()
        cloud = occlusion_cloud(mesh, view_pose(severity, np.random.default_rng(severity)))
        assert OCCLUSION_HITS[0] <= cloud.count <= OCCLUSION_HITS[1]
        assert casts[0] == _PROBE_GRID**2 and len(casts) <= 2


def test_occlusion_cloud_finds_a_silhouette_the_probe_misses(monkeypatch):
    small = uv_sphere(radius=0.01)
    pose = ViewPose(0.0, 45.0)
    with pytest.raises(DegenerateViewError):
        raycast_visible(small, pose, _PROBE_GRID**2)
    casts = _count_casts(monkeypatch)
    cloud = occlusion_cloud(small, pose)
    assert cloud.count > 0 and len(casts) <= 6
    assert np.linalg.norm(cloud.points, axis=1).max() < 0.01 + 1e-9


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
    with pytest.raises(DegenerateViewError):
        occlusion_cloud(tiny, ViewPose(0.0, 45.0))


# -- LiDAR -----------------------------------------------------------------


def _beams(cloud, pose):
    """Each hit's beam: the nearest of the LIDAR_BEAMS sensor-frame vertical
    angles to the hit's own, and how far the hit's angle is from it."""
    forward, _right, up = pose.basis()
    delta = cloud.points - pose.position
    elev = np.arctan2(delta @ up, delta @ forward)
    half = math.radians(FIELD_OF_VIEW_DEG) / 2.0
    angles = np.linspace(-half, half, LIDAR_BEAMS)
    beam = np.abs(elev[:, None] - angles[None, :]).argmin(axis=1)
    return beam, np.abs(elev - angles[beam])


def test_lidar_beams_have_constant_sensor_elevation():
    mesh = uv_sphere()
    pose = ViewPose(216.0, 50.0)
    beam, off = _beams(lidar_scan(mesh, pose), pose)
    # every hit lies on one beam's vertical angle, not between two
    assert off.max() < 1e-9
    assert len(np.unique(beam)) > 1


def test_lidar_beams_are_coplanar():
    mesh = box_mesh()
    pose = ViewPose(288.0, 40.0)
    cloud = lidar_scan(mesh, pose)
    beam, off = _beams(cloud, pose)
    assert off.max() < 1e-9
    for b in np.unique(beam):
        pts = cloud.points[beam == b]
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
    capped = lidar_cloud(mesh, pose, rng)
    assert capped.count == min(1024, full.count)
    rows = {tuple(p) for p in full.points}
    assert all(tuple(p) in rows for p in capped.points)
    # the kept hits stay on the beams' vertical angles
    assert _beams(capped, pose)[1].max() < 1e-9


def test_lidar_scan_row_structure():
    mesh = uv_sphere()
    pose = ViewPose(0.0, 45.0)
    cloud = lidar_scan(mesh, pose)
    beam, off = _beams(cloud, pose)
    assert off.max() < 1e-9
    # at most one hit per ray: a beam holds at most LIDAR_AZIMUTH_STEPS hits
    assert np.bincount(beam, minlength=LIDAR_BEAMS).max() <= LIDAR_AZIMUTH_STEPS
    # the sphere fills the middle of the field of view; central beams hit
    assert (beam == LIDAR_BEAMS // 2).sum() > 10
