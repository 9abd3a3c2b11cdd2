"""Mesh parsing, surface sampling, normalization and nearest neighbours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccorrupt import (
    OffParseError,
    PointCloud,
    TriangleMesh,
    nearest_indices,
    normalize_mesh,
    normalize_unit_sphere,
    parse_off,
    sample_surface,
    write_off,
)

from synthdata import box_mesh, uv_sphere

CUBE_OFF = """OFF
8 6 0
-1 -1 -1
1 -1 -1
1 1 -1
-1 1 -1
-1 -1 1
1 -1 1
1 1 1
-1 1 1
4 0 3 2 1
4 4 5 6 7
4 0 1 5 4
4 2 3 7 6
4 1 2 6 5
4 3 0 4 7
"""


# -- OFF parsing -----------------------------------------------------------


def test_parse_off_quads_fan_triangulated():
    mesh = parse_off(CUBE_OFF)
    assert mesh.vertices.shape == (8, 3)
    # 6 quads -> 12 triangles
    assert mesh.faces.shape == (12, 3)
    assert mesh.faces.dtype == np.int64


def test_parse_off_fused_magic_line():
    fused = CUBE_OFF.replace("OFF\n8 6 0\n", "OFF8 6 0\n")
    mesh = parse_off(fused)
    assert mesh.vertices.shape == (8, 3)
    assert mesh.faces.shape == (12, 3)


def test_parse_off_comments_and_blank_lines():
    noisy = CUBE_OFF.replace("OFF\n", "# header comment\nOFF\n\n# counts next\n")
    mesh = parse_off(noisy)
    assert mesh.vertices.shape == (8, 3)


def test_parse_off_accepts_bytes():
    mesh = parse_off(CUBE_OFF.encode())
    assert mesh.vertices.shape == (8, 3)


def test_parse_off_drops_degenerate_faces():
    text = "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 0 1\n"
    mesh = parse_off(text)
    assert mesh.faces.shape == (1, 3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("PLY\n1 0 0\n0 0 0\n", "magic"),
        ("OFF\n1 0\n", "3 counts"),
        ("OFF\na b c\n", "non-integer"),
        ("OFF\n2 0 0\n0 0 0\n", "truncated"),
        ("OFF\n1 1 0\n0 0 0\n3 0 1 2\n", "out of range"),
        ("OFF\n1 1 0\n0 0 0\n2 0 0\n", "fewer than 3"),
        ("OFF\n1 1 0\n0 0 0\n3 0 0\n", "mismatch"),
        ("OFF\n1 0 0\n0 0 nan?\n", "bad coordinate"),
    ],
)
def test_parse_off_rejects_malformed(text, fragment):
    with pytest.raises(OffParseError) as err:
        parse_off(text)
    assert fragment in str(err.value)


def test_off_parse_error_carries_line_number():
    with pytest.raises(OffParseError) as err:
        parse_off("OFF\n1 0 0\nx y z\n")
    assert err.value.line == 3


def test_write_off_round_trip():
    mesh = uv_sphere()
    back = parse_off(write_off(mesh))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


# -- containers ------------------------------------------------------------


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))
    cloud = PointCloud(np.zeros((4, 3), dtype=np.float32))
    assert cloud.points.dtype == np.float64
    assert len(cloud) == cloud.count == 4


def test_mesh_validation():
    verts = np.zeros((3, 3))
    with pytest.raises(ValueError):
        TriangleMesh(verts, np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        TriangleMesh(verts, np.array([[0, 1, -1]]))


def test_point_cloud_holds_its_own_read_only_copy():
    base = np.zeros((6, 3))
    cloud = PointCloud(base)
    assert base.flags.writeable and not np.shares_memory(base, cloud.points)
    view = PointCloud(base[:4])
    base[0, 0] = 5.0
    assert cloud.points[0, 0] == view.points[0, 0] == 0.0
    assert not cloud.points.flags.writeable and cloud.points.flags.c_contiguous
    assert PointCloud(base[:, ::-1]).points.flags.c_contiguous


def test_mesh_holds_its_own_read_only_copies():
    box = box_mesh()
    verts, faces = box.vertices.copy(), box.faces.copy()
    mesh = TriangleMesh(verts, faces)
    for given, held in ((verts, mesh.vertices), (faces, mesh.faces)):
        assert given.flags.writeable and not np.shares_memory(given, held)
        assert not held.flags.writeable and held.flags.c_contiguous
    verts[0, 0], faces[0, 0] = 9.0, faces[0, 1]
    assert mesh.vertices[0, 0] == box.vertices[0, 0]
    assert np.array_equal(mesh.faces, box.faces)


# -- sampling --------------------------------------------------------------


def _point_triangle_distance(p, tri):
    # brute projection onto the triangle plane + clamping to edges
    a, b, c = tri
    n = np.cross(b - a, c - a)
    nn = np.linalg.norm(n)
    if nn == 0:
        return min(np.linalg.norm(p - a), np.linalg.norm(p - b))
    dist_plane = abs(np.dot(p - a, n / nn))
    # barycentric check of the projection
    proj = p - np.dot(p - a, n / nn) * (n / nn)
    v0, v1, v2 = b - a, c - a, proj - a
    d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
    d20, d21 = v2 @ v0, v2 @ v1
    den = d00 * d11 - d01 * d01
    v = (d11 * d20 - d01 * d21) / den
    w = (d00 * d21 - d01 * d20) / den
    if v >= -1e-12 and w >= -1e-12 and v + w <= 1 + 1e-12:
        return dist_plane
    edges = [(a, b), (b, c), (c, a)]
    best = np.inf
    for e0, e1 in edges:
        d = e1 - e0
        t = np.clip(np.dot(p - e0, d) / (d @ d), 0.0, 1.0)
        best = min(best, np.linalg.norm(p - (e0 + t * d)))
    return best


def test_sample_surface_points_lie_on_mesh():
    mesh = box_mesh()
    cloud, face_idx = sample_surface(mesh, 200, seed=3, return_face_indices=True)
    tris = mesh.triangles
    for p, fi in zip(cloud.points, face_idx):
        assert _point_triangle_distance(p, tris[fi]) < 1e-12


def test_sample_surface_deterministic():
    mesh = uv_sphere()
    a = sample_surface(mesh, 128, seed=11)
    b = sample_surface(mesh, 128, seed=11)
    c = sample_surface(mesh, 128, seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_sample_surface_area_weighting():
    # two triangles with 1:9 area ratio; counts should follow suit
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [10.0, 0.0, 0.0],
            [13.0, 0.0, 0.0],
            [10.0, 3.0, 0.0],
        ]
    )
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    _, face_idx = sample_surface(mesh, 4000, seed=5, return_face_indices=True)
    frac_small = float(np.mean(face_idx == 0))
    assert 0.06 < frac_small < 0.14


def test_sample_surface_rejects_flat_mesh():
    verts = np.zeros((3, 3))
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    from pccorrupt import DegenerateGeometryError

    with pytest.raises(DegenerateGeometryError):
        sample_surface(mesh, 10, seed=0)


# -- normalization ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=2**31))
def test_normalize_unit_sphere_properties(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=5.0, size=(n, 3)) + rng.uniform(-100, 100, size=3)
    if np.allclose(pts, pts[0]):
        return
    out = normalize_unit_sphere(PointCloud(pts))
    norms = np.linalg.norm(out.points, axis=1)
    assert abs(norms.max() - 1.0) < 1e-9
    assert np.all(np.abs(out.points.mean(axis=0)) < 1e-9)


def test_normalize_is_idempotent_up_to_fp():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(size=(64, 3)))
    once = normalize_unit_sphere(cloud)
    twice = normalize_unit_sphere(once)
    assert np.allclose(once.points, twice.points, atol=1e-12)


def test_normalize_mesh_matches_vertex_normalization():
    mesh = uv_sphere(radius=3.7)
    out = normalize_mesh(mesh)
    ref = normalize_unit_sphere(PointCloud(mesh.vertices))
    assert np.allclose(out.vertices, ref.points)
    assert np.array_equal(out.faces, mesh.faces)


# -- nearest neighbours ----------------------------------------------------


def _linear_scan(points, query, k):
    d2 = ((points - query) ** 2).sum(axis=1)
    return np.lexsort((np.arange(len(points)), d2))[:k]


def test_nearest_indices_matches_linear_scan():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(300, 3))
    for _ in range(20):
        q = rng.uniform(-1, 1, size=3)
        k = int(rng.integers(1, 40))
        assert np.array_equal(nearest_indices(pts, q, k), _linear_scan(pts, q, k))
