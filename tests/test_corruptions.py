"""The fifteen corruption operators and their dispatch table."""

import inspect
import math

import numpy as np
import pytest

from pccorrupt import (
    INVERSE_MULTIQUADRIC,
    MULTIQUADRIC,
    CorruptionKind,
    CorruptionSpec,
    PointCloud,
    SeverityTable,
    apply_corruption,
    background_noise,
    cutout,
    gaussian_noise,
    impulse_noise,
    local_density_decrease,
    local_density_increase,
    nearest_indices,
    random_rotation,
    random_shear,
    random_unit_vectors,
    rotation_matrix_xyz,
    uniform_noise,
    upsampling_noise,
)
from pccorrupt import _rng
from pccorrupt.corruptions import _OPS, ffd_corrupt, rbf_corrupt

from synthdata import random_cloud, uv_sphere

CLOUD_KIND_NAMES = [
    k.value for k in CorruptionKind if k.value not in ("occlusion", "lidar")
]


def _rng_for(seed=0):
    return np.random.default_rng(seed)


# -- noise family ----------------------------------------------------------


def test_uniform_noise_bounds_and_count():
    cloud = random_cloud(500, seed=1)
    out = uniform_noise(cloud, 0.03, _rng_for(2))
    assert out.count == 500
    delta = out.points - cloud.points
    assert np.abs(delta).max() <= 0.03
    assert np.abs(delta).max() > 0.0


def test_gaussian_noise_statistics():
    cloud = random_cloud(4000, seed=3)
    out = gaussian_noise(cloud, 0.02, _rng_for(4))
    delta = (out.points - cloud.points).ravel()
    assert abs(delta.std() - 0.02) < 0.002
    assert abs(delta.mean()) < 0.002


def test_impulse_noise_moves_exact_count():
    cloud = random_cloud(400, seed=5)
    out = impulse_noise(cloud, 37, 0.05, _rng_for(6))
    assert out.count == 400
    delta = out.points - cloud.points
    moved = np.any(delta != 0.0, axis=1)
    assert moved.sum() == 37
    # untouched points carry over bit-for-bit
    assert np.array_equal(out.points[~moved], cloud.points[~moved])
    # every moved coordinate jumped by exactly +-magnitude
    assert np.allclose(np.abs(delta[moved]), 0.05, atol=1e-15)


def test_impulse_noise_rejects_overdraw():
    with pytest.raises(ValueError):
        impulse_noise(random_cloud(10, seed=0), 11, 0.05, _rng_for(0))


def test_upsampling_noise_appends_near_duplicates():
    cloud = random_cloud(300, seed=7)
    out = upsampling_noise(cloud, 45, 0.05, _rng_for(8))
    assert out.count == 345
    assert np.array_equal(out.points[:300], cloud.points)
    # each new point sits within `bound` (per axis) of some original
    for p in out.points[300:]:
        gaps = np.abs(cloud.points - p).max(axis=1)
        assert gaps.min() <= 0.05 + 1e-12


def test_background_noise_clutter_in_unit_cube():
    cloud = PointCloud(np.full((50, 3), 0.1))
    out = background_noise(cloud, 60, _rng_for(9))
    assert out.count == 110
    assert np.array_equal(out.points[:50], cloud.points)
    extra = out.points[50:]
    assert extra.min() >= -1.0 and extra.max() <= 1.0
    # clutter should fill the cube, not hug the cloud
    assert extra.std() > 0.3


# -- density family --------------------------------------------------------


def test_local_density_increase_adds_jittered_neighbours():
    cloud = random_cloud(200, seed=10)
    out = local_density_increase(cloud, 3, 40, _rng_for(11))
    assert out.count == 200 + 3 * 30
    assert np.array_equal(out.points[:200], cloud.points)
    # every added point lies close to an original (0.01 sigma jitter)
    for p in out.points[200:]:
        d = np.linalg.norm(cloud.points - p, axis=1).min()
        assert d < 0.1


def test_local_density_decrease_removes_subset():
    cloud = random_cloud(300, seed=12)
    out = local_density_decrease(cloud, 2, 50, _rng_for(13))
    assert out.count == 300 - 2 * 37
    # survivors are a subsequence of the input
    rows = {tuple(p) for p in cloud.points}
    assert all(tuple(p) in rows for p in out.points)


def test_local_density_decrease_refuses_to_empty_cloud():
    with pytest.raises(ValueError):
        local_density_decrease(random_cloud(40, seed=0), 5, 40, _rng_for(0))


def test_cutout_removes_whole_patches():
    cloud = random_cloud(256, seed=14)
    out = cutout(cloud, 2, 30, _rng_for(15))
    assert out.count == 256 - 60
    rows = {tuple(p) for p in cloud.points}
    assert all(tuple(p) in rows for p in out.points)


def test_cutout_first_patch_is_a_knn_ball():
    # with one cluster, the removed set must be the kNN of *some* anchor
    cloud = random_cloud(128, seed=16)
    out = cutout(cloud, 1, 20, _rng_for(17))
    kept = {tuple(p) for p in out.points}
    removed = [i for i, p in enumerate(cloud.points) if tuple(p) not in kept]
    assert len(removed) == 20
    candidates = []
    for anchor in range(cloud.count):
        hood = nearest_indices(cloud.points, cloud.points[anchor], 20)
        if set(hood.tolist()) == set(removed):
            candidates.append(anchor)
    assert candidates, "removed set is not any anchor's 20-NN patch"


def test_cutout_refuses_overdraw():
    with pytest.raises(ValueError):
        cutout(random_cloud(30, seed=0), 1, 30, _rng_for(0))


# -- transformation family -------------------------------------------------


def test_rotation_matrix_composition_order():
    # R(ax,ay,az) must equal Rz @ Ry @ Rx
    angles = np.array([0.3, -0.2, 0.7])
    rx = rotation_matrix_xyz([angles[0], 0, 0])
    ry = rotation_matrix_xyz([0, angles[1], 0])
    rz = rotation_matrix_xyz([0, 0, angles[2]])
    assert np.allclose(rotation_matrix_xyz(angles), rz @ ry @ rx, atol=1e-15)


def test_rotation_preserves_pairwise_distances():
    cloud = random_cloud(80, seed=18)
    out = random_rotation(cloud, 15.0, _rng_for(19))
    d_in = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
    d_out = np.linalg.norm(out.points[:, None] - out.points[None, :], axis=2)
    assert np.abs(d_in - d_out).max() < 1e-9
    angles_deg = _rng_for(19).uniform(-15.0, 15.0, size=3)  # the op's own draw
    rot = rotation_matrix_xyz(np.radians(angles_deg))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.allclose(out.points, cloud.points @ rot.T)
    assert all(abs(a) <= 15.0 for a in angles_deg)


def test_shear_keeps_z_and_is_recoverable():
    cloud = random_cloud(100, seed=20)
    out = random_shear(cloud, 0.25, _rng_for(21))
    assert np.array_equal(out.points[:, 2], cloud.points[:, 2])
    a, b = _rng_for(21).uniform(-0.25, 0.25, size=2)  # the op's own draw
    assert abs(a) <= 0.25 and abs(b) <= 0.25
    assert np.allclose(out.points[:, 0], cloud.points[:, 0] + a * cloud.points[:, 2])
    assert np.allclose(out.points[:, 1], cloud.points[:, 1] + b * cloud.points[:, 2])


@pytest.mark.parametrize("kind", ["ffd", "rbf", "inv_rbf"])
def test_deformations_preserve_count_and_stay_bounded(kind):
    cloud = random_cloud(256, seed=22)
    spec = CorruptionSpec(CorruptionKind.from_name(kind), 5, seed=0)
    out = apply_corruption(cloud, spec, sample_key=1)
    assert out.count == 256
    moved = np.linalg.norm(out.points - cloud.points, axis=1)
    assert moved.max() > 1e-4  # severity 5 visibly deforms
    assert moved.max() < 3.0  # but stays in the same ballpark as the shape


def _reference_lattice(lo, hi):
    """5 evenly spaced control points per axis over [lo, hi], flattened."""
    axes = [np.linspace(lo[a], hi[a], 5) for a in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _reference_ffd(points, lo, hi, disp):
    """Bernstein FFD written out: sum over (i, j, k) of B_i B_j B_k d_ijk."""
    uvw = np.clip((points - lo) / (hi - lo), 0.0, 1.0)
    basis = np.stack([math.comb(4, i) * uvw**i * (1 - uvw) ** (4 - i) for i in range(5)])
    weights = np.einsum("in,jn,kn->nijk", basis[:, :, 0], basis[:, :, 1], basis[:, :, 2])
    return points + weights.reshape(len(points), -1) @ disp


def _reference_rbf(points, centers, disp, variant, r):
    def kernel(a, b):
        base = np.sqrt(((a[:, None] - b[None]) ** 2).sum(axis=2) + r * r)
        return base if variant == MULTIQUADRIC else 1.0 / base

    return points + kernel(points, centers) @ np.linalg.solve(kernel(centers, centers), disp)


def test_deformation_lattice_covers_a_cloud_beyond_the_unit_cube():
    # the lattice rule: the cloud's box joined with [-1, 1]^3, 5 points per
    # axis, kernel radius the mean spacing.  A raw or un-normalized cloud
    # reaches [-3, 3]^3, so a lattice on the unit cube alone would differ
    points = _rng_for(24).uniform(-3.0, 3.0, size=(300, 3))
    points[:2] = [[-3.0, -3.0, -3.0], [3.0, 3.0, 3.0]]
    cloud = PointCloud(points)
    wide, unit = (np.full(3, -3.0), np.full(3, 3.0)), (np.full(3, -1.0), np.full(3, 1.0))

    disp = 0.3 * random_unit_vectors(125, _rng_for(25))
    out = ffd_corrupt(cloud, 0.3, _rng_for(25)).points
    assert np.abs(out - _reference_ffd(points, *wide, disp)).max() < 1e-12
    assert np.abs(out - _reference_ffd(points, *unit, disp)).max() > 0.1

    for variant in (MULTIQUADRIC, INVERSE_MULTIQUADRIC):
        disp = 0.3 * random_unit_vectors(125, _rng_for(26))
        out = rbf_corrupt(cloud, 0.3, _rng_for(26), variant).points
        want = _reference_rbf(points, _reference_lattice(*wide), disp, variant, 1.5)
        assert np.abs(out - want).max() < 1e-9
        on_unit = _reference_rbf(points, _reference_lattice(*unit), disp, variant, 0.5)
        assert np.abs(out - on_unit).max() > 0.1


def test_rbf_corrupt_on_concurrent_threads_matches_serial_bytes():
    # gen runs cells on worker threads; each keeps its own RBF memo, since
    # threads sharing one (lu, piv) abort the process
    import sys
    import threading

    cloud = random_cloud(256, seed=23)
    jobs = [(d, v) for d in (0.02, 0.05, 0.08) for v in (MULTIQUADRIC, INVERSE_MULTIQUADRIC)]

    def run():
        return [rbf_corrupt(cloud, d, _rng_for(i), v).points.tobytes()
                for i, (d, v) in enumerate(jobs)]

    serial = run()
    results = [None] * 4  # more threads than a small host has cores
    start = threading.Barrier(len(results))

    def worker(slot):
        start.wait(timeout=30)
        results[slot] = [run() for _ in range(3)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[serial] * 3] * len(results)


# -- dispatcher ------------------------------------------------------------

EXPECTED_COUNT = {
    "occlusion": None,
    "lidar": None,
    "uniform": lambda n, s: n,
    "gaussian": lambda n, s: n,
    "impulse": lambda n, s: n,
    "upsampling": lambda n, s: n + (n * s) // 10,
    "background": lambda n, s: n + 20 * s,
    "local_density_inc": lambda n, s: n + 75 * s,
    "local_density_dec": lambda n, s: n - 75 * s,
    "cutout": lambda n, s: n - 50 * s,
    "rotation": lambda n, s: n,
    "shear": lambda n, s: n,
    "ffd": lambda n, s: n,
    "rbf": lambda n, s: n,
    "inv_rbf": lambda n, s: n,
}


@pytest.mark.parametrize("name", CLOUD_KIND_NAMES)
@pytest.mark.parametrize("severity", [1, 3, 5])
def test_dispatch_count_contract(name, severity):
    cloud = random_cloud(1024, seed=23)
    spec = CorruptionSpec(CorruptionKind.from_name(name), severity, seed=9)
    out = apply_corruption(cloud, spec, sample_key=5)
    assert out.count == EXPECTED_COUNT[name](1024, severity)


def test_dispatch_deterministic_and_sample_keyed():
    cloud = random_cloud(256, seed=24)
    spec = CorruptionSpec(CorruptionKind.GAUSSIAN, 2, seed=3)
    a = apply_corruption(cloud, spec, sample_key=10)
    b = apply_corruption(cloud, spec, sample_key=10)
    c = apply_corruption(cloud, spec, sample_key=11)
    d = apply_corruption(cloud, CorruptionSpec(CorruptionKind.GAUSSIAN, 2, seed=4),
                         sample_key=10)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert not np.array_equal(a.points, d.points)


@pytest.mark.parametrize("kind", list(CorruptionKind), ids=lambda k: k.value)
def test_every_default_record_is_its_operators_keyword_arguments(kind):
    data = uv_sphere() if kind.needs_mesh else random_cloud(1024, seed=28)
    table = SeverityTable.default()
    for severity in range(1, 6):
        record = table.params(kind, severity)
        inspect.signature(_OPS[kind]).bind(data, rng=None, **record)  # TypeError if not
        out = apply_corruption(data, CorruptionSpec(kind, severity, seed=2), table, 3)
        assert isinstance(out, PointCloud) and out.count >= 1


def test_dispatch_type_errors():
    cloud = random_cloud(64, seed=0)
    mesh = uv_sphere()
    with pytest.raises(TypeError):
        apply_corruption(cloud, CorruptionSpec(CorruptionKind.OCCLUSION, 1, seed=0))
    with pytest.raises(TypeError):
        apply_corruption(mesh, CorruptionSpec(CorruptionKind.UNIFORM, 1, seed=0))


def test_dispatch_respects_table_override():
    cloud = random_cloud(100, seed=25)
    table = SeverityTable({"background": [{"count": c} for c in (1, 2, 3, 4, 5)]})
    spec = CorruptionSpec(CorruptionKind.BACKGROUND, 3, seed=0)
    out = apply_corruption(cloud, spec, table=table)
    assert out.count == 103


def test_dispatch_rotation_matches_stream_recipe():
    cloud = random_cloud(64, seed=26)
    spec = CorruptionSpec(CorruptionKind.ROTATION, 2, seed=1)
    out = apply_corruption(cloud, spec, sample_key=2)
    params = SeverityTable.default().params(spec.kind, spec.severity)
    assert params["max_angle_deg"] == pytest.approx(6.0)
    rng = _rng.stream(1, CorruptionKind.ROTATION.ordinal, 2, 2)
    angles = np.radians(rng.uniform(-6.0, 6.0, size=3))
    assert np.allclose(out.points, cloud.points @ rotation_matrix_xyz(angles).T)


def test_dispatch_matches_documented_stream_recipe():
    # the dispatcher must derive its generator from (seed, ordinal, severity,
    # sample_key) -- pinning this keeps datasets reproducible across versions
    cloud = random_cloud(128, seed=27)
    spec = CorruptionSpec(CorruptionKind.UNIFORM, 4, seed=77)
    out = apply_corruption(cloud, spec, sample_key=123)
    rng = _rng.stream(77, CorruptionKind.UNIFORM.ordinal, 4, 123)
    scale = SeverityTable.default().params(CorruptionKind.UNIFORM, 4)["scale"]
    expected = cloud.points + rng.uniform(-scale, scale, size=cloud.points.shape)
    assert np.array_equal(out.points, expected)


# -- golden output ---------------------------------------------------------


def test_golden_default_table_and_every_cell():
    """Pin the default table digest, the PLY bytes of all 75 (kind, severity)
    outputs and, in a separate hash, their provenance, so refactors cannot
    drift silently and a provenance change cannot hide a point change.

    The provenance half hashes each cell's sidecar text under a fixed sample
    id; the PLY half keeps the sample key 11 it was pinned with."""
    import hashlib

    from pccorrupt import MESH_KINDS, normalize_unit_sphere, sample_surface, write_ply
    from pccorrupt.pipeline import sidecar_json

    table = SeverityTable.default()
    digest = table.digest()
    assert digest == "sha256:89fa7d88dbc060068be663efa88edc2548e37aed99e142fc4ef4e6b033cdb6cc"
    mesh = uv_sphere()
    cloud = normalize_unit_sphere(sample_surface(mesh, 512, 5))
    ply, provenance = hashlib.sha256(), hashlib.sha256()
    for kind in CorruptionKind:
        for s in range(1, 6):
            spec = CorruptionSpec(kind, s, seed=7)
            out = apply_corruption(mesh if kind in MESH_KINDS else cloud, spec, sample_key=11)
            ply.update(write_ply(out))
            provenance.update(sidecar_json("uv_sphere", spec, table, digest).encode())
    assert ply.hexdigest() == "44ac5df0b360a3c0df784439c8bd2b34cacfd25fdeca00e282d18ac9e0fb6e44"
    assert provenance.hexdigest() == (
        "d30a2934654e2ed3ff3ae70395769891f86369240ba23bb593577bbc1dea613a"
    )
