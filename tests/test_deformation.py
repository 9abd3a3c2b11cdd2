"""Free-form (Bernstein lattice) and radial-basis deformations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from pccorrupt import (
    CONDITION_LIMIT,
    INVERSE_MULTIQUADRIC,
    IllConditionedError,
    LATTICE_RESOLUTION,
    MULTIQUADRIC,
    PointCloud,
    RbfKernel,
    apply_ffd,
    apply_rbf,
    bernstein_basis,
    deformation_lattice,
    random_unit_vectors,
    solve_rbf,
)
from pccorrupt.corruptions import ffd_corrupt


def _cloud(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-1, 1, size=(n, 3)))


# -- Bernstein basis -------------------------------------------------------


def test_bernstein_matches_direct_formula():
    t = np.linspace(0, 1, 11)
    basis = bernstein_basis(4, t)
    assert basis.shape == (11, 5)
    for i in range(5):
        expected = math.comb(4, i) * t**i * (1 - t) ** (4 - i)
        assert np.allclose(basis[:, i], expected, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(0.0, 1.0))
def test_bernstein_partition_of_unity(degree, t):
    basis = bernstein_basis(degree, np.array([t]))
    assert basis.min() >= 0.0
    assert abs(basis.sum() - 1.0) < 1e-12


def test_bernstein_endpoint_interpolation():
    basis = bernstein_basis(4, np.array([0.0, 1.0]))
    assert basis[0, 0] == 1.0 and basis[0, 1:].max() == 0.0
    assert basis[1, 4] == 1.0 and basis[1, :4].max() == 0.0


# -- FFD -------------------------------------------------------------------


def test_ffd_lattice_shapes():
    lo, hi, rest, spacing = deformation_lattice(_cloud().points)
    assert LATTICE_RESOLUTION == 5
    # a cloud inside [-1, 1]^3 gets the unit cube's lattice
    assert np.array_equal(lo, [-1.0, -1.0, -1.0]) and np.array_equal(hi, [1.0, 1.0, 1.0])
    assert rest.shape == (5, 5, 5, 3)
    assert np.allclose(spacing, 0.5)
    assert np.array_equal(rest[0, 0, 0], [-1.0, -1.0, -1.0])
    assert np.array_equal(rest[4, 4, 4], [1.0, 1.0, 1.0])


def test_ffd_zero_displacement_is_identity():
    cloud = _cloud()
    out = apply_ffd(cloud, np.zeros((5, 5, 5, 3)))
    assert np.array_equal(out.points, cloud.points)


def test_ffd_uniform_translation():
    # every control point moved by the same vector -> pure translation
    cloud = _cloud(100, seed=3)
    shift = np.array([0.25, -0.5, 0.125])
    out = apply_ffd(cloud, np.tile(shift, (5, 5, 5, 1)))
    assert np.allclose(out.points, cloud.points + shift, atol=1e-12)


def test_ffd_reproduces_affine_maps():
    # displacing control points by (A - I) x turns the FFD into x -> A x
    rng = np.random.default_rng(7)
    a = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    cloud = _cloud(300, seed=8)
    rest = deformation_lattice(cloud.points)[2]
    out = apply_ffd(cloud, rest @ a.T - rest)
    assert np.abs(out.points - cloud.points @ a.T).max() < 1e-9


def test_ffd_displacement_bounded_by_control_norms():
    # blended displacement is a convex combination of control displacements
    cloud = _cloud(500, seed=1)
    disp = 0.3 * random_unit_vectors(125, np.random.default_rng(2))
    out = apply_ffd(cloud, disp)
    moved = np.linalg.norm(out.points - cloud.points, axis=1)
    assert moved.max() <= 0.3 + 1e-9


def test_ffd_corrupt_moves_lattice_corners_by_exact_distance():
    # Bernstein blends interpolate at the lattice corners, so a corner point
    # moves by exactly its own control displacement: `distance` times the
    # op's unit draw for that control point
    corners = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
    cloud = PointCloud(np.vstack([corners, _cloud(50, seed=4).points]))
    out = ffd_corrupt(cloud, 0.2, np.random.default_rng(5))
    draw = random_unit_vectors(125, np.random.default_rng(5)).reshape(5, 5, 5, 3)
    want = 0.2 * draw[[0, 0, 0, 0, 4, 4, 4, 4], [0, 0, 4, 4, 0, 0, 4, 4], [0, 4, 0, 4, 0, 4, 0, 4]]
    moved = out.points[:8] - corners
    assert np.allclose(moved, want, atol=1e-12)
    assert np.allclose(np.linalg.norm(moved, axis=1), 0.2, atol=1e-12)
    # distance 0 leaves the cloud as it is and draws nothing
    rng = np.random.default_rng(5)
    assert np.array_equal(ffd_corrupt(cloud, 0.0, rng).points, cloud.points)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_random_unit_vectors():
    rng = np.random.default_rng(9)
    v = random_unit_vectors(1000, rng)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    # isotropy: mean direction should be near the origin
    assert np.linalg.norm(v.mean(axis=0)) < 0.1


# -- RBF -------------------------------------------------------------------


def _gauss_solve(a, b):
    """Naive Gaussian elimination with partial pivoting (oracle solver)."""
    a = a.astype(np.float64).copy()
    b = b.astype(np.float64).copy()
    n = len(a)
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if p != col:
            a[[col, p]] = a[[p, col]]
            b[[col, p]] = b[[p, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def test_kernel_values():
    k = RbfKernel(MULTIQUADRIC, 0.5)
    assert k(np.array([0.0]))[0] == pytest.approx(0.5)
    assert k(np.array([1.2]))[0] == pytest.approx(math.sqrt(1.2**2 + 0.25))
    ki = RbfKernel(INVERSE_MULTIQUADRIC, 0.5)
    assert ki(np.array([0.0]))[0] == pytest.approx(2.0)
    assert ki(np.array([1.2]))[0] == pytest.approx(1.0 / math.sqrt(1.2**2 + 0.25))
    with pytest.raises(ValueError):
        RbfKernel("gaussian", 0.5)
    with pytest.raises(ValueError):
        RbfKernel(MULTIQUADRIC, 0.0)


@pytest.mark.parametrize("kind", [MULTIQUADRIC, INVERSE_MULTIQUADRIC])
def test_solve_rbf_matches_naive_elimination(kind):
    rng = np.random.default_rng(11)
    centers = rng.uniform(-1, 1, size=(30, 3))
    disp = 0.1 * rng.standard_normal((30, 3))
    kernel = RbfKernel(kind, 0.5)
    solved = solve_rbf(centers, disp, kernel)

    diff = centers[:, None, :] - centers[None, :, :]
    phi = kernel(np.sqrt((diff**2).sum(axis=2)))
    oracle = _gauss_solve(phi, disp)
    assert np.abs(solved.weights - oracle).max() < 1e-8


def test_rbf_interpolates_at_centers():
    rng = np.random.default_rng(13)
    centers = rng.uniform(-1, 1, size=(40, 3))
    disp = 0.2 * rng.standard_normal((40, 3))
    solved = solve_rbf(centers, disp, RbfKernel(MULTIQUADRIC, 0.5))
    out = apply_rbf(PointCloud(centers), solved)
    assert np.abs(out.points - (centers + disp)).max() < 1e-8


def test_rbf_zero_displacement_identity():
    rng = np.random.default_rng(17)
    centers = rng.uniform(-1, 1, size=(25, 3))
    solved = solve_rbf(centers, np.zeros((25, 3)), RbfKernel(MULTIQUADRIC, 0.5))
    cloud = _cloud(100, seed=18)
    out = apply_rbf(cloud, solved)
    assert np.array_equal(out.points, cloud.points)


def test_rbf_duplicate_centers_rejected():
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for _ in range(2):  # a failed system is never memoized
        with pytest.raises(ValueError):
            solve_rbf(centers, np.zeros((3, 3)), RbfKernel(MULTIQUADRIC, 0.5))


def test_rbf_near_duplicate_centers_flagged_ill_conditioned():
    # distance 1e-15 apart: rows of the system collide numerically
    rng = np.random.default_rng(19)
    centers = rng.uniform(-1, 1, size=(10, 3))
    centers = np.vstack([centers, centers[0] + 1e-15])
    for _ in range(2):  # a failed system is never memoized
        with pytest.raises(IllConditionedError):
            solve_rbf(centers, np.zeros((11, 3)), RbfKernel(MULTIQUADRIC, 0.5))
    assert CONDITION_LIMIT == 1e12


def _broadcast_distances(a, b):
    """The (n, m, 3) difference formula the RBF code used before cdist."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _rbf_clouds():
    rng = np.random.default_rng(23)
    beyond = rng.uniform(-1, 1, size=(300, 3))
    beyond[:3] = [[1.4, 0.2, -0.1], [-0.3, -1.7, 0.5], [0.0, 0.9, 2.2]]
    return {
        "inside": rng.uniform(-1, 1, size=(500, 3)),
        "beyond": beyond,
        "one_point": rng.uniform(-1, 1, size=(1, 3)),
        "n2048": rng.uniform(-1, 1, size=(2048, 3)),
    }


@pytest.mark.parametrize("kind", [MULTIQUADRIC, INVERSE_MULTIQUADRIC])
@pytest.mark.parametrize("name", ["inside", "beyond", "one_point", "n2048"])
def test_rbf_bits_equal_broadcast_distance_formula(kind, name):
    points = _rbf_clouds()[name]
    # centers on the lattice rbf_corrupt builds: the cloud's box joined with [-1, 1]^3
    _, hi, rest, spacing = deformation_lattice(points)
    assert (hi.max() > 1.0) == (name == "beyond")
    centers = rest.reshape(-1, 3)
    disp = 0.05 * random_unit_vectors(len(centers), np.random.default_rng(29))
    kernel = RbfKernel(kind, float(np.mean(spacing)))

    solved = solve_rbf(centers, disp, kernel)
    phi = kernel(_broadcast_distances(centers, centers))
    lu, piv = lu_factor(phi)
    assert np.array_equal(solved.weights, lu_solve((lu, piv), disp))

    out = apply_rbf(PointCloud(points), solved)
    delta = kernel(_broadcast_distances(points, centers)) @ solved.weights
    assert np.array_equal(out.points, points + delta)


def _reference_rbf(points, centers, disp, kernel):
    """solve_rbf then apply_rbf from scratch, with the broadcast distances."""
    lu_piv = lu_factor(kernel(_broadcast_distances(centers, centers)))
    weights = lu_solve(lu_piv, disp)
    return weights, points + kernel(_broadcast_distances(points, centers)) @ weights


def test_rbf_memo_hits_equal_fresh_solves_bit_for_bit():
    # interleaved variants, clouds and displacement draws: each call hits the
    # per-thread memo or replaces its entry, and must give a fresh build's
    # bits.  "inside" and "one_point" share the unit-cube centers but not
    # their points; "beyond" has its own centers
    clouds = _rbf_clouds()
    rng = np.random.default_rng(31)
    calls = [
        (name, kind, 0.05 * random_unit_vectors(125, rng))
        for name in ("inside", "one_point", "beyond", "inside")
        for _ in range(3)
        for kind in (MULTIQUADRIC, INVERSE_MULTIQUADRIC)
    ]
    for name, kind, disp in calls + calls[::-1]:
        points = clouds[name]
        _, _, rest, spacing = deformation_lattice(points)
        centers = rest.reshape(-1, 3)
        kernel = RbfKernel(kind, float(np.mean(spacing)))
        weights, moved = _reference_rbf(points, centers, disp, kernel)
        solved = solve_rbf(centers, disp, kernel)
        assert np.array_equal(solved.weights, weights)
        assert np.array_equal(apply_rbf(PointCloud(points), solved).points, moved)


def test_rbf_memo_factors_once_per_system_and_cloud(monkeypatch):
    from pccorrupt import deformation

    counts = {"lu_factor": 0, "cdist": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(deformation, "lu_factor", counted("lu_factor", lu_factor))
    monkeypatch.setattr(deformation, "cdist", counted("cdist", deformation.cdist))
    rng = np.random.default_rng(37)
    centers = rng.uniform(-1, 1, size=(20, 3))
    cloud = _cloud(50, seed=38)
    kernel = RbfKernel(INVERSE_MULTIQUADRIC, 0.7)
    for _ in range(4):
        apply_rbf(cloud, solve_rbf(centers, rng.standard_normal((20, 3)), kernel))
    # one centre-to-centre and one point-to-centre distance matrix in all
    assert counts == {"lu_factor": 1, "cdist": 2}
