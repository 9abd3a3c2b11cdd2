"""Cloud mixing strategies and the minimum-cost point matching."""

import itertools
import warnings

import numpy as np
import pytest

from pccorrupt import (
    LabeledCloud,
    Permutation,
    PointCloud,
    apply_mix,
    assignment_cost,
    cutmix_k,
    cutmix_r,
    emd_assign,
    mix_labels,
    mixup_emd,
    nearest_indices,
    one_hot,
    rsmix,
)
from pccorrupt.augmentation import EXACT_ASSIGN_LIMIT

from synthdata import random_cloud


def _pair(n=64, n_classes=4, seed=0):
    a = LabeledCloud.from_class(random_cloud(n, seed), 0, n_classes)
    b = LabeledCloud.from_class(random_cloud(n, seed + 1), 1, n_classes)
    return a, b


def _rows(points):
    return {tuple(p) for p in points}


# -- labels ----------------------------------------------------------------


def test_one_hot():
    y = one_hot(2, 5)
    assert y.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        one_hot(5, 5)


def test_mix_labels_convex():
    y = mix_labels(one_hot(0, 3), one_hot(2, 3), 0.25)
    assert np.allclose(y, [0.25, 0.0, 0.75])
    assert y.sum() == pytest.approx(1.0)


def test_labeled_cloud_validation():
    cloud = random_cloud(8, 0)
    with pytest.raises(ValueError):
        LabeledCloud(cloud, np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        LabeledCloud(cloud, np.array([1.5, -0.5]))  # negative mass
    with pytest.raises(ValueError, match="sum to 1"):
        LabeledCloud(cloud, np.array([np.nan, 1.0]))  # nan passes `< 0` and `> tol`
    lc = LabeledCloud.from_class(cloud, 1, 3)
    assert lc.n_classes == 3
    with pytest.raises(ValueError):
        lc.label[0] = 0.7  # labels are frozen


def test_mix_spec_lambda():
    """Every mixer takes the first cloud's weight lam in [0, 1] and nothing else."""
    a, b = _pair(n=16)
    for mixer in (cutmix_r, cutmix_k, mixup_emd, rsmix):
        for lam in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="lam must be in"):
                mixer(a, b, lam, np.random.default_rng(0))


# -- cutmix ----------------------------------------------------------------


def test_cutmix_r_membership_and_label():
    a, b = _pair(n=80)
    out = cutmix_r(a, b, 0.4, np.random.default_rng(3))
    assert out.cloud.count == 80
    n_a = int(0.4 * 80)
    assert _rows(out.cloud.points[:n_a]) <= _rows(a.cloud.points)
    assert _rows(out.cloud.points[n_a:]) <= _rows(b.cloud.points)
    assert np.allclose(out.label, [n_a / 80, 1 - n_a / 80, 0, 0])


def test_cutmix_r_lambda_one_returns_a_points():
    a, b = _pair(n=32)
    out = cutmix_r(a, b, 1.0, np.random.default_rng(5))
    assert _rows(out.cloud.points) == _rows(a.cloud.points)
    assert np.allclose(out.label, a.label)


def test_cutmix_k_parts_are_knn_regions():
    a, b = _pair(n=60)
    out = cutmix_k(a, b, 0.5, np.random.default_rng(7))
    n_a = 30
    part_a = out.cloud.points[:n_a]
    part_b = out.cloud.points[n_a:]
    assert _rows(part_a) <= _rows(a.cloud.points)
    assert _rows(part_b) <= _rows(b.cloud.points)
    # part_a must be the 30-NN of some point of a, and part_b exactly b's
    # ranks 30.. by distance to that same anchor
    found = False
    for anchor in a.cloud.points:
        hood = nearest_indices(a.cloud.points, anchor, n_a)
        if _rows(a.cloud.points[hood]) == _rows(part_a):
            ranks = nearest_indices(b.cloud.points, anchor, 60)
            if _rows(b.cloud.points[ranks[n_a:]]) == _rows(part_b):
                found = True
                break
    assert found


def test_cutmix_requires_matching_sizes():
    a = LabeledCloud.from_class(random_cloud(10, 0), 0, 2)
    b = LabeledCloud.from_class(random_cloud(12, 1), 1, 2)
    with pytest.raises(ValueError):
        cutmix_r(a, b, 0.5, np.random.default_rng(0))
    c = LabeledCloud.from_class(random_cloud(10, 2), 1, 3)
    with pytest.raises(ValueError):
        cutmix_r(a, c, 0.5, np.random.default_rng(0))


# -- minimum-cost matching -------------------------------------------------


def test_emd_identity_for_equal_clouds():
    cloud = random_cloud(50, seed=9)
    perm = emd_assign(cloud, PointCloud(cloud.points.copy()))
    assert np.array_equal(perm.indices, np.arange(50))


def test_emd_recovers_shuffle():
    cloud = random_cloud(40, seed=10)
    rng = np.random.default_rng(11)
    shuffle = rng.permutation(40)
    shuffled = PointCloud(cloud.points[shuffle])
    perm = emd_assign(cloud, shuffled)
    # matching a against its own shuffle must pair identical points
    assert np.allclose(cloud.points, shuffled.points[perm.indices])
    assert assignment_cost(cloud, shuffled, perm) < 1e-20


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_emd_matches_exhaustive_search(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(12):
        a = PointCloud(rng.uniform(-1, 1, size=(n, 3)))
        b = PointCloud(rng.uniform(-1, 1, size=(n, 3)))
        perm = emd_assign(a, b)
        got = assignment_cost(a, b, perm)
        best = min(
            sum(((a.points[i] - b.points[p[i]]) ** 2).sum() for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert got == pytest.approx(best, rel=1e-12)


def test_emd_large_path_is_valid_and_not_worse_than_identity():
    rng = np.random.default_rng(33)
    for n in (EXACT_ASSIGN_LIMIT + 20, 1024):  # both split into blocks
        a = PointCloud(rng.uniform(-1, 1, size=(n, 3)))
        b = PointCloud(rng.uniform(-1, 1, size=(n, 3)))
        perm = emd_assign(a, b)
        assert sorted(perm.indices.tolist()) == list(range(n))
        identity = Permutation(np.arange(n))
        assert assignment_cost(a, b, perm) <= assignment_cost(a, b, identity) + 1e-12


def test_emd_blocks_find_the_optimum_of_separated_clusters():
    # eight clusters far apart along x: every median split falls between
    # clusters, so each block holds one cluster of both clouds and the
    # blocked matching is the optimum of the whole pair
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(34)
    size = EXACT_ASSIGN_LIMIT
    centres = np.repeat(np.arange(8) * 100.0, size)[:, None] * [1.0, 0.0, 0.0]
    a = rng.normal(size=(8 * size, 3)) + centres
    b = rng.normal(size=(8 * size, 3)) + centres
    order_a, order_b = rng.permutation(8 * size), rng.permutation(8 * size)
    a, b = a[order_a], b[order_b]
    perm = emd_assign(PointCloud(a), PointCloud(b))
    _rows, best = linear_sum_assignment(cdist(a, b, "sqeuclidean"))
    assert np.array_equal(perm.indices, best)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        Permutation(np.array([0, 2]))


def test_emd_requires_equal_sizes():
    with pytest.raises(ValueError):
        emd_assign(random_cloud(5, 0), random_cloud(6, 1))


@pytest.mark.parametrize("n", [30, EXACT_ASSIGN_LIMIT + 44])
@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_emd_overflowing_distances_raise_one_value_error(n, scale):
    # finite clouds on both matcher branches whose squared distances overflow
    rng = np.random.default_rng(n)
    a = PointCloud(rng.uniform(-1, 1, size=(n, 3)) * scale)
    b = PointCloud(rng.uniform(-1, 1, size=(n, 3)) * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            emd_assign(a, b)


@pytest.mark.parametrize("n", [30, EXACT_ASSIGN_LIMIT + 44])
def test_emd_largest_matchable_distances_match_without_warnings(n):
    # scaled so the largest squared distance sits just inside the bound
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    bound = np.finfo(np.float64).max / (4 * n)
    scale = np.sqrt(bound / cdist(a, b, "sqeuclidean").max()) * (1 - 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perm = emd_assign(PointCloud(a * scale), PointCloud(b * scale))
    assert len(perm) == n


def test_emd_overflow_between_blocks_matches_within_clusters():
    # eight clusters 1e153 apart along x: squared distances between clusters
    # overflow the matcher's bound, and the shuffled identity's sum overflows
    # float64, but every block holds one cluster of each cloud, so no cost that
    # the block solver reads is large and the clouds match cluster to cluster
    rng = np.random.default_rng(35)
    size = EXACT_ASSIGN_LIMIT
    cluster = np.repeat(np.arange(8), size)
    centres = cluster[:, None] * 1e153 * np.array([1.0, 0.0, 0.0])
    order_a, order_b = rng.permutation(8 * size), rng.permutation(8 * size)
    a = (rng.normal(size=(8 * size, 3)) + centres)[order_a]
    b = (rng.normal(size=(8 * size, 3)) + centres)[order_b]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perm = emd_assign(PointCloud(a), PointCloud(b))
    assert np.array_equal(cluster[order_a], cluster[order_b][perm.indices])


def test_emd_assign_does_not_depend_on_the_worker_count(monkeypatch):
    """The blocks solve on up to the usable CPUs; 1 and 4 workers give the
    same permutation on the golden test's pairs and on a 1,024-point pair."""
    from pccorrupt import augmentation

    pairs = []
    for n in (6, EXACT_ASSIGN_LIMIT, EXACT_ASSIGN_LIMIT + 1, 1024):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 3))
        dup = b[np.arange(n) % (n // 2)]
        pairs += [(a, b), (a, dup), (dup, a), (a, a + 0.25)]
    pairs.append((random_cloud(1024, 50).points, random_cloud(1024, 51).points))
    got = {}
    for cpus in (1, 4):
        monkeypatch.setattr(augmentation, "usable_cpus", lambda: cpus)
        got[cpus] = [emd_assign(PointCloud(p), PointCloud(q)).indices for p, q in pairs]
    for one, four in zip(got[1], got[4]):
        assert np.array_equal(one, four)


# -- mixup -----------------------------------------------------------------


def test_mixup_endpoints():
    a, b = _pair(n=30)
    out1 = mixup_emd(a, b, 1.0, np.random.default_rng(1))
    assert np.allclose(out1.cloud.points, a.cloud.points)
    assert np.allclose(out1.label, a.label)
    out0 = mixup_emd(a, b, 0.0, np.random.default_rng(1))
    assert _rows(np.round(out0.cloud.points, 12)) == _rows(np.round(b.cloud.points, 12))
    assert np.allclose(out0.label, b.label)


def test_mixup_points_on_matching_segments():
    a, b = _pair(n=25)
    lam = 0.3
    out = mixup_emd(a, b, lam, np.random.default_rng(2))
    perm = emd_assign(a.cloud, b.cloud)
    expected = lam * a.cloud.points + (1 - lam) * b.cloud.points[perm.indices]
    assert np.allclose(out.cloud.points, expected)
    assert np.allclose(out.label, lam * a.label + (1 - lam) * b.label)


def test_mixup_identical_clouds_fixed_point():
    cloud = random_cloud(20, seed=3)
    a = LabeledCloud.from_class(cloud, 0, 2)
    b = LabeledCloud.from_class(PointCloud(cloud.points.copy()), 1, 2)
    out = mixup_emd(a, b, 0.37, np.random.default_rng(4))
    assert np.allclose(out.cloud.points, cloud.points)
    assert np.allclose(out.label, [0.37, 0.63])


def test_emd_cost_matrix_bits_equal_direct_subtraction():
    """The one-call cost matrix must equal the direct subtraction bit for bit;
    a scipy build that fuses multiply-add into the sum would fail here."""
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(41)
    for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
        a = rng.normal(scale=scale, size=(300, 3))
        b = rng.normal(scale=scale, size=(300, 3)) + scale / 3
        direct = ((a[:, None] - b[None]) ** 2).sum(axis=2)
        assert np.array_equal(cdist(a, b, "sqeuclidean"), direct), scale


def test_golden_emd_assign_and_mixup():
    """Pin the matching and the lam=0.3 mixup points bit for bit on both
    paths (n = 6 and 128 exact, 129 and 1,024 blocked): random pairs, pairs
    with duplicated points so that costs tie, equal clouds and an offset copy."""
    import hashlib

    h = hashlib.sha256()
    for n in (6, EXACT_ASSIGN_LIMIT, EXACT_ASSIGN_LIMIT + 1, 1024):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 3))
        dup = b[np.arange(n) % (n // 2)]
        pairs = [(a, b), (a, dup), (dup, a), (a, a.copy()), (a, a + 0.25)]
        for p, q in pairs:
            perm = emd_assign(PointCloud(p), PointCloud(q))
            h.update(perm.indices.tobytes())
            out = mixup_emd(
                LabeledCloud.from_class(PointCloud(p), 0, 2),
                LabeledCloud.from_class(PointCloud(q), 1, 2),
                0.3, np.random.default_rng(0),
            )
            h.update(np.ascontiguousarray(out.cloud.points).tobytes())
    assert h.hexdigest() == "5055f2fbb4a20b2493654634e1782b9560eb8f0f66db8d2176b85206bd550545"


# -- rsmix -----------------------------------------------------------------


def test_rsmix_patch_is_rigid():
    a, b = _pair(n=100)
    out = rsmix(a, b, 0.35, np.random.default_rng(6))
    n_region = 35
    assert out.cloud.count == 100
    kept, patch = out.cloud.points[:-n_region], out.cloud.points[-n_region:]
    assert _rows(kept) <= _rows(a.cloud.points)
    # the inserted patch is a translate of a kNN region of b: pairwise
    # distances must match some region of b exactly
    d_patch = np.linalg.norm(patch[:, None] - patch[None, :], axis=2)
    found = False
    for anchor in b.cloud.points:
        region = b.cloud.points[nearest_indices(b.cloud.points, anchor, n_region)]
        d_region = np.linalg.norm(region[:, None] - region[None, :], axis=2)
        if np.allclose(np.sort(d_patch.ravel()), np.sort(d_region.ravel()), atol=1e-9):
            found = True
            break
    assert found
    assert np.allclose(out.label, [0.65, 0.35, 0, 0])


def test_rsmix_zero_region_returns_a():
    a, b = _pair(n=40)
    out = rsmix(a, b, 0.0, np.random.default_rng(8))
    assert np.array_equal(out.cloud.points, a.cloud.points)
    assert np.array_equal(out.label, a.label)


# -- dispatch --------------------------------------------------------------


def test_apply_mix_dispatch():
    a, b = _pair(n=16)
    assert apply_mix("none", a, b, 0.5, np.random.default_rng(0)) is a
    out = apply_mix("cutmix_r", a, b, 0.5, np.random.default_rng(1))
    assert out.cloud.count == 16
    with pytest.raises(ValueError):
        apply_mix("blend", a, b, 0.5, np.random.default_rng(0))


def test_mixers_deterministic_under_spec_seed():
    a, b = _pair(n=24)
    for name in ("cutmix_r", "cutmix_k", "mixup", "rsmix"):
        x = apply_mix(name, a, b, 0.4, np.random.default_rng(13))
        y = apply_mix(name, a, b, 0.4, np.random.default_rng(13))
        assert np.array_equal(x.cloud.points, y.cloud.points), name
        assert np.array_equal(x.label, y.label), name
