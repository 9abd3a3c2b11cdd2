"""Pair mixing augmentations: random/kNN cutmix, assignment mixup, rigid subset mix.

All mixes take two equally sized labeled clouds and return exactly n points
with a soft label that sums to one.  Each takes the mixing weight `lam` of
the first cloud, in [0, 1], and the generator it draws from.  Mixup
matches exactly within median-split blocks of at most EXACT_ASSIGN_LIMIT
points.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from ._cpus import usable_cpus
from .geometry import PointCloud, nearest_indices

EXACT_ASSIGN_LIMIT = 128


def one_hot(class_index: int, n_classes: int) -> np.ndarray:
    if not 0 <= class_index < n_classes:
        raise ValueError(f"class index {class_index} out of range 0..{n_classes - 1}")
    label = np.zeros(n_classes)
    label[class_index] = 1.0
    return label


@dataclass(frozen=True)
class LabeledCloud:
    cloud: PointCloud
    label: np.ndarray

    def __post_init__(self):
        label = np.asarray(self.label, dtype=np.float64).reshape(-1)
        if (label < 0).any():
            raise ValueError("soft label entries must be >= 0")
        if not abs(label.sum() - 1.0) <= 1e-9:  # a nan sum fails too
            raise ValueError(f"soft label must sum to 1, got {label.sum()!r}")
        label = label.copy()
        label.flags.writeable = False
        object.__setattr__(self, "label", label)

    @classmethod
    def from_class(cls, cloud: PointCloud, class_index: int, n_classes: int):
        return cls(cloud, one_hot(class_index, n_classes))

    @property
    def n_classes(self) -> int:
        return len(self.label)


@dataclass(frozen=True)
class Permutation:
    indices: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        if not np.array_equal(np.sort(indices), np.arange(len(indices))):
            raise ValueError("not a bijection on 0..n-1")
        indices = indices.copy()
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)

    def __len__(self):
        return len(self.indices)


def mix_labels(y_a: np.ndarray, y_b: np.ndarray, lam: float) -> np.ndarray:
    y_a = np.asarray(y_a, dtype=np.float64)
    y_b = np.asarray(y_b, dtype=np.float64)
    if y_a.shape != y_b.shape:
        raise ValueError(f"label shapes differ: {y_a.shape} vs {y_b.shape}")
    return lam * y_a + (1.0 - lam) * y_b


def _check_pair(a: LabeledCloud, b: LabeledCloud, lam: float):
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    if a.cloud.count != b.cloud.count:
        raise ValueError(
            f"cloud sizes differ: {a.cloud.count} vs {b.cloud.count}"
        )
    if a.n_classes != b.n_classes:
        raise ValueError("label dimensions differ")


def cutmix_r(
    a: LabeledCloud, b: LabeledCloud, lam: float, rng: np.random.Generator
) -> LabeledCloud:
    """Union of floor(lam*n) random points of a and the remainder from b."""
    _check_pair(a, b, lam)
    n = a.cloud.count
    n_a = int(lam * n)
    idx_a = rng.choice(n, size=n_a, replace=False)
    idx_b = rng.choice(n, size=n - n_a, replace=False)
    points = np.concatenate([a.cloud.points[idx_a], b.cloud.points[idx_b]], axis=0)
    label = mix_labels(a.label, b.label, n_a / n)
    return LabeledCloud(PointCloud(points), label)


def cutmix_k(
    a: LabeledCloud, b: LabeledCloud, lam: float, rng: np.random.Generator
) -> LabeledCloud:
    """kNN-region variant: a contributes the floor(lam*n) nearest points to a
    random anchor of a; b fills the rest with its own points ranked by
    distance to that same anchor, skipping the first floor(lam*n) ranks."""
    _check_pair(a, b, lam)
    n = a.cloud.count
    n_a = int(lam * n)
    anchor = a.cloud.points[int(rng.integers(0, n))]
    part_a = nearest_indices(a.cloud.points, anchor, n_a)
    rank_b = nearest_indices(b.cloud.points, anchor, n)
    part_b = rank_b[n_a:]
    points = np.concatenate(
        [a.cloud.points[part_a], b.cloud.points[part_b]], axis=0
    )
    label = mix_labels(a.label, b.label, n_a / n)
    return LabeledCloud(PointCloud(points), label)


def assignment_cost(a: PointCloud, b: PointCloud, perm: Permutation) -> float:
    diff = a.points - b.points[perm.indices]
    return float((diff * diff).sum())


def emd_assign(a: PointCloud, b: PointCloud) -> Permutation:
    """One-to-one matching from a's points to b's of low total squared distance.

    Exact (Hungarian) up to EXACT_ASSIGN_LIMIT points.  A larger pair is cut
    at the median of the axis of largest variance of both clouds, n // 2
    points of each to the lower half, until every block fits the limit; each
    block is matched exactly and the result never costs more than the
    identity.  Only the blocks' own costs are built, and the blocks are
    solved on up to the usable CPUs; the result does not depend on how many.
    Identical clouds map to the identity.  Only the costs that the block
    solver reads may overflow: a block holding a squared distance too large
    for float64 sums raises ValueError, while a pair whose large distances
    all lie between blocks is matched.
    """
    if a.count != b.count:
        raise ValueError(f"cloud sizes differ: {a.count} vs {b.count}")
    n = a.count
    if np.array_equal(a.points, b.points):
        return Permutation(np.arange(n))
    leaves = []
    blocks = [(np.arange(n), np.arange(n))]
    while blocks:
        rows, cols = blocks.pop()
        if len(rows) <= EXACT_ASSIGN_LIMIT:
            # bit-equal to ((a[:, None] - b[None]) ** 2).sum(axis=2), which a test checks
            cost = cdist(a.points[rows], b.points[cols], "sqeuclidean")
            # a block solve and the permutation's sum read at most 4n of these
            # costs; keep them finite (the identity's sum may overflow, see below)
            if not cost.max() <= np.finfo(np.float64).max / (4 * n):
                raise ValueError("squared distances between the clouds overflow float64")
            leaves.append((rows, cols, cost))
            continue
        pa, pb = a.points[rows], b.points[cols]
        # a variance that overflows is inf (or nan, which argmax also picks)
        with np.errstate(over="ignore", invalid="ignore"):
            axis = int(np.concatenate([pa, pb]).var(axis=0).argmax())
        rows = rows[np.argsort(pa[:, axis], kind="stable")]
        cols = cols[np.argsort(pb[:, axis], kind="stable")]
        half = len(rows) // 2
        blocks += [(rows[:half], cols[:half]), (rows[half:], cols[half:])]
    # linear_sum_assignment releases the GIL, so the blocks solve in parallel
    costs = [cost for _, _, cost in leaves]
    with ThreadPoolExecutor(min(len(leaves), usable_cpus())) as pool:
        solved = list(pool.map(linear_sum_assignment, costs))
    perm = np.empty(n, dtype=np.int64)
    for (rows, cols, _), (_, block) in zip(leaves, solved):
        perm[rows] = cols[block]
    # blocks can cut across identity pairs; never lose to the trivial matching,
    # whose sum may overflow to inf, and then loses
    with np.errstate(over="ignore"):
        identity = ((a.points - b.points) ** 2).sum(axis=1).sum()
    if ((a.points - b.points[perm]) ** 2).sum(axis=1).sum() > identity:
        perm = np.arange(n)
    return Permutation(perm)


def mixup_emd(
    a: LabeledCloud, b: LabeledCloud, lam: float, rng: np.random.Generator
) -> LabeledCloud:
    """Pointwise interpolation along the minimum-cost matching of the pair;
    draws nothing from rng."""
    _check_pair(a, b, lam)
    perm = emd_assign(a.cloud, b.cloud)
    points = lam * a.cloud.points + (1.0 - lam) * b.cloud.points[perm.indices]
    label = mix_labels(a.label, b.label, lam)
    return LabeledCloud(PointCloud(points), label)


def rsmix(
    a: LabeledCloud, b: LabeledCloud, lam: float, rng: np.random.Generator
) -> LabeledCloud:
    """Carve out a kNN ball of a and insert b's kNN ball, rigidly translated.

    lam sets the region size floor(lam*n).  b's patch is shifted so its
    anchor lands on a's anchor; no scaling or per-point blending, so the
    patch keeps its internal shape.  The label weight of a is the surviving
    fraction (n - floor(lam*n)) / n.
    """
    _check_pair(a, b, lam)
    n = a.cloud.count
    n_region = int(lam * n)
    if n_region == 0:
        return LabeledCloud(a.cloud, a.label)
    anchor_a = a.cloud.points[int(rng.integers(0, n))]
    anchor_b = b.cloud.points[int(rng.integers(0, n))]
    removed = nearest_indices(a.cloud.points, anchor_a, n_region)
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    patch = b.cloud.points[nearest_indices(b.cloud.points, anchor_b, n_region)]
    patch = patch + (anchor_a - anchor_b)
    points = np.concatenate([a.cloud.points[keep], patch], axis=0)
    label = mix_labels(a.label, b.label, (n - n_region) / n)
    return LabeledCloud(PointCloud(points), label)


MIXERS = {
    "cutmix_r": cutmix_r,
    "cutmix_k": cutmix_k,
    "mixup": mixup_emd,
    "rsmix": rsmix,
}


def apply_mix(
    name: str,
    a: LabeledCloud,
    b: LabeledCloud,
    lam: float,
    rng: np.random.Generator,
) -> LabeledCloud:
    if name == "none":
        return a
    if name not in MIXERS:
        raise ValueError(f"unknown mix {name!r}; choose from {sorted(MIXERS)} or 'none'")
    return MIXERS[name](a, b, lam, rng)
