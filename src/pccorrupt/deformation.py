"""Non-linear deformations: Bernstein free-form deformation and RBF warps.

FFD displaces points by Bernstein-weighted control-lattice displacements.
The RBF warp prescribes displacements at scattered centers, solves the
dense interpolation system for kernel weights, and evaluates the
interpolant at the cloud points.  Supported kernels are the multiquadric
sqrt(d^2 + r^2) and its inverse 1/sqrt(d^2 + r^2).

Both RBF steps keep, per thread and per kernel variant, the last result that
does not depend on the displacements: `solve_rbf` the kernel matrix and its LU
factors, keyed by the kernel and the centers' shape and bytes; `apply_rbf` the
point-to-center kernel matrix, keyed by the kernel, the centers and the points'
bytes.  Every normalized cloud gets the same lattice of centers, and the five
severities of a sample share its points, so gen mostly hits.  A hit returns
the same bits as a fresh build.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon
from scipy.spatial.distance import cdist

from .geometry import PointCloud

MULTIQUADRIC = "multiquadric"
INVERSE_MULTIQUADRIC = "inverse_multiquadric"

# 1-norm condition numbers above this are reported, never regularized away.
CONDITION_LIMIT = 1e12
LATTICE_RESOLUTION = 5  # control points per axis of the FFD / RBF lattice


class IllConditionedError(ValueError):
    """The RBF interpolation system is singular or near-singular."""


@dataclass(frozen=True)
class RbfKernel:
    variant: str
    r: float

    def __post_init__(self):
        if self.variant not in (MULTIQUADRIC, INVERSE_MULTIQUADRIC):
            raise ValueError(f"unknown RBF variant {self.variant!r}")
        if not self.r > 0:
            raise ValueError("kernel shape parameter r must be > 0")

    def __call__(self, d):
        d = np.asarray(d, dtype=np.float64)
        base = np.sqrt(d * d + self.r * self.r)
        if self.variant == MULTIQUADRIC:
            return base
        return 1.0 / base


def deformation_lattice(points: np.ndarray):
    """The control lattice of a cloud: `(lo, hi, rest, spacing)`.

    Its bounds `lo`, `hi` are the points' box joined with [-1, 1]^3; `rest`
    holds the LATTICE_RESOLUTION^3 evenly spaced rest positions, shape
    (res, res, res, 3), and `spacing` the per-axis gap between them.
    """
    lo = np.minimum(points.min(axis=0), -1.0)
    hi = np.maximum(points.max(axis=0), 1.0)
    axes = [np.linspace(lo[a], hi[a], LATTICE_RESOLUTION) for a in range(3)]
    rest = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return lo, hi, rest, (hi - lo) / (LATTICE_RESOLUTION - 1)


def random_unit_vectors(n: int, rng: np.random.Generator) -> np.ndarray:
    """n isotropic unit vectors (normalized Gaussian draws)."""
    v = rng.standard_normal((n, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # a zero draw is astronomically unlikely; redraw defensively anyway
    while (norms == 0.0).any():
        bad = norms[:, 0] == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def bernstein_basis(degree: int, t: np.ndarray) -> np.ndarray:
    """All Bernstein polynomials B_i^degree evaluated at t; shape (len(t), degree+1)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape + (degree + 1,))
    for i in range(degree + 1):
        out[..., i] = comb(degree, i) * t**i * (1.0 - t) ** (degree - i)
    return out


def apply_ffd(cloud: PointCloud, displacements) -> PointCloud:
    """Displace cloud points by the Bernstein blend of the displacements of
    the cloud's control points: res^3 rows of 3, in the C order of `rest`."""
    res = LATTICE_RESOLUTION
    disp = np.asarray(displacements, dtype=np.float64).reshape(res, res, res, 3)
    lo, hi, _, _ = deformation_lattice(cloud.points)
    # the lattice box holds every point, so each coordinate lands in [0, 1]
    uvw = (cloud.points - lo) / (hi - lo)
    bx = bernstein_basis(res - 1, uvw[:, 0])
    by = bernstein_basis(res - 1, uvw[:, 1])
    bz = bernstein_basis(res - 1, uvw[:, 2])
    # contract one lattice axis at a time: (n,i)(i,j,k,c) -> ... -> (n,c)
    tmp = np.einsum("ni,ijkc->njkc", bx, disp)
    tmp = np.einsum("nj,njkc->nkc", by, tmp)
    delta = np.einsum("nk,nkc->nc", bz, tmp)
    return PointCloud(cloud.points + delta)


@dataclass(frozen=True)
class RbfDeformation:
    """Solved RBF interpolant: evaluating at center a returns displacement a."""

    kernel: RbfKernel
    centers: np.ndarray
    displacements: np.ndarray
    weights: np.ndarray


class _ThreadMemo(threading.local):
    def __init__(self):
        self.systems = {}  # variant -> (key, phi, lu, piv)
        self.matrices = {}  # variant -> (key, kernel(cdist(points, centers)))


_MEMO = _ThreadMemo()


def solve_rbf(centers, displacements, kernel: RbfKernel) -> RbfDeformation:
    """Solve the dense interpolation system Phi w = d per axis.

    Uses LU with partial pivoting plus a LAPACK 1-norm condition estimate;
    systems with condition above CONDITION_LIMIT raise IllConditionedError
    rather than being regularized.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    displacements = np.asarray(displacements, dtype=np.float64).reshape(-1, 3)
    if len(centers) < 1:
        raise ValueError("need at least one center")
    if len(centers) != len(displacements):
        raise ValueError("centers and displacements must have equal length")

    # The factor is reused only by the thread that built it: gen runs tasks on
    # worker threads, and two threads calling lu_solve on one shared (lu, piv)
    # abort the process under scipy 1.17.1 ("malloc(): corrupted top size"),
    # likely because its getrs wrapper shifts `piv` in place.
    key = (kernel, centers.shape, centers.tobytes())
    system = _MEMO.systems.get(kernel.variant)
    if system is None or system[0] != key:
        dist = cdist(centers, centers)
        off_diag = dist + np.diag(np.full(len(centers), np.inf))
        if len(centers) > 1 and off_diag.min() == 0.0:
            raise ValueError("centers must be pairwise distinct")

        phi = kernel(dist)
        anorm = np.abs(phi).sum(axis=0).max()
        try:
            lu, piv = lu_factor(phi)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(f"singular RBF system: {exc}") from None
        rcond, info = dgecon(lu, anorm, norm="1")
        if info != 0 or rcond == 0.0 or 1.0 / rcond > CONDITION_LIMIT:
            cond = np.inf if rcond == 0.0 else 1.0 / rcond
            raise IllConditionedError(
                f"RBF system condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
            )
        system = (key, phi, lu, piv)
    _, phi, lu, piv = system
    weights = lu_solve((lu, piv), displacements)

    residual = np.abs(phi @ weights - displacements).max()
    if residual > 1e-8:
        raise IllConditionedError(
            f"RBF interpolation residual {residual:.3e} exceeds 1e-8"
        )
    # Stored only once every check passed, so a bad system raises on every call.
    _MEMO.systems[kernel.variant] = system
    return RbfDeformation(kernel, centers, displacements, weights)


def apply_rbf(cloud: PointCloud, deformation: RbfDeformation) -> PointCloud:
    """p -> p + sum_a w_a phi(|p - c_a|), per axis."""
    kernel, points = deformation.kernel, cloud.points
    centers = np.asarray(deformation.centers, dtype=np.float64)
    key = (kernel, centers.shape, centers.tobytes(), points.shape, points.tobytes())
    matrix = _MEMO.matrices.get(kernel.variant)
    if matrix is None or matrix[0] != key:
        matrix = (key, kernel(cdist(points, centers)))
        _MEMO.matrices[kernel.variant] = matrix
    return PointCloud(points + matrix[1] @ deformation.weights)
