"""Basic closed semialgebraic sets: membership, grid sampling, distances.

A set is S(f) = {x : f_i(x) >= 0 for all i} for finitely many polynomial
generators f_i, assumed to live inside the box [-1, 1]^n.  Sampling-based
estimates here are diagnostics; the certified output of the package is the
algebraic certificate, not these clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .poly import DEFAULT_GRID_BUDGET, Polynomial, grid_slabs, on_grid, sup_norm_grid

# tiny negative slack keeps boundary grid points in sample clouds;
# SemialgebraicSet.contains stays an exact sign test
CLOUD_MEMBERSHIP_SLACK = 1e-12


class EmptySampleError(RuntimeError):
    """A sample cloud came out empty: resolution too coarse or the set is empty."""


@dataclass(frozen=True)
class SemialgebraicSet:
    n: int
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("a semialgebraic set needs at least one generator")
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial instances")
            if g.n != self.n:
                raise ValueError(f"generator dimension {g.n} does not match set dimension {self.n}")
            if g.is_zero():
                raise ValueError("the zero polynomial is not a usable generator")
        object.__setattr__(self, "generators", gens)

    def contains(self, point) -> bool:
        """Exact sign test at one point: ``contains_many`` on one row, slack 0."""
        x = np.asarray(point, dtype=float).reshape(-1)
        return bool(self.contains_many(x[None])[0])

    def contains_many(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """The package's one membership test: row mask of every generator >= -slack.

        Slack 0 is the exact sign test; sample clouds use ``CLOUD_MEMBERSHIP_SLACK``.
        """
        return self._all_at_least(lambda g: g.evaluate_many(points), slack)

    def contains_axes(self, axes, slack: float = 0.0) -> np.ndarray:
        """``contains_many`` on the grid the axes broadcast to; may be broadcast-smaller."""
        return self._all_at_least(lambda g: g.evaluate_axes(axes), slack)

    def _all_at_least(self, values, slack: float):
        # once no entry is left True, the remaining generators are not evaluated
        first, *rest = self.generators
        mask = values(first) >= -slack
        for g in rest:
            if not mask.any():
                break
            mask = mask & (values(g) >= -slack)
        return mask

    def max_generator_degree(self) -> int:
        return max(g.total_degree() for g in self.generators)


@dataclass(frozen=True)
class SampleCloud:
    """Grid points of [-1, 1]^n passing membership of their originating set."""

    points: np.ndarray  # (m, n)
    resolution: int

    def __len__(self) -> int:
        return len(self.points)


def sample_grid(
    s: SemialgebraicSet, resolution: int, budget: int = DEFAULT_GRID_BUDGET
) -> SampleCloud:
    """Grid points passing ``contains_many`` with ``CLOUD_MEMBERSHIP_SLACK``; may be empty.

    The points keep the x1-major order of ``box_grid_points``.  The grid is
    swept block by block through ``grid_slabs``, so memory stays at one
    block plus the kept rows whatever the resolution.
    """
    kept = [np.empty((0, s.n))]
    for axes in grid_slabs(s.n, resolution, budget):
        mask = s.contains_axes(axes, CLOUD_MEMBERSHIP_SLACK)
        if mask.any():
            mask = on_grid(mask, axes)
            index = np.unravel_index(np.flatnonzero(mask), mask.shape)
            kept.append(np.stack([x.ravel()[i] for x, i in zip(axes, index)], axis=-1))
    return SampleCloud(points=np.concatenate(kept), resolution=resolution)


def dist_estimate(
    a: SemialgebraicSet,
    b: SemialgebraicSet,
    resolution: int,
    budget: int = DEFAULT_GRID_BUDGET,
) -> float:
    """Min pairwise distance between the two sample clouds.

    An upper bound on dist(A, B) that tightens as the resolution grows;
    non-increasing under nested grid refinement.
    """
    cloud_a = sample_grid(a, resolution, budget)
    if len(cloud_a) == 0:
        raise EmptySampleError(f"first set has no sample points at resolution {resolution}")
    cloud_b = sample_grid(b, resolution, budget)
    if len(cloud_b) == 0:
        raise EmptySampleError(f"second set has no sample points at resolution {resolution}")
    tree = cKDTree(cloud_b.points)
    dists, _ = tree.query(cloud_a.points, k=1)
    return float(np.min(dists))


def cloud_distance(points, cloud: SampleCloud) -> np.ndarray:
    """Distance from each query point to the nearest cloud point."""
    if len(cloud) == 0:
        raise EmptySampleError("cannot measure distance to an empty cloud")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dists, _ = cKDTree(cloud.points).query(pts, k=1)
    return dists


def u_eval(x, a_cloud: SampleCloud, dist_ab: float):
    """The explicit continuous separator u(x) = 2 - 3 dist(x, A)/dist(A, B).

    Computed against the sample cloud of A.  Equals 2 on cloud points and is
    (3/dist_ab)-Lipschitz; at or below -1 wherever dist(x, A) >= dist_ab.
    Accepts a single point or an (m, n) array.
    """
    if dist_ab <= 0.0:
        raise ValueError(f"dist_ab must be positive, got {dist_ab}")
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    values = 2.0 - 3.0 * cloud_distance(arr, a_cloud) / dist_ab
    return float(values[0]) if single else values


def eps_estimate(
    p: Polynomial,
    a: SemialgebraicSet,
    resolution: int,
    budget: int = DEFAULT_GRID_BUDGET,
) -> float:
    """(min of p over A samples) / (grid sup-norm of |p| on the box)."""
    if p.is_zero():
        raise ValueError("eps is undefined for the zero polynomial")
    cloud = sample_grid(a, resolution, budget)
    if len(cloud) == 0:
        raise EmptySampleError(f"set has no sample points at resolution {resolution}")
    min_on_a = float(np.min(p.evaluate_many(cloud.points)))
    return min_on_a / sup_norm_grid(p, resolution, budget)
