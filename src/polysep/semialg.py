"""Basic closed semialgebraic sets: membership, grid sampling, distances.

A set is S(f) = {x : f_i(x) >= 0 for all i} for finitely many polynomial
generators f_i, assumed to live inside the box [-1, 1]^n.  A sample cloud
is the (m, n) array of the grid points in a set.  Sampling-based estimates
here are diagnostics; the certified output of the package is the algebraic
certificate, not these clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .poly import Polynomial, grid_lines, on_grid, sup_norm_grid

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


def sample_grid(s: SemialgebraicSet, resolution: int) -> np.ndarray:
    """Grid points passing ``contains_many`` with ``CLOUD_MEMBERSHIP_SLACK``; may be empty.

    The points are the rows of an (m, n) array, in the x1-major order of
    ``box_grid_points``.  Before any point is evaluated, ``grid_lines`` drops
    the grid prefixes the set cannot reach: a prefix (x1, ..., xk), k < n,
    goes with every grid point under it when some generator's
    ``box_upper_bound`` over the remaining coordinates is below
    -``CLOUD_MEMBERSHIP_SLACK`` (a NaN or +inf bound drops nothing).
    That bound carries a rigorous allowance for the rounding of both itself
    and the evaluation, so every dropped point fails the membership test as
    well and the cloud is the full grid's, bit for bit.  The lines left are
    evaluated through ``contains_axes`` block by block, so memory stays at one
    block, one chunk of prefixes per level and the kept rows whatever the
    resolution.
    """

    def keep(heads):
        excluded = False
        for g in s.generators:
            excluded = excluded | (g.box_upper_bound(heads) < -CLOUD_MEMBERSHIP_SLACK)
        return ~excluded

    kept = [np.empty((0, s.n))]
    width = max(len(g.terms) for g in s.generators)
    for axes in grid_lines(s.n, resolution, keep, width):
        mask = on_grid(s.contains_axes(axes, CLOUD_MEMBERSHIP_SLACK), axes)
        flat = np.flatnonzero(mask)
        if len(flat):
            i, j = np.unravel_index(flat, mask.shape)
            # 1-D takes: indexing the 2-D axes with an array and an int is slower
            *prefix, line = (x.ravel() for x in axes)
            kept.append(np.stack([c[i] for c in prefix] + [line[j]], axis=-1))
    return np.concatenate(kept)


def dist_estimate(a: SemialgebraicSet, b: SemialgebraicSet, resolution: int) -> float:
    """Min pairwise distance between the two sample clouds.

    An upper bound on dist(A, B) that tightens as the resolution grows;
    non-increasing under nested grid refinement.  The search is bounded by a
    pair already found: the A point nearest B's centroid and its nearest B
    point are d0 apart, so the minimum is at most d0.  A point farther than
    d0 from the other cloud's bounding box is in no closer pair and is
    dropped, on both sides; the A points left are queried against a kd-tree
    of the B points left, with an upper bound just above d0, so the tree
    prunes whatever lies farther.  The winning pair survives and its
    distance is computed as an unbounded query over the whole clouds
    computes it, so the float is the same.
    """
    pa = sample_grid(a, resolution)
    if len(pa) == 0:
        raise EmptySampleError(f"first set has no sample points at resolution {resolution}")
    pb = sample_grid(b, resolution)
    if len(pb) == 0:
        raise EmptySampleError(f"second set has no sample points at resolution {resolution}")
    centroid = [x.mean() for x in pb.T]
    nearest = pa[np.argmin(_squared_gaps(pa, centroid, centroid))]
    d0 = float(np.sqrt(np.min(_squared_gaps(pb, nearest, nearest))))
    if d0 == 0.0:
        return 0.0
    # the tree compares squared distances: the relative margin covers the
    # rounding of d0 and of the box gaps, and the floor keeps the bound's
    # square from underflowing to 0
    bound = d0 * (1.0 + 2.0**-20) + 1e-150
    pa, pb = _near_box(pa, pb, bound), _near_box(pb, pa, bound)
    dists, _ = cKDTree(pb).query(pa, k=1, distance_upper_bound=bound)
    return float(np.min(dists))


def _near_box(points: np.ndarray, others: np.ndarray, radius: float) -> np.ndarray:
    """The points within ``radius`` of the bounding box of ``others``.

    The gap to the box is at most the distance to every point in it, so no
    point within ``radius`` of some other point is dropped; the caller's
    ``radius`` carries the margin for the rounding of both.
    """
    columns = others.T
    gaps = _squared_gaps(points, [x.min() for x in columns], [x.max() for x in columns])
    return points[gaps <= radius * radius]


def _squared_gaps(points: np.ndarray, lows, highs) -> np.ndarray:
    # per row, the squared distance to the box [lows, highs], a point where they
    # are equal; column by column, which beats reductions across (m, n) rows
    total = 0.0
    for x, lo, hi in zip(points.T, lows, highs):
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        total = total + gap * gap
    return total


def cloud_distance(points, cloud: np.ndarray) -> np.ndarray:
    """Distance from each query point to the nearest row of the (m, n) ``cloud``."""
    if len(cloud) == 0:
        raise EmptySampleError("cannot measure distance to an empty cloud")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dists, _ = cKDTree(cloud).query(pts, k=1)
    return dists


def u_eval(x, a_cloud: np.ndarray, dist_ab: float):
    """The explicit continuous separator u(x) = 2 - 3 dist(x, A)/dist(A, B).

    Computed against ``a_cloud``, the (m, n) sample cloud of A.  Equals 2 on
    cloud points and is (3/dist_ab)-Lipschitz; at or below -1 wherever
    dist(x, A) >= dist_ab.  Accepts a single point or an (m, n) array.
    """
    if dist_ab <= 0.0:
        raise ValueError(f"dist_ab must be positive, got {dist_ab}")
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    values = 2.0 - 3.0 * cloud_distance(arr, a_cloud) / dist_ab
    return float(values[0]) if single else values


def eps_estimate(p: Polynomial, a: SemialgebraicSet, resolution: int) -> float:
    """(min of p over A samples) / (grid sup-norm of |p| on the box)."""
    if p.is_zero():
        raise ValueError("eps is undefined for the zero polynomial")
    cloud = sample_grid(a, resolution)
    if len(cloud) == 0:
        raise EmptySampleError(f"set has no sample points at resolution {resolution}")
    min_on_a = float(np.min(p.evaluate_many(cloud)))
    return min_on_a / sup_norm_grid(p, resolution)
