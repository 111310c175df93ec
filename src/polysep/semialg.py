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

from .poly import Polynomial, grid_lines, on_grid, sup_norm_grid

# tiny negative slack keeps boundary grid points in sample clouds;
# SemialgebraicSet.contains stays an exact sign test
CLOUD_MEMBERSHIP_SLACK = 1e-12

# point pairs per block of the nearest-point search, and points per chunk of
# the boundary search: a chunk is a run of one side's boundary points in the
# clouds' x1-major order, and the box of a run is what the search prunes by
PAIR_BLOCK = 1 << 16
CHUNK_POINTS = 64


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
    ``box_grid_points``: the marked points of ``sample_blocks``, block after
    block.
    """
    kept = [np.empty((0, s.n))]
    for axes, mask in sample_blocks(s, resolution):
        flat = np.flatnonzero(mask)
        if len(flat):
            kept.append(block_points(axes, mask.shape, flat))
    return np.concatenate(kept)


def sample_blocks(s: SemialgebraicSet, resolution: int):
    """The grid in blocks, each as (axes, mask): the mask marks the block's sample points.

    Before any point is evaluated, ``grid_lines`` drops the grid prefixes
    the set cannot reach: a prefix (x1, ..., xk), k < n, goes with every
    grid point under it when some generator's ``box_upper_bound`` over the
    remaining coordinates is below -``CLOUD_MEMBERSHIP_SLACK`` (a NaN or
    +inf bound drops nothing).  That bound carries a rigorous allowance for
    the rounding of both itself and the evaluation, so every dropped point
    fails the membership test as well, and the marked points are the full
    grid's sample points, bit for bit.  The lines left come as
    ``grid_lines`` blocks, x1-major, and ``contains_axes`` gives each
    block's mask, shaped like the block's full grid; memory stays at one
    block and one chunk of prefixes per level whatever the resolution.
    """

    def keep(heads):
        excluded = False
        for g in s.generators:
            excluded = excluded | (g.box_upper_bound(heads) < -CLOUD_MEMBERSHIP_SLACK)
        return ~excluded

    width = max(len(g.terms) for g in s.generators)
    for axes in grid_lines(s.n, resolution, keep, width):
        yield axes, on_grid(s.contains_axes(axes, CLOUD_MEMBERSHIP_SLACK), axes)


def block_points(axes, shape, flat) -> np.ndarray:
    """The (len(flat), n) points at the flat indices ``flat`` of a ``grid_lines`` block of this shape."""
    i, j = np.unravel_index(flat, shape)
    # 1-D takes: indexing the 2-D axes with an array and an int is slower
    *prefix, line = (x.ravel() for x in axes)
    return np.stack([c[i] for c in prefix] + [line[j]], axis=-1)


def dist_estimate(a: SemialgebraicSet, b: SemialgebraicSet, resolution: int) -> float:
    """Min pairwise distance between the two sample clouds.

    An upper bound on dist(A, B) that tightens as the resolution grows;
    non-increasing under nested grid refinement.  The float is the one an
    exhaustive search over the whole clouds returns: per pair the sum of
    (a_j - b_j)^2 in axis order, then the square root.

    The search is bounded by a pair already found: the A point nearest B's
    centroid and its nearest B point are d0 apart, so the minimum is at most
    d0.  A point farther than d0 from the other cloud's bounding box is in
    no closer pair and is dropped, on both sides.  If the points left share
    a grid point the distance is 0.  Otherwise only boundary points are
    searched: a point with an in-grid axis neighbour outside its own cloud,
    read off one bool per grid point (set for the cloud points within two
    grid steps past d0 of the other box, which covers every survivor's
    neighbours).  In a nearest pair (a, b), a != b, some axis j has
    |a_j - b_j| >= h, the grid step, and the neighbour of a one step towards
    b_j on that axis is h^2 or more closer to b in squared distance, a margin
    far above the rounding of the sums at any resolution the grid budget
    allows; so a is on A's boundary, b on B's, and the float minimum over
    boundary points is the minimum over all points.  A shared point has no
    such axis, hence the test for one first.  The boundary points are cut
    into runs of ``CHUNK_POINTS`` in the clouds' x1-major order; each run of
    the side with fewer meets, in one step, the other side's points left
    once every run, then every point, whose box gap to the run's box
    exceeds the best squared distance so far is dropped.  A box gap is never
    above the distance of a pair it holds, in floats too.  Memory is the
    bools, at most ``GRID_BUDGET`` bytes, plus blocks of ``PAIR_BLOCK`` pairs.
    """
    if a.n != b.n:
        raise ValueError(f"the sets' dimensions differ: {a.n} and {b.n}")
    pa = sample_grid(a, resolution)
    if len(pa) == 0:
        raise EmptySampleError(f"first set has no sample points at resolution {resolution}")
    pb = sample_grid(b, resolution)
    if len(pb) == 0:
        raise EmptySampleError(f"second set has no sample points at resolution {resolution}")
    centroid = [x.mean() for x in pb.T]
    nearest = pa[np.argmin(_squared_gaps(pa, pa, centroid, centroid))]
    best = float(np.min(_squared_gaps(pb, pb, nearest, nearest)))
    if best == 0.0:
        return 0.0
    # a point's squared gap to the other cloud's bounding box is at most its
    # squared distance to every point in it: the relative margin covers the
    # rounding of d0 and of the gaps, and the floor keeps the bound's square
    # from underflowing to 0
    bound = float(np.sqrt(best)) * (1.0 + 2.0**-20) + 1e-150
    # the points within two grid steps past the bound are marked as well: a
    # survivor's axis neighbours lie at most one step farther, so the cut the
    # pruning makes does not show as boundary (a missing mark would only add
    # boundary points, never lose a pair)
    reach = (bound + 4.0 / (resolution - 1)) ** 2
    kept = []
    for points, others in ((pa, pb), (pb, pa)):
        columns = others.T
        gaps = _squared_gaps(points, points, [x.min() for x in columns], [x.max() for x in columns])
        marked = gaps <= reach
        points, gaps = points[marked], gaps[marked]
        kept.append((points, _grid_index(points, resolution), gaps <= bound * bound))
    (pa, index_a, near_a), (pb, index_b, near_b) = kept
    n = a.n
    occupied = np.zeros(resolution**n, dtype=bool)
    occupied[index_a] = True
    if occupied[index_b[near_b]].any():
        return 0.0
    near_a[near_a] = _on_boundary(index_a[near_a], occupied, n, resolution)
    occupied[index_a] = False
    occupied[index_b] = True
    near_b[near_b] = _on_boundary(index_b[near_b], occupied, n, resolution)
    # the side with fewer boundary points gives the outer loop's chunks
    outer, (runs, lows, highs) = (_chunks(p) for p in sorted((pa[near_a], pb[near_b]), key=len))
    for points, lo, hi in zip(*outer):
        candidates = np.flatnonzero(_squared_gaps(lows, highs, lo, hi) <= best)
        if len(candidates):
            others = np.concatenate([runs[c] for c in candidates])
            others = others[_squared_gaps(others, others, lo, hi) <= best]
            if len(others):
                best = min(best, float(np.min(_nearest_squared(points, others))))
    return float(np.sqrt(best))


def _squared_gaps(lows: np.ndarray, highs: np.ndarray, lo, hi) -> np.ndarray:
    # per row, the squared gap from the box [lows, highs] of the (k, n) corners
    # to the box [lo, hi], a row a point and [lo, hi] a point where they are
    # equal; each term is at most the one of any pair of points in the two
    # boxes, as float subtraction is monotone.  Column by column, which beats
    # reductions across (k, n) rows
    total = 0.0
    for low, high, l, h in zip(lows.T, highs.T, lo, hi):
        gap = np.maximum(np.maximum(l - high, low - h), 0.0)
        total = total + gap * gap
    return total


def _grid_index(points: np.ndarray, resolution: int) -> np.ndarray:
    """Row-major flat grid index of each row; the rows are ``grid_axis`` points.

    A coordinate is -1 + i*step rounded once, so scaling back and rounding
    to the nearest integer recovers i exactly.
    """
    flat = np.zeros(len(points), dtype=np.int64)
    for x in points.T:
        flat *= resolution
        flat += np.rint((x + 1.0) * ((resolution - 1) / 2)).astype(np.int64)
    return flat


def _on_boundary(flat: np.ndarray, occupied: np.ndarray, n: int, resolution: int) -> np.ndarray:
    """Row mask of the row-major flat grid indices with an in-grid axis neighbour not ``occupied``."""
    edge = np.zeros(len(flat), dtype=bool)
    stride = 1
    for _ in range(n):
        i = flat // stride % resolution
        for step, inside in ((-stride, i > 0), (stride, i < resolution - 1)):
            edge[inside] |= ~occupied[flat[inside] + step]
        stride *= resolution
    return edge


def _chunks(points: np.ndarray):
    """Runs of ``CHUNK_POINTS`` rows, and the low and high corners of each run's box."""
    starts = np.arange(0, len(points), CHUNK_POINTS)
    runs = np.split(points, starts[1:])
    return runs, np.minimum.reduceat(points, starts), np.maximum.reduceat(points, starts)


def _nearest_squared(points: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Per row of ``points``, the least squared distance to a row of ``cloud``.

    Each pair's sum runs over the axes in order, so its square root is the
    float a kd-tree query returns; pairs are formed ``PAIR_BLOCK`` at a time.
    """
    out = np.full(len(points), np.inf)
    rows = max(1, PAIR_BLOCK // len(cloud))
    cols = max(1, PAIR_BLOCK // rows)
    for i in range(0, len(points), rows):
        for k in range(0, len(cloud), cols):
            # in place: one (rows, cols) array per axis, the first one the total
            pairs = zip(points[i : i + rows].T, cloud[k : k + cols].T)
            first, *rest = (np.subtract.outer(x, y) for x, y in pairs)
            total = np.multiply(first, first, out=first)
            for gap in rest:
                total += np.multiply(gap, gap, out=gap)
            np.minimum(out[i : i + rows], np.min(total, axis=1), out=out[i : i + rows])
    return out


def eps_estimate(p: Polynomial, a: SemialgebraicSet, resolution: int) -> float:
    """(min of p over A samples) / (grid sup-norm of |p| on the box)."""
    if p.is_zero():
        raise ValueError("eps is undefined for the zero polynomial")
    cloud = sample_grid(a, resolution)
    if len(cloud) == 0:
        raise EmptySampleError(f"set has no sample points at resolution {resolution}")
    min_on_a = float(np.min(p.evaluate_many(cloud)))
    return min_on_a / sup_norm_grid(p, resolution)
