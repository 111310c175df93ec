import tracemalloc

import numpy as np
import pytest

from polysep import poly, semialg
from polysep.poly import Polynomial, parse
from polysep.semialg import (
    CLOUD_MEMBERSHIP_SLACK,
    EmptySampleError,
    SemialgebraicSet,
    cloud_distance,
    dist_estimate,
    eps_estimate,
    sample_grid,
    u_eval,
)


@pytest.fixture
def unit_disk():
    return SemialgebraicSet(2, (parse("1 - x1^2 - x2^2", 2),))


# ---- membership ------------------------------------------------------------


def test_membership_unit_disk(unit_disk):
    assert unit_disk.contains([0.0, 0.0])
    assert not unit_disk.contains([1.0, 1.0])


def test_membership_lemniscate_interior(lemniscate_set):
    # generator value at (0, 0.7) is 0.49 - (16/9) * 0.49^2 = 0.0632... > 0
    assert lemniscate_set.contains([0.0, 0.7])
    g = lemniscate_set.generators[0]
    assert g.evaluate([0.0, 0.7]) == pytest.approx(0.0632, abs=5e-5)


def test_membership_dimension_mismatch(unit_disk):
    with pytest.raises(ValueError):
        unit_disk.contains([0.0])


def test_contains_agrees_with_contains_many_at_zero_slack(lemniscate_set):
    box = SemialgebraicSet(2, (parse("1 - x1^2", 2), parse("1/4 - x2^2", 2)))
    pts = poly.box_grid_points(2, 41)  # hits the boundaries x1 = +-1, x2 = +-1/2 exactly
    for s in (lemniscate_set, box):
        mask = s.contains_many(pts, 0.0)
        assert mask.any() and not mask.all()
        assert [s.contains(x) for x in pts] == mask.tolist()


def test_set_requires_generators():
    with pytest.raises(ValueError):
        SemialgebraicSet(2, ())
    with pytest.raises(ValueError):
        SemialgebraicSet(2, (poly.Polynomial.zero(2),))


# ---- sampling --------------------------------------------------------------


def test_sample_unit_disk_coarse(unit_disk):
    cloud = sample_grid(unit_disk, 3)
    assert len(cloud) == 5  # center plus the four edge midpoints
    pts = {tuple(p) for p in cloud.points}
    assert pts == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}


def test_sample_empty_set():
    empty = SemialgebraicSet(1, (parse("-1 - x1^2", 1),))
    assert len(sample_grid(empty, 33)) == 0


def test_sample_full_box():
    box = SemialgebraicSet(2, (parse("1 - x1^2", 2), parse("1 - x2^2", 2)))
    assert len(sample_grid(box, 3)) == 9


def test_cloud_points_pass_membership(lemniscate_set):
    cloud = sample_grid(lemniscate_set, 51)
    assert len(cloud) > 0
    for g in lemniscate_set.generators:
        assert np.all(g.evaluate_many(cloud.points) >= -1e-12)


def reference_cloud(s, resolution):
    """The whole grid at once, then one mask: what sample_grid must reproduce."""
    pts = poly.box_grid_points(s.n, resolution)
    return pts[s.contains_many(pts, CLOUD_MEMBERSHIP_SLACK)]


def ball(n, center, radius):
    terms = " - ".join(f"(x{i + 1} - ({c}))^2" for i, c in enumerate(center))
    return SemialgebraicSet(n, (parse(f"{radius}^2 - {terms}", n),))


# n=2 at 1000 ends blocks mid-grid with a partial last block; n=3 at 33 with
# 500-row blocks has slabs taller than a block
SWEEP_CASES = {
    "n1": (lambda: ball(1, [0.2], 0.3), 1000, 64),
    "n2-r1000": (lambda: ball(2, [0.5, 0.0], 0.25), 1000, None),
    "n3-slab-over-block": (lambda: ball(3, [0.1, -0.2, 0.3], 0.6), 33, 500),
    "n4-r31": (lambda: ball(4, [0.5, 0.0, 0.0, 0.0], 0.45), 31, None),
    "multi-generator": (
        lambda: SemialgebraicSet(
            3, (parse("1 - x1^2 - x2^2 - x3^2", 3), parse("x1*x2 + x3", 3), parse("x2 - x3^3", 3))
        ),
        101,
        None,
    ),
    "empty": (lambda: SemialgebraicSet(2, (parse("-1 - x1^2", 2),)), 1000, None),
    # an x1-free term first and an x1-only term last: the running sum reaches
    # the full slab before the x1 terms are added; two x1 values per block
    "x1-terms-last": (
        lambda: SemialgebraicSet(
            3, (Polynomial(3, {(0, 2, 0): -1.0, (0, 0, 2): -1.0, (0, 0, 0): 0.3, (1, 0, 0): 0.2, (2, 0, 0): -1.0}),)
        ),
        20,
        1000,
    ),
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sample_grid_matches_the_full_grid(case, monkeypatch):
    make_set, resolution, block_rows = SWEEP_CASES[case]
    if block_rows is not None:
        monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
    s = make_set()
    cloud = sample_grid(s, resolution)
    ref = reference_cloud(s, resolution)
    assert (len(ref) == 0) == (case == "empty")
    assert cloud.points.shape == ref.shape and cloud.points.dtype == ref.dtype
    assert cloud.points.tobytes() == ref.tobytes()


def test_sample_grid_checks_fire_before_any_block(unit_disk, monkeypatch):
    def no_blocks(n, resolution):
        raise AssertionError("a block was made")

    monkeypatch.setattr(poly, "_slabs", no_blocks)
    with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
        sample_grid(unit_disk, 1)
    monkeypatch.setattr(poly, "GRID_BUDGET", 100)
    with pytest.raises(poly.SampleBudgetError, match="exceeds the budget of 100"):
        sample_grid(unit_disk, 101)


def test_generators_after_an_empty_mask_are_not_evaluated(monkeypatch):
    # x1 >= 0.5 empties every x1-slab left of 0.5, where 1 - x2^2 is skipped
    first, second = parse("x1 - 0.5", 2), parse("1 - x2^2", 2)
    s = SemialgebraicSet(2, (first, second))
    seen = []  # the x1 values the second generator is evaluated at
    evaluate_axes = Polynomial.evaluate_axes

    def counting(p, axes):
        if p is second:
            seen.extend(np.ravel(axes[0]).tolist())
        return evaluate_axes(p, axes)

    # evaluate_many evaluates on its columns through evaluate_axes
    monkeypatch.setattr(Polynomial, "evaluate_axes", counting)
    monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", 21)  # one x1-slab per block
    cloud = sample_grid(s, 21)
    axis = np.linspace(-1.0, 1.0, 21)
    assert seen == axis[axis >= 0.5 - CLOUD_MEMBERSHIP_SLACK].tolist()
    assert cloud.points.tobytes() == reference_cloud(s, 21).tobytes()
    # contains_many stops the same way once no row is left
    seen.clear()
    left = poly.box_grid_points(2, 21)[:21 * 10]
    assert not s.contains_many(left).any()
    assert seen == []
    right = poly.box_grid_points(2, 21)[21 * 10:]
    assert s.contains_many(right).any() and seen == right[:, 0].tolist()


def test_grid_sweeps_at_201_cubed_keep_memory_to_a_block():
    # the whole 201^3 grid alone is 195 MB; a block and the kept rows are a few MB
    s = ball(3, [0.5, 0.0, 0.0], 0.25)
    sweeps = {
        "sample_grid": lambda: len(sample_grid(s, 201)),
        "sup_norm_grid": lambda: poly.sup_norm_grid(s.generators[0], 201),
    }
    for name, sweep in sweeps.items():
        tracemalloc.start()
        try:
            assert sweep() > 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MB"


# ---- distance --------------------------------------------------------------


def test_disk_distance(disk_sets):
    a, b = disk_sets
    # radius-1/4 disks centered at (-1/2, 0) and (1/2, 0): gap is exactly 1/2
    # and the resolution-201 grid contains the two closest points
    assert dist_estimate(a, b, 201) == pytest.approx(0.5, abs=1e-12)


def test_distance_of_set_to_itself(disk_sets):
    a, _ = disk_sets
    assert dist_estimate(a, a, 101) == 0.0


def test_distance_empty_cloud(disk_sets):
    a, _ = disk_sets
    empty = SemialgebraicSet(2, (parse("-1 - x1^2", 2),))
    with pytest.raises(EmptySampleError):
        dist_estimate(a, empty, 51)


def test_distance_empty_first_cloud_skips_the_second_sweep(disk_sets, monkeypatch):
    a, _ = disk_sets
    empty = SemialgebraicSet(2, (parse("-1 - x1^2", 2),))
    sampled = []

    def counting(s, resolution):
        sampled.append(s)
        return sample_grid(s, resolution)

    monkeypatch.setattr(semialg, "sample_grid", counting)
    with pytest.raises(EmptySampleError, match="first set has no sample points at resolution 51"):
        dist_estimate(empty, a, 51)
    assert sampled == [empty]


def test_distance_non_increasing_under_refinement(lemniscate_set, circle_set):
    values = [dist_estimate(lemniscate_set, circle_set, r) for r in (33, 65, 129)]
    for lo, hi in zip(values, values[1:]):
        assert hi <= lo + 1e-12


def test_lemniscate_circle_distance_vs_random_oracle(lemniscate_set, circle_set):
    grid_value = dist_estimate(lemniscate_set, circle_set, 201)
    assert grid_value == pytest.approx(0.1341640786499874, abs=1e-9)

    # randomized brute force: one million membership-filtered pairs
    rng = np.random.default_rng(20240811)

    def sample_points(s, count):
        chunks = []
        total = 0
        while total < count:
            pts = rng.uniform(-1.0, 1.0, size=(20000, 2))
            mask = np.ones(len(pts), dtype=bool)
            for g in s.generators:
                mask &= g.evaluate_many(pts) >= 0.0
            chunks.append(pts[mask])
            total += len(chunks[-1])
        return np.concatenate(chunks)[:count]

    pa = sample_points(lemniscate_set, 1000)
    pb = sample_points(circle_set, 1000)
    diff = pa[:, None, :] - pb[None, :, :]
    oracle = float(np.sqrt((diff**2).sum(axis=-1)).min())
    # both are upper bounds on the true distance; the denser grid is tighter
    assert grid_value <= oracle + 1e-12
    assert abs(grid_value - oracle) <= 0.02


# ---- continuous separator u ------------------------------------------------


def test_u_on_cloud_points(disk_sets):
    a, b = disk_sets
    cloud = sample_grid(a, 101)
    dist_ab = dist_estimate(a, b, 101)
    assert u_eval(cloud.points[0], cloud, dist_ab) == pytest.approx(2.0, abs=1e-12)


def test_u_scaled_distances(disk_sets):
    a, _ = disk_sets
    cloud = sample_grid(a, 101)
    # pick any point and pretend dist(A, B) equals its cloud distance
    x = np.array([0.9, 0.9])
    d = float(cloud_distance(x, cloud)[0])
    assert u_eval(x, cloud, d) == pytest.approx(-1.0, abs=1e-12)
    assert u_eval(x, cloud, 3.0 * d) == pytest.approx(1.0, abs=1e-12)


def test_u_requires_positive_distance(disk_sets):
    a, _ = disk_sets
    cloud = sample_grid(a, 51)
    with pytest.raises(ValueError):
        u_eval([0.0, 0.0], cloud, 0.0)


def test_u_is_lipschitz(lemniscate_set, circle_set):
    cloud = sample_grid(lemniscate_set, 101)
    dist_ab = dist_estimate(lemniscate_set, circle_set, 101)
    lipschitz = 3.0 / dist_ab
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.0, 1.0, size=(1000, 2))
    ys = rng.uniform(-1.0, 1.0, size=(1000, 2))
    gap = np.abs(u_eval(xs, cloud, dist_ab) - u_eval(ys, cloud, dist_ab))
    assert np.all(gap <= lipschitz * np.linalg.norm(xs - ys, axis=1) + 1e-9)


def test_u_below_minus_one_far_from_cloud(lemniscate_set, circle_set):
    cloud = sample_grid(lemniscate_set, 101)
    dist_ab = dist_estimate(lemniscate_set, circle_set, 101)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1.0, 1.0, size=(500, 2))
    far = cloud_distance(xs, cloud) >= dist_ab
    assert far.sum() > 0
    values = u_eval(xs, cloud, dist_ab)
    assert np.all(values[far] <= -1.0 + 1e-12)


# ---- normalized minimum eps ------------------------------------------------


def test_eps_of_constant_one(unit_disk):
    one = poly.Polynomial.constant(2, 1.0)
    assert eps_estimate(one, unit_disk, 51) == 1.0


def test_eps_on_box_face():
    face = SemialgebraicSet(1, (parse("x1 - 1", 1),))
    assert eps_estimate(parse("x1", 1), face, 41) == 1.0


def test_eps_affine_on_disk(unit_disk):
    # min of 2 + x1 on the disk is 1 (attained at x1 = -1), box max is 3
    value = eps_estimate(parse("2 + x1", 2), unit_disk, 201)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_eps_errors(unit_disk):
    with pytest.raises(ValueError):
        eps_estimate(poly.Polynomial.zero(2), unit_disk, 51)
    empty = SemialgebraicSet(2, (parse("-1 - x1^2", 2),))
    with pytest.raises(EmptySampleError):
        eps_estimate(poly.Polynomial.constant(2, 1.0), empty, 51)
