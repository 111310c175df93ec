import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import CIRCLE, LEMNISCATE, evaluated_points
from polysep import poly, semialg
from polysep.poly import Polynomial, parse
from polysep.semialg import (
    CLOUD_MEMBERSHIP_SLACK,
    EmptySampleError,
    SemialgebraicSet,
    dist_estimate,
    eps_estimate,
    sample_grid,
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
    pts = {tuple(p) for p in cloud}
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
        assert np.all(g.evaluate_many(cloud) >= -1e-12)


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
    # an exponent past int64 has no prefix bound: the sweep evaluates every line
    "exponent-past-int64": (
        lambda: SemialgebraicSet(2, (parse("1/4 - x1^2 - x2^99999999999999999999", 2),)), 101, None
    ),
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
    assert cloud.shape == ref.shape and cloud.dtype == ref.dtype
    assert cloud.tobytes() == ref.tobytes()


def test_sample_grid_checks_fire_before_any_block(unit_disk, monkeypatch):
    def no_work(p, *args):
        raise AssertionError("a generator was bounded or evaluated")

    # the sweep bounds prefixes and evaluates lines through these two alone
    monkeypatch.setattr(Polynomial, "box_upper_bound", no_work)
    monkeypatch.setattr(Polynomial, "evaluate_axes", no_work)
    with pytest.raises(AssertionError, match="a generator was bounded or evaluated"):
        sample_grid(unit_disk, 3)
    with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
        sample_grid(unit_disk, 1)
    monkeypatch.setattr(poly, "GRID_BUDGET", 100)
    with pytest.raises(poly.SampleBudgetError, match="exceeds the budget of 100"):
        sample_grid(unit_disk, 101)


def test_generators_after_an_empty_mask_are_not_evaluated(monkeypatch):
    # the bound of x1 + x2 - x2^2 - 3/4 over x2 is x1 + 1/4, its max on a line
    # x1 - 1/2: lines with x1 < -1/4 are excluded before any evaluation, lines
    # with -1/4 <= x1 < 1/2 are evaluated and empty the mask, so 1 - x2^2 is
    # evaluated on the lines with x1 >= 1/2 alone
    first, second = parse("x1 + x2 - x2^2 - 0.75", 2), parse("1 - x2^2", 2)
    s = SemialgebraicSet(2, (first, second))
    seen = ([], [])  # the x1 values each generator is evaluated at
    evaluate_axes = Polynomial.evaluate_axes

    def counting(p, axes):
        for g, values in zip((first, second), seen):
            if p is g:
                values.extend(np.ravel(axes[0]).tolist())
        return evaluate_axes(p, axes)

    # evaluate_many evaluates on its columns through evaluate_axes
    monkeypatch.setattr(Polynomial, "evaluate_axes", counting)
    monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", 21)  # one x1 line per block
    cloud = sample_grid(s, 21)
    axis = np.linspace(-1.0, 1.0, 21)
    assert seen[0] == axis[axis >= -0.25 - 1e-9].tolist()
    assert seen[1] == axis[axis >= 0.5 - 1e-9].tolist()
    assert cloud.tobytes() == reference_cloud(s, 21).tobytes()
    # contains_many stops the same way once no row is left
    seen[1].clear()
    left = poly.box_grid_points(2, 21)[:21 * 10]
    assert not s.contains_many(left).any()
    assert seen[1] == []
    right = poly.box_grid_points(2, 21)[21 * 10:]
    assert s.contains_many(right).any() and seen[1] == right[:, 0].tolist()


# generators that vanish exactly at grid values, which sit on the membership
# boundary, with the number of variables each needs
EXACT_ZERO_GENERATORS = {"x1 - 0.5": 1, "0.25 - x1^2": 1, "(x2 - 0.25)^2 - 1/16": 2, "x1*x2": 2}


@st.composite
def sparse_sets(draw):
    """A set of one to three sparse generators, n <= 4 and degree <= 4; a resolution; a block height."""
    n = draw(st.integers(1, 4))
    resolution = draw(st.integers(2, {1: 40, 2: 40, 3: 40, 4: 20}[n]))
    monomials = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda m: sum(m) <= 4)
    coeffs = st.floats(-2.0, 2.0, allow_subnormal=False).filter(bool)
    exact = [g for g, needs in EXACT_ZERO_GENERATORS.items() if needs <= n]
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            generators.append(parse(draw(st.sampled_from(exact)), n))
        else:
            terms = draw(st.dictionaries(monomials.map(tuple), coeffs, min_size=1, max_size=6))
            generators.append(Polynomial(n, terms))
    block_rows = draw(st.integers(1, resolution**n))
    return SemialgebraicSet(n, tuple(generators)), resolution, block_rows


@settings(max_examples=300, deadline=None)
@given(sparse_sets())
def test_pruned_sample_grid_is_the_full_grid_cloud_bit_for_bit(case):
    s, resolution, block_rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
        cloud = sample_grid(s, resolution)
    ref = reference_cloud(s, resolution)
    assert cloud.shape == ref.shape and cloud.tobytes() == ref.tobytes()


def test_a_generator_at_exactly_minus_the_slack_keeps_its_point():
    # -slack - |x|^2 is exactly -slack at the grid point 0 and below it elsewhere
    n = 3
    terms = {(0,) * n: -CLOUD_MEMBERSHIP_SLACK}
    terms.update({tuple(2 * (j == i) for j in range(n)): -1.0 for i in range(n)})
    s = SemialgebraicSet(n, (Polynomial(n, terms),))
    cloud = sample_grid(s, 21)
    assert cloud.tolist() == [[0.0, 0.0, 0.0]]
    assert cloud.tobytes() == reference_cloud(s, 21).tobytes()
    # the bound at the prefix (0, 0) is at least the value there, -slack
    g = s.generators[0]
    assert g.box_upper_bound([np.zeros(1), np.zeros(1)])[0] >= -CLOUD_MEMBERSHIP_SLACK


def test_a_non_finite_bound_excludes_nothing(monkeypatch):
    # sum |c| = 1.5e308 leaves no room for the rounding analysis: the bound is
    # inf, although -1e308 x1^2 + 0.5e308 x2^2 < 0 wherever x1^2 > x2^2 / 2
    g = Polynomial(2, {(2, 0): -1e308, (0, 2): 0.5e308})
    s = SemialgebraicSet(2, (g,))
    axis = np.linspace(-1.0, 1.0, 41)
    assert np.all(g.box_upper_bound([axis]) == np.inf)
    sizes = evaluated_points(monkeypatch)
    cloud = sample_grid(s, 41)
    assert sum(sizes) == 41**2
    ref = reference_cloud(s, 41)
    assert 0 < len(ref) < 41**2 and cloud.tobytes() == ref.tobytes()


ONE_VARIABLE_SETS = [("0.09 - (x1 - 0.2)^2",), ("x1^3 - 0.25*x1", "x1 + 0.5"), ("-1 - x1^2",), ("1 - x1^4",)]


@pytest.mark.parametrize("generators", ONE_VARIABLE_SETS)
@pytest.mark.parametrize("resolution, block_rows", [(2, None), (33, None), (1000, 64)])
def test_one_variable_sweeps_match_the_full_grid(generators, resolution, block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
    s = SemialgebraicSet(1, tuple(parse(g, 1) for g in generators))
    assert sample_grid(s, resolution).tobytes() == reference_cloud(s, resolution).tobytes()


# the 3-D balls of the CI console-script step, with the cloud counts verify reports at 201
CI_BALLS = {
    "1/16 - (x1 + 0.55)^2 - x2^2 - x3^2": 65267,
    "0.0484 - (x1 - 0.57)^2 - x2^2 - x3^2": 44473,
}


def test_ci_balls_evaluate_a_tenth_of_the_grid_at_most(monkeypatch):
    sizes = evaluated_points(monkeypatch)
    for text, count in CI_BALLS.items():
        sizes.clear()
        assert len(sample_grid(SemialgebraicSet(3, (parse(text, 3),)), 201)) == count
        assert sum(sizes) <= 0.1 * 201**3


def sup_norm_sweep(p, resolution):
    """The max of |p| over every grid_lines block, no prefix dropped."""
    lines = poly.grid_lines(p.n, resolution, lambda heads: True, 1)
    return max(np.max(np.abs(p.evaluate_axes(axes))) for axes in lines)


def test_ci_ball_sup_norms_evaluate_a_tenth_of_the_grid_at_most(monkeypatch):
    # the bound report's normalization check at 101: the prefix bound is tight
    # for a ball, so past the corners few lines are evaluated
    generators = [parse(text, 3) for text in CI_BALLS]
    full = [sup_norm_sweep(g, 101) for g in generators]
    sizes = evaluated_points(monkeypatch)
    for g, expected in zip(generators, full):
        sizes.clear()
        assert poly.sup_norm_grid(g, 101) == expected
        assert sum(sizes) <= 0.1 * 101**3


def test_golden_sup_norms_evaluate_a_twentieth_of_the_grid_at_most(lemniscate_set, circle_set, monkeypatch):
    # the bound report's normalization check on the golden generators at 101
    generators = [lemniscate_set.generators[0], circle_set.generators[0]]
    full = [sup_norm_sweep(g, 101) for g in generators]
    sizes = evaluated_points(monkeypatch)
    for g, expected in zip(generators, full):
        sizes.clear()
        assert poly.sup_norm_grid(g, 101) == expected
        assert sum(sizes) <= 0.05 * 101**2


def test_lemniscate_evaluates_only_the_lines_its_grouped_bound_reaches(lemniscate_set, monkeypatch):
    # once x1 is fixed, -32/9 x1^2 x2^2 and x2^2 share the tail x2^2, so their
    # heads sum to 1 - 32/9 x1^2 before the tail's range [0, 1] applies; bounded
    # term by term, 145 of the 201 x1 lines were evaluated
    sizes = evaluated_points(monkeypatch)
    cloud = sample_grid(lemniscate_set, 201)
    assert sum(sizes) <= 91 * 201
    assert cloud.tobytes() == reference_cloud(lemniscate_set, 201).tobytes()


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


def unbounded_distance(a, b, resolution):
    """The search dist_estimate bounds: every A point's nearest B point over the whole clouds."""
    cloud_a, cloud_b = sample_grid(a, resolution), sample_grid(b, resolution)
    return float(np.min(cKDTree(cloud_b).query(cloud_a, k=1)[0]))


def random_ball(rng, n):
    return ball(n, rng.uniform(-0.6, 0.6, n).round(3).tolist(), round(rng.uniform(0.1, 0.35), 3))


SHELL = ("0.64 - x1^2 - x2^2 - x3^2", "x1^2 + x2^2 + x3^2 - 0.36")
INNER_SHELL = ("0.25 - x1^2 - x2^2 - x3^2", "x1^2 + x2^2 + x3^2 - 0.09")


def ring_around_disk(rng):
    # the disk sits in the ring's hole: its box lies inside the ring's, so no point is dropped
    ring = SemialgebraicSet(2, (parse("0.64 - x1^2 - x2^2", 2), parse("x1^2 + x2^2 - 0.36", 2)))
    return ring, ball(2, [0.05, 0.0], 0.2)


DISTANCE_CASES = {
    # disks touching at the grid point (0, 0), and half-boxes sharing the line x1 = 0
    "touching-disks": lambda rng: (ball(2, [-0.25, 0.0], 0.25), ball(2, [0.25, 0.0], 0.25)),
    "half-boxes": lambda rng: tuple(SemialgebraicSet(2, (parse(g, 2),)) for g in ("-x1", "x1")),
    "ring-around-disk": ring_around_disk,
    "self": lambda rng: (ball(3, [0.1, 0.0, -0.2], 0.3),) * 2,
    "golden": lambda rng: tuple(SemialgebraicSet(2, (parse(g, 2),)) for g in (LEMNISCATE, CIRCLE)),
    **{f"disks-{i}": lambda rng: (random_ball(rng, 2), random_ball(rng, 2)) for i in range(4)},
    **{f"balls-{i}": lambda rng: (random_ball(rng, 3), random_ball(rng, 3)) for i in range(4)},
    # the boundary search's cases, after the random ones so that their seeds stay
    "ring-around-disk-201": ring_around_disk,
    # the 3-D analogue: the pruning keeps most of the shell, the boundary search decides
    "shell-around-ball": lambda rng: (
        SemialgebraicSet(3, tuple(parse(g, 3) for g in SHELL)),
        ball(3, [0.05, 0.0, 0.0], 0.2),
    ),
    # a hollow shell inside a ball: the first pair, from the ball's point at the
    # shell's centroid, is 0.3 apart, and the shell's boundary points are all
    # interior to the ball, so only the shared-point test gives 0
    "shell-inside-ball": lambda rng: (
        ball(3, [0.0, 0.0, 0.0], 0.8),
        SemialgebraicSet(3, tuple(parse(g, 3) for g in INNER_SHELL)),
    ),
    # many chunks per side: 9 to 58 runs of 64 boundary points, in either argument order
    "ring-around-disk-1001": ring_around_disk,
}


def case_resolution(case):
    """The grid resolution a case name ends in (ring-around-disk-201), else 101."""
    _, _, suffix = case.rpartition("-")
    # the random cases end in their index, 0 to 3, which is no resolution
    return int(suffix) if suffix.isdigit() and int(suffix) > 100 else 101


@pytest.mark.parametrize("case", DISTANCE_CASES)
def test_bounded_distance_is_the_unbounded_search_bit_for_bit(case):
    a, b = DISTANCE_CASES[case](np.random.default_rng(list(DISTANCE_CASES).index(case)))
    resolution = case_resolution(case)
    for first, second in ((a, b), (b, a)):
        assert dist_estimate(first, second, resolution) == unbounded_distance(first, second, resolution)
    if case in ("touching-disks", "half-boxes", "shell-inside-ball", "self"):
        assert dist_estimate(a, b, resolution) == 0.0


def boundary_rows(cloud, resolution):
    """The rows with an in-grid axis neighbour outside the cloud, as coordinate tuples."""
    n = cloud.shape[1]
    index = np.rint((cloud + 1.0) * ((resolution - 1) / 2)).astype(int)
    occupied = np.zeros((resolution,) * n, dtype=bool)
    occupied[tuple(index.T)] = True
    # a neighbour off the grid counts as occupied
    padded = np.pad(occupied, 1, constant_values=True)
    edge = np.zeros(len(cloud), dtype=bool)
    for j in range(n):
        for step in (-1, 1):
            neighbour = index + 1
            neighbour[:, j] += step
            edge |= ~padded[tuple(neighbour.T)]
    return set(map(tuple, cloud[edge].tolist()))


def test_distance_searches_boundary_points_only(monkeypatch):
    # the pruning keeps most of the shell; the pairs are formed from boundary points alone
    shell, inner = DISTANCE_CASES["shell-around-ball"](None)
    boundary = boundary_rows(sample_grid(shell, 101), 101) | boundary_rows(sample_grid(inner, 101), 101)
    searched = set()
    nearest_squared = semialg._nearest_squared

    def recording(points, cloud):
        searched.update(map(tuple, points.tolist()), map(tuple, cloud.tolist()))
        return nearest_squared(points, cloud)

    monkeypatch.setattr(semialg, "_nearest_squared", recording)
    assert dist_estimate(shell, inner, 101) == unbounded_distance(shell, inner, 101)
    assert searched and searched <= boundary


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cloud_distance_is_the_kd_tree_query_bit_for_bit(n):
    # the distance to a cloud is the square root of _nearest_squared, as in dist_estimate
    rng = np.random.default_rng(n)
    cloud = sample_grid(ball(n, [0.1] * n, 0.5), 41)
    queries = rng.uniform(-1.2, 1.2, size=(4000, n))
    # more pairs than one block, and a single point
    assert len(queries) * len(cloud) > semialg.PAIR_BLOCK
    for points in (queries, queries[:1]):
        want = cKDTree(cloud).query(points)[0]
        assert np.sqrt(semialg._nearest_squared(points, cloud)).tolist() == want.tolist()
    # a cloud of more rows than one block: one query point's pairs span several,
    # and the temporaries stay at a block, not 200 rows of 66,536 pairs
    big = rng.uniform(-1.0, 1.0, size=(semialg.PAIR_BLOCK + 1000, n))
    tracemalloc.start()
    try:
        got = semialg._nearest_squared(queries[:200], big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.sqrt(got).tolist() == cKDTree(big).query(queries[:200])[0].tolist()
    assert peak < 4 * 2**20, f"_nearest_squared peaked at {peak / 2**20:.1f} MB"


def test_distances_refuse_mismatched_dimensions(disk_sets):
    a, _ = disk_sets
    with pytest.raises(ValueError, match="dimensions differ"):
        dist_estimate(a, ball(3, [0.0, 0.0, 0.0], 0.5), 21)


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
