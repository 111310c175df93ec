import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysep import poly
from polysep.poly import ParseError, Polynomial, SampleBudgetError, parse, sup_norm_grid


def random_polynomial(rng, n, degree, terms):
    out = {}
    for _ in range(terms):
        mono = tuple(int(e) for e in rng.integers(0, degree + 1, size=n))
        out[mono] = float(rng.normal())
    return Polynomial(n, out)


# ---- parsing ---------------------------------------------------------------


def test_parse_sum_of_squares():
    p = parse("x1^2 + x2^2", 2)
    assert len(p.terms) == 2
    assert p.total_degree() == 2
    assert p.terms[(2, 0)] == 1.0
    assert p.terms[(0, 2)] == 1.0


def test_parse_drops_zero_coefficients():
    p = parse("0*x1 + 3", 1)
    assert p.terms == {(0,): 3.0}


def test_parse_lemniscate_generator():
    p = parse("-16/9*(x1^2+x2^2)^2 + x2^2 - x1^2", 2)
    # expansion: -16/9 x1^4 - 32/9 x1^2 x2^2 - 16/9 x2^4 + x2^2 - x1^2
    assert len(p.terms) == 5
    assert p.total_degree() == 4
    assert p.terms[(4, 0)] == pytest.approx(-16.0 / 9.0, rel=1e-15)
    assert p.terms[(2, 2)] == pytest.approx(-32.0 / 9.0, rel=1e-15)
    assert p.terms[(0, 4)] == pytest.approx(-16.0 / 9.0, rel=1e-15)
    assert p.terms[(0, 2)] == 1.0
    assert p.terms[(2, 0)] == -1.0


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("x1 + ", 2)
    assert info.value.position == 5


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(ParseError):
        parse("x3 + 1", 2)
    with pytest.raises(ParseError):
        parse("x0", 2)


def test_parse_rejects_negative_exponent():
    with pytest.raises(ParseError):
        parse("x1^-1", 1)


def test_parse_scientific_notation_and_juxtaposition():
    p = parse("2e-3*x1 + 3(x1 + 1)", 1)
    assert p.terms[(1,)] == pytest.approx(3.002)
    assert p.terms[(0,)] == 3.0


def test_parse_accepts_typeset_minus():
    assert parse("x1 − 1", 1) == parse("x1 - 1", 1)


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        parse("1e400*x1", 1)
    with pytest.raises(ValueError):
        Polynomial(1, {(1,): float("nan")})


def test_round_trip_on_random_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = random_polynomial(rng, n, degree=3, terms=6)
        assert parse(p.to_string(), n) == p


def test_round_trip_zero_polynomial():
    z = Polynomial.zero(2)
    assert parse(z.to_string(), 2) == z


# ---- evaluation ------------------------------------------------------------


def test_evaluate_simple():
    p = parse("x1^2 + x2^2", 2)
    assert p.evaluate([1.0, 1.0]) == 2.0


def test_evaluate_reference_separator_at_origin():
    p = parse("1.92876 - 7.71502*x1 + 10.96977*x2^2", 2)
    assert p.evaluate([0.0, 0.0]) == pytest.approx(1.92876, abs=1e-15)


def test_evaluate_lemniscate_boundary_point():
    # substituting x2^2 = 9/16 into -(16/9) x2^4 + x2^2 gives exactly 0
    p = parse("-16/9*(x1^2+x2^2)^2 + x2^2 - x1^2", 2)
    assert p.evaluate([0.0, 0.75]) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_dimension_mismatch():
    p = parse("x1", 2)
    with pytest.raises(ValueError):
        p.evaluate([1.0])


def test_evaluate_is_bitwise_one_row_of_evaluate_many():
    # a separate scalar path rounds x**e differently from numpy's array power
    rng = np.random.default_rng(11)
    p = random_polynomial(rng, 3, 7, 40)
    assert max(max(m) for m in p.terms) == 7
    pts = rng.uniform(-1.0, 1.0, size=(2000, 3))
    kept = pts.copy()
    for x in pts:
        assert p.evaluate(x) == p.evaluate_many(x[None])[0]
    # the powers are multiplied in place; the caller's points stay untouched
    np.testing.assert_array_equal(p.evaluate_many(pts), [p.evaluate(x) for x in pts])
    np.testing.assert_array_equal(pts, kept)


# ---- arithmetic ------------------------------------------------------------


def test_product_of_variables():
    x1 = Polynomial.variable(2, 1)
    assert x1 * x1 == parse("x1^2", 2)


def test_subtraction_cancels_to_zero():
    p = parse("x1 + x2", 2)
    assert (p - p).terms == {}
    assert (p - p).total_degree() == 0


def test_square_expansion():
    p = parse("(x1^2 + x2^2)^2", 2)
    assert p == parse("x1^4 + 2*x1^2*x2^2 + x2^4", 2)


def test_degree_of_product_adds():
    a = parse("x1^3*x2", 2)
    assert a.total_degree() == 4
    b = parse("x2^2", 2)
    assert (a * b).total_degree() == 6


def test_degree_conventions():
    assert Polynomial.constant(1, 5.0).total_degree() == 0
    assert Polynomial.zero(3).total_degree() == 0
    assert parse("-16/9*(x1^2+x2^2)^2 + x2^2 - x1^2", 2).total_degree() == 4


def test_dimension_mismatch_in_arithmetic():
    with pytest.raises(ValueError):
        parse("x1", 1) + parse("x1", 2)


def test_distributivity_on_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a = random_polynomial(rng, n, 2, 4)
        b = random_polynomial(rng, n, 2, 4)
        c = random_polynomial(rng, n, 2, 4)
        left = a * (b + c)
        right = a * b + a * c
        scale = max(max(abs(v) for v in left.terms.values()), 1.0) if left.terms else 1.0
        assert left.max_coeff_diff(right) <= 1e-12 * scale


def test_product_evaluation_consistency():
    rng = np.random.default_rng(13)
    a = random_polynomial(rng, 3, 3, 6)
    b = random_polynomial(rng, 3, 3, 6)
    prod = a * b
    pts = rng.uniform(-1.0, 1.0, size=(100, 3))
    va = a.evaluate_many(pts)
    vb = b.evaluate_many(pts)
    vp = prod.evaluate_many(pts)
    scale = np.maximum(np.abs(va * vb), 1.0)
    assert np.max(np.abs(vp - va * vb) / scale) <= 1e-10


# ---- box sup-norm ----------------------------------------------------------


def test_sup_norm_attained_at_corner():
    assert sup_norm_grid(parse("x1", 2), 3) == 1.0


def test_sup_norm_corners_only():
    assert sup_norm_grid(parse("x1*x2", 2), 2) == 1.0


def test_sup_norm_interior_maximum():
    assert sup_norm_grid(parse("1 - x1^2", 1), 101) == 1.0


def test_sup_norm_monotone_under_nested_refinement():
    rng = np.random.default_rng(17)
    p = random_polynomial(rng, 2, 4, 8)
    values = [sup_norm_grid(p, r) for r in (3, 5, 9, 17, 33)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo


def test_sup_norm_budget_error(monkeypatch):
    monkeypatch.setattr(poly, "GRID_BUDGET", 100)
    with pytest.raises(SampleBudgetError):
        sup_norm_grid(parse("x1*x2", 2), 101)


def test_grid_requires_resolution_at_least_two():
    with pytest.raises(ValueError):
        poly.box_grid_points(2, 1)


# ---- chunked grid sweeps ----------------------------------------------------

# (n, resolution, block rows): n=2 at 1000 ends blocks mid-grid with a partial
# last block; n=3 at 33 with 500-row blocks has slabs taller than a block
CHUNK_SHAPES = [(1, 5, None), (1, 1000, 64), (2, 2, None), (2, 1000, None), (3, 33, 500), (4, 31, None)]


def slab_points(axes):
    """A grid_slabs block's points as x1-major rows, like box_grid_points."""
    return np.stack([poly.on_grid(x, axes).ravel() for x in axes], axis=-1)


@pytest.mark.parametrize("n, resolution, block_rows", CHUNK_SHAPES)
def test_box_grid_chunks_are_box_grid_points_in_whole_slabs(n, resolution, block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
    slab = resolution ** (n - 1)
    slabs = list(poly.grid_slabs(n, resolution))
    axis = np.linspace(-1.0, 1.0, resolution)
    for axes in slabs:
        # x1 values down the first dimension, the whole axis down each other one
        assert axes[0].shape == (len(axes[0]),) + (1,) * (n - 1)
        assert all(x.ravel().tobytes() == axis.tobytes() for x in axes[1:])
    blocks = [slab_points(axes) for axes in slabs]
    height = max(1, poly.GRID_BLOCK_ROWS // slab) * slab
    assert all(len(block) == height for block in blocks[:-1])
    assert 0 < len(blocks[-1]) <= height and len(blocks[-1]) % slab == 0
    full = poly.box_grid_points(n, resolution)
    joined = np.concatenate(blocks)
    assert joined.shape == full.shape and joined.tobytes() == full.tobytes()


def test_box_grid_chunks_one_slab_per_block_when_a_slab_exceeds_the_block_height(monkeypatch):
    resolution = 257  # one x1-slab holds 257^2 > GRID_BLOCK_ROWS points
    monkeypatch.setattr(poly, "GRID_BUDGET", resolution**3)
    axis = np.linspace(-1.0, 1.0, resolution)
    tail = poly.box_grid_points(2, resolution).tobytes()
    count = 0
    for j, axes in enumerate(poly.grid_slabs(3, resolution)):
        block = slab_points(axes)
        assert np.all(block[:, 0] == axis[j])
        assert block[:, 1:].tobytes() == tail
        count += 1
    assert count == resolution


@st.composite
def grid_polynomials(draw):
    """A polynomial with n <= 4 and exponents <= 7, a grid resolution and a block height."""
    n = draw(st.integers(1, 4))
    resolution = draw(st.integers(2, {1: 64, 2: 24, 3: 11, 4: 7}[n]))
    monomials = st.tuples(*[st.integers(0, 7)] * n)
    coeffs = st.floats(-10.0, 10.0, allow_subnormal=False).filter(bool)
    terms = draw(st.dictionaries(monomials, coeffs, min_size=1, max_size=30))
    block_rows = draw(st.integers(1, resolution**n))
    return Polynomial(n, terms), resolution, block_rows


@settings(max_examples=200, deadline=None)
@given(grid_polynomials())
def test_evaluate_axes_on_grid_slabs_is_evaluate_many_bit_for_bit(case):
    p, resolution, block_rows = case
    with pytest.MonkeyPatch.context() as mp:
        # blocks of a few x1-slabs, down to one slab per block
        mp.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
        values = [poly.on_grid(p.evaluate_axes(axes), axes).ravel() for axes in poly.grid_slabs(p.n, resolution)]
    expected = p.evaluate_many(poly.box_grid_points(p.n, resolution))
    assert np.concatenate(values).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, resolution, block_rows", CHUNK_SHAPES)
def test_sup_norm_grid_matches_the_full_grid(n, resolution, block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
    p = random_polynomial(np.random.default_rng(n * resolution), n, 3, 4)
    full = poly.box_grid_points(n, resolution)
    assert sup_norm_grid(p, resolution) == float(np.max(np.abs(p.evaluate_many(full))))


def test_grid_checks_fire_before_any_block(monkeypatch):
    # grid_slabs checks on the call, not when the first block is drawn
    with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
        poly.grid_slabs(2, 1)
    # the zero polynomial's grid is checked too
    zero = Polynomial.zero(2)
    with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
        sup_norm_grid(zero, 1)
    assert sup_norm_grid(zero, 101) == 0.0
    monkeypatch.setattr(poly, "GRID_BUDGET", 100)  # read when a grid is asked for
    with pytest.raises(SampleBudgetError, match=r"grid of 101\^2 = 10201 points exceeds the budget of 100"):
        poly.grid_slabs(2, 101)
    with pytest.raises(SampleBudgetError):
        sup_norm_grid(zero, 101)
