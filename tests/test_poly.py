import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluated_points
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


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "empty polynomial text", 0),
        ("(x1 + 1", "expected ')'", 7),
        ("1/0", "zero denominator", 2),
        ("1/x1", "expected denominator after '/'", 2),
        ("x1 @ 2", "unexpected character '@'", 3),
        ("x1)", "unexpected token ')'", 2),
    ],
)
def test_parse_error_names_its_cause_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text, 2)
    assert str(info.value) == f"{message} (position {position})"
    assert info.value.position == position


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


@st.composite
def text_polynomials(draw):
    # every finite float, subnormals and +-1.7976931348623157e308 included
    n = draw(st.integers(1, 4))
    monomials = st.tuples(*[st.integers(0, 5)] * n)
    coeffs = st.floats(allow_nan=False, allow_infinity=False)
    return Polynomial(n, draw(st.dictionaries(monomials, coeffs, max_size=8)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text_polynomials())
def test_round_trip_on_random_polynomials(p):
    back = parse(p.to_string(), p.n)
    assert back.terms.keys() == p.terms.keys()
    for mono, c in p.terms.items():
        assert np.float64(back.terms[mono]).tobytes() == np.float64(c).tobytes()


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


ONE_E200 = Polynomial(2, {(1, 0): 1e200, (0, 1): 1e200})


@pytest.mark.parametrize(
    "result, terms",
    [
        # sums, products and scalings that round to an exact zero of either sign
        (lambda: parse("x1 + x2", 2) + parse("-x1", 2), {(0, 1): 1.0}),
        (lambda: Polynomial(2, {(1, 0): 1e-200}) * Polynomial(2, {(1, 0): -1e-200}), {}),
        (lambda: parse("x1 - x2", 2) * parse("x1 + x2", 2), {(2, 0): 1.0, (0, 2): -1.0}),
        (lambda: parse("x1 - x2", 2).scale(-0.0), {}),
        (lambda: -Polynomial(2, {(1, 0): 5e-324}) * 0.5, {}),
        (lambda: parse("x1^3 + x2", 2).truncate(2), {(0, 1): 1.0}),
    ],
)
def test_arithmetic_drops_exact_zeros(result, terms):
    p = result()
    assert list(p.terms.items()) == list(terms.items())
    assert all(c != 0.0 and type(c) is float for c in p.terms.values())


@pytest.mark.parametrize(
    "result, message",
    [
        (lambda: ONE_E200 + Polynomial(2, {(1, 0): 1.7e308}) * 1.0 + Polynomial(2, {(1, 0): 1e308}),
         "non-finite coefficient inf for monomial (1, 0)"),
        (lambda: ONE_E200 * ONE_E200, "non-finite coefficient inf for monomial (2, 0)"),
        # x1 x2 collects 1e400 and -1e400: inf - inf
        (lambda: ONE_E200 * Polynomial(2, {(0, 1): 1e200, (1, 0): -1e200}),
         "non-finite coefficient nan for monomial (1, 1)"),
        (lambda: ONE_E200.scale(1e200), "non-finite coefficient inf for monomial (1, 0)"),
        (lambda: ONE_E200 * float("nan"), "non-finite coefficient nan for monomial (1, 0)"),
        (lambda: -ONE_E200 - Polynomial(2, {(0, 1): 1.7e308}) - Polynomial(2, {(0, 1): 1.7e308}),
         "non-finite coefficient -inf for monomial (0, 1)"),
    ],
)
def test_arithmetic_past_the_float_range_raises(result, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        result()


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
    # the max beats the corners' 1 by 5e-4 at x1^2 = 1/2, so prefixes whose
    # bound is only just above the running max must still be evaluated
    for n in (2, 3):
        p = parse("1 + 0.002*x1^2 - 0.002*x1^4", n)
        expected = float(np.max(np.abs(p.evaluate_many(poly.box_grid_points(n, 101)))))
        assert expected > 1.0004 and sup_norm_grid(p, 101) == expected


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


# ---- grid line walk ---------------------------------------------------------

# (n, resolution, block rows): n=2 at 1000 ends blocks mid-grid with a partial
# last block; n=3 at 33 with 500-row blocks has several prefix chunks, with
# 20-row blocks lines longer than a block
CHUNK_SHAPES = [
    (1, 5, None), (1, 1000, 64), (2, 2, None), (2, 1000, None), (3, 33, 500), (3, 33, 20), (4, 31, None)
]


def line_points(axes):
    """A grid_lines block's points as x1-major rows, like box_grid_points."""
    return np.stack([poly.on_grid(x, axes).ravel() for x in axes], axis=-1)


def keep_all(heads):
    return True


def check_line_axes(axes, axis):
    # prefix values down the first dimension, then a run of the axis (the whole
    # x_n axis once there is a prefix) along the second
    *prefix, line = axes
    assert all(x.shape == (len(prefix[0]), 1) for x in prefix)
    assert line.shape[0] == 1 and (not prefix or line.ravel().tobytes() == axis.tobytes())


@pytest.mark.parametrize("n, resolution, block_rows", CHUNK_SHAPES)
def test_grid_lines_keeping_every_prefix_are_box_grid_points_in_whole_lines(n, resolution, block_rows, monkeypatch):
    # grid_lines keeping every prefix: whole x_n lines (for n = 2 the x1-slabs),
    # at most a block height or one line per block, box_grid_points in order
    if block_rows is not None:
        monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
    blocks = list(poly.grid_lines(n, resolution, keep_all, 1))
    axis = np.linspace(-1.0, 1.0, resolution)
    for axes in blocks:
        check_line_axes(axes, axis)
    points = [line_points(axes) for axes in blocks]
    assert all(0 < len(block) <= max(poly.GRID_BLOCK_ROWS, resolution) for block in points)
    # a line or a run of it is cut only at the block height
    height = poly.GRID_BLOCK_ROWS if n == 1 else max(1, poly.GRID_BLOCK_ROWS // resolution) * resolution
    if n <= 2:
        assert all(len(block) == height for block in points[:-1])
    full = poly.box_grid_points(n, resolution)
    joined = np.concatenate(points)
    assert joined.shape == full.shape and joined.tobytes() == full.tobytes()


def test_grid_lines_one_line_per_block_when_a_line_exceeds_the_block_height(monkeypatch):
    # at the real block height a 257^3 grid comes in blocks of whole lines under
    # x1-major prefixes; the whole grid is 400 MB, so only its prefixes are compared
    resolution = 257
    monkeypatch.setattr(poly, "GRID_BUDGET", resolution**3)
    axis = np.linspace(-1.0, 1.0, resolution)
    prefixes = []
    for axes in poly.grid_lines(3, resolution, keep_all, 1):
        check_line_axes(axes, axis)
        assert len(axes[0]) * resolution <= poly.GRID_BLOCK_ROWS
        prefixes.append(np.concatenate(axes[:-1], axis=1))
    assert np.concatenate(prefixes).tobytes() == poly.box_grid_points(2, resolution).tobytes()
    # a block height below one line: one line, here one x1-slab, per block
    monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", resolution - 1)
    blocks = list(poly.grid_lines(2, resolution, keep_all, 1))
    assert len(blocks) == resolution
    for j, axes in enumerate(blocks):
        assert line_points(axes).tobytes() == np.stack([np.full(resolution, axis[j]), axis], axis=-1).tobytes()


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
def test_evaluate_axes_on_grid_lines_is_evaluate_many_bit_for_bit(case):
    p, resolution, block_rows = case
    with pytest.MonkeyPatch.context() as mp:
        # blocks of a few grid_lines lines, down to part of one line per block
        mp.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
        lines = poly.grid_lines(p.n, resolution, keep_all, 1)
        values = [poly.on_grid(p.evaluate_axes(axes), axes).ravel() for axes in lines]
    expected = p.evaluate_many(poly.box_grid_points(p.n, resolution))
    assert np.concatenate(values).tobytes() == expected.tobytes()


def grid_prefix_values(p, resolution, k):
    """Prefixes (x1..xk) of the grid in x1-major order, and p's values under each, one row per prefix."""
    pts = poly.box_grid_points(p.n, resolution)
    return pts[:: resolution ** (p.n - k), :k], p.evaluate_many(pts).reshape(resolution**k, -1)


@settings(max_examples=200, deadline=None)
@given(grid_polynomials(), st.data())
def test_box_upper_bound_covers_every_grid_value_under_its_prefix(case, data):
    p, resolution, _ = case
    k = data.draw(st.integers(0, p.n))
    prefixes, values = grid_prefix_values(p, resolution, k)
    heads = list(prefixes.T)
    bound = np.broadcast_to(p.box_upper_bound(heads), (len(prefixes),))
    assert np.all(bound >= values.max(axis=1))
    # the larger of the bounds of p and -p caps |p|
    magnitude = np.maximum(bound, (-p).box_upper_bound(heads))
    assert np.all(magnitude >= np.abs(values).max(axis=1))


@pytest.mark.parametrize("exponent", [2**53, 10**20])
def test_no_bound_once_the_rounding_count_reaches_2_to_the_53(exponent):
    # gamma_K = K u / (1 - K u) bounds no rounding once K u >= 1, and 10^20 has
    # no int64: both bounds are inf, so the sweeps prune nothing
    p = Polynomial(2, {(0, 0): 0.25, (2, 0): -1.0, (0, exponent): -1.0})
    heads = [np.array([-1.0, 0.0, 0.5])]
    assert np.all(p.box_upper_bound(heads) == np.inf)
    assert np.all((-p).box_upper_bound(heads) == np.inf)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_box_upper_bound_is_tight_for_a_ball_once_x1_is_fixed(k):
    # with x1 in the head, no two tail terms share a variable, so the bound is
    # the max up to the rounding allowance; the odd grid holds the tail maximizer 0
    p = parse("1/4 - (x1 - 1/2)^2 - x2^2 - x3^2", 3)
    prefixes, values = grid_prefix_values(p, 21, k)
    bound = np.broadcast_to(p.box_upper_bound(list(prefixes.T)), (len(prefixes),))
    assert np.all(bound >= values.max(axis=1))
    assert np.all(bound - values.max(axis=1) <= 1e-13)


@pytest.mark.parametrize("n, resolution, block_rows", CHUNK_SHAPES)
def test_sup_norm_grid_matches_the_full_grid(n, resolution, block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
    p = random_polynomial(np.random.default_rng(n * resolution), n, 3, 4)
    full = poly.box_grid_points(n, resolution)
    assert sup_norm_grid(p, resolution) == float(np.max(np.abs(p.evaluate_many(full))))


@settings(max_examples=200, deadline=None)
@given(grid_polynomials())
def test_branch_and_bound_sup_norm_is_the_full_sweep_max_bit_for_bit(case):
    p, resolution, block_rows = case
    with pytest.MonkeyPatch.context() as mp:
        # small block heights cut the walk into many prefix chunks and blocks
        mp.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
        norm = sup_norm_grid(p, resolution)
    assert norm == float(np.max(np.abs(p.evaluate_many(poly.box_grid_points(p.n, resolution)))))


# nothing to prune: a constant and the zero polynomial have one bound on every
# prefix; 2 sum|c| of the last two overflows, so their bound is inf
UNPRUNABLE = {
    "constant": (Polynomial.constant(3, -2.5), False),
    "zero": (Polynomial.zero(3), False),
    "bound-overflow": (Polynomial(3, {(2, 0, 0): -1e308, (0, 2, 1): 0.5e308}), False),
    "value-overflow": (Polynomial(3, {(1, 0, 0): 1.7e308, (0, 3, 0): 1.7e308, (0, 0, 2): 1.0}), True),
}


@pytest.mark.parametrize("case", UNPRUNABLE)
def test_sup_norm_grid_without_a_usable_bound_is_the_full_sweep_max(case, monkeypatch):
    p, overflows = UNPRUNABLE[case]
    full = poly.box_grid_points(3, 21)
    # a sum past the float range is inf, without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = float(np.max(np.abs(p.evaluate_many(full))))
    monkeypatch.setattr(poly, "GRID_BLOCK_ROWS", 2 * 21**2)  # 42 lines per block
    sizes = evaluated_points(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sup_norm_grid(p, 21) == expected
    if case == "bound-overflow":
        # the 2^3 corners that seed the max, then every line
        assert sum(sizes) == 2**3 + 21**3
    if overflows:
        assert expected == np.inf


def test_grid_checks_fire_before_any_block(monkeypatch):
    def no_work(heads):
        raise AssertionError("a prefix was offered")

    # grid_lines checks on the call, not when the first block is drawn
    with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
        poly.grid_lines(2, 1, no_work, 1)
    # the zero polynomial's grid is checked too
    zero = Polynomial.zero(2)
    with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
        sup_norm_grid(zero, 1)
    assert sup_norm_grid(zero, 101) == 0.0
    monkeypatch.setattr(poly, "GRID_BUDGET", 100)  # read when a grid is asked for
    with pytest.raises(SampleBudgetError, match=r"grid of 101\^2 = 10201 points exceeds the budget of 100"):
        poly.grid_lines(2, 101, no_work, 1)
    with pytest.raises(SampleBudgetError):
        sup_norm_grid(zero, 101)


@st.composite
def pruned_walks(draw):
    """n <= 4, a resolution, a block height and, per prefix length, a random kept set of prefixes."""
    n = draw(st.integers(1, 4))
    resolution = draw(st.integers(2, {1: 40, 2: 24, 3: 11, 4: 7}[n]))
    block_rows = draw(st.integers(1, 2 * resolution**n))
    share = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = [rng.random((resolution,) * k) < share for k in range(1, n)]
    return n, resolution, block_rows, tables


@settings(max_examples=200, deadline=None)
@given(pruned_walks())
def test_grid_lines_yields_the_grid_rows_whose_prefixes_are_kept(case):
    n, resolution, block_rows, tables = case
    axis = np.linspace(-1.0, 1.0, resolution)

    def keep(heads):
        # the prefix's grid indices looked up in its length's table
        index = tuple(np.rint((np.asarray(x) + 1.0) * (resolution - 1) / 2.0).astype(int) for x in heads)
        return tables[len(heads) - 1][index]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "GRID_BLOCK_ROWS", block_rows)
        blocks = [line_points(axes) for axes in poly.grid_lines(n, resolution, keep, 1)]
    assert all(0 < len(block) <= max(block_rows, resolution) for block in blocks)
    full = poly.box_grid_points(n, resolution)
    index = np.rint((full + 1.0) * (resolution - 1) / 2.0).astype(int)
    kept = np.ones(len(full), dtype=bool)
    for k, table in enumerate(tables, start=1):
        kept &= table[tuple(index[:, :k].T)]
    joined = np.concatenate(blocks) if blocks else np.empty((0, n))
    assert joined.shape == (int(kept.sum()), n) and joined.tobytes() == full[kept].tobytes()
