import math

import mpmath
import numpy as np
import pytest

from polysep.bounds import (
    BoundParams,
    LogScaleValue,
    generator_norm_warnings,
    jackson_degree,
    lipschitz_constant,
    positivity_certificate_level,
    quadratic_module_complexity,
    separation_degree_bound,
)
from polysep.poly import parse


def mp_complexity(n, t, c, r, deg):
    """High-precision recomputation of the complexity factor as one product."""
    with mpmath.workdps(60):
        value = (
            mpmath.mpf(n) ** 3
            * mpmath.mpf(2) ** (5 * n * mpmath.mpf(t))
            * mpmath.mpf(r) ** n
            * mpmath.mpf(c) ** (2 * n)
            * mpmath.mpf(deg) ** n
        )
        return float(mpmath.log10(value))


def mp_separation_bound(n, t, c, r, deg, jackson_c, dist):
    with mpmath.workdps(60):
        gamma = (
            mpmath.mpf(n) ** 3
            * mpmath.mpf(2) ** (5 * n * mpmath.mpf(t))
            * mpmath.mpf(r) ** n
            * mpmath.mpf(c) ** (2 * n)
            * mpmath.mpf(deg) ** n
        )
        value = (
            gamma
            * mpmath.mpf(jackson_c) ** (3.5 * n * mpmath.mpf(t))
            * mpmath.mpf(n) ** (3 * n * mpmath.mpf(t))
            * (6 / mpmath.mpf(dist)) ** (6 * n * mpmath.mpf(t))
        )
        return float(mpmath.log10(value))


# ---- Lipschitz constant ------------------------------------------------------


def test_lipschitz_values():
    assert lipschitz_constant(0.5) == 6.0
    assert lipschitz_constant(3.0) == 1.0
    with pytest.raises(ValueError):
        lipschitz_constant(0.0)


def test_lipschitz_from_measured_distance(lemniscate_set, circle_set):
    from polysep.semialg import dist_estimate

    dist = dist_estimate(lemniscate_set, circle_set, 201)
    # recorded value: the closest grid pair gives dist = 0.3/sqrt(5)
    assert lipschitz_constant(dist) == pytest.approx(10.0 * math.sqrt(5.0), abs=1e-6)


# ---- approximation degree ------------------------------------------------------


def test_jackson_degree_worked_value():
    # 1 * 6 * 2^(3/2) = 16.97..., so the minimal degree is 17
    assert jackson_degree(6.0, 2, 1.0, 1.0) == 17


def test_jackson_degree_trivial_case():
    assert jackson_degree(1.0, 1, 1.0, 1.0) == 1


def test_jackson_degree_doubling_is_subadditive():
    rng = np.random.default_rng(31)
    for _ in range(200):
        lip = float(rng.uniform(0.01, 50.0))
        n = int(rng.integers(1, 7))
        err = float(rng.uniform(0.01, 2.0))
        c = float(rng.uniform(0.1, 5.0))
        assert jackson_degree(2 * lip, n, err, c) <= 2 * jackson_degree(lip, n, err, c)


def test_jackson_degree_is_minimal():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        lip = float(rng.uniform(0.01, 100.0))
        n = int(rng.integers(1, 8))
        err = float(rng.uniform(0.005, 4.0))
        c = float(rng.uniform(0.05, 10.0))
        m = jackson_degree(lip, n, err, c)
        bound = c * lip * n**1.5
        assert bound / m <= err
        if m >= 2:
            assert bound / (m - 1) > err


# ---- complexity factor ----------------------------------------------------------


def test_complexity_worked_values():
    value = quadratic_module_complexity(2, 1.0, 1.0, 1, 4)
    assert value.log10_value == pytest.approx(math.log10(131072), abs=1e-12)
    value = quadratic_module_complexity(2, 1.0, 1.0, 1, 1)
    assert value.log10_value == pytest.approx(math.log10(8 * 1024), abs=1e-12)


def test_complexity_coefficient_scaling_law():
    base = quadratic_module_complexity(2, 1.0, 1.0, 3, 4)
    scaled = quadratic_module_complexity(2, 1.0, 10.0, 3, 4)
    assert scaled.log10_value - base.log10_value == pytest.approx(2 * 2, abs=1e-12)


def test_certificate_level_reduces_to_complexity():
    base = quadratic_module_complexity(2, 1.0, 1.0, 1, 4)
    level = positivity_certificate_level(2, 1.0, 1.0, 1, 4, 1, 1.0)
    assert level.log10_value == pytest.approx(base.log10_value, abs=1e-12)


def test_certificate_level_worked_value():
    level = positivity_certificate_level(2, 1.0, 1.0, 1, 4, 2, 0.1)
    expected = math.log10(131072) + 7 * math.log10(2.0) + 5.0
    assert level.log10_value == pytest.approx(expected, abs=1e-12)


def test_certificate_level_eps_halving_law():
    nt = 2.0 * 1.0
    a = positivity_certificate_level(2, 1.0, 1.0, 1, 4, 3, 0.4)
    b = positivity_certificate_level(2, 1.0, 1.0, 1, 4, 3, 0.2)
    assert b.log10_value - a.log10_value == pytest.approx(2.5 * nt * math.log10(2), abs=1e-12)


def test_certificate_level_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        positivity_certificate_level(2, 1.0, 1.0, 1, 4, 2, 0.0)


# ---- separation degree ----------------------------------------------------------


def test_separation_degree_worked_value():
    comp = quadratic_module_complexity(2, 1.0, 1.0, 1, 4)
    params = BoundParams(n=2, dist=0.5, loj_exponent=1.0, jackson_constant=1.0)
    bound = separation_degree_bound(params, comp, comp)
    expected = math.log10(131072) + 6 * math.log10(2) + 12 * math.log10(12)
    assert bound.log10_value == pytest.approx(expected, abs=1e-12)
    assert bound.log10_value == pytest.approx(19.8739, abs=1e-4)
    assert bound.pow10_string() == "10^19.8739"


def test_separation_degree_unit_ratio_contributes_nothing():
    comp = quadratic_module_complexity(2, 1.0, 1.0, 1, 4)
    near = BoundParams(n=2, dist=6.0, loj_exponent=1.0, jackson_constant=1.0)
    bound = separation_degree_bound(near, comp, comp)
    expected = comp.log10_value + 6 * math.log10(2)
    assert bound.log10_value == pytest.approx(expected, abs=1e-12)


def test_exponent_one_path_is_plain_substitution():
    comp = quadratic_module_complexity(3, 1.0, 2.0, 2, 3)
    params = BoundParams(n=3, dist=0.25, loj_exponent=1.0, jackson_constant=1.5)
    direct = separation_degree_bound(params, comp, comp)
    oracle = mp_separation_bound(3, 1.0, 2.0, 2, 3, 1.5, 0.25)
    assert direct.log10_value == pytest.approx(oracle, abs=1e-9)


def test_bounds_against_high_precision_oracle():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        t = float(rng.uniform(1.0, 3.0))
        c = float(rng.uniform(0.1, 10.0))
        r = int(rng.integers(1, 6))
        deg = int(rng.integers(1, 9))
        jackson_c = float(rng.uniform(0.2, 5.0))
        dist = float(rng.uniform(0.01, 2.0))

        comp = quadratic_module_complexity(n, t, c, r, deg)
        assert comp.log10_value == pytest.approx(mp_complexity(n, t, c, r, deg), abs=1e-9)

        params = BoundParams(n=n, dist=dist, loj_exponent=t, jackson_constant=jackson_c)
        bound = separation_degree_bound(params, comp, comp)
        oracle = mp_separation_bound(n, t, c, r, deg, jackson_c, dist)
        assert bound.log10_value == pytest.approx(oracle, abs=1e-9)


def test_bound_monotonicity():
    rng = np.random.default_rng(43)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        t = float(rng.uniform(1.0, 2.5))
        c = float(rng.uniform(0.5, 5.0))
        r = int(rng.integers(1, 5))
        deg = int(rng.integers(1, 7))
        jackson_c = float(rng.uniform(0.5, 3.0))
        dist = float(rng.uniform(0.05, 1.0))
        comp = quadratic_module_complexity(n, t, c, r, deg)

        # non-decreasing in the Lojasiewicz data and generator degree
        assert quadratic_module_complexity(n, t + 0.5, c, r, deg).log10_value >= comp.log10_value
        assert quadratic_module_complexity(n, t, 2 * c, r, deg).log10_value >= comp.log10_value
        assert quadratic_module_complexity(n, t, c, r, deg + 1).log10_value >= comp.log10_value

        params = BoundParams(n=n, dist=dist, loj_exponent=t, jackson_constant=jackson_c)
        closer = BoundParams(n=n, dist=dist / 2, loj_exponent=t, jackson_constant=jackson_c)
        assert (
            separation_degree_bound(closer, comp, comp).log10_value
            >= separation_degree_bound(params, comp, comp).log10_value
        )


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(n=1, dist=0.5)
    with pytest.raises(ValueError):
        BoundParams(n=2, dist=-1.0)
    with pytest.raises(ValueError):
        BoundParams(n=2, dist=0.5, loj_exponent=0.5)
    with pytest.raises(ValueError):
        LogScaleValue(float("inf"))


# ---- normalization warnings -----------------------------------------------------


def test_generator_norm_warnings_flag_large_generators():
    small = parse("0.25 - 0.25*x1^2", 1)
    large = parse("4 - 4*x1^2", 1)
    messages = generator_norm_warnings([small, large])
    assert len(messages) == 1
    assert "generator 2" in messages[0]
