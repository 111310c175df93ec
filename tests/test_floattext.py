import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polysep.floattext import _CHUNK, float_reprs


def assert_reprs(values):
    """Every element of float_reprs(values) is repr(float(v)).encode()."""
    values = np.asarray(values, dtype=np.float64)
    got = float_reprs(values)
    assert got.dtype == np.dtype("S24") and got.shape == values.shape
    want = [repr(v).encode() for v in values.ravel().tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.ravel().tolist(), got.ravel().tolist(), want) if g != w]
    assert not bad, bad[:5]


@given(st.lists(st.floats(), max_size=64))
def test_any_float(values):
    # floats() draws nan, the infinities, both zeros and subnormals
    assert_reprs(values)


@settings(max_examples=200)
@given(st.lists(st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4), min_size=1, max_size=64))
def test_positional_floats(values):
    assert_reprs(values)


def _neighbours(centres):
    # the centres with their +-1 and +-2 ulp neighbours, and the negatives of all
    below = np.nextafter(centres, 0.0)
    above = np.nextafter(centres, np.inf)
    ring = [np.nextafter(below, 0.0), below, centres, above, np.nextafter(above, np.inf)]
    return np.concatenate(ring + [-x for x in ring])


def test_neighbours_of_powers_of_two_and_ten():
    # the edges of binades (where the gap below is half the gap above) and of
    # decimal magnitudes (where the digit count and the notation change)
    assert_reprs(_neighbours(np.ldexp(1.0, np.arange(-20, 61))))
    assert_reprs(_neighbours(10.0 ** np.arange(-6, 19)))


def test_exact_decimal_ties():
    # a / 2^b with a odd and b = 17 - p near 10^p has 18 significant digits, the
    # last a 5, and a half-gap to its neighbours wider than 5 units of the 18th:
    # both 17-digit roundings read back, and repr keeps the even one
    values = []
    for p in range(-3, 16):
        b = 17 - p
        start = int(10.0**p * 2**b) | 1
        values.append((start + 2 * np.arange(500)) / 2.0**b)
    assert_reprs(np.concatenate(values))
    assert float_reprs([1 + 3 * 2**-17]).tolist() == [b"1.0000228881835938"]


def test_random_bit_patterns():
    rng = np.random.default_rng(20260)
    assert_reprs(rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64))


def test_shapes_and_chunk_edges():
    assert float_reprs([]).shape == (0,)
    assert float_reprs([-0.0, 0.0, -np.inf, np.nan]).tolist() == [b"-0.0", b"0.0", b"-inf", b"nan"]
    assert_reprs(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
    # a fallback value on each side of a chunk boundary
    values = np.linspace(-3.0, 3.0, 2 * _CHUNK + 3)
    values[[_CHUNK - 1, _CHUNK, 2 * _CHUNK]] = [0.0, np.nan, 1e-300]
    assert_reprs(values)
