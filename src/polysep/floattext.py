"""Python's shortest round-trip float text, for whole arrays at once.

``float_reprs(values)`` gives, for each float64, the bytes of ``repr(float(v))``.
``repr`` finds the shortest digit string that reads back as the same double
with David Gay's bignum ``dtoa``, about a microsecond per float.  Here the
same digits come from exact integer arithmetic in numpy, the technique of
Ryu (Adams, PLDI 2018) and of Grisu3 with its Dragon4 fallback (Loitsch,
PLDI 2010).

A finite v with 0.0001 <= |v| < 1e16 has positional text (a decimal point
position in (-4, 16], in ``dtoa``'s terms).  Write |v| = m 2^(e-53) with
2^52 <= m < 2^53 and pick j so that |v| 10^j = X / 2^t holds 16 to 19 integer
digits, where X = 4m 5^j < 2^107 and 1 <= t < 64.  The doubles next to v lie
at X +- 2 5^j, and a decimal strictly between them reads back as v.  The
digits are the multiple of the largest power 10^r in that interval that is
closest to |v| 10^j, ties to the even one: the shortest, closest string,
which is what ``dtoa`` returns.  Two of ``dtoa``'s refinements change no
digit in this range and are left out.  A decimal on the boundary reads back
as v when m is even, but the boundary is no multiple of 10, and it is an
integer only when |v| 10^j is one too, which is then nearer.  Below a power
of two the gap is half as wide, but the powers of two from 2^-13 to 2^53 are
short decimals whose text the wider interval leaves alone (the tests check
each).  Every other value (zeros, nan, infinities and the scientific
notation of tiny and huge magnitudes) takes ``repr`` itself.
"""

import numpy as np

# values per pass through the integer kernel, which bounds its temporaries
_CHUNK = 4096

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW5 = np.array([5**i for i in range(23)], dtype=_U64)
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
# "0000" .. "9999", each as the four ASCII bytes of one little-endian word half
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16).astype(_U64)
_QUADS = (_PAIRS[:, None] | _PAIRS[None, :] << _U64(16)).ravel()


def float_reprs(values) -> np.ndarray:
    """``repr(float(v)).encode()`` for each float64 v, as an "S24" array.

    The result has the input's shape; 24 bytes holds the longest repr,
    ``-2.2250738585072014e-308``.  Positional values are formatted in chunks
    of 4096 by the integer kernel described in the module docstring;
    every other value, and only those, goes through ``repr``.
    """
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    out = np.empty(flat.shape, "S24")
    for lo in range(0, len(flat), _CHUNK):
        chunk, text = flat[lo : lo + _CHUNK], out[lo : lo + _CHUNK]
        magnitude = np.abs(chunk)
        positional = (magnitude >= 1e-4) & (magnitude < 1e16)  # nan compares false
        if positional.all():
            text[:] = _positional(chunk, magnitude)
            continue
        rest = ~positional
        text[rest] = [repr(v).encode() for v in chunk[rest].tolist()]
        if positional.any():
            text[positional] = _positional(chunk[positional], magnitude[positional])
    return out.reshape(values.shape)


def _positional(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The text of the values v, with x = |v| in [0.0001, 1e16)."""
    fraction, e = np.frexp(x)
    m = (fraction * 2.0**53).astype(_U64)
    # k = floor((e - 1) log10 2) is floor(log10 x) or one less, so x 10^j has
    # 16 to 19 integer digits and the gap between doubles near x, times 10^j,
    # is more than 1: some integer reads back as v.  54 - e keeps t >= 1
    k = ((e.astype(np.int64) - 1) * 78913) >> 18
    j = np.minimum(17 - k, 54 - e)
    t = (55 - e - j).astype(_U64)
    five = _POW5[j]

    # X = 4m 5^j as high and low 64-bit words, from products of 32-bit limbs
    a0, a1 = (m << _U64(2)) & _LOW32, m >> _U64(30)
    b0, b1 = five & _LOW32, five >> _U64(32)
    mid = a0 * b1 + a1 * b0
    low = a0 * b0
    low_sum = low + (mid << _U64(32))
    high = a1 * b1 + (mid >> _U64(32)) + (low_sum < low)
    # x 10^j = q + rem / 2^t
    q = (low_sum >> t) | (high << (_U64(64) - t))
    rem = low_sum & ((_U64(1) << t) - _U64(1))

    # the integers [lo, hi] within half a gap of x, in units of 10^-j
    half_gap = five << _U64(1)
    hi = q + ((rem + half_gap) >> t)
    lo = q - ((half_gap - rem).view(np.int64) >> t.view(np.int64)).view(_U64)

    # r, the largest power 10^r with a multiple in [lo, hi]: if 10^r has one, so
    # has 10^(r-1), so r counts the powers that have one (10^19 has none, as
    # hi < 10^19)
    r = np.zeros(len(x), np.int64)
    for p in range(1, 20):
        fits = (hi // _POW10[p]) * _POW10[p] >= lo
        if not fits.any():
            break
        r += fits

    # the multiple of 10^r closest to x 10^j, ties to even; it is in [lo, hi],
    # as some multiple is and [lo, hi] is symmetric about x 10^j.  Twice the
    # part of x 10^j below 10^r is `twice` plus less than one, exactly `twice`
    # when `sticky` is 0
    unit = _POW10[r]
    digits, dropped = np.divmod(q, unit)
    twice = (dropped << _U64(1)) + (rem >> (t - _U64(1)))
    sticky = rem & ((_U64(1) << (t - _U64(1))) - _U64(1))
    up = (twice > unit) | ((twice == unit) & ((sticky > 0) | (digits & _U64(1) == 1)))
    digits += up.astype(_U64)

    # x = 0.d_1..d_count x 10^point.  Rounding never carries into a new digit
    # (that would put a multiple of 10^(r+1) in [lo, hi]), so the digits of q,
    # 16 to 19, give both
    q_digits = 16 + sum((q >= _U64(10**i)).view(np.int8) for i in (16, 17, 18))
    count = q_digits - r
    point = q_digits - j
    # the text is `before` digits, the point and `after` digits; those digits,
    # "0" before the point and zeros included, are the digits of `whole`
    before = np.maximum(point, 1)
    after = np.maximum(count - point, 1)
    whole = digits * _POW10[np.maximum(point - count + 1, 0)]
    # the same with a 0 for the point: the fraction stays, the rest moves up a
    # digit (whole < 10^17, so 10^17 takes all of it)
    text = whole * _U64(10) - (whole % _POW10[np.minimum(after, 17)]) * _U64(9)

    # its 24 digits, leading zeros included, right-aligned in the first three
    # words of each 48-byte row, four digits to a half word; the point at
    # the row's byte 23 - after
    rows = np.zeros((len(x), 6), _U64)
    rest = text.view(np.int64)
    for word in (2, 1, 0):
        group = rest
        rest = group // 10**8
        group -= rest * 10**8
        upper = group // 10**4
        rows[:, word] = _QUADS[upper] | _QUADS[group - upper * 10**4] << _U64(32)
    ends = np.arange(24, 48 * len(x), 48)
    rows.view(np.uint8).reshape(-1)[ends - 1 - after] = ord(".")

    # each row's text moved to its start: windows[i] is the 24 bytes from byte i
    # of rows, and a row's text is the 24 bytes from its byte 24 - length, NULs
    # after.  The byte before the text is a leading 0 (text has before + after
    # + 1 <= 22 digits), and "0" - 3 is "-"
    negative = (v < 0).view(np.uint8)
    windows = np.ndarray((48 * len(x) - 23,), "S24", rows, strides=(1,))
    out = windows[ends - (before + after + 1 + negative)]
    out.view(np.uint8)[::24] -= negative * np.uint8(3)
    return out
