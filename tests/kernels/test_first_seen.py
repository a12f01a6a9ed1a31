"""``kernels.first_seen_codes`` against a pure-Python dict oracle.

The kernel numbers the distinct rows of aligned integer key columns in
first-seen order.  It counts narrow ranges directly and densifies wide
ones (``id()`` keys, ``f8`` bit patterns, combined keys whose range
passes the record count) by sorting, so the cases straddle that choice:
empty and one-record inputs, small ranges, id-sized and extreme keys,
float bit patterns, and several columns whose product range exceeds n.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max


def oracle(*keys):
    """First-seen codes and first positions, one row at a time."""
    codes, firsts, seen = [], [], {}
    for position, row in enumerate(zip(*(key.tolist() for key in keys))):
        code = seen.setdefault(row, len(seen))
        if code == len(firsts):
            firsts.append(position)
        codes.append(code)
    return codes, firsts


def check(*keys):
    codes, firsts = kernels.first_seen_codes(*keys)
    expected_codes, expected_firsts = oracle(*keys)
    assert codes.dtype == np.intp and firsts.dtype == np.intp
    assert codes.shape == (len(keys[0]),)
    assert codes.tolist() == expected_codes
    assert firsts.tolist() == expected_firsts


def draws(seed, n, low, high, columns=1):
    rng = np.random.default_rng(seed)
    return [rng.integers(low, high, n, dtype=np.int64) for _ in range(columns)]


@pytest.mark.parametrize("columns", [1, 3])
def test_no_records(columns):
    check(*[np.zeros(0, dtype=np.int64)] * columns)


@pytest.mark.parametrize("value", [0, -7, 2**40, INT64_MIN, INT64_MAX])
def test_one_record(value):
    check(np.asarray([value], dtype=np.int64))
    check(np.asarray([value], dtype=np.int64), np.asarray([3], dtype=np.intp))


@pytest.mark.parametrize("n", [5, 100, 1000])
@pytest.mark.parametrize("values", [1, 2, 7, 64])
def test_small_ranges(n, values):
    check(*draws(n + values, n, 0, values))
    check(*draws(n + values, n, 1_000 - values, 1_000))


def test_identity_sized_keys():
    objects = [object() for _ in range(40)]
    rng = np.random.default_rng(3)
    picks = rng.integers(0, len(objects), 500)
    check(np.fromiter((id(objects[i]) for i in picks), dtype=np.intp, count=500))
    spread = np.arange(40, dtype=np.int64) * 2**44 + 140_000_000_000_000
    check(spread[picks])


def test_negative_and_extreme_keys():
    rng = np.random.default_rng(5)
    # max − min overflows int64 here: the range must be taken exactly.
    extremes = np.asarray([INT64_MIN, INT64_MAX, 0, -1, INT64_MIN + 1, INT64_MAX - 1])
    check(extremes[rng.integers(0, extremes.size, 300)])
    check(rng.integers(-50, 0, 300))
    check(np.asarray([INT64_MIN] * 4 + [INT64_MIN + 2] * 3, dtype=np.int64)[::-1])
    # A narrow range of a narrow dtype still shifts without wrapping.
    check(np.asarray([-128, 127, 0, -128, 127, 5] * 50, dtype=np.int8))


def test_float_bit_patterns():
    values = np.asarray([0.0, -0.0, np.nan, 0.0, 1.5, -0.0, np.nan, -np.inf, 1.5])
    check(values.view(np.int64))
    rng = np.random.default_rng(9)
    check(values[rng.integers(0, values.size, 400)].view(np.int64))


@pytest.mark.parametrize("columns", [1, 2, 3, 4])
@pytest.mark.parametrize("n, values", [(50, 10), (200, 150), (300, 40)])
def test_key_columns_whose_product_range_exceeds_n(columns, n, values):
    assert values**columns > n or columns == 1
    check(*draws(columns * n + values, n, -values, values, columns))


def test_wide_and_narrow_columns_mixed():
    rng = np.random.default_rng(13)
    narrow = rng.integers(0, 4, 600)
    wide = (rng.integers(0, 30, 600) * 2**50).astype(np.int64)
    floats = rng.normal(size=12)[rng.integers(0, 12, 600)].view(np.int64)
    check(narrow, wide)
    check(wide, narrow, floats)
    check(floats, narrow, narrow[::-1].copy(), wide)
