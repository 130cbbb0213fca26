"""csvtext.cells against Python's own '%.17g', byte for byte: 0 mismatches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdqho import csvtext


def assert_formats_like_python(values):
    x = np.asarray(values, dtype=np.float64).ravel()
    want = "".join(map("%.17g\n".__mod__, x.tolist())).encode()
    got = b"".join(csvtext.lines([csvtext.cells(x[i:i + 65536])])
                   for i in range(0, x.size, 65536))
    if got != want:
        pairs = zip(x.tolist(), want.split(b"\n"), got.split(b"\n"))
        bad = [(v, w, g) for v, w, g in pairs if w != g]
        pytest.fail(f"{len(bad)} of {x.size} cells differ, e.g. (value, want, got) {bad[:5]}")


def test_random_bit_patterns_of_every_exponent():
    # 98 random sign/mantissa patterns for each of the 2048 exponent fields:
    # subnormals (field 0), nan and inf (field 2047) included
    rng = np.random.default_rng(20240531)
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 98)
    mantissa = rng.integers(0, 1 << 52, exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, exponent.size, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    assert_formats_like_python(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_formats_like_python(np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))


def test_integers():
    big = 2.0 ** 53
    assert_formats_like_python(np.arange(10 ** 6 + 1, dtype=np.float64))
    assert_formats_like_python([big - 1, big, big + 2, -(big - 1), 1e17, 1.5e17,
                                123456789012345678.0, 2.0 ** 63, 1e22, 1e23, 1e300])


def test_exact_and_near_ties():
    # 640189912981535.6 sits exactly on a tie of its 17th digit
    rng = np.random.default_rng(7)
    base = rng.integers(10 ** 11, 10 ** 16, 4000).astype(np.float64)
    ties = [base + 0.5 / 2 ** j for j in range(6)]
    assert_formats_like_python(np.concatenate([[640189912981535.6], *ties]))


def test_words_and_fixed_notation_edges():
    assert_formats_like_python([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                                1.0, -2.0, 9.5, 10.5, 0.5, 0.0001, 0.00012,
                                9.99999999999999e-5, 1e-5, 1e16, 9999999999999998.0,
                                5e-324, 1e-280, 1e280, 1.7976931348623157e308])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_any_float(values):
    assert_formats_like_python(values)


def test_lines_broadcasts_columns_and_drops_padding():
    t = csvtext.cells([0.5, 10.0])
    x = csvtext.cells([-1.0, 2e-7, 3.25])
    v = csvtext.cells(np.arange(6.0)).reshape(2, 3, -1)
    assert csvtext.lines([t[:, None], x, v]) == (
        b"0.5,-1,0\n0.5,1.9999999999999999e-07,1\n0.5,3.25,2\n"
        b"10,-1,3\n10,1.9999999999999999e-07,4\n10,3.25,5\n")
