"""The digit kernels against CPython's ``%`` and ``repr``, value for value.

``fiberline._g17.csv_text`` must give the bytes of the ``%.17g`` row
template, and ``json_text`` those of the ``%r`` record template, for every
table.  Each formats in numpy exactly the values in its range (1e-11 < |x| <
1e17 for CSV, < 1e16 for JSON, or x = 0) and declines the others, which
CPython formats one at a time and which are spliced into the text.  The
suite turns RuntimeWarnings into errors; these tests turn every warning into
one.
"""
import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberline
from fiberline._g17 import _declined, csv_text, json_text

KEYS = ("ux", "uy", "uz", "qx", "qy", "qz")
COLS = len(KEYS)
ROW = ",".join(["%.17g"] * COLS) + "\n"
RECORD = "    {\n" + ",\n".join(f'      "{k}": %r' for k in KEYS) + "\n    }"
HI = {"csv": 1e17, "json": 1e16}
TINY = np.nextafter(0.0, 1.0)
MAX = np.finfo(np.float64).max


def template(table: np.ndarray, fmt: str = "csv") -> str:
    values = tuple(table.ravel().tolist())
    if fmt == "csv":
        return (ROW * len(table)) % values
    return ",\n".join([RECORD] * len(table)) % values


def kernel(table: np.ndarray, fmt: str = "csv") -> str:
    return csv_text(table) if fmt == "csv" else json_text(table)


def in_range(x: np.ndarray, fmt: str = "csv") -> np.ndarray:
    ax = np.abs(x)
    return (ax == 0.0) | ((ax > 1e-11) & (ax < HI[fmt]))


def check(values, fmt: str = "csv") -> bool:
    """The kernel's text of ``values`` (padded with zeros to whole rows)
    equals the template, and the kernel declines exactly the values out of
    range; True when it formats every value itself."""
    x = np.asarray(values, dtype=np.float64).ravel()
    x = np.concatenate([x, np.zeros(-len(x) % COLS)])
    table = x.reshape(-1, COLS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = kernel(table, fmt)
        out = _declined(np.abs(x), HI[fmt])
    assert text == template(table, fmt)
    taken = in_range(x, fmt)
    assert np.array_equal(out, np.flatnonzero(~taken))
    return bool(taken.all())


def signed(rng, x):
    return np.where(rng.random(len(x)) < 0.5, -x, x)


def test_random_bits_in_range():
    rng = np.random.default_rng(1)
    for _ in range(40):
        # random mantissas, binary exponents from just above 1e-11 to 1e17
        m = rng.integers(1 << 52, 1 << 53, 6000, dtype=np.int64)
        x = signed(rng, np.ldexp(m.astype(np.float64),
                                 rng.integers(-89, 4, 6000)))
        x = x[(np.abs(x) > 1e-11) & (np.abs(x) < 1e17)]
        assert check(x)
        # log-uniform over every decimal exponent of the range
        assert check(signed(rng, 10.0 ** rng.uniform(-10.99, 16.99, 6000)))


def test_few_bit_mantissas():
    # short mantissas: exact ties of the 17th digit and trailing zeros
    rng = np.random.default_rng(2)
    for bits in range(1, 25):
        m = rng.integers(1, 1 << bits, 3000).astype(np.float64)
        x = signed(rng, np.ldexp(m, rng.integers(-36, 57 - bits, 3000)))
        x = x[(np.abs(x) > 1e-11) & (np.abs(x) < 1e17)]
        assert check(x)


def test_powers_of_ten_and_neighbours():
    x = 10.0 ** np.arange(-10, 17)
    near = [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf),
            np.nextafter(np.nextafter(x, 0.0), 0.0)]
    assert check(np.concatenate(near + [-v for v in near]))
    # below 1e-11 and from 1e17 up the kernel declines
    assert check([np.nextafter(1e-11, 1.0), np.nextafter(1e17, 0.0)])
    assert not check([1e-11])
    assert not check([1e17])


def test_zeros():
    assert check([0.0, -0.0, 0.0, -0.0, 0.0, 0.0])
    assert check([-0.0, 0.5, 3.0, -12.5, 0.0, 1e16])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_table_has_no_text(fmt):
    # the writers never pass an empty table; the general path gives no text
    assert check([], fmt)
    assert kernel(np.empty((0, COLS)), fmt) == ""


@pytest.mark.parametrize("value", [TINY, -TINY, np.finfo(np.float64).tiny,
                                   1e-12, -1e-300, MAX, -MAX, 1e17, -2e20])
def test_out_of_range_values_decline(value):
    assert not check([0.5, -0.25, value, 1.0, 2.0, 3.0])


def test_random_finite_bits_match_or_decline():
    rng = np.random.default_rng(3)
    taken = 0
    for _ in range(60):
        words = rng.integers(0, 1 << 64, 600, dtype=np.uint64,
                             endpoint=False)
        x = words.view(np.float64)
        x = x[np.isfinite(x)]
        taken += check(x)
        # one value per table: the full double range meets the range's edges
        for v in x[:20]:
            taken += check([v])
    assert taken > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60))
def test_any_finite_doubles(values):
    check(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(min_value=1e-11, max_value=1e17, exclude_min=True,
              exclude_max=True),
    st.floats(min_value=-1e17, max_value=-1e-11, exclude_min=True,
              exclude_max=True),
    st.sampled_from([0.0, -0.0])), min_size=1, max_size=60))
def test_doubles_in_range(values):
    assert check(values)


def _dispatch_hashes(fmt: str) -> tuple[str, str]:
    """The text's hash here, and in a child whose numpy runs without the
    AVX-512 kernels (AVX2 dispatch on this kind of host)."""
    # the exponent guess comes from numpy's log10, whose SIMD code can differ
    # in the last bit between dispatch levels; the text must not
    rng = np.random.default_rng(4)
    x = signed(rng, 10.0 ** rng.uniform(-10.99, np.log10(HI[fmt]) - 0.01,
                                        60000))
    x[::7] = np.nextafter(10.0 ** rng.integers(-10, 17, len(x[::7])), 0.0)
    here = kernel(x.reshape(-1, COLS), fmt)
    assert here == template(x.reshape(-1, COLS), fmt)
    call = "csv_text(x)" if fmt == "csv" else "json_text(x)"
    code = ("import hashlib, sys, numpy as np\n"
            "from fiberline._g17 import csv_text, json_text\n"
            "x = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 6)\n"
            f"text = {call}\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fiberline.__file__)),
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    child = subprocess.run([sys.executable, "-c", code], input=x.tobytes(),
                           capture_output=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    return (hashlib.sha256(here.encode()).hexdigest(),
            child.stdout.decode().strip())


def test_text_does_not_depend_on_cpu_dispatch():
    here, child = _dispatch_hashes("csv")
    assert child == here


# json_text: repr's shortest digits


def test_json_random_bits_in_range():
    rng = np.random.default_rng(11)
    for _ in range(40):
        # random mantissas, binary exponents from just above 1e-11 to 1e16
        m = rng.integers(1 << 52, 1 << 53, 6000, dtype=np.int64)
        x = signed(rng, np.ldexp(m.astype(np.float64),
                                 rng.integers(-89, 1, 6000)))
        x = x[(np.abs(x) > 1e-11) & (np.abs(x) < 1e16)]
        assert check(x, "json")
        # log-uniform over every decimal exponent of the range
        assert check(signed(rng, 10.0 ** rng.uniform(-10.99, 15.99, 6000)),
                     "json")


def test_json_powers_of_two():
    # below a power of two the gap to the next double is half as wide, so
    # a shorter decimal may read back above x but not as far below it
    p = np.ldexp(1.0, np.arange(-36, 54))
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
                        3.0 * p, 0.75 * p])
    x = x[(x > 1e-11) & (x < 1e16)]
    assert check(np.concatenate([x, -x]), "json")


def test_json_few_bit_mantissas():
    # short mantissas: short decimals, ties between two candidates, and
    # halfway digits that read back only when m is even
    rng = np.random.default_rng(12)
    for bits in range(1, 25):
        m = rng.integers(1, 1 << bits, 3000).astype(np.float64)
        x = signed(rng, np.ldexp(m, rng.integers(-36, 54 - bits, 3000)))
        x = x[(np.abs(x) > 1e-11) & (np.abs(x) < 1e16)]
        assert check(x, "json")
    # decimals of few digits, and their neighbours
    k = rng.integers(1, 10 ** 6, 6000).astype(np.float64)
    x = k * 10.0 ** rng.integers(-16, 10, 6000)
    x = x[(x > 1e-11) & (x < 1e16)]
    assert check(np.concatenate([x, np.nextafter(x, 0.0),
                                 np.nextafter(x, np.inf)]), "json")


def test_json_integral_values_zero_and_notation_edges():
    # integral values keep ".0", zero is "0.0" or "-0.0", repr's fixed
    # notation starts at 1e-4, and from 1e16 it writes e+16, which the
    # kernel declines
    ints = np.array([1.0, 2.0, 10.0, 100.0, 12345.0, 2.0 ** 51, 2.0 ** 52,
                     2.0 ** 53, 2.0 ** 53 + 2, 1e15, 9007199254740993.0,
                     9999999999999998.0])
    assert check(np.concatenate([ints, -ints]), "json")
    assert check([0.0, -0.0, 0.0, -0.0, 1.5, -0.0], "json")
    edges = np.array([1e-4, 1e-5, 1e-11, 1e16])
    near = np.concatenate([edges, np.nextafter(edges, 0.0),
                           np.nextafter(edges, np.inf)])
    assert not check(np.concatenate([near, -near]), "json")
    assert check([np.nextafter(1e-11, 1.0), np.nextafter(1e16, 0.0),
                  1e-4, np.nextafter(1e-4, 0.0)], "json")
    assert not check([1e16], "json")
    assert not check([1e-11], "json")


@pytest.mark.parametrize("value", [TINY, -TINY, np.finfo(np.float64).tiny,
                                   1e-12, -1e-300, MAX, -MAX, 1e16, -2e20])
def test_json_out_of_range_values_are_spliced(value):
    assert not check([0.5, -0.25, value, 1.0, 2.0, 3.0], "json")
    # every value declined: the text is CPython's alone
    assert not check(np.full(12, value), "json")


def test_json_random_finite_bits_match_or_decline():
    rng = np.random.default_rng(13)
    taken = 0
    for _ in range(60):
        words = rng.integers(0, 1 << 64, 600, dtype=np.uint64,
                             endpoint=False)
        x = words.view(np.float64)
        x = x[np.isfinite(x)]
        taken += check(x, "json")
        for v in x[:20]:
            taken += check([v], "json")
    assert taken > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60))
def test_json_any_finite_doubles(values):
    check(values, "json")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(min_value=1e-11, max_value=1e16, exclude_min=True,
              exclude_max=True),
    st.floats(min_value=-1e16, max_value=-1e-11, exclude_min=True,
              exclude_max=True),
    st.sampled_from([0.0, -0.0])), min_size=1, max_size=60))
def test_json_doubles_in_range(values):
    assert check(values, "json")


def test_json_text_does_not_depend_on_cpu_dispatch():
    here, child = _dispatch_hashes("json")
    assert child == here
