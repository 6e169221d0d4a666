"""The %.17g kernel against CPython's ``%`` template, value for value.

``fiberline._g17.csv_text`` must give the bytes of the template for every
table it accepts, and must decline (return None) exactly when a value is
outside its range: 1e-11 < |x| < 1e17, or x = 0.  The suite turns
RuntimeWarnings into errors; these tests turn every warning into one.
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
from fiberline._g17 import csv_text

COLS = 6
ROW = ",".join(["%.17g"] * COLS) + "\n"
TINY = np.nextafter(0.0, 1.0)
MAX = np.finfo(np.float64).max


def template(table: np.ndarray) -> str:
    return (ROW * len(table)) % tuple(table.ravel().tolist())


def in_range(x: np.ndarray) -> bool:
    ax = np.abs(x)
    return bool(np.all((ax == 0.0) | ((ax > 1e-11) & (ax < 1e17))))


def check(values) -> bool:
    """csv_text of ``values`` (padded with zeros to whole rows) equals the
    template, or is None exactly when a value is out of range; True when the
    kernel took the table."""
    x = np.asarray(values, dtype=np.float64).ravel()
    x = np.concatenate([x, np.zeros(-len(x) % COLS)])
    table = x.reshape(-1, COLS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = csv_text(table)
    if not in_range(x):
        assert text is None
        return False
    assert text == template(table)
    return True


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


def test_text_does_not_depend_on_cpu_dispatch():
    # the exponent guess comes from numpy's log10, whose SIMD code can differ
    # in the last bit between dispatch levels; the text must not
    rng = np.random.default_rng(4)
    x = signed(rng, 10.0 ** rng.uniform(-10.99, 16.99, 60000))
    x[::7] = np.nextafter(10.0 ** rng.integers(-10, 17, len(x[::7])), 0.0)
    here = hashlib.sha256(csv_text(x.reshape(-1, COLS)).encode()).hexdigest()
    code = ("import hashlib, sys, numpy as np\n"
            "from fiberline._g17 import csv_text\n"
            "x = np.frombuffer(sys.stdin.buffer.read())\n"
            "text = csv_text(x.reshape(-1, 6))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fiberline.__file__)),
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    child = subprocess.run([sys.executable, "-c", code], input=x.tobytes(),
                           capture_output=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout.decode().strip() == here
