"""Fixed-size row blocks and the one row dot product of the row-wise stages.

Each row of a draw, a frame, a line check or a chord depends on that row
alone, and ``dot`` sums in a fixed order, so slices of any size give the
same bytes.  numpy takes the one BLAS product left, ``bundle._spin``'s
``g @ rz``, one 3x3 pair at a time, so slicing does not move it either.
Working one block at a time keeps every temporary in cache: a whole-n
temporary costs more in page faults than in arithmetic.  The JSON line
writer takes ``blocks(n, 8)``: a formatted row holds Python floats, tuple
slots and text, about ten times the bytes of a numeric row, so an eighth of
a block of text costs about as much memory as one numeric block.  The CSV
writer takes ``blocks(n, 32)``: its ``%.17g`` kernel holds about 200 bytes
of integer temporaries and character grid per value, and 512-row groups
keep its traced peak near 0.6 MB, well inside the 1.77 MB that the writer's
tests allow for 49 152 lines.  ``_BLOCK`` is read at every call,
so tests can shrink it to show results do not depend on it.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

_BLOCK = 1 << 14  # rows (or words, for the RNG) per block


def blocks(n: int, per: int = 1) -> Iterator[slice]:
    """Consecutive slices of at most ``_BLOCK // per`` rows (at least one)
    covering range(n)."""
    step = max(1, _BLOCK // per)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def blocked_max(n: int, f: Callable[[slice], np.ndarray]) -> float:
    """Largest value of the per-row array ``f(s)`` over range(n), one block
    ``s`` at a time: nan if any value is nan, 0.0 when n is 0."""
    return float(np.max([np.max(f(s)) for s in blocks(n)], initial=0.0))


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., 0] b[..., 0] + a[..., 1] b[..., 1] + ..., added left to right
    and broadcast over the leading axes, with no BLAS call.  For 2 to 4
    columns these are the bits of ``np.sum(a * b, axis=-1)``, except that
    numpy turns a sum of negative zeros into +0.0."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out
