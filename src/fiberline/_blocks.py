"""Fixed-size row blocks for the row-wise stages of the sampling pipeline.

Each row of a draw, a frame, a line check or a chord depends on that row
alone, so a stage may run over its rows in slices without changing a byte.
Working one block at a time keeps every temporary in cache: a whole-n
temporary costs more in page faults than in arithmetic.  ``_BLOCK`` is read
at every call, so tests can shrink it to show that results do not depend
on it.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

_BLOCK = 1 << 14  # rows (or words, for the RNG) per block


def blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of ``_BLOCK`` rows covering range(n), the last one
    taking the remainder too: no block is shorter than ``_BLOCK`` unless it
    is all of range(n).  A one-row block would change bytes, since numpy
    sends a one-row matrix product to a BLAS routine that rounds otherwise."""
    step = _BLOCK
    last = max(n - n % step - step, 0)  # where the last block starts
    for start in range(0, last, step):
        yield slice(start, start + step)
    if n:
        yield slice(last, n)


def blocked_max(n: int, f: Callable[[slice], np.ndarray]) -> float:
    """Largest value of the per-row array ``f(s)`` over range(n), one block
    ``s`` at a time: nan if any value is nan, 0.0 when n is 0."""
    return float(np.max([np.max(f(s)) for s in blocks(n)], initial=0.0))
