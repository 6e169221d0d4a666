"""Directed lines in R^3, the slope-intercept chart, and the line measure.

A directed line is stored as ``(u, foot)`` with u the unit direction and
foot the point of the line closest to the origin (so u . foot = 0).  Lines
that are not horizontal also admit the chart

    x = a z + p,   y = b z + q,

and in these coordinates the rigid-motion-invariant measure on lines has
density ``(1 + a^2 + b^2)^-2 da db dp dq`` (unnormalized).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._blocks import blocked_max, blocks, dot
from .errors import NotUnit

__all__ = [
    "DirectedLine",
    "slope_to_directed",
    "point_at",
    "lines_to_records",
    "write_lines",
]

_UNIT_TOL = 1e-12
_FOOT_TOL = 1e-9
_FOOT_REL_TOL = 5e-12


@dataclass(frozen=True, eq=False)
class DirectedLine:
    """Line(s) as unit direction u and foot point, with u . foot = 0.

    Both fields are float arrays of shape (3,) for a single line or (n, 3)
    for a batch.  Construction validates |u| = 1 to 1e-12 and orthogonality
    of the foot as |u . foot| <= max(1e-9, 5e-12 |foot|).
    """

    u: np.ndarray
    foot: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        foot = np.asarray(self.foot, dtype=np.float64)
        if u.shape != foot.shape or u.shape[-1] != 3 or u.ndim not in (1, 2):
            raise ValueError("u and foot must both have shape (3,) or (n, 3)")
        _check_rows(np.atleast_2d(u), np.atleast_2d(foot))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "foot", foot)

    @property
    def is_batch(self) -> bool:
        return self.u.ndim == 2

    def __len__(self) -> int:
        return self.u.shape[0] if self.is_batch else 1


def _check_rows(u: np.ndarray, foot: np.ndarray) -> None:
    """DirectedLine's checks on (n, 3) rows, one block at a time: finite,
    then unit, then orthogonal, each over all rows; a message carries the
    worst value over all rows."""
    n = len(u)
    if not all(np.all(np.isfinite(u[s])) and np.all(np.isfinite(foot[s]))
               for s in blocks(n)):
        raise ValueError("line coordinates must be finite")
    worst = blocked_max(
        n, lambda s: np.abs(np.sqrt(dot(u[s], u[s])) - 1.0))
    if not worst <= _UNIT_TOL:
        raise NotUnit(f"direction norm off by {worst:.3e}")

    def along(s):
        return np.abs(dot(u[s], foot[s]))

    def off(s):
        # rounding in u and foot leaves |u . foot| up to ~5e-13 |foot| on far
        # feet; hypot rescales as it goes, so |foot| cannot overflow
        fb = foot[s]
        nrm = np.hypot(np.hypot(fb[:, 0], fb[:, 1]), fb[:, 2])
        return ~(along(s) <= np.maximum(_FOOT_TOL, _FOOT_REL_TOL * nrm))

    # no row fails while every |u . foot| is within _FOOT_TOL, and then the
    # hypot pass is skipped
    worst = blocked_max(n, along)
    if not worst <= _FOOT_TOL and blocked_max(n, off):
        raise ValueError(
            f"foot not orthogonal to direction (|u.foot| up to {worst:.3e})"
        )


def _unit_and_length(v, what: str) -> tuple[np.ndarray, float]:
    """The finite nonzero 3-vector v at unit length, and its length (inf
    past the largest double).  The largest component is divided out first,
    so the squares neither overflow nor underflow."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    big = float(np.max(np.abs(v)))
    if not np.isfinite(big) or big <= 0.0:
        raise ValueError(f"{what} must be a finite nonzero vector")
    v = v / big
    nrm = float(np.sqrt(dot(v, v)))
    return v / nrm, big * nrm


def slope_to_directed(a, b, p, q) -> DirectedLine:
    """The line(s) x = a z + p, y = b z + q as (u, foot).

    a, b, p, q are finite floats or (n,) arrays of one shape.  The direction
    is (a, b, 1)/sqrt(1 + a^2 + b^2) (always pointing to z > 0) and the foot
    is the projection of (p, q, 0) onto the plane orthogonal to u.
    """
    a, b, p, q = (np.asarray(v, dtype=np.float64) for v in (a, b, p, q))
    if not a.shape == b.shape == p.shape == q.shape or a.ndim > 1:
        raise ValueError("a, b, p, q must be scalars or 1-d of one shape")
    if not all(np.all(np.isfinite(v)) for v in (a, b, p, q)):
        raise ValueError("slope coordinates must be finite")
    s = np.sqrt(1.0 + a * a + b * b)
    u = np.stack([a / s, b / s, 1.0 / s], axis=-1)
    v = np.stack([p, q, np.zeros_like(p)], axis=-1)
    foot = v - dot(v, u)[..., None] * u
    return DirectedLine(u, foot)


def point_at(dl: DirectedLine, t) -> np.ndarray:
    """Point(s) foot + t u; t is a scalar or an (n,) array matching a batch."""
    t = np.asarray(t, dtype=np.float64)
    return dl.foot + t[..., None] * dl.u


_COLUMNS = ("ux", "uy", "uz", "qx", "qy", "qz")


def lines_to_records(dl: DirectedLine) -> list[dict]:
    """Plain-dict rows {ux, uy, uz, qx, qy, qz}; q* is the foot point."""
    table = np.concatenate([np.atleast_2d(dl.u), np.atleast_2d(dl.foot)], axis=1)
    return [dict(zip(_COLUMNS, row)) for row in table.tolist()]


_CSV_HEADER = ",".join(_COLUMNS) + "\n"


def _tables(parts) -> Iterator[np.ndarray]:
    """The (rows, 6) _COLUMNS table of each group of ``blocks(len(dl), 32)``
    rows of each DirectedLine ``dl`` in ``parts``, in order."""
    for dl in parts:
        u, foot = np.atleast_2d(dl.u), np.atleast_2d(dl.foot)
        for s in blocks(len(u), 32):
            yield np.concatenate([u[s], foot[s]], axis=1)


# Both writers import the digit kernel inside, so that runs writing no lines
# never load it: imported with this module, it moved the heap layout of
# `chord --threads 2` runs, whose peak RSS then read 47.9 MB instead of
# 44-45 MB in a quarter of calls.


def _csv_chunks(parts, manifest: dict) -> Iterator[str]:
    comment = json.dumps(manifest, separators=(",", ":"))
    yield f"# manifest: {comment}\n" + _CSV_HEADER
    from ._g17 import csv_text

    for table in _tables(parts):
        yield csv_text(table)


def _json_chunks(parts, manifest: dict) -> Iterator[str]:
    head = json.dumps({"manifest": manifest, "lines": []}, indent=2)
    if not any(len(dl) for dl in parts):
        yield head + "\n"
        return
    # head ends with '"lines": []\n}'; open the list and splice the records in
    yield head[:-len("]\n}")] + "\n"
    from ._g17 import json_text

    # records are joined by ",\n" across group and part edges too; the
    # separator is its own chunk, so no group's text is copied to prepend it
    for i, table in enumerate(_tables(parts)):
        if i:
            yield ",\n"
        yield json_text(table)
    yield "\n  ]\n}\n"


def write_lines(fh, parts, manifest: dict, fmt: str) -> None:
    """Write the lines of ``parts`` (DirectedLine batches, in order) to the
    text file ``fh``, formatting one group of rows at a time.

    ``fmt="csv"`` writes the comment line ``# manifest: <compact JSON>``,
    the header ``ux,uy,uz,qx,qy,qz`` and one row of %.17g values per line;
    17 significant digits round-trip doubles exactly, so equal inputs give
    equal bytes.

    ``fmt="json"`` writes the bytes of ``json.dumps({"manifest": manifest,
    "lines": lines_to_records(all the lines)}, indent=2) + "\n"``: the head
    comes from ``json.dumps`` of the empty document, and the records from
    ``_g17.json_text`` instead of the pure-Python indenting encoder.  Each
    float is its ``float.__repr__``, which is what ``json`` writes; the
    NaN/Infinity spellings cannot arise because DirectedLine rejects
    non-finite values.

    Both formats go in groups of ``_BLOCK // 32`` rows, whose digits
    ``_g17.csv_text`` and ``_g17.json_text`` write in numpy integer
    arithmetic, with the bytes of CPython's ``%`` and ``repr``; a value
    outside the kernel's range (1e-11 < |x| < 1e17 for CSV, < 1e16 for
    JSON, or zero) is formatted by CPython alone and spliced in.

    No whole-n table or text is built, so memory beyond the lines themselves
    does not grow with their number.
    """
    if fmt == "csv":
        chunks = _csv_chunks(parts, manifest)
    elif fmt == "json":
        chunks = _json_chunks(parts, manifest)
    else:
        raise ValueError(f"unknown line format {fmt!r}")
    for chunk in chunks:
        fh.write(chunk)
        # drop this group's text before the next one is formatted
        del chunk
