"""Convex test bodies and line-body intersection lengths.

Three body types are supported: balls, axis-aligned boxes, and bounded
intersections of halfspaces.  Each carries its chord kernel ``_chord`` and
its exact ``_volume``, ``_surface_area`` and ``_bounding_radius``: closed
forms for balls and boxes, evaluated when read (the sampling-radius check
refuses a body whose volume overflows before asking for it), and for
halfspaces the hull of the polytope's vertices, built once with the body.
``chord`` returns the length of the intersection of a line with the body
(0 for a miss; tangency counts as a miss).  Boxes and halfspace bodies share
one slab-clipping kernel, ``_clip`` (Kay & Kajiya 1986; Cyrus & Beck 1978):
a box is three two-sided slabs, a halfspace body one one-sided slab per
face, its dot products from ``_blocks.dot``, so chords do not depend on the
BLAS build or the batch size.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._blocks import blocks, dot
from .errors import Unbounded
from .linespace import DirectedLine, _unit_and_length

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
# the origin must sit this far inside the hull of the unit normals
_BOUNDED_TOL = 1e-12
# an inscribed ball thinner than this, relative to its centre's distance
# from the origin, is lost in rounding: the body is flat
_DEPTH_TOL = 1e-12


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

    _volume = property(lambda self: 4.0 / 3.0 * np.pi * self.radius**3)
    _surface_area = property(lambda self: 4.0 * np.pi * self.radius**2)
    _bounding_radius = property(lambda self: math.hypot(*self.center) + self.radius)

    def _chord(self, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        # |f + t u - c|^2 = r^2; with |u| = 1 the roots differ by 2 sqrt(disc)
        w = f - self.center
        b = dot(w, u)
        c = dot(w, w) - self.radius**2
        disc = b * b - c
        out = np.zeros(u.shape[0], dtype=np.float64)
        hit = disc > _DISC_TOL  # tangency counts as a miss
        out[hit] = 2.0 * np.sqrt(disc[hit])
        return out


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

    @property
    def _volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    @property
    def _surface_area(self) -> float:
        e = self.hi - self.lo
        return 2.0 * float(e[0] * e[1] + e[1] * e[2] + e[0] * e[2])

    @property
    def _bounding_radius(self) -> float:
        return math.hypot(*np.maximum(np.abs(self.lo), np.abs(self.hi)))

    def _chord(self, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        # three two-sided slabs, one per axis, on contiguous (3, m) copies
        return _clip(*np.array([u.T, f.T]), self.lo[:, None], self.hi[:, None])


@dataclass(frozen=True, eq=False)
class Halfspaces:
    """Intersection of halfspaces n_i . x <= c_i with unit normals n_i.

    Construction certifies the body and computes its exact measures once,
    from the hull of its vertices: it raises Unbounded unless the origin
    lies strictly inside the hull of the normals (no direction escapes every
    halfspace), and ValueError when the intersection has no interior.  scipy
    is imported here, so ball and box runs never load it.
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
        lens = np.sqrt(dot(nrm, nrm))
        if np.any(np.abs(lens - 1.0) > 1e-9):
            raise ValueError("normals must be unit vectors")
        nrm = nrm / lens[:, None]
        object.__setattr__(self, "normals", nrm)
        object.__setattr__(self, "offsets", off)
        v, s, rb = _polytope_measures(nrm, off)
        object.__setattr__(self, "_volume", v)
        object.__setattr__(self, "_surface_area", s)
        object.__setattr__(self, "_bounding_radius", rb)

    def _chord(self, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        # one one-sided slab per face: n . (f + t u) <= c
        nrm = self.normals[:, None]
        return _clip(dot(nrm, u), dot(nrm, f), -np.inf, self.offsets[:, None])


def _polytope_measures(nrm: np.ndarray, off: np.ndarray) -> tuple[float, float, float]:
    """Volume, surface area and largest vertex norm of the polytope."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

    try:
        bounded = np.all(ConvexHull(nrm).equations[:, -1] < -_BOUNDED_TOL)
    except QhullError:  # fewer than 4 normals, or all in one plane
        bounded = False
    if not bounded:
        raise Unbounded("the normals do not surround the origin, so some "
                        "direction leaves every halfspace")
    # Chebyshev centre: the deepest point, maximizing t with n_i . x + t <= c_i
    lp = linprog(np.array([0.0, 0.0, 0.0, -1.0]),
                 A_ub=np.c_[nrm, np.ones(len(off))], b_ub=off,
                 bounds=[(None, None)] * 3 + [(0.0, None)])
    if lp.status == 0:
        centre = lp.x[:3]
        depth = float(np.min(off - dot(nrm, centre)))
    if lp.status != 0 or depth <= _DEPTH_TOL * (np.sqrt(dot(centre, centre)) + depth):
        raise ValueError("halfspace intersection has an empty interior")
    try:
        vertices = HalfspaceIntersection(np.c_[nrm, -off], centre).intersections
        hull = ConvexHull(vertices)
    except QhullError:  # extents ~1e15 apart: the vertices round flat
        raise ValueError("halfspace body is too flat for its extent: qhull "
                         "cannot build its vertices") from None
    return (float(hull.volume), float(hull.area),
            float(np.max(np.sqrt(dot(vertices, vertices)))))


ConvexBody = Union[Ball, Box, Halfspaces]


def _clip(d: np.ndarray, p: np.ndarray, lo, hi) -> np.ndarray:
    # constraint row i keeps lo_i <= p_i + t d_i <= hi_i in each line's column;
    # |d_i| <= tol is parallel: no bound on t, a miss unless lo_i <= p_i <= hi_i
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - p) / d
        t2 = (hi - p) / d
    para = np.abs(d) <= _PARALLEL_TOL
    enter = np.max(np.where(para, -np.inf, np.minimum(t1, t2)), axis=0)
    leave = np.min(np.where(para, np.inf, np.maximum(t1, t2)), axis=0)
    ok = (leave > enter) & ~np.any(para & ((p < lo) | (p > hi)), axis=0)
    return np.where(ok, leave - enter, 0.0)


def chord(body: ConvexBody, dl: DirectedLine) -> np.ndarray:
    """Chord length(s) of the line(s) in the body; 0 where the line misses.

    Invariant under flipping the direction and under applying any rigid
    motion to both body and line.
    """
    u, f = np.atleast_2d(dl.u), np.atleast_2d(dl.foot)
    out = np.empty(len(u), dtype=np.float64)
    for s in blocks(len(u)):
        out[s] = body._chord(u[s], f[s])
    return out if dl.is_batch else float(out[0])


def volume(body: ConvexBody) -> float:
    """Exact volume: closed form, or the hull of the halfspace vertices."""
    return body._volume


def surface_area(body: ConvexBody) -> float:
    """Exact surface area: closed form, or the hull of the halfspace vertices."""
    return body._surface_area


def bounding_radius(body: ConvexBody) -> float:
    """Radius of the smallest origin-centered ball containing the body.

    Exact for every body: for Halfspaces, the largest vertex norm.
    """
    return body._bounding_radius


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
            unit, ln = _unit_and_length(nv, f"halfspace {i}'s normal")
            if not np.isfinite(ln):
                raise ValueError(f"halfspace {i}'s normal is too long")
            normals.append(unit)
            offsets.append(ov / ln)
        return Halfspaces(np.array(normals), np.array(offsets))
    raise ValueError(f"unknown body kind {kind!r}")
