"""Oriented frames with in-plane offsets, and their quotient to lines.

A point is a pair ``(g, r)``: a rotation matrix g and a 2-vector r of
coordinates in the plane spanned by the frame's first two columns.  The
circle acts by

    h . (g, r) = (g Rz(h), R(-h) r)

where Rz(h) spins the frame about its third column and R(-h) counter-rotates
the offset coordinates.  The quotient map

    project_to_line(g, r) = (u, foot) = (g e_z, r1 g e_x + r2 g e_y)

is invariant under this action: the two rotations cancel, so every orbit is
one directed line.  Densities built from u and the foot vector inherit that
invariance, so they descend to densities on lines; every density here is
one of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._blocks import blocked_max, blocks, dot
from .errors import BoundViolated, NonFinite, RejectionStall
from .haar import _ROTATION, _count, _cube_rejection, _disk_blocks, \
    _sphere3_blocks, _unit_columns, _unit_norms, quat_to_rotation, \
    sample_sphere2, sample_sphere3, tangent_from_ball
from .linespace import _UNIT_TOL, DirectedLine, _unit_and_length
from .randkit import RngStream

__all__ = [
    "BundlePoint",
    "LineDensity",
    "act",
    "project_to_line",
    "sample_disk",
    "sample_isotropic",
    "sample_bundle",
    "sample_cosine_surface",
    "uniform_density",
    "tilt_density",
    "radial_density",
    "tilt_radial_density",
    "foot_tilt_density",
]

_STALL_ACCEPTANCE = 1e-6  # sample_bundle keeping less than this stalls
# proposals sample_bundle makes before it may stall; read at every call, so
# tests can lower it
_STALL_PROPOSALS = 1_000_000


@dataclass(frozen=True, eq=False)
class BundlePoint:
    """Frame(s) g of shape (3, 3) or (n, 3, 3) with offset(s) r of matching
    shape (2,) or (n, 2).  g must be a rotation to 1e-12, as DirectedLine
    checks a direction, so that every point projects to a valid line."""

    g: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        r = np.asarray(self.r, dtype=np.float64)
        if g.shape[-2:] != (3, 3) or g.ndim not in (2, 3):
            raise ValueError("g must have shape (3, 3) or (n, 3, 3)")
        if r.shape != g.shape[:-2] + (2,):
            raise ValueError("r must have shape (2,) or (n, 2) matching g")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(r))):
            raise ValueError("bundle coordinates must be finite")
        _check_frames(g.reshape(-1, 3, 3))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "r", r)

    @property
    def is_batch(self) -> bool:
        return self.g.ndim == 3

    def __len__(self) -> int:
        return self.g.shape[0] if self.is_batch else 1


@dataclass(frozen=True, eq=False)
class LineDensity:
    """Unnormalized density on bundle points.

    ``f(g, r)`` maps one block of proposals (a leading batch axis) to values
    in [0, bound], each from its own row alone, and should depend on (g, r)
    only through the projected line for estimates on lines to be meaningful.
    ``disk_radius`` is the radius of the offset disk proposals are drawn from.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float
    disk_radius: float

    def __post_init__(self):
        if not callable(self.f):
            raise ValueError("f must be callable")
        if not (np.isfinite(self.bound) and self.bound > 0.0):
            raise ValueError("bound must be positive and finite")
        _check_radius(self.disk_radius)


def _check_frames(g: np.ndarray) -> None:
    """BundlePoint's check of (n, 3, 3) frames, one block at a time: each
    column c_i passes DirectedLine's unit check and |c_i . c_j| <= 1e-12,
    so det g = (c_0 x c_1) . c_2 is +-1 to 1e-11 and must be positive."""
    def off(s):
        c = [g[s, :, i] for i in range(3)]
        return np.maximum.reduce([np.abs(np.sqrt(dot(a, a)) - 1.0) for a in c]
                                 + [np.abs(dot(c[i - 1], c[i])) for i in range(3)])

    worst = blocked_max(len(g), off)
    if not worst <= _UNIT_TOL:
        raise ValueError(f"g is not orthonormal to 1e-12 (off by {worst:.3e})")
    if blocked_max(len(g), lambda s: dot(np.cross(g[s, :, 0], g[s, :, 1]),
                                         g[s, :, 2]) <= 0.0):
        raise ValueError("g must have determinant +1")


def _spin(h, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame(s) g Rz(h) with cos h and sin h; h is a scalar or (n,) array."""
    h = np.asarray(h, dtype=np.float64)
    ch, sh = np.cos(h), np.sin(h)
    rz = np.zeros(h.shape + (3, 3))
    rz[..., 0, 0] = rz[..., 1, 1] = ch
    rz[..., 0, 1] = -sh
    rz[..., 1, 0] = sh
    rz[..., 2, 2] = 1.0
    return g @ rz, ch, sh


def _turn(c, s, r: np.ndarray) -> np.ndarray:
    """Offset coordinates r rotated counterclockwise by the angle whose
    cosine and sine are c and s."""
    r1, r2 = r[..., 0], r[..., 1]
    return np.stack([c * r1 - s * r2, s * r1 + c * r2], axis=-1)


def act(h, pt: BundlePoint) -> BundlePoint:
    """Apply the circle action; h broadcasts over a batch.

    The projected line is unchanged: act is a pure gauge move.
    """
    g2, ch, sh = _spin(h, pt.g)
    # R(-h) r: clockwise counter-rotation of the offset coordinates
    return BundlePoint(g2, _turn(ch, -sh, pt.r))


def _project_arrays(g: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = g[..., :, 2]
    foot = r[..., 0, None] * g[..., :, 0] + r[..., 1, None] * g[..., :, 1]
    return u, foot


def project_to_line(pt: BundlePoint) -> DirectedLine:
    """Quotient map to directed lines: u = g e_z, foot in the frame plane."""
    u, foot = _project_arrays(pt.g, pt.r)
    return DirectedLine(u, foot)


def _check_radius(radius: float) -> None:
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError("radius must be positive and finite")


def sample_disk(rng: RngStream, radius: float, n: int) -> np.ndarray:
    """n uniform points in the closed disk of given radius, by square
    rejection; shape (n, 2)."""
    _check_radius(radius)
    out = _cube_rejection(rng, _count(n), 2)
    out *= radius
    return out


def sample_isotropic(rng: RngStream, radius: float, n: int) -> DirectedLine:
    """n lines from the rotation-invariant kinematic measure, restricted to
    lines whose foot lies within ``radius`` of the origin.

    Draws uniformly random frames, then uniform offsets in the disk.  Every
    line meeting the ball of that radius is reachable, with density constant
    in the invariant measure.
    The frames are drawn as quaternions, and each block of them is turned
    into lines entry by entry: the bits of ``_project_arrays(
    quat_to_rotation(q), r)``, with its unit check, but no frame is built.
    """
    m = _count(n)
    u = np.empty((m, 3), dtype=np.float64)
    foot = np.empty((m, 3), dtype=np.float64)
    for s, us, fs in _isotropic_blocks(rng, radius, m):
        u[s], foot[s] = us, fs
    return DirectedLine(u, foot)


def _isotropic_blocks(rng: RngStream, radius: float, m: int):
    """``sample_isotropic``'s m lines as (slice, u, foot), one block at a
    time.  The quaternions, the bits of ``sample_sphere3``, and then the
    offsets, the bits of ``sample_disk``, are each replayed a block at a
    time from a copy of the stream, so no array of all m rows is held."""
    _check_radius(radius)
    quats = _sphere3_blocks(rng, m)
    disk = _disk_blocks(rng, m)
    for (s, qb), (_, d) in zip(quats, disk):
        qs = _unit_columns(qb, _unit_norms(qb, "quaternion"))
        r = d * radius
        r1, r2 = r[:, 0], r[:, 1]
        u = np.empty((len(r1), 3), dtype=np.float64)
        foot = np.empty((len(r1), 3), dtype=np.float64)
        # row i of the frame: u = column 2, foot = r1 column 0 + r2 column 1
        for i, (c0, c1, c2) in enumerate(_ROTATION):
            u[:, i] = c2(*qs)
            foot[:, i] = r1 * c0(*qs) + r2 * c1(*qs)
        yield s, u, foot


def sample_bundle(rng: RngStream, density: LineDensity, n: int) -> BundlePoint:
    """n bundle points distributed as density.f times the product of the
    rotation-invariant measure on frames and the uniform disk on offsets.

    Plain rejection, in rounds: each round proposes k quaternions from
    sample_sphere3, then k disk offsets, and evaluates f on their frames
    one block at a time; then k uniforms keep a proposal when uniform *
    bound < f.  Each round adds its proposals and acceptances to
    ``rng.proposals`` and ``rng.accepted``.  The kept frames are built one
    block at a time.

    Before any uniform of a round is drawn, its densities are checked over
    the whole round: ValueError unless f returns one value per proposal,
    NonFinite on NaN or infinite values, BoundViolated on values outside
    [0, bound] beyond roundoff.  RejectionStall is raised once at least
    ``_STALL_PROPOSALS`` (one million) proposals of this call kept fewer
    than a 1e-6 fraction.
    """
    m = _count(n)
    bound = density.bound
    q_out = np.empty((m, 4), dtype=np.float64)
    r_out = np.empty((m, 2), dtype=np.float64)
    got = 0
    accepted0, proposals0 = rng.accepted, rng.proposals
    rate_guess = 1.0
    while got < m:
        want = m - got
        k = min(max(int(want / max(rate_guess, 0.01)) + 8, 32), 4 * m + 64, 1 << 22)
        q = sample_sphere3(rng, k)
        r = sample_disk(rng, density.disk_radius, k)
        val = np.empty(k, dtype=np.float64)
        # a density that underflows to exp(-inf) = 0 is exact, not an error;
        # +inf and NaN still fail the checks below
        with np.errstate(over="ignore", divide="ignore"):
            for s in blocks(k):
                v = np.asarray(density.f(quat_to_rotation(q[s]), r[s]),
                               dtype=np.float64)
                if v.shape != (s.stop - s.start,):
                    raise ValueError("density must return one value per proposal")
                val[s] = v
        if not np.all(np.isfinite(val)):
            raise NonFinite("density returned NaN or infinity")
        if np.any(val > bound * (1.0 + 1e-9)) or np.any(val < 0.0):
            raise BoundViolated(
                f"density range [{float(val.min()):.6g}, {float(val.max()):.6g}] "
                f"outside [0, {bound:.6g}]"
            )
        keep = rng.uniforms(k) * bound < val
        rng.proposals += k
        rng.accepted += int(np.count_nonzero(keep))
        accepted, proposals = rng.accepted - accepted0, rng.proposals - proposals0
        idx = np.flatnonzero(keep)[:want]
        q_out[got:got + idx.size] = q[idx]
        r_out[got:got + idx.size] = r[idx]
        got += idx.size
        rate_guess = max(accepted / proposals, 1e-3) if accepted else rate_guess * 0.25
        # freed before the next round or the kept frames are allocated, so
        # the peak holds one round, not two
        del q, r, val, keep, idx
        if proposals >= _STALL_PROPOSALS and accepted < _STALL_ACCEPTANCE * proposals:
            raise RejectionStall(f"{accepted} acceptances in {proposals} proposals")
    g_out = np.empty((m, 3, 3), dtype=np.float64)
    # per block, like the proposals: no whole-m temporaries beside the frames
    for s in blocks(m):
        g_out[s] = quat_to_rotation(q_out[s])
    return BundlePoint(g_out, r_out)


def sample_cosine_surface(rng: RngStream, radius: float, n: int) -> DirectedLine:
    """n lines through cosine-weighted inward directions from the sphere.

    A uniform surface point on the sphere of the given radius emits a ray
    whose angle from the inward normal has density 2 cos(alpha) sin(alpha)
    (drawn as cos(alpha) = sqrt(U)).  The resulting flux through the sphere
    reproduces the invariant line measure restricted to hitting lines.
    """
    _check_radius(radius)
    m = _count(n)
    normal_in = -sample_sphere2(rng, m)  # inward normal at the surface point
    surf = -radius * normal_in
    tang = tangent_from_ball(rng, normal_in)
    cos_a = np.sqrt(rng.uniforms(m))
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a * cos_a))
    u = cos_a[:, None] * normal_in + sin_a[:, None] * tang
    foot = surf - dot(surf, u)[:, None] * u
    return DirectedLine(u, foot)


def uniform_density(disk_radius: float = 1.0) -> LineDensity:
    """f == 1: plain isotropic lines, for pipeline checks."""

    def f(g, r):
        return np.ones(g.shape[:-2], dtype=np.float64)

    return LineDensity(f, 1.0, disk_radius)


def tilt_density(kappa: float, axis=(0.0, 0.0, 1.0),
                 disk_radius: float = 1.0) -> LineDensity:
    """exp(kappa (u . axis - 1)) on the direction u = g e_z.

    Gauge-invariant because u is.  The bound is 1 for kappa >= 0; for
    negative kappa the maximum sits at u . axis = -1, giving exp(-2 kappa).
    """
    kappa = float(kappa)
    if not np.isfinite(kappa):
        raise ValueError("kappa must be finite")
    a, _ = _unit_and_length(axis, "axis")
    with np.errstate(over="ignore"):
        bound = 1.0 if kappa >= 0.0 else float(np.exp(-2.0 * kappa))
    if not np.isfinite(bound):
        raise ValueError("kappa is too negative: the bound exp(-2 kappa) "
                         "overflows below kappa = -354.891")

    def f(g, r):
        u = g[..., :, 2]
        return np.exp(kappa * (dot(u, a) - 1.0))

    return LineDensity(f, bound, disk_radius)


def radial_density(sigma: float, disk_radius: float = 1.0) -> LineDensity:
    """exp(-|r|^2 / (2 sigma^2)); |r| equals the line's distance from the
    origin, so this is gauge-invariant too."""
    sigma = float(sigma)
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError("sigma must be positive")

    def f(g, r):
        return np.exp(-dot(r, r) / (2.0 * sigma * sigma))

    return LineDensity(f, 1.0, disk_radius)


def tilt_radial_density(kappa: float, sigma: float, axis=(0.0, 0.0, 1.0),
                        disk_radius: float = 1.0) -> LineDensity:
    """Product of the tilt and radial factors."""
    t = tilt_density(kappa, axis, disk_radius)
    rad = radial_density(sigma, disk_radius)

    def f(g, r):
        return t.f(g, r) * rad.f(g, r)

    return LineDensity(f, t.bound, disk_radius)


def foot_tilt_density(beta: float, axis=(0.0, 0.0, 1.0),
                      disk_radius: float = 1.0) -> LineDensity:
    """exp(beta (foot . axis - disk_radius)) on the projected foot point.

    Depends on where the foot sits in space (not only on |r|), yet is exactly
    gauge-invariant since the foot is.  This makes it the sharp audit case: a
    wrong circle action moves the foot and visibly distorts estimates, which
    purely directional or radial densities cannot detect.  Requires
    beta >= 0; bound is 1 because |foot| <= disk_radius.
    """
    beta = float(beta)
    if not (np.isfinite(beta) and beta >= 0.0):
        raise ValueError("beta must be nonnegative")
    a, _ = _unit_and_length(axis, "axis")

    def f(g, r):
        _, foot = _project_arrays(g, r)
        return np.exp(beta * (dot(foot, a) - disk_radius))

    return LineDensity(f, 1.0, disk_radius)
