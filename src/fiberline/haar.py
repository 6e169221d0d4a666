"""Uniform sampling on S^2, S^3 and SO(3), plus frame utilities.

Rotations are sampled by normalizing 4 gaussians to a unit quaternion
(uniform on S^3) and pushing through the standard quaternion-to-matrix map;
the two preimages q and -q give the same rotation.  A tunable rejection
sampler reweights S^3 by a user density, optionally treating antipodal
points as identified.

Every draw ends in one of two kernels: ``_redraw`` draws rejected geometric
candidates again (cube points outside the ball, vectors too short to
normalize), and ``_rejection`` keeps proposals with probability f/bound.

All samplers follow one batch convention: ``n=None`` returns a single item,
``n=k`` returns a leading axis of length k, and a single item is computed as
a batch of one (so scalar and batch runs consume the random stream
identically).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ._blocks import blocked_max, blocks, dot
from .errors import AntipodalViolation, BoundViolated, NonFinite, NotUnit, \
    PoleSingularity, RejectionStall
from .randkit import RngStream

__all__ = [
    "sample_sphere2",
    "sample_sphere3",
    "sample_ball3",
    "quat_to_rotation",
    "quat_mul",
    "rotation_to_frame",
    "sample_rotation",
    "rotation_angle",
    "rotation_angle_cdf",
    "s3_w_cdf",
    "hopf_map",
    "sample_s3_density",
    "naive_frame",
    "tangent_from_ball",
    "angle_between",
]

_UNIT_TOL = 1e-9
_TINY_NORM = 1e-6  # gaussian/ball vectors shorter than this are redrawn
_STALL_ACCEPTANCE = 1e-6  # rejection loops keeping less than this stall


def _batch(n: int | None) -> tuple[int, bool]:
    if n is None:
        return 1, True
    n = int(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n, False


def _redraw(m: int, dim: int, draw: Callable,
            sequential: bool = False) -> np.ndarray:
    """m rows in R^dim: ``draw(rows)`` makes one candidate for each row index
    in ``rows`` and returns the keep mask and the kept rows; rejected rows
    are drawn again.

    A ``sequential`` draw reads the stream in row order and depends on the
    rows only through their count, so its first pass runs block by block on
    the same stream words.  A draw that nests a redraw loop of its own is not
    sequential: blocks would interleave that loop's redraws.
    """
    out = np.empty((m, dim), dtype=np.float64)
    rejected = []
    for s in (blocks(m) if sequential else (slice(0, m),)):
        rows = np.arange(s.start, s.stop)
        ok, kept = draw(rows)
        if len(kept) == len(rows):
            out[s] = kept
        else:
            out[rows[ok]] = kept
            rejected.append(rows[~ok])
    pending = np.concatenate(rejected) if rejected else np.arange(0)
    while pending.size:
        ok, kept = draw(pending)
        out[pending[ok]] = kept
        pending = pending[~ok]
    return out


def _normalized(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep mask of the rows of v longer than _TINY_NORM, and those rows
    scaled to unit length."""
    nrm = np.sqrt(dot(v, v))
    ok = nrm > _TINY_NORM
    return ok, v[ok] / nrm[ok, None]


def _unit_gaussians(rng: RngStream, m: int, dim: int) -> np.ndarray:
    """m unit vectors in R^dim from normalized gaussians, redrawing the
    (astronomically rare) rows whose norm underflows below _TINY_NORM."""
    return _redraw(m, dim, lambda rows: _normalized(
        rng.gaussians(dim * rows.size).reshape(-1, dim)), sequential=True)


def sample_sphere2(rng: RngStream, n: int | None = None) -> np.ndarray:
    """Uniform unit vector(s) on S^2; shape (3,) or (n, 3)."""
    m, single = _batch(n)
    out = _unit_gaussians(rng, m, 3)
    return out[0] if single else out


def sample_sphere3(rng: RngStream, n: int | None = None) -> np.ndarray:
    """Uniform unit quaternion(s) on S^3 as (w, x, y, z); shape (4,) or (n, 4)."""
    m, single = _batch(n)
    out = _unit_gaussians(rng, m, 4)
    return out[0] if single else out


def sample_ball3(rng: RngStream, n: int | None = None) -> np.ndarray:
    """Uniform point(s) in the closed unit ball via cube rejection.

    Candidates are uniform in [-1, 1)^3 and kept when inside the ball, so the
    long-run acceptance rate is the volume ratio pi/6.  Each candidate costs
    three random words, so a draw that used w words saw w/3 candidates.
    """
    m, single = _batch(n)
    out = _cube_rejection(rng, m, 3)
    return out[0] if single else out


def _cube_rejection(rng: RngStream, m: int, dim: int) -> np.ndarray:
    """m uniform points of the closed unit ball in R^dim: candidates uniform
    in [-1, 1)^dim, rows outside the ball redrawn."""
    def draw(rows):
        c = 2.0 * rng.uniforms(dim * rows.size).reshape(-1, dim) - 1.0
        ok = dot(c, c) <= 1.0
        return ok, c[ok]

    return _redraw(m, dim, draw, sequential=True)


def _unit_norms(v: np.ndarray, what: str) -> np.ndarray:
    """The norm of each row of v, an (m, k) array.  Raises NotUnit with the
    worst norm error over all rows when any is off by more than _UNIT_TOL."""
    nrm = np.empty(len(v), dtype=np.float64)

    def dev(s):
        nrm[s] = np.sqrt(dot(v[s], v[s]))
        return np.abs(nrm[s] - 1.0)

    worst = blocked_max(len(v), dev)
    if not worst <= _UNIT_TOL:
        raise NotUnit(f"{what} norm off by {worst:.3e} (tolerance {_UNIT_TOL})")
    return nrm


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix R(q) for unit quaternion(s) q = (w, x, y, z).

    Accepts shape (..., 4), returns (..., 3, 3).  Raises NotUnit when any
    input norm is off by more than 1e-9; inputs are renormalized before use,
    and every matrix entry is a degree-2 product of components, so
    ``quat_to_rotation(-q)`` equals ``quat_to_rotation(q)`` exactly.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1] != 4:
        raise ValueError("quaternion must have 4 components")
    rows = q.reshape(-1, 4)
    nrm = _unit_norms(rows, "quaternion")
    R = np.empty((len(rows), 3, 3), dtype=np.float64)
    for s in blocks(len(rows)):
        _fill_rotation(R[s], rows[s] / nrm[s, None])
    return R.reshape(q.shape[:-1] + (3, 3))


def _fill_rotation(R: np.ndarray, q: np.ndarray) -> None:
    """Write R(q) into the (m, 3, 3) array R for unit quaternion rows q."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    R[:, 0, 1] = 2.0 * (x * y - w * z)
    R[:, 0, 2] = 2.0 * (x * z + w * y)
    R[:, 1, 0] = 2.0 * (x * y + w * z)
    R[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    R[:, 1, 2] = 2.0 * (y * z - w * x)
    R[:, 2, 0] = 2.0 * (x * z - w * y)
    R[:, 2, 1] = 2.0 * (y * z + w * x)
    R[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions in (w, x, y, z) order; broadcasts."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    w1, x1, y1, z1 = q1[..., 0], q1[..., 1], q1[..., 2], q1[..., 3]
    w2, x2, y2, z2 = q2[..., 0], q2[..., 1], q2[..., 2], q2[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def rotation_to_frame(R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of R as three vectors: the images of e_x, e_y, e_z."""
    R = np.asarray(R, dtype=np.float64)
    return R[..., :, 0], R[..., :, 1], R[..., :, 2]


def sample_rotation(rng: RngStream, n: int | None = None) -> np.ndarray:
    """Uniformly distributed rotation matrix/matrices; (3, 3) or (n, 3, 3)."""
    return quat_to_rotation(sample_sphere3(rng, n))


def rotation_angle(R: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] from the trace: cos(theta) = (tr R - 1)/2."""
    R = np.asarray(R, dtype=np.float64)
    tr = R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2]
    return np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))


def rotation_angle_cdf(theta: np.ndarray) -> np.ndarray:
    """CDF of the rotation angle under the uniform measure on rotations.

    The angle density is (1 - cos(theta)) / pi on [0, pi], giving
    F(theta) = (theta - sin(theta)) / pi.
    """
    t = np.clip(np.asarray(theta, dtype=np.float64), 0.0, np.pi)
    return (t - np.sin(t)) / np.pi


def s3_w_cdf(w: np.ndarray) -> np.ndarray:
    """CDF of one coordinate of a uniform unit quaternion.

    The marginal density is (2/pi) sqrt(1 - w^2) on [-1, 1]; integrating,
    F(w) = (w sqrt(1 - w^2) + asin(w) + pi/2) / pi.
    """
    w = np.clip(np.asarray(w, dtype=np.float64), -1.0, 1.0)
    return (w * np.sqrt(1.0 - w * w) + np.arcsin(w) + 0.5 * np.pi) / np.pi


def hopf_map(q: np.ndarray) -> np.ndarray:
    """Image of e_z under the rotation of unit quaternion(s) q.

    Constant along circles q -> q * (cos t, 0, 0, sin t), i.e. the fibers of
    the map S^3 -> S^2.  Raises NotUnit like :func:`quat_to_rotation`.
    """
    return quat_to_rotation(q)[..., :, 2]


def sample_s3_density(
    rng: RngStream,
    f: Callable[[np.ndarray], np.ndarray],
    bound: float,
    n: int | None = None,
    *,
    projective: bool = False,
    stall_proposals: int = 1_000_000,
):
    """Quaternions distributed as f(q) times the uniform S^3 measure.

    Parameters
    ----------
    f : callable
        Density factor: maps a block of (m, 4) quaternions to (m,) values in
        [0, bound], each from its own row alone.  Need not be normalized.
    bound : float
        Rejection bound M; proposals are kept with probability f(q)/M, and
        counted on ``rng.proposals`` and ``rng.accepted``.
    projective : bool
        Declare f antipodally symmetric.  The first 1000 samples are audited
        (|f(q) - f(-q)| <= 1e-12) and AntipodalViolation raised otherwise.

    Raises
    ------
    BoundViolated if f exceeds ``bound`` beyond roundoff, NonFinite on NaN or
    infinite density values, RejectionStall if fewer than a 1e-6 fraction of
    at least ``stall_proposals`` candidates were kept.
    """
    if not (np.isfinite(bound) and bound > 0.0):
        raise ValueError("bound must be positive and finite")
    m, single = _batch(n)
    out = np.empty((m, 4), dtype=np.float64)
    _rejection(rng, lambda k: (sample_sphere3(rng, k),), f, bound,
               (out,), stall_proposals)
    if projective and m > 0:
        q = out[:1000]
        diff = np.abs(np.asarray(f(q), float) - np.asarray(f(-q), float))
        if np.any(diff > 1e-12):
            raise AntipodalViolation(
                f"f(q) and f(-q) differ by up to {float(diff.max()):.3e}"
            )
    return out[0] if single else out


def _rejection(
    rng: RngStream,
    propose: Callable[[int], tuple[np.ndarray, ...]],
    f: Callable[..., np.ndarray],
    bound: float,
    outs: tuple[np.ndarray, ...],
    stall_proposals: int,
) -> None:
    """Fill ``outs``, arrays sharing a leading axis of length m, by rejection.

    ``propose(k)`` returns one k-row array per output; ``f`` maps each block
    of their rows to density values in [0, bound], and a proposal is kept
    when a uniform times ``bound`` falls below its value.  Each round adds
    its proposals and acceptances to ``rng.proposals`` and ``rng.accepted``.
    Raises ValueError on a misshapen density, NonFinite, BoundViolated and
    RejectionStall as documented on :func:`sample_s3_density`.
    """
    m = outs[0].shape[0]
    got = 0
    accepted0, proposals0 = rng.accepted, rng.proposals
    rate_guess = 1.0
    while got < m:
        want = m - got
        k = min(max(int(want / max(rate_guess, 0.01)) + 8, 32), 4 * m + 64, 1 << 22)
        props = propose(k)
        val = np.empty(k, dtype=np.float64)
        # a density that underflows to exp(-inf) = 0 is exact, not an error;
        # +inf and NaN still fail the checks below
        with np.errstate(over="ignore", divide="ignore"):
            for s in blocks(k):
                v = np.asarray(f(*(p[s] for p in props)), dtype=np.float64)
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
        for out, p in zip(outs, props):
            out[got:got + idx.size] = p[idx]
        got += idx.size
        rate_guess = max(accepted / proposals, 1e-3) if accepted else rate_guess * 0.25
        if proposals >= stall_proposals and accepted < _STALL_ACCEPTANCE * proposals:
            raise RejectionStall(f"{accepted} acceptances in {proposals} proposals")


def naive_frame(u: np.ndarray) -> np.ndarray:
    """normalize(e_z x u): a tangent field that is smooth away from the poles.

    Useful as a *witness* that no single continuous construction covers the
    whole sphere: the field turns a full extra revolution around any loop
    enclosing a pole, and this function refuses inputs within 1e-9 of
    (0, 0, +-1) by raising PoleSingularity.
    """
    u = np.asarray(u, dtype=np.float64)
    c = np.stack([-u[..., 1], u[..., 0], np.zeros(u.shape[:-1])], axis=-1)
    nrm = np.sqrt(dot(c, c))
    if np.any(nrm <= _UNIT_TOL):
        raise PoleSingularity("direction too close to +-e_z for e_z x u frame")
    return c / nrm[..., None]


def tangent_from_ball(
    rng: RngStream,
    u: np.ndarray,
    n: int | None = None,
) -> np.ndarray:
    """Random unit tangent(s) orthogonal to u, isotropic in the tangent plane.

    A uniform ball point is projected onto the plane orthogonal to u and
    normalized; projections shorter than 1e-6 trigger a redraw.  Accepts one
    direction (shape (3,), optionally with ``n`` tangents for it) or a batch
    (m, 3) yielding one tangent per row (``n`` must then be None).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        m, single = _batch(n)
        us = np.broadcast_to(u, (m, 3))
    else:
        if n is not None:
            raise ValueError("n must be None when u is already a batch")
        us = u
        m, single = u.shape[0], False
    us = us / _unit_norms(us, "direction")[:, None]

    def draw(pending):
        b = sample_ball3(rng, pending.size)
        ub = us[pending]
        return _normalized(b - dot(b, ub)[:, None] * ub)

    out = _redraw(m, 3, draw)
    return out[0] if single else out


def angle_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle in [0, pi] between vectors, elementwise over the leading axes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.arccos(np.clip(dot(a, b) / np.sqrt(dot(a, a) * dot(b, b)),
                             -1.0, 1.0))
