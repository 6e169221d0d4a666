"""Uniform sampling on S^2, S^3 and SO(3), plus frame utilities.

Rotations are sampled by normalizing 4 gaussians to a unit quaternion
(uniform on S^3) and pushing through the standard quaternion-to-matrix map,
whose nine entries live in ``_ROTATION`` only; the two preimages q and -q
give the same rotation.

Every draw ends in one of two kernels: ``_redraw`` stores every candidate a
draw makes and draws the rejected rows again (cube points outside the ball,
vectors too short to normalize), and ``_rejection`` keeps proposals with
probability f/bound.  ``_replayed`` hands out a ``_redraw`` draw a block
at a time: it runs the first pass and the redraws on the stream, then
draws each block again from a copy of the stream.

Every sampler takes a count n and returns a batch with a leading axis of
length n.
"""
from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from ._blocks import blocked_max, blocks, dot
from .errors import BoundViolated, NonFinite, NotUnit, PoleSingularity, \
    RejectionStall
from .randkit import RngStream

__all__ = [
    "sample_sphere2",
    "sample_sphere3",
    "quat_to_rotation",
    "quat_mul",
    "sample_rotation",
    "rotation_angle",
    "rotation_angle_cdf",
    "s3_w_cdf",
    "hopf_map",
    "naive_frame",
    "tangent_from_ball",
    "angle_between",
]

_UNIT_TOL = 1e-9
_TINY_NORM = 1e-6  # gaussian/ball vectors shorter than this are redrawn
_STALL_ACCEPTANCE = 1e-6  # rejection loops keeping less than this stall
# proposals a rejection loop makes before it may stall; read at every call,
# so tests can lower it
_STALL_PROPOSALS = 1_000_000


def _count(n: int) -> int:
    n = int(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n


def _redraw(m: int, dim: int, draw: Callable,
            sequential: bool = False) -> np.ndarray:
    """m rows in R^dim: ``draw(rows)`` makes one candidate for each row index
    in ``rows`` and returns the keep mask and all the candidates.  Every
    candidate is stored, and the rejected rows are drawn again until kept,
    so later passes overwrite what a rejected candidate left.

    A ``sequential`` draw reads the stream in row order and depends on the
    rows only through their count, so its first pass runs block by block on
    the same stream words.  A draw that nests a redraw loop of its own is not
    sequential: blocks would interleave that loop's redraws.
    """
    out = np.empty((m, dim), dtype=np.float64)
    rejected = []
    for s in (blocks(m) if sequential else (slice(0, m),)):
        rows = np.arange(s.start, s.stop)
        ok, out[s] = draw(rows)
        if not ok.all():
            rejected.append(rows[~ok])
    pending = np.concatenate(rejected) if rejected else np.arange(0)
    while pending.size:
        ok, out[pending] = draw(pending)
        pending = pending[~ok]
    return out


def _normalized(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep mask of the rows of v longer than _TINY_NORM, and v with its
    rows scaled to unit length in place (rejected rows hold any value)."""
    nrm = np.sqrt(dot(v, v))
    with np.errstate(all="ignore"):
        v /= nrm[:, None]
    return nrm > _TINY_NORM, v


def _gaussian_candidates(rng: RngStream, k: int,
                         dim: int) -> tuple[np.ndarray, np.ndarray]:
    """k candidates of ``_unit_gaussians``, as (keep mask, rows)."""
    return _normalized(rng.gaussians(dim * k).reshape(-1, dim))


def _unit_gaussians(rng: RngStream, m: int, dim: int) -> np.ndarray:
    """m unit vectors in R^dim from normalized gaussians, redrawing the
    (astronomically rare) rows whose norm underflows below _TINY_NORM."""
    return _redraw(m, dim, lambda rows: _gaussian_candidates(
        rng, rows.size, dim), sequential=True)


def sample_sphere2(rng: RngStream, n: int) -> np.ndarray:
    """n uniform unit vectors on S^2, shape (n, 3)."""
    return _unit_gaussians(rng, _count(n), 3)


def sample_sphere3(rng: RngStream, n: int) -> np.ndarray:
    """n uniform unit quaternions on S^3 as (w, x, y, z), shape (n, 4)."""
    return _unit_gaussians(rng, _count(n), 4)


def _cube_candidates(rng: RngStream, k: int,
                     dim: int) -> tuple[np.ndarray, np.ndarray]:
    """k candidates of ``_cube_rejection``: the mask of those in the closed
    unit ball, and the points 2u - 1 of [-1, 1)^dim, computed in place."""
    c = rng.uniforms(dim * k).reshape(-1, dim)
    c *= 2.0
    c -= 1.0
    return dot(c, c) <= 1.0, c


def _cube_rejection(rng: RngStream, m: int, dim: int) -> np.ndarray:
    """m uniform points of the closed unit ball in R^dim: candidates uniform
    in [-1, 1)^dim, rows outside the ball redrawn.

    Each candidate costs dim random words, so a draw that used w words saw
    w/dim candidates; in R^3 the long-run acceptance rate is the volume ratio
    pi/6.
    """
    return _redraw(m, dim, lambda rows: _cube_candidates(
        rng, rows.size, dim), sequential=True)


def _cube_kept(rng: RngStream, m: int, dim: int) -> np.ndarray:
    """The keep mask of ``_cube_rejection(rng, m, dim)``'s first pass, moving
    the stream as that pass does.  In the plane about 21% of the rows are
    rejected."""
    kept = np.empty(m, dtype=bool)
    for s in blocks(m):
        kept[s], _ = _cube_candidates(rng, s.stop - s.start, dim)
    return kept


def _sphere3_kept(rng: RngStream, m: int, dim: int) -> np.ndarray:
    """The keep mask of ``sample_sphere3(rng, m)``'s first pass, moving the
    stream, spare included, as that pass does; dim is 4.

    A row takes two accepted polar pairs, or one pair and two halves after
    a pending spare, so its norm^2 is at least -2 ln of the product of its
    whole pairs' s = x^2 + y^2.  Only the pairs are scanned: a row whose
    product is at most exp(-_TINY_NORM^2) is certainly kept, with a 2x
    margin in norm^2, and only a block holding any other row has its
    gaussians computed, from a copy of the stream at the block's start.
    """
    sure = np.exp(-_TINY_NORM ** 2)
    kept = np.empty(m, dtype=bool)
    for s in blocks(m):
        k = s.stop - s.start
        at = copy.copy(rng)
        ps = np.empty(2 * k, dtype=np.float64)  # s of the block's pairs
        j = 0
        for c in blocks(2 * k, 2):
            for x, y, ss, idx in rng._accepted_pairs(c.stop - c.start):
                ps[j:j + idx.size] = ss[idx]
                j += idx.size
                if idx.size:
                    y_last = y[idx[-1]]
        if at._spare is None:
            kept[s] = ps[0::2] * ps[1::2] <= sure
        else:
            kept[s] = ps[0::2] <= sure
            # the last row took the first half of the block's last pair;
            # its second half is pending now
            rng._pend_spare(y_last, ps[-1:])
        if not kept[s].all():
            kept[s], _ = _gaussian_candidates(at, k, 4)
    return kept


def _replayed(rng: RngStream, m: int, dim: int, draw: Callable,
              kept: Callable):
    """The m rows of ``_redraw``'s sequential draw by ``draw(rng, k, dim)``,
    which returns (keep mask, rows), as (slice, rows) one block at a time.

    The first pass, ``kept(rng, m, dim)``, and the redraws of the rows it
    rejects run now, and leave the stream where the whole draw does.  The
    blocks are drawn again from a copy of the stream as it stood before:
    the stream is counter-based, so the copy reads the same words.
    """
    at = copy.copy(rng)
    missed = np.flatnonzero(~kept(rng, m, dim))
    # in one pass, not block by block: same words, but its freed words keep
    # later block temporaries on malloc's heap (block by block, chord box at
    # n = 10^6 took twice the page faults)
    redrawn = _redraw(missed.size, dim, lambda r: draw(rng, r.size, dim))

    def replay():
        for s in blocks(m):
            _, rows = draw(at, s.stop - s.start, dim)
            lo, hi = np.searchsorted(missed, (s.start, s.stop))
            rows[missed[lo:hi] - s.start] = redrawn[lo:hi]
            yield s, rows

    return replay()


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
        qs = _unit_columns(rows[s], nrm[s])
        for i in range(3):
            for j in range(3):
                R[s, i, j] = _ROTATION[i][j](*qs)
    return R.reshape(q.shape[:-1] + (3, 3))


def _unit_columns(q: np.ndarray, nrm: np.ndarray) -> np.ndarray:
    """The (4, m) components (w, x, y, z) of the (m, 4) quaternion rows q,
    each divided by its row's norm ``nrm``."""
    out = np.empty((4, len(q)), dtype=np.float64)
    np.divide(q.T, nrm, out=out)
    return out


# entry (i, j) of R(q) as a function of the unit quaternion's components
_ROTATION = (
    (lambda w, x, y, z: 1.0 - 2.0 * (y * y + z * z),
     lambda w, x, y, z: 2.0 * (x * y - w * z),
     lambda w, x, y, z: 2.0 * (x * z + w * y)),
    (lambda w, x, y, z: 2.0 * (x * y + w * z),
     lambda w, x, y, z: 1.0 - 2.0 * (x * x + z * z),
     lambda w, x, y, z: 2.0 * (y * z - w * x)),
    (lambda w, x, y, z: 2.0 * (x * z - w * y),
     lambda w, x, y, z: 2.0 * (y * z + w * x),
     lambda w, x, y, z: 1.0 - 2.0 * (x * x + y * y)),
)


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


def sample_rotation(rng: RngStream, n: int) -> np.ndarray:
    """n uniformly distributed rotation matrices, shape (n, 3, 3)."""
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


def _rejection(
    rng: RngStream,
    propose: Callable[[int], tuple[np.ndarray, ...]],
    f: Callable[..., np.ndarray],
    bound: float,
    outs: tuple[np.ndarray, ...],
) -> None:
    """Fill ``outs``, arrays sharing a leading axis of length m, by rejection.

    ``propose(k)`` returns one k-row array per output; ``f`` maps each block
    of their rows to density values in [0, bound], and a proposal is kept
    when a uniform times ``bound`` falls below its value.  Each round adds
    its proposals and acceptances to ``rng.proposals`` and ``rng.accepted``.

    Raises ValueError unless ``f`` returns one value per row, NonFinite on
    NaN or infinite values, BoundViolated on values outside [0, bound]
    beyond roundoff, and RejectionStall once at least ``_STALL_PROPOSALS``
    proposals kept fewer than a 1e-6 fraction.
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
        if proposals >= _STALL_PROPOSALS and accepted < _STALL_ACCEPTANCE * proposals:
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


def tangent_from_ball(rng: RngStream, u: np.ndarray) -> np.ndarray:
    """One random unit tangent orthogonal to each row of the (m, 3) array u,
    isotropic in the tangent plane.

    A uniform ball point is projected onto the plane orthogonal to u and
    normalized; projections shorter than 1e-6 trigger a redraw.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 3:
        raise ValueError("u must have shape (m, 3)")
    us = u / _unit_norms(u, "direction")[:, None]

    def draw(pending):
        b = _cube_rejection(rng, pending.size, 3)
        ub = us[pending]
        return _normalized(b - dot(b, ub)[:, None] * ub)

    return _redraw(len(us), 3, draw)


def angle_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle in [0, pi] between vectors, elementwise over the leading axes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.arccos(np.clip(dot(a, b) / np.sqrt(dot(a, a) * dot(b, b)),
                             -1.0, 1.0))
