"""Sphere/rotation samplers against their textbook distributions."""
import numpy as np
import pytest

import fiberline._blocks
import fiberline.haar
from fiberline._blocks import blocks, dot
from fiberline.bundle import sample_bundle, tilt_density, uniform_density
from fiberline.errors import NotUnit, PoleSingularity
from fiberline.haar import (
    _cube_candidates,
    _cube_kept,
    _cube_rejection,
    _gaussian_candidates,
    _replayed,
    _sphere3_kept,
    angle_between,
    hopf_map,
    naive_frame,
    quat_mul,
    quat_to_rotation,
    rotation_angle,
    rotation_angle_cdf,
    s3_w_cdf,
    sample_rotation,
    sample_sphere2,
    sample_sphere3,
    tangent_from_ball,
)
from fiberline.randkit import make_rng, split
from fiberline.stats import chi2_isotropy, ks_test, ks_two_sample

N_BIG = 1_000_000
N_KS = 100_000


# ---------------------------------------------------------------------------
# spheres

def test_sphere2_unit_norm():
    u = sample_sphere2(make_rng(0), 10_000)
    assert np.max(np.abs(np.sum(u * u, axis=1) - 1.0)) < 1e-12


def test_sphere2_z_uniform():
    u = sample_sphere2(make_rng(1), N_KS)
    rep = ks_test(u[:, 2], lambda z: (np.clip(z, -1, 1) + 1.0) / 2.0)
    assert rep.p_value > 0.001


def test_sphere2_mean_vanishes():
    u = sample_sphere2(make_rng(2), N_BIG)
    assert np.max(np.abs(np.mean(u, axis=0))) < 3e-3


def test_sphere3_coordinate_variance():
    """Each coordinate of a uniform unit quaternion has variance 1/4."""
    q = sample_sphere3(make_rng(3), N_BIG)
    v = np.var(q, axis=0)
    assert np.all(np.abs(v - 0.25) < 0.02 * 0.25)


def test_sphere3_w_marginal():
    q = sample_sphere3(make_rng(4), N_KS)
    rep = ks_test(q[:, 0], s3_w_cdf)
    assert rep.p_value > 0.001


def test_w_variance_quadrature():
    # independent check of the 1/4 above: E[w^2] = int w^2 (2/pi) sqrt(1-w^2) dw
    w = np.linspace(-1.0, 1.0, 2_000_001)
    dens = (2.0 / np.pi) * np.sqrt(np.maximum(0.0, 1.0 - w * w))
    ev = np.trapezoid(w * w * dens, w)
    assert abs(ev - 0.25) < 1e-6


def test_ball3_inside_and_acceptance():
    # every candidate costs three words, so the words used count the proposals
    rng = make_rng(6)
    pts = _cube_rejection(rng, N_BIG, 3)
    rate = N_BIG / (rng._counter // 3)
    assert np.max(np.sum(pts * pts, axis=1)) <= 1.0
    assert abs(rate - np.pi / 6.0) < 0.01 * np.pi / 6.0


# ---------------------------------------------------------------------------
# quaternions -> rotations

def test_quat_identity():
    assert np.allclose(quat_to_rotation([1.0, 0, 0, 0]), np.eye(3), atol=0)


def test_quat_z_halfturn():
    R = quat_to_rotation([0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(R, np.diag([-1.0, -1.0, 1.0]))


def test_quat_rejects_non_unit():
    with pytest.raises(NotUnit):
        quat_to_rotation([1.0, 1.0, 0.0, 0.0])


def test_rotation_batch_is_orthogonal():
    R = sample_rotation(make_rng(7), 1000)
    eye = np.eye(3)
    err = np.max(np.abs(np.swapaxes(R, 1, 2) @ R - eye))
    assert err < 1e-12
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) < 1e-12


def test_double_cover_exact():
    """q and -q must give the SAME matrix bit for bit, not just close."""
    q = sample_sphere3(make_rng(8), 1000)
    assert np.array_equal(quat_to_rotation(q), quat_to_rotation(-q))


def test_quat_mul_matches_matrix_product():
    q1 = sample_sphere3(make_rng(9), 200)
    q2 = sample_sphere3(make_rng(10), 200)
    lhs = quat_to_rotation(quat_mul(q1, q2))
    rhs = quat_to_rotation(q1) @ quat_to_rotation(q2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# Haar diagnostics

def test_rotation_angle_distribution():
    R = sample_rotation(make_rng(12), N_KS)
    rep = ks_test(rotation_angle(R), rotation_angle_cdf)
    assert rep.p_value > 0.001


def test_angle_cdf_matches_density_quadrature():
    # F(t) = int_0^t (1 - cos s)/pi ds, integrated numerically
    t = np.linspace(0.0, np.pi, 1001)
    dens = (1.0 - np.cos(t)) / np.pi
    F = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(t))])
    assert np.max(np.abs(F - rotation_angle_cdf(t))) < 1e-6


def test_pushforward_isotropy():
    R = sample_rotation(make_rng(13), N_KS)
    rep = chi2_isotropy(R[:, :, 2], bins=20)
    assert rep.p_value > 0.001


def test_left_translation_invariance():
    """Haar invariance: angles of Q R and of R are the same distribution."""
    rng = make_rng(14)
    R = sample_rotation(rng, N_KS)
    Q = quat_to_rotation([0.5, 0.5, 0.5, 0.5])  # a fixed 120-degree rotation
    rep = ks_two_sample(rotation_angle(Q @ R), rotation_angle(R))
    assert rep.p_value > 0.001
    trace = np.trace(Q @ R, axis1=1, axis2=2)
    rep2 = ks_two_sample(trace, np.trace(R, axis1=1, axis2=2))
    assert rep2.p_value > 0.001


# ---------------------------------------------------------------------------
# Hopf map

def test_hopf_identity():
    assert np.array_equal(hopf_map([1.0, 0, 0, 0]), [0.0, 0.0, 1.0])


def test_hopf_equals_rotated_ez():
    q = sample_sphere3(make_rng(15), 500)
    assert np.max(np.abs(hopf_map(q) - quat_to_rotation(q)[:, :, 2])) == 0.0


def test_hopf_fiber_invariance():
    """hopf(q * (cos t, 0, 0, sin t)) == hopf(q) along 100 random fibers."""
    rng = make_rng(16)
    q = sample_sphere3(rng, 100)
    t = 2.0 * np.pi * rng.uniforms(100)
    fib = np.stack([np.cos(t), np.zeros(100), np.zeros(100), np.sin(t)], axis=1)
    moved = quat_mul(q, fib)
    assert np.max(np.abs(hopf_map(moved) - hopf_map(q))) < 1e-10


def test_hopf_pushforward_uniform():
    u = hopf_map(sample_sphere3(make_rng(17), N_KS))
    rep = ks_test(u[:, 2], lambda z: (np.clip(z, -1, 1) + 1.0) / 2.0)
    assert rep.p_value > 0.001


# ---------------------------------------------------------------------------
# the rejection kernel, through sample_bundle

def test_flat_density_accepts_everything():
    rng = make_rng(18)
    pts = sample_bundle(rng, uniform_density(), 10_000)
    assert rng.accepted == rng.proposals > 0
    assert len(pts) == 10_000


def test_rejection_counts_are_totals_per_stream():
    def draw(rng):
        sample_bundle(rng, tilt_density(2.0), 500)

    rng = make_rng(21)
    draw(rng)
    first = (rng.accepted, rng.proposals)
    assert 500 <= first[0] < first[1]
    # the same second draw on a stream with fresh counts, from the same words
    alone = split(rng, 0)
    alone._counter, alone._spare = rng._counter, rng._spare
    draw(rng)
    draw(alone)
    assert alone.proposals > 0
    assert (rng.accepted, rng.proposals) == (first[0] + alone.accepted,
                                             first[1] + alone.proposals)
    child = split(rng, 1)
    assert (child.accepted, child.proposals) == (0, 0)


# ---------------------------------------------------------------------------
# tangent frames

def test_naive_frame_values():
    assert np.allclose(naive_frame([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(naive_frame([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-15)


def test_naive_frame_pole_raises():
    with pytest.raises(PoleSingularity):
        naive_frame([0.0, 0.0, 1.0])
    with pytest.raises(PoleSingularity):
        naive_frame([0.0, 0.0, -1.0])


def test_naive_frame_discontinuity_witness():
    """Two points 1.4e-4 apart near the pole get frames a quarter turn apart.

    This is the hairy-ball obstruction made quantitative: any single formula
    smooth on all of S^2 would map nearby inputs to nearby outputs.
    """
    eps = 1e-4
    u1 = np.array([np.sin(eps), 0.0, np.cos(eps)])        # meridian 0
    u2 = np.array([0.0, np.sin(eps), np.cos(eps)])        # meridian pi/2
    assert float(angle_between(u1, u2)) < 1e-3
    gap = float(angle_between(naive_frame(u1), naive_frame(u2)))
    assert gap >= np.pi / 2.0 - 1e-2


def test_naive_frame_continuous_away_from_poles():
    # along a fine meridian scan the frame must move no faster than the input
    # does (up to the 1/sin(theta) conditioning), so jumps stay small
    theta = np.linspace(0.2, np.pi - 0.2, 2000)
    u = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
    f = naive_frame(u)
    step = float(np.max(angle_between(u[1:], u[:-1])))
    jump = float(np.max(angle_between(f[1:], f[:-1])))
    assert jump < 10.0 * step


def test_tangent_orthogonal():
    rng = make_rng(25)
    u = sample_sphere2(rng, 10_000)
    t = tangent_from_ball(rng, u)
    assert np.max(np.abs(np.sum(t * u, axis=1))) <= 1e-12
    assert np.max(np.abs(np.sum(t * t, axis=1) - 1.0)) < 1e-12


def test_tangent_angles_uniform():
    rng = make_rng(26)
    t = tangent_from_ball(rng, np.broadcast_to([0.0, 0.0, 1.0], (N_KS, 3)))
    ang = np.arctan2(t[:, 1], t[:, 0])
    rep = ks_test(ang, lambda a: (np.clip(a, -np.pi, np.pi) + np.pi) / (2 * np.pi))
    assert rep.p_value > 0.001


def test_tangent_takes_rows_only():
    # one direction is one row: a bare (3,) vector is refused, not read as
    # three directions
    with pytest.raises(ValueError):
        tangent_from_ball(make_rng(27), np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# the redraw kernel against the keep-only loop it replaced


def _kept_redraw(m, dim, draw, sequential=False):
    # the keep-only loop: draws return the keep mask and the kept rows only,
    # which are scattered into place
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


def _kept_normalized(v):
    nrm = np.sqrt(dot(v, v))
    ok = nrm > fiberline.haar._TINY_NORM
    return ok, v[ok] / nrm[ok, None]


def _kept_cube(rng, m, dim):
    def draw(rows):
        c = 2.0 * rng.uniforms(dim * rows.size).reshape(-1, dim) - 1.0
        ok = dot(c, c) <= 1.0
        return ok, c[ok]

    return _kept_redraw(m, dim, draw, sequential=True)


def _kept_sphere3(rng, m):
    return _kept_redraw(m, 4, lambda rows: _kept_normalized(
        rng.gaussians(4 * rows.size).reshape(-1, 4)), sequential=True)


def _kept_tangent(rng, u):
    us = u / np.sqrt(dot(u, u))[:, None]

    def draw(pending):
        b = _kept_cube(rng, pending.size, 3)
        ub = us[pending]
        return _kept_normalized(b - dot(b, ub)[:, None] * ub)

    return _kept_redraw(len(us), 3, draw)


_DIRECTIONS = sample_sphere2(make_rng(30), 1000)
# case -> (draw, oracle, norm floor); a floor of 0.5 rejects about a third
# of the tangent rows and 1 in 150 of the gaussian ones, so the redraw passes
# of _normalized run too
_REDRAWS = {
    "cube-2": (lambda rng: _cube_rejection(rng, 1000, 2),
               lambda rng: _kept_cube(rng, 1000, 2), None),
    "cube-3": (lambda rng: _cube_rejection(rng, 1000, 3),
               lambda rng: _kept_cube(rng, 1000, 3), None),
    "sphere3": (lambda rng: sample_sphere3(rng, 1000),
                lambda rng: _kept_sphere3(rng, 1000), None),
    "sphere3-floor": (lambda rng: sample_sphere3(rng, 1000),
                      lambda rng: _kept_sphere3(rng, 1000), 0.5),
    "tangent": (lambda rng: tangent_from_ball(rng, _DIRECTIONS),
                lambda rng: _kept_tangent(rng, _DIRECTIONS), None),
    "tangent-floor": (lambda rng: tangent_from_ball(rng, _DIRECTIONS),
                      lambda rng: _kept_tangent(rng, _DIRECTIONS), 0.5),
}


@pytest.mark.parametrize("block", [1, 37, fiberline._blocks._BLOCK])
@pytest.mark.parametrize("case", sorted(_REDRAWS))
def test_redraw_keeps_the_bits_of_the_keep_only_loop(case, block, monkeypatch):
    # storing every candidate and overwriting the rejected ones later gives
    # the values and stream words of scattering only the kept rows
    draw, oracle, floor = _REDRAWS[case]
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    if floor is not None:
        monkeypatch.setattr(fiberline.haar, "_TINY_NORM", floor)
    rng, ref = make_rng(31), make_rng(31)
    got, want = draw(rng), oracle(ref)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert rng._counter == ref._counter


@pytest.mark.parametrize("block", [1, 37, fiberline._blocks._BLOCK])
@pytest.mark.parametrize("m", [1, 16383, 16385, 40000])
@pytest.mark.parametrize("dim", [2, 3])
def test_cube_rows_are_the_rows_of_the_whole_draw(dim, m, block, monkeypatch):
    # the cube draw replayed block by block, block-aligned or not, is every
    # bit the whole draw, and the stream ends where the whole draw leaves it
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    if block == 1:  # every row is a block edge; 500 rows show it
        m = min(m, 500)
    rng, ref = make_rng(32), make_rng(32)
    rng.uniforms(3)
    ref.uniforms(3)
    rows = _replayed(rng, m, dim, _cube_candidates, _cube_kept)
    want = _cube_rejection(ref, m, dim)
    _assert_replays(rows, want, rng, ref)


def _assert_replays(rows, want, rng, ref):
    """The replay ``rows`` left rng where ref is before any block was read,
    and its blocks, in order, are every bit want."""
    m = len(want)
    assert (rng._counter, rng._spare) == (ref._counter, ref._spare)
    got = list(rows)
    assert [s for s, _ in got] == list(blocks(m))
    assert np.array_equal(np.concatenate([b for _, b in got]).view(np.int64),
                          want.view(np.int64))
    assert (rng._counter, rng._spare) == (ref._counter, ref._spare)


@pytest.mark.parametrize("block", [1, 37, fiberline._blocks._BLOCK])
@pytest.mark.parametrize("floor", [None, 1.2])
@pytest.mark.parametrize("spare", [False, True])
def test_quat_rows_are_the_rows_of_sample_sphere3(spare, floor, block,
                                                  monkeypatch):
    # a pending spare shifts every row half a polar pair; a norm floor of
    # 1.2 rejects about 1 row in 6 and leaves 42% of the rows in doubt
    # after the pair scan (76% after a spare), so both the scan's verdict
    # and the exact gaussians decide rows, and the redraw pass runs
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    if floor is not None:
        monkeypatch.setattr(fiberline.haar, "_TINY_NORM", floor)
    m = 3 * block + 5 if block > 1 else 500
    rng, ref, probe = make_rng(34), make_rng(34), make_rng(34)
    if spare:
        for stream in (rng, ref, probe):
            stream.gaussians(1)
    assert _sphere3_kept(probe, m, 4).all() == (floor is None)
    rows = _replayed(rng, m, 4, _gaussian_candidates, _sphere3_kept)
    want = sample_sphere3(ref, m)
    _assert_replays(rows, want, rng, ref)
