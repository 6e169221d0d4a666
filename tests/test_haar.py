"""Sphere/rotation samplers against their textbook distributions."""
import numpy as np
import pytest

from fiberline.errors import (
    AntipodalViolation,
    BoundViolated,
    NonFinite,
    NotUnit,
    PoleSingularity,
    RejectionStall,
)
from fiberline.haar import (
    angle_between,
    hopf_map,
    naive_frame,
    quat_mul,
    quat_to_rotation,
    rotation_angle,
    rotation_angle_cdf,
    rotation_to_frame,
    s3_w_cdf,
    sample_ball3,
    sample_rotation,
    sample_s3_density,
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


def test_sphere2_single_matches_batch():
    a = sample_sphere2(make_rng(5))
    b = sample_sphere2(make_rng(5), 1)
    assert a.shape == (3,) and np.array_equal(a, b[0])


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
    pts = sample_ball3(rng, N_BIG)
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


def test_rotation_to_frame_is_columns():
    R = sample_rotation(make_rng(11), 5)
    ex, ey, ez = rotation_to_frame(R)
    assert np.array_equal(ex, R[:, :, 0])
    assert np.array_equal(ez, R @ np.array([0.0, 0.0, 1.0]))


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
# density-weighted S^3 sampling

def test_s3_density_flat_accepts_everything():
    rng = make_rng(18)
    q = sample_s3_density(rng, lambda q: np.ones(q.shape[0]), 1.0, 10_000)
    assert rng.accepted == rng.proposals > 0
    assert q.shape == (10_000, 4)


def test_s3_density_acceptance_rate():
    """f = 1 + w^2 with bound 2: mean acceptance (1 + 1/4)/2 = 0.625."""
    rng = make_rng(19)
    sample_s3_density(rng, lambda q: 1.0 + q[:, 0] ** 2, 2.0, 600_000,
                      projective=True)
    assert abs(rng.accepted / rng.proposals - 0.625) < 0.01 * 0.625


def test_rejection_counts_are_totals_per_stream():
    def draw(rng):
        sample_s3_density(rng, lambda q: 1.0 + q[:, 0] ** 2, 2.0, 500)

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


def test_s3_density_reweights_w():
    # under f = 1 + w^2 the w-marginal becomes (1+w^2) sqrt(1-w^2), testable
    # against its quadrature CDF
    q = sample_s3_density(make_rng(20), lambda q: 1.0 + q[:, 0] ** 2, 2.0, N_KS,
                          projective=True)
    grid = np.linspace(-1.0, 1.0, 4001)
    dens = (1.0 + grid**2) * np.sqrt(np.maximum(0.0, 1.0 - grid**2))
    cdf_grid = np.concatenate(
        [[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))]
    )
    cdf_grid /= cdf_grid[-1]
    rep = ks_test(q[:, 0], lambda w: np.interp(w, grid, cdf_grid))
    assert rep.p_value > 0.001


def test_s3_density_bound_violation():
    with pytest.raises(BoundViolated):
        sample_s3_density(make_rng(21), lambda q: 1.0 + q[:, 0] ** 2, 1.0, 100)


def test_s3_density_negative_rejected():
    with pytest.raises(BoundViolated):
        sample_s3_density(make_rng(21), lambda q: q[:, 0], 1.0, 100)


def test_s3_density_nonfinite():
    def f(q):
        v = np.ones(q.shape[0])
        v[0] = np.nan
        return v

    with pytest.raises(NonFinite):
        sample_s3_density(make_rng(22), f, 1.0, 100)


def test_s3_density_antipodal_audit():
    # declaring projective symmetry for an asymmetric density must be caught
    with pytest.raises(AntipodalViolation):
        sample_s3_density(
            make_rng(23), lambda q: (1.0 + q[:, 0]) / 2.0, 1.0, 1000,
            projective=True,
        )


def test_s3_density_stall():
    with pytest.raises(RejectionStall):
        sample_s3_density(
            make_rng(24), lambda q: np.zeros(q.shape[0]), 1.0, 100,
            stall_proposals=100_000,
        )


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
    t = tangent_from_ball(rng, np.array([0.0, 0.0, 1.0]), N_KS)
    ang = np.arctan2(t[:, 1], t[:, 0])
    rep = ks_test(ang, lambda a: (np.clip(a, -np.pi, np.pi) + np.pi) / (2 * np.pi))
    assert rep.p_value > 0.001


def test_tangent_batch_vs_n_modes():
    with pytest.raises(ValueError):
        tangent_from_ball(make_rng(27), np.zeros((4, 3)) + [0, 0, 1], 5)
