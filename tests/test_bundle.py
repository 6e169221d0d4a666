"""The circle action on frames, its quotient to lines, and line densities."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberline._blocks
import fiberline.bundle
import fiberline.haar
from fiberline.bundle import (
    BundlePoint,
    LineDensity,
    _project_arrays,
    act,
    foot_tilt_density,
    project_to_line,
    radial_density,
    sample_bundle,
    sample_cosine_surface,
    sample_disk,
    sample_isotropic,
    tilt_density,
    tilt_radial_density,
    uniform_density,
)
from fiberline.errors import BoundViolated, NonFinite, NotUnit, RejectionStall
from fiberline.geometry import Ball, chord
from fiberline.haar import _rejection, quat_to_rotation, sample_rotation
from fiberline.randkit import make_rng
from fiberline.stats import ball_chord_cdf, ks_test, ks_two_sample

UNIT_BALL = Ball((0.0, 0.0, 0.0), 1.0)


def _random_points(seed, n):
    rng = make_rng(seed)
    return BundlePoint(sample_rotation(rng, n), sample_disk(rng, 1.0, n))


# ---------------------------------------------------------------------------
# the action

def test_act_zero_is_identity():
    pt = _random_points(0, 10)
    moved = act(0.0, pt)
    assert np.array_equal(moved.g, pt.g) and np.array_equal(moved.r, pt.r)


def test_act_group_law():
    pt = _random_points(1, 100)
    h1, h2 = 0.7, -2.1
    a = act(h2, act(h1, pt))
    b = act(h1 + h2, pt)
    assert np.max(np.abs(a.g - b.g)) < 1e-10
    assert np.max(np.abs(a.r - b.r)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_act_group_law_property(h1, h2):
    pt = _random_points(2, 4)
    a = act(h2, act(h1, pt))
    b = act(h1 + h2, pt)
    assert np.max(np.abs(a.g - b.g)) < 1e-9
    assert np.max(np.abs(a.r - b.r)) < 1e-9


def test_act_periodic():
    pt = _random_points(3, 50)
    moved = act(2.0 * np.pi, pt)
    assert np.max(np.abs(moved.g - pt.g)) < 1e-12
    assert np.max(np.abs(moved.r - pt.r)) < 1e-12


def test_act_batched_angles():
    pt = _random_points(4, 8)
    h = np.linspace(0.0, 3.0, 8)
    moved = act(h, pt)
    for i in range(8):
        one = act(float(h[i]), BundlePoint(pt.g[i], pt.r[i]))
        assert np.max(np.abs(moved.g[i] - one.g)) < 1e-15


# ---------------------------------------------------------------------------
# projection

def test_project_identity_frame():
    dl = project_to_line(BundlePoint(np.eye(3), np.zeros(2)))
    assert np.array_equal(dl.u, [0.0, 0.0, 1.0])
    assert np.array_equal(dl.foot, [0.0, 0.0, 0.0])


def test_project_identity_frame_offset():
    dl = project_to_line(BundlePoint(np.eye(3), np.array([1.0, 2.0])))
    assert np.array_equal(dl.foot, [1.0, 2.0, 0.0])


def test_projection_gauge_invariant():
    """project(act(h, pt)) == project(pt) across a sweep of 100 angles."""
    pt = _random_points(5, 200)
    base = project_to_line(pt)
    for h in np.linspace(-2.0 * np.pi, 2.0 * np.pi, 100):
        moved = project_to_line(act(h, pt))
        assert np.max(np.abs(moved.u - base.u)) < 1e-10
        assert np.max(np.abs(moved.foot - base.foot)) < 1e-10


def test_bundle_point_validation():
    with pytest.raises(ValueError):
        BundlePoint(np.eye(3) * 2.0, np.zeros(2))      # not orthogonal
    with pytest.raises(ValueError):
        BundlePoint(np.diag([1.0, 1.0, -1.0]), np.zeros(2))  # det -1
    with pytest.raises(ValueError):
        BundlePoint(np.eye(3), np.zeros(3))            # r shape
    with pytest.raises(ValueError):
        BundlePoint(np.eye(3), np.array([np.nan, 0.0]))


def test_frame_check_is_the_line_check():
    # a column 4e-11 too long would pass a frame check at 1e-10 and then
    # fail as a line's direction, so frames are checked at the line's 1e-12
    r = np.array([0.3, 0.4])
    with pytest.raises(ValueError, match="orthonormal"):
        BundlePoint(np.diag([1.0, 1.0, 1.0 + 4e-11]), r)
    g = np.stack([np.eye(3)] * 3)
    g[1, :, 0] = [1.0, 4e-11, 0.0]  # first column tilted toward the second
    with pytest.raises(ValueError, match="orthonormal"):
        BundlePoint(g, np.zeros((3, 2)))
    dl = project_to_line(BundlePoint(np.diag([1.0, 1.0, 1.0 + 5e-13]), r))
    assert dl.u[2] == 1.0 + 5e-13
    assert np.array_equal(dl.foot, [0.3, 0.4, 0.0])


# ---------------------------------------------------------------------------
# samplers

def test_disk_radius_and_uniformity():
    rng = make_rng(6)
    pts = sample_disk(rng, 2.0, 100_000)
    r2 = np.sum(pts * pts, axis=1)
    assert np.max(r2) <= 4.0
    # area-uniform means |r|^2 ~ U[0, R^2]
    rep = ks_test(r2, lambda x: np.clip(x / 4.0, 0.0, 1.0))
    assert rep.p_value > 0.001


def test_isotropic_lines_distribution():
    rng = make_rng(7)
    lines = sample_isotropic(rng, 1.5, 100_000)
    assert np.max(np.abs(np.sum(lines.u * lines.foot, axis=1))) <= 1e-9
    rep_u = ks_test(lines.u[:, 2], lambda z: (np.clip(z, -1, 1) + 1) / 2)
    assert rep_u.p_value > 0.001
    d2 = np.sum(lines.foot**2, axis=1)
    rep_d = ks_test(d2, lambda x: np.clip(x / 1.5**2, 0.0, 1.0))
    assert rep_d.p_value > 0.001


def test_isotropic_lines_build_no_whole_batch_temporaries():
    # the draw keeps only the redrawn offsets and quaternions it turns into
    # lines, block by block: about 1.5x the output, 2.1x with whole
    # quaternions; a (n, 3, 3) frame array alone is 1.5x
    tracemalloc.start()
    try:
        lines = sample_isotropic(make_rng(7), 1.5, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * (lines.u.nbytes + lines.foot.nbytes)


def _lines_through_frames(rng, radius, n, quaternions=None):
    # the reference: each block of quaternions made into (k, 3, 3) frames,
    # then projected
    q = (quaternions or fiberline.haar.sample_sphere3)(rng, n)
    r = sample_disk(rng, radius, n)
    u, foot = np.empty((n, 3)), np.empty((n, 3))
    for s in fiberline._blocks.blocks(n):
        u[s], foot[s] = _project_arrays(quat_to_rotation(q[s]), r[s])
    return u, foot


@pytest.mark.parametrize("block", [1, 37, fiberline._blocks._BLOCK])
def test_isotropic_lines_are_the_projected_frames(block, monkeypatch):
    # no frame is built, yet every bit and every stream word is the same
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    n = 3 * block + 5 if block > 1 else 200
    rng, ref = make_rng(12), make_rng(12)
    lines = sample_isotropic(rng, 1.5, n)
    u, foot = _lines_through_frames(ref, 1.5, n)
    assert np.array_equal(lines.u.view(np.int64), u.view(np.int64))
    assert np.array_equal(lines.foot.view(np.int64), foot.view(np.int64))
    assert rng._counter == ref._counter


def _spoiled_quaternions(monkeypatch, spoil):
    # a whole (k, 4) array stands in for the replayed quaternions, handed
    # out block by block; the offsets are replayed as ever
    def draw(rng, k):
        q = fiberline.haar.sample_sphere3(rng, k)
        spoil(q)
        return q

    def replayed(rng, m, dim, *passes):
        if dim != 4:
            return fiberline.haar._replayed(rng, m, dim, *passes)
        q = draw(rng, m)
        return ((s, q[s]) for s in fiberline._blocks.blocks(m))

    monkeypatch.setattr(fiberline.bundle, "_replayed", replayed)
    return draw


def _scaled(q):
    q *= 1.0 + 1e-6


def _nan_row(q):
    q[3, 2] = np.nan


@pytest.mark.parametrize("spoil", [_scaled, _nan_row])
@pytest.mark.parametrize("block", [1, 37, fiberline._blocks._BLOCK])
def test_isotropic_lines_check_quaternions_as_frames_do(spoil, block,
                                                        monkeypatch):
    # quaternions off the unit sphere, or NaN (which a plain max over block
    # maxima would drop), fail with quat_to_rotation's error
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    spoiled = _spoiled_quaternions(monkeypatch, spoil)
    with pytest.raises(NotUnit) as want:
        _lines_through_frames(make_rng(13), 1.0, 100, spoiled)
    with pytest.raises(NotUnit) as got:
        sample_isotropic(make_rng(13), 1.0, 100)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("quaternion norm off by")


def test_density_sees_one_block_at_a_time():
    # a first round of 50 008 proposals reaches the density in blocks
    rows, rng = [], make_rng(1)
    foot_tilt = foot_tilt_density(4.0)

    def f(g, r):
        rows.append(len(g))
        return foot_tilt.f(g, r)

    sample_bundle(rng, LineDensity(f, 1.0, 1.0), 50_000)
    assert max(rows) <= fiberline._blocks._BLOCK
    assert sum(rows) == rng.proposals


def test_bundle_builds_no_frames_of_a_whole_round(monkeypatch):
    # frames are built per block, for the proposals and for the kept points
    real, rows = fiberline.haar.quat_to_rotation, []

    def spy(q):
        rows.append(len(q))
        return real(q)

    monkeypatch.setattr(fiberline.haar, "quat_to_rotation", spy)
    monkeypatch.setattr(fiberline.bundle, "quat_to_rotation", spy)
    rng = make_rng(1)
    sample_bundle(rng, foot_tilt_density(4.0), 50_000)
    assert max(rows) <= fiberline._blocks._BLOCK
    assert sum(rows) == rng.proposals + 50_000


def test_bundle_frames_are_sample_rotation_rows():
    # proposing quaternions reads the words, and keeps the frames bit for
    # bit, of proposing sample_rotation's frames
    density, n = tilt_density(2.0), 30_000
    pts = sample_bundle(make_rng(3), density, n)
    rng = make_rng(3)
    g, r = np.empty((n, 3, 3)), np.empty((n, 2))
    _rejection(rng, lambda k: (sample_rotation(rng, k), sample_disk(rng, 1.0, k)),
               density.f, density.bound, (g, r))
    assert np.array_equal(pts.g.view(np.int64), g.view(np.int64))
    assert np.array_equal(pts.r.view(np.int64), r.view(np.int64))


def test_flat_bundle_density_matches_isotropic():
    """f == 1 through the rejection path reproduces sample_isotropic."""
    lines_r = project_to_line(sample_bundle(make_rng(8), uniform_density(1.0), 50_000))
    lines_i = sample_isotropic(make_rng(9), 1.0, 50_000)
    assert ks_two_sample(lines_r.u[:, 2], lines_i.u[:, 2]).p_value > 0.001
    d_r = np.sqrt(np.sum(lines_r.foot**2, axis=1))
    d_i = np.sqrt(np.sum(lines_i.foot**2, axis=1))
    assert ks_two_sample(d_r, d_i).p_value > 0.001


def test_tilt_acceptance_rate():
    """exp(kappa (u.a - 1)) at kappa = 2: mean acceptance (1 - e^-4)/4."""
    want = 240_000  # roughly one million proposals at the predicted rate
    rng = make_rng(10)
    sample_bundle(rng, tilt_density(2.0), want)
    target = (1.0 - np.exp(-4.0)) / 4.0
    assert rng.proposals > 900_000
    assert abs(rng.accepted / rng.proposals - target) < 0.01 * target


def test_tilt_shifts_uz():
    pts = sample_bundle(make_rng(11), tilt_density(2.0), 20_000)
    uz = project_to_line(pts).u[:, 2]
    # under the tilt the z-marginal is exp(2(z-1)) dz / norm on [-1, 1]
    norm = (1.0 - np.exp(-4.0)) / 2.0
    rep = ks_test(uz, lambda z: (np.exp(2 * (np.clip(z, -1, 1) - 1))
                                 - np.exp(-4.0)) / (2 * norm))
    assert rep.p_value > 0.001


def test_radial_density_shrinks_feet():
    pts = sample_bundle(make_rng(12), radial_density(0.3), 20_000)
    d2 = np.sum(project_to_line(pts).foot ** 2, axis=1)
    # density exp(-x/(2 sigma^2)) against uniform base on x = |r|^2 in [0, 1]
    s2 = 2.0 * 0.3**2
    norm = s2 * (1.0 - np.exp(-1.0 / s2))
    rep = ks_test(d2, lambda x: s2 * (1.0 - np.exp(-np.clip(x, 0, 1) / s2)) / norm)
    assert rep.p_value > 0.001


def test_tilt_radial_is_product():
    d = tilt_radial_density(1.5, 0.4)
    g = sample_rotation(make_rng(13), 100)
    r = sample_disk(make_rng(14), 1.0, 100)
    expect = tilt_density(1.5).f(g, r) * radial_density(0.4).f(g, r)
    assert np.max(np.abs(d.f(g, r) - expect)) < 1e-15


def test_bundle_bound_violated():
    bad = LineDensity(lambda g, r: np.full(g.shape[0], 2.0), 1.0, 1.0)
    with pytest.raises(BoundViolated):
        sample_bundle(make_rng(15), bad, 100)


def test_bundle_nonfinite():
    bad = LineDensity(lambda g, r: np.full(g.shape[0], np.inf), 1.0, 1.0)
    with pytest.raises(NonFinite):
        sample_bundle(make_rng(16), bad, 100)
    # one NaN among finite values fails the round too
    nan_row = LineDensity(
        lambda g, r: np.where(np.arange(g.shape[0]) == 0, np.nan, 1.0), 1.0, 1.0)
    with pytest.raises(NonFinite):
        sample_bundle(make_rng(22), nan_row, 100)


def test_bundle_stall(monkeypatch):
    monkeypatch.setattr(fiberline.haar, "_STALL_PROPOSALS", 100_000)
    dead = LineDensity(lambda g, r: np.zeros(g.shape[0]), 1.0, 1.0)
    with pytest.raises(RejectionStall):
        sample_bundle(make_rng(17), dead, 100)


@pytest.mark.parametrize("density", [
    lambda: radial_density(1e-200),
    lambda: radial_density(0.5, disk_radius=1e200),
    lambda: foot_tilt_density(4.0, disk_radius=1e308),
], ids=["radial-tiny-sigma", "radial-huge-radius", "foot-tilt-huge-radius"])
def test_underflowing_density_stalls_without_warnings(density, monkeypatch):
    # the exponents overflow to -inf, and exp(-inf) = 0 is exact: the loop
    # stalls quietly (the suite turns numpy's RuntimeWarnings into errors)
    monkeypatch.setattr(fiberline.haar, "_STALL_PROPOSALS", 100_000)
    with pytest.raises(RejectionStall):
        sample_bundle(make_rng(17), density(), 100)


def test_overflowing_density_is_still_nonfinite():
    big = LineDensity(lambda g, r: np.exp(np.full(g.shape[0], 1000.0)), 1.0, 1.0)
    with pytest.raises(NonFinite):
        sample_bundle(make_rng(16), big, 100)


@pytest.mark.parametrize("values, error", [
    (lambda k: np.ones(k + 1), ValueError),       # not one value per proposal
    (lambda k: np.ones((k, 1)), ValueError),
    (lambda k: np.full(k, -0.5), BoundViolated),  # negative density
], ids=["extra-value", "column", "negative"])
def test_rejection_density_contract(values, error):
    """The rejection loop's checks on what a density returns."""
    density = LineDensity(lambda g, r: values(g.shape[0]), 1.0, 1.0)
    with pytest.raises(error):
        sample_bundle(make_rng(25), density, 100)


def test_density_validation():
    with pytest.raises(ValueError):
        LineDensity(lambda g, r: None, 0.0, 1.0)
    with pytest.raises(ValueError):
        LineDensity(lambda g, r: None, 1.0, -1.0)
    with pytest.raises(ValueError):
        tilt_density(1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        radial_density(0.0)
    with pytest.raises(ValueError):
        foot_tilt_density(-1.0)


# ---------------------------------------------------------------------------
# cosine surface source

def test_cosine_lines_hit_the_ball():
    lines = sample_cosine_surface(make_rng(23), 1.0, 20_000)
    ch = chord(UNIT_BALL, lines)
    assert np.all(ch > 0.0)


def test_cosine_chord_law():
    lines = sample_cosine_surface(make_rng(24), 1.0, 100_000)
    rep = ks_test(chord(UNIT_BALL, lines), ball_chord_cdf)
    assert rep.p_value > 0.001


def test_cosine_matches_conditioned_isotropic():
    ch_c = chord(UNIT_BALL, sample_cosine_surface(make_rng(25), 1.0, 100_000))
    iso = sample_isotropic(make_rng(26), 1.0, 100_000)
    ch_i = chord(UNIT_BALL, iso)
    ch_i = ch_i[ch_i > 0.0]
    assert ks_two_sample(ch_c, ch_i).p_value > 0.001


def test_cosine_scales_with_radius():
    lines = sample_cosine_surface(make_rng(27), 3.0, 50_000)
    ch = chord(Ball((0, 0, 0), 3.0), lines)
    rep = ks_test(ch, lambda x: ball_chord_cdf(x, 3.0))
    assert rep.p_value > 0.001
