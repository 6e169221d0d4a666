"""Release gate: ten checks covering every validated claim of the package.

Each test prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so a full run reads as a checklist.  Seeds are fixed; tolerances
are 3 x stderr for estimates, p > 0.001 for distribution tests, and stated
absolute bounds for exact identities.
"""
import json
import math

import numpy as np

from fiberline.bundle import (
    act,
    foot_tilt_density,
    project_to_line,
    sample_bundle,
    sample_cosine_surface,
    sample_disk,
    sample_isotropic,
    tilt_density,
    uniform_density,
)
from fiberline.cli import main
from fiberline.errors import PoleSingularity
from fiberline.geometry import Ball, Box, chord
from fiberline.haar import (
    angle_between,
    hopf_map,
    naive_frame,
    quat_mul,
    quat_to_rotation,
    rotation_angle,
    rotation_angle_cdf,
    sample_rotation,
    sample_sphere3,
    tangent_from_ball,
)
from fiberline.linespace import DirectedLine
from fiberline.randkit import make_rng
from fiberline.stats import (
    BERTRAND_METHODS,
    ball_chord_cdf,
    bertrand_experiment,
    bertrand_oracle,
    chi2_isotropy,
    gauge_audit,
    ks_test,
    ks_two_sample,
    mean_chord_experiment,
    mean_chord_oracle,
    resample_weighted,
    slope_importance_experiment,
)

UNIT_BALL = Ball((0.0, 0.0, 0.0), 1.0)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_bertrand_four_way():
    """Four chord constructions, each within 3 stderr of its analytic value."""
    parts, ok = [], True
    for i, method in enumerate(BERTRAND_METHODS):
        est = bertrand_experiment(make_rng(100 + i), method, 1_000_000)
        oracle = bertrand_oracle(method)
        ok &= abs(est.mean - oracle) <= 3.0 * est.stderr
        parts.append(f"{method} {est.mean:.4f} (want {oracle:.4f})")
    _verdict("criterion 1, chord paradox four-way", ok, "; ".join(parts))


def test_criterion_2_mean_chord_bodies():
    """Mean chord given hit equals 4V/S for ball, cube, and a 1x2x3 box."""
    cases = [
        (UNIT_BALL, 1.0, "ball"),
        (Box((0, 0, 0), (1, 1, 1)), math.sqrt(3.0), "cube"),
        (Box((-0.5, -1.0, -1.5), (0.5, 1.0, 1.5)), math.sqrt(14.0) / 2.0, "box123"),
    ]
    parts, ok = [], True
    for i, (body, radius, label) in enumerate(cases):
        _, mean = mean_chord_experiment(make_rng(200 + i), body, 1_000_000, radius)
        oracle = mean_chord_oracle(body)
        ok &= abs(mean.mean - oracle) <= 3.0 * mean.stderr
        parts.append(f"{label} {mean.mean:.4f}+-{mean.stderr:.4f} (want {oracle:.4f})")
    _verdict("criterion 2, mean chord 4V/S", ok, "; ".join(parts))


def test_criterion_3_hit_rate():
    """Unit ball inside a radius-2 sampling sphere is hit 1/4 of the time."""
    rate, _ = mean_chord_experiment(make_rng(300), UNIT_BALL, 1_000_000, 2.0)
    ok = abs(rate.mean - 0.25) <= 3.0 * rate.stderr
    _verdict("criterion 3, hit rate S/(4 pi R^2)", ok,
             f"rate {rate.mean:.5f}+-{rate.stderr:.5f} (want 0.25)")


def test_criterion_4_haar_diagnostics():
    """Rotation angles follow (1-cos)/pi and rotated e_z is isotropic."""
    R = sample_rotation(make_rng(400), 100_000)
    ks = ks_test(rotation_angle(R), rotation_angle_cdf)
    chi = chi2_isotropy(R[:, :, 2], bins=20)
    ok = ks.p_value > 0.001 and chi.p_value > 0.001
    _verdict("criterion 4, Haar diagnostics", ok,
             f"angle KS p={ks.p_value:.3f}, isotropy chi2 p={chi.p_value:.3f}")


def test_criterion_5_double_cover_and_fibers():
    """q/-q collapse to one rotation exactly; Hopf value rides its fiber."""
    q = sample_sphere3(make_rng(500), 1000)
    exact = np.array_equal(quat_to_rotation(q), quat_to_rotation(-q))
    rng = make_rng(501)
    qs = sample_sphere3(rng, 100)
    t = 2.0 * np.pi * rng.uniforms(100)
    fib = np.stack([np.cos(t), np.zeros(100), np.zeros(100), np.sin(t)], axis=1)
    drift = float(np.max(np.abs(hopf_map(quat_mul(qs, fib)) - hopf_map(qs))))
    ok = exact and drift < 1e-10
    _verdict("criterion 5, double cover + Hopf fibers", ok,
             f"matrices exact={exact}, max fiber drift {drift:.2e}")


def test_criterion_6_gauge_invariance():
    """The circle action never moves the projected line; estimates agree to
    1e-10; the deliberately broken action is caught beyond 3 sigma."""
    rng = make_rng(600)
    from fiberline.bundle import BundlePoint

    pts = BundlePoint(sample_rotation(rng, 10_000), sample_disk(rng, 1.0, 10_000))
    h = 2.0 * np.pi * rng.uniforms(10_000)
    base, moved = project_to_line(pts), project_to_line(act(h, pts))
    dev = max(float(np.max(np.abs(moved.u - base.u))),
              float(np.max(np.abs(moved.foot - base.foot))))

    audit = gauge_audit(make_rng(601), uniform_density(1.0),
                        lambda lines: chord(UNIT_BALL, lines), 100_000)
    broken = gauge_audit(make_rng(602), foot_tilt_density(4.0),
                         lambda lines: lines.foot @ np.array([0.0, 0.0, 1.0]),
                         100_000).broken
    ok = dev < 1e-10 and audit.gap < 1e-10 and broken.gap_sigma > 3.0
    _verdict("criterion 6, gauge invariance", ok,
             f"line dev {dev:.2e}, audit gap {audit.gap:.2e}, "
             f"broken control at {broken.gap_sigma:.1f} sigma")


def test_criterion_7_slope_chart_equivalence():
    """Importance sampling in the slope chart reproduces the mean chord and
    the whole chord law of frame-based isotropic lines."""
    est, ch, w = slope_importance_experiment(make_rng(700), 1_000_000)
    ok_mean = abs(est.mean - 4.0 / 3.0) <= 3.0 * est.stderr
    resampled = resample_weighted(make_rng(701), ch, w, 100_000)
    iso = chord(UNIT_BALL, sample_isotropic(make_rng(702), 1.0, 200_000))
    ks = ks_two_sample(resampled, iso[iso > 0.0])
    ok = ok_mean and ks.p_value > 0.001
    _verdict("criterion 7, slope-chart equivalence", ok,
             f"mean {est.mean:.4f}+-{est.stderr:.4f} (want 1.3333), "
             f"chord-law KS p={ks.p_value:.3f}")


def test_criterion_8_cosine_source_equivalence():
    """Cosine-weighted surface emission = isotropic lines given a hit."""
    ch_c = chord(UNIT_BALL, sample_cosine_surface(make_rng(800), 1.0, 100_000))
    iso = chord(UNIT_BALL, sample_isotropic(make_rng(801), 1.0, 100_000))
    two = ks_two_sample(ch_c, iso[iso > 0.0])
    exact = ks_test(ch_c, ball_chord_cdf)
    ok = two.p_value > 0.001 and exact.p_value > 0.001
    _verdict("criterion 8, cosine-source equivalence", ok,
             f"two-sample KS p={two.p_value:.3f}, "
             f"chord CDF KS p={exact.p_value:.3f}")


def test_criterion_9_hedgehog():
    """No formula frames the whole sphere (witnessed quantitatively), but the
    randomized tangent is angle-uniform everywhere, poles included."""
    eps = 1e-4
    u1 = np.array([np.sin(eps), 0.0, np.cos(eps)])
    u2 = np.array([0.0, np.sin(eps), np.cos(eps)])
    sep = float(angle_between(u1, u2))
    gap = float(angle_between(naive_frame(u1), naive_frame(u2)))
    witness = sep < 1e-3 and gap >= np.pi / 2.0 - 1e-2
    try:
        naive_frame([0.0, 0.0, 1.0])
        pole_raises = False
    except PoleSingularity:
        pole_raises = True

    bases = [
        (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
        (1 / math.sqrt(3.0),) * 3,
    ]
    rng = make_rng(900)
    worst_p = 1.0
    for base in bases:
        u = np.asarray(base)
        t = tangent_from_ball(rng, np.broadcast_to(u, (20_000, 3)))
        # angles measured in an explicit orthonormal basis of the plane
        helper = np.array([0.0, 1.0, 0.0]) if abs(u[0]) > 0.9 else np.array([1.0, 0.0, 0.0])
        v1 = helper - np.dot(helper, u) * u
        v1 /= np.linalg.norm(v1)
        v2 = np.cross(u, v1)
        ang = np.arctan2(t @ v2, t @ v1)
        rep = ks_test(ang, lambda a: (np.clip(a, -np.pi, np.pi) + np.pi) / (2 * np.pi))
        worst_p = min(worst_p, rep.p_value)
    ok = witness and pole_raises and worst_p > 0.001
    _verdict("criterion 9, hedgehog demonstration", ok,
             f"witness gap {gap:.3f} rad at separation {sep:.1e}, "
             f"pole raises={pole_raises}, worst tangent KS p={worst_p:.3f}")


def test_criterion_10_reproducibility(capsys):
    """CLI outputs are byte-stable; rejection acceptance matches its formula."""
    csv_args = ["sample", "--n", "1000", "--seed", "42", "--threads", "2"]
    assert main(csv_args) == 0
    csv1 = capsys.readouterr().out
    assert main(csv_args) == 0
    csv2 = capsys.readouterr().out
    same_csv = csv1 == csv2

    rep_args = ["bertrand", "--method", "midpoint", "--n", "100000", "--seed", "6"]
    main(rep_args)
    out1 = capsys.readouterr().out
    main(rep_args)
    out2 = capsys.readouterr().out
    same_json = out1 == out2 and json.loads(out1)["pass"] is True

    # tilt kappa=2 acceptance over ~1e6 proposals: (1 - e^-4)/4
    rng = make_rng(1000)
    sample_bundle(rng, tilt_density(2.0), 240_000)
    rate = rng.accepted / rng.proposals
    target = (1.0 - math.exp(-4.0)) / 4.0
    ok_rate = rng.proposals > 900_000 and abs(rate - target) < 0.01 * target
    ok = same_csv and same_json and ok_rate
    _verdict("criterion 10, reproducibility + acceptance rate", ok,
             f"csv identical={same_csv}, report identical={same_json}, "
             f"tilt rate {rate:.5f} (want {target:.5f}) "
             f"over {rng.proposals} proposals")
