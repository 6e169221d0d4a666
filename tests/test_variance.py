"""Calibration of the experiments' standard errors against exact variances.

Every experiment gate is |mean - oracle| <= 3 stderr, so a stderr that is
too large quietly widens the gate.  Where the variance of one sample is
known exactly, the reported stderr can be checked itself: n stderr^2 is the
sample variance s^2, whose own spread is fixed by the exact central moments
sigma^2 and mu_4,

    Var(s^2) = mu_4 / n - sigma^4 (n - 3) / (n (n - 1)),

and s^2 must lie within 3 of those standard deviations of sigma^2.

- ``chord`` hit rate and ``bertrand --method midpoint``: each sample is a
  Bernoulli(p) indicator with p the oracle, so sigma^2 = p(1 - p) and
  mu_4 = p(1 - p)(1 - 3p + 3p^2).
- ``chord`` mean chord of a ball of radius r: the chord law
  F(x) = x^2 / (2r)^2 gives sigma^2 = 2r^2/9 and mu_4 = 16r^4/135.

Each check runs at seed 1 and n = 200000; a stderr inflated by 25% must
fail every one of them.

The box's mean chord has no closed-form variance, so its stderr is checked
over seeds instead: at 400 seeds the reported z scores must look like 400
draws of N(0, 1).  Sum z^2 is tested against chi^2(400), two-sided, and the
z are tested against N(0, 1) by Kolmogorov-Smirnov, both at p > 1e-3; the
hit rate's z from the same runs get the same two tests.  z / 1.25 is the z
a 25% larger stderr would report, and its sum of squares must fail.
"""
import json
from unittest import mock

import numpy as np
import pytest
from scipy.special import chdtr, chdtrc, ndtr

import fiberline.cli
from fiberline.cli import main
from fiberline.stats import Estimate, ks_test

SEED = 1
N = 200_000
BALL_R = 1.0


def _bernoulli(p):
    return p * (1.0 - p), p * (1.0 - p) * (1.0 - 3.0 * p + 3.0 * p * p)


def _ball_chord(oracle_mean):
    r = BALL_R
    assert oracle_mean == pytest.approx(4.0 * r / 3.0)
    return 2.0 * r * r / 9.0, 16.0 * r ** 4 / 135.0


# name -> (command, estimate key, oracle key, oracle -> (sigma^2, mu_4))
CHECKS = {
    "ball-hit-rate": (["chord", "--body", f"ball:0,0,0,{BALL_R}",
                       "--radius", "2"], "hit_rate", "hit_rate", _bernoulli),
    "box-hit-rate": (["chord", "--body", "box:0,0,0,1,1,1", "--radius", "1.8"],
                     "hit_rate", "hit_rate", _bernoulli),
    "bertrand-midpoint": (["bertrand", "--method", "midpoint"],
                          "probability", "probability", _bernoulli),
    "ball-mean-chord": (["chord", "--body", f"ball:0,0,0,{BALL_R}",
                         "--radius", "2"], "mean_chord_given_hit",
                        "mean_chord_given_hit", _ball_chord),
}


def _variance_z(capsys, name):
    """(s^2 - sigma^2) / sd(s^2) for the named check's reported stderr."""
    argv, est_key, oracle_key, moments = CHECKS[name]
    code = main([*argv, "--n", str(N), "--seed", str(SEED)])
    rep = json.loads(capsys.readouterr().out)
    est = rep["estimates"][est_key]
    n, s2 = est["n"], est["n"] * est["stderr"] ** 2
    var, mu4 = moments(rep["oracle_values"][oracle_key])
    sd = (mu4 / n - var * var * (n - 3) / (n * (n - 1))) ** 0.5
    return code, (s2 - var) / sd


@pytest.mark.parametrize("name", CHECKS)
def test_stderr_matches_exact_variance(name, capsys):
    code, z = _variance_z(capsys, name)
    assert code == 0
    assert abs(z) <= 3.0, z


_real_estimate = fiberline.cli.estimate_from_samples


def _inflated(x):
    """estimate_from_samples with its stderr 25% too large."""
    est = _real_estimate(x)
    return Estimate(est.mean, 1.25 * est.stderr, est.n)


@pytest.mark.parametrize("name", CHECKS)
def test_inflated_stderr_fails_variance_check(name, capsys):
    # the negative control: the mean gates still pass, this check must not
    with mock.patch("fiberline.cli.estimate_from_samples", _inflated):
        code, z = _variance_z(capsys, name)
    assert code == 0
    assert abs(z) > 3.0, z


SWEEP_SEEDS = range(1000, 1400)
SWEEP_ARGV = ["chord", "--body", "box:0,0,0,1,1,1", "--radius", "1.8",
              "--n", "20000"]


@pytest.fixture(scope="module")
def box_sweep(tmp_path_factory):
    """z scores of each test key over the sweep's seeds."""
    out = tmp_path_factory.mktemp("sweep") / "report.json"
    z = {"mean_chord_z": [], "hit_rate_z": []}
    for seed in SWEEP_SEEDS:
        assert main([*SWEEP_ARGV, "--seed", str(seed), "--out", str(out)]) in (0, 1)
        tests = json.loads(out.read_text())["tests"]
        for key, series in z.items():
            series.append(tests[key]["statistic"])
    return {key: np.array(series) for key, series in z.items()}


def _chi2_two_sided(z):
    """Two-sided p of sum z^2 against chi^2(len(z))."""
    stat, dof = float(np.sum(z * z)), len(z)
    return 2.0 * min(chdtr(dof, stat), chdtrc(dof, stat))


@pytest.mark.parametrize("key", ["mean_chord_z", "hit_rate_z"])
def test_box_seed_sweep_z_is_standard_normal(key, box_sweep):
    z = box_sweep[key]
    assert _chi2_two_sided(z) > 1e-3
    assert ks_test(z, ndtr).p_value > 1e-3


@pytest.mark.parametrize("key", ["mean_chord_z", "hit_rate_z"])
def test_box_seed_sweep_catches_inflated_stderr(key, box_sweep):
    # the negative control, from the same runs
    assert _chi2_two_sided(box_sweep[key] / 1.25) <= 1e-3
