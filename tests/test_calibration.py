"""Calibration of the gates' p-values over seeds.

A gate passes at p > 1e-3 at one fixed seed, so a p-value that is wrong but
not small (a wrong df, a wrong finite-n correction, a slightly-off CDF)
passes every fixed-seed run.  Under the null hypothesis each p-value is
uniform on (0, 1), which is an exact oracle for the tests themselves: over
400 seeds, the p-values ``haar-test --n 5000`` reports must pass a
Kolmogorov-Smirnov test against U(0, 1) at p > 1e-3.

The power row recomputes the chi-square p from the same 400 statistics with
one degree of freedom too few (df 18 for 20 bands).  The fixed-seed gate
fails it at 1 seed of the 400, as often as it fails the right df 19; the
calibration must fail it (KS p 2.5e-5 at these seeds).  Two too few (df 17)
give 6e-12 and two too many (df 21) 2.6e-4, while one too many (df 20)
gives 0.36 and is not caught at 400 seeds, so the row shows a floor of the
power, not its extent.
"""
import json

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import kstest

from fiberline.cli import main

SEEDS = range(1000, 1400)
KEYS = ("rotation_angle_ks", "quaternion_w_ks", "axis_isotropy_chi2")


@pytest.fixture(scope="module")
def haar_sweep(tmp_path_factory):
    """Each test's statistics and p-values over the seeds."""
    out = tmp_path_factory.mktemp("haar") / "report.json"
    runs = []
    for seed in SEEDS:
        code = main(["haar-test", "--n", "5000", "--seed", str(seed),
                     "--out", str(out)])
        tests = json.loads(out.read_text())["tests"]
        assert code == (0 if all(tests[k]["p_value"] > 1e-3 for k in KEYS)
                        else 1)
        runs.append(tests)
    return {key: {f: np.array([t[key][f] for t in runs])
                  for f in ("statistic", "p_value")} for key in KEYS}


@pytest.mark.parametrize("key", KEYS)
def test_haar_test_p_values_are_uniform(key, haar_sweep):
    assert kstest(haar_sweep[key]["p_value"], "uniform").pvalue > 1e-3


def test_calibration_catches_one_degree_of_freedom_too_few(haar_sweep):
    stat = haar_sweep["axis_isotropy_chi2"]["statistic"]
    right = haar_sweep["axis_isotropy_chi2"]["p_value"]
    # the reported p is the survival function at df = 19
    assert np.allclose(right, chdtrc(19, stat), rtol=1e-12, atol=0.0)
    wrong = chdtrc(18, stat)
    # the fixed-seed gates fail the wrong df no more often than the right
    # one, and the calibration fails it
    assert np.count_nonzero(wrong <= 1e-3) <= np.count_nonzero(right <= 1e-3)
    assert kstest(wrong, "uniform").pvalue <= 1e-3
