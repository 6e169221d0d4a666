"""Estimators, the KS/chi-square machinery, and the canned experiments.

Derived oracles are recomputed here by quadrature rather than trusted as
constants, so a wrong closed form in the library cannot cancel against a
wrong expectation in the tests.
"""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fiberline._blocks
from fiberline.bundle import (
    BundlePoint,
    foot_tilt_density,
    sample_disk,
    sample_isotropic,
    tilt_density,
    uniform_density,
)
from fiberline.errors import (
    DegenerateWeights,
    InsufficientRadius,
    NoHits,
    TooFewSamples,
)
from fiberline.geometry import Ball, Box, Halfspaces, chord, surface_area, \
    volume
from fiberline.haar import s3_w_cdf
from fiberline.randkit import make_rng
from fiberline.stats import (
    BERTRAND_METHODS,
    Estimate,
    bertrand_experiment,
    bertrand_indicators,
    bertrand_oracle,
    ball_chord_cdf,
    chi2_isotropy,
    effective_sample_size,
    estimate_from_samples,
    gauge_audit,
    hit_rate_oracle,
    isotropic_chords,
    kolmogorov_sf,
    ks_test,
    ks_two_sample,
    mean_chord_experiment,
    mean_chord_oracle,
    resample_weighted,
    slope_importance_experiment,
    weighted_estimate,
)

UNIT_BALL = Ball((0.0, 0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# estimates

def test_estimate_against_numpy():
    x = make_rng(0).uniforms(1000)
    est = estimate_from_samples(x)
    assert est.mean == float(np.mean(x))
    assert abs(est.stderr - float(np.std(x, ddof=1)) / math.sqrt(1000)) < 1e-15
    assert est.n == 1000


def test_estimate_edge_cases():
    one = estimate_from_samples([2.5])
    assert one.mean == 2.5 and one.stderr == 0.0 and one.n == 1
    with pytest.raises(TooFewSamples):
        estimate_from_samples([])


@pytest.mark.parametrize("scale", [2.0**1000, 2.0**-1000],
                         ids=["huge", "tiny"])
def test_estimate_is_scale_safe(scale):
    # a power-of-two scale is exact, so the estimate scales with the data
    # instead of overflowing (or underflowing) in the squares
    x = make_rng(3).uniforms(1000) - 0.5
    est, scaled = estimate_from_samples(x), estimate_from_samples(x * scale)
    assert scaled == Estimate(est.mean * scale, est.stderr * scale, est.n)


def _numpy_estimate(x):
    """The estimate as np.mean and np.std make it from the scaled samples."""
    e = math.frexp(max(np.max(x), -np.min(x)))[1]
    xs = np.ldexp(x, -e)
    return Estimate(float(np.ldexp(np.mean(xs), e)),
                    float(np.ldexp(np.std(xs, ddof=1), e) / np.sqrt(x.size)),
                    x.size)


# n up to 3000 crosses the pairwise sum's 8-wide unrolling and 128-element
# blocks many times over
_SAMPLES = st.integers(2, 3000).flatmap(lambda n: st.one_of(
    hnp.arrays(np.float64, n, elements=st.floats(allow_nan=False,
                                                 allow_infinity=False)),
    hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])),
    st.floats(allow_nan=False, allow_infinity=False).map(
        lambda v: np.full(n, v)),
    st.tuples(st.integers(0, 2**32), st.integers(-1000, 1000)).map(
        lambda a: np.ldexp(make_rng(a[0]).uniforms(n) - 0.25, a[1])),
))


@settings(max_examples=300, deadline=None)
@given(_SAMPLES)
def test_estimate_has_the_bits_of_numpy_std(x):
    # centring and squaring in place takes numpy's _var steps in its order
    got, want = estimate_from_samples(x), _numpy_estimate(x)
    assert np.array_equal(np.array([got.mean, got.stderr]).view(np.int64),
                          np.array([want.mean, want.stderr]).view(np.int64))
    assert got.n == want.n


def test_estimate_keeps_one_scaled_copy():
    # the scaled copy is 1 double a sample; np.std's centred copy was a
    # second
    n = 200_000
    x = make_rng(4).uniforms(n)
    assert _peak_doubles_per_line(lambda: estimate_from_samples(x), n) <= 1.25


def test_estimate_of_bool_events_keeps_one_scaled_copy():
    # 0/1 events as bool are converted once and scaled in place: 1 double
    # a sample, where a float copy scaled into a second array took 2
    n = 200_000
    x = make_rng(4).uniforms(n) < 0.5
    assert _peak_doubles_per_line(lambda: estimate_from_samples(x), n) <= 1.1


def test_stderr_scales_as_inverse_sqrt_n():
    """Doubling n shrinks stderr by about 1/sqrt(2) (ratio in [0.6, 0.82])."""
    rng = make_rng(1)
    small = estimate_from_samples(rng.uniforms(100_000))
    big = estimate_from_samples(make_rng(2).uniforms(200_000))
    ratio = big.stderr / small.stderr
    assert 0.6 <= ratio <= 0.82


def test_effective_sample_size():
    assert effective_sample_size(np.ones(50)) == 50.0
    w = np.zeros(50)
    w[7] = 3.0
    assert effective_sample_size(w) == 1.0
    assert effective_sample_size(np.zeros(3)) == 0.0


def test_weighted_estimate_reduces_to_plain():
    x = make_rng(3).uniforms(500)
    a = weighted_estimate(x, np.full(500, 2.0))
    b = estimate_from_samples(x)
    assert abs(a.mean - b.mean) < 1e-15


def test_weighted_estimate_rejects_bad_weights():
    x = np.ones(4)
    for w in ([1, -1, 1, 1], [1, np.nan, 1, 1], [0, 0, 0, 0]):
        with pytest.raises(DegenerateWeights):
            weighted_estimate(x, w)


def test_resample_weighted():
    rng = make_rng(4)
    vals = np.array([1.0, 2.0, 3.0])
    out = resample_weighted(rng, vals, np.array([0.0, 1.0, 0.0]), 100)
    assert np.all(out == 2.0)
    # proportional weights give proportional draw frequencies
    out2 = resample_weighted(rng, vals, np.array([1.0, 0.0, 3.0]), 40_000)
    assert abs(float(np.mean(out2 == 3.0)) - 0.75) < 0.01


# ---------------------------------------------------------------------------
# distribution tests

def test_kolmogorov_sf_against_scipy():
    t = np.linspace(0.01, 3.0, 300)
    ours = np.array([kolmogorov_sf(v) for v in t])
    ref = scipy.special.kolmogorov(t)
    assert np.max(np.abs(ours - ref)) < 1e-10


def test_kolmogorov_sf_limits():
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0
    assert kolmogorov_sf(10.0) < 1e-80
    vals = [kolmogorov_sf(t) for t in np.linspace(0.2, 2.5, 50)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))  # monotone decreasing


def test_ks_detects_wrong_scale():
    """U[0,1] data against a U[0,2] model must fail decisively."""
    x = make_rng(5).uniforms(10_000)
    rep = ks_test(x, lambda t: np.clip(t / 2.0, 0.0, 1.0))
    assert rep.p_value < 1e-6
    assert abs(rep.statistic - 0.5) < 0.02


def test_ks_accepts_true_model():
    x = make_rng(6).uniforms(10_000)
    assert ks_test(x, lambda t: np.clip(t, 0, 1)).p_value > 0.001


def test_ks_needs_samples_and_sane_cdf():
    with pytest.raises(TooFewSamples):
        ks_test(np.ones(5), lambda t: t)
    with pytest.raises(ValueError):
        ks_test(make_rng(7).uniforms(100), lambda t: t * 3.0)


@pytest.mark.parametrize("block", [1, 37, fiberline._blocks._BLOCK])
def test_ks_test_does_not_depend_on_block(block, monkeypatch):
    # D is the max of per-sample gaps, and a max is exact; a cdf value out of
    # range in the last block is refused as one in the first would be
    x = make_rng(6).uniforms(1000)
    want = ks_test(x, lambda t: np.clip(t / 1.1, 0, 1))
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    assert ks_test(x, lambda t: np.clip(t / 1.1, 0, 1)) == want
    with pytest.raises(ValueError, match="cdf must map the samples"):
        ks_test(x, lambda t: np.where(t < x.max(), t, 1.5))


def test_ks_two_sample_identical_is_zero():
    x = make_rng(8).uniforms(1000)
    rep = ks_two_sample(x, x)
    assert rep.statistic == 0.0 and rep.p_value == 1.0


def test_ks_two_sample_detects_shift():
    a = make_rng(9).uniforms(5000)
    b = make_rng(10).uniforms(5000) + 0.5
    assert ks_two_sample(a, b).p_value < 1e-6


def test_chi2_isotropy_uniform_passes():
    from fiberline.haar import sample_sphere2

    u = sample_sphere2(make_rng(11), 20_000)
    assert chi2_isotropy(u, bins=20).p_value > 0.001


def test_chi2_isotropy_detects_concentration():
    u = np.tile([0.0, 0.0, 1.0], (200, 1))
    assert chi2_isotropy(u, bins=20).p_value < 1e-12


def test_chi2_isotropy_detects_tilt():
    from fiberline.bundle import project_to_line, sample_bundle

    pts = sample_bundle(make_rng(12), tilt_density(2.0), 10_000)
    u = project_to_line(pts).u
    assert chi2_isotropy(u, bins=20).p_value < 1e-6


def test_chi2_isotropy_guards():
    u = np.tile([0.0, 0.0, 1.0], (30, 1))
    with pytest.raises(TooFewSamples):
        chi2_isotropy(u, bins=20)
    with pytest.raises(ValueError):
        chi2_isotropy(u, bins=1)


def test_kolmogorov_sf_refuses_nan():
    with pytest.raises(ValueError, match="NaN"):
        kolmogorov_sf(math.nan)


def test_ks_test_refuses_nan():
    x = make_rng(6).uniforms(100)
    x[17] = np.nan
    # this cdf maps NaN to 0, so only the samples can show it
    with pytest.raises(ValueError, match="must not be NaN"):
        ks_test(x, lambda t: np.where(t > 0.0, np.minimum(t, 1.0), 0.0))
    with pytest.raises(ValueError, match="cdf must map the samples"):
        ks_test(make_rng(6).uniforms(100), lambda t: np.where(t < 0.5, t, np.nan))


@pytest.mark.parametrize("side", [0, 1])
def test_ks_two_sample_refuses_nan(side):
    samples = [make_rng(8).uniforms(50), make_rng(9).uniforms(50)]
    samples[side][3] = np.nan
    with pytest.raises(ValueError, match="must not be NaN"):
        ks_two_sample(*samples)


def test_chi2_isotropy_refuses_nan():
    from fiberline.haar import sample_sphere2

    u = sample_sphere2(make_rng(11), 100)
    u[:30] = np.nan  # n counts these rows, but no band does
    with pytest.raises(ValueError, match="must not be NaN"):
        chi2_isotropy(u, bins=2)


def _ulps_around(x, k=5):
    """x and the k floats on each side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def _chi2_oracle_points(df, rng):
    """χ² draws, statistics of multinomial band counts, log-spaced x and
    ±5 ulps around each edge where Cephes igamc(df/2, x/2) changes branch:
    x/2 = 1.1, 0.5, a, (1 ± 0.4) a, a/1.1 and exp(-0.4/a)."""
    bins, n = df + 1, 50 * (df + 1)
    counts = rng.multinomial(n, np.full(bins, 1.0 / bins), size=200)
    expected = n / bins
    edges = [2.2, 1.0, df, 0.6 * df, 1.4 * df, df / 1.1,
             2.0 * math.exp(-0.8 / df)]
    return np.concatenate([
        rng.chisquare(df, 200),
        np.sum((counts - expected) ** 2, axis=1) / expected,
        np.logspace(-17, math.log10(2000.0), 100),
        *(_ulps_around(e) for e in edges),
        [0.0, 5e-324, 1e300, math.inf, -1.0, math.nan],
    ])


def test_chdtrc_port_has_scipys_bits():
    from fiberline._chi2 import MAX_DF, chdtrc

    rng = np.random.default_rng(2101)
    total = 0
    for df in range(1, MAX_DF + 1):
        x = _chi2_oracle_points(df, rng)
        got = np.array([chdtrc(df, float(v)) for v in x])
        want = scipy.special.chdtrc(df, x)
        bad = (got.view(np.int64) != want.view(np.int64)) \
            & ~(np.isnan(got) & np.isnan(want))
        assert not bad.any(), (df, x[bad][:5].tolist(), got[bad][:5].tolist(),
                               want[bad][:5].tolist())
        total += x.size
    assert total >= 20_000
    with pytest.raises(ValueError):
        chdtrc(MAX_DF + 1, 1.0)


@pytest.mark.parametrize("bins", [2, 3, 20, 41, 42, 200])
def test_chi2_isotropy_p_value_is_scipys(bins):
    from fiberline.haar import sample_sphere2

    report = chi2_isotropy(sample_sphere2(make_rng(bins), 2000), bins=bins)
    want = scipy.special.chdtrc(bins - 1, report.statistic)
    assert report.p_value.hex() == float(want).hex()


# ---------------------------------------------------------------------------
# Bertrand constructions

def _bertrand_quadrature(method, n=2_000_001):
    """Midpoint-rule oracle for P(chord > sqrt(3)), one integral per method."""
    root3 = math.sqrt(3.0)
    if method == "endpoints":
        # separation angle uniform on [0, 2 pi); chord = 2 |sin(delta/2)|
        d = (np.arange(n) + 0.5) / n * 2.0 * np.pi
        return float(np.mean(2.0 * np.abs(np.sin(d / 2.0)) > root3))
    if method == "radial":
        d = (np.arange(n) + 0.5) / n
        return float(np.mean(2.0 * np.sqrt(1.0 - d * d) > root3))
    if method == "midpoint":
        # uniform in the disk: radius density 2 d on [0, 1]
        d = (np.arange(n) + 0.5) / n
        ind = (2.0 * np.sqrt(1.0 - d * d) > root3).astype(float)
        return float(np.sum(ind * 2.0 * d) / n)
    # line-measure: signed offset uniform on [-1, 1]
    d = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
    return float(np.mean(2.0 * np.sqrt(1.0 - d * d) > root3))


@pytest.mark.parametrize("method", BERTRAND_METHODS)
def test_bertrand_oracle_from_quadrature(method):
    assert abs(bertrand_oracle(method) - _bertrand_quadrature(method)) < 2e-6


def test_bertrand_oracle_table():
    assert bertrand_oracle("endpoints") == pytest.approx(1 / 3)
    assert bertrand_oracle("radial") == 0.5
    assert bertrand_oracle("midpoint") == 0.25
    assert bertrand_oracle("line-measure") == 0.5
    with pytest.raises(ValueError):
        bertrand_oracle("dartboard")


@pytest.mark.parametrize("method", BERTRAND_METHODS)
def test_bertrand_sampler_matches_oracle(method):
    est = bertrand_experiment(make_rng(13), method, 200_000)
    assert abs(est.mean - bertrand_oracle(method)) < 4.0 * est.stderr


def test_bertrand_single_flip():
    est = bertrand_experiment(make_rng(14), "endpoints", 1)
    assert est.mean in (0.0, 1.0) and est.stderr == 0.0


def test_bertrand_indicators_are_binary():
    ind = bertrand_indicators(make_rng(15), "midpoint", 1000)
    assert set(np.unique(ind)) <= {0.0, 1.0}


class _Words:
    """A stream that hands out the given uniforms, in order; a copy of it
    hands them out again from where it was copied."""

    def __init__(self, *words):
        self.all = list(words)
        self._counter = 0

    @property
    def words(self):
        return self.all[self._counter:]

    def uniforms(self, k):
        assert k <= len(self.words)
        self._counter += k
        return np.array(self.all[self._counter - k:self._counter],
                        dtype=np.float64)


_ULP = 2.0**-53  # the uniforms' grid step
_THIRD = math.floor(2**53 / 3) * _ULP  # the last grid point below 1/3


@pytest.mark.parametrize("method,words,hits", [
    # (u1, u2) pairs; the event is 1/3 < |u1 - u2| < 2/3
    ("endpoints", [2 / 3, 0.0, 0.0, 2 / 3, 2 / 3 + _ULP, 0.0,
                   _THIRD, 0.0, _THIRD + _ULP, 0.0, 0.9, 0.9 - _THIRD - _ULP],
     [1, 1, 0, 0, 1, 1]),
    # (direction, distance) pairs; the event is distance < 1/2
    ("radial", [0.7, 0.5 - _ULP, 0.7, 0.5], [1, 0]),
    # (x, y) words of the disk point 2u - 1; the event is |m|^2 < 1/4
    ("midpoint", [0.75 - _ULP, 0.5, 0.75, 0.5, 0.5, 0.25], [1, 0, 0]),
    # (direction, offset) pairs; the event is |2 u - 1| < 1/2
    ("line-measure", [0.1, 0.25, 0.1, 0.25 + _ULP, 0.1, 0.75 - _ULP,
                      0.1, 0.75], [0, 1, 1, 0]),
])
def test_bertrand_events_at_grid_edges(method, words, hits):
    # fl(2/3) lies on the grid just below 2/3, so it hits; the next point up
    # misses, as do exactly 1/2 and 1/4 (a chord of exactly sqrt(3))
    assert Fraction(2 / 3) < Fraction(2, 3) < Fraction(2 / 3 + _ULP)
    assert Fraction(_THIRD) < Fraction(1, 3) < Fraction(_THIRD + _ULP)
    stream = _Words(*words)
    got = bertrand_indicators(stream, method, len(hits))
    assert got.tolist() == hits and stream.words == []


def _bertrand_chords(method, rng, n):
    """The chord lengths of n draws of one construction, as the sampler once
    computed them, on the words it reads from ``rng``."""
    if method == "midpoint":
        mid = sample_disk(rng, 1.0, n)
        return 2.0 * np.sqrt(np.maximum(0.0, 1.0 - np.sum(mid * mid, axis=1)))
    u = rng.uniforms(2 * n)
    if method == "endpoints":
        t1, t2 = 2.0 * np.pi * u[0::2], 2.0 * np.pi * u[1::2]
        return 2.0 * np.abs(np.sin(0.5 * (t1 - t2)))
    d = u[1::2] if method == "radial" else 2.0 * u[1::2] - 1.0
    return 2.0 * np.sqrt(np.maximum(0.0, 1.0 - d * d))


@pytest.mark.parametrize("method", BERTRAND_METHODS)
def test_bertrand_events_match_chord_lengths(method):
    # 10^7 draws, in blocks of 10^6, against chord > sqrt(3) on the same words
    events, reference = make_rng(16), make_rng(16)
    for _ in range(10):
        got = bertrand_indicators(events, method, 1_000_000)
        want = _bertrand_chords(method, reference, 1_000_000) > math.sqrt(3.0)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("block", [1, 37, fiberline._blocks._BLOCK])
@pytest.mark.parametrize("method", BERTRAND_METHODS)
def test_bertrand_events_do_not_depend_on_block(method, block, monkeypatch):
    # each event depends on its own words alone, so blocks change no event
    # and no stream word
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    n = 3 * block + 5 if block > 1 else 200
    rng, ref = make_rng(21), make_rng(21)
    got = bertrand_indicators(rng, method, n)
    want = _bertrand_chords(method, ref, n) > math.sqrt(3.0)
    assert np.array_equal(got, want.astype(np.float64))
    assert rng._counter == ref._counter


def _peak_doubles_per_line(f, n):
    """tracemalloc's peak over the call f(), in doubles per line of n."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / (8.0 * n)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", BERTRAND_METHODS)
def test_bertrand_events_keep_no_whole_n_temporaries(method):
    # the output (1 bool a line) is whole, and the midpoint disk keeps its
    # redrawn rows (about 0.2 of a line, 3 doubles each); the dot products,
    # comparisons and uniforms live one block at a time (midpoint peaks at
    # 1.88 doubles a line, 2.14 with float events)
    n = 200_000
    peak = _peak_doubles_per_line(
        lambda: bertrand_indicators(make_rng(22), method, n), n)
    assert peak <= 2.0


def test_ks_test_keeps_only_the_sorted_samples_whole():
    # the sorted copy is 1 double a sample; the CDF values, the ranks and
    # both gaps live one block at a time (4 more doubles a sample if whole)
    n = 200_000
    x = 2.0 * make_rng(25).uniforms(n) - 1.0
    assert _peak_doubles_per_line(lambda: ks_test(x, s3_w_cdf), n) <= 1.5


# ---------------------------------------------------------------------------
# invariant-measure chord experiments

def test_hit_rate_oracle_values():
    assert hit_rate_oracle(UNIT_BALL, 1.0) == 1.0
    assert hit_rate_oracle(UNIT_BALL, 2.0) == 0.25
    cube = Box((0, 0, 0), (1, 1, 1))
    assert abs(hit_rate_oracle(cube, math.sqrt(3.0)) - 6.0 / (12.0 * np.pi)) < 1e-15


def test_mean_chord_oracle_values():
    assert abs(mean_chord_oracle(UNIT_BALL) - 4.0 / 3.0) < 1e-15
    assert abs(mean_chord_oracle(Box((0, 0, 0), (1, 1, 1))) - 2.0 / 3.0) < 1e-15
    assert abs(mean_chord_oracle(Box((0, 0, 0), (1, 2, 3))) - 12.0 / 11.0) < 1e-15


def test_ball_mean_chord_by_quadrature():
    # impact parameter d has density 2d/R^2 on [0, R]; chord = 2 sqrt(R^2-d^2)
    d = (np.arange(1_000_001) + 0.5) / 1_000_001
    ch = 2.0 * np.sqrt(1.0 - d * d)
    mean = float(np.sum(ch * 2.0 * d) / 1_000_001)
    assert abs(mean - mean_chord_oracle(UNIT_BALL)) < 1e-5


def test_ball_chord_cdf_values():
    assert ball_chord_cdf(1.0) == 0.25
    assert ball_chord_cdf(2.0) == 1.0
    assert ball_chord_cdf(-1.0) == 0.0
    assert ball_chord_cdf(3.0) == 1.0
    assert ball_chord_cdf(1.0, radius=2.0) == 1.0 / 16.0


def test_tight_ball_always_hits():
    rate, mean = mean_chord_experiment(make_rng(16), UNIT_BALL, 20_000, 1.0)
    assert rate.mean == 1.0
    assert abs(mean.mean - 4.0 / 3.0) < 3.0 * mean.stderr


def test_chord_experiment_ball_r2():
    rate, mean = mean_chord_experiment(make_rng(17), UNIT_BALL, 200_000, 2.0)
    assert abs(rate.mean - 0.25) < 3.0 * rate.stderr
    assert abs(mean.mean - 4.0 / 3.0) < 3.0 * mean.stderr


def test_expected_chord_identity():
    """E[chord, misses as 0] = V / (pi R^2) ties hit rate to mean chord."""
    body = Box((0, 0, 0), (1, 1, 1))
    R = math.sqrt(3.0)
    ch = isotropic_chords(make_rng(18), body, 400_000, R)
    est = estimate_from_samples(ch)
    expect = 1.0 / (np.pi * R * R)
    assert abs(est.mean - expect) < 3.0 * est.stderr


# the centred regular tetrahedron with faces at distance 1/sqrt(3), as in
# the golden chord tests; its vertices lie at distance sqrt(3) < 1.8
_TETRAHEDRON = Halfspaces(
    np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0),
    np.full(4, 1.0 / math.sqrt(3.0)))


@pytest.mark.parametrize("body, radius, seed", [
    (UNIT_BALL, 2.0, 7),
    (Box((0, 0, 0), (1, 1, 1)), 1.8, 8),
    (Box((-0.5, -1.0, -1.5), (0.5, 1.0, 1.5)), 2.0, 9),
    (_TETRAHEDRON, 1.8, 10),
], ids=["ball", "cube", "box123", "tetrahedron"])
def test_fourth_moment_chord_law(body, radius, seed):
    """E[chord^4 | hit] = 12 V^2 / (pi S) for every convex body; for the
    unit ball that is 16/3, the fourth moment of the chord density x/2."""
    ch = isotropic_chords(make_rng(seed), body, 1_000_000, radius)
    est = estimate_from_samples(ch[ch > 0.0] ** 4)
    want = 12.0 * volume(body) ** 2 / (np.pi * surface_area(body))
    assert abs(est.mean - want) < 3.0 * est.stderr


_CHORD_BODIES = [(UNIT_BALL, 2.0), (Box((0, 0, 0), (1, 1, 1)), 1.8),
                 (_TETRAHEDRON, 1.8)]
_CHORD_IDS = ["ball", "box", "tetrahedron"]


@pytest.mark.parametrize("block", [1, 37, fiberline._blocks._BLOCK])
@pytest.mark.parametrize("body, radius", _CHORD_BODIES, ids=_CHORD_IDS)
def test_isotropic_chords_are_the_chords_of_the_sampled_lines(body, radius,
                                                              block,
                                                              monkeypatch):
    # the chords of each block's lines, with no whole line table, are every
    # bit those of the whole batch, on the same stream words
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    n = 3 * block + 5 if block > 1 else 200
    rng, ref = make_rng(23), make_rng(23)
    got = isotropic_chords(rng, body, n, radius)
    want = chord(body, sample_isotropic(ref, radius, n))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert rng._counter == ref._counter


@pytest.mark.parametrize("body, radius", _CHORD_BODIES[:2],
                         ids=_CHORD_IDS[:2])
def test_isotropic_chords_keep_no_line_table(body, radius):
    # the redrawn offsets (about 0.2 of a line, 3 doubles each) and chords
    # (1) are whole; a (u, foot) table of all n lines would add 6, whole
    # offsets about 1.2 and whole quaternions 4 (3.8 ball and 4.6 box;
    # 7.5 and 8.3 with whole quaternions)
    n = 200_000
    peak = _peak_doubles_per_line(
        lambda: isotropic_chords(make_rng(24), body, n, radius), n)
    assert peak <= 5.5


def test_insufficient_radius():
    with pytest.raises(InsufficientRadius):
        mean_chord_experiment(make_rng(19), UNIT_BALL, 100, 0.5)


def test_no_hits():
    tiny = Ball((0.0, 0.0, 0.0), 1e-9)
    with pytest.raises(NoHits):
        mean_chord_experiment(make_rng(20), tiny, 100, 1.0)


# ---------------------------------------------------------------------------
# slope-chart importance sampling

def test_slope_experiment_unbiased():
    est, _, _ = slope_importance_experiment(make_rng(21), 200_000)
    assert abs(est.mean - 4.0 / 3.0) < 3.0 * est.stderr


def test_resampled_chords_match_isotropic():
    rng = make_rng(24)
    _, ch, w = slope_importance_experiment(rng, 200_000)
    resampled = resample_weighted(rng, ch, w, 50_000)
    iso = chord(UNIT_BALL, sample_isotropic(make_rng(25), 1.0, 100_000))
    assert ks_two_sample(resampled, iso[iso > 0]).p_value > 0.001


def test_degenerate_weights_detected():
    # a huge fixed intercept box wastes almost every proposal; the few hits
    # cannot carry the weight mass and the ESS guard must trip
    with pytest.raises(DegenerateWeights):
        slope_importance_experiment(make_rng(26), 100_000, pq_halfwidth=100.0)


def test_slope_experiment_rejects_bad_args():
    with pytest.raises(ValueError):
        slope_importance_experiment(make_rng(27), 0)
    with pytest.raises(ValueError):
        slope_importance_experiment(make_rng(27), 100, pq_halfwidth=-1.0)


# ---------------------------------------------------------------------------
# gauge audit

def test_gauge_audit_uniform_chord():
    audit = gauge_audit(
        make_rng(28), uniform_density(1.0),
        lambda lines: chord(UNIT_BALL, lines), 20_000,
    )
    assert audit.max_direction_dev < 1e-10
    assert audit.max_foot_dev < 1e-10
    assert audit.gap < 1e-10


def test_gauge_audit_tilt_direction_estimator():
    audit = gauge_audit(
        make_rng(29), tilt_density(2.0),
        lambda lines: lines.u[:, 2] ** 2, 20_000,
    )
    assert audit.gap < 1e-10


def test_gauge_audit_unpacks_as_pair():
    baseline, shifted = gauge_audit(
        make_rng(30), uniform_density(1.0),
        lambda lines: chord(UNIT_BALL, lines), 1000,
    )
    assert baseline.n == shifted.n == 1000
    assert abs(baseline.mean - shifted.mean) < 1e-10


def test_gauge_audit_control_shares_the_draw():
    # the negative control is audited over the same bundle points, so its
    # base estimate is the audit's own, and it carries no control of its own
    audit = gauge_audit(
        make_rng(33), foot_tilt_density(4.0),
        lambda lines: lines.foot @ np.array([0.0, 0.0, 1.0]), 5000,
    )
    assert audit.broken.base == audit.base
    assert audit.broken.broken is None
    assert audit.broken.acted != audit.acted


def test_gauge_audit_validates_bundle_points_once(monkeypatch):
    # the sampler checks its draw; the moved copies are projected unchecked
    sizes = []
    check = BundlePoint.__post_init__

    def counted(self):
        sizes.append(len(self.g))
        check(self)

    monkeypatch.setattr(BundlePoint, "__post_init__", counted)
    gauge_audit(make_rng(34), uniform_density(),
                lambda lines: lines.foot[:, 2], 100)
    assert sizes == [100]


def test_broken_action_caught_by_foot_estimator():
    """Negative control: rotating the offset the wrong way moves the foot,
    and a foot-sensitive estimator sees it at many sigma."""
    audit = gauge_audit(
        make_rng(31), foot_tilt_density(4.0),
        lambda lines: lines.foot @ np.array([0.0, 0.0, 1.0]),
        100_000,
    ).broken
    assert audit.max_foot_dev > 1e-3   # the lines themselves moved
    assert audit.max_direction_dev < 1e-10  # but directions never move
    assert audit.gap_sigma > 3.0


def test_broken_action_invisible_to_direction_estimator():
    # the same broken action cannot be caught by a direction-only estimator:
    # this is why the audit needs a foot-sensitive functional
    audit = gauge_audit(
        make_rng(32), tilt_density(2.0),
        lambda lines: lines.u[:, 2] ** 2, 20_000,
    ).broken
    assert audit.max_direction_dev < 1e-10
    assert audit.gap < 1e-10
