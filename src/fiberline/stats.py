"""Estimators, distribution tests, and the canned line-sampling experiments.

Monte-Carlo outputs are reported as :class:`Estimate` (mean, standard error,
count); distribution checks as :class:`TestReport` (statistic, p-value,
count).  The experiments at the bottom tie the samplers to their classical
expectations: the four chord-paradox constructions, mean chord = 4V/S for
convex bodies under the invariant line measure, importance sampling in the
slope chart, and the gauge-invariance audit for bundle densities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _blocks
from ._blocks import blocked_max, blocks, dot
from ._chi2 import MAX_DF, chdtrc
from .bundle import _check_radius, _isotropic_blocks, _project_arrays, \
    _spin, _turn, LineDensity, project_to_line, sample_bundle
from .errors import DegenerateWeights, InsufficientRadius, NoHits, \
    TooFewSamples
from .geometry import Ball, ConvexBody, bounding_radius, chord, \
    surface_area, volume
from .haar import _count, _disk_blocks, sample_sphere2
from .linespace import DirectedLine, slope_to_directed
from .randkit import RngStream

__all__ = [
    "Estimate",
    "TestReport",
    "GaugeAudit",
    "estimate_from_samples",
    "weighted_estimate",
    "effective_sample_size",
    "resample_weighted",
    "kolmogorov_sf",
    "ks_test",
    "ks_two_sample",
    "chi2_isotropy",
    "ball_chord_cdf",
    "bertrand_oracle",
    "bertrand_indicators",
    "bertrand_experiment",
    "hit_rate_oracle",
    "mean_chord_oracle",
    "isotropic_chords",
    "mean_chord_experiment",
    "slope_importance_experiment",
    "gauge_audit",
    "BERTRAND_METHODS",
]


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error over n values."""

    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class TestReport:
    """Statistic and p-value of a distribution test over n samples."""

    statistic: float
    p_value: float
    n: int


@dataclass(frozen=True)
class GaugeAudit:
    """Before/after estimates for a random gauge move, plus the largest
    projected-line discrepancies it introduced.

    ``broken`` is the negative control: the same audit, over the same bundle
    points and angles, of a deliberately wrong move (its own ``broken`` is
    None).  Unpacks as the pair ``(base, acted)``.
    """

    base: Estimate
    acted: Estimate
    max_direction_dev: float
    max_foot_dev: float
    broken: GaugeAudit | None = None

    def __iter__(self):
        return iter((self.base, self.acted))

    @property
    def gap(self) -> float:
        return abs(self.base.mean - self.acted.mean)

    @property
    def gap_sigma(self) -> float:
        """Gap in units of its combined standard error (inf if both are 0)."""
        se = math.hypot(self.base.stderr, self.acted.stderr)
        if se == 0.0:
            return 0.0 if self.gap == 0.0 else math.inf
        return self.gap / se


def _tree_sum(n: int, values: Callable[[slice], np.ndarray]) -> np.float64:
    """``np.add.reduce`` of the n float64 values that ``values(s)`` gives for
    the slices s of range(n), one stretch at a time, with numpy's bits.

    numpy adds a contiguous float64 array pairwise (Higham, SIAM J. Sci.
    Comput. 14, 1993): more than 128 values split at n // 2 rounded down to
    a multiple of 8, and the sums of the two halves are added.  Following
    that split down to nodes of at most ``max(_BLOCK, 128)`` values, and
    summing each such node whole, walks the same tree.
    """
    leaf = max(_blocks._BLOCK, 128)

    def node(lo: int, hi: int) -> np.float64:
        if hi - lo <= leaf:
            return np.add.reduce(values(slice(lo, hi)))
        half = (hi - lo) // 2
        mid = lo + half - half % 8
        return node(lo, mid) + node(mid, hi)

    return node(0, n)


def estimate_from_samples(x: np.ndarray) -> Estimate:
    """Mean +- stderr of 1-d samples; stderr uses the n-1 variance.  The
    samples may be of any real dtype, 0/1 events as bool included, and must
    be finite (ValueError otherwise).  They are converted and reduced one
    stretch at a time (``_tree_sum``), so an estimate keeps no whole-n copy
    and still has the bits of np.mean and np.std(ddof=1)."""
    x = np.asarray(x).reshape(-1)
    n = x.size
    if n == 0:
        raise TooFewSamples("no samples to estimate from")
    big = blocked_max(n, lambda s: np.abs(x[s], dtype=np.float64))
    if not math.isfinite(big):
        raise ValueError("estimate samples must be finite")
    # scale by a power of two, which is exact, so that the squares neither
    # overflow nor underflow
    e = math.frexp(big)[1]

    def scaled(s):
        xs = x[s].astype(np.float64)
        return np.ldexp(xs, -e, out=xs)

    # np.mean, then np.std(xs, ddof=1) step by step as numpy's _var takes
    # them, the same bits, but centring and squaring one stretch at a time
    m = _tree_sum(n, scaled) / n
    mean = float(np.ldexp(m, e))
    if n == 1:
        return Estimate(mean, 0.0, n)

    def squares(s):
        xs = scaled(s)
        xs -= m
        return np.square(xs, out=xs)

    sd = np.sqrt(_tree_sum(n, squares) / (n - 1))
    return Estimate(mean, float(np.ldexp(sd, e) / np.sqrt(n)), n)


def effective_sample_size(w: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 — how many equal-weight samples w is worth."""
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    tot = float(np.sum(w))
    sq = float(np.sum(w * w))
    return tot * tot / sq if sq > 0.0 else 0.0


def weighted_estimate(x: np.ndarray, w: np.ndarray) -> Estimate:
    """Self-normalized weighted mean sum(w x)/sum(w).

    The standard error is the usual linearization
    sqrt(sum(w^2 (x - mean)^2)) / sum(w).  Raises DegenerateWeights when the
    weights are negative, non-finite, or sum to zero.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if x.shape != w.shape:
        raise ValueError("values and weights must have equal length")
    if x.size == 0:
        raise TooFewSamples("no samples to estimate from")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise DegenerateWeights("weights must be finite and nonnegative")
    tot = float(np.sum(w))
    if tot <= 0.0:
        raise DegenerateWeights("weights sum to zero")
    mean = float(np.sum(w * x) / tot)
    dev = x - mean
    stderr = float(np.sqrt(np.sum((w * dev) ** 2)) / tot)
    return Estimate(mean, stderr, x.size)


def resample_weighted(
    rng: RngStream, values: np.ndarray, weights: np.ndarray, n: int
) -> np.ndarray:
    """n draws from ``values`` with probabilities proportional to ``weights``
    (with replacement), by inverting the cumulative weight."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if values.shape != weights.shape or values.size == 0:
        raise ValueError("need equally many values and weights, at least one")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise DegenerateWeights("weights must be finite and nonnegative")
    cum = np.cumsum(weights)
    if cum[-1] <= 0.0:
        raise DegenerateWeights("weights sum to zero")
    pos = np.searchsorted(cum, rng.uniforms(int(n)) * cum[-1], side="right")
    return values[np.minimum(pos, values.size - 1)]


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Q(t) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 t^2) for large t; for t < 1 the
    theta-transformed series converges faster and is used instead.  Accurate
    to ~1e-12, clipped into [0, 1].  A NaN t raises ValueError.
    """
    t = float(t)
    if math.isnan(t):
        raise ValueError("the Kolmogorov statistic is NaN")
    if t <= 0.0:
        return 1.0
    if t < 1.0:
        # Q = 1 - sqrt(2 pi)/t * sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 t^2))
        s = 0.0
        for k in range(1, 101):
            term = math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * t * t))
            s += term
            if term < 1e-14 * max(s, 1e-300):
                break
        q = 1.0 - math.sqrt(2.0 * math.pi) / t * s
    else:
        s = 0.0
        for k in range(1, 101):
            term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * t * t)
            s += term
            if abs(term) < 1e-14:
                break
        q = s
    return min(1.0, max(0.0, q))


def ks_test(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a continuous CDF.

    The p-value is the asymptotic Q(sqrt(n) D); fine for the n >= 8 we
    require and conservative-ish below a few dozen samples.  Only the sorted
    samples are whole: ``cdf`` sees one block at a time, so each value must
    come from its own sample, and a max is exact, so D does not depend on
    the block size.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64), axis=None)
    n = x.size
    if n < 8:
        raise TooFewSamples(f"KS test needs at least 8 samples, got {n}")
    if np.isnan(x[-1]):  # np.sort puts NaNs last
        raise ValueError("KS test samples must not be NaN")

    def gaps(s):
        F = np.asarray(cdf(x[s]), dtype=np.float64)
        # written so that a NaN fails it
        if F.shape != x[s].shape or not np.all((F >= -1e-12) & (F <= 1.0 + 1e-12)):
            raise ValueError("cdf must map the samples into [0, 1]")
        i = np.arange(s.start + 1, s.stop + 1, dtype=np.float64)
        return np.maximum(i / n - F, F - (i - 1.0) / n)

    d = blocked_max(n, gaps)
    return TestReport(d, kolmogorov_sf(math.sqrt(n) * d), n)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> TestReport:
    """Two-sample KS test with the asymptotic p-value at the effective size
    sqrt(n1 n2 / (n1 + n2))."""
    a = np.sort(np.asarray(a, dtype=np.float64), axis=None)
    b = np.sort(np.asarray(b, dtype=np.float64), axis=None)
    n1, n2 = a.size, b.size
    if n1 < 8 or n2 < 8:
        raise TooFewSamples("two-sample KS needs at least 8 samples per side")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # np.sort puts NaNs last
        raise ValueError("two-sample KS samples must not be NaN")
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / n1
    fb = np.searchsorted(b, both, side="right") / n2
    d = float(np.max(np.abs(fa - fb)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    return TestReport(d, kolmogorov_sf(en * d), n1 + n2)


def chi2_isotropy(directions: np.ndarray, bins: int = 20) -> TestReport:
    """Chi-square uniformity test of unit vectors over equal-area z-bands.

    Slicing the sphere at equally spaced z gives equal-area bands, so under
    isotropy every band expects n/bins hits.  Raises TooFewSamples when
    that expectation drops below 5.

    The p-value is the chi-square survival function at bins - 1 degrees of
    freedom.  Up to 41 bins it comes from :mod:`fiberline._chi2`, a port
    with the same bits as scipy's ``chdtrc`` that does not import scipy;
    above 41 bins it comes from ``scipy.special.chdtrc`` itself.
    """
    u = np.asarray(directions, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 3:
        raise ValueError("directions must have shape (n, 3)")
    bins = int(bins)
    if bins < 2:
        raise ValueError("need at least 2 bins")
    n = u.shape[0]
    if n / bins < 5.0:
        raise TooFewSamples(
            f"{n} samples over {bins} bands leaves expected counts under 5"
        )
    edges = np.linspace(-1.0, 1.0, bins + 1)
    z = np.clip(u[:, 2], -1.0, 1.0)  # unit-norm roundoff must not fall out
    counts, _ = np.histogram(z, bins=edges)
    if counts.sum() < n:  # a clipped z falls out of the bands only if NaN
        raise ValueError("directions must not be NaN")
    expected = n / bins
    stat = float(np.sum((counts - expected) ** 2) / expected)
    if bins - 1 <= MAX_DF:
        return TestReport(stat, chdtrc(bins - 1, stat), n)
    from scipy.special import chdtrc as scipy_chdtrc
    return TestReport(stat, float(scipy_chdtrc(bins - 1, stat)), n)


def ball_chord_cdf(x: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """CDF of the chord length cut from a ball by invariant-measure lines
    conditioned on hitting: F(x) = x^2 / (2r)^2 on [0, 2r]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.clip(x, 0.0, 2.0 * radius) / (2.0 * radius)
    return y * y


# ---------------------------------------------------------------------------
# chord-paradox constructions on the unit circle

_BERTRAND_ORACLE = {"endpoints": 1.0 / 3.0, "radial": 0.5, "midpoint": 0.25,
                    "line-measure": 0.5}
BERTRAND_METHODS = tuple(_BERTRAND_ORACLE)


def bertrand_oracle(method: str) -> float:
    """Exact P(chord > sqrt(3)) for each construction on the unit circle."""
    try:
        return _BERTRAND_ORACLE[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; "
                         f"choose from {BERTRAND_METHODS}") from None


def bertrand_indicators(rng: RngStream, method: str, n: int) -> np.ndarray:
    """Bool array: does the sampled chord beat the inscribed triangle side.

    Exact comparisons on the uniforms (u1 - u2 and 2u - 1 are exact too):

    endpoints    angles 2 pi u1 and 2 pi u2: 1/3 < |u1 - u2| < 2/3
    radial       uniform direction, distance u2 along it: u2 < 1/2
    midpoint     uniform midpoint m in the disk: |m|^2 < 1/4
    line-measure offset 2 u2 - 1 at a uniform direction: |2 u2 - 1| < 1/2
    """
    bertrand_oracle(method)  # validate the name
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    # the midpoint disk, replayed a block at a time from a stream copy
    mid = _disk_blocks(rng, n) if method == "midpoint" else None
    out = np.empty(n, dtype=bool)
    for s in blocks(n):
        if method == "midpoint":
            _, m = next(mid)
            out[s] = dot(m, m) < 0.25
            continue
        u = rng.uniforms(2 * (s.stop - s.start))  # the same words, in order
        if method == "endpoints":
            d = np.abs(u[0::2] - u[1::2])
            out[s] = (d > 1.0 / 3.0) & (d <= 2.0 / 3.0)  # fl(2/3) < 2/3
        elif method == "radial":
            out[s] = u[1::2] < 0.5
        else:  # line-measure
            out[s] = np.abs(2.0 * u[1::2] - 1.0) < 0.5
    return out


def bertrand_experiment(rng: RngStream, method: str, n: int) -> Estimate:
    """Monte-Carlo P(chord > sqrt(3)) under the chosen construction."""
    return estimate_from_samples(bertrand_indicators(rng, method, n))


# ---------------------------------------------------------------------------
# invariant-measure chord experiments

def hit_rate_oracle(body: ConvexBody, radius: float) -> float:
    """P(line meets body | line meets the sampling ball) = S / (4 pi R^2)."""
    return surface_area(body) / (4.0 * np.pi * radius * radius)


def mean_chord_oracle(body: ConvexBody) -> float:
    """Mean chord of invariant-measure lines conditioned on hitting: 4V/S."""
    return 4.0 * volume(body) / surface_area(body)


def _require_radius(body: ConvexBody, radius: float) -> None:
    r = float(radius)
    _check_radius(r)
    # inside the sampling ball 4V <= 16/3 pi R^3, while S and the chord
    # kernels' squared distances stay below 4 pi R^2: all are finite when
    # 32 R^3 is
    if not math.isfinite(32.0 * r * r * r):
        raise ValueError(f"sampling radius {r:.6g} is too large: the body's "
                         f"volume and surface area would overflow")
    rb = bounding_radius(body)
    # allow equality up to roundoff in the caller's radius arithmetic
    if radius < rb * (1.0 - 1e-12):
        raise InsufficientRadius(
            f"sampling radius {radius:.6g} < bounding radius {rb:.6g}"
        )


def isotropic_chords(
    rng: RngStream, body: ConvexBody, n: int, radius: float
) -> np.ndarray:
    """Chord lengths (0 = miss) of n invariant-measure lines through the
    sampling ball of the given radius.  InsufficientRadius if that ball does
    not contain the body.

    The lines are those of ``sample_isotropic``, bit for bit, but each block
    is checked as its own DirectedLine and clipped at once, so no line table
    of all n rows is built.  A failed check therefore reports the worst
    value of its block, where ``sample_isotropic`` reports that of all rows.
    """
    _require_radius(body, radius)
    m = _count(n)
    out = np.empty(m, dtype=np.float64)
    for s, u, foot in _isotropic_blocks(rng, radius, m):
        out[s] = chord(body, DirectedLine(u, foot))
    return out


def mean_chord_experiment(
    rng: RngStream, body: ConvexBody, n: int, radius: float
) -> tuple[Estimate, Estimate]:
    """(hit rate, mean chord conditioned on hitting) for invariant lines.

    Compare against :func:`hit_rate_oracle` and :func:`mean_chord_oracle`.
    Raises NoHits when nothing hit.
    """
    ch = isotropic_chords(rng, body, n, radius)
    hit = ch > 0.0
    rate = estimate_from_samples(hit)
    if not np.any(hit):
        raise NoHits("no sampled line met the body")
    return rate, estimate_from_samples(ch[hit])


# ---------------------------------------------------------------------------
# slope-chart importance sampling

def slope_importance_experiment(
    rng: RngStream,
    n: int,
    *,
    pq_halfwidth: float | None = None,
) -> tuple[Estimate, np.ndarray, np.ndarray]:
    """Mean chord of the unit ball by importance sampling in the slope chart.

    Directions are uniform on the upper hemisphere, giving slope density
    proportional to (1 + a^2 + b^2)^(-3/2).  Intercepts (p, q) are uniform
    in a square of halfwidth ``pq_halfwidth``; the default (None) scales the
    square per direction to sqrt(1 + a^2 + b^2), which is the exact reach of
    unit-ball-hitting lines in the chart — a fixed halfwidth of 2 silently
    drops steep hitting lines and biases the estimate upward.  Weights are the invariant density
    (1 + a^2 + b^2)^-2 over the proposal density, self-normalized over the
    hitting subsample.  Returns the estimate, and the chords and weights of
    the hitting lines.

    Raises NoHits when nothing hits and DegenerateWeights when the effective
    sample size of the hitting weights falls below n/1000.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    d = sample_sphere2(rng, n)
    uz = np.maximum(np.abs(d[:, 2]), 1e-300)  # fold; dodge exact equator
    a = d[:, 0] / uz
    b = d[:, 1] / uz
    s = np.sqrt(1.0 + a * a + b * b)
    w_dir = 1.0 / s  # measure s^-4 over proposal s^-3
    if pq_halfwidth is None:
        L = s  # smallest square certain to cover all unit-ball hits
    else:
        if not (np.isfinite(pq_halfwidth) and pq_halfwidth > 0.0):
            raise ValueError("pq_halfwidth must be positive")
        L = np.full(n, float(pq_halfwidth))
    pq = (2.0 * rng.uniforms(2 * n).reshape(n, 2) - 1.0) * L[:, None]
    w = w_dir * 4.0 * L * L
    lines = slope_to_directed(a, b, pq[:, 0], pq[:, 1])
    ch = chord(Ball((0.0, 0.0, 0.0), 1.0), lines)
    hit = ch > 0.0
    if not np.any(hit):
        raise NoHits("no proposal line met the unit ball")
    ch, wh = ch[hit], w[hit]
    if effective_sample_size(wh) < n / 1000.0:
        raise DegenerateWeights(
            f"effective sample size {effective_sample_size(wh):.1f} "
            f"below {n / 1000.0:.1f}"
        )
    return weighted_estimate(ch, wh), ch, wh


# ---------------------------------------------------------------------------
# gauge audit

def gauge_audit(
    rng: RngStream,
    density: LineDensity,
    estimator: Callable[[DirectedLine], np.ndarray],
    n: int,
) -> GaugeAudit:
    """Estimate a line functional before and after a random gauge move.

    Bundle points are drawn from ``density`` and each is pushed by an
    independent uniform circle angle h; ``estimator`` maps projected lines
    to one value per line.  The correct action turns the offsets by R(-h)
    against the frame, so the projected lines — hence the estimates — must
    agree.  On the same draw, the negative control in ``.broken`` turns them
    by R(+h) instead; it shows up as a line-level deviation and, for
    foot-sensitive estimators, a many-sigma estimate gap.  Raises
    TooFewSamples for n < 2, which leaves the gaps without a standard error.
    """
    n = int(n)
    if n < 2:
        raise TooFewSamples(f"gauge audit needs at least 2 samples, got {n}")
    pts = sample_bundle(rng, density, n)
    h = 2.0 * np.pi * rng.uniforms(n)
    g2, ch, sh = _spin(h, pts.g)
    base_lines = project_to_line(pts)
    base = estimate_from_samples(np.asarray(estimator(base_lines), np.float64))

    def moved(r2: np.ndarray) -> tuple[Estimate, float, float]:
        acted_lines = DirectedLine(*_project_arrays(g2, r2))
        acted = np.asarray(estimator(acted_lines), np.float64)
        return (estimate_from_samples(acted),
                float(np.max(np.abs(base_lines.u - acted_lines.u))),
                float(np.max(np.abs(base_lines.foot - acted_lines.foot))))

    correct = moved(_turn(ch, -sh, pts.r))  # R(-h) r: the circle action
    wrong = moved(_turn(ch, sh, pts.r))     # R(+h) r: the negative control
    return GaugeAudit(base, *correct, broken=GaugeAudit(base, *wrong))
