"""Chi-square survival function, bit for bit as scipy's ``chdtrc``, df ≤ 40.

scipy computes ``chdtrc(df, x)`` as Cephes ``igamc(df/2, x/2)`` (S. L.
Moshier, *Methods and Programs for Mathematical Functions*, 1989), the
regularized upper incomplete gamma function Q(a, x).  This module repeats
that code, operation for operation, for a = df/2 ≤ 20, so the p-value does
not depend on which scipy is installed and costs no ``import scipy``.  Above
a = 20 Cephes switches, near x ≈ a, to Temme's asymptotic series (with a
25 × 25 coefficient table), which is not repeated here: callers with
df > 40 use scipy.

Every expression keeps Cephes's order of operations; reordering any of
them moves the last bit.  The series and the continued fraction are
DLMF §8.7.3, §8.9.2 and §8.11.4.
"""
from __future__ import annotations

import math

MAX_DF = 40  # a = df/2 = 20: the last a before Temme's series

_MACHEP = 1.11022302462515654042e-16  # 2**-53
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_MAXITER = 2000
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16

# lgam: Stirling's series above 13; B/C, the rational for log Gamma on [2, 3)
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
      7.93650340457716943945e-4, -2.77777777730099687205e-3,
      8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
      -3.31612992738871184744e5, -1.16237097492762307383e6,
      -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
      -2.20528590553854454839e5, -1.13933444367982507207e6,
      -2.53252307177582951285e6, -2.01889141433532773231e6)  # leading 1
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))

# expm1 on [-0.5, 0.5]: e^x = 1 + 2x P(x^2) / (Q(x^2) - P(x^2))
_EP = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2,
       9.9999999999999999991025e-1)
_EQ = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
       2.2726554820815502876593e-1, 2.0000000000000000000897e0)

# Lanczos-13 sum scaled by exp(-g), highest power first
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859)
_LANCZOS_DENOM = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0,
                  13339535.0, 45995730.0, 105258076.0, 150917976.0,
                  120543840.0, 39916800.0, 0.0)

# lgam(1 + a) for the only a the igamc series reaches (a ≤ 0.58 for
# x ≤ 0.5, a ≤ 1.21 up to x = 1.1): Cephes's Taylor sum at a = 0.5,
# 246 ulps above ln Gamma(1.5), and log(1) + 0 at a = 1
_LGAM1P = {0.5: float.fromhex("-0x1.eeb95b094c296p-4"), 1.0: 0.0}


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    """Cephes ``lgam`` for 0 < x ≤ 20."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _B) / _p1evl(x, _C)
        return math.log(z) + p
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    return q + _polevl(p, _A) / x


def _expm1(x: float) -> float:
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EP)
    r = r / (_polevl(xx, _EQ) - r)
    return r + r


def _lanczos_sum_expg_scaled(x: float) -> float:
    """Cephes ``ratevl``: Horner from the highest power, or in 1/x from
    the lowest when |x| > 1.  Numerator and denominator have the same
    degree, so no power of x is left over."""
    if abs(x) > 1.0:
        y, num, den = 1.0 / x, _LANCZOS_NUM[::-1], _LANCZOS_DENOM[::-1]
    else:
        y, num, den = x, _LANCZOS_NUM, _LANCZOS_DENOM
    return _polevl(y, num) / _polevl(y, den)


def _igam_fac(a: float, x: float) -> float:
    """x^a e^(-x) / Gamma(a)."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / _lanczos_sum_expg_scaled(a)
    # a, x ≤ 28 here, below Cephes's 200 for the log1pmx form
    return res * (math.exp(a - x) * math.pow(x / fac, a))


def _igamc_continued_fraction(a: float, x: float) -> float:
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _igam_series(a: float, x: float) -> float:
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r, c, ans = a, 1.0, 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_series(a: float, x: float) -> float:
    fac, total = 1.0, 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _LGAM1P[a])
    return term - math.exp(a * logx - _lgam(a)) * total


def chdtrc(df: int, x: float) -> float:
    """P(X > x) for X ~ chi-square with df ≤ 40 degrees of freedom; the
    same bits as ``scipy.special.chdtrc(df, x)``."""
    if df not in range(1, MAX_DF + 1):
        raise ValueError(f"df must be in 1..{MAX_DF}, got {df}")
    if not x >= 0.0:  # negative or NaN, where scipy gives NaN
        return math.nan
    a, x = df / 2.0, x / 2.0
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if x <= 0.5:
        if -0.4 / math.log(x) < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_series(a, x)
    if x * 1.1 < a:
        return 1.0 - _igam_series(a, x)
    return _igamc_series(a, x)
