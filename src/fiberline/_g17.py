"""CSV rows of ``%.17g`` values, byte for byte, in numpy integer arithmetic.

``csv_text(table)`` gives the text of ``(row * len(table)) % values`` for
the row template ``"%.17g,...,%.17g\\n"`` (one ``%.17g`` per column) and the
values of ``table`` in row-major order, or None when a value is outside the
kernel's range: 1e-11 < |x| < 1e17, or x = 0.  CPython formats each value
with a bignum ``dtoa`` (Gay, "Correctly Rounded Binary-Decimal and
Decimal-Binary Conversions", 1990); fixed-precision output needs only a
power-of-ten table and a wide product (Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019), which numpy runs on a whole group.

A double x = m 2^e (m < 2^53) with X = floor(log10|x|) rounds to the 17
digits D = round-half-even(m 5^p 2^(p+e)), p = 16 - X; a round up to 10^17
makes D 10^16 and X one more.  In range, -11 <= X <= 16, so 5^p < 2^64 and
m 5^p < 2^117 is an exact product of 32-bit limbs.  X starts as numpy's
floor(log10|x|) and is moved until floor(|x| 10^p) lies in [10^16, 10^17),
so the guess's last bit, and with it libm and numpy's SIMD dispatch, cannot
reach the bytes.  ``%.17g`` writes D as ``0.000ddd`` (-4 <= X < 0),
``ddd.ddd`` (0 <= X <= 16) or ``d.ddde-XX`` (X < -4), drops trailing
fraction zeros and a bare ``.``, and writes zero as ``0`` or ``-0``.

The text is built in a character grid with one row per output column (sign,
the ``0.000`` lead, 18 mantissa columns holding the 17 digits and the ``.``,
``e-XX``, separator) and one column per value, so every write is a
contiguous row.  A keep mask marks each value's characters, and one boolean
compress of the transposed grid gives the text.
"""
from __future__ import annotations

import numpy as np

_LO, _HI = 1e-11, 1e17  # in range: _LO < |x| < _HI (the double 1e-11 < 10^-11)
_X_MIN, _X_MAX = -11, 16
_POW5 = np.array([5 ** p for p in range(16 - _X_MIN + 1)], dtype=np.uint64)
_D_MIN, _D_MAX = np.uint64(10 ** 16), np.uint64(10 ** 17)
_LIMB = np.uint64(0xFFFFFFFF)
_FRAC = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_U1, _U32, _U52, _U64, _U1E9 = (np.uint64(k) for k in (1, 32, 52, 64, 10 ** 9))
_TEN = np.uint32(10)

# grid rows: sign, lead "0.000", mantissa (18), "e-XX", separator
_SIGN, _LEAD, _MANT, _EXP, _SEP = 0, 1, 6, 24, 28
_WIDTH = 29
_ZERO, _DOT = ord("0"), ord(".")


def _scaled(m: np.ndarray, e2: np.ndarray,
            x10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as uint64, and whether round-half-even(y) is floor(y) + 1, for
    y = m 2^e2 10^(16 - x10): 53-bit m, int64 binary exponents e2, and int64
    decimal exponents x10 in [-11, 16] at most one from floor(log10(m 2^e2)),
    so that y < 10^18."""
    p = 16 - x10
    f = _POW5[p]
    m_lo, m_hi = m & _LIMB, m >> _U32
    f_lo, f_hi = f & _LIMB, f >> _U32
    ll, lh, hl = m_lo * f_lo, m_lo * f_hi, m_hi * f_lo
    mid = (ll >> _U32) + (lh & _LIMB) + (hl & _LIMB)
    lo = (mid << _U32) | (ll & _LIMB)
    hi = m_hi * f_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    # y is the product m 5^p shifted right by s = -(p + e2) bits, or left by
    # at most 5 bits when y is an integer (|x| >= 2^51 and p <= 2)
    s = -(p + e2)
    left = np.flatnonzero(s <= 0)
    r = np.clip(s, 1, 63).astype(np.uint64)
    d = (hi << (_U64 - r)) | (lo >> r)
    rem = lo & ((_U1 << r) - _U1)
    half = _U1 << (r - _U1)
    up = (rem > half) | ((rem == half) & (d & _U1).astype(bool))
    if left.size:
        d[left] = lo[left] << (-s[left]).astype(np.uint64)
        up[left] = False
    return d, up


def csv_text(table: np.ndarray) -> str | None:
    """The text of ``%.17g`` rows of the (rows, cols) float64 ``table``,
    values joined by ``,`` and each row ended by a newline; None when a value
    is outside 1e-11 < |x| < 1e17 and is not zero."""
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=np.float64).reshape(-1)
    ax = np.abs(v)
    if not ax.max(initial=0.0) < _HI:
        return None
    zero = ax <= _LO
    has_zero = bool(zero.any())
    if has_zero:
        if ax[zero].any():
            return None
        ax[zero] = 1.0  # formatted as 1, then its digits are set to 0
    bits = ax.view(np.uint64)
    m = (bits & _FRAC) | _HIDDEN
    e2 = (bits >> _U52).astype(np.int64) - 1075
    x10 = np.clip(np.floor(np.log10(ax)), _X_MIN, _X_MAX).astype(np.int64)
    d, up = _scaled(m, e2, x10)
    fix = np.flatnonzero((d < _D_MIN) | (d >= _D_MAX))
    while fix.size:
        x10[fix] += np.where(d[fix] >= _D_MAX, 1, -1)
        dx, ux = _scaled(m[fix], e2[fix], x10[fix])
        d[fix], up[fix] = dx, ux
        fix = fix[(dx < _D_MIN) | (dx >= _D_MAX)]
    d += up
    carry = d == _D_MAX
    d[carry] = _D_MIN
    x10 += carry
    if has_zero:
        d[zero] = 0
        x10[zero] = 0

    n = len(v)
    grid = np.empty((_WIDTH, n), dtype=np.uint8)
    keep = np.empty((_WIDTH, n), dtype=bool)
    grid[_SIGN] = ord("-")
    np.signbit(v, out=keep[_SIGN])
    grid[_LEAD:_MANT] = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
    lead = (x10 < 0) & (x10 >= -4)
    keep[_LEAD] = lead
    keep[_LEAD + 1] = lead
    for k in (2, 3, 4):
        np.logical_and(lead, x10 <= -k, out=keep[_LEAD + k])

    # digit i of D goes to mantissa column i + 1; the columns before the
    # '.' are moved one to the left below
    hi9 = d // _U1E9
    w = np.empty((2, n), dtype=np.uint32)
    w[0] = hi9
    w[1] = d - hi9 * _U1E9
    # digits 7 - k and 16 - k of D, from its high and low 9-digit halves
    for k in range(8):
        q = w // _TEN
        np.add(w - q * _TEN, _ZERO, casting="unsafe",
               out=grid[_MANT + 8 - k:_MANT + 18 - k:9])
        w = q
    np.add(w[1], _ZERO, out=grid[_MANT + 9], casting="unsafe")  # digit 8
    # trail[i]: a digit from digit i on is not 0, so digit i is kept in the
    # fraction; trail[17] is False
    trail = np.zeros((18, n), dtype=bool)
    np.not_equal(grid[_MANT + 1:_EXP], _ZERO, out=trail[:17])
    for i in range(15, -1, -1):
        trail[i] |= trail[i + 1]
    keep[_MANT + 1:_EXP] = trail[:17]

    # the '.' follows the integer digits: X + 1 of them in fixed notation,
    # one in exponent form, and none below 1, where the lead holds it
    expo = x10 < -4
    dot = np.maximum(x10 + 1, expo)
    grid[_MANT] = _DOT
    np.greater(dot, 0, out=keep[_MANT])
    np.copyto(grid[_MANT], grid[_MANT + 1], where=keep[_MANT])
    for j in range(1, int(dot.max(initial=0)) + 1):
        before, at = dot > j, dot == j
        np.copyto(grid[_MANT + j], grid[_MANT + j + 1], where=before)
        np.copyto(grid[_MANT + j], _DOT, where=at)
        np.copyto(keep[_MANT + j], True, where=before)
        np.copyto(keep[_MANT + j], trail[j], where=at)

    keep[_EXP:_SEP] = expo
    grid[_EXP] = ord("e")
    grid[_EXP + 1] = ord("-")
    ten = x10 <= -10  # -X is 5 to 11 where the exponent is kept
    np.add(ten, _ZERO, out=grid[_EXP + 2], casting="unsafe")
    np.add(-x10 - 10 * ten, _ZERO, out=grid[_EXP + 3], casting="unsafe")
    sep = grid[_SEP].reshape(rows, cols)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    keep[_SEP] = True
    return grid.T[keep.T].tobytes().decode("ascii")
