"""CSV rows of ``%.17g`` values and JSON records of ``repr`` values, byte
for byte, in numpy integer arithmetic.

``csv_text(table)`` gives the text of ``(row * len(table)) % values`` for
the row template ``"%.17g,...,%.17g\\n"``, and ``json_text(table)`` that
of ``",\\n".join([record] * len(table)) % values`` for the record
``json.dumps(indent=2)`` writes at depth 2, one ``"key": %r`` line per
line column.  CPython formats each value with a bignum ``dtoa`` (Gay,
"Correctly Rounded Binary-Decimal and Decimal-Binary Conversions", 1990); a
power-of-ten table and a wide product do as well (Adams, "Ryu: fast
float-to-string conversion", PLDI 2018, and "Ryu revisited", OOPSLA 2019),
and numpy runs them on a whole group.  A value outside 1e-11 < |x| < 1e17
(1e16 for JSON), zero aside, is formatted by CPython alone and spliced in.

A double x = m 2^e (m < 2^53) with X = floor(log10|x|) rounds to the 17
digits D = round-half-even(y), y = m 5^p 2^(p+e), p = 16 - X; a round up to
10^17 makes D 10^16 and X one more.  In range, 5^p < 2^64, and m 5^p <
2^117 is an exact product of 32-bit limbs, which gives floor(y) and y's
fraction rem / 2^r.  X starts as numpy's floor(log10|x|) and is moved until
floor(y) lies in [10^16, 10^17), so the guess's last bit, and with it libm
and numpy's SIMD dispatch, cannot reach the bytes.  ``%.17g`` writes D as
``0.000ddd`` (-4 <= X < 0), ``ddd.ddd`` (0 <= X <= 16) or ``d.ddde-XX``
(X < -4), drops trailing fraction zeros and a bare ``.``, and writes zero
as ``0`` or ``-0``.

``repr`` writes the shortest digits that read back as x, the nearer of two
(Steele and White, "How to Print Floating-Point Numbers Accurately", PLDI
1990): D ended by the most zeros that keeps it within half an ulp of y
(5^p / 2^(r+1) in y's units; a quarter ulp below a power of two), an
integer comparison with floor(y) and rem.  It keeps ``.0`` on integral
values and ``-0.0``, and writes an exponent from 1e16 on, which is out of
range.

The text is built in a character grid with one row per output column (the
fixed text before a value, sign, the ``0.000`` lead, 18 mantissa columns
holding the 17 digits and the ``.``, ``e-XX``, the fixed text after it) and
one column per value, so every write is a contiguous row.  A keep mask
marks each value's characters, and one boolean compress of the transposed
grid gives the text.
"""
from __future__ import annotations

import numpy as np

from .linespace import _COLUMNS

# in range: _LO < |x| < _CSV_HI or _JSON_HI (the double 1e-11 < 10^-11)
_LO, _CSV_HI, _JSON_HI = 1e-11, 1e17, 1e16
_X_MIN, _X_MAX = -11, 16
_POW5 = np.array([5 ** p for p in range(16 - _X_MIN + 1)], dtype=np.uint64)
_POW10 = np.array([10 ** j for j in range(17)], dtype=np.uint64)
_D_MIN, _D_MAX = np.uint64(10 ** 16), np.uint64(10 ** 17)
_LIMB = np.uint64(0xFFFFFFFF)
_FRAC = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_U1, _U2, _U32, _U52, _U64, _U1E9 = (np.uint64(k)
                                     for k in (1, 2, 32, 52, 64, 10 ** 9))
_TEN = np.uint32(10)

# number rows: sign, lead "0.000", mantissa (18), "e-XX"
_SIGN, _LEAD, _MANT, _EXP, _NUM = 0, 1, 6, 24, 28
_ZERO, _DOT = ord("0"), ord(".")


def _scaled(m: np.ndarray, e2: np.ndarray,
            x10: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """floor(y) as uint64 and y's fraction rem / 2^r (rem, r uint64, rem
    0 when y is an integer) for y = m 2^e2 10^(16 - x10): 53-bit m, int64
    binary exponents e2, and int64 decimal exponents x10 in [-11, 16] at
    most one from floor(log10(m 2^e2)), so that y < 10^18."""
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
    if left.size:
        d[left] = lo[left] << (-s[left]).astype(np.uint64)
        rem[left] = 0
    return d, rem, r


def _shortest(d: np.ndarray, y: np.ndarray, rem: np.ndarray, r: np.ndarray,
              m: np.ndarray, e2: np.ndarray, x10: np.ndarray) -> None:
    """Set d to the shortest digits that read back as m 2^e2, ended by zeros
    at the 17-digit scale, where y + rem / 2^r is ``_scaled``'s value at
    exponent x10; d stays where no fewer than 17 digits do."""
    # an integer c reads back when |c - y - rem / 2^r| = a + b / 2^r is less
    # than half an ulp, lim / 2^(r+1) with lim = 5^(16 - x10), or a quarter
    # below a power of two, where the gap under x is half as wide: when a < A,
    # or a = A and b <= B.  It is never equal, as 5^p is odd, so no tie rule
    # is needed.  An integral y has x's own digits, and nothing else reads back
    lim = _POW5[16 - x10]
    lim[x10 - 16 - e2 <= 0] = 0

    def bound(g):  # A and B for lim / 2^(r+g)
        a = (lim >> r) >> g
        return a, (lim - ((a << r) << g)) >> g

    a, b = bound(_U1)
    hi = y + a + (rem >= (_U1 << r) - b)
    a, b = bound(_U1 + (m == _HIDDEN))
    lo = y - a + (rem > b)
    # the most zeros j of a multiple of 10^j in [lo, hi]: hi mod 10^j is at
    # most hi - lo, which is below 24, so from j = 2 on the digits of hi from
    # the third on must be zero too
    width = hi - lo
    q10 = hi // _POW10[1]
    q100 = q10 // _POW10[1]
    zeros = ((hi - q10 * _POW10[1] <= width).astype(np.intp)
             + (hi - q100 * _POW10[2] <= width))
    more = np.flatnonzero(zeros == 2)
    if more.size:
        zeros[more] += np.count_nonzero(
            q100[more, None] % _POW10[None, 1:15] == 0, axis=1)
    sel = np.flatnonzero(zeros)
    # the nearer multiple of 10^j to y (the even one at a tie) if it is in
    # [lo, hi], and the other one next to y if not
    ten = _POW10[zeros[sel]]
    y, lo, hi = y[sel], lo[sel], hi[sel]
    q = y // ten
    down = q * ten
    twice = (y - down) * _U2 + (rem[sel] != 0)
    up = (twice > ten) | ((twice == ten) & (q & _U1).astype(bool))
    near = down + up * ten
    inside = (near >= lo) & (near <= hi)
    d[sel] = down + (up == inside) * ten


def _decimal(v: np.ndarray, hi: float,
             shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, x10, out) for the float64 values v: the 17 digits of |x| (or the
    shortest ones, ended by zeros) as uint64 d in [10^16, 10^17), 0 for a
    zero, with x10 = floor(log10|x|) (0 for a zero), and the indices ``out``
    of the values outside _LO < |x| < hi and not 0, for CPython to format."""
    ax = np.abs(v)
    out = _declined(ax, hi)
    if out.size:
        ax[out] = 1.0
    has_zero = not ax.min(initial=np.inf) > 0.0
    if has_zero:
        zero = ax == 0.0
        ax[zero] = 1.0  # formatted as 1, then its digits are set to 0
    bits = ax.view(np.uint64)
    m = (bits & _FRAC) | _HIDDEN
    e2 = (bits >> _U52).astype(np.int64) - 1075
    x10 = np.clip(np.floor(np.log10(ax)), _X_MIN, _X_MAX).astype(np.int64)
    y, rem, r = _scaled(m, e2, x10)
    fix = np.flatnonzero((y < _D_MIN) | (y >= _D_MAX))
    while fix.size:
        x10[fix] += np.where(y[fix] >= _D_MAX, 1, -1)
        yx, rx, sx = _scaled(m[fix], e2[fix], x10[fix])
        y[fix], rem[fix], r[fix] = yx, rx, sx
        fix = fix[(yx < _D_MIN) | (yx >= _D_MAX)]
    half = _U1 << (r - _U1)
    d = y + ((rem > half) | ((rem == half) & (y & _U1).astype(bool)))
    if shortest:
        _shortest(d, y, rem, r, m, e2, x10)
    carry = d == _D_MAX
    d[carry] = _D_MIN
    x10 += carry
    if has_zero:
        d[zero] = 0
        x10[zero] = 0
    return d, x10, out


def _declined(ax: np.ndarray, hi: float) -> np.ndarray:
    """Indices of the |x| in ``ax`` that the kernel leaves to CPython: those
    outside _LO < |x| < hi that are not 0, NaN and infinities included."""
    if ax.min(initial=np.inf) > _LO and ax.max(initial=0.0) < hi:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~((ax > _LO) & (ax < hi)) & (ax != 0.0))


def _fixed(texts: list[str]) -> np.ndarray:
    """Each column's fixed text, right-aligned in the (width, cols) rows of
    a (2, width, cols) uint8 frame, its characters and 1 where kept, which
    is repeated 64 times along the last axis for ``_tile``."""
    width = max(map(len, texts))
    text = "".join(t.rjust(width, "\0") for t in texts).encode()
    chars = np.frombuffer(text, np.uint8).reshape(len(texts), width).T
    frame = np.tile(np.stack([chars, chars != 0]), 64)
    frame.flags.writeable = False
    return frame


# the (before, after) frames of each value's fixed text; every JSON record
# starts with the ",\n" that json_text drops from the first
_CSV = (_fixed([""] * len(_COLUMNS)),
        _fixed([","] * (len(_COLUMNS) - 1) + ["\n"]))
_KEYS = [f'      "{k}": ' for k in _COLUMNS]
_JSON = (_fixed([",\n    {\n" + _KEYS[0]] + _KEYS[1:]),
         _fixed([",\n"] * (len(_COLUMNS) - 1) + ["\n    }"]))


def _tile(out: np.ndarray, frame: np.ndarray) -> None:
    """Fill ``out`` with ``frame`` repeated along the last axis, doubling
    the filled part with each copy."""
    n = out.shape[-1]
    fill = min(frame.shape[-1], n)
    out[..., :fill] = frame[..., :fill]
    while fill < n:
        k = min(fill, n - fill)
        out[..., fill:fill + k] = out[..., :k]
        fill += k


def _text(table: np.ndarray, frames: tuple[np.ndarray, np.ndarray],
          shortest: bool) -> str:
    """The text of each value of the (rows, cols) ``table`` in row-major
    order between its column's texts in the (before, after) ``frames``:
    ``repr``'s digits when ``shortest``, else ``%.17g``'s, and CPython's own
    for the values outside _LO < |x| < _JSON_HI or _CSV_HI and not 0."""
    v = np.ascontiguousarray(table, dtype=np.float64).reshape(-1)
    n = len(v)
    hi, spell = (_JSON_HI, "%r") if shortest else (_CSV_HI, "%.17g")
    d, x10, out = _decimal(v, hi, shortest)

    # the characters and the keep mask share one buffer, so that the fixed
    # text of both is tiled at once
    pre, post = frames
    head = pre.shape[1]
    width = head + _NUM + post.shape[1]
    buf = np.empty((2, width, n), dtype=np.uint8)
    grid, keep = buf[0], buf[1].view(bool)
    _tile(buf[:, :head], pre)
    _tile(buf[:, head + _NUM:], post)
    num, kept = grid[head:head + _NUM], keep[head:head + _NUM]

    num[_SIGN] = ord("-")
    np.signbit(v, out=kept[_SIGN])
    num[_LEAD:_MANT] = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
    lead = (x10 < 0) & (x10 >= -4)
    kept[_LEAD] = lead
    kept[_LEAD + 1] = lead
    for k in (2, 3, 4):
        np.logical_and(lead, x10 <= -k, out=kept[_LEAD + k])

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
               out=num[_MANT + 8 - k:_MANT + 18 - k:9])
        w = q
    np.add(w[1], _ZERO, out=num[_MANT + 9], casting="unsafe")  # digit 8
    # the '.' follows the integer digits: X + 1 of them in fixed notation,
    # one in exponent form, and none below 1, where the lead holds it
    expo = x10 < -4
    dot = np.maximum(x10 + 1, expo)
    # trail[i]: a digit from digit i on is not 0, so digit i is kept in the
    # fraction; trail[17] is False
    trail = np.zeros((18, n), dtype=bool)
    np.not_equal(num[_MANT + 1:_EXP], _ZERO, out=trail[:17])
    for i in range(15, -1, -1):
        trail[i] |= trail[i + 1]
    if shortest:
        # repr keeps ".0" after the integer digits in fixed notation
        fixed = np.flatnonzero((dot > 0) & ~expo)
        trail[dot[fixed], fixed] = True
    kept[_MANT + 1:_EXP] = trail[:17]

    num[_MANT] = _DOT
    np.greater(dot, 0, out=kept[_MANT])
    np.copyto(num[_MANT], num[_MANT + 1], where=kept[_MANT])
    for j in range(1, int(dot.max(initial=0)) + 1):
        before_dot, at = dot > j, dot == j
        np.copyto(num[_MANT + j], num[_MANT + j + 1], where=before_dot)
        np.copyto(num[_MANT + j], _DOT, where=at)
        np.copyto(kept[_MANT + j], True, where=before_dot)
        np.copyto(kept[_MANT + j], trail[j], where=at)

    kept[_EXP:_NUM] = expo
    if expo.any():
        num[_EXP] = ord("e")
        num[_EXP + 1] = ord("-")
        ten = x10 <= -10  # -X is 5 to 11 where the exponent is kept
        np.add(ten, _ZERO, out=num[_EXP + 2], casting="unsafe")
        np.add(-x10 - 10 * ten, _ZERO, out=num[_EXP + 3], casting="unsafe")
    kept[:, out] = False
    text = str(grid.T[keep.T], "ascii")
    if not out.size:
        return text
    # a declined value's text goes where its blanked number rows are: at its
    # column's end less the kept text after the number
    at = (np.cumsum(np.count_nonzero(keep, axis=0))[out]
          - np.count_nonzero(keep[head:, out], axis=0))
    pieces, start = [], 0
    for i, x in zip(at.tolist(), v[out].tolist()):
        pieces += text[start:i], spell % x
        start = i
    return "".join(pieces + [text[start:]])


def csv_text(table: np.ndarray) -> str:
    """The text of ``%.17g`` rows of the (rows, 6) float64 ``table``,
    values joined by ``,`` and each row ended by a newline."""
    return _text(table, _CSV, False)


def json_text(table: np.ndarray) -> str:
    """The ``json.dumps(indent=2)`` text of the rows of the (rows, 6)
    float64 ``table`` as records {_COLUMNS[c]: value} at depth 2, joined by
    ``,\\n``: each float is its ``repr``."""
    return _text(table, _JSON, True)[2:]
