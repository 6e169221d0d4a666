"""Seedable, splittable random streams for reproducible Monte-Carlo runs.

Design: a stream is a 64-bit *base* value hashed from ``(seed, stream_id)``
plus a draw counter.  The i-th raw output is ``mix(base + i * GAMMA)`` where
``mix`` is the SplitMix64 finalizer, so every draw is a pure function of
``(seed, stream_id, i)``: no hidden global state, identical sequences on
every platform, and sibling streams may be consumed concurrently without
locks.  Splitting depends only on the parent's ``seed`` and the requested
``stream_id`` — children of children with equal ids coincide by design, so
allocate ids from one flat namespace per run.
"""
from __future__ import annotations

import numpy as np

from ._blocks import blocks
from .errors import FiberlineError

__all__ = ["RngStream", "make_rng", "split", "uniform01", "gaussian"]

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# distinct tags keep seed and stream_id from aliasing each other in the hash
_SEED_TAG = np.uint64(0x5851F42D4C957F2D)
_STREAM_TAG = np.uint64(0x14057B7EF767814F)
_INV_2_53 = 1.0 / float(1 << 53)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output finalizer, elementwise on uint64 arrays, in place.

    Operates on arrays (never numpy scalars) so the intended mod-2**64
    wraparound stays silent.
    """
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _stream_base(seed: int, stream_id: int) -> np.uint64:
    s = np.array([seed & _MASK64], dtype=np.uint64)
    t = np.array([stream_id & _MASK64], dtype=np.uint64)
    h = _mix(s ^ _SEED_TAG)
    return _mix(h ^ _mix(t ^ _STREAM_TAG))[0]


class RngStream:
    """One deterministic stream of uniforms and gaussians.

    Parameters
    ----------
    seed : int
        Run-level seed; reduced mod 2**64.
    stream_id : int
        Which stream of the run this is; reduced mod 2**64.

    Scalar and block draws interleave freely: ``uniforms(n)`` is exactly the
    concatenation of ``n`` single draws, and ``gaussians(n)`` advances the
    counter exactly as ``n`` single gaussian draws would (the polar method's
    leftover half-pair is cached either way).  Large draws fill their output
    one cache-sized block at a time, which by the same token changes no value
    and no counter.
    """

    __slots__ = ("seed", "stream_id", "_base", "_counter", "_spare",
                 "proposals", "accepted")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._base = _stream_base(self.seed, self.stream_id)
        self._counter = 0  # number of raw 64-bit words consumed so far
        self._spare: float | None = None
        self.proposals = 0  # rejection-sampler proposals drawn on this stream
        self.accepted = 0  # and how many of them were kept

    def __repr__(self) -> str:  # counter shown for debuggability, not identity
        return (f"RngStream(seed={self.seed}, stream_id={self.stream_id}, "
                f"counter={self._counter})")

    def _uniforms_at(self, n: int) -> np.ndarray:
        """The next n uniforms, read without moving the counter.  Their raw
        words are computed in place, so a block of words holds two
        word-sized arrays at a time."""
        x = np.arange(n, dtype=np.uint64)
        x += np.uint64(self._counter & _MASK64)
        x *= _GAMMA
        x += self._base
        _mix(x)
        x >>= np.uint64(11)
        u = x.astype(np.float64)
        u *= _INV_2_53
        return u

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles, uniform on [0, 1)."""
        n = int(n)
        if n < 0:
            raise FiberlineError("draw count must be nonnegative")
        out = np.empty(n, dtype=np.float64)
        for s in blocks(n):
            out[s] = self._uniforms_at(s.stop - s.start)
            self._counter += s.stop - s.start
        return out

    def gaussians(self, n: int) -> np.ndarray:
        """Next ``n`` standard normals (Marsaglia polar method).

        Candidate pairs are two consecutive uniforms mapped to the square
        [-1, 1)^2 and accepted when they land inside the unit disk.  The
        counter is committed only up to the last *accepted* pair actually
        needed, so a block draw consumes exactly what the equivalent run of
        scalar draws would.
        """
        n = int(n)
        if n < 0:
            raise FiberlineError("draw count must be nonnegative")
        out = np.empty(n, dtype=np.float64)
        for s in blocks(n):
            self._fill_gaussians(out[s])
        return out

    def _fill_gaussians(self, out: np.ndarray) -> None:
        """Write the next ``out.size`` gaussians into ``out``."""
        n = out.size
        k = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            k = 1
        for x, y, s, idx in self._accepted_pairs((n - k + 1) // 2):
            s = s[idx]
            f = _polar_scale(s)
            pair = np.empty(2 * idx.size, dtype=np.float64)
            pair[0::2] = x[idx] * f
            pair[1::2] = y[idx] * f
            take = min(pair.size, n - k)
            out[k:k + take] = pair[:take]
            k += take
            if take < pair.size:
                self._spare = float(pair[take])

    def _accepted_pairs(self, need: int):
        """The polar method's pair scan: yields, a round at a time, the
        candidate pairs (x, y) of the square [-1, 1)^2, their s = x^2 + y^2
        and the indices ``idx`` of the accepted ones it uses, until ``need``
        pairs are accepted.  The counter moves up to the last accepted pair
        used and no further: later candidates were never "seen" by scalar
        draws.  The spare is left alone."""
        while need > 0:
            m = max(int(need / 0.78) + 16, 32)  # candidate pairs this round
            c = self._uniforms_at(2 * m)
            c *= 2.0  # 2u - 1, in place
            c -= 1.0
            x, y = c[0::2], c[1::2]
            s = x * x
            s += y * y
            idx = np.nonzero((s > 0.0) & (s < 1.0))[0]
            if idx.size >= need:
                idx = idx[:need]
                self._counter += 2 * (int(idx[-1]) + 1)
            else:
                self._counter += 2 * m
            need -= idx.size
            yield x, y, s, idx

    def _pend_spare(self, y: float, s: np.ndarray) -> None:
        """Leave pending the second gaussian of the accepted polar pair
        (x, y) whose s = x^2 + y^2 is the one entry of ``s``, as a draw
        that uses only the pair's first gaussian does."""
        self._spare = float(y * _polar_scale(s)[0])


def _polar_scale(s: np.ndarray) -> np.ndarray:
    """sqrt(-2 ln s / s), the factor taking an accepted polar pair (x, y)
    with s = x^2 + y^2 to two standard normals."""
    return np.sqrt(-2.0 * np.log(s) / s)


def make_rng(seed: int) -> RngStream:
    """Root stream for a run (stream_id 0)."""
    return RngStream(seed, 0)


def split(rng: RngStream, stream_id: int) -> RngStream:
    """Independent sibling stream of the same run.

    Purely a function of ``(rng.seed, stream_id)``; the parent's counter and
    cached state are irrelevant, so splits may happen before, after or during
    consumption of the parent without changing anything.
    """
    return RngStream(rng.seed, stream_id)


def uniform01(rng: RngStream) -> float:
    """One double, uniform on [0, 1)."""
    return float(rng.uniforms(1)[0])


def gaussian(rng: RngStream) -> float:
    """One standard normal draw."""
    return float(rng.gaussians(1)[0])
