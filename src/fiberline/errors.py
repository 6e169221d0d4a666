"""Exception types raised by fiberline samplers and estimators.

Everything derives from :class:`FiberlineError` so callers can catch the
whole family at once; the command line maps these onto exit codes.
"""
from __future__ import annotations

__all__ = [
    "FiberlineError",
    "NotUnit",
    "PoleSingularity",
    "BoundViolated",
    "NonFinite",
    "RejectionStall",
    "InsufficientRadius",
    "NoHits",
    "DegenerateWeights",
    "TooFewSamples",
    "Unbounded",
]


class FiberlineError(Exception):
    """Base class for all errors raised by this package."""


class NotUnit(FiberlineError):
    """A vector or quaternion that must have unit norm does not."""


class PoleSingularity(FiberlineError):
    """The cross-product frame is undefined at (or too close to) the poles."""


class BoundViolated(FiberlineError):
    """A density evaluation exceeded its declared rejection bound."""


class NonFinite(FiberlineError):
    """A density evaluation returned NaN or infinity."""


class RejectionStall(FiberlineError):
    """Rejection sampling accepted essentially nothing over many proposals."""


class InsufficientRadius(FiberlineError):
    """The sampling sphere does not enclose the target body."""


class NoHits(FiberlineError):
    """No sampled line intersected the body, so conditional estimates fail."""


class DegenerateWeights(FiberlineError):
    """Importance weights collapsed onto too few samples to trust."""


class TooFewSamples(FiberlineError, ValueError):
    """Not enough samples for the requested statistical test (a usage error)."""


class Unbounded(FiberlineError, ValueError):
    """A halfspace system leaves some direction unbounded (malformed input)."""
