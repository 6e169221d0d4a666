"""fiberline: reproducible random lines in R^3.

Splittable counter-based RNG (:mod:`fiberline.randkit`), uniform rotations
and spheres (:mod:`fiberline.haar`), the space of directed lines with its
invariant measure (:mod:`fiberline.linespace`), frame-plus-offset sampling
with circle-gauge audits (:mod:`fiberline.bundle`), convex-body chords
(:mod:`fiberline.geometry`), and the statistical harness tying them to
closed-form expectations (:mod:`fiberline.stats`).  Each public name lives
in its submodule only.
"""
from __future__ import annotations

from . import bundle, errors, geometry, haar, linespace, randkit, stats

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    "randkit",
    "haar",
    "linespace",
    "bundle",
    "geometry",
    "stats",
]
