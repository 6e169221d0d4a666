"""fiberline: reproducible random lines in R^3.

Splittable counter-based RNG (:mod:`fiberline.randkit`), uniform rotations
and spheres (:mod:`fiberline.haar`), the space of directed lines with its
invariant measure (:mod:`fiberline.linespace`), frame-plus-offset sampling
with circle-gauge audits (:mod:`fiberline.bundle`), convex-body chords
(:mod:`fiberline.geometry`), and the statistical harness tying them to
closed-form expectations (:mod:`fiberline.stats`).
"""
from __future__ import annotations

from . import bundle, errors, geometry, haar, linespace, randkit, stats
from .bundle import (
    BundlePoint,
    LineDensity,
    act,
    project_to_line,
    sample_bundle,
    sample_cosine_surface,
    sample_isotropic,
)
from .errors import FiberlineError
from .geometry import Ball, Box, ConvexBody, Halfspaces, chord, parse_body
from .haar import (
    hopf_map,
    quat_to_rotation,
    sample_rotation,
    sample_sphere2,
    sample_sphere3,
)
from .linespace import DirectedLine, SlopeLine
from .randkit import RngStream, gaussian, make_rng, split, uniform01
from .stats import (
    Estimate,
    TestReport,
    bertrand_experiment,
    gauge_audit,
    mean_chord_experiment,
    slope_importance_experiment,
)

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
    "FiberlineError",
    "RngStream",
    "make_rng",
    "split",
    "uniform01",
    "gaussian",
    "sample_sphere2",
    "sample_sphere3",
    "sample_rotation",
    "quat_to_rotation",
    "hopf_map",
    "DirectedLine",
    "SlopeLine",
    "BundlePoint",
    "LineDensity",
    "act",
    "project_to_line",
    "sample_bundle",
    "sample_isotropic",
    "sample_cosine_surface",
    "Ball",
    "Box",
    "Halfspaces",
    "ConvexBody",
    "chord",
    "parse_body",
    "Estimate",
    "TestReport",
    "bertrand_experiment",
    "mean_chord_experiment",
    "slope_importance_experiment",
    "gauge_audit",
]
