"""Command-line front end: line samplers, experiments, and audits.

Every subcommand is deterministic given ``--seed`` (default: the
``FIBERLINE_SEED`` environment variable, else 0) and stamps a run manifest —
command line, seed, n, timestamp, package version — into its output: as a
``# manifest:`` comment for CSV, embedded for JSON.  The timestamp honors
``SOURCE_DATE_EPOCH`` and is empty when that is unset, so equal invocations
produce byte-identical bytes.

Exit codes: 0 pass, 1 statistical fail, 2 usage/input error, 3 runtime
sampler error (error name on standard error).

``--threads k`` (every subcommand but gauge-audit) shards n across k sibling
random streams (ids 1..k) joined in stream order, so output depends on the
flag value but not on scheduling.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bundle import (
    _unit_axis,
    foot_tilt_density,
    project_to_line,
    radial_density,
    sample_bundle,
    sample_cosine_surface,
    sample_isotropic,
    tilt_density,
    tilt_radial_density,
    uniform_density,
)
from .errors import FiberlineError, InsufficientRadius
from .geometry import Ball, parse_body
from .haar import quat_to_rotation, rotation_angle, rotation_angle_cdf, \
    s3_w_cdf, sample_sphere3
from .linespace import DirectedLine, lines_to_csv, lines_to_json
from .randkit import make_rng, split
from .stats import (
    Estimate,
    bertrand_indicators,
    bertrand_oracle,
    chi2_isotropy,
    estimate_from_samples,
    gauge_audit,
    hit_rate_oracle,
    isotropic_chords,
    ks_test,
    mean_chord_oracle,
)
from .geometry import chord as body_chord

__all__ = ["main"]

_DENSITIES = ("uniform", "tilt", "radial", "tilt-radial", "foot-tilt")
_ESTIMATORS = ("foot-axis", "chord-ball", "direction-axis2")


def _timestamp() -> str:
    """ISO timestamp from SOURCE_DATE_EPOCH, or "" so output stays stable."""
    sde = os.environ.get("SOURCE_DATE_EPOCH", "")
    if not sde:
        return ""
    try:
        return datetime.fromtimestamp(int(sde), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        return ""


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FIBERLINE_SEED", "")
    if not env:
        return 0
    try:
        return int(env, 0)
    except ValueError:
        raise ValueError(f"FIBERLINE_SEED is not an integer: {env!r}") from None


def _manifest(argv: list[str], seed: int, n: int, extra: dict | None = None) -> dict:
    m = {
        "command": " ".join(["fiberline", *(shlex.quote(a) for a in argv)]),
        "seed": int(seed),
        "n": int(n),
        "timestamp": _timestamp(),
        "version": __version__,
    }
    if extra:
        m.update(extra)
    return m


def _shard_sizes(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def _run_shards(seed: int, threads: int, n: int, fn) -> list:
    """fn(stream, count) for each shard; results in stream-id order."""
    if threads < 1:
        raise ValueError("--threads must be at least 1")
    k = max(1, min(int(threads), int(n))) if n > 0 else 1
    sizes = _shard_sizes(n, k)
    streams = [split(make_rng(seed), i + 1) for i in range(k)]
    if k == 1:
        return [fn(streams[0], sizes[0])]
    with ThreadPoolExecutor(max_workers=k) as ex:
        return list(ex.map(fn, streams, sizes))


def _concat_lines(parts: list[DirectedLine]) -> DirectedLine:
    if len(parts) == 1:
        return parts[0]
    return DirectedLine(
        np.concatenate([p.u for p in parts]),
        np.concatenate([p.foot for p in parts]),
    )


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _print_report(report: dict, out: str | None) -> None:
    _write(json.dumps(report, indent=2) + "\n", out)


def _est_dict(est: Estimate) -> dict:
    return asdict(est)


def _within_3se(est: Estimate, oracle: float) -> bool:
    return abs(est.mean - oracle) <= 3.0 * est.stderr


def _z_test(est: Estimate, oracle: float) -> dict:
    """Two-sided z-score of an estimate against its exact value.

    A zero-stderr mismatch has no finite score; report null to keep the
    output strict JSON.
    """
    if est.stderr > 0.0:
        z = (est.mean - oracle) / est.stderr
        p = math.erfc(abs(z) / math.sqrt(2.0))
    elif est.mean == oracle:
        z, p = 0.0, 1.0
    else:
        z, p = None, 0.0
    return {"statistic": z, "p_value": p, "n": est.n}


def _report(argv: list[str], seed: int, n: int, experiment: str, *,
            parameters: dict | None = None, estimates: dict | None = None,
            tests: dict | None = None, oracle_values: dict | None = None,
            passed: bool, extra: dict | None = None) -> dict:
    rep = {
        "experiment": experiment,
        "parameters": parameters or {},
        "seed": int(seed),
        "n": int(n),
        "estimates": estimates or {},
        "tests": tests or {},
        "oracle_values": oracle_values or {},
        "pass": passed,
        "manifest": _manifest(argv, seed, n),
    }
    if extra:
        rep.update(extra)
    return rep


def _require_samples(args) -> None:
    """Experiments estimate from their samples, so --n 0 is a usage error."""
    if args.n < 1:
        raise ValueError("n must be positive")


def _axis_of(args) -> list[float]:
    parts = args.axis.split(",")
    if len(parts) != 3:
        raise ValueError("--axis needs three comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"--axis is not numeric: {args.axis!r}") from None


def _make_density(args):
    axis = _axis_of(args)
    r = args.radius
    if args.density == "uniform":
        return uniform_density(r)
    if args.density == "tilt":
        return tilt_density(args.kappa, axis, r)
    if args.density == "radial":
        return radial_density(args.sigma, r)
    if args.density == "tilt-radial":
        return tilt_radial_density(args.kappa, args.sigma, axis, r)
    return foot_tilt_density(args.beta, axis, r)


def _density_params(args) -> dict:
    out = {"density": args.density, "axis": _axis_of(args),
           "disk_radius": args.radius}
    if args.density in ("tilt", "tilt-radial"):
        out["kappa"] = args.kappa
    if args.density in ("radial", "tilt-radial"):
        out["sigma"] = args.sigma
    if args.density == "foot-tilt":
        out["beta"] = args.beta
    return out


def _emit_lines(lines: DirectedLine, manifest: dict, args) -> None:
    if args.format == "csv":
        comment = "manifest: " + json.dumps(manifest, separators=(",", ":"))
        _write(lines_to_csv(lines, comments=[comment]), args.out)
    else:
        _write(lines_to_json(lines, manifest), args.out)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_sample(args, argv: list[str]) -> int:
    seed = _seed_of(args)
    radius = args.radius
    if args.source == "isotropic":
        parts = _run_shards(seed, args.threads, args.n,
                            lambda st, m: sample_isotropic(st, radius, m))
        extra = None
    elif args.source == "cosine":
        parts = _run_shards(seed, args.threads, args.n,
                            lambda st, m: sample_cosine_surface(st, radius, m))
        extra = None
    else:
        density = _make_density(args)

        def draw(st, m):
            pts, stats = sample_bundle(st, density, m, return_stats=True)
            return project_to_line(pts), stats

        both = _run_shards(seed, args.threads, args.n, draw)
        parts = [lines for lines, _ in both]
        acc = sum(s.accepted for _, s in both)
        prop = sum(s.proposals for _, s in both)
        extra = {
            "parameters": _density_params(args),
            "acceptance_rate": acc / prop if prop else 0.0,
        }
    lines = _concat_lines(parts)
    _emit_lines(lines, _manifest(argv, seed, args.n, extra), args)
    return 0


def _cmd_bertrand(args, argv: list[str]) -> int:
    seed = _seed_of(args)
    ind = np.concatenate(
        _run_shards(seed, args.threads, args.n,
                    lambda st, m: bertrand_indicators(st, args.method, m))
    )
    est = estimate_from_samples(ind)
    oracle = bertrand_oracle(args.method)
    passed = _within_3se(est, oracle)
    report = _report(
        argv, seed, args.n, "bertrand",
        parameters={"method": args.method},
        estimates={"probability": _est_dict(est)},
        tests={"probability_z": _z_test(est, oracle)},
        oracle_values={"probability": oracle},
        passed=passed,
    )
    _print_report(report, args.out)
    return 0 if passed else 1


def _cmd_chord(args, argv: list[str]) -> int:
    _require_samples(args)
    seed = _seed_of(args)
    body = parse_body(args.body)
    ch = np.concatenate(
        _run_shards(seed, args.threads, args.n,
                    lambda st, m: isotropic_chords(st, body, m, args.radius))
    )
    hit = ch > 0.0
    rate = estimate_from_samples(hit.astype(np.float64))
    estimates = {"hit_rate": _est_dict(rate)}
    oracles = {"hit_rate": hit_rate_oracle(body, args.radius)}
    tests = {"hit_rate_z": _z_test(rate, oracles["hit_rate"])}
    passed = _within_3se(rate, oracles["hit_rate"])
    if np.any(hit):
        mean_ch = estimate_from_samples(ch[hit])
        estimates["mean_chord_given_hit"] = _est_dict(mean_ch)
        oracles["mean_chord_given_hit"] = mean_chord_oracle(body)
        tests["mean_chord_z"] = _z_test(mean_ch, oracles["mean_chord_given_hit"])
        passed = passed and _within_3se(mean_ch, oracles["mean_chord_given_hit"])
    else:
        passed = False
    report = _report(
        argv, seed, args.n, "chord",
        parameters={"body": args.body, "radius": args.radius},
        estimates=estimates,
        tests=tests,
        oracle_values=oracles,
        passed=passed,
    )
    _print_report(report, args.out)
    return 0 if passed else 1


def _cmd_haar_test(args, argv: list[str]) -> int:
    _require_samples(args)
    seed = _seed_of(args)
    q = np.concatenate(
        _run_shards(seed, args.threads, args.n,
                    lambda st, m: sample_sphere3(st, m))
    )
    R = quat_to_rotation(q)
    angles = rotation_angle(R)
    uz = R[:, :, 2]  # pushforward of e_z
    tests = {
        "rotation_angle_ks": ks_test(angles, rotation_angle_cdf),
        "quaternion_w_ks": ks_test(q[:, 0], s3_w_cdf),
        "axis_isotropy_chi2": chi2_isotropy(uz, bins=args.bands),
    }
    passed = all(t.p_value > 0.001 for t in tests.values())
    angle_counts, angle_edges = np.histogram(angles, bins=40, range=(0.0, np.pi))
    z_counts, z_edges = np.histogram(np.clip(uz[:, 2], -1, 1),
                                     bins=args.bands, range=(-1.0, 1.0))
    report = _report(
        argv, seed, args.n, "haar-test",
        parameters={"bands": args.bands},
        tests={k: asdict(v) for k, v in tests.items()},
        passed=passed,
        extra={
            "histograms": {
                "rotation_angle": {
                    "edges": [float(e) for e in angle_edges],
                    "counts": [int(c) for c in angle_counts],
                },
                "axis_z": {
                    "edges": [float(e) for e in z_edges],
                    "counts": [int(c) for c in z_counts],
                },
            },
        },
    )
    _print_report(report, args.out)
    return 0 if passed else 1


def _estimator_of(args):
    axis = _unit_axis(_axis_of(args))
    if args.estimator == "foot-axis":
        return lambda lines: lines.foot @ axis
    if args.estimator == "chord-ball":
        ball = Ball((0.0, 0.0, 0.0), 1.0)
        return lambda lines: body_chord(ball, lines)
    return lambda lines: (lines.u @ axis) ** 2


def _cmd_gauge_audit(args, argv: list[str]) -> int:
    seed = _seed_of(args)
    density = _make_density(args)
    est_fn = _estimator_of(args)
    correct = gauge_audit(make_rng(seed), density, est_fn, args.n)
    broken = correct.broken
    passed = (
        correct.max_direction_dev <= 1e-10
        and correct.max_foot_dev <= 1e-10
        and correct.gap <= 1e-10
        and broken.gap_sigma > 3.0
    )
    report = _report(
        argv, seed, args.n, "gauge-audit",
        parameters={**_density_params(args), "estimator": args.estimator},
        estimates={
            "base": _est_dict(correct.base),
            "acted": _est_dict(correct.acted),
            "broken_acted": _est_dict(broken.acted),
        },
        passed=passed,
        extra={
            "deviations": {
                "max_direction": correct.max_direction_dev,
                "max_foot": correct.max_foot_dev,
                "estimate_gap": correct.gap,
                "broken_max_foot": broken.max_foot_dev,
                "broken_gap_sigma": broken.gap_sigma,
            },
        },
    )
    _print_report(report, args.out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser, n_default: int,
                threads: bool = True) -> None:
    p.add_argument("--n", type=int, default=n_default, help="sample count")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: $FIBERLINE_SEED or 0)")
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="shard across this many split streams")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _add_density_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--density", choices=_DENSITIES, default="uniform")
    p.add_argument("--kappa", type=float, default=1.0,
                   help="direction tilt strength")
    p.add_argument("--sigma", type=float, default=0.5,
                   help="radial falloff scale")
    p.add_argument("--beta", type=float, default=4.0,
                   help="foot tilt strength (foot-tilt density)")
    p.add_argument("--axis", default="0,0,1", help="reference axis x,y,z")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fiberline",
        description="Reproducible random lines in 3D: samplers, "
                    "integral-geometry experiments, gauge audits.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sample", help="emit random lines")
    _add_common(p, 10)
    p.add_argument("--radius", type=float, default=1.0,
                   help="sampling sphere / foot disk radius")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--source", choices=("isotropic", "cosine", "bundle"),
                   default="isotropic")
    _add_density_flags(p)

    p = sub.add_parser("bertrand", help="chord-paradox experiment")
    _add_common(p, 1_000_000)
    p.add_argument("--method", required=True,
                   choices=("endpoints", "radial", "midpoint", "line-measure"))

    p = sub.add_parser("chord", help="hit rate and mean chord of a body")
    _add_common(p, 1_000_000)
    p.add_argument("--body", required=True,
                   help="ball:cx,cy,cz,r | box:lo3,hi3 | halfspaces:@FILE")
    p.add_argument("--radius", type=float, required=True,
                   help="sampling sphere radius (must enclose the body)")

    p = sub.add_parser("haar-test", help="rotation-measure diagnostics")
    _add_common(p, 100_000)
    p.add_argument("--bands", type=int, default=20,
                   help="equal-area z bands for the isotropy test")

    p = sub.add_parser("bundle", help="emit lines from a frame-space density")
    _add_common(p, 10)
    p.add_argument("--radius", type=float, default=1.0,
                   help="foot disk radius")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(source="bundle")
    _add_density_flags(p)

    p = sub.add_parser("gauge-audit",
                       help="check estimates survive random gauge moves")
    _add_common(p, 100_000, threads=False)
    p.add_argument("--radius", type=float, default=1.0,
                   help="foot disk radius")
    p.add_argument("--estimator", choices=_ESTIMATORS, default="foot-axis")
    _add_density_flags(p)

    return ap


_DISPATCH = {
    "sample": _cmd_sample,
    "bertrand": _cmd_bertrand,
    "chord": _cmd_chord,
    "haar-test": _cmd_haar_test,
    "bundle": _cmd_sample,
    "gauge-audit": _cmd_gauge_audit,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args, argv)
    except InsufficientRadius as exc:
        print(f"InsufficientRadius: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FiberlineError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
