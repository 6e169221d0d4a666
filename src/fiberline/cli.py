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
random streams (ids 1..k), taken in stream order, so output depends on the
flag value but not on scheduling; at most ``os.cpu_count()`` worker processes
run the shards, this one and forked children, and k is at most 1024.
``sample`` and ``bundle`` write the shards' lines in stream order, block by
block, without joining them first.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shlex
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from ._blocks import blocks, dot
from .bundle import (
    LineDensity,
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
from .errors import FiberlineError, InsufficientRadius, TooFewSamples
from .geometry import Ball, _floats, parse_body
from .haar import quat_to_rotation, rotation_angle, rotation_angle_cdf, \
    s3_w_cdf, sample_sphere3
from .linespace import _unit_and_length, write_lines
from .randkit import make_rng, split
from .stats import (
    BERTRAND_METHODS,
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

_ESTIMATORS = ("foot-axis", "chord-ball", "direction-axis2")
_MAX_THREADS = 1024  # each shard costs a fixed ~1 ms, so more only add time


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


def _run_shards(seed: int, threads: int, n: int, fn) -> list:
    """fn(stream, count) for each shard; results in stream-id order.

    More than one shard runs on W = min(k, os.cpu_count()) workers: this
    process and W - 1 forked children.  Shard i runs on worker i mod W, and
    each worker takes its shards in stream order.  The error raised is that
    of the lowest-numbered failing shard; a child that ends without sending
    its outcome fails at its first shard with a FiberlineError.  Every child
    is reaped before this returns or raises.  Without ``os.fork`` the shards
    run here, in order.
    """
    if not 1 <= threads <= _MAX_THREADS:
        raise ValueError(f"--threads must be between 1 and {_MAX_THREADS}")
    k = max(1, min(int(threads), int(n))) if n > 0 else 1
    base, extra = divmod(n, k)
    jobs = [(split(make_rng(seed), i + 1), base + (1 if i < extra else 0))
            for i in range(k)]
    width = min(k, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if width == 1:
        return [fn(st, m) for st, m in jobs]
    pids, pipes = [], []
    try:
        for w in range(1, width):
            pid, pipe = _fork_worker(fn, jobs[w::width])
            pids.append(pid)
            pipes.append(pipe)
        outcomes = [_attempt(fn, jobs[::width])]
        outcomes += [_receive(pipe) for pipe in pipes]
    finally:
        for pipe in pipes:  # a child still writing gets EPIPE and exits
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    results, failed = [None] * k, []
    for w, (done, exc) in enumerate(outcomes):
        results[w:w + width * len(done):width] = done
        if exc is not None:
            failed.append((w + width * len(done), exc))
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results


def _attempt(fn, jobs) -> tuple[list, Exception | None]:
    """fn's results for ``jobs`` in order, up to the first error, and it."""
    done = []
    try:
        for st, m in jobs:
            done.append(fn(st, m))
    except Exception as exc:  # handed to _run_shards, which raises it
        return done, exc
    return done, None


def _fork_worker(fn, jobs):
    """Fork a child that pickles ``_attempt(fn, jobs)`` into a pipe; its pid
    and the pipe's reading end, as a binary file.

    Fork, not spawn: a child shares the parent's imports and pages, where a
    spawned one would first spend about 0.15 s starting Python and numpy.
    The package starts no thread (a test pins its imports), and shards make
    no BLAS call, so the child inherits no lock held by another thread.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as fh:
                pickle.dump(_attempt(fn, jobs), fh, pickle.HIGHEST_PROTOCOL)
        finally:
            # skip the parent's cleanup and buffered output: leave at once
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _receive(pipe) -> tuple[list, Exception | None]:
    """A worker's outcome; one that sent none failed at its first shard."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return [], FiberlineError("a shard worker ended without a result")


def _joined(parts: list) -> np.ndarray:
    """The shards' arrays end to end; a single shard's array as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@contextmanager
def _output(out: str | None):
    """The text file a command writes to: ``--out``, or standard output.

    A reader that closes standard output early (``| head``) ends the output
    quietly: the rest is dropped, and standard output is pointed at the null
    device so that the interpreter's flush at exit cannot fail either.
    """
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _z_test(est: Estimate, oracle: float) -> tuple[dict, bool]:
    """Two-sided z-score of an estimate against its exact value, and the
    3-sigma verdict |mean - oracle| <= 3 stderr.

    A zero-stderr mismatch has no finite score; report null to keep the
    output strict JSON.  Fewer than two samples have no stderr at all.
    """
    if est.n < 2:
        raise TooFewSamples(f"a z-test needs at least 2 samples, got {est.n}")
    if est.stderr > 0.0:
        z = (est.mean - oracle) / est.stderr
        p = math.erfc(abs(z) / math.sqrt(2.0))
    elif est.mean == oracle:
        z, p = 0.0, 1.0
    else:
        z, p = None, 0.0
    passed = abs(est.mean - oracle) <= 3.0 * est.stderr
    return {"statistic": z, "p_value": p, "n": est.n}, passed


def _report(args, argv: list[str], experiment: str, parameters: dict,
            passed: bool, **fields) -> dict:
    """An experiment's report: ``fields`` fill the standard keys
    (estimates, tests, oracle_values) and append their own after them."""
    rep = {
        "experiment": experiment,
        "parameters": parameters,
        "seed": int(args.seed),
        "n": int(args.n),
        "estimates": {},
        "tests": {},
        "oracle_values": {},
        "pass": passed,
        "manifest": _manifest(argv, args.seed, args.n),
    }
    rep.update(fields)
    return rep


# --density name -> (factory, the flags it takes before the disk radius),
# in the order the flags appear in the report's "parameters"; a density
# refuses the strength flags it does not list
_DENSITIES = {
    "uniform": (uniform_density, ()),
    "tilt": (tilt_density, ("kappa", "axis")),
    "radial": (radial_density, ("sigma",)),
    "tilt-radial": (tilt_radial_density, ("kappa", "sigma", "axis")),
    "foot-tilt": (foot_tilt_density, ("beta", "axis")),
}
_STRENGTHS = {"kappa": 1.0, "sigma": 0.5, "beta": 4.0}  # flag -> default


def _density_of(args) -> tuple[LineDensity, dict]:
    """The --density flags' line density and its report parameters."""
    factory, flags = _DENSITIES[args.density]
    given = {"axis": _floats(args.axis, 3, "--axis")}
    for f, default in _STRENGTHS.items():
        value = getattr(args, f)
        if f in flags:
            given[f] = default if value is None else value
        elif value is not None:
            raise ValueError(f"--{f} does not apply to --density {args.density}")
    params = {"density": args.density, "axis": given["axis"],
              "disk_radius": args.radius,
              **{f: given[f] for f in flags if f != "axis"}}
    return factory(*(given[f] for f in flags), args.radius), params


# ---------------------------------------------------------------------------
# subcommands: sample and bundle write lines; the experiments return a report

def _cmd_sample(args, argv: list[str]) -> None:
    if args.cmd == "bundle":
        density, params = _density_of(args)
        # each shard stream is new, so its counters hold that shard's draw
        both = _run_shards(args.seed, args.threads, args.n, lambda st, m: (
            project_to_line(sample_bundle(st, density, m)), st))
        parts, streams = zip(*both)
        acc = sum(st.accepted for st in streams)
        prop = sum(st.proposals for st in streams)
        extra = {
            "parameters": params,
            "acceptance_rate": acc / prop if prop else 0.0,
        }
    else:
        source = (sample_isotropic if args.source == "isotropic"
                  else sample_cosine_surface)
        parts = _run_shards(args.seed, args.threads, args.n,
                            lambda st, m: source(st, args.radius, m))
        extra = None
    manifest = _manifest(argv, args.seed, args.n, extra)
    with _output(args.out) as fh:
        write_lines(fh, parts, manifest, args.format)


def _cmd_bertrand(args, argv: list[str]) -> dict:
    ind = _joined(
        _run_shards(args.seed, args.threads, args.n,
                    lambda st, m: bertrand_indicators(st, args.method, m))
    )
    est = estimate_from_samples(ind)
    oracle = bertrand_oracle(args.method)
    test, passed = _z_test(est, oracle)
    return _report(
        args, argv, "bertrand", {"method": args.method}, passed,
        estimates={"probability": asdict(est)},
        tests={"probability_z": test},
        oracle_values={"probability": oracle},
    )


def _cmd_chord(args, argv: list[str]) -> dict:
    body = parse_body(args.body)
    ch = _joined(
        _run_shards(args.seed, args.threads, args.n,
                    lambda st, m: isotropic_chords(st, body, m, args.radius))
    )
    hit = ch > 0.0
    rate = estimate_from_samples(hit)
    estimates = {"hit_rate": asdict(rate)}
    oracles = {"hit_rate": hit_rate_oracle(body, args.radius)}
    tests = {}
    tests["hit_rate_z"], passed = _z_test(rate, oracles["hit_rate"])
    if np.any(hit):
        mean_ch = estimate_from_samples(ch[hit])
        estimates["mean_chord_given_hit"] = asdict(mean_ch)
        oracles["mean_chord_given_hit"] = mean_chord_oracle(body)
        tests["mean_chord_z"], ok = _z_test(
            mean_ch, oracles["mean_chord_given_hit"])
        passed = passed and ok
    else:
        passed = False
    return _report(
        args, argv, "chord", {"body": args.body, "radius": args.radius},
        passed, estimates=estimates, tests=tests, oracle_values=oracles,
    )


def _cmd_haar_test(args, argv: list[str]) -> dict:
    q = _joined(
        _run_shards(args.seed, args.threads, args.n,
                    lambda st, m: sample_sphere3(st, m))
    )
    angles = np.empty(len(q), dtype=np.float64)
    uz = np.empty((len(q), 3), dtype=np.float64)  # pushforward of e_z
    # one block of frames at a time: the tests reduce only these two
    for s in blocks(len(q)):
        R = quat_to_rotation(q[s])
        angles[s], uz[s] = rotation_angle(R), R[:, :, 2]
    tests = {
        "rotation_angle_ks": ks_test(angles, rotation_angle_cdf),
        "quaternion_w_ks": ks_test(q[:, 0], s3_w_cdf),
        "axis_isotropy_chi2": chi2_isotropy(uz, bins=args.bands),
    }
    passed = all(t.p_value > 0.001 for t in tests.values())
    angle_counts, angle_edges = np.histogram(angles, bins=40, range=(0.0, np.pi))
    z_counts, z_edges = np.histogram(np.clip(uz[:, 2], -1, 1),
                                     bins=args.bands, range=(-1.0, 1.0))
    return _report(
        args, argv, "haar-test", {"bands": args.bands}, passed,
        tests={k: asdict(v) for k, v in tests.items()},
        histograms={
            "rotation_angle": {
                "edges": [float(e) for e in angle_edges],
                "counts": [int(c) for c in angle_counts],
            },
            "axis_z": {
                "edges": [float(e) for e in z_edges],
                "counts": [int(c) for c in z_counts],
            },
        },
    )


def _estimator_of(args):
    axis, _ = _unit_and_length(_floats(args.axis, 3, "--axis"), "axis")
    if args.estimator == "foot-axis":
        return lambda lines: dot(lines.foot, axis)
    if args.estimator == "chord-ball":
        ball = Ball((0.0, 0.0, 0.0), 1.0)
        return lambda lines: body_chord(ball, lines)
    return lambda lines: dot(lines.u, axis) ** 2


def _cmd_gauge_audit(args, argv: list[str]) -> dict:
    density, params = _density_of(args)
    est_fn = _estimator_of(args)
    correct = gauge_audit(make_rng(args.seed), density, est_fn, args.n)
    broken = correct.broken
    # feet are as large as the disk radius, so their rounding scales with
    # it, and so does that of foot-axis, a foot coordinate
    scale = max(1.0, args.radius)
    passed = (
        correct.max_direction_dev <= 1e-10
        and correct.max_foot_dev <= 1e-10 * scale
        and correct.gap <= 1e-10 * (scale if args.estimator == "foot-axis"
                                    else 1.0)
        and broken.gap_sigma > 3.0
    )
    return _report(
        args, argv, "gauge-audit", {**params, "estimator": args.estimator},
        passed,
        estimates={
            "base": asdict(correct.base),
            "acted": asdict(correct.acted),
            "broken_acted": asdict(broken.acted),
        },
        deviations={
            "max_direction": correct.max_direction_dev,
            "max_foot": correct.max_foot_dev,
            "estimate_gap": correct.gap,
            "broken_max_foot": broken.max_foot_dev,
            "broken_gap_sigma": broken.gap_sigma,
        },
    )


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser, n_default: int,
                threads: bool = True) -> None:
    p.add_argument("--n", type=int, default=n_default, help="sample count")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: $FIBERLINE_SEED or 0)")
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="shard across this many split streams "
                            f"(1 to {_MAX_THREADS})")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _add_density_flags(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--density", choices=tuple(_DENSITIES), default=default)
    p.add_argument("--kappa", type=float,
                   help="direction tilt strength (tilt densities; default 1)")
    p.add_argument("--sigma", type=float,
                   help="radial falloff scale (radial densities; default 0.5)")
    p.add_argument("--beta", type=float,
                   help="foot tilt strength (foot-tilt density; default 4)")
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
    p.add_argument("--source", choices=("isotropic", "cosine"),
                   default="isotropic")

    p = sub.add_parser("bertrand", help="chord-paradox experiment")
    _add_common(p, 1_000_000)
    p.add_argument("--method", required=True, choices=BERTRAND_METHODS)

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
    _add_density_flags(p, "uniform")

    p = sub.add_parser("gauge-audit",
                       help="check estimates survive random gauge moves")
    _add_common(p, 100_000, threads=False)
    p.add_argument("--radius", type=float, default=1.0,
                   help="foot disk radius")
    p.add_argument("--estimator", choices=_ESTIMATORS, default="foot-axis")
    # foot-axis sees the broken move only where the feet are not uniform
    _add_density_flags(p, "foot-tilt")

    return ap


_EXPERIMENTS = {
    "bertrand": _cmd_bertrand,
    "chord": _cmd_chord,
    "haar-test": _cmd_haar_test,
    "gauge-audit": _cmd_gauge_audit,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        args.seed = _seed_of(args)
        if args.cmd not in _EXPERIMENTS:  # sample, bundle
            _cmd_sample(args, argv)
            return 0
        # experiments estimate from their samples, so --n 0 is a usage error
        if args.n < 1:
            raise ValueError("n must be positive")
        report = _EXPERIMENTS[args.cmd](args, argv)
        with _output(args.out) as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
        return 0 if report["pass"] else 1
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
