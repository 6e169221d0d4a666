"""Layer tracing for the fiberline benchmark, installed from outside the package.

Run as a program, it traces one CLI invocation and writes its spans:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- sample --n 10

Every public function of the layer modules (the functions named in their
``__all__``), the RNG draw methods ``RngStream.uniforms`` and
``RngStream.gaussians``, and the validating constructors of ``DirectedLine``
and ``BundlePoint`` are wrapped by a span recorder.  A span holds its name,
start, end, parent span and thread, plus the counts measured at that
boundary.  Each wrapper replaces the original in every ``fiberline.*``
namespace that bound it, so calls made through ``from ... import`` names are
traced too.  Spans stay in memory and are written once, when
``fiberline.cli.main`` returns.

Imported, the module turns span files into per-layer metrics
(:func:`round_metrics`); that side never imports fiberline.
"""
from __future__ import annotations

import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("randkit", "haar", "bundle", "geometry", "linespace", "stats", "cli")

# stats functions that reduce a sample array to an estimate or a test result
_REDUCERS = ("estimate_from_samples", "effective_sample_size",
             "weighted_estimate", "ks_test", "ks_two_sample", "chi2_isotropy")

# every per-layer metric, with its unit and the direction an optimisation
# should move it; BENCHMARK.json lists the same names
METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "linespace.rows_out": ("count", "higher"),
    "linespace.validations": ("count", "lower"),
    "linespace.validate_s": ("s", "lower"),
    "bundle.validate_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "randkit.words": ("count", "lower"),
    "randkit.gauss_accept": ("ratio", "higher"),
    "haar.draws": ("count", "lower"),
    "bundle.proposals": ("count", "lower"),
    "bundle.accept_ratio": ("ratio", "higher"),
    "geometry.chords": ("count", "lower"),
    "geometry.hit_ratio": ("ratio", "higher"),
    "stats.samples_reduced": ("count", "lower"),
    "cli.shard_imbalance": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# ---------------------------------------------------------------------------
# recording (inside the traced process)

class Recorder:
    """Collects spans from every thread of one process.

    A span is ``[name, start, end, parent, thread, counts]`` where ``parent``
    is the enclosing span.  A worker thread's outermost spans get the main
    thread's innermost open span (``cli.main``) as parent, so a shard's work
    is subtracted from the time ``cli.main`` spends waiting for it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] | None = None

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if self._main_stack is None:
                self._main_stack = stack
        return stack

    def wrap(self, name: str, fn, count=None, before=None):
        """Span-recording stand-in for ``fn``.

        ``before(args)`` runs just before the call; ``count(args, result,
        state)`` gets its value and returns the span's counts.  Neither is
        inside the span's own interval.
        """
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            rec = [name, 0.0, 0.0, parent, threading.get_ident(), None]
            self.spans.append(rec)
            state = before(args) if before else None
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count:
                rec[5] = count(args, result, state)
            return result

        return traced

    def dump(self, path: str) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[name, start, end, None if parent is None else index[id(parent)],
                 thread, counts]
                for name, start, end, parent, thread, counts in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _rows(result) -> int:
    """Items a sampler returned: a batch's leading length, or 1."""
    if isinstance(result, tuple):  # (samples, AcceptanceStats)
        result = result[0]
    if hasattr(result, "is_batch"):
        return len(result)
    shape = getattr(result, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def _lines(dl) -> int:
    return len(dl) if dl.is_batch else 1


def _counters():
    """name -> (count, before) for the boundaries that report counts."""
    import numpy as np

    def draws(args, result, before):
        return {"n": len(result), "words": args[0]._counter - before}

    def chords(args, result, state):
        hits = int(np.count_nonzero(np.asarray(result) > 0.0))
        return {"n": _lines(args[1]), "hits": hits}

    def samples(args, result, state):
        return {"n": int(np.shape(args[0])[0])}

    out = {
        "randkit.RngStream.uniforms": (draws, lambda a: a[0]._counter),
        "randkit.RngStream.gaussians": (draws, lambda a: a[0]._counter),
        "linespace.DirectedLine.__post_init__":
            (lambda a, r, s: {"n": len(a[0])}, None),
        "bundle.BundlePoint.__post_init__":
            (lambda a, r, s: {"n": len(a[0])}, None),
        "geometry.chord": (chords, None),
        "linespace.lines_to_csv": (lambda a, r, s: {"n": _lines(a[0])}, None),
        "linespace.lines_to_records":
            (lambda a, r, s: {"n": _lines(a[0])}, None),
        "stats.ks_two_sample": (lambda a, r, s: {
            "n": int(np.shape(a[0])[0] + np.shape(a[1])[0])}, None),
    }
    for name in _REDUCERS:
        out.setdefault(f"stats.{name}", (samples, None))
    return out


def install(rec: Recorder) -> None:
    """Wrap the layers' public functions in every fiberline namespace."""
    import importlib
    import inspect

    counters = _counters()
    replace = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"fiberline.{layer}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            name = f"{layer}.{attr}"
            count, before = counters.get(name, (None, None))
            if count is None and attr.startswith("sample_"):
                count = lambda a, r, s: {"n": _rows(r)}  # noqa: E731
            replace[fn] = rec.wrap(name, fn, count, before)
    for mod in [m for k, m in sys.modules.items() if k.startswith("fiberline")]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replace:
                setattr(mod, attr, replace[value])

    from fiberline.bundle import BundlePoint
    from fiberline.linespace import DirectedLine
    from fiberline.randkit import RngStream
    for layer, cls, attr in (("randkit", RngStream, "uniforms"),
                             ("randkit", RngStream, "gaussians"),
                             ("linespace", DirectedLine, "__post_init__"),
                             ("bundle", BundlePoint, "__post_init__")):
        name = f"{layer}.{cls.__name__}.{attr}"
        count, before = counters[name]
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), count, before))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- FIBERLINE-ARGS...", file=sys.stderr)
        return 2
    import fiberline.cli  # noqa: F401  (loads every layer module)

    rec = Recorder()
    install(rec)
    try:
        return sys.modules["fiberline.cli"].main(argv[2:])
    finally:
        rec.dump(argv[0])


# ---------------------------------------------------------------------------
# reduction (in the benchmark process)

def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, thread, counts in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        kids = [(max(a, start), min(b, end)) for a, b in children.get(i, ())]
        out.append((end - start) - _union([k for k in kids if k[1] > k[0]]))
    return out


def _shard_imbalance(spans: list[list]) -> float | None:
    """max / mean busy time of the worker threads under cli.main, or None
    when fewer than two worker threads ran."""
    roots = [i for i, s in enumerate(spans) if s[3] is None]
    if len(roots) != 1:
        return None
    root_thread = spans[roots[0]][4]
    busy = defaultdict(list)
    for name, start, end, parent, thread, counts in spans:
        if parent == roots[0] and thread != root_thread:
            busy[thread].append((start, end))
    if len(busy) < 2:
        return None
    times = [_union(iv) for iv in busy.values()]
    return max(times) / (sum(times) / len(times))


def round_metrics(invocations: list[tuple[list[list], int]]) -> dict[str, float]:
    """Per-layer metrics of one round: ``invocations`` holds, per traced CLI
    invocation, its spans and the bytes it wrote."""
    acc: dict[str, float] = defaultdict(float)
    imbalance = []
    for spans, nbytes in invocations:
        acc["cli.bytes_out"] += nbytes
        selfs = _self_times(spans)
        for (name, start, end, parent, thread, counts), own in zip(spans, selfs):
            layer = name.split(".", 1)[0]
            acc[f"{layer}.self_s"] += own
            counts = counts or {}  # None when the call raised
            n = counts.get("n", 0)
            parent_name = spans[parent][0] if parent is not None else ""
            if name.startswith("randkit.RngStream."):
                acc["randkit.words"] += counts.get("words", 0)
                if name.endswith("gaussians"):
                    acc["gauss_out"] += n
                    acc["gauss_words"] += counts.get("words", 0)
            elif name == "linespace.DirectedLine.__post_init__":
                acc["linespace.validations"] += n
                acc["linespace.validate_s"] += end - start
            elif name == "bundle.BundlePoint.__post_init__":
                acc["bundle.validate_s"] += end - start
            elif name in ("linespace.lines_to_csv", "linespace.lines_to_records"):
                acc["linespace.rows_out"] += n
            elif name == "geometry.chord":
                acc["geometry.chords"] += n
                acc["chord_hits"] += counts.get("hits", 0)
            elif name.startswith("stats.") and counts:
                acc["stats.samples_reduced"] += n
            if name.startswith("haar.sample_") and not parent_name.startswith("haar."):
                acc["haar.draws"] += n
            if name == "haar.sample_rotation" and parent_name == "bundle.sample_bundle":
                acc["bundle.proposals"] += n
            if name == "bundle.sample_bundle":
                acc["bundle_accepted"] += n
        value = _shard_imbalance(spans)
        if value is not None:
            imbalance.append(value)

    def ratio(num: str, den: str) -> float:
        return acc[num] / acc[den] if acc[den] else 0.0

    # trace.overhead_s compares two rounds, so the caller sets it
    out = {name: float(acc[name]) for name in METRICS if name != "trace.overhead_s"}
    out["randkit.gauss_accept"] = ratio("gauss_out", "gauss_words")
    out["bundle.accept_ratio"] = ratio("bundle_accepted", "bundle.proposals")
    out["geometry.hit_ratio"] = ratio("chord_hits", "geometry.chords")
    out["cli.shard_imbalance"] = sum(imbalance) / len(imbalance) if imbalance else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
