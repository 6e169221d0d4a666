"""The streamed line writer: the bytes of the lines joined into one batch,
in memory that does not grow with the number of lines.

``sample`` and ``bundle`` hand the shards' lines to ``write_lines``, which
formats and writes one group of ``_blocks._BLOCK // 32`` rows, at least one,
of one shard at a time.
Shard edges and group edges fall anywhere in the output, so each combination
is compared with ``write_lines`` and ``json.dumps`` of the lines joined into
one batch.
"""
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

import fiberline._blocks
import fiberline._g17
from fiberline.bundle import sample_isotropic
from fiberline.cli import _run_shards, main
from fiberline.linespace import (
    DirectedLine,
    lines_to_records,
    write_lines,
)
from fiberline.randkit import make_rng

DEFAULT_BLOCK = fiberline._blocks._BLOCK
SEED = 7


def _joined_lines(n, threads, radius=1.0):
    """The lines of `sample --n n --threads threads --seed SEED --radius
    radius`, as one batch."""
    parts = _run_shards(SEED, threads, n,
                        lambda st, m: sample_isotropic(st, radius, m))
    return DirectedLine(np.concatenate([p.u for p in parts]),
                        np.concatenate([p.foot for p in parts]))


# line counts as functions of the block size: none, one, fewer than one block
# of 37 or of the default size, and four blocks and a row, so that two shards
# hold two blocks each and three shards one each; groups of block // 32 rows
# (1, 1 and 512) put more edges inside each block
SIZES = {"n0": lambda b: 0, "n1": lambda b: 1, "n7": lambda b: 7,
         "4-blocks-and-a-row": lambda b: 4 * b + 1}


@pytest.mark.parametrize("block", [1, 37, DEFAULT_BLOCK])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("size", SIZES)
def test_streamed_output_matches_joined_lines(size, threads, block, tmp_path,
                                              monkeypatch):
    n = SIZES[size](block)
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    monkeypatch.chdir(tmp_path)
    lines = _joined_lines(n, threads)
    base = ["sample", "--n", str(n), "--seed", str(SEED),
            "--threads", str(threads), "--out", "out"]

    assert main([*base, "--format", "csv"]) == 0
    text = (tmp_path / "out").read_text(encoding="utf-8")
    comment = text[2:text.index("\n")]
    assert comment.startswith("manifest: ")
    joined = io.StringIO()
    write_lines(joined, [lines], json.loads(comment[len("manifest: "):]), "csv")
    assert text == joined.getvalue()

    assert main([*base, "--format", "json"]) == 0
    text = (tmp_path / "out").read_text(encoding="utf-8")
    doc = {"manifest": json.loads(text)["manifest"],
           "lines": lines_to_records(lines)}
    assert text == json.dumps(doc, indent=2) + "\n"
    # one ",\n" between every two records, wherever the edges fall
    assert text.count("\n    },\n    {\n") == max(n - 1, 0)


CSV_ROW = ",".join(["%.17g"] * 6) + "\n"
JSON_RECORD = ("    {\n" + ",\n".join(f'      "{k}": %r' for k in
                                     ("ux", "uy", "uz", "qx", "qy", "qz"))
               + "\n    }")


def _table(lines):
    return np.concatenate([lines.u, lines.foot], axis=1)


def _template_csv(lines, manifest):
    """The CSV text of ``lines`` with every value formatted by CPython's %."""
    table = _table(lines)
    return ("# manifest: " + json.dumps(manifest, separators=(",", ":"))
            + "\nux,uy,uz,qx,qy,qz\n"
            + (CSV_ROW * len(table)) % tuple(table.ravel().tolist()))


def _template_json(lines, manifest):
    """The JSON text of ``lines`` with every record filled into a %r
    template."""
    table = _table(lines)
    head = json.dumps({"manifest": manifest, "lines": []}, indent=2)
    if not len(table):
        return head + "\n"
    return (head[:-len("]\n}")] + "\n"
            + ",\n".join([JSON_RECORD] * len(table))
            % tuple(table.ravel().tolist()) + "\n  ]\n}\n")


def _out_of_range(table, hi):
    """How many values of ``table`` are outside the kernels' range."""
    ax = np.abs(table)
    return np.count_nonzero(~((ax > 1e-11) & (ax < hi)) & (ax != 0.0))


def _counted_declines(monkeypatch, force=False):
    """Route the kernels' range test through a counter of the values it is
    given and of those it declines, which CPython formats; with ``force``
    it declines every value."""
    declined = fiberline._g17._declined
    seen = {"values": 0, "declined": 0}

    def counted(ax, hi):
        out = np.arange(len(ax)) if force else declined(ax, hi)
        seen["values"] += len(ax)
        seen["declined"] += len(out)
        return out

    monkeypatch.setattr(fiberline._g17, "_declined", counted)
    return seen


def _check_template_text(fmt, path, size, shards, block, monkeypatch):
    # the kernel formats every value; is made to decline every value, so
    # that CPython formats each one; or meets one far line in the middle
    # group, whose out-of-range values CPython formats between the kernel's
    n = SIZES[size](block)
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    lines = sample_isotropic(make_rng(SEED), 1.0, n)
    if path == "mixed" and n:
        foot = lines.foot.copy()
        foot[n // 2] *= 1e20
        lines = DirectedLine(lines.u, foot)
    seen = _counted_declines(monkeypatch, force=path == "declined")
    parts = [DirectedLine(lines.u[s], lines.foot[s])
             for s in np.array_split(np.arange(n), shards)]
    manifest = {"n": n, "shards": shards}
    out = io.StringIO()
    write_lines(out, parts, manifest, fmt)
    template = {"csv": _template_csv, "json": _template_json}[fmt]
    assert out.getvalue() == template(lines, manifest)
    far = _out_of_range(_table(lines), {"csv": 1e17, "json": 1e16}[fmt])
    assert seen["values"] == 6 * n
    assert seen["declined"] == {"kernel": 0, "declined": 6 * n,
                                "mixed": far}[path]
    assert (far > 0) == (path == "mixed" and n > 0)


@pytest.mark.parametrize("block", [1, 37, DEFAULT_BLOCK])
@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("path", ["kernel", "declined", "mixed"])
def test_csv_is_the_template_text(path, size, shards, block, monkeypatch):
    _check_template_text("csv", path, size, shards, block, monkeypatch)


@pytest.mark.parametrize("block", [1, 37, DEFAULT_BLOCK])
@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("path", ["kernel", "declined", "mixed"])
def test_json_is_the_template_text(path, size, shards, block, monkeypatch):
    _check_template_text("json", path, size, shards, block, monkeypatch)


@pytest.mark.parametrize("radius,declined", [("1", False), ("50", False),
                                             ("3e16", False), ("1e20", True),
                                             ("1e-8", True), ("1e-12", True)])
def test_template_runs_only_for_out_of_range_groups(radius, declined,
                                                   tmp_path, monkeypatch):
    # feet beyond 1e17 or below 1e-11 are outside the kernel's range, and
    # CPython's % formats exactly those values: at radius 1e-8, 580 of these
    # 300 000 foot coordinates are below 1e-11, and at 1e20, 299 420 are
    # above 1e17
    seen = _counted_declines(monkeypatch)
    monkeypatch.chdir(tmp_path)
    n = 100000
    assert main(["sample", "--n", str(n), "--seed", str(SEED),
                 "--radius", radius, "--out", "out"]) == 0
    lines = _joined_lines(n, 1, float(radius))
    text = (tmp_path / "out").read_text(encoding="utf-8")
    manifest = json.loads(text[len("# manifest: "):text.index("\n")])
    assert text == _template_csv(lines, manifest)
    far = _out_of_range(_table(lines), 1e17)
    assert seen["values"] == 6 * n
    assert seen["declined"] == far
    assert (far > 0) == declined


def test_empty_parts_add_no_separator():
    lines = sample_isotropic(make_rng(SEED), 1.0, 5)
    empty = DirectedLine(np.zeros((0, 3)), np.zeros((0, 3)))
    parts = [empty, DirectedLine(lines.u[:2], lines.foot[:2]), empty, empty,
             DirectedLine(lines.u[2:], lines.foot[2:]), empty]
    manifest = {"n": 5}
    for fmt in ("csv", "json"):
        split, whole = io.StringIO(), io.StringIO()
        write_lines(split, parts, manifest, fmt)
        write_lines(whole, [lines], manifest, fmt)
        assert split.getvalue() == whole.getvalue()


def test_unknown_format_writes_nothing():
    sink = io.StringIO()
    with pytest.raises(ValueError):
        write_lines(sink, [], {}, "xml")
    assert sink.getvalue() == ""


def _traced_peak(lines, fmt):
    """Peak traced memory of writing ``lines``; everything the writer is
    given exists before tracing starts."""
    parts, manifest = [lines], {"n": len(lines)}
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            write_lines(sink, parts, manifest, fmt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_does_not_grow_with_n(fmt, monkeypatch):
    block = 4096  # the peaks scale with the group size; their ratio does not
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    big = sample_isotropic(make_rng(SEED), 1.0, 8 * block)
    small = DirectedLine(big.u[:2 * block], big.foot[:2 * block])
    peak_big, peak_small = _traced_peak(big, fmt), _traced_peak(small, fmt)
    # a writer that builds a whole-n value tuple or text needs about four
    # times the memory for four times the lines
    assert peak_big <= 1.5 * peak_small
    # a whole-n (n, 6) float table is small next to the text of one group of
    # rows, so the ratio misses it; it grows by 48 bytes per extra row, so
    # bound the growth
    assert peak_big - peak_small < 6 * block * 6 * 8 / 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_peak_is_that_of_one_group(fmt):
    # writing three blocks, 96 groups of rows, peaks as high as writing the
    # first 2048 rows (four groups): 1.00-1.03x.  The digit kernel's
    # temporaries are several times a group's text, so a writer that holds
    # the last group's text while it formats the next is not seen here: the
    # bound is on the growth of the kernel's own peak
    lines = sample_isotropic(make_rng(SEED), 1.0, 3 * DEFAULT_BLOCK)
    group = DEFAULT_BLOCK // 8
    one = DirectedLine(lines.u[:group], lines.foot[:group])
    assert _traced_peak(lines, fmt) <= 1.1 * _traced_peak(one, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_is_below_the_lines_it_writes(fmt):
    # a formatted row costs about ten times its 48 bytes of doubles, so a
    # writer that formats a whole 16384-row block at a time peaks at 3.4x
    # (csv, % template) or 4.6x (json) the lines; groups of a 32nd of a
    # block through the digit kernel peak at about 0.23x (csv) and 0.33x
    # (json) (1.03x for CSV groups of an eighth through the kernel)
    lines = sample_isotropic(make_rng(SEED), 1.0, 3 * DEFAULT_BLOCK)
    assert _traced_peak(lines, fmt) <= 0.75 * (lines.u.nbytes
                                               + lines.foot.nbytes)
