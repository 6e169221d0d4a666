"""The streamed line writer: the bytes of the lines joined into one batch,
in memory that does not grow with the number of lines.

``sample`` and ``bundle`` hand the shards' lines to ``write_lines``, which
formats and writes one ``_blocks.blocks()`` slice of one shard at a time.
Shard edges and block edges fall anywhere in the output, so each
combination is compared with ``write_lines`` and ``json.dumps`` of the
lines joined into one batch.
"""
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

import fiberline._blocks
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


def _joined_lines(n, threads):
    """The lines of `sample --n n --threads threads --seed SEED`, as one batch."""
    parts = _run_shards(SEED, threads, n,
                        lambda st, m: sample_isotropic(st, 1.0, m))
    return DirectedLine(np.concatenate([p.u for p in parts]),
                        np.concatenate([p.foot for p in parts]))


# line counts as functions of the block size: none, one, fewer than one block
# of 37 or of the default size, and four blocks and a row, so that two shards
# hold two blocks each and three shards one each
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
    block = 4096  # the peaks scale with the block size; their ratio does not
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    big = sample_isotropic(make_rng(SEED), 1.0, 8 * block)
    small = DirectedLine(big.u[:2 * block], big.foot[:2 * block])
    peak_big, peak_small = _traced_peak(big, fmt), _traced_peak(small, fmt)
    # a writer that builds a whole-n value tuple or text needs about four
    # times the memory for four times the lines
    assert peak_big <= 1.5 * peak_small
    # a whole-n (n, 6) float table is small next to one block's text, so the
    # ratio misses it; it grows by 48 bytes per extra row, so bound the growth
    assert peak_big - peak_small < 6 * block * 6 * 8 / 2
