"""The row dot product's contract, no BLAS call outside bundle._spin, no
reduction along rows anywhere in the package, no worker mechanism but the
shard runner's forked processes, and no stream position set outside
randkit."""
import ast
import pathlib

import numpy as np
import pytest

import fiberline
from fiberline._blocks import dot

SRC = pathlib.Path(fiberline.__file__).resolve().parent
# numpy names that reach BLAS or LAPACK, as attributes or imported names
_BLAS_NAMES = {"linalg", "dot", "matmul", "inner", "einsum"}
# reductions that must run down columns, (constraints, lines), not along rows
_REDUCTIONS = {"max", "min", "amax", "amin", "any", "all", "sum"}
# modules that start threads or worker pools
_WORKER_MODULES = {"threading", "concurrent", "multiprocessing", "_thread"}
# an RngStream's position: its word counter and its pending polar spare
_STREAM_STATE = {"_counter", "_spare"}


def _rows(rng, k, n=100_000):
    # signed magnitudes from 1e-8 to 1e8
    return rng.choice([-1.0, 1.0], (n, k)) * 10.0 ** rng.uniform(-8, 8, (n, k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dot_is_numpys_row_sum(k):
    rng = np.random.default_rng(k)
    a, b = _rows(rng, k), _rows(rng, k)
    want = np.sum(a * b, axis=-1)
    assert np.array_equal(dot(a, b).view(np.int64), want.view(np.int64))


def test_dot_broadcast_is_the_face_sum():
    # (k, 1, 3) normals against (m, 3) rows: the (k, m) face products,
    # summed per component in the same order as the written-out sum
    rng = np.random.default_rng(5)
    nrm, v = _rows(rng, 3, 7), _rows(rng, 3)
    n0, n1, n2 = nrm[:, :1], nrm[:, 1:2], nrm[:, 2:]
    want = n0 * v[:, 0] + n1 * v[:, 1] + n2 * v[:, 2]
    got = dot(nrm[:, None], v)
    assert got.shape == (7, len(v))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _nodes(source: str, allowed: str | None) -> list[ast.AST]:
    """The syntax nodes of ``source`` outside the function named ``allowed``."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            skip.update(id(n) for n in ast.walk(node))
    return [node for node in ast.walk(tree) if id(node) not in skip]


def _blas_calls(source: str, allowed: str | None = None) -> list[int]:
    """Line numbers of matrix products and numpy BLAS/LAPACK names in
    ``source``, outside the function named ``allowed``."""
    found = []
    for node in _nodes(source, allowed):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("numpy") and \
                ("linalg" in node.module or
                 any(a.name in _BLAS_NAMES for a in node.names)):
            found.append(node.lineno)
    return found


def test_blas_guard_sees_every_form():
    for line in ("c = a @ b", "a @= b", "c = np.linalg.det(a)",
                 "c = np.dot(a, b)", "c = a.dot(b)", "c = np.einsum('i,i', a, b)",
                 "from numpy.linalg import norm", "from numpy import inner"):
        assert _blas_calls(line) == [1], line
    assert _blas_calls("def _spin(g, rz):\n    return g @ rz\n", "_spin") == []


def test_only_spin_calls_blas():
    # a per-row stage with a BLAS call rounds by the BLAS build; bundle._spin's
    # frame product is the one left
    found = {}
    for path in sorted(SRC.glob("*.py")):
        allowed = "_spin" if path.name == "bundle.py" else None
        lines = _blas_calls(path.read_text(), allowed)
        if lines:
            found[path.name] = lines
    assert found == {}


def _row_reductions(source: str) -> list[int]:
    """Line numbers of max/min/amax/amin/any/all/sum calls with axis=1 or
    axis=-1 in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _REDUCTIONS:
            for kw in node.keywords:
                if kw.arg == "axis" and _literal(kw.value) in (1, -1):
                    found.append(node.lineno)
    return found


def _literal(node: ast.AST):
    """The value of a literal expression such as ``-1``, else None."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_row_reduction_guard_sees_every_form():
    for name in sorted(_REDUCTIONS):
        for axis in ("1", "-1"):
            line = f"c = np.{name}(a, axis={axis})"
            assert _row_reductions(line) == [1], line
        assert _row_reductions(f"c = np.{name}(a, axis=0)") == []
    assert _row_reductions("c = np.max(a, axis=k)") == []
    assert _row_reductions("c = a.max(axis=-1)") == [1]


def test_reductions_run_down_columns():
    # _clip's kernel reads (constraints, lines) arrays, whose reductions run
    # over axis 0
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _row_reductions(path.read_text())
        if lines:
            found[path.name] = lines
    assert found == {}


def _worker_imports(source: str) -> list[int]:
    """Line numbers of imports of thread or pool modules in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in _WORKER_MODULES for name in names):
            found.append(node.lineno)
    return found


def test_worker_import_guard_sees_every_form():
    for line in ("import threading", "import concurrent.futures",
                 "from concurrent.futures import ThreadPoolExecutor",
                 "import multiprocessing as mp", "from multiprocessing import Pool",
                 "import os, threading"):
        assert _worker_imports(line) == [1], line
    for line in ("import os", "from . import threading_notes",
                 "from .concurrent import x", "import numpy"):
        assert _worker_imports(line) == [], line


def test_no_threads_or_pools():
    # cli._run_shards forks its workers, which is safe only while no thread
    # runs; it stays the one worker mechanism
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _worker_imports(path.read_text())
        if lines:
            found[path.name] = lines
    assert found == {}


def _stream_state_writes(source: str) -> list[int]:
    """Line numbers in ``source`` that assign a ``_counter`` or ``_spare``
    attribute, directly or through ``setattr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and node.attr in _STREAM_STATE:
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "setattr" and len(node.args) > 1 \
                and _literal(node.args[1]) in _STREAM_STATE:
            found.append(node.lineno)
    return sorted(set(found))


def test_stream_state_guard_sees_every_form():
    for line in ("rng._counter = 0", "rng._spare += 1.0",
                 "a._counter, a._spare = c, s", "rng._spare: float = x",
                 "setattr(rng, '_counter', 5)", "for rng._counter in r: pass"):
        assert _stream_state_writes(line) == [1], line
    for line in ("c = rng._counter", "f(rng._spare)", "rng.counter = 1",
                 "setattr(rng, name, 5)", "_counter = 3"):
        assert _stream_state_writes(line) == [], line


def test_only_randkit_moves_a_stream():
    # the polar method's spare rule and the word counter live in randkit
    # alone; other modules read a stream's position or copy the stream
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "randkit.py":
            continue
        lines = _stream_state_writes(path.read_text())
        if lines:
            found[path.name] = lines
    assert found == {}
