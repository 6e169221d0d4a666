"""The row dot product's contract, no BLAS call outside bundle._spin, no
reduction along rows anywhere in the package, no worker mechanism but the
shard runner's forked processes, no stream position set outside randkit,
no replay internals used outside haar, and no density rejection error
raised outside bundle."""
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
# how haar replays a block draw: other modules call its named block draws
_REPLAY_INTERNALS = {"_replayed", "_first_pass", "_sphere3_first_pass",
                     "_gaussian_candidates", "_cube_candidates"}
# the errors of a density rejection loop: bundle.sample_bundle runs the one
_REJECTION_ERRORS = {"RejectionStall", "BoundViolated", "NonFinite"}


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


def _lines(source: str, rule, allowed: str | None = None) -> list[int]:
    """Line numbers of the nodes of ``source`` that ``rule`` flags, outside
    the function named ``allowed``."""
    return sorted({node.lineno for node in _nodes(source, allowed) if rule(node)})


def _literal(node: ast.AST):
    """The value of a literal expression such as ``-1``, else None."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _blas_call(node: ast.AST) -> bool:
    """A matrix product, or a numpy BLAS/LAPACK name."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Attribute):
        return node.attr in _BLAS_NAMES
    return isinstance(node, ast.ImportFrom) and \
        (node.module or "").startswith("numpy") and \
        ("linalg" in node.module or any(a.name in _BLAS_NAMES for a in node.names))


def _row_reduction(node: ast.AST) -> bool:
    """A max/min/amax/amin/any/all/sum call with axis=1 or axis=-1."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr in _REDUCTIONS \
        and any(kw.arg == "axis" and _literal(kw.value) in (1, -1)
                for kw in node.keywords)


def _worker_import(node: ast.AST) -> bool:
    """An import of a thread or pool module."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] in _WORKER_MODULES for name in names)


def _stream_state_write(node: ast.AST) -> bool:
    """An assignment to a ``_counter`` or ``_spare`` attribute, directly or
    through ``setattr``."""
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
        and node.attr in _STREAM_STATE \
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "setattr" and len(node.args) > 1 \
        and _literal(node.args[1]) in _STREAM_STATE


def _replay_reference(node: ast.AST) -> bool:
    """A replay internal named as a name, an attribute or an imported name."""
    return isinstance(node, ast.Name) and node.id in _REPLAY_INTERNALS \
        or isinstance(node, ast.Attribute) and node.attr in _REPLAY_INTERNALS \
        or isinstance(node, (ast.Import, ast.ImportFrom)) \
        and any(a.name.split(".")[-1] in _REPLAY_INTERNALS for a in node.names)


def _rejection_raise(node: ast.AST) -> bool:
    """A raise or construction of a density rejection error, by name or as
    an attribute."""
    def named(node):
        return isinstance(node, ast.Name) and node.id in _REJECTION_ERRORS \
            or isinstance(node, ast.Attribute) and node.attr in _REJECTION_ERRORS

    return isinstance(node, ast.Raise) and named(node.exc) \
        or isinstance(node, ast.Call) and named(node.func)


# each structure rule and where it does not apply: nowhere, in one module,
# or in one function of one module
_RULES = {
    _blas_call: ("bundle.py", "_spin"),
    _row_reduction: (None, None),
    _worker_import: (None, None),
    _stream_state_write: ("randkit.py", None),
    _replay_reference: ("haar.py", None),
    _rejection_raise: ("bundle.py", None),
}


@pytest.fixture(scope="module")
def broken():
    """rule -> {file name: line numbers} of each rule's breaches in the
    package, read in one scan of its files."""
    found = {rule: {} for rule in _RULES}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        for rule, (home, allowed) in _RULES.items():
            if path.name == home and allowed is None:
                continue
            lines = _lines(source, rule, allowed if path.name == home else None)
            if lines:
                found[rule][path.name] = lines
    return found


def test_blas_guard_sees_every_form():
    for line in ("c = a @ b", "a @= b", "c = np.linalg.det(a)",
                 "c = np.dot(a, b)", "c = a.dot(b)", "c = np.einsum('i,i', a, b)",
                 "from numpy.linalg import norm", "from numpy import inner"):
        assert _lines(line, _blas_call) == [1], line
    assert _lines("def _spin(g, rz):\n    return g @ rz\n", _blas_call,
                  "_spin") == []


def test_only_spin_calls_blas(broken):
    # a per-row stage with a BLAS call rounds by the BLAS build; bundle._spin's
    # frame product is the one left
    assert broken[_blas_call] == {}


def test_row_reduction_guard_sees_every_form():
    for name in sorted(_REDUCTIONS):
        for axis in ("1", "-1"):
            line = f"c = np.{name}(a, axis={axis})"
            assert _lines(line, _row_reduction) == [1], line
        assert _lines(f"c = np.{name}(a, axis=0)", _row_reduction) == []
    assert _lines("c = np.max(a, axis=k)", _row_reduction) == []
    assert _lines("c = a.max(axis=-1)", _row_reduction) == [1]


def test_reductions_run_down_columns(broken):
    # _clip's kernel reads (constraints, lines) arrays, whose reductions run
    # over axis 0
    assert broken[_row_reduction] == {}


def test_worker_import_guard_sees_every_form():
    for line in ("import threading", "import concurrent.futures",
                 "from concurrent.futures import ThreadPoolExecutor",
                 "import multiprocessing as mp", "from multiprocessing import Pool",
                 "import os, threading"):
        assert _lines(line, _worker_import) == [1], line
    for line in ("import os", "from . import threading_notes",
                 "from .concurrent import x", "import numpy"):
        assert _lines(line, _worker_import) == [], line


def test_no_threads_or_pools(broken):
    # cli._run_shards forks its workers, which is safe only while no thread
    # runs; it stays the one worker mechanism
    assert broken[_worker_import] == {}


def test_stream_state_guard_sees_every_form():
    for line in ("rng._counter = 0", "rng._spare += 1.0",
                 "a._counter, a._spare = c, s", "rng._spare: float = x",
                 "setattr(rng, '_counter', 5)", "for rng._counter in r: pass"):
        assert _lines(line, _stream_state_write) == [1], line
    for line in ("c = rng._counter", "f(rng._spare)", "rng.counter = 1",
                 "setattr(rng, name, 5)", "_counter = 3"):
        assert _lines(line, _stream_state_write) == [], line


def test_only_randkit_moves_a_stream(broken):
    # the polar method's spare rule and the word counter live in randkit
    # alone; other modules read a stream's position or copy the stream
    assert broken[_stream_state_write] == {}


def test_replay_guard_sees_every_form():
    # the first two are how bundle and stats imported the replay before
    # haar named its block draws
    for line in ("from .haar import _ROTATION, _count, _cube_candidates, "
                 "_cube_rejection, _cube_kept, _gaussian_candidates, "
                 "_rejection, _replayed, _sphere3_kept, _unit_columns",
                 "from .haar import _count, _cube_candidates, _cube_kept, "
                 "_replayed, sample_sphere2",
                 "rows = haar._replayed(rng, m, 2, d, p)",
                 "from .haar import _first_pass as fp",
                 "f = _sphere3_first_pass"):
        assert _lines(line, _replay_reference) == [1], line
    for line in ("from .haar import _disk_blocks, _sphere3_blocks",
                 "rows = haar._disk_blocks(rng, m)", "replayed = 1",
                 "s = '_replayed'"):
        assert _lines(line, _replay_reference) == [], line


def test_only_haar_knows_how_a_draw_is_replayed(broken):
    # bundle and stats take their draws from haar._sphere3_blocks and
    # haar._disk_blocks, which pair each first pass with its draw
    assert broken[_replay_reference] == {}


def test_rejection_guard_sees_every_form():
    # the first three are the raises of haar._rejection, the loop's home
    # before sample_bundle ran its own rounds
    for line in ("raise NonFinite('density returned NaN or infinity')",
                 "raise BoundViolated(\n    f'density range [{lo}, {hi}]'\n)",
                 "raise RejectionStall(f'{accepted} acceptances in {proposals} "
                 "proposals')",
                 "raise errors.NonFinite", "raise BoundViolated from exc",
                 "err = RejectionStall('stalled')"):
        assert _lines(line, _rejection_raise) == [1], line
    for line in ("from .errors import BoundViolated, NonFinite, RejectionStall",
                 "try:\n    f()\nexcept RejectionStall:\n    pass",
                 "ok = isinstance(e, NonFinite)",
                 "raise ValueError('NonFinite')", "class NonFinite(Exception): pass"):
        assert _lines(line, _rejection_raise) == [], line


def test_only_bundle_runs_a_density_rejection_loop(broken):
    # sample_bundle holds the one loop that checks densities and stalls
    assert broken[_rejection_raise] == {}
