"""Chord lengths, body constants, and the body-description grammar."""
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberline._blocks
from fiberline.cli import main
from fiberline.errors import Unbounded
from fiberline.geometry import (
    Ball,
    Box,
    Halfspaces,
    bounding_radius,
    chord,
    parse_body,
    surface_area,
    volume,
)
from fiberline.linespace import DirectedLine, point_at
from fiberline.bundle import sample_isotropic
from fiberline.haar import quat_to_rotation
from fiberline.randkit import make_rng

EZ = np.array([0.0, 0.0, 1.0])
UNIT_BALL = Ball((0.0, 0.0, 0.0), 1.0)
UNIT_CUBE = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def _march_chord(body, dl, t_half=4.0, steps=400_001):
    """Grid-independence oracle: measure {t : point_at(t) inside body}."""
    t = np.linspace(-t_half, t_half, steps)
    pts = point_at(dl, t)
    if isinstance(body, Ball):
        inside = np.sum((pts - body.center) ** 2, axis=1) <= body.radius**2
    elif isinstance(body, Box):
        inside = np.all((pts >= body.lo) & (pts <= body.hi), axis=1)
    else:
        inside = np.all(pts @ body.normals.T <= body.offsets, axis=1)
    return float(np.count_nonzero(inside)) * (2.0 * t_half / (steps - 1))


def test_ball_axis_chord():
    assert chord(UNIT_BALL, DirectedLine(EZ, np.zeros(3))) == 2.0


def test_ball_offset_chord():
    d = 0.5
    dl = DirectedLine(EZ, [d, 0.0, 0.0])
    assert abs(chord(UNIT_BALL, dl) - 2.0 * np.sqrt(1.0 - d * d)) < 1e-12


def test_ball_miss_and_tangent():
    assert chord(UNIT_BALL, DirectedLine(EZ, [1.5, 0.0, 0.0])) == 0.0
    # tangency is a miss, not a zero-length hit with roundoff noise
    assert chord(UNIT_BALL, DirectedLine(EZ, [1.0, 0.0, 0.0])) == 0.0


def test_cube_center_chord():
    dl = DirectedLine(EZ, [0.5, 0.5, 0.0])
    assert abs(chord(UNIT_CUBE, dl) - 1.0) < 1e-12


def test_cube_edge_parallel_outside():
    dl = DirectedLine(EZ, [2.0, 0.5, 0.0])
    assert chord(UNIT_CUBE, dl) == 0.0


def test_box_oblique_chord_against_march():
    rng = make_rng(0)
    body = Box((-0.5, -1.0, -1.5), (0.5, 1.0, 1.5))
    lines = sample_isotropic(rng, bounding_radius(body), 50)
    ch = chord(body, lines)
    for i in range(50):
        one = DirectedLine(lines.u[i], lines.foot[i])
        assert abs(ch[i] - _march_chord(body, one)) < 5e-4


def test_ball_oblique_chord_against_march():
    rng = make_rng(1)
    body = Ball((0.3, -0.2, 0.1), 0.8)
    lines = sample_isotropic(rng, bounding_radius(body), 50)
    ch = chord(body, lines)
    for i in range(50):
        one = DirectedLine(lines.u[i], lines.foot[i])
        assert abs(ch[i] - _march_chord(body, one)) < 5e-4


def test_chord_flip_symmetry():
    rng = make_rng(2)
    lines = sample_isotropic(rng, 2.0, 1000)
    flipped = DirectedLine(-lines.u, lines.foot)
    for body in (UNIT_BALL, UNIT_CUBE):
        assert np.max(np.abs(chord(body, lines) - chord(body, flipped))) < 1e-12


def test_chord_builds_no_whole_batch_temporaries():
    # the box kernel's (n, 3) slab temporaries live one block at a time
    lines = sample_isotropic(make_rng(2), 1.8, 200_000)
    tracemalloc.start()
    try:
        out = chord(UNIT_CUBE, lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 2 * out.nbytes


def test_chord_translation_consistency():
    """Shifting the ball and the line foot together leaves chords unchanged."""
    rng = make_rng(3)
    shift = np.array([0.4, -1.1, 0.7])
    lines = sample_isotropic(rng, 2.0, 1000)
    moved_foot = lines.foot + shift
    # re-foot: subtract the along-line component to keep u . foot = 0
    moved_foot = moved_foot - np.sum(moved_foot * lines.u, axis=1)[:, None] * lines.u
    moved = DirectedLine(lines.u, moved_foot)
    a = chord(Ball(shift, 1.0), moved)
    b = chord(UNIT_BALL, lines)
    assert np.max(np.abs(a - b)) < 1e-10


def test_volume_surface_values():
    assert abs(volume(UNIT_BALL) - 4.0 * np.pi / 3.0) < 1e-15
    assert abs(surface_area(UNIT_BALL) - 4.0 * np.pi) < 1e-15
    box = Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    assert volume(box) == 6.0
    assert surface_area(box) == 22.0


def test_bounding_radius_values():
    assert bounding_radius(UNIT_BALL) == 1.0
    assert abs(bounding_radius(Box((-1, -1, -1), (1, 1, 1))) - np.sqrt(3.0)) < 1e-15
    assert bounding_radius(Ball((2.0, 0.0, 0.0), 1.0)) == 3.0


def _cube_halfspaces(lo=0.0, hi=1.0):
    normals = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
    ], dtype=np.float64)
    offsets = np.array([hi, -lo, hi, -lo, hi, -lo], dtype=np.float64)
    return Halfspaces(normals, offsets)


def test_halfspaces_match_box():
    """A box and the same box as six halfspaces agree bit for bit: both go
    through the one slab kernel, the halfspaces through exact products."""
    hs = _cube_halfspaces()
    rng = make_rng(4)
    lines = sample_isotropic(rng, 2.0, 10_000)
    assert np.array_equal(chord(hs, lines), chord(UNIT_CUBE, lines))
    # exact axis-parallel lines: inside, on a face, on an edge, and outside
    feet = np.array([[0.5, 0.5, 0.0], [1.0, 0.5, 0.0], [1.0, 1.0, 0.0],
                     [1.5, 0.5, 0.0], [0.5, -0.25, 0.0]])
    u = np.tile(EZ, (len(feet), 1))
    for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):  # along z, y and x
        axial = DirectedLine(u[:, perm], feet[:, perm])
        got = chord(hs, axial)
        assert np.array_equal(got, chord(UNIT_CUBE, axial))
        assert np.array_equal(got, [1.0, 1.0, 1.0, 0.0, 0.0])


def _tetrahedron():
    s = 1.0 / np.sqrt(3.0)
    return Halfspaces(s * np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1],
                                    [-1, -1, 1]], dtype=np.float64),
                      np.full(4, s))


def test_slanted_halfspace_chords_do_not_depend_on_block(monkeypatch):
    # a tetrahedron's slanted normals make the kernel's sums round; each row
    # sums in one fixed order, so neither the block size nor the number of
    # lines in a call moves a bit, down to one line at a time
    tet = _tetrahedron()
    lines = sample_isotropic(make_rng(6), 1.8, 200)
    whole = chord(tet, lines)
    for i in range(len(whole)):
        one = DirectedLine(lines.u[i], lines.foot[i])
        assert chord(tet, one) == whole[i], i
    for block in (1, 2):
        monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
        for n in range(1, 201):
            part = DirectedLine(lines.u[:n], lines.foot[:n])
            assert np.array_equal(chord(tet, part), whole[:n]), (block, n)


def test_halfspace_chords_do_not_depend_on_blas_kernel():
    # OpenBLAS picks its kernels by OPENBLAS_CORETYPE, set here in each
    # child's environment only: Prescott's have no FMA, Haswell's do.  The
    # chords, the densities and the estimators use no BLAS product, so all
    # three runs hash alike.
    tet = _tetrahedron()
    child = (
        "import argparse, hashlib, numpy as np\n"
        "from fiberline.bundle import foot_tilt_density, project_to_line, "
        "sample_bundle, sample_isotropic, tilt_density, uniform_density\n"
        "from fiberline.cli import _estimator_of\n"
        "from fiberline.geometry import Halfspaces, chord\n"
        "from fiberline.randkit import make_rng\n"
        "sha = lambda a: hashlib.sha256(a.tobytes()).hexdigest()\n"
        f"tet = Halfspaces({tet.normals.tolist()!r}, {tet.offsets.tolist()!r})\n"
        "lines = sample_isotropic(make_rng(1), 1.8, 200000)\n"
        "pts = sample_bundle(make_rng(1), uniform_density(), 100000)\n"
        "foot_axis = _estimator_of(argparse.Namespace("
        "estimator='foot-axis', axis='1,-2,0.5'))\n"
        "print(sha(np.concatenate([lines.u, lines.foot])), sha(chord(tet, lines)),"
        " sha(tilt_density(2, axis=(1, 2, 3)).f(pts.g, pts.r)),"
        " sha(foot_tilt_density(4, axis=(1, -2, 0.5)).f(pts.g, pts.r)),"
        " sha(foot_axis(project_to_line(pts))))\n"
    )
    src = os.path.dirname(os.path.dirname(fiberline.__file__))
    digests = {}
    for core in ("Prescott", "Haswell", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (core, proc.stderr)
        digests[core] = proc.stdout.split()
    assert len({tuple(d) for d in digests.values()}) == 1, digests


def test_slanted_parallel_faces_hit_or_miss_whole():
    # u = (1, -1, 0)/sqrt(2) lies in faces 0 and 3 of the tetrahedron, but
    # u . n rounds to +-1.8e-17: the parallel tolerance must keep the line
    # whole inside face 0's plane and drop it wholly outside
    tet = _tetrahedron()
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert 0.0 < abs(u @ tet.normals[0]) <= 1e-12
    n0, c0 = tet.normals[0], tet.offsets[0]
    inside = DirectedLine(u, (c0 - 0.01) * n0)
    assert abs(chord(tet, inside) - 1.877453) < 1e-6
    assert abs(chord(tet, inside) - _march_chord(tet, inside)) < 5e-4
    assert chord(tet, DirectedLine(u, (c0 + 0.01) * n0)) == 0.0


def test_halfspaces_constants_exact():
    hs = _cube_halfspaces()
    assert abs(volume(hs) - 1.0) < 1e-15
    assert abs(surface_area(hs) - 6.0) < 1e-14


def test_halfspaces_bounding_radius_covers_cube():
    r = bounding_radius(_cube_halfspaces())
    assert abs(r - np.sqrt(3.0)) <= 1e-15


def test_halfspace_chord_run_builds_each_hull_once(tmp_path, monkeypatch, capsys):
    # one hull of the normals certifies the body, one of its vertices gives
    # V, S and the bounding radius; the oracles and both shards reuse them
    import scipy.spatial

    tet = _tetrahedron()
    path = tmp_path / "tet.json"
    path.write_text(json.dumps([{"normal": n, "offset": c} for n, c in
                                zip(tet.normals.tolist(), tet.offsets.tolist())]))
    builds = []
    real_hull = scipy.spatial.ConvexHull

    def counting_hull(*args, **kwargs):
        builds.append(args[0].shape)
        return real_hull(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting_hull)
    code = main(["chord", "--body", f"halfspaces:@{path}", "--radius", "1.8",
                 "--n", "20000", "--seed", "1", "--threads", "2"])
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True
    assert len(builds) == 2, builds


_quaternions = st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
    lambda q: np.sum(np.square(q)) > 0.01)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.1, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3), _quaternions)
def test_moved_box_halfspaces_exact(edges, shift, q):
    """A box moved rigidly and written as 6 halfspaces has the box's V, S
    and farthest-corner radius."""
    e = np.array(edges)
    rot = quat_to_rotation(np.array(q) / np.sqrt(np.sum(np.square(q))))
    normals = np.vstack([rot.T, -rot.T])  # rows: +-(rotated axes)
    centre_off = rot.T @ np.array(shift)
    offsets = np.concatenate([centre_off + e / 2, -centre_off + e / 2])
    hs = Halfspaces(normals, offsets)
    signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
    corners = (signs * e / 2) @ rot.T + shift
    radius = float(np.max(np.sqrt(np.sum(corners**2, axis=1))))
    for got, want in ((volume(hs), np.prod(e)),
                      (surface_area(hs), 2 * (e[0] * e[1] + e[1] * e[2] + e[0] * e[2])),
                      (bounding_radius(hs), radius)):
        assert abs(got - want) <= 1e-12 * want


def test_unbounded_rejected_at_construction():
    with pytest.raises(Unbounded):
        Halfspaces(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))  # open slab
    with pytest.raises(Unbounded):
        Halfspaces(
            np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]]),
            np.ones(4),
        )  # infinite square prism


@pytest.mark.parametrize("offsets", [
    [0.0, 0.0, 1.0, 1.0, 1.0, 1.0],   # zero width in x
    [1.0, -2.0, 1.0, 1.0, 1.0, 1.0],  # x <= 1 and x >= 2
], ids=["flat", "empty"])
def test_halfspaces_without_interior_rejected(offsets):
    normals = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
                        [0, 0, 1.0], [0, 0, -1.0]])
    with pytest.raises(ValueError, match="empty interior"):
        Halfspaces(normals, np.array(offsets))


def test_halfspaces_validation():
    with pytest.raises(ValueError):
        Halfspaces(np.array([[2.0, 0.0, 0.0]]), np.array([1.0]))  # not unit
    with pytest.raises(ValueError):
        Halfspaces(np.zeros((0, 3)), np.zeros(0))


def test_body_validation():
    with pytest.raises(ValueError):
        Ball((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        Ball((0, 0, np.inf), 1.0)
    with pytest.raises(ValueError):
        Box((0, 0, 0), (1, 0, 1))


def test_parse_ball_and_box():
    b = parse_body("ball:0,0,0,2")
    assert isinstance(b, Ball) and b.radius == 2.0
    x = parse_body("box:0,0,0,1,2,3")
    assert isinstance(x, Box) and np.array_equal(x.hi, [1.0, 2.0, 3.0])


def test_parse_halfspaces_file(tmp_path):
    spec = [{"normal": [2.0, 0.0, 0.0], "offset": 2.0},
            {"normal": [-1.0, 0.0, 0.0], "offset": 0.0},
            {"normal": [0.0, 1.0, 0.0], "offset": 1.0},
            {"normal": [0.0, -1.0, 0.0], "offset": 0.0},
            {"normal": [0.0, 0.0, 1.0], "offset": 1.0},
            {"normal": [0.0, 0.0, -1.0], "offset": 0.0}]
    path = tmp_path / "hs.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    hs = parse_body(f"halfspaces:@{path}")
    # the doubled normal is rescaled with its offset: same unit cube
    rng = make_rng(5)
    lines = sample_isotropic(rng, 2.0, 2000)
    assert np.max(np.abs(chord(hs, lines) - chord(UNIT_CUBE, lines))) < 1e-10


@pytest.mark.parametrize("bad", [
    "ball",                       # no colon
    "ball:1,2,3",                 # wrong arity
    "ball:1,2,3,abc",             # not a number
    "box:0,0,0,1,1",              # wrong arity
    "pyramid:1,2,3",              # unknown kind
    "halfspaces:inline",          # must be @FILE
])
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_body(bad)


def test_parse_halfspaces_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"normal": [0, 0, 0], "offset": 1.0}]))
    with pytest.raises(ValueError):
        parse_body(f"halfspaces:@{path}")
