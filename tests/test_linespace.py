"""Line representations: the slope chart, points on lines, serialization."""
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberline._blocks
from fiberline.bundle import sample_isotropic
from fiberline.errors import NotUnit
from fiberline.haar import sample_rotation
from fiberline.linespace import (
    DirectedLine,
    lines_to_records,
    point_at,
    slope_to_directed,
    write_lines,
)
from fiberline.randkit import make_rng

EZ = np.array([0.0, 0.0, 1.0])


def test_chart_origin_is_z_axis():
    dl = slope_to_directed(0.0, 0.0, 0.0, 0.0)
    assert np.allclose(dl.u, EZ, atol=0) and np.allclose(dl.foot, 0.0, atol=0)


def test_chart_diagonal():
    dl = slope_to_directed(1.0, 0.0, 0.0, 0.0)
    assert np.allclose(dl.u, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-15)
    assert np.allclose(dl.foot, 0.0, atol=1e-15)


def test_chart_offsets_only():
    dl = slope_to_directed(0.0, 0.0, 1.0, 2.0)
    assert np.allclose(dl.u, EZ, atol=0)
    assert np.allclose(dl.foot, [1.0, 2.0, 0.0], atol=0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-20, 20), st.floats(-20, 20),
    st.floats(-20, 20), st.floats(-20, 20),
)
def test_chart_points_lie_on_line(a, b, p, q):
    """(p, q, 0) and (p+a, q+b, 1) are on the line by definition of the chart,
    which directs every line into z > 0."""
    dl = slope_to_directed(a, b, p, q)
    assert dl.u[2] > 0.0
    for z in (0.0, 1.0):
        pt = np.array([p + a * z, q + b * z, z])
        # distance from pt to the line through foot with direction u
        w = pt - dl.foot
        dist = np.linalg.norm(w - np.dot(w, dl.u) * dl.u)
        assert dist < 1e-9


def test_point_at():
    dl = DirectedLine([0.0, 0.0, 1.0], [1.0, 2.0, 0.0])
    assert np.array_equal(point_at(dl, 0.0), dl.foot)
    assert np.allclose(point_at(dl, 1.0) - point_at(dl, 0.0), dl.u, atol=0)


def test_foot_is_closest_point():
    rng = make_rng(1)
    dl = slope_to_directed(*(4.0 * (rng.uniforms(4) - 0.5)))
    t = np.linspace(-5.0, 5.0, 101)
    pts = point_at(dl, t)
    d = np.sqrt(np.sum(pts * pts, axis=1))
    assert np.all(d >= np.linalg.norm(dl.foot) - 1e-12)


def test_rotation_equivariance():
    """Rotating (u, foot) by R gives the foot representation of the rotated
    line, because R preserves the orthogonality that defines the foot."""
    rng = make_rng(2)
    dl = slope_to_directed(*(2.0 * (rng.uniforms(4) - 0.5)))
    R = sample_rotation(rng, 1)[0]
    rotated = DirectedLine(R @ dl.u, R @ dl.foot)
    # two points of the rotated original must lie on `rotated`
    for t in (-1.7, 2.4):
        pt = R @ point_at(dl, t)
        w = pt - rotated.foot
        dist = np.linalg.norm(w - np.dot(w, rotated.u) * rotated.u)
        assert dist < 1e-12


def test_validation_errors():
    with pytest.raises(NotUnit):
        DirectedLine([0.0, 0.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        DirectedLine([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])  # foot not orthogonal
    with pytest.raises(ValueError):
        DirectedLine([0.0, 0.0, np.nan], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^u and foot must both have shape"):
        DirectedLine([0.0, 0.0, 1.0], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        slope_to_directed(np.inf, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        slope_to_directed(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(2))


# (rows to spoil: index -> (direction scale, foot shift along u, foot NaN)),
# and the words the error must carry; 12 rows are three blocks of 4
_BAD_ROWS = {
    "unit-last": ({11: (1 + 1e-6, 0.0, False)}, "off by 1.000e-06"),
    "unit-worst-first": ({1: (1 + 1e-5, 0.0, False), 11: (1 + 1e-7, 0.0, False)},
                         "off by 1.000e-05"),
    "unit-worst-last": ({1: (1 + 1e-7, 0.0, False), 11: (1 + 1e-5, 0.0, False)},
                        "off by 1.000e-05"),
    "ortho-last": ({11: (1.0, 1e-6, False)}, "up to 1.000e-06"),
    "ortho-worst-first": ({1: (1.0, 1e-3, False), 11: (1.0, 1e-6, False)},
                          "up to 1.000e-03"),
    "unit-before-ortho": ({1: (1.0, 1e-3, False), 11: (1 + 1e-6, 0.0, False)},
                          "off by 1.000e-06"),
    "finite-before-unit": ({1: (1 + 1e-6, 0.0, False), 11: (1.0, 0.0, True)},
                           "must be finite"),
}


@pytest.mark.parametrize("case", _BAD_ROWS)
def test_blocked_check_reports_like_the_whole_batch(case, monkeypatch):
    bad, words = _BAD_ROWS[case]
    u = np.tile(EZ, (12, 1))
    foot = np.tile([1.0, 0.0, 0.0], (12, 1))
    for i, (scale, shift, nan) in bad.items():
        u[i] *= scale
        foot[i] += shift * EZ
        if nan:
            foot[i, 0] = np.nan

    def error():
        with pytest.raises((NotUnit, ValueError)) as exc:
            DirectedLine(u, foot)
        return type(exc.value), str(exc.value)

    whole = error()
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", 4)
    assert error() == whole
    assert whole[0] is (NotUnit if "off by" in words else ValueError)
    assert words in whole[1]


def test_foot_tolerance_scales_with_foot():
    ex = np.array([1.0, 0.0, 0.0])
    # |foot| <= 1: the absolute 1e-9 bound, as before
    DirectedLine(EZ, ex + 5e-10 * EZ)
    with pytest.raises(ValueError):
        DirectedLine(EZ, ex + 2e-9 * EZ)
    # far feet carry rounding that grows with |foot|: the bound is 5e-12 |foot|
    DirectedLine(EZ, 1e8 * ex + 5e-8 * EZ)
    DirectedLine(EZ, 1e8 * ex + 1e-4 * EZ)
    DirectedLine(np.tile(EZ, (2, 1)), [0.5 * ex + 5e-10 * EZ, 1e8 * ex + 5e-8 * EZ])
    with pytest.raises(ValueError):
        DirectedLine(EZ, 1e8 * ex + 1e-3 * EZ)
    with pytest.raises(ValueError):
        DirectedLine(np.tile(EZ, (2, 1)), [1e8 * ex, ex + 2e-9 * EZ])


@pytest.mark.parametrize("block", [4, fiberline._blocks._BLOCK])
def test_far_feet_above_the_absolute_bound_still_pass(block, monkeypatch):
    # |u . foot| past 1e-9 sends the check on to the relative bound: the far
    # row (|u . foot| 1e-4 at |foot| 1e8) passes there, and the message of a
    # row past both bounds carries the worst |u . foot| of all rows, the far
    # row's
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    ex = np.array([1.0, 0.0, 0.0])
    u = np.tile(EZ, (12, 1))
    foot = np.tile(0.5 * ex, (12, 1))
    foot[6] = 1e8 * ex + 1e-4 * EZ
    DirectedLine(u, foot)
    foot[9] += 2e-9 * EZ
    worst = np.max(np.abs(np.sum(u * foot, axis=1)))
    with pytest.raises(ValueError) as exc:
        DirectedLine(u, foot)
    assert str(exc.value) == ("foot not orthogonal to direction "
                              f"(|u.foot| up to {worst:.3e})")
    assert "up to 1.000e-04" in str(exc.value)


def test_foot_tolerance_survives_huge_feet():
    # an unscaled |foot| overflows beyond ~1.3e154, and an infinite bound
    # would accept any foot
    with pytest.raises(ValueError):
        DirectedLine(EZ, [1e200, 0.0, 1e200])
    DirectedLine(EZ, [1e300, 1e300, 1e288])  # |u.foot| below 5e-12 |foot|


def test_batch_len():
    dl = DirectedLine(np.tile(EZ, (4, 1)), np.zeros((4, 3)))
    assert dl.is_batch and len(dl) == 4
    single = DirectedLine(EZ, np.zeros(3))
    assert not single.is_batch and len(single) == 1


def _written(dl, manifest, fmt):
    sink = io.StringIO()
    write_lines(sink, [dl], manifest, fmt)
    return sink.getvalue()


def test_records_and_csv():
    dl = DirectedLine(np.tile(EZ, (2, 1)), [[1.0, 2.0, 0.0], [0.25, 0.0, 0.0]])
    recs = lines_to_records(dl)
    assert recs[0] == {"ux": 0.0, "uy": 0.0, "uz": 1.0, "qx": 1.0, "qy": 2.0, "qz": 0.0}
    text = _written(dl, {"n": 2}, "csv")
    lines = text.splitlines()
    assert lines[0] == '# manifest: {"n":2}'
    assert lines[1] == "ux,uy,uz,qx,qy,qz"
    assert lines[3].startswith("0,0,1,0.25")
    # 17 significant digits survive a parse round trip
    vals = np.array([float(v) for v in lines[2].split(",")])
    assert np.array_equal(vals, np.array([0, 0, 1, 1, 2, 0.0]))


def _csv_reference(dl, manifest):
    """The per-row formatter that the block writer replaced."""
    u, foot = np.atleast_2d(dl.u), np.atleast_2d(dl.foot)
    out = ["# manifest: " + json.dumps(manifest, separators=(",", ":"))]
    out.append("ux,uy,uz,qx,qy,qz")
    for row in np.concatenate([u, foot], axis=1):
        out.append(",".join("%.17g" % v for v in row))
    return "\n".join(out) + "\n"


def _json_reference(dl, manifest):
    doc = {"manifest": manifest, "lines": lines_to_records(dl)}
    return json.dumps(doc, indent=2) + "\n"


SERIALIZE_CASES = {
    "empty": lambda: DirectedLine(np.zeros((0, 3)), np.zeros((0, 3))),
    "single-1d": lambda: DirectedLine(EZ, [1.0, 2.0, 0.0]),
    "exponents": lambda: DirectedLine(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1e-300, 0.0, 1.0]],
        [[1e16, 1e-300, 0.0], [0.0, -1e-300, 1e16], [0.0, 5e-324, 0.0]],
    ),
    "negative-zero": lambda: DirectedLine(
        [[-0.0, 0.0, 1.0], [0.0, -1.0, -0.0]],
        [[0.0, -0.0, -0.0], [-0.0, 0.0, 1.5]],
    ),
    "isotropic": lambda: sample_isotropic(make_rng(5), 3.0, 300),
}

MANIFEST = {
    "command": "fiberline sample --axis '0,0,1' --note \"caf\u00e9 \u2603\"",
    "seed": 3,
    "n": 2,
    "timestamp": "",
    "version": "0.1.0",
    "parameters": {"axis": [0.0, 0.0, 1.0], "kappa": 2.0},
    "acceptance_rate": 0.25,
}


@pytest.mark.parametrize("case", sorted(SERIALIZE_CASES))
def test_csv_matches_per_row_reference(case):
    dl = SERIALIZE_CASES[case]()
    assert _written(dl, MANIFEST, "csv") == _csv_reference(dl, MANIFEST)


@pytest.mark.parametrize("case", sorted(SERIALIZE_CASES))
def test_json_matches_json_dumps(case):
    dl = SERIALIZE_CASES[case]()
    text = _written(dl, MANIFEST, "json")
    assert text == _json_reference(dl, MANIFEST)
    assert json.loads(text)["lines"] == lines_to_records(dl)
