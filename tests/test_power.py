"""Power of the experiment gates: each known sampler defect must fail.

A ``"pass": true`` means something only if the same check fails when the
sampler is wrong.  Each row below injects one defect with ``unittest.mock``,
runs a CLI experiment at its default ``--n`` and seed 1, and requires exit 1
with the named test more than 3 sigma (or below the p-value floor) off.
The patches target the names the CLI actually calls:
``fiberline.bundle._replayed`` for the unit-disk offsets and the frames of
every isotropic line (a whole array stands in for the 2- or the 4-column
draw, handed out block by block),
``fiberline.cli.sample_sphere3`` for ``haar-test``'s quaternions,
``fiberline.stats.chord`` for the chords of ``chord`` and
``fiberline.cli.bertrand_indicators`` for ``bertrand``.
"""
import json
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

import fiberline.haar
import fiberline.stats
from fiberline._blocks import blocks
from fiberline.cli import main
from fiberline.geometry import Halfspaces

_real_replayed = fiberline.haar._replayed
_real_chord = fiberline.stats.chord
_real_bertrand = fiberline.stats.bertrand_indicators

# a regular tetrahedron, as in the golden chord cases
TETRAHEDRON = [{"normal": n, "offset": 1.0} for n in
               ([1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1])]


def _disk_linear_radius(rng, n):
    """r = U instead of sqrt(U): offsets crowd the disk's centre."""
    u = rng.uniforms(2 * n)
    r, phi = u[0::2], 2.0 * np.pi * u[1::2]
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def _disk_short(rng, n):
    """A disk 1% smaller than the sampling sphere's cross-section."""
    return 0.99 * fiberline.haar._cube_rejection(rng, n, 2)


def _cube_quaternions(rng, n):
    """Normalized uniform points of [-1, 1)^4: not uniform on S^3."""
    q = 2.0 * rng.uniforms(4 * n).reshape(n, 4) - 1.0
    return q / np.sqrt(np.sum(q * q, axis=1))[:, None]


def _chord_offset_flipped(body, dl):
    """Clip halfspace bodies with the first offset's sign flipped; the
    oracles still see the true body."""
    if isinstance(body, Halfspaces):
        offsets = body.offsets.copy()
        offsets[0] = -offsets[0]
        body = Halfspaces(body.normals, offsets)
    return _real_chord(body, dl)


def _bertrand_swapped(rng, method, n):
    """Asked for midpoint chords, draw radial ones."""
    return _real_bertrand(rng, "radial" if method == "midpoint" else method, n)


def _replacing(dim, draw):
    """``_replayed``, but with ``draw(rng, m)``'s whole array handed out
    block by block in place of the dim-column draw."""
    def replayed(rng, m, d, *passes):
        if d != dim:
            return _real_replayed(rng, m, d, *passes)
        rows = draw(rng, m)
        return ((s, rows[s]) for s in blocks(m))

    return replayed


REPLAYED = "fiberline.bundle._replayed"

# defect -> the (name, replacement) patches that inject it
DEFECTS = {
    "disk-r-linear": ((REPLAYED, _replacing(2, _disk_linear_radius)),),
    "disk-1pct-short": ((REPLAYED, _replacing(2, _disk_short)),),
    "cube-quaternions": ((REPLAYED, _replacing(4, _cube_quaternions)),
                         ("fiberline.cli.sample_sphere3", _cube_quaternions)),
    "halfspace-offset-flipped": (("fiberline.stats.chord",
                                  _chord_offset_flipped),),
    "bertrand-swapped": (("fiberline.cli.bertrand_indicators",
                          _bertrand_swapped),),
}
COMMANDS = {
    "ball": ["chord", "--body", "ball:0,0,0,1", "--radius", "2"],
    "box": ["chord", "--body", "box:0,0,0,1,1,1", "--radius", "1.8"],
    "haar-test": ["haar-test"],
    "tetrahedron": ["chord", "--body", "halfspaces:@tetrahedron.json",
                    "--radius", "1.8"],
    "bertrand": ["bertrand", "--method", "midpoint"],
}
# (defect, command, the test that must catch it); at seed 1 the caught
# statistics are z 500, 225, 11.8, 9.4, chi-square 11473 (p 0), z 10.0,
# -915 and 500
POWER = [
    ("disk-r-linear", "ball", "hit_rate_z"),
    ("disk-r-linear", "box", "hit_rate_z"),
    ("disk-1pct-short", "ball", "hit_rate_z"),
    ("disk-1pct-short", "box", "hit_rate_z"),
    ("cube-quaternions", "haar-test", "axis_isotropy_chi2"),
    ("cube-quaternions", "box", "mean_chord_z"),
    ("halfspace-offset-flipped", "tetrahedron", "hit_rate_z"),
    ("bertrand-swapped", "bertrand", "probability_z"),
]


@pytest.fixture(autouse=True)
def _tetrahedron_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tetrahedron.json").write_text(json.dumps(TETRAHEDRON))


def _run(capsys, command, defect=None):
    with ExitStack() as stack:
        for name, replacement in DEFECTS[defect] if defect else ():
            stack.enter_context(mock.patch(name, replacement))
        code = main([*COMMANDS[command], "--seed", "1"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_pass_without_defect(command, capsys):
    code, rep = _run(capsys, command)
    assert code == 0 and rep["pass"] is True


@pytest.mark.parametrize("defect,command,key", POWER,
                         ids=[f"{d}-{c}" for d, c, _ in POWER])
def test_defect_fails_named_test(defect, command, key, capsys):
    code, rep = _run(capsys, command, defect)
    assert code == 1 and rep["pass"] is False
    test = rep["tests"][key]
    if key.endswith("_z"):
        assert abs(test["statistic"]) > 3.0, test
    else:
        assert test["p_value"] <= 0.001, test


def test_ball_is_blind_to_rotation_bias(capsys):
    # an origin-centred ball looks the same from every frame, so biased
    # frames cannot move its hit rate or chords: an expected pass, not a
    # gate to tighten
    code, rep = _run(capsys, "ball", "cube-quaternions")
    assert code == 0 and rep["pass"] is True
