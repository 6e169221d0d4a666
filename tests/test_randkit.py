"""Stream determinism, scalar/block equivalence, and output distributions."""
import numpy as np
import pytest

import fiberline._blocks
from fiberline import gaussian, make_rng, split, uniform01
from fiberline.errors import FiberlineError
from fiberline.randkit import RngStream
from fiberline.stats import ks_test


def test_same_seed_same_stream():
    a = make_rng(123).uniforms(1000)
    b = make_rng(123).uniforms(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = make_rng(1).uniforms(64)
    b = make_rng(2).uniforms(64)
    assert not np.array_equal(a, b)


def test_different_streams_differ():
    root = make_rng(7)
    a = split(root, 1).uniforms(64)
    b = split(root, 2).uniforms(64)
    assert not np.array_equal(a, b)


def test_split_depends_only_on_seed_and_id():
    # splitting off a consumed parent, or a grandparent, changes nothing
    root = make_rng(5)
    ref = split(root, 3).uniforms(32)
    parent = make_rng(5)
    parent.uniforms(999)  # consumption must not leak into children
    assert np.array_equal(split(parent, 3).uniforms(32), ref)
    assert np.array_equal(split(split(make_rng(5), 99), 3).uniforms(32), ref)


def test_uniforms_range_and_blocks():
    rng = make_rng(42)
    x = rng.uniforms(100_000)
    assert np.all(x >= 0.0) and np.all(x < 1.0)
    # a block is the concatenation of smaller blocks
    rng2 = make_rng(42)
    y = np.concatenate([rng2.uniforms(1), rng2.uniforms(99), rng2.uniforms(99_900)])
    assert np.array_equal(x, y)


def test_scalar_uniforms_match_block():
    rng = make_rng(9)
    block = rng.uniforms(50)
    rng2 = make_rng(9)
    singles = np.array([uniform01(rng2) for _ in range(50)])
    assert np.array_equal(block, singles)


def test_scalar_gaussians_match_block():
    rng = make_rng(17)
    block = rng.gaussians(101)
    rng2 = make_rng(17)
    singles = np.array([gaussian(rng2) for _ in range(101)])
    assert np.array_equal(block, singles)


def test_interleaved_draws_match_block():
    """Mixed block sizes, with the polar spare crossing call boundaries."""
    rng = make_rng(31)
    ref = rng.gaussians(40)
    rng2 = make_rng(31)
    got = np.concatenate(
        [rng2.gaussians(1), rng2.gaussians(2), rng2.gaussians(3),
         rng2.gaussians(0), rng2.gaussians(34)]
    )
    assert np.array_equal(ref, got)


def test_gaussian_then_uniform_counter_agrees():
    # after an odd gaussian draw, the uniform sequence must continue exactly
    # where the scalar-by-scalar run would
    rng = make_rng(77)
    rng.gaussians(3)
    ref = rng.uniforms(16)
    rng2 = make_rng(77)
    for _ in range(3):
        gaussian(rng2)
    assert np.array_equal(rng2.uniforms(16), ref)


def test_uniform_moments():
    x = make_rng(0).uniforms(1_000_000)
    assert abs(float(np.mean(x)) - 0.5) < 3e-3
    assert abs(float(np.var(x)) - 1.0 / 12.0) < 0.01 / 12.0


def test_gaussian_moments():
    """mean within 3e-3 and variance within 1% at n = 1e6."""
    g = make_rng(1).gaussians(1_000_000)
    assert abs(float(np.mean(g))) < 3e-3
    assert abs(float(np.var(g)) - 1.0) < 0.01


def test_uniform_ks():
    x = make_rng(3).uniforms(100_000)
    rep = ks_test(x, lambda t: t)
    assert rep.p_value > 0.001


def test_gaussian_symmetry():
    g = make_rng(4).gaussians(200_000)
    # third moment of the standard normal is 0; stderr of the estimate ~ sqrt(15/n)
    assert abs(float(np.mean(g**3))) < 4.0 * np.sqrt(15.0 / g.size)


def test_negative_count_rejected():
    rng = make_rng(0)
    with pytest.raises(FiberlineError):
        rng.uniforms(-1)
    with pytest.raises(FiberlineError):
        rng.gaussians(-2)


def test_stream_ids_wrap_mod_2_64():
    assert np.array_equal(
        RngStream(2**64 + 5, 0).uniforms(8), RngStream(5, 0).uniforms(8)
    )


def test_no_global_state():
    # interleaving two streams draw-by-draw equals running them separately
    a, b = make_rng(11), split(make_rng(11), 1)
    mixed_a, mixed_b = [], []
    for _ in range(20):
        mixed_a.append(uniform01(a))
        mixed_b.append(uniform01(b))
    assert np.array_equal(mixed_a, make_rng(11).uniforms(20))
    assert np.array_equal(mixed_b, split(make_rng(11), 1).uniforms(20))


@pytest.mark.parametrize("block", [1, 5])
def test_block_size_changes_no_value_and_no_counter(block, monkeypatch):
    # large draws fill their output block by block; odd requests leave a
    # polar spare behind that the next block (or the next draw) must use
    draws = [("gaussians", 7), ("uniforms", 3), ("gaussians", 1),
             ("gaussians", 40), ("uniforms", 33), ("gaussians", 0),
             ("gaussians", 13)]

    def run():
        rng, trail = RngStream(11, 4), []
        for method, n in draws:
            trail.append((getattr(rng, method)(n).tobytes(), rng._counter,
                          rng._spare))
        return trail

    whole = run()
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    assert run() == whole
