"""End-to-end CLI behavior: output schema, exit codes, reproducibility."""
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fiberline.bundle
import fiberline.cli
from fiberline.bundle import sample_bundle, tilt_density
from fiberline.cli import main
from fiberline.geometry import Ball, chord
from fiberline.linespace import DirectedLine
from fiberline.randkit import make_rng, split

REPORT_KEYS = {"experiment", "parameters", "seed", "n", "estimates", "tests",
               "oracle_values", "pass", "manifest"}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse_csv(text):
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header, data = rows[0], rows[1:]
    assert header == "ux,uy,uz,qx,qy,qz"
    vals = np.array([[float(v) for v in ln.split(",")] for ln in data])
    return DirectedLine(vals[:, :3], vals[:, 3:])


def test_sample_csv_smoke(capsys):
    code, out, _ = _run(capsys, ["sample", "--n", "10", "--seed", "1",
                                 "--radius", "1", "--source", "isotropic",
                                 "--format", "csv"])
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("# manifest: ")
    manifest = json.loads(first[len("# manifest: "):])
    assert manifest["seed"] == 1 and manifest["n"] == 10
    assert manifest["command"].startswith("fiberline sample")
    lines = _parse_csv(out)
    assert len(lines) == 10


def test_sample_reproducible(capsys):
    args = ["sample", "--n", "50", "--seed", "9", "--format", "csv"]
    _, out1, _ = _run(capsys, args)
    _, out2, _ = _run(capsys, args)
    assert out1 == out2


def test_sample_json_schema(capsys):
    code, out, _ = _run(capsys, ["sample", "--n", "5", "--seed", "2",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"manifest", "lines"}
    assert len(doc["lines"]) == 5
    assert set(doc["lines"][0]) == {"ux", "uy", "uz", "qx", "qy", "qz"}


def test_sample_out_file(tmp_path, capsys):
    path = tmp_path / "lines.csv"
    code, out, _ = _run(capsys, ["sample", "--n", "3", "--seed", "0",
                                 "--out", str(path)])
    assert code == 0 and out == ""
    assert len(_parse_csv(path.read_text())) == 3


def test_cosine_source_hits_ball(capsys):
    code, out, _ = _run(capsys, ["sample", "--n", "500", "--seed", "3",
                                 "--source", "cosine", "--radius", "1"])
    assert code == 0
    lines = _parse_csv(out)
    assert np.all(chord(Ball((0, 0, 0), 1.0), lines) > 0.0)


def test_bundle_source_manifest(capsys):
    code, out, _ = _run(capsys, ["bundle", "--n", "50", "--seed", "4",
                                 "--density", "tilt", "--kappa", "2.0",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    m = doc["manifest"]
    assert m["parameters"]["density"] == "tilt"
    assert m["parameters"]["kappa"] == 2.0
    assert 0.0 < m["acceptance_rate"] <= 1.0
    assert len(doc["lines"]) == 50
    # across shards the rate is the exact ratio of the summed counters, not
    # a mean of the shards' rates
    for threads, counts in (("1", (1001,)), ("2", (501, 500))):
        code, out, _ = _run(capsys, ["bundle", "--n", "1001", "--seed", "5",
                                     "--density", "tilt", "--kappa", "2.0",
                                     "--format", "json", "--threads", threads])
        assert code == 0
        streams = [split(make_rng(5), i + 1) for i in range(len(counts))]
        for st, m in zip(streams, counts):
            sample_bundle(st, tilt_density(2.0), m)
        rate = (sum(st.accepted for st in streams)
                / sum(st.proposals for st in streams))
        assert json.loads(out)["manifest"]["acceptance_rate"] == rate


@pytest.mark.parametrize("cmd", [["bundle"]], ids=["bundle"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bundle_source_empty(cmd, fmt, capsys):
    code, out, err = _run(capsys, [*cmd, "--n", "0", "--seed", "4",
                                   "--format", fmt])
    assert code == 0, err
    if fmt == "json":
        doc = json.loads(out)
        assert doc["lines"] == []
        manifest = doc["manifest"]
    else:
        comment, header = out.splitlines()  # no data rows
        assert header == "ux,uy,uz,qx,qy,qz"
        manifest = json.loads(comment.removeprefix("# manifest: "))
    assert manifest["n"] == 0 and manifest["acceptance_rate"] == 0.0


def test_threads_deterministic(capsys):
    args = ["sample", "--n", "1000", "--seed", "5", "--threads", "3"]
    _, out1, _ = _run(capsys, args)
    _, out2, _ = _run(capsys, args)
    assert out1 == out2


def test_threads_bounded(capsys):
    # every shard adds a fixed cost, so k stops at 1024; 1024 still runs
    args = ["bertrand", "--method", "midpoint", "--n", "2000", "--threads"]
    code, out, err = _run(capsys, args + ["1025"])
    assert code == 2 and not out and "--threads" in err
    code, out, _ = _run(capsys, args + ["1024"])
    assert code == 0 and json.loads(out)["n"] == 2000


def _assert_no_children():
    # every forked shard worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_threads_pool_bounded_by_cpu_count(capsys, monkeypatch):
    # 64 shards, but no more workers than the machine has CPUs: this
    # process and min(64, os.cpu_count()) - 1 forked children
    args = ["sample", "--n", "64", "--seed", "5", "--threads", "64"]
    forked = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    with monkeypatch.context() as mp:
        mp.setattr(os, "fork", recording_fork)
        _, recorded, _ = _run(capsys, args)
    _, plain, _ = _run(capsys, args)
    assert len(forked) == min(64, os.cpu_count() or 1) - 1
    assert recorded == plain
    _assert_no_children()


@pytest.mark.parametrize("argv", [
    ["chord", "--body", "box:0,0,0,1,1,1", "--radius", "1.8", "--n", "2000",
     "--threads", "5"],
    ["haar-test", "--n", "2000", "--threads", "3"],
    ["bundle", "--density", "tilt", "--kappa", "2", "--n", "200",
     "--threads", "4"],
], ids=["chord", "haar-test", "bundle"])
def test_shard_bytes_do_not_depend_on_workers(argv, capsys, monkeypatch):
    # one worker, two on this host's count, and four (three children, some
    # running two shards): the bytes are those of the shards in stream order
    args = [*argv, "--seed", "9"]
    _, forked, _ = _run(capsys, args)
    with monkeypatch.context() as mp:
        mp.delattr(os, "fork")
        code, serial, _ = _run(capsys, args)
    with monkeypatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 4)
        _, wide, _ = _run(capsys, args)
    assert code == 0 and serial == forked == wide
    _assert_no_children()


def test_failing_shard_in_worker_exits_3(capsys, monkeypatch):
    # every shard stalls; the report is that of shard 1 (5001 lines, 5009
    # proposals), not shard 2's (5008), as when the shards ran on threads
    monkeypatch.setattr(fiberline.bundle, "_STALL_PROPOSALS", 1000)
    for threads, proposals in (("2", 5009), ("3", 3342)):
        code, out, err = _run(capsys, [
            "bundle", "--n", "10001", "--seed", "1", "--density", "tilt",
            "--kappa", "1e9", "--threads", threads])
        assert (code, out) == (3, "")
        assert err == f"RejectionStall: 0 acceptances in {proposals} proposals\n"
        _assert_no_children()


def test_lowest_failing_shard_wins(monkeypatch):
    # shard 1 passes; shard 2 fails in a child, and shard 3 in this process
    # after it, on a host of two or more CPUs; without a fork, shard 2 fails
    # here and shard 3 never runs
    def fn(st, m):
        if st.stream_id >= 2:
            raise ValueError(f"shard {st.stream_id}")
        return m

    with pytest.raises(ValueError, match="^shard 2$"):
        fiberline.cli._run_shards(1, 3, 30, fn)
    _assert_no_children()
    with monkeypatch.context() as mp:
        mp.delattr(os, "fork")
        with pytest.raises(ValueError, match="^shard 2$"):
            fiberline.cli._run_shards(1, 3, 30, fn)
    assert fiberline.cli._run_shards(1, 3, 30, lambda st, m: st.stream_id) \
        == [1, 2, 3]


def test_joined_shards_are_concatenated_and_let_go():
    # events, chords and quaternion rows, an empty shard among them: the
    # array np.concatenate makes, with no shard left in the list
    rng = np.random.default_rng(3)
    for parts in ([rng.random(5) < 0.5, rng.random(0) < 0.5,
                   rng.random(7) < 0.5],
                  [rng.random(6), rng.random(2)],
                  [rng.random((3, 4)), rng.random((5, 4))]):
        want = np.concatenate(parts)
        got = fiberline.cli._joined(parts)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert parts == []


def test_worker_without_result_exits_3(capsys, monkeypatch):
    parent = os.getpid()
    real = fiberline.cli.sample_sphere3

    def dying(rng, m):
        if os.getpid() != parent:
            os._exit(1)  # a worker lost before it sends anything
        return real(rng, m)

    monkeypatch.setattr(fiberline.cli, "sample_sphere3", dying)
    if (os.cpu_count() or 1) < 2:
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = _run(capsys, ["haar-test", "--n", "200", "--seed", "1",
                                   "--threads", "2"])
    assert (code, out) == (3, "")
    assert err == "FiberlineError: a shard worker ended without a result\n"
    _assert_no_children()


def test_threads_run_writes_no_stderr():
    proc = subprocess.run(
        [sys.executable, "-m", "fiberline", "chord", "--body",
         "box:0,0,0,1,1,1", "--radius", "1.8", "--n", "20000", "--seed", "1",
         "--threads", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["pass"] is True


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FIBERLINE_SEED", "77")
    _, out_env, _ = _run(capsys, ["sample", "--n", "5"])
    monkeypatch.delenv("FIBERLINE_SEED")
    _, out_flag, _ = _run(capsys, ["sample", "--n", "5", "--seed", "77"])
    # same stream, only the recorded command differs
    assert out_env.splitlines()[1:] == out_flag.splitlines()[1:]
    assert json.loads(out_env.splitlines()[0][12:])["seed"] == 77


def test_seed_env_garbage(capsys, monkeypatch):
    monkeypatch.setenv("FIBERLINE_SEED", "not-a-number")
    code, _, err = _run(capsys, ["sample", "--n", "5"])
    assert code == 2 and "FIBERLINE_SEED" in err


def test_timestamp_from_source_date_epoch(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    _, out, _ = _run(capsys, ["sample", "--n", "1", "--seed", "0"])
    manifest = json.loads(out.splitlines()[0][12:])
    assert manifest["timestamp"] == "2023-11-14T22:13:20+00:00"
    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    _, out2, _ = _run(capsys, ["sample", "--n", "1", "--seed", "0"])
    assert json.loads(out2.splitlines()[0][12:])["timestamp"] == ""
    # an unparsable epoch gives no timestamp rather than an error
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "not-a-number")
    code, out3, _ = _run(capsys, ["sample", "--n", "1", "--seed", "0"])
    assert code == 0 and out3 == out2


def test_bertrand_report(capsys):
    code, out, _ = _run(capsys, ["bertrand", "--method", "endpoints",
                                 "--n", "200000", "--seed", "7"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == REPORT_KEYS
    assert rep["pass"] is True
    est = rep["estimates"]["probability"]
    assert abs(est["mean"] - 1 / 3) <= 3 * est["stderr"]
    assert rep["oracle_values"]["probability"] == pytest.approx(1 / 3)


def test_chord_report(capsys):
    code, out, _ = _run(capsys, ["chord", "--body", "ball:0,0,0,1",
                                 "--radius", "2", "--n", "100000",
                                 "--seed", "7"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == REPORT_KEYS
    assert rep["pass"] is True
    assert rep["oracle_values"]["hit_rate"] == 0.25
    assert rep["oracle_values"]["mean_chord_given_hit"] == pytest.approx(4 / 3)


def test_chord_exact_hit_rate_has_zero_score(capsys):
    # every line meets a ball of the sampling radius, so the hit rate is 1.0
    # with zero stderr and equals its oracle S/(4 pi R^2) exactly
    code, out, _ = _run(capsys, ["chord", "--body", "ball:0,0,0,1",
                                 "--radius", "1", "--n", "1000", "--seed", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle_values"]["hit_rate"] == 1.0
    assert rep["tests"]["hit_rate_z"] == {"statistic": 0.0, "p_value": 1.0,
                                          "n": 1000}


def test_chord_insufficient_radius_exits_2(capsys):
    code, _, err = _run(capsys, ["chord", "--body", "ball:0,0,0,1",
                                 "--radius", "0.5", "--n", "100", "--seed", "1"])
    assert code == 2
    assert "InsufficientRadius" in err


_BAD_RADIUS = "error: radius must be positive and finite\n"


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
def test_chord_invalid_radius_exits_2(radius, capsys):
    # an invalid radius is refused as such, like `sample --radius 0`, not
    # compared with the body's bounding radius
    code, out, err = _run(capsys, ["chord", "--body", "ball:0,0,0,1",
                                   "--radius", radius, "--n", "100",
                                   "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == _BAD_RADIUS


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["sample", "bundle", "gauge-audit"])
def test_invalid_radius_exits_2_as_chord_does(command, radius, capsys):
    # one radius check: the disk radius of a density is refused in
    # chord's words
    code, out, err = _run(capsys, [command, "--radius", radius, "--n", "100",
                                   "--seed", "1"])
    assert (code, out, err) == (2, "", _BAD_RADIUS)


@pytest.mark.parametrize("body", [
    pytest.param("ball:1,2", id="ball-short"),
    pytest.param("box:0,0,0,nan,1,1", id="box-nan"),
    pytest.param("box:0,0,0,1,inf,1", id="box-inf"),
    # a leading @ is the text of a halfspace file
    pytest.param("@[]", id="empty-list"),
    pytest.param('@{"normal": [1, 0, 0], "offset": 1}', id="object"),
    pytest.param('@[{"normal": [1, 0, 0]}]', id="no-offset"),
    pytest.param('@[{"normal": [1.5e308, 1.5e308, 1.5e308], "offset": 1}]',
                 id="normal-overflows"),
    pytest.param('@[{"normal": [1, 0, 0], "offset": 1e999}]', id="offset-inf"),
])
def test_chord_bad_body_exits_2(body, tmp_path, capsys):
    if body.startswith("@"):
        path = tmp_path / "body.json"
        path.write_text(body[1:])
        body = f"halfspaces:@{path}"
    code, out, err = _run(capsys, ["chord", "--body", body, "--radius",
                                   "2", "--n", "10", "--seed", "1"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _halfspace_body(tmp_path, normals, offsets):
    path = tmp_path / "body.json"
    path.write_text(json.dumps([{"normal": list(map(float, nv)), "offset": float(c)}
                                for nv, c in zip(normals, offsets)]))
    return f"halfspaces:@{path}"


_AXES = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
                  [0, 0, 1.0], [0, 0, -1.0]])


def _prism(tmp_path):
    """20 x 0.1 x 0.1, centred on the origin, long side along (1, 2, 0.3)."""
    a = np.array([1.0, 2.0, 0.3]) / np.sqrt(5.09)
    b = np.cross(a, [0.0, 0.0, 1.0])
    b /= np.sqrt(np.sum(b * b))
    c = np.cross(a, b)
    return _halfspace_body(tmp_path, [a, -a, b, -b, c, -c],
                           [10, 10, 0.05, 0.05, 0.05, 0.05])


def test_chord_prism_needs_its_true_radius(tmp_path, capsys):
    # the farthest vertex is at 10.00025, far beyond the 0.05 half-width
    body = _prism(tmp_path)
    code, _, err = _run(capsys, ["chord", "--body", body, "--radius", "0.2",
                                 "--n", "100", "--seed", "1"])
    assert code == 2 and "InsufficientRadius" in err
    code, out, _ = _run(capsys, ["chord", "--body", body, "--radius", "10.1",
                                 "--n", "200000", "--seed", "1"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep["tests"]) == {"hit_rate_z", "mean_chord_z"}
    assert rep["oracle_values"]["mean_chord_given_hit"] == pytest.approx(
        0.8 / 8.02, rel=1e-12)


def test_chord_cube_halfspaces_runs_at_box_radius(tmp_path, capsys):
    body = _halfspace_body(tmp_path, _AXES, [1, 0, 1, 0, 1, 0])
    code, out, _ = _run(capsys, ["chord", "--body", body, "--radius", "1.8",
                                 "--n", "100000", "--seed", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle_values"] == {"hit_rate": pytest.approx(6 / (4 * np.pi * 1.8**2)),
                                    "mean_chord_given_hit": pytest.approx(4 / 6)}
    assert set(rep["tests"]) == {"hit_rate_z", "mean_chord_z"}


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_chord_halfspace_normal_length_is_scaled_out(scale, tmp_path, capsys):
    # a normal is a direction: its length must neither overflow nor vanish,
    # and its offset is scaled by the same factor
    def report(first):
        body = _halfspace_body(tmp_path, [first, *_AXES[1:]],
                               [first[0], 0, 1, 0, 1, 0])
        code, out, err = _run(capsys, ["chord", "--body", body, "--radius",
                                       "1.8", "--n", "20000", "--seed", "2"])
        assert (code, err) == (0, "")
        rep = json.loads(out)
        return rep["estimates"], rep["tests"], rep["oracle_values"]

    assert report([scale, 0.0, 0.0]) == report([1.0, 0.0, 0.0])


@pytest.mark.parametrize("normals,offsets", [
    (_AXES[:1], [1]),                     # slab
    (_AXES[:4], [1, 1, 1, 1]),            # infinite square prism
    (_AXES, [0, 0, 1, 1, 1, 1]),          # box of zero width
], ids=["slab", "square-prism", "flat-box"])
def test_chord_bad_halfspaces_exit_2(normals, offsets, tmp_path, capsys):
    body = _halfspace_body(tmp_path, normals, offsets)
    code, out, err = _run(capsys, ["chord", "--body", body, "--radius", "10",
                                   "--n", "100", "--seed", "1"])
    assert code == 2 and out == "" and err != ""


def test_chord_halfspaces_too_flat_for_extent_exit_2(tmp_path, capsys):
    # extents 1e30 and 1: qhull's vertex step finds the body flat; one line
    # on standard error and exit 2, not a traceback and exit 1
    body = _halfspace_body(tmp_path, _AXES, [1e30, 1e30, 1, 1, 1, 1])
    code, out, err = _run(capsys, ["chord", "--body", body, "--radius", "2e30",
                                   "--n", "100", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == ("error: halfspace body is too flat for its extent: qhull "
                   "cannot build its vertices\n")


def test_chord_no_hits_exits_1(capsys):
    code, out, _ = _run(capsys, ["chord", "--body", "ball:0,0,0,1e-9",
                                 "--radius", "1", "--n", "100", "--seed", "1"])
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_haar_test_report(capsys):
    code, out, _ = _run(capsys, ["haar-test", "--n", "20000", "--seed", "3"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == REPORT_KEYS | {"histograms"}
    for t in rep["tests"].values():
        assert t["p_value"] > 0.001
    assert len(rep["histograms"]["axis_z"]["counts"]) == 20


def test_gauge_audit_passes(capsys):
    code, out, _ = _run(capsys, ["gauge-audit", "--n", "20000", "--seed", "5",
                                 "--density", "foot-tilt", "--beta", "4"])
    assert code == 0
    rep = json.loads(out)
    dev = rep["deviations"]
    assert dev["max_direction"] <= 1e-10
    assert dev["max_foot"] <= 1e-10
    assert dev["estimate_gap"] <= 1e-10
    assert dev["broken_gap_sigma"] > 3.0


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_gauge_audit_default_passes(seed, capsys):
    # the defaults audit foot-axis on foot-tilt lines, whose feet lean along
    # the axis, so the broken move shows in the estimate
    code, out, _ = _run(capsys, ["gauge-audit", "--n", "20000", "--seed", seed])
    rep = json.loads(out)
    assert rep["parameters"]["density"] == "foot-tilt"
    assert rep["parameters"]["estimator"] == "foot-axis"
    assert code == 0, rep["deviations"]


def test_gauge_audit_gap_scales_with_radius(capsys):
    # foot-axis reads a foot coordinate, so its gap rounds like a foot: at
    # R = 1e6 this seed's gap is 2^-33, about 1.16e-10
    code, out, _ = _run(capsys, ["gauge-audit", "--n", "20000", "--seed", "3",
                                 "--density", "foot-tilt", "--radius", "1e6",
                                 "--beta", "4e-6"])
    dev = json.loads(out)["deviations"]
    assert 1e-10 < dev["estimate_gap"] <= 1e-10 * 1e6
    assert dev["broken_gap_sigma"] > 3.0
    assert code == 0


def test_gauge_audit_direction_estimator_cannot_see_break(capsys):
    # (u . e_z)^2 is blind to the broken action, so the negative control is
    # undetectable and the audit reports failure
    code, out, _ = _run(capsys, ["gauge-audit", "--n", "5000", "--seed", "5",
                                 "--density", "tilt", "--kappa", "2",
                                 "--estimator", "direction-axis2"])
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_gauge_audit_draws_once(capsys, monkeypatch):
    # the negative control reuses the audit's bundle points
    import fiberline.stats
    calls = []
    real = fiberline.stats.sample_bundle

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fiberline.stats, "sample_bundle", counted)
    code, out, _ = _run(capsys, ["gauge-audit", "--n", "2000", "--seed", "5",
                                 "--density", "foot-tilt"])
    assert code == 0
    assert len(calls) == 1
    assert "broken_acted" in json.loads(out)["estimates"]


@pytest.mark.parametrize("argv", [
    ["chord", "--body", "ball:0,0,0,1", "--radius", "2"],
    ["haar-test"],
    ["bertrand", "--method", "midpoint"],
    ["gauge-audit"],
], ids=["chord", "haar-test", "bertrand", "gauge-audit"])
def test_experiment_without_samples_exits_2(argv, capsys):
    code, out, err = _run(capsys, [*argv, "--n", "0", "--seed", "1"])
    assert code == 2 and out == ""
    assert err == "error: n must be positive\n"


@pytest.mark.parametrize("n", ["5", "99"], ids=["ks-needs-8", "chi2-needs-100"])
def test_haar_test_too_few_samples_exits_2(n, capsys):
    code, out, err = _run(capsys, ["haar-test", "--n", n, "--seed", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["chord", "--body", "ball:0,0,0,1", "--radius", "2", "--n", "1"],
    ["bertrand", "--method", "radial", "--n", "1"],
    # exactly one of the 100 lines hits, so its chord has no stderr
    ["chord", "--body", "ball:0,0,0,0.1", "--radius", "1", "--n", "100"],
], ids=["chord", "bertrand", "chord-one-hit"])
def test_z_test_of_one_sample_exits_2(argv, capsys):
    # one sample has no stderr, so its z-test could only fail
    code, out, err = _run(capsys, [*argv, "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "error: a z-test needs at least 2 samples, got 1\n"


def test_gauge_audit_one_sample_exits_2(capsys):
    # one line gives no standard error, so the control's gap has no sigma
    code, out, err = _run(capsys, ["gauge-audit", "--n", "1", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "error: gauge audit needs at least 2 samples, got 1\n"


@pytest.mark.parametrize("argv", [
    ["chord", "--body", "halfspaces:@{tmp}/missing.json", "--radius", "2"],
    ["chord", "--body", "halfspaces:@{tmp}", "--radius", "2"],
    ["sample", "--out", "{tmp}/missing/x.csv"],
], ids=["missing-body-file", "body-file-is-directory", "missing-out-directory"])
def test_unreadable_input_or_output_exits_2(argv, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = _run(capsys, [*argv, "--n", "10", "--seed", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_nonfinite_kappa_exits_2(kappa, capsys):
    code, out, err = _run(capsys, ["bundle", "--density", "tilt", "--kappa",
                                   kappa, "--n", "10", "--seed", "1"])
    assert code == 2 and out == ""
    assert err == "error: kappa must be finite\n"


# a tilt audit of 5 lines cannot see its negative control, so it exits 1
@pytest.mark.parametrize("argv,exit_code", [
    (["bundle", "--density", "tilt"], 0),
    (["bundle", "--density", "tilt-radial"], 0),
    (["gauge-audit", "--density", "tilt"], 1),
], ids=["bundle-tilt", "bundle-tilt-radial", "gauge-audit-tilt"])
def test_overflowing_kappa_exits_2(argv, exit_code, capsys):
    # exp(-2 kappa), the rejection bound, overflows below kappa = -354.89
    code, out, err = _run(capsys, [*argv, "--kappa", "-400", "--n", "5",
                                   "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: kappa is too negative")
    code, _, _ = _run(capsys, [*argv, "--kappa", "-354", "--n", "5",
                               "--seed", "1"])
    assert code == exit_code


def test_sampler_error_exits_3(capsys):
    code, _, err = _run(capsys, ["bundle", "--n", "10000", "--seed", "1",
                                 "--density", "tilt", "--kappa", "1e9"])
    assert code == 3
    assert "RejectionStall" in err


def test_bad_axis_exits_2(capsys):
    code, _, err = _run(capsys, ["bundle", "--n", "10", "--seed", "1",
                                 "--axis", "1,2"])
    assert code == 2 and "--axis" in err


@pytest.mark.parametrize("axis", ["1e200,0,0", "1e-200,0,0"])
def test_extreme_axis_scales(axis, tmp_path, capsys):
    # the axis is a direction: its length must neither overflow nor vanish
    def rows(ax):
        out = tmp_path / "lines.csv"
        code = main(["bundle", "--density", "tilt", "--n", "50", "--seed", "2",
                     "--axis", ax, "--out", str(out)])
        assert code == 0
        return [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")]

    def audit(ax):
        code, out, _ = _run(capsys, ["gauge-audit", "--n", "2000", "--seed",
                                     "3", "--density", "foot-tilt",
                                     "--axis", ax])
        assert code == 0
        rep = json.loads(out)
        return rep["estimates"], rep["deviations"]

    assert rows(axis) == rows("1,0,0")
    assert audit(axis) == audit("1,0,0")


@pytest.mark.parametrize("axis", ["nan,0,0", "inf,0,0", "0,0,0"])
def test_gauge_audit_bad_axis_exits_2(axis, capsys):
    code, out, err = _run(capsys, ["gauge-audit", "--n", "100", "--seed", "1",
                                   "--density", "uniform", "--axis", axis])
    assert code == 2 and out == ""
    assert "axis" in err


def test_gauge_audit_rejects_threads():
    # gauge-audit does not shard, so it takes no --threads
    with pytest.raises(SystemExit) as exc:
        main(["gauge-audit", "--n", "100", "--threads", "2"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["--density", "tilt", "--kappa", "5"],
    ["--source", "bundle"],
], ids=["density-flags", "source-bundle"])
def test_sample_takes_no_density(argv, capsys):
    # density-weighted lines come from the bundle command alone
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "2", "--seed", "1", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# every strength flag a density does not take, on both density commands
_IGNORED = [(cmd, density, flag)
            for cmd in ("bundle", "gauge-audit")
            for density, (_, takes) in fiberline.cli._DENSITIES.items()
            for flag in ("kappa", "sigma", "beta") if flag not in takes]


@pytest.mark.parametrize("cmd,density,flag", _IGNORED,
                         ids=[f"{c}-{d}-{f}" for c, d, f in _IGNORED])
def test_density_refuses_flags_it_ignores(cmd, density, flag, capsys):
    code, out, err = _run(capsys, [cmd, "--density", density, f"--{flag}", "2",
                                   "--n", "10", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: --{flag} does not apply to --density {density}\n"


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fiberline", "sample", "--n", "2", "--seed", "8"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ux,uy,uz,qx,qy,qz" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "100000"],
    ["bundle", "--density", "tilt", "--n", "50000", "--format", "json"],
], ids=["csv", "json"])
def test_reader_closing_stdout_early_is_not_an_error(argv):
    # `fiberline sample ... | head -c 100`: the output is cut short, quietly
    proc = subprocess.Popen([sys.executable, "-m", "fiberline", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def _run_module(argv, check):
    """`python -m fiberline argv`, exit 0 expected, then the ``check`` code."""
    run = ("import runpy, sys\n"
           f"sys.argv = {['fiberline', *argv]!r}\n"
           "try:\n"
           "    runpy.run_module('fiberline', run_name='__main__')\n"
           "except SystemExit as exc:\n"
           "    assert exc.code == 0, exc.code\n")
    return subprocess.run([sys.executable, "-c", run + check],
                          capture_output=True, text=True)


def test_no_scipy_import_outside_halfspaces_and_wide_haar_test():
    # scipy costs about 0.3 s to import; only halfspace bodies (their
    # vertices) and haar-test above 41 bands (scipy's chdtrc past the
    # port's df <= 40) need it.  No run imports a thread pool's module
    # (about 7 ms): shards above the first run in forked processes.  The
    # digit kernel fiberline._g17 is loaded by the line writers alone:
    # imported along with `linespace`, it moved `experiments`' peak RSS by
    # 1.7 MB
    check = ("import sys\nassert 'scipy' not in sys.modules, 'scipy imported'\n"
             "assert 'concurrent.futures' not in sys.modules, 'pool imported'\n")
    kernel = "assert ('fiberline._g17' in sys.modules) == {}, 'kernel'\n"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import fiberline.cli\n" + check + kernel.format(False)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # the same after a full `python -m fiberline ...` run
    for argv, marker in (
        (["sample", "--n", "10"], "ux,uy,uz,qx,qy,qz"),
        (["sample", "--n", "10", "--format", "json"], '"ux": '),
        (["bundle", "--n", "10"], "ux,uy,uz,qx,qy,qz"),
        (["bundle", "--n", "10", "--format", "json"], '"ux": '),
        (["chord", "--body", "ball:0,0,0,1", "--radius", "2", "--n", "10"],
         '"hit_rate_z"'),
        (["chord", "--body", "box:0,0,0,1,1,1", "--radius", "1.8",
          "--n", "10"], '"hit_rate_z"'),
        (["haar-test", "--n", "1000"], '"bands": 20'),
        (["haar-test", "--n", "1000", "--bands", "41"], '"bands": 41'),
        (["bertrand", "--method", "midpoint", "--n", "1000"],
         '"experiment": "bertrand"'),
        (["gauge-audit", "--n", "2000"], '"experiment": "gauge-audit"'),
    ):
        lines = argv[0] in ("sample", "bundle")
        proc = _run_module(argv, check + kernel.format(lines))
        assert proc.returncode == 0, (argv, proc.stderr)
        assert marker in proc.stdout
    # the guard follows the boundary: 42 bands take scipy's chdtrc
    proc = _run_module(["haar-test", "--n", "1000", "--bands", "42"],
                       "import sys\nassert 'scipy.special' in sys.modules\n")
    assert proc.returncode == 0, proc.stderr
    assert '"bands": 42' in proc.stdout


def test_benchmark_tracer_finds_its_spans(tmp_path):
    # perfbench/tracer.py wraps the layers by name from outside the package;
    # a rename there would leave the benchmark's per-layer metrics empty
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), "spans.json",
         "--", "bundle", "--density", "tilt", "--n", "50", "--seed", "1",
         "--out", "x.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = {span[0] for span in spans}
    assert {"bundle.BundlePoint.__post_init__",
            "linespace.DirectedLine.__post_init__",
            "linespace.write_lines"} <= names, sorted(names)


@pytest.mark.parametrize("argv", [
    ["sample", "--radius", "1e7", "--n", "100000"],
    ["sample", "--source", "cosine", "--radius", "1e7", "--n", "20000"],
    ["chord", "--body", "ball:0,0,0,1e8", "--radius", "1.5e8", "--n", "20000"],
], ids=["sample", "cosine", "chord"])
def test_large_radius_runs(argv, tmp_path):
    # |u.foot| rounding here exceeds 1e-9, so an absolute orthogonality
    # bound would reject these lines and exit 2
    assert main([*argv, "--seed", "0", "--out", str(tmp_path / "out")]) == 0


def test_huge_radius_warns_nothing(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sample", "--radius", "1e308", "--n", "2", "--seed", "0",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert [str(w.message) for w in caught] == []


def test_huge_body_exits_2(capsys):
    # volumes, areas or squared distances of these would overflow: each is
    # refused before any draw, with one line and no numpy warning
    for body, radius in (("ball:0,0,0,1e150", "1e151"),
                         ("ball:0,0,0,1e307", "1e308"),
                         ("box:0,0,0,1e110,1e110,1e110", "2e110"),
                         ("ball:1e200,0,0,1", "2e200")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, ["chord", "--body", body, "--radius",
                                           radius, "--n", "1000", "--seed", "1"])
        assert (code, out, caught) == (2, "", []), (body, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
    code, out, _ = _run(capsys, ["chord", "--body", "ball:0,0,0,1e100",
                                 "--radius", "1.5e100", "--n", "1000",
                                 "--seed", "1"])
    assert code == 0 and "Infinity" not in out


def test_gauge_audit_huge_radius_is_finite(capsys):
    # the exit code is not checked: with the uniform density the broken
    # move keeps the feet uniform, so at n = 100 the control is not caught
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, out, err = _run(capsys, ["gauge-audit", "--density", "uniform",
                                    "--radius", "1e300", "--n", "100"])
    assert [str(w.message) for w in caught] == [] and err == ""
    assert "Infinity" not in out and "NaN" not in out


def test_gauge_audit_foot_bound_scales_with_radius(capsys):
    # the same audit as at radius 1 with --beta 4, scaled by 1e8: the
    # correct action's feet differ by rounding only, about 3e-16 R
    code, out, _ = _run(capsys, ["gauge-audit", "--density", "foot-tilt",
                                 "--radius", "1e8", "--beta", "4e-8",
                                 "--n", "5000", "--seed", "7"])
    dev = json.loads(out)["deviations"]
    assert code == 0
    assert 1e-10 < dev["max_foot"] <= 1e-10 * 1e8
    assert dev["broken_gap_sigma"] > 3.0
