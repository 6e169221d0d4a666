"""Golden bytes: SHA-256 of CLI output for canonical small invocations.

The README promises that, on one machine, the same seed and the same
``--threads`` give the same bytes.  These digests pin that promise across
commits: a change that moves any output byte of these commands fails here,
and must either be fixed or come with new digests and a stated reason.

Each command writes to ``--out out`` (a relative path, so the manifest's
command line is the same in every temporary directory).  To print fresh
digests after an intended output change, run this file as a script.
"""
import hashlib
import json
import platform

import pytest

import fiberline._blocks
from fiberline.cli import main
from fiberline.randkit import RngStream

# sha256 of the first 64 uniforms of RngStream(42, 7), as float64 bytes
RNG_42_7_SHA = \
    "275757174066d9c05915633f61b6135fa0402c22bdcde33b7e2061bcce55dacc"

# a regular tetrahedron: its unit normals are not axis-aligned, so the chord
# kernel's products round, unlike a box's
TETRAHEDRON = [{"normal": n, "offset": 1.0} for n in
               ([1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1])]
# the unit cube as six halfspaces: axis-aligned normals through the general
# halfspace path, where the products are exact
CUBE = [{"normal": n, "offset": c} for n, c in
        (([1, 0, 0], 1), ([-1, 0, 0], 0), ([0, 1, 0], 1), ([0, -1, 0], 0),
         ([0, 0, 1], 1), ([0, 0, -1], 0))]

# (name, argv, expected exit code, sha256 of the --out file)
GOLDEN = [
    ("sample-csv-t1",
     ["sample", "--n", "200", "--seed", "42"], 0,
     "439a078184fd5c7eb133e97b403dc3fb39c968357187212a486cd2b80e21bf23"),
    ("sample-csv-t2",
     ["sample", "--n", "200", "--seed", "42", "--threads", "2"], 0,
     "49af0c053e4eff2c78556568f0cca8cbf23d23fb80379c81e466e7fed5c8fba0"),
    ("sample-json-t1",
     ["sample", "--n", "200", "--seed", "42", "--format", "json"], 0,
     "82266e2eadeef7e5dc8d6e14e5552de7782c0d792a998085c48ee98f57e425e0"),
    ("sample-json-t2",
     ["sample", "--n", "200", "--seed", "42", "--format", "json",
      "--threads", "2"], 0,
     "e5ea601eca48f9b97206b3a2ae3c7501f083294415358bbab5b19e51cd9e0828"),
    ("sample-csv-n0",
     ["sample", "--n", "0", "--seed", "42"], 0,
     "672388e9ea9d4b272fa57f32682c239cb18248c2cfb8cb0a5dd9deaf7e79a2d7"),
    ("sample-json-n0",
     ["sample", "--n", "0", "--seed", "42", "--format", "json"], 0,
     "8edbf370bf9b331140a017aaf591d65d3ae4cafcbf4875d040282331a5e20bc7"),
    ("sample-csv-n1",
     ["sample", "--n", "1", "--seed", "42"], 0,
     "cdfeef99ccfe49a235bab63bfb551bbc6bc044e49ce59877d5b737f44ce986cf"),
    ("sample-json-n1",
     ["sample", "--n", "1", "--seed", "42", "--format", "json"], 0,
     "774b82d0280f7ab7431eb2f7f37ce86bafd4956fdd0061d946042973b061afbc"),
    ("sample-cosine",
     ["sample", "--source", "cosine", "--radius", "2", "--n", "200",
      "--seed", "5"], 0,
     "03708d516835b1c03f53d3abc3aac8ab96f501bccd620e6576d7810e8d5ee260"),
    ("bundle-tilt-json",
     ["bundle", "--density", "tilt", "--kappa", "2", "--format", "json",
      "--n", "200", "--seed", "3"], 0,
     "6263dbe52d08ab0ffdfe37b93c4955690f52fee3433dc29a3bfcf4f09db07481"),
    # two shards: the manifest's acceptance rate sums both streams' counts
    ("bundle-tilt-json-t2",
     ["bundle", "--density", "tilt", "--kappa", "2", "--format", "json",
      "--n", "200", "--seed", "3", "--threads", "2"], 0,
     "10edb9085b0ad64d996ac8231336d173c3bb9cc21152ba4a4a3ee17286a7ecb4"),
    # the CSV path: the manifest comment carries parameters and acceptance
    ("bundle-radial-csv",
     ["bundle", "--density", "radial", "--sigma", "0.3", "--n", "200",
      "--seed", "3"], 0,
     "04ae2e18aaa762f291dc9f2d318abd61eb8073bb713ee8dab06b52543c3b3a7a"),
    ("bundle-tilt-radial-csv-t2",
     ["bundle", "--density", "tilt-radial", "--kappa", "2", "--sigma", "0.4",
      "--n", "200", "--seed", "3", "--threads", "2"], 0,
     "4ac277722548b2bf6ce91d64e27ecade0bfc22520cbdf0e4339ea887b9ef0086"),
    ("haar-test",
     ["haar-test", "--n", "5000", "--seed", "5"], 0,
     "8314f655a3852c7e4185ee26fda9d1c5c7e2ff0c90efa84b08675b07f2057e82"),
    # the chi-square p-value, digests recorded while scipy computed it at
    # every band count: at a = bands/2 = 0.5 and 1, where these seeds put
    # x = stat/2 at 0.71 and 0.96, the igamc series of fiberline._chi2; at
    # 41 bands (a = 20), the last df it ports; at 42, where scipy still does
    ("haar-test-bands2",
     ["haar-test", "--n", "5000", "--seed", "5", "--bands", "2"], 0,
     "50d3bbd3bb75ec9bb913eac7acafb1341be8fb912632dcdd6521651ab7454c15"),
    ("haar-test-bands3",
     ["haar-test", "--n", "5000", "--seed", "6", "--bands", "3"], 0,
     "c24a6b497873b25ee41fe4b63bbeff8311e634affc30b1b9607366c485e028ad"),
    ("haar-test-bands41",
     ["haar-test", "--n", "5000", "--seed", "5", "--bands", "41"], 0,
     "e293e90735d7dc82399e1e9e17abdc04744b92467dde77cd8b6adcc120a3de1c"),
    ("haar-test-bands42",
     ["haar-test", "--n", "5000", "--seed", "5", "--bands", "42"], 0,
     "2cb3d71f2c98c26a26b69a98d189808820cb48262ad48a3d3c65e52568fa87b9"),
    ("chord-box",
     ["chord", "--body", "box:0,0,0,1,1,1", "--radius", "1.8",
      "--n", "20000", "--seed", "1"], 0,
     "e5cb818307e2bda4905ac356428b69c1ac48aa7ae0b6c265484eef5e647fe365"),
    ("chord-tetrahedron-t1",
     ["chord", "--body", "halfspaces:@tetrahedron.json", "--radius", "1.8",
      "--n", "20000", "--seed", "4"], 0,
     "068e5d9e5dbcc17ed4a046135ed382dddd938998e55f9f5031955b1fe83912c9"),
    ("chord-tetrahedron-t2",
     ["chord", "--body", "halfspaces:@tetrahedron.json", "--radius", "1.8",
      "--n", "20000", "--seed", "4", "--threads", "2"], 0,
     "78e6fa723dd8c41bbb313caf98764c47e17a2b39eef0052713b17f266a843648"),
    ("chord-cube-halfspaces",
     ["chord", "--body", "halfspaces:@cube.json", "--radius", "1.8",
      "--n", "20000", "--seed", "4"], 0,
     "ca57de86ad5fbf1d6da5d0deca1ac5efceff285c2d73783a00d6c43ee1079c0d"),
    ("bertrand-midpoint",
     ["bertrand", "--method", "midpoint", "--n", "20000", "--seed", "3"], 0,
     "162ca529db6798718d9b52b5f87393f58d1013690caaa3033243d6b7225e545c"),
    # the shard scheduler: uneven shard sizes (67, 67, 66); two shards of
    # frames; more shards than a 2-CPU host has workers, so one worker runs
    # several of them
    ("bertrand-midpoint-t3",
     ["bertrand", "--method", "midpoint", "--n", "200", "--seed", "3",
      "--threads", "3"], 0,
     "161b0400cdaef70ebd1e5f8bea65436be30c085467b27a513666d088db5e9fb9"),
    ("haar-test-t2",
     ["haar-test", "--n", "200", "--seed", "5", "--threads", "2"], 0,
     "3daa6cd4c8c540a6ffe28f79aefe38ee6898d2d440ad6c582871ee9a38951030"),
    ("chord-box-t5",
     ["chord", "--body", "box:0,0,0,1,1,1", "--radius", "1.8",
      "--n", "200", "--seed", "1", "--threads", "5"], 0,
     "67ebeb730aa3112d57bead6ebf2c2685275c6afdaabbcb9ba3003ad6e61f6886"),
    ("gauge-foot-tilt",
     ["gauge-audit", "--density", "foot-tilt", "--n", "5000",
      "--seed", "7"], 0,
     "3918f1f34edb80e4b1abb65489e462ab96ba2e13fdae5e097502d8ec51ac1ba1"),
    # the negative control goes undetected, so these audits report failure
    ("gauge-tilt-direction",
     ["gauge-audit", "--density", "tilt", "--kappa", "2", "--estimator",
      "direction-axis2", "--n", "2000", "--seed", "11"], 1,
     "9684821cb1d3839a67200c9f35c3563648c3f6ac9e9eee9112fdf24435f0ad7b"),
    ("gauge-uniform-chord",
     ["gauge-audit", "--density", "uniform", "--estimator", "chord-ball",
      "--n", "2000", "--seed", "11"], 1,
     "86a99b6b9d1bda07ec289893a88c3c0584ba61dfbe5edcae985210b20d52d8ed"),
]


def _cpu() -> str:
    """CPU model and the SIMD flags numpy's math kernels dispatch on."""
    model, flags = platform.machine(), []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info = fh.read()
    except OSError:
        return model
    for line in info.splitlines():
        key, _, val = line.partition(":")
        if key.strip() == "model name":
            model = val.strip()
        elif key.strip() == "flags":
            flags = [f for f in val.split()
                     if f.startswith(("avx", "fma", "sse4"))]
            break
    return f"{model}; {' '.join(flags)}"


def _digest(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tetrahedron.json").write_text(json.dumps(TETRAHEDRON))
    (tmp_path / "cube.json").write_text(json.dumps(CUBE))
    monkeypatch.delenv("FIBERLINE_SEED", raising=False)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    code = main([*argv, "--out", "out"])
    return code, hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest()


@pytest.mark.parametrize("name,argv,exit_code,sha",
                         GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_bytes(name, argv, exit_code, sha, tmp_path, monkeypatch):
    code, got = _digest(argv, tmp_path, monkeypatch)
    assert code == exit_code
    # last-ulp differences in numpy's SIMD math are CPU dependent; name the
    # CPU so a mismatch on new hardware can be told from a regression
    assert got == sha, f"{name}: output bytes changed (cpu: {_cpu()})"


# Row-wise stages run in blocks of fiberline._blocks._BLOCK rows; the golden
# n barely cross one.  Block 1 puts a boundary between every two rows (run on
# the line files, whose draws are short); block 37 is odd, so a gaussian pair
# straddles a boundary again and again, and the kernels, the tetrahedron's
# fixed-order sums among them, see blocks of 37 rows and a shorter last one.
BLOCK_CASES = [(g, 1) for g in GOLDEN if int(g[1][g[1].index("--n") + 1]) <= 200] \
    + [(g, 37) for g in GOLDEN]


@pytest.mark.parametrize("case,block", BLOCK_CASES,
                         ids=[f"{g[0]}-block{b}" for g, b in BLOCK_CASES])
def test_golden_bytes_do_not_depend_on_block(case, block, tmp_path,
                                             monkeypatch):
    name, argv, exit_code, sha = case
    monkeypatch.setattr(fiberline._blocks, "_BLOCK", block)
    assert _digest(argv, tmp_path, monkeypatch) == (exit_code, sha), name


def test_golden_rng_words():
    words = RngStream(42, 7).uniforms(64).tobytes()
    assert hashlib.sha256(words).hexdigest() == RNG_42_7_SHA


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for name, argv, _, _ in GOLDEN:
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            code, got = _digest(argv, Path(d), mp)
        print(f"{name}: exit {code}, {got}")
