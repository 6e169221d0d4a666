"""Record the benchmark's reference data again.

    python3 perfbench/record.py digests   # output digests at the default seed
    python3 perfbench/record.py seeds     # seed pool of the gated workloads

``digests.json`` holds the SHA-256 of every workload output at the default
seed.  It changes only with a change that alters output bytes on purpose,
which then records it again and says so.

``seed_pool.json`` holds, per workload in ``run.POOLED``, seeds at which
every invocation of a round passes its statistical gates (3 sigma, or
p > 1e-3) at the recording commit.  Each gate fails by design for about
0.3% of seeds, so about 2% of arbitrary seeds fail some gate of the
`experiments` round; such a failure says nothing about the code.  The
rejected seeds are kept in the file with the reason, so the rejection rate
can be compared with that design rate.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run

POOL_SIZE = 32


def _round(workload: str, seed: int):
    scratch = os.path.join(run.OUT_DIR, "record")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        with run.Runner(scratch) as runner:
            runner.verify_origin()
            return runner.round(run.WORKLOADS[workload], seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def record_digests() -> None:
    digests = {}
    for workload in run.WORKLOADS:
        for o in _round(workload, run.DEFAULT_SEED):
            if not o.ok:
                raise SystemExit(f"{workload}/{o.call.label} failed at the "
                                 f"default seed: {o.reason}")
            digests[o.call.label] = o.digest
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "digests": digests}, fh, indent=2)
        fh.write("\n")


def record_seeds() -> None:
    pools = {}
    for workload in run.POOLED:
        kept, rejected = [], {}
        seed = 0
        while len(kept) < POOL_SIZE:
            seed += 1  # the default seed 0 is the digest seed
            failed = [f"{o.call.label}: {o.reason}"
                      for o in _round(workload, seed) if not o.ok]
            if failed:
                rejected[str(seed)] = failed
            else:
                kept.append(seed)
            print(f"{workload} seed {seed}: {'; '.join(failed) or 'pass'}",
                  flush=True)
        pools[workload] = {"kept": kept, "rejected": rejected}
    with open(run.SEED_POOL, "w", encoding="utf-8") as fh:
        json.dump(pools, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    what = sys.argv[1:]
    if what == ["digests"]:
        record_digests()
    elif what == ["seeds"]:
        record_seeds()
    else:
        sys.exit(__doc__)
