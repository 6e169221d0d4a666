"""Starts the benchmark's child processes from a small process.

On exec, Linux folds the peak RSS of the address space the process leaves
into the process's max-RSS.  A child that the benchmark forks (or vforks)
itself leaves the benchmark's own address space, so it would report the
benchmark's peak RSS as its own.  This helper imports only the standard
library, so the children it starts report their own peak.

Protocol: one JSON request per line on standard input,

    {"cmd": [...], "cwd": "...", "env": {...}, "timeout_s": 120}

and one JSON reply per line on standard output,

    {"code": 0, "wall_s": 1.23, "maxrss_kb": 123456, "stderr": "..."}

The helper exits when its standard input closes.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    """Run one command to completion, reaping it with wait4 for its rusage."""
    with open(os.path.join(req["cwd"], "stderr.txt"), "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(req["timeout_s"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()[-4000:].decode("utf-8", "replace")
    return {"code": proc.returncode, "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss, "stderr": stderr}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
