"""Fixed reference job that measures the host's current speed.

It does the kinds of work a fiberline invocation does, in a fresh
interpreter: start up, import numpy, run vectorised float math, and
%-format floats.  It never imports fiberline, so no change to the program
can move its time.  run.py runs it between the timed invocations and
divides their wall times by its own.
"""
import numpy as np

x = np.arange(1, 300_001, dtype=np.float64) * 1e-6
acc = 0.0
for _ in range(6):
    y = np.sqrt(np.sin(x) ** 2 + np.log(x + 1.0))
    acc += float(np.sort(y)[::1000].sum())
text = ",".join("%.17g" % v for v in y[:30_000])
if not (np.isfinite(acc) and len(text) > 0):
    raise SystemExit(1)
