"""Host speed probe: a fixed reference computation timed between jobs.

The reference host is a shared VM whose speed drifts by up to 2x over
minutes. The probe is a fixed computation of the same kind as the program's
hot paths, a Python loop over small numpy arrays, and it uses nothing from
etcsim, so a change to the program does not change the probe's time. Timed
right before and right after a job, it gives the host's speed while the job
ran. Dividing the job's wall time by that probe time, and multiplying by
NOMINAL_S, reports the job in seconds at the host's usual speed.
"""

import time

import numpy as np

# The probe's time on the reference host at its usual speed. Scaling by it
# keeps the reported times close to the raw ones; only their ratio to the
# probe matters for comparing two commits.
NOMINAL_S = 0.1
_ROUNDS = 8000
_P = np.array([[2.0, 0.3], [0.3, 1.0]])
_A = np.array([[0.0, 1.0], [-2.0, -3.0]])


def probe() -> float:
    """Seconds the reference computation takes now."""
    rng = np.random.default_rng(0)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        x = rng.standard_normal(2)
        x = x * (1.0 / float(np.linalg.norm(x)))
        acc += float(x @ _P @ x) * float(np.linalg.norm(_A @ x))
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("host probe computed a wrong result")
    return elapsed


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at usual speed."""
    return seconds * NOMINAL_S / probe_s
