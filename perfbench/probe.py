"""Machine-speed probe: a fixed pure-Python loop timed next to every op.

On a shared machine the speed of the same code drifts by a quarter or
more over tens of seconds, as neighbours come and go. The probe runs
between ops; an op's wall time multiplied by ``PROBE_REF_S`` over the
probe time around it is the op's time on a machine where the probe takes
``PROBE_REF_S``. That corrected time is what the end-to-end metrics
report; the table also shows the raw numbers.

The loop allocates no container objects, so it never triggers the cyclic
garbage collector and does not depend on the size of the program's heap.
"""

import time

PROBE_REF_S = 0.0002

_KEYS = tuple(f"key{i}" for i in range(64))
_D = dict.fromkeys(_KEYS, 1)
_S = "the quick brown fox jumps over the lazy dog; " * 4


def _round(n: int = 400) -> int:
    d = _D
    keys = _KEYS
    s = _S
    acc = 0
    for i in range(n):
        k = keys[i & 63]
        acc += d[k]
        d[k] = i & 7
        acc += len(s[i & 31 : (i & 31) + 24])
        acc += s.find("lazy", i & 15)
    return acc


def probe() -> float:
    """Seconds for one probe round, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _round()
        best = min(best, time.perf_counter() - t0)
    return best
