"""Machine-speed calibration for timings taken on a shared machine.

On a small virtual machine whose physical cores other tenants also load,
the speed of the same deterministic work drifts by 10-30% over tens of
seconds to minutes; process CPU time moves with wall time, so the drift is
slower execution, not descheduling.  No statistic over one run's own
timings removes a drift that outlasts the run.  So the benchmark times a
fixed loop of its own (pure Python and small numpy arrays, no plevylab
code) around every op and scales the op's time by how much slower that loop
ran than its reference time ``REF_CHUNK_S``:

    op_ref_s = op_s * REF_CHUNK_S / chunk_s

where ``chunk_s`` is the loop's mean time in the blocks just before and
just after the op.  A change to plevylab moves ``op_s`` and leaves
``chunk_s`` alone, so the scaled time moves with it one to one; a slow
spell of the machine slows both and cancels out.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the loop's time on the machine the benchmark was written on in its fast
# spells; it only sets the scale of the reported times
REF_CHUNK_S = 250e-6

# a calibration block lasts this share of the op before it, at least
# MIN_BLOCK_S
SHARE = 0.1
MIN_BLOCK_S = 0.002

_X = np.linspace(0.0, 1.0, 32)


def _chunk():
    s = 0.0
    for i in range(100):
        s += float(np.dot(np.sin(_X * i), _X))
    return s


def block(seconds):
    """Run the loop for at least ``seconds``; return its mean time."""
    n = 0
    t0 = perf_counter()
    while True:
        _chunk()
        n += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / n


def block_after(op_s):
    return block(max(MIN_BLOCK_S, SHARE * op_s))


def scale(op_s, chunk_before, chunk_after):
    """``op_s`` scaled to the reference speed of the loop."""
    return op_s * REF_CHUNK_S * 2.0 / (chunk_before + chunk_after)
