"""Host-speed calibration: task times scaled to a reference host speed.

On a shared host the speed of the same code drifts by up to a factor of two
within minutes, with the load of the other tenants.  A closed loop therefore
times a short, fixed calibration step next to its tasks and scales each
task's wall time by ``reference / c``, where ``c`` is the mean time of the
calibration steps just before and just after the task.  The result is the
task's time on a host that runs the step in ``reference`` seconds.  Neither
step calls expfun, so a change to the library moves the scaled times and not
the calibration.

Two steps, because no one step tracks both kinds of work:

- in-process tasks (``scan``, ``pointwise``): ``chunk()``, products and
  solves of 7 x 7 matrices and small Python loops over numpy values, the mix
  of the library's evaluation.  It runs between tasks at least every
  ``EVERY_S`` seconds.  Over 2-second windows the spread of raw times was
  0.18 to 0.57 of their median, that of scaled times 0.03 to 0.065.  It does
  not track the start of a child interpreter.
- child processes (``cli`` tasks and the set-up probes): a bare
  ``python -c pass`` before every child and after the last.  Over windows of
  five ``import expfun.cli`` children the spread fell from 0.31 to 0.066.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Time of one chunk on the reference host: about its fastest time on the
#: 2-core Xeon virtual machine the benchmark was tuned on.
CHUNK_REFERENCE_S = 4.0e-3

#: Time of a bare interpreter start on the same reference host.
START_REFERENCE_S = 5.0e-2

#: Longest stretch of in-process tasks between two chunks.
EVERY_S = 0.2

_A = np.eye(7) + 0.01 * np.arange(49.0).reshape(7, 7)
_B = np.ones(7)
_I = np.eye(7)


def chunk() -> float:
    """Wall time of one calibration chunk."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(300):
        c = _A @ _A
        acc += np.linalg.solve(c + i * _I, _B)[0]
        acc += sum(float(v) for v in _B)
    return perf_counter() - t0


def scales(steps: list, before: list, reference: float) -> list:
    """Per-task factors ``reference / c``; ``before[i]`` indexes the step before task i."""
    last = len(steps) - 1
    return [2.0 * reference / (steps[k] + steps[min(k + 1, last)]) for k in before]
