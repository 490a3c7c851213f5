"""Reference process: how fast this machine runs Python at this moment.

The benchmark's host is shared.  Its speed switches between a fast and a
slow state, about 1.45x apart, many times a minute, and the share of slow
time drifts over minutes.  CPU time moves with wall time, so the process is
not descheduled; it runs slower.  The client therefore times one fresh
reference process before the first invocation and then whenever the
invocations since the last one have run for ``REF_GAP_S``.  It scales each
invocation's wall time by ``REF_S`` over the mean time of the references
that ran within ``REF_WINDOW_S`` of it.  The state changes faster than a
verify call lasts, so a window of a few references estimates the speed a
call saw better than the two right around it.  Reported end-to-end times
are thus seconds on a machine on which the reference process takes
``REF_S`` seconds.

The reference is independent of treehopf, so a change to treehopf cannot
move it.  It does what a treehopf call does, in smaller measure: it starts
an interpreter, imports the standard modules treehopf imports, and runs a
block of pure Python with nested tuples as dict keys and ``Fraction``
arithmetic.

Run as a script, this file is the reference process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

REF_S = 0.110        # the reference's time in a fast phase of a 2-vCPU x86_64 VM
REF_GAP_S = 0.3      # least child time between two references
REF_WINDOW_S = 1.5   # references this close to a call scale it
ROUNDS = 7000


def _block() -> int:
    import argparse, dataclasses, functools, itertools, json  # noqa: E401,F401
    from fractions import Fraction
    combo: dict = {}
    for i in range(ROUNDS):
        key = ((i % 7,), (i % 11, (i % 3,)))
        combo[key] = combo.get(key, 0) + Fraction(i % 5 + 1, i % 4 + 1)
    return len(combo)


def reference_s() -> float:
    """Wall time of one reference process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True, timeout=60,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(0 if _block() == 231 else 1)
