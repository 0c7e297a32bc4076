"""Fixed pieces of work whose durations track the machine's current speed.

On a shared virtual machine the same code runs up to twice as fast at one
moment as at another, and 30-second windows differ by 15-30%.  Every
``INTERVAL_S`` of an untraced repetition the benchmark pauses the program's
whole process group, runs ``reference_round`` in the benchmark's own process
and records its CPU time.  Nothing of the program runs during a round, so the
round neither competes with the program nor lets it make progress.  The work
is like the program's inner loops (small numpy operations and interpreter
overhead) but does not depend on the program, so the ratio of the program's
time to the reference time cancels the machine's speed.

Set-up (starting Python and importing modules) speeds up and slows down with
the machine independently of those loops, so it has a reference of its own:
``startup_round``, a fresh interpreter importing a fixed set of standard
modules, timed just before each untraced repetition.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 0.0018  # typical reference_round CPU time where the bounds were set
STARTUP_S = 0.065  # typical startup_round wall time where the bounds were set
# -I -S: no environment variables, user site or site-packages, so the round
# does not depend on what is installed or on the checkout.
_STARTUP = [sys.executable, "-I", "-S", "-c",
            "import json, argparse, dataclasses, csv, hashlib, pathlib, decimal, fractions"]

_GATE = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def reference_round() -> None:
    state = np.zeros((2,) * 4, dtype=complex)
    state[(0,) * 4] = 1.0
    for i in range(100):
        qubit = i % 4
        psi = np.moveaxis(state, qubit, 0).reshape(2, -1)
        state = np.moveaxis((_GATE @ psi).reshape((2,) * 4), 0, qubit)


def startup_round() -> float:
    """Wall time of a fresh interpreter that imports some standard modules."""
    start = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run(_STARTUP, check=True)
    return time.perf_counter() - start
