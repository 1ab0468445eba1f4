"""Numpy calls per warm squeezer call, layer by layer, on the three workloads' circuits.

Run from the repository root:

    PYTHONPATH=src python tests/count_calls.py

Each case runs once to fill its run plan, which keeps the squeezer layouts,
then again under ``sys.setprofile``.  A squeezer call is a call of the
values step ``squeezers._squeeze``, and every call that it makes into numpy
counts once: a numpy function or method implemented in C
(a ``c_call`` event) or written in Python (a ``call`` into numpy's
sources, but not into the ``*_dispatcher`` that numpy's function wrapper
calls first), but not the calls numpy makes inside it.  Ufunc calls and array
operators reach no profile event, so they are not counted.  The counts
depend on the Python and numpy versions, so the script only prints them;
it exits non-zero if a case makes another number of squeezer calls than its
circuit has squeezers, so a refactor cannot empty it silently.  Each
squeezer call is labelled with its mode pair, read from the case's run plan
(``protocols._plan``): its k-th squeezer is the k-th call.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from fockherald import InputCoefficients, protocols, run_nls, run_qutrit_teleport, squeezers, sweep
from fockherald.protocols import NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT

NUMPY_DIR = os.path.dirname(np.__file__)
SQUEEZER = squeezers._squeeze.__code__

COEFFS = InputCoefficients(0.6, 0.48, 0.64)

# each case, the key of its run plan (circuit, cutoff, nonzero coefficients)
# and the squeezer calls a run of it makes
CASES = {
    "nls, cutoff 64": (lambda: run_nls(COEFFS, cutoff=64), (NLS, 64, (True,) * 3), 2),
    "qutrit, gamma2 0.1, cutoff 8": (
        lambda: run_qutrit_teleport(COEFFS, 0.1, cutoff=8), (QUTRIT_TELEPORT, 8, (True,) * 3), 4),
    "qubit sweep, 24 points": (
        lambda: sweep("teleport-qubit", [0.01 + 0.2 * i / 23 for i in range(24)]),
        (QUBIT_TELEPORT, 1, (True, True, False)), 2),
}


def in_numpy(code) -> bool:
    return code.co_filename.startswith(NUMPY_DIR)


def is_numpy(func) -> bool:
    owner = getattr(func, "__self__", None)
    module = getattr(func, "__module__", None) or type(owner).__module__
    return module.split(".")[0] == "numpy"


def count_layers(case, key) -> list[tuple[str, int]]:
    """(mode pair, numpy calls) of each squeezer call of a warm ``case`` run,
    the k-th call labelled with squeezer k of the run plan ``key``."""
    case()
    plan = protocols._plan(*key)
    modes = plan.inputs[0].modes
    pairs = [f"{modes[ia]}, {modes[ib]}" for ia, ib, _ in plan.squeezers]
    layers: list[int] = []
    active = []  # the squeezer frame being counted, if any
    inside = [0]  # numpy C calls under way: what they call is numpy's own

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is SQUEEZER:
            layers.append(0)
            active.append(frame)
        elif not active:
            return
        elif event == "return" and frame is active[-1]:
            active.pop()
        elif event.startswith("c_") and is_numpy(arg) and not in_numpy(frame.f_code):
            if event == "c_call":
                layers[-1] += not inside[0]
                inside[0] += 1
            else:
                inside[0] -= 1
        elif (event == "call" and not inside[0] and in_numpy(frame.f_code)
              and not in_numpy(frame.f_back.f_code)
              and not frame.f_code.co_name.endswith("_dispatcher")):
            layers[-1] += 1

    sys.setprofile(profile)
    try:
        case()
    finally:
        sys.setprofile(None)
    return [(pairs[k] if k < len(pairs) else "not in the plan", n) for k, n in enumerate(layers)]


def main() -> int:
    print(f"numpy {np.__version__}, Python {sys.version.split()[0]}")
    wrong = []
    for name, (case, key, calls) in CASES.items():
        layers = count_layers(case, key)
        print(f"{name}: {sum(n for _, n in layers)} numpy calls in {len(layers)} squeezer calls")
        for i, (pair, n) in enumerate(layers, 1):
            print(f"  layer {i} ({pair}): {n}")
        if len(layers) != calls:
            wrong.append(f"{name}: {len(layers)} squeezer calls, expected {calls}")
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
