"""Reference-speed scaling of wall times measured on a shared host.

On a small shared virtual machine the core's speed changes with the
neighbours' load: identical ops run up to 1.8x slower for tens of seconds
at a time, which moves a 30 s median by 20-30% from run to run.  The
benchmark therefore times a fixed pure-Python kernel (dict updates on
tuple keys, complex arithmetic, a sort: the same interpreter work as the
library's hot loops) right before and after every op, and scales the op's
wall time by ``REF_NOMINAL_S / reference time``.  The scaled time is the
op's latency on a core that runs the kernel in ``REF_NOMINAL_S``; neighbour
load slows op and kernel alike and cancels, while a change to the library
moves only the op.  The kernel is part of the benchmark and never changes
with the library.
"""

from __future__ import annotations

from time import perf_counter

# The kernel's time on an idle core of the 2-vCPU Intel Xeon host the
# benchmark's bounds were measured on; it only sets the scale of the units.
REF_NOMINAL_S = 0.002


def reference_kernel(n: int = 6000) -> int:
    acc: dict[tuple[int, int, int], complex] = {}
    x = 1.0
    for i in range(n):
        key = (i & 63, (i >> 6) & 31, 3)
        acc[key] = acc.get(key, 0j) + x * 0.5
        x = x * 1.0000001 + 1e-9
    return len(sorted(acc.items()))


def time_reference() -> float:
    """Wall seconds of one reference-kernel run."""
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0
