"""The benchmark's workloads: seeded input streams, one op each, and its checks.

Each workload draws its inputs from ``random.Random("<name>:<seed>")``, so the
same seed gives the same stream; the library receives only the generated
numbers.  ``op`` is the timed request; ``check`` runs after the clock stops
and raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stdout

FIDELITY_FLOOR = 1.0 - 1e-6
PROB_RTOL = 1e-9
NLS_CUTOFF = 64
QUTRIT_CUTOFF = 8
SWEEP_POINTS = 24


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _unit_coeffs(rng: random.Random) -> tuple[complex, complex, complex]:
    xs = [rng.gauss(0.0, 1.0) for _ in range(6)]
    inv = 1.0 / math.sqrt(sum(x * x for x in xs))
    return tuple(complex(xs[2 * i] * inv, xs[2 * i + 1] * inv) for i in range(3))


def _check_probability(measured: float, expected: float, what: str) -> None:
    if not abs(measured - expected) <= PROB_RTOL * abs(expected):
        raise CheckFailed(f"{what}: probability {measured!r} != closed form {expected!r}")


def teleport_gamma1(gamma2: float) -> float:
    return gamma2 / (1.0 - 2.0 * gamma2) ** 2


class Workload:
    name = ""

    def __init__(self, lib, seed: int, stream: str = ""):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}{stream}")

    def next_input(self):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, response) -> None:
        raise NotImplementedError

    def count_response(self, response, counts: dict) -> None:
        """Add response-size counters the library spans cannot see."""


class NlsGate(Workload):
    """``run_nls`` at cutoff 64 with the solved couplings, then ``to_json``.

    Strong coupling (gamma1 ~ 0.757) at a high cutoff gives long raising
    series on a 3-mode state: the squeezer kernel and heralding over ~1.9k
    patterns dominate.  The couplings repeat on every request, so a
    per-parameter cache would take effect here and nowhere else.
    """

    name = "nls_gate"

    def __init__(self, lib, seed, stream=""):
        super().__init__(lib, seed, stream)
        self.params = lib.protocols.solve_nls_params()

    def next_input(self):
        return _unit_coeffs(self.rng)

    def op(self, coeffs):
        p = self.lib.protocols
        result = p.run_nls(p.InputCoefficients(*coeffs), self.params, NLS_CUTOFF)
        return result, result.to_json()

    def check(self, coeffs, response):
        result, text = response
        if not result.fidelity >= FIDELITY_FLOOR:
            raise CheckFailed(f"nls fidelity {result.fidelity!r}")
        g1, g2 = self.params.gamma1, self.params.gamma2
        w0, w1, w2 = (abs(c) ** 2 for c in coeffs)
        expected = (1 - g1) * (1 - g2) * (
            g2 * w0 + g1 * (1 - 2 * g2) ** 2 * w1 + g1 * g1 * g2 * (3 * g2 - 2) ** 2 * w2
        )
        _check_probability(result.success_probability, expected, "nls")
        _check_probability(result.closed_form_probability, expected, "nls closed form")
        if json.loads(text)["success_probability"] != result.success_probability:
            raise CheckFailed("nls JSON response disagrees with the result")


class QutritTeleport(Workload):
    """``run_qutrit_teleport`` at cutoff 8, gamma2 uniform on [0.02, 0.24].

    Six polarized modes, four squeezers through two type-II PDC layers and
    a 4-mode herald: many short-tuple terms, so the ``states`` constructor
    and dict work weigh most.  Couplings never repeat, and op size varies
    with the coupling, so p90 carries information.
    """

    name = "qutrit_teleport"

    def next_input(self):
        return _unit_coeffs(self.rng), self.rng.uniform(0.02, 0.24)

    def op(self, inp):
        coeffs, gamma2 = inp
        p = self.lib.protocols
        result = p.run_qutrit_teleport(p.InputCoefficients(*coeffs), gamma2, QUTRIT_CUTOFF)
        return result, result.to_json()

    def check(self, inp, response):
        (c0, c1, c2), g2 = inp
        result, text = response
        if not result.fidelity >= FIDELITY_FLOOR:
            raise CheckFailed(f"qutrit fidelity {result.fidelity!r} at gamma2={g2!r}")
        g1 = teleport_gamma1(g2)
        expected = (1 - g1) ** 2 * (1 - g2) ** 2 * (
            g2 * g2 * abs(c0) ** 2
            + g1 * (1 - 2 * g2) ** 2 * g2 * (abs(c1) ** 2 + abs(c2) ** 2)
        )
        _check_probability(result.success_probability, expected, "qutrit")
        _check_probability(result.closed_form_probability, expected, "qutrit closed form")
        if json.loads(text)["success_probability"] != result.success_probability:
            raise CheckFailed("qutrit JSON response disagrees with the result")


class CliSweep(Workload):
    """In-process ``fockherald sweep teleport-qubit`` over 24 points, CSV parsed.

    ``a`` is uniform on [0.01, 0.03] and the grid spans [a, a + 0.2]: many
    small runs at cutoff 16, so fixed per-run cost in ``protocols`` (circuit,
    target, result) and in ``cli`` (argparse, CSV) weighs more than on the
    other workloads.
    """

    name = "cli_sweep"

    def next_input(self):
        a = self.rng.uniform(0.01, 0.03)
        return ["sweep", "teleport-qubit", "--start", repr(a), "--stop", repr(a + 0.2),
                "--points", str(SWEEP_POINTS)]

    def op(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.lib.cli.main(argv)
        return code, buf.getvalue()

    def check(self, argv, response):
        code, text = response
        if code != 0:
            raise CheckFailed(f"sweep exited with {code}")
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != SWEEP_POINTS + 1:
            raise CheckFailed(f"sweep printed {len(rows) - 1} rows, expected {SWEEP_POINTS}")
        start, stop = float(argv[3]), float(argv[5])
        step = (stop - start) / (SWEEP_POINTS - 1)
        for i, row in enumerate(rows[1:]):
            try:
                g2, prob = float(row[0]), float(row[2])
            except (IndexError, ValueError) as exc:
                raise CheckFailed(f"sweep row {i} does not parse: {row!r}") from exc
            if not abs(g2 - (start + i * step)) <= 1e-12:
                raise CheckFailed(f"sweep row {i} has gamma2 {g2!r}")
            g1 = teleport_gamma1(g2)
            expected = (1 - g1) * (1 - g2) * 0.5 * (g2 + g1 * (1 - 2 * g2) ** 2)
            _check_probability(prob, expected, f"sweep row {i}")

    def count_response(self, response, counts):
        counts["cli.stdout_bytes"] += len(response[1])


WORKLOADS = {cls.name: cls for cls in (NlsGate, QutritTeleport, CliSweep)}
