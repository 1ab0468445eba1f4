"""Same-bytes corpus: one SHA-256 over the library's observable outputs.

Run from the repository root on two checkouts and compare the last line:

    PYTHONPATH=src python tests/same_bytes.py

A refactor that claims to change no output must print the same ``corpus``
hash as its parent.  The corpus covers the three runners (``to_json``,
``herald_distribution``, target and output states as signed amplitude
bytes) over cutoffs 0-64 with zero, signed-zero and NaN coefficients and
their error messages, ``sweep`` grids, ``optimize_teleport_success``, the CLI
(``run`` in every format, ``sweep``, ``params``, ``oracle-check``) and seeded
random kernel cases on single states and on batches, among them batches of
a sweep chunk's size (24 and 32 states at cutoffs 1 and 16, with and without
a support).  A batch is hashed without the masked rows that no state
holds (see ``Section.state``).  The ``warm`` section runs kernels and
runners right after other runs filled the run plans, which keep the
squeezer layouts, and again after clearing them.  Each section's hash is
printed too, so a difference can be located.  Cases whose outcome
depends on a non-integer cutoff are hashed apart, on the
``non-integer-cutoff`` line, and are not part of ``corpus``.

``--cases PATH`` also writes one line per case: its section, its context
(the runner or protocol, coefficients, cutoff or grid) and a SHA-256 of its
items.  The printed hashes do not depend on it, and a plain ``diff`` of the
files from two checkouts lists the cases that moved:

    PYTHONPATH=src python tests/same_bytes.py --cases cases.txt

The ``heralded`` line, also apart from ``corpus``, hashes only what the
herald decides and no cutoff at or above the herald cutoff changes:
probability, fidelity and closed form, output and target rows and
amplitudes of the runners at their default cutoff and at explicit cutoffs
that decide the herald, the probability and fidelity of sweep rows, and
optimizer results.  It stays equal when a change moves a default cutoff
within that range.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import warnings

import numpy as np

from fockherald import (
    DetectionPattern,
    InputCoefficients,
    ModeLabel,
    PdcSpec,
    PureState,
    SqueezerSpec,
    StateBatch,
    apply_two_mode_squeezer,
    apply_type2_pdc,
    fidelity,
    fix_global_phase,
    herald_weights,
    inner_product,
    make_basis_state,
    normalize,
    optimize_teleport_success,
    project,
    run_nls,
    run_qubit_teleport,
    run_qutrit_teleport,
    superpose,
    sweep,
    tensor,
)
from fockherald import protocols, squeezers
from fockherald.cli import main

NAN = math.nan
COEFFS = [
    InputCoefficients(0.6, 0.48, 0.64),
    InputCoefficients(0.6, 0.8),
    InputCoefficients(0.6j, -0.8),
    InputCoefficients(1.0, 0.0),
    InputCoefficients(0.0, 1.0, 0.0),
    InputCoefficients(0.0, 0.0, 1.0),
    InputCoefficients(-0.0, 1.0, -0.0),
    InputCoefficients(complex(0.6, -0.0), complex(-0.0, 0.8)),
    InputCoefficients(0.6, 0.8, 0.3),
    InputCoefficients(3.0, 4.0),
    InputCoefficients(0.0, 0.0, 0.0),
    InputCoefficients(NAN, 1.0),
    InputCoefficients(1.0, complex(0.5, NAN), 0.2),
]


class Section:
    """A named SHA-256 fed with the reprs and bytes of outcomes."""

    def __init__(self, name: str):
        self.name = name
        self.hash = hashlib.sha256()
        self.cases = []  # (context, SHA-256 of the case's items)

    def case(self, *context, hashed: bool = True) -> None:
        """Start a case labelled ``context``, which joins the hash unless not ``hashed``."""
        self.cases.append((context, hashlib.sha256()))
        if hashed:
            self.add(*context)

    def add(self, *items) -> None:
        hashes = (self.hash, self.cases[-1][1]) if self.cases else (self.hash,)
        for item in items:
            for h in hashes:
                h.update(item if isinstance(item, bytes) else repr(item).encode())
                h.update(b"\0")

    def case_lines(self) -> list[str]:
        return [f"{self.name}\t{context!r}\t{h.hexdigest()}\n" for context, h in self.cases]

    def state(self, state) -> None:
        """Modes, cutoff, ledger, rows, signed amplitude bytes and support of a state or batch.

        A batch is hashed without the rows that no state holds, and with no
        support where every state holds every row left: a batch may keep
        such rows as masked entries (zero, outside every support), and a
        batch that drops them hashes the same.
        """
        occ, amp = state.occupations, state.amplitudes
        support = getattr(state, "support", None)
        if support is not None:
            held = support.any(axis=0)
            occ, amp, support = occ[held], amp[:, held], support[:, held]
            support = None if support.all() else support
        self.add(type(state).__name__, state.modes, state.cutoff, repr(state.leaked_norm),
                 occ.shape, occ.tobytes(), np.ascontiguousarray(amp).view(float).tobytes())
        self.add(None if support is None else support.tobytes())

    def value(self, x) -> None:
        """A number or an array of numbers, by its bytes."""
        self.add(type(x).__name__, np.asarray(x).tobytes(), repr(x))

    def outcome(self, fn, *args, **kwargs):
        """Run ``fn``; hash its exception, if any, and return its result or None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.add("raised", type(exc).__name__, str(exc))
            return None


def runners(sec: Section, cutoffs) -> None:
    calls = [(run_nls, lambda c, k: (c, None, k))]
    for g2 in (0.01, 0.1, 0.2, 0.3):
        calls.append((run_qubit_teleport, lambda c, k, g2=g2: (c, g2, k)))
        calls.append((run_qutrit_teleport, lambda c, k, g2=g2: (c, g2, k)))
    for runner, args in calls:
        for coeffs in COEFFS:
            for cutoff in cutoffs(runner):
                sec.case(runner.__name__, coeffs, cutoff)
                res = sec.outcome(runner, *args(coeffs, cutoff))
                if res is None:
                    continue
                sec.add(res.to_json(), res.herald_distribution)
                sec.state(res.output_state)
                sec.state(res.target_state)
                sec.state(res.pre_herald_state)
                sec.add(repr(res.leaked_norm), repr(res.success_probability),
                        repr(res.fidelity), repr(res.closed_form_probability))


def integer_cutoffs(runner):
    if runner is run_qutrit_teleport:
        return [-1, 0, 1, 2, 3, 4, 5, 8]
    if runner is run_qubit_teleport:
        return list(range(-1, 17)) + [24, 32, 48, 64]
    return [-1, 0, 1, 7, 8, 9, 12, 16, 24, 32, 40, 48, 56, 63, 64]


def sweeps(sec: Section) -> None:
    grids = [
        [0.01, 0.05, 0.1, 0.2, 0.24],
        list(np.linspace(0.001, 0.26, 70)),
        [0.0, -0.0, -0.1, 0.5, 0.75, 0.3, 0.05, 0.05],
    ]
    for protocol, cutoffs in (("teleport-qubit", (0, 1, 2, 6, 16)),
                              ("teleport-qutrit", (0, 1, 2, 3, 8))):
        for grid in grids:
            for cutoff in (None, *cutoffs):
                for coeffs in (None, *COEFFS[:4], COEFFS[8], COEFFS[10], COEFFS[11]):
                    sec.case(protocol, grid, cutoff, coeffs)
                    sec.add(sec.outcome(sweep, protocol, grid, cutoff, coeffs))
        for rng, tol, cutoff in (((0.02, 0.24), 1e-4, None), ((0.1, 0.45), 1e-3, 4),
                                 ((0.2, 0.4), 1e-3, 2), ((0.05, 0.1), 1e-2, 0)):
            sec.case(protocol, rng, tol, cutoff)
            sec.add(sec.outcome(optimize_teleport_success, protocol, rng, tol, cutoff))


def cli(sec: Section) -> None:
    argvs = [
        ["params", "nls"],
        ["params", "teleport", "--gamma2", "0.1"],
        ["params", "teleport", "--gamma2", "0.3"],
        ["params", "teleport"],
        ["sweep", "teleport-qubit", "--start", "0.01", "--stop", "0.24", "--points", "24"],
        ["sweep", "teleport-qubit", "--start", "1e-4", "--stop", "0.49", "--points", "9", "--log"],
        ["sweep", "teleport-qutrit", "--start", "-0.1", "--stop", "0.6", "--points", "7",
         "--cutoff", "3"],
        ["sweep", "teleport-qubit", "--start", "0.1", "--stop", "0.2", "--points", "0"],
        ["oracle-check", "--gamma", "0.3", "--cutoff", "6"],
        ["oracle-check", "--gamma", "0.757359", "--cutoff", "4", "--theta-terms", "40"],
        ["oracle-check", "--gamma", "1.5"],
        ["run", "teleport-qubit", "--gamma2", "0.1", "--gamma1", "0.2"],
        ["run", "teleport-qutrit", "--c0", "0.6", "--c1", "0.8"],
        ["run", "nls", "--gamma1", "0.5"],
    ]
    for fmt in ("json", "csv", "pretty"):
        argvs += [
            ["run", "nls", "--c0", "0.6", "--c1", "0.48", "--c2", "0.64", "--format", fmt],
            ["run", "nls", "--gamma1", "0.3", "--gamma2", "0.2", "--c0", "0.6",
             "--c1-im", "0.8", "--cutoff", "8", "--format", fmt],
            ["run", "teleport-qubit", "--gamma2", "0.1", "--c0", "0.6", "--c1", "0.8",
             "--format", fmt],
            ["run", "teleport-qubit", "--gamma2", "0.1", "--c0", "0.6", "--c1", "0.8",
             "--cutoff", "1", "--format", fmt],
            ["run", "teleport-qutrit", "--gamma2", "0.2", "--c0", "0.6", "--c1", "0.48",
             "--c2", "0.64", "--format", fmt],
            ["run", "teleport-qutrit", "--gamma2", "0.2", "--c0", "0.6", "--c1", "0.8",
             "--cutoff", "0", "--format", fmt],
        ]
    for argv in argvs:
        sec.case(argv, hashed=False)  # hashed below, after what running it raises
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sec.outcome(main, argv)
        sec.add(argv, code, out.getvalue(), err.getvalue())


def random_state(rng, modes, cutoff, n_terms, tiny=False):
    occs = rng.integers(0, cutoff + 1, size=(n_terms, len(modes))).tolist()
    amps = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    if tiny:  # terms near and below the pruning threshold, a NaN and signed zeros
        amps[::3] *= 1e-8
        amps[1::5] = complex(-0.0, 0.0)
        if n_terms > 4:
            amps[4] = complex(NAN, 0.0)
    return {tuple(o): complex(a) for o, a in zip(occs, amps)}


def kernels(sec: Section, seed: int = 20260) -> None:
    rng = np.random.default_rng(seed)
    flat = tuple(ModeLabel(p) for p in range(1, 4))
    pol = tuple(ModeLabel(p, q) for p in (1, 2, 3) for q in "HV")
    for case in range(60):
        sec.case("random", case, hashed=False)
        cutoff = int(rng.integers(1, 9))
        n_terms = int(rng.integers(1, 9))
        terms = random_state(rng, flat, cutoff, n_terms, tiny=case % 3 == 0)
        leak = float(rng.random()) * 1e-3 if case % 2 else 0.0
        psi = sec.outcome(PureState, flat[::-1] if case % 5 == 0 else flat, terms, cutoff, leak)
        if psi is None:
            continue
        sec.add(repr(psi), psi.to_json(), psi.terms)
        sec.state(psi)
        sec.state(PureState.from_json(psi.to_json()))
        g = [float(x) for x in rng.uniform(0.0, 0.9, size=4)]
        g[0] = 0.0 if case % 7 == 0 else g[0]
        one = apply_two_mode_squeezer(psi, SqueezerSpec(flat[1], flat[2], g[0]))
        two = apply_two_mode_squeezer(one, SqueezerSpec(flat[0], flat[1], g[1]))
        sec.state(one)
        sec.state(two)
        batch = apply_two_mode_squeezer(
            StateBatch.of(psi, 3), [SqueezerSpec(flat[1], flat[2], x) for x in g[:3]]
        )
        batch = apply_two_mode_squeezer(
            batch, [SqueezerSpec(flat[0], flat[1], x) for x in (g[3], 0.0, g[1])]
        )
        sec.state(batch)
        for b in range(len(batch)):
            sec.state(batch[b])
        sec.value(batch.norm_sq())
        sec.value(two.norm_sq())
        for state in (two, batch):
            for count in (0, 1, cutoff):
                out = sec.outcome(project, state, DetectionPattern({flat[0]: count}))
                if out is None:
                    continue
                sec.state(out.conditional_state)
                sec.value(out.probability)
                sec.state(fix_global_phase(out.conditional_state))
            sec.value(inner_product(state, psi))
            fid = sec.outcome(fidelity, state, psi)
            if fid is not None:
                sec.value(fid)
            normed = sec.outcome(normalize, state)
            if normed is not None:
                sec.state(normed[0])
                sec.value(normed[1])
            sec.state(fix_global_phase(state))
        sec.add(herald_weights(two, [flat[1], flat[0]]))
        sec.state(superpose([(0.5, psi), (-0.25j, one), (1.0, two)]))
        sec.state(tensor(make_basis_state((flat[0],), (1,), cutoff),
                         sec.outcome(PureState, flat[1:], {(0, 1): 0.6, (1, 0): 0.8j}, cutoff)))
        # type-II PDC on six polarized modes, single and batched
        qutrit = sec.outcome(PureState, pol, random_state(rng, pol, min(cutoff, 3), n_terms),
                             min(cutoff, 3))
        if qutrit is not None:
            spec = PdcSpec(2, 3, g[2])
            sec.state(apply_type2_pdc(qutrit, spec))
            sec.state(apply_type2_pdc(StateBatch.of(qutrit, 2), [spec, PdcSpec(2, 3, g[3])]))
    # pruned terms join a nonzero ledger as one sum, in key order
    for case in range(40):
        sec.case("ledger", case, hashed=False)
        n_tiny = int(rng.integers(2, 14))
        terms = {(int(k),): float(x) for k, x in zip(rng.permutation(16)[:n_tiny],
                                                      rng.uniform(1e-9, 9.9e-9, n_tiny))}
        terms[(16,)] = 1.0
        st = PureState(flat[:1], terms, 16, float(rng.uniform(0.0, 1e-3)))
        sec.add(repr(st.leaked_norm), st.to_json())
        sec.add(repr(PureState.from_json(st.to_json()).leaked_norm))
    # constructor errors
    for terms in ({(5, -1): 1.0}, {(-1, 5): 1.0}, {(1,): 1.0}, {(1.0, 0): 1.0},
                  {(1.5,): 1.0}, {(True, 0): 1.0}, {(0, 0): 1.0, (9, 0): 1.0, (-1, 0): 1.0},
                  {(1.5, 0): 1.0, (9, 0): 1.0}, {(9, 0): None}, {(0, 0): None},
                  {5: 1.0}, {(0, 0): NAN}, {}):
        sec.case("constructor", terms, hashed=False)
        st = sec.outcome(PureState, flat[:2], terms, 4)
        if st is not None:
            sec.state(st)
    batches(sec, rng, flat)


def batches(sec: Section, rng, flat) -> None:
    """Sweep-shaped batches: 24 and 32 states at cutoffs 1 and 16.

    With ``pruned`` every third state is uncoupled in both layers, so it
    raises no term and the batch carries a support; otherwise every state
    has every term.
    """
    for size, cutoff, pruned in itertools.product((24, 32), (1, 16), (False, True)):
        sec.case("batch", size, cutoff, pruned, hashed=False)
        psi = PureState(flat, random_state(rng, flat, 1, 4), cutoff)
        gammas = rng.uniform(0.2, 0.5, size=(2, size))
        if pruned:
            gammas[:, ::3] = 0.0
        batch = apply_two_mode_squeezer(StateBatch.of(psi, size),
                                        [SqueezerSpec(flat[1], flat[2], g) for g in gammas[0]])
        batch = apply_two_mode_squeezer(batch,
                                        [SqueezerSpec(flat[0], flat[1], g) for g in gammas[1]])
        sec.state(batch)
        sec.value(batch.norm_sq())
        sec.value(inner_product(batch, psi))
        sec.value(fidelity(batch, psi))
        normed, norms = normalize(batch)
        sec.state(normed)
        sec.value(norms)
        sec.state(fix_global_phase(batch))
        for count in (0, 1):
            out = project(batch, DetectionPattern({flat[0]: count}))
            sec.state(out.conditional_state)
            sec.value(out.probability)
            sec.state(fix_global_phase(out.conditional_state))


def warm(sec: Section) -> None:
    """Runs right after other couplings, cutoffs and inputs filled the run
    plans and the layouts they keep, and the same runs after they were cleared.

    Each case first runs its ``fill`` calls unhashed, so a layout kept from
    them that is stale or keyed too coarsely (without the cutoff, the mode
    pair or the row shape) changes what the hashed runs give.  A library
    whose squeezer keeps a layout memo of its own (``squeezers._layout``
    with ``cache_clear``) has it cleared too.
    """
    memos = (protocols._plan, getattr(squeezers, "_layout", None))

    def clear():
        for memo in memos:
            getattr(memo, "cache_clear", lambda: None)()

    pair, trio = (ModeLabel(1), ModeLabel(2)), tuple(ModeLabel(p) for p in range(1, 4))
    # the same six int64 values as rows of two modes and of three
    two = PureState(pair, {(0, 0): 0.6, (0, 1): 0.48, (1, 0): 0.64}, 3)
    three = PureState(trio, {(0, 0, 0): 0.6, (1, 1, 0): 0.8}, 3)
    kernels = [
        (apply_two_mode_squeezer, two, SqueezerSpec(*pair, 0.3)),
        (apply_two_mode_squeezer, three, SqueezerSpec(*pair, 0.3)),
        (apply_two_mode_squeezer, three, SqueezerSpec(trio[1], trio[0], 0.3)),
        (apply_two_mode_squeezer, three, SqueezerSpec(*trio[1:], 0.3)),
    ]
    runs = [(run_qutrit_teleport, COEFFS[0], g2, c) for g2 in (0.02, 0.24) for c in (3, 8)]
    runs += [(run_qutrit_teleport, COEFFS[1], 0.1, 8), (run_qubit_teleport, COEFFS[1], 0.1, 16),
             (run_qubit_teleport, COEFFS[1], 0.2, 12), (run_nls, COEFFS[0], None, 64),
             (run_nls, COEFFS[0], None, 40), (run_nls, COEFFS[1], None, 64)]
    for fill, case in itertools.chain(itertools.permutations(kernels, 2),
                                      itertools.permutations(runs, 2)):
        for cold in (False, True):
            sec.case(case[0].__name__, *case[1:], "after", fill[0].__name__, *fill[1:], cold)
            fill[0](*fill[1:])
            if cold:
                clear()
            res = case[0](*case[1:])
            if isinstance(res, StateBatch):
                sec.state(res)
            else:
                sec.add(res.to_json(), res.herald_distribution)
                sec.state(res.output_state)
                sec.state(res.pre_herald_state)


def non_integer_cutoffs(sec: Section) -> None:
    for cutoff in (2.7, 3.0, 8.5, 16.0):
        sec.case(cutoff)
        sec.state(sec.outcome(PureState, (ModeLabel(1),), {(2,): 1.0}, cutoff)
                  or PureState((ModeLabel(1),), {}, 0))
        sec.add(sec.outcome(PureState, (ModeLabel(1),), {(3,): 1.0}, cutoff) is None)
        for runner, g2 in ((run_nls, None), (run_qubit_teleport, 0.1), (run_qutrit_teleport, 0.1)):
            args = (COEFFS[0],) if g2 is None else (COEFFS[1 if runner is run_qubit_teleport
                                                            else 0], g2)
            res = sec.outcome(runner, *args, cutoff=cutoff)
            sec.add(None if res is None else res.to_json())
        sec.add(sec.outcome(sweep, "teleport-qubit", [0.05, 0.3], cutoff))


def heralded(sec: Section) -> None:
    calls = [(run_nls, None, (8, 12, 16, 64))]
    for g2 in (0.01, 0.1, 0.2, 0.3):
        calls.append((run_qubit_teleport, g2, (1, 2, 5, 16)))
        calls.append((run_qutrit_teleport, g2, (1, 2, 3, 8)))
    for runner, g2, cutoffs in calls:
        for coeffs in COEFFS:
            args = (coeffs,) if g2 is None else (coeffs, g2)
            for cutoff in (None, *cutoffs):
                sec.case(runner.__name__, coeffs, g2, cutoff)
                kwargs = {} if cutoff is None else {"cutoff": cutoff}
                res = sec.outcome(runner, *args, **kwargs)
                if res is None:
                    continue
                sec.add(repr(res.success_probability), repr(res.fidelity),
                        repr(res.closed_form_probability))
                for state in (res.output_state, res.target_state):
                    sec.add(state.modes, state.occupations.tobytes(),
                            np.ascontiguousarray(state.amplitudes).view(float).tobytes())
    grids = [[0.01, 0.05, 0.1, 0.2, 0.24], list(np.linspace(0.001, 0.26, 40)),
             [0.0, -0.1, 0.5, 0.3, 0.05, 0.05]]
    for protocol, cutoffs in (("teleport-qubit", (1, 3, 16)), ("teleport-qutrit", (1, 2, 8))):
        for grid in grids:
            for cutoff in (None, *cutoffs):
                for coeffs in (None, *COEFFS[:4], COEFFS[8], COEFFS[10]):
                    sec.case(protocol, grid, cutoff, coeffs)
                    rows = sec.outcome(sweep, protocol, grid, cutoff, coeffs) or []
                    sec.add([(r["gamma2"], r["probability"], r["fidelity"], r["error"])
                             for r in rows])
        for rng, tol, cutoff in (((0.02, 0.24), 1e-4, None), ((0.1, 0.45), 1e-3, None),
                                 ((0.1, 0.45), 1e-3, 4)):
            sec.case(protocol, rng, tol, cutoff)
            sec.add(sec.outcome(optimize_teleport_success, protocol, rng, tol, cutoff))


def main_corpus(cases_path: str | None = None) -> None:
    warnings.simplefilter("ignore")
    sections = [Section(n) for n in ("runners", "sweeps", "cli", "kernels", "warm")]
    runners(sections[0], integer_cutoffs)
    sweeps(sections[1])
    cli(sections[2])
    kernels(sections[3])
    warm(sections[4])
    total = hashlib.sha256()
    for sec in sections:
        digest = sec.hash.hexdigest()
        total.update(digest.encode())
        print(f"{sec.name:20} {digest}")
    apart = Section("non-integer-cutoff")
    non_integer_cutoffs(apart)
    print(f"{apart.name:20} {apart.hash.hexdigest()}")
    decided = Section("heralded")
    heralded(decided)
    print(f"{decided.name:20} {decided.hash.hexdigest()}")
    print(f"{'corpus':20} {total.hexdigest()}")
    if cases_path is not None:
        with open(cases_path, "w") as f:
            for sec in (*sections, apart, decided):
                f.writelines(sec.case_lines())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Same-bytes corpus hashes.")
    parser.add_argument("--cases", metavar="PATH", help="write one line per case to PATH")
    main_corpus(parser.parse_args().cases)
