"""Run plans: a circuit's structure built once per cutoff and input support.

``protocols._run_batch`` computes only values over a plan kept by
``protocols._plan``; ``tests/bruteforce.py::run_batch_reference`` rebuilds
everything on every run through the public steps.  Both must give the same
bits, or the same exception type and message.
"""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from bruteforce import run_batch_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from fockherald import (
    FockError,
    InputCoefficients,
    ModeLabel,
    StateBatch,
    run_qubit_teleport,
    run_qutrit_teleport,
    sweep,
)
from fockherald import protocols
from fockherald.protocols import NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT, GateParams, _plan, _run_batch
from fockherald.squeezers import LAYOUT_MEMO, _layout

M1, M2, M3 = (ModeLabel(p) for p in (1, 2, 3))
# NLS with its modes listed out of canonical order: c_i enters as i photons on M1
REORDERED_NLS = replace(NLS, modes=(M3, M1, M2), inputs=((0, 0, 0), (0, 1, 0), (0, 2, 0)))
COEFFS = InputCoefficients(0.6, 0.48, 0.64)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _bits(x):
    """Everything a run returns, as comparable bytes."""
    if isinstance(x, StateBatch):
        return (type(x).__name__, x.modes, x.cutoff, x.occupations.shape, x.occupations.tobytes(),
                np.ascontiguousarray(x.amplitudes).view(float).tobytes(),
                np.asarray(x.leaked_norm).tobytes(),
                None if x.support is None else x.support.tobytes())
    return np.asarray(x).dtype, np.asarray(x).tobytes()


def _heralded(run):
    """What a run's herald decides: the target, per state the probability, the
    fidelity and the conditional state's terms; not a ledger."""
    _, target, prob, out, fid = run
    return [_bits(target), _bits(prob), _bits(fid)] + [_bits(out[b])[:6] for b in range(len(out))]


def assert_same_run(circuit, coeffs, params, cutoff):
    """The cone run's heralded fields and everything the full run returns,
    the pre-herald batch first, equal the reference; returns both runs."""
    want = _outcome(run_batch_reference, circuit, coeffs, params, cutoff)
    got = _outcome(_run_batch, circuit, coeffs, params, cutoff)
    full = _outcome(_run_batch, circuit, coeffs, params, cutoff, False)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want and full == want
        return got, full
    for run in (got, full):
        assert not (isinstance(run, tuple) and isinstance(run[0], type)), run
    assert [_bits(x) for x in full] == [_bits(x) for x in want]
    assert _heralded(got) == _heralded(want)
    return got, full


_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, math.nan, 1.0]),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
_COEFF = st.one_of(st.sampled_from([0, 0j, -0.0]), st.builds(complex, _PART, _PART))
_COUPLING = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.9))


@settings(max_examples=300, deadline=None)
@given(
    circuit=st.sampled_from([NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT, REORDERED_NLS]),
    cs=st.tuples(_COEFF, _COEFF, _COEFF),
    cutoff=st.one_of(st.none(), st.integers(0, 10)),
    params=st.lists(st.builds(GateParams, _COUPLING, _COUPLING), min_size=1, max_size=3),
)
def test_a_planned_run_gives_the_reference_bits(circuit, cs, cutoff, params):
    coeffs = InputCoefficients(*cs)
    # the second run finds its plan (and its herald and overlap rows) kept
    for _ in range(2):
        assert_same_run(circuit, coeffs, params, cutoff)


def test_a_reordered_circuit_runs_as_the_canonical_one():
    params = GateParams(0.3, 0.2)
    for cutoff in (None, 2, 8):
        a = protocols.run_circuit(NLS, COEFFS, params, cutoff)
        b = protocols.run_circuit(REORDERED_NLS, COEFFS, params, cutoff)
        assert a.to_json() == b.to_json()


def test_a_run_at_a_new_coupling_builds_no_plan_and_no_layout():
    run_qutrit_teleport(COEFFS, 0.05, cutoff=8)
    plans, layouts = _plan.cache_info(), _layout.cache_info()
    run_qutrit_teleport(COEFFS, 0.1734, cutoff=8)
    assert _plan.cache_info().misses == plans.misses
    assert _plan.cache_info().hits == plans.hits + 1
    assert _layout.cache_info().misses == layouts.misses


def test_the_plan_memo_is_bounded():
    assert _plan.cache_info().maxsize == LAYOUT_MEMO
    _plan.cache_clear()
    for cutoff in range(1, LAYOUT_MEMO + 3):
        run_qubit_teleport(InputCoefficients(0.6, 0.8), 0.1, cutoff=cutoff)
    assert _plan.cache_info().currsize == LAYOUT_MEMO


def test_a_float_cutoff_never_reuses_an_int_cutoffs_plan():
    coeffs = InputCoefficients(0.6, 0.8)
    run_qubit_teleport(coeffs, 0.1, cutoff=2)
    with pytest.raises(FockError, match=r"cutoff must be an integer, got 2\.0"):
        run_qubit_teleport(coeffs, 0.1, cutoff=2.0)
    assert sweep("teleport-qubit", [0.1], cutoff=2.0)[0]["error"] == (
        "cutoff must be an integer, got 2.0")


def test_new_pre_herald_rows_are_projected_anew():
    # in a full run at cutoff 16 gamma2 = 0.02 drops the rows past its
    # photons, 0.24 keeps them: the plan's kept herald rows belong to other
    # occupations and must be rebuilt, and the runs that follow each must
    # match again (a cone run between them projects its own rows)
    params = [GateParams.teleport(g2) for g2 in (0.02, 0.24, 0.02)]
    occupations = []
    for p in params:
        psi = assert_same_run(QUTRIT_TELEPORT, COEFFS, [p], 16)[1][0]  # the full run's
        occupations.append(psi.occupations)
    assert len(occupations[0]) < len(occupations[1])
    assert occupations[0] is not occupations[2]  # rows dropped anew on each run


def test_pre_herald_state_is_built_on_first_read(monkeypatch):
    calls = []
    getitem = StateBatch.__getitem__

    def counting(self, b):
        calls.append(b)
        return getitem(self, b)

    monkeypatch.setattr(StateBatch, "__getitem__", counting)
    res = run_qutrit_teleport(COEFFS, 0.1, cutoff=3)
    res.to_json()
    assert calls == [0]  # the output state, taken from its batch of one
    state = res.pre_herald_state
    assert res.pre_herald_state is state and calls == [0, 0]
    total = math.fsum(w for _, w in res.herald_distribution)
    assert abs(total + res.pre_herald_state.leaked_norm - 1.0) <= 1e-12


def test_threads_sharing_a_plan_get_their_own_rows():
    # a weak and a strong coupling at cutoff 16 give the qubit different
    # pre-herald and conditional rows, so the plan's kept rows keep
    # changing under the threads; each run must still give its own bits
    coeffs = InputCoefficients(0.6, 0.8)
    couplings = [[GateParams(0.001, 0.001)], [GateParams(0.3, 0.2)]]
    want = [run_batch_reference(QUBIT_TELEPORT, coeffs, p, 16) for p in couplings]
    want = [(_heralded(run), _bits(run[0])) for run in want]
    assert want[0][1][3] != want[1][1][3]  # the pre-herald row counts differ
    wrong = []

    def work(offset):
        for i in range(1000):
            k = (i + offset) % 2
            got = _heralded(_run_batch(QUBIT_TELEPORT, coeffs, couplings[k], 16))
            full = _bits(_run_batch(QUBIT_TELEPORT, coeffs, couplings[k], 16, False)[0])
            if (got, full) != want[k]:
                wrong.append((offset, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
