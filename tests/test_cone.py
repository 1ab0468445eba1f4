"""Herald-cone runs: a run hands on, after each squeezer but the last, only
the rows from which the herald can still be reached within the cutoff.

``protocols._Plan.cone`` lists those rows per squeezer.  The heralded fields
of a cone run must equal, bit for bit, those of the reference run over every
row (``tests/bruteforce.py::run_batch_reference``); ``leaked_norm`` is the
cone's ledger, at most the full pre-herald ledger, which
``pre_herald_state.leaked_norm`` keeps.
"""

import math
import re

import pytest
from bruteforce import run_batch_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_herald_cone import FOUR_MODE, ODD_CYCLE
from test_plan import _heralded

from fockherald import FockError, InputCoefficients, run_qutrit_teleport
from fockherald import protocols, squeezers
from fockherald.protocols import (
    NLS,
    QUBIT_TELEPORT,
    QUTRIT_TELEPORT,
    GateParams,
    _herald_cutoff,
    _plan,
    run_circuit,
)

NLS_CONE = (
    [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
    [(1, 1, 0), (1, 1, 1), (1, 1, 2)],
)
QUBIT_CONE = (
    [(0, 0, 0), (1, 1, 1)],
    [(1, 1, 0), (1, 1, 1)],
)
# modes H1, V1, H2, V2, H3, V3; squeezers (H2, V3), (V2, H3), (H1, V2), (V1, H2)
QUTRIT_CONE = (
    [(0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1), (1, 0, 0, 0, 0, 0)],
    [(0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1), (1, 0, 0, 1, 1, 0)],
    [(1, 0, 0, 1, 0, 0), (1, 0, 0, 1, 1, 0), (1, 1, 1, 1, 0, 1)],
    [(1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 0, 1), (1, 1, 1, 1, 1, 0)],
)


@pytest.mark.parametrize(
    "circuit, cutoffs, cone",
    [(NLS, (2, 8, 64), NLS_CONE), (QUBIT_TELEPORT, (1, 16), QUBIT_CONE),
     (QUTRIT_TELEPORT, (1, 8, 16), QUTRIT_CONE)],
    ids=["nls", "teleport-qubit", "teleport-qutrit"],
)
def test_the_cone_rows_of_the_three_circuits(circuit, cutoffs, cone):
    for cutoff in cutoffs:
        plan = _plan(circuit, cutoff, (True,) * len(circuit.inputs))
        assert [rows.tolist() for rows in plan.cone] == [list(map(list, rows)) for rows in cone]
        assert all(not rows.flags.writeable for rows in plan.cone)


def test_a_zero_coefficient_leaves_its_paths_out_of_the_cone():
    plan = _plan(NLS, 2, (False, True, True))
    assert [rows.tolist() for rows in plan.cone] == [
        [[1, 1, 1], [2, 2, 2]], [[1, 1, 1], [1, 1, 2]]]


def test_a_herald_no_path_reaches_has_an_empty_cone():
    for cutoff in (1, 2, 5):
        assert [rows.shape for rows in _plan(ODD_CYCLE, cutoff, (True,)).cone] == [(0, 4)] * 4
        res = run_circuit(ODD_CYCLE, InputCoefficients(1.0, 0.0), GateParams(0.3, 0.3), cutoff)
        assert res.success_probability == 0.0 and res.fidelity == 0.0
        assert len(res.output_state.occupations) == 0
        assert res.pre_herald_state.norm_sq() > 0.0  # the full run keeps every row


_PART = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, 1.0]),
                  st.floats(min_value=-1, max_value=1, allow_nan=False))
_COEFF = st.one_of(st.sampled_from([0j, -0.0]), st.builds(complex, _PART, _PART))
_COUPLING = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.9))
# (circuit, the largest cutoff drawn); the reference runs every row, so the
# six-mode qutrit stays at small cutoffs
_CIRCUITS = [(NLS, 24), (QUBIT_TELEPORT, 24), (FOUR_MODE, 12), (QUTRIT_TELEPORT, 6)]


@pytest.mark.filterwarnings("ignore:input coefficients renormalized")
@settings(max_examples=120, deadline=None)
@given(
    circuit=st.sampled_from(_CIRCUITS),
    cs=st.tuples(_COEFF, _COEFF, _COEFF).filter(lambda cs: any(c != 0 for c in cs)),
    offset=st.one_of(st.integers(-1, 2), st.integers(3, 24)),
    g1=_COUPLING,
    g2=_COUPLING,
)
def test_a_cone_run_gives_the_reference_heralded_bits(circuit, cs, offset, g1, g2):
    circuit, largest = circuit
    cs = cs[:len(circuit.inputs)] + (0j,) * (3 - len(circuit.inputs))
    assume(InputCoefficients(*cs).norm_sq() > 1e-12)
    coeffs, params = InputCoefficients(*cs).normalized(), GateParams(g1, g2)
    cutoff = _herald_cutoff(circuit, (coeffs.c0, coeffs.c1, coeffs.c2)) + offset
    cutoff = max(1, min(cutoff, largest))
    try:
        want = run_batch_reference(circuit, coeffs, [params], cutoff)
    except FockError as exc:  # an input past a cutoff below the herald cutoff
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            run_circuit(circuit, coeffs, params, cutoff)
        return
    got = protocols._run_batch(circuit, coeffs, [params], cutoff)
    assert _heralded(got) == _heralded(want)
    res = run_circuit(circuit, coeffs, params, cutoff)
    assert repr(res.success_probability) == repr(float(want[2][0]))
    assert repr(res.fidelity) == repr(float(want[4][0]))
    # the cone's ledger is the weight of fewer rows, each stage's deficit
    # rounded apart: at most the full one, up to rounding
    full = res.pre_herald_state.leaked_norm
    assert full == float(want[0].leaked_norm[0])
    assert res.leaked_norm <= full + 1e-14


@pytest.mark.parametrize("cutoff", [8, 64])
def test_the_cone_ledger_is_below_the_full_one(cutoff):
    res = run_circuit(NLS, InputCoefficients(0.6, 0.48, 0.64), protocols.solve_nls_params(), cutoff)
    assert 0.0 < res.leaked_norm < res.pre_herald_state.leaked_norm
    total = math.fsum(w for _, w in res.herald_distribution)
    assert abs(total + res.pre_herald_state.leaked_norm - 1.0) <= 1e-12


def test_the_full_state_is_run_on_first_read_only(monkeypatch):
    calls = []
    apply = protocols.apply_two_mode_squeezer

    def counting(state, spec):
        calls.append(len(state.occupations))
        return apply(state, spec)

    monkeypatch.setattr(protocols, "apply_two_mode_squeezer", counting)
    res = run_qutrit_teleport(InputCoefficients(0.6, 0.48, 0.64), 0.1, cutoff=8)
    res.to_json()
    assert calls == [3, 3, 3, 3]  # the input, then each stage's cone
    res.herald_distribution
    res.pre_herald_state
    assert calls[:4] == [3, 3, 3, 3] and len(calls) == 8
    assert calls[4:] == [3, 27, 243, 1278]  # the full run, once


def test_a_cold_cone_run_keeps_only_cone_sized_layouts(monkeypatch):
    squeezers._layout.cache_clear()
    protocols._plan.cache_clear()
    calls = []
    layout = squeezers._layout

    def recording(rows, cutoff, ia, ib):
        calls.append(len(rows.occupations))
        return layout(rows, cutoff, ia, ib)

    monkeypatch.setattr(squeezers, "_layout", recording)
    run_qutrit_teleport(InputCoefficients(0.6, 0.48, 0.64), 0.1, cutoff=16)
    # the memo was empty, so it holds only layouts of these calls
    assert calls == [3, 3, 3, 3]
    assert 0 < layout.cache_info().currsize <= len(calls)

