"""Heralded amplitudes against their closed forms, signs and relative weights included.

``bruteforce.transfer`` gives each circuit's signed amplitudes t_i: input
c_i leaves as t_i c_i |target_i>.  The runs use any couplings in [0, 1),
not only the solved ones, and the herald cutoff, where they are exact.
"""

import cmath
import math

import pytest
from bruteforce import transfer
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockherald import InputCoefficients, solve_nls_params
from fockherald.protocols import NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT, GateParams, run_circuit

CIRCUITS = (NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT)
COUPLING = st.floats(min_value=0.0, max_value=0.999)
COEFF = st.one_of(
    st.just(0j),
    st.builds(cmath.rect, st.floats(min_value=0.05, max_value=1.0),
              st.floats(min_value=-math.pi, max_value=math.pi)),
)


def heralded_run(circuit, g1, g2, cs):
    """The run on the normalized ``cs``, with the t_i and the normalized c_i.

    Draws where a heralded amplitude would sit near the pruning threshold,
    or where nothing is heralded, are left out.
    """
    cs = cs[:len(circuit.inputs)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in cs))
    assume(norm > 0)
    cs = [c / norm for c in cs]
    t = transfer(circuit, g1, g2)
    assume(all(c == 0 or abs(ti * c) ** 2 >= 1e-12 for ti, c in zip(t, cs)))
    assume(sum(ti * ti * abs(c) ** 2 for ti, c in zip(t, cs)) > 1e-10)
    res = run_circuit(circuit, InputCoefficients(*cs), GateParams(g1, g2))
    assert res.exact
    return res, t, cs


@given(st.sampled_from(CIRCUITS), COUPLING, COUPLING, COEFF, COEFF, COEFF)
@settings(max_examples=150, deadline=None)
def test_output_state_is_the_signed_transfer(circuit, g1, g2, c0, c1, c2):
    res, t, cs = heralded_run(circuit, g1, g2, (c0, c1, c2))
    # sum_i t_i c_i |target_i>, with the output's phase fix: its first
    # nonzero amplitude in occupation order is real and positive
    want = dict(sorted((occ, ti * c) for occ, ti, c in zip(circuit.targets, t, cs) if c != 0))
    ref = next(a for a in want.values() if a != 0)
    root = math.sqrt(res.success_probability)
    assert sorted(res.output_state.terms) == list(want)
    for occ, amp in want.items():
        assert abs(res.output_state.amplitude(occ) * root - amp * abs(ref) / ref) <= 1e-12
    assert res.success_probability == pytest.approx(
        res.closed_form_probability, rel=1e-12, abs=1e-15)


@given(st.sampled_from(CIRCUITS), COUPLING, COUPLING, COEFF, COEFF, COEFF)
@settings(max_examples=150, deadline=None)
def test_fidelity_is_the_signed_overlap(circuit, g1, g2, c0, c1, c2):
    res, t, cs = heralded_run(circuit, g1, g2, (c0, c1, c2))
    w = [abs(c) ** 2 for c in cs]
    s = [-1 if i in circuit.negated else 1 for i in range(len(cs))]
    overlap = sum(si * ti * wi for si, ti, wi in zip(s, t, w))
    want = overlap * overlap / sum(ti * ti * wi for ti, wi in zip(t, w))
    assert res.fidelity == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_solved_couplings_equalize_the_nls_amplitudes():
    # the paper's NLS condition, at amplitude level: c0|0> + c1|1> - c2|2>
    p = solve_nls_params()
    t0, t1, t2 = transfer(NLS, p.gamma1, p.gamma2)
    assert abs(t0 - t1) <= 1e-15
    assert abs(t0 + t2) <= 1e-15
