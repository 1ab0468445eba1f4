"""The herald cone: the smallest cutoff that decides a circuit's heralded result.

``Circuit.herald_cutoffs`` is a static pass over the circuit record.  At that
cutoff and above, the heralded fields (probability, fidelity, output and
target terms) must not change by a bit; the default run uses it and says so
through ``ProtocolResult.exact``.
"""

import contextlib
import io
import itertools
import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockherald import (
    FockError,
    GateParams,
    InputCoefficients,
    ModeLabel,
    SqueezerSpec,
    run_nls,
    run_qubit_teleport,
    run_qutrit_teleport,
    sweep,
)
from fockherald.cli import main
from fockherald.protocols import NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT, Circuit, run_circuit

M1, M2, M3, M4 = (ModeLabel(p) for p in range(1, 5))

# the circuits' defaults before the herald cutoff existed
OLD_DEFAULTS = {NLS: 64, QUBIT_TELEPORT: 16, QUTRIT_TELEPORT: 8}

# a layer between the herald and its ancilla: mode 3 holds two photons
# between the second and third layer on the c1 path, yet the inputs and
# targets fit under cutoff 1
FOUR_MODE = Circuit(
    name="four-mode",
    modes=(M1, M2, M3, M4),
    inputs=((0, 0, 0, 0), (1, 0, 0, 0)),
    layers=((SqueezerSpec, M2, M3, 0), (SqueezerSpec, M3, M4, 1), (SqueezerSpec, M1, M2, 1)),
    detected=(M1, M2, M4),
    out_modes=(M3,),
    targets=((1,), (1,)),
    negated=(),
    closed_form=lambda g1, g2, w0, w1, w2: math.nan,
)

# a herald on an odd cycle of squeezers: modes 1, 2 and 4 each end at one
# photon only if the (1, 4) and (2, 4) shifts are half a photon each, so no
# path reaches it, though the rational shifts are unbounded
ODD_CYCLE = Circuit(
    name="odd-cycle",
    modes=(M1, M2, M3, M4),
    inputs=((0, 0, 0, 0),),
    layers=((SqueezerSpec, M1, M2, 0), (SqueezerSpec, M1, M2, 0),
            (SqueezerSpec, M1, M4, 0), (SqueezerSpec, M2, M4, 0)),
    detected=(M1, M2, M4),
    out_modes=(M3,),
    targets=((0,),),
    negated=(),
    closed_form=lambda g1, g2, w0, w1, w2: math.nan,
)


def heralded_fields(res):
    """Every field of a run that its herald decides, as bytes and reprs."""
    out, target = res.output_state, res.target_state
    return (
        repr(res.success_probability), repr(res.fidelity), repr(res.closed_form_probability),
        out.modes, out.occupations.tobytes(), out.amplitudes.view(float).tobytes(),
        target.modes, target.occupations.tobytes(), target.amplitudes.view(float).tobytes(),
    )


def test_herald_cutoffs_of_the_three_circuits():
    assert NLS.herald_cutoffs == (1, 1, 2)
    assert QUBIT_TELEPORT.herald_cutoffs == (1, 1)
    assert QUTRIT_TELEPORT.herald_cutoffs == (1, 1, 1)
    assert FOUR_MODE.herald_cutoffs == (1, 2)


def test_default_runs_use_the_herald_cutoff():
    params = GateParams(0.3, 0.2)
    assert run_nls(InputCoefficients(0.6, 0.48, 0.64), params).output_state.cutoff == 2
    assert run_nls(InputCoefficients(0.6, 0.8), params).output_state.cutoff == 1
    assert run_qubit_teleport(InputCoefficients(0.6, 0.8), 0.1).output_state.cutoff == 1
    res = run_qutrit_teleport(InputCoefficients(0.6, 0.48, 0.64), 0.1)
    assert res.output_state.cutoff == 1
    assert res.exact


_PART = st.one_of(st.just(0.0), st.floats(min_value=-1, max_value=1, allow_nan=False))
_COEFF = st.one_of(st.just(0j), st.builds(complex, _PART, _PART))
_GAMMA = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@settings(max_examples=40, deadline=None)
@given(
    circuit=st.sampled_from([NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT]),
    cs=st.tuples(_COEFF, _COEFF, _COEFF).filter(lambda cs: any(c != 0 for c in cs)),
    g1=_GAMMA,
    g2=_GAMMA,
)
def test_heralded_fields_do_not_change_above_the_herald_cutoff(circuit, cs, g1, g2):
    if circuit is QUBIT_TELEPORT:
        cs = (cs[0], cs[1] or 1.0, 0j)
    coeffs, params = InputCoefficients(*cs), GateParams(g1, g2)
    res = run_circuit(circuit, coeffs, params)
    assert res.exact
    assert res.output_state.leaked_norm == 0.0
    want = heralded_fields(res)
    for cutoff in range(res.output_state.cutoff, OLD_DEFAULTS[circuit] + 1):
        assert heralded_fields(run_circuit(circuit, coeffs, params, cutoff)) == want


def test_a_cutoff_below_the_herald_cutoff_changes_the_heralded_fields():
    # the property above fails on a cutoff the pass would be wrong to return:
    # the inputs and targets of FOUR_MODE fit under 1, its herald cone does not
    coeffs, params = InputCoefficients(0.6, 0.8), GateParams(0.3, 0.2)
    low = run_circuit(FOUR_MODE, coeffs, params, 1)
    assert not low.exact
    assert low.success_probability == pytest.approx(0.0064512, rel=1e-12)
    assert low.output_state.leaked_norm == min(1.0, low.leaked_norm / low.success_probability)
    res = run_circuit(FOUR_MODE, coeffs, params)
    assert res.exact and res.output_state.cutoff == 2
    assert res.success_probability == pytest.approx(0.0163602432, rel=1e-12)
    assert heralded_fields(low) != heralded_fields(res)
    for cutoff in range(2, 9):
        assert heralded_fields(run_circuit(FOUR_MODE, coeffs, params, cutoff)) == heralded_fields(res)


def test_unconstrained_circuit_has_no_herald_cutoff():
    # with mode 2 undetected, layer (2, 3) may raise any number of pairs
    open_circuit = replace(NLS, detected=(M1,))
    assert open_circuit.herald_cutoffs == (math.inf,) * 3
    with pytest.raises(FockError, match="no finite cutoff decides the herald"):
        run_circuit(open_circuit, InputCoefficients(0.6, 0.8), GateParams(0.3, 0.2))


def test_a_herald_no_path_reaches_has_a_finite_cutoff():
    assert ODD_CYCLE.herald_cutoffs == (1,)
    coeffs, params = InputCoefficients(1.0, 0.0), GateParams(0.3, 0.3)
    res = run_circuit(ODD_CYCLE, coeffs, params)
    assert res.exact and res.output_state.cutoff == 1
    assert res.success_probability == 0.0
    for cutoff in (2, 3, 5):
        assert heralded_fields(run_circuit(ODD_CYCLE, coeffs, params, cutoff)) == heralded_fields(res)


def _brute_force_peak(circuit, bound):
    """Largest occupation on a herald path, over every shift vector in [-bound, bound]."""
    col = {m: i for i, m in enumerate(circuit.modes)}
    pairs = [(col[a], col[b]) for _, a, b, _ in circuit.layers]
    detected = [col[m] for m in circuit.detected]
    best = None
    for shifts in itertools.product(range(-bound, bound + 1), repeat=len(pairs)):
        occ, peak = list(circuit.inputs[0]), 0
        for (a, b), s in zip(pairs, shifts):
            occ[a] += s
            occ[b] += s
            peak = max(peak, occ[a], occ[b])
            if min(occ[a], occ[b]) < 0:
                break
        else:
            if all(occ[d] == 1 for d in detected):
                best = peak if best is None else max(best, peak)
    return best


@st.composite
def small_circuits(draw):
    n = draw(st.integers(2, 4))
    modes = tuple(ModeLabel(p) for p in range(1, n + 1))
    pairs = st.tuples(st.sampled_from(modes), st.sampled_from(modes)).filter(
        lambda ab: ab[0] != ab[1])
    layers = draw(st.lists(pairs, min_size=1, max_size=4))
    detected = draw(st.lists(st.sampled_from(modes), min_size=1, max_size=n - 1, unique=True))
    rest = tuple(m for m in modes if m not in detected)
    return Circuit(
        name="random",
        modes=modes,
        inputs=(tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))),),
        layers=tuple((SqueezerSpec, a, b, 0) for a, b in layers),
        detected=tuple(detected),
        out_modes=rest,
        targets=((0,) * len(rest),),
        negated=(),
        closed_form=lambda g1, g2, w0, w1, w2: math.nan,
    )


@settings(max_examples=100, deadline=None)
@given(circuit=small_circuits())
@example(circuit=ODD_CYCLE)
def test_herald_cutoff_matches_a_brute_force_search(circuit):
    (cone,) = circuit.herald_cutoffs
    if cone == math.inf:
        # a larger search box finds herald paths with larger occupations
        peak = _brute_force_peak(circuit, 5)
        assert peak is not None and peak > (_brute_force_peak(circuit, 2) or 0)
    else:
        # a path's shifts are bounded by its occupations, so the box holds
        # every path of the cone, and more
        peak = _brute_force_peak(circuit, max(cone, 5))
        assert cone == max(peak or 0, *circuit.inputs[0], 1)


@settings(max_examples=25, deadline=None)
@given(circuit=small_circuits(), g=_GAMMA)
def test_random_circuit_heralded_fields_fixed_from_the_herald_cutoff(circuit, g):
    (cone,) = circuit.herald_cutoffs
    if cone == math.inf or cone > 4:
        return
    coeffs, params = InputCoefficients(1.0, 0.0), GateParams(g, g)
    want = heralded_fields(run_circuit(circuit, coeffs, params))
    for cutoff in (cone + 1, cone + 2):
        assert heralded_fields(run_circuit(circuit, coeffs, params, cutoff)) == want


@settings(max_examples=30, deadline=None)
@given(
    circuit=st.sampled_from([NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT, FOUR_MODE]),
    g1=st.floats(min_value=0.01, max_value=0.9),
    g2=st.floats(min_value=0.01, max_value=0.24),
)
def test_ledger_balances_at_the_herald_cutoff(circuit, g1, g2):
    coeffs = InputCoefficients(0.6, 0.8) if circuit in (QUBIT_TELEPORT, FOUR_MODE) \
        else InputCoefficients(0.6, 0.48, 0.64)
    res = run_circuit(circuit, coeffs, GateParams(g1, g2))
    total = math.fsum(w for _, w in res.herald_distribution)
    assert abs(total + res.leaked_norm - 1.0) <= 1e-12


def test_default_equals_the_explicit_herald_cutoff():
    c3, c2 = InputCoefficients(0.6, 0.48, 0.64), InputCoefficients(0.6, 0.8j)
    assert run_nls(c3).to_json() == run_nls(c3, None, 2).to_json()
    assert run_nls(c2).to_json() == run_nls(c2, None, 1).to_json()
    assert run_qubit_teleport(c2, 0.1).to_json() == run_qubit_teleport(c2, 0.1, 1).to_json()
    assert run_qutrit_teleport(c3, 0.1).to_json() == run_qutrit_teleport(c3, 0.1, 1).to_json()
    grid = [0.01, 0.1, 0.2, 0.3, -0.1]
    for protocol in ("teleport-qubit", "teleport-qutrit"):
        assert sweep(protocol, grid) == sweep(protocol, grid, 1)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv, cutoff",
    [
        (["run", "nls", "--auto-params", "--c0", "0.6", "--c1", "0.48", "--c2", "0.64"], "2"),
        (["run", "teleport-qubit", "--gamma2", "0.1", "--c0", "0.6", "--c1", "0.8",
          "--format", "csv"], "1"),
        (["run", "teleport-qutrit", "--gamma2", "0.2", "--c0", "0.6", "--c1", "0.48",
          "--c2", "0.64", "--format", "pretty"], "1"),
        (["sweep", "teleport-qubit", "--start", "0.01", "--stop", "0.24", "--points", "24"], "1"),
        (["sweep", "teleport-qutrit", "--start", "0.01", "--stop", "0.3", "--points", "5"], "1"),
    ],
)
def test_cli_default_equals_the_explicit_herald_cutoff(argv, cutoff, monkeypatch):
    monkeypatch.delenv("FOCKHERALD_CUTOFF", raising=False)
    assert _cli(argv) == _cli(argv + ["--cutoff", cutoff])


def test_exact_in_json_and_pretty_output():
    res = run_nls(InputCoefficients(0.6, 0.48, 0.64), None, 8)
    data = json.loads(res.to_json())
    assert data["exact"] is True
    # certified: the conditional state carries no truncation error
    assert data["output_state"]["leaked_norm"] == 0.0
    assert res.leaked_norm > 0.0
    code, text = _cli(["run", "teleport-qubit", "--gamma2", "0.1", "--c0", "0.6", "--c1", "0.8",
                       "--format", "pretty"])
    assert code == 0
    assert "exact               : True" in text.splitlines()


@pytest.mark.filterwarnings("ignore:input coefficients renormalized")
@pytest.mark.parametrize(
    "runner, gamma2", [(run_nls, None), (run_qubit_teleport, 0.1), (run_qutrit_teleport, 0.1)],
    ids=["nls", "teleport-qubit", "teleport-qutrit"],
)
def test_a_nan_coefficient_is_never_exact(runner, gamma2):
    # the NaN terms join the pre-herald ledger, so nothing certifies the run
    for cutoff in (None, 8):
        res = runner(InputCoefficients(math.nan, 1.0), gamma2, cutoff)
        assert math.isnan(res.leaked_norm)
        assert res.exact is False
        assert json.loads(res.to_json())["exact"] is False


def test_nls_has_no_cutoff_floor():
    # cutoff 1 decides the NLS herald when c2 = 0; with c2 != 0 the input
    # fails the bound check, as in the other runners
    res = run_nls(InputCoefficients(0.6, 0.8), None, 1)
    assert res.exact and res.fidelity == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(FockError, match=r"occupation \(2, 0, 0\) exceeds cutoff 1"):
        run_nls(InputCoefficients(0.6, 0.48, 0.64), None, 1)
