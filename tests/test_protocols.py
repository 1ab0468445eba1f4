import cmath
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from bruteforce import basis_sum
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockherald import (
    FockError,
    GateParams,
    InputCoefficients,
    ModeLabel,
    fidelity,
    make_basis_state,
    optimize_teleport_success,
    run_nls,
    run_qubit_teleport,
    run_qutrit_teleport,
    solve_nls_params,
    solve_teleport_constraint,
    superpose,
    sweep,
)
from fockherald import protocols
from fockherald.protocols import (
    NLS,
    QUBIT_TELEPORT,
    QUTRIT_TELEPORT,
    TELEPORTS,
    fix_global_phase,
    run_circuit,
    run_teleport,
)
from fockherald.states import ModeMismatchError

G2_CLOSED = (3 - math.sqrt(2)) / 7
G1_CLOSED = (21 - 7 * math.sqrt(2)) / (9 + 4 * math.sqrt(2))
M1 = ModeLabel(1)
NAMED_RUNNERS = {"teleport-qubit": run_qubit_teleport, "teleport-qutrit": run_qutrit_teleport}


# -- parameter solvers --------------------------------------------------------


def test_solved_params_match_closed_forms():
    gp = solve_nls_params()
    assert gp.gamma2 == pytest.approx(G2_CLOSED, abs=1e-14)
    assert gp.gamma1 == pytest.approx(G1_CLOSED, abs=1e-14)


def test_solved_params_residuals():
    gp = solve_nls_params()
    g1, g2 = gp.gamma1, gp.gamma2
    assert abs(math.sqrt(g2) - math.sqrt(g1) * (1 - 2 * g2)) < 1e-12
    assert abs(math.sqrt(g2) + g1 * math.sqrt(g2) * (3 * g2 - 2)) < 1e-12


def _bisect_nls_gamma2() -> float:
    # gamma1*(2-3*gamma2) = 1 with gamma1 = g2/(1-2 g2)^2, cleared of poles,
    # bisected for its root on (0, 1/2)
    def residual(g2: float) -> float:
        return g2 * (2.0 - 3.0 * g2) - (1.0 - 2.0 * g2) ** 2

    lo, hi = 1e-9, 0.5 - 1e-9
    flo = residual(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = residual(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solved_params_match_a_bisection_of_the_coupling_equations():
    # the library returns the closed forms; a root search confirms them
    gp = solve_nls_params()
    g2 = _bisect_nls_gamma2()
    assert abs(gp.gamma2 - g2) <= 1e-13
    assert abs(gp.gamma1 - solve_teleport_constraint(g2)) <= 1e-13
    assert (gp.gamma1, gp.gamma2) == (G1_CLOSED, G2_CLOSED)


def test_teleport_constraint_closed_form():
    assert solve_teleport_constraint(0.1) == pytest.approx(0.15625, abs=1e-15)


def test_teleport_constraint_matches_nls_point():
    assert solve_teleport_constraint(G2_CLOSED) == pytest.approx(
        G1_CLOSED, abs=1e-14
    )


def test_teleport_constraint_range_errors():
    with pytest.raises(FockError):
        solve_teleport_constraint(0.49)  # gamma1 = 1225
    with pytest.raises(FockError):
        solve_teleport_constraint(0.5)
    with pytest.raises(FockError):
        solve_teleport_constraint(0.0)


# -- NLS gate -----------------------------------------------------------------


def test_nls_vacuum_input():
    res = run_nls(InputCoefficients(1, 0, 0))
    assert abs(res.output_state.amplitude((0,))) == pytest.approx(1.0, abs=1e-12)
    expected = (1 - G1_CLOSED) * (1 - G2_CLOSED) * G2_CLOSED
    assert res.success_probability == pytest.approx(expected, abs=1e-10)
    assert abs(res.success_probability - 0.042517) < 1e-5


def test_nls_two_photon_sign_flip():
    res = run_nls(InputCoefficients(0, 0, 1))
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    # relative to a balanced run, the |2> coefficient is negated
    bal = run_nls(InputCoefficients(1, 1, 1).normalized())
    out = bal.output_state
    assert out.amplitude((0,)).real == pytest.approx(1 / math.sqrt(3), abs=1e-9)
    assert out.amplitude((1,)).real == pytest.approx(1 / math.sqrt(3), abs=1e-9)
    assert out.amplitude((2,)).real == pytest.approx(-1 / math.sqrt(3), abs=1e-9)


def test_nls_unsolved_params_coefficients():
    # direct substitution into the conditional-output formula
    res = run_nls(
        InputCoefficients(1, 1, 1).normalized(), GateParams(0.2, 0.2), cutoff=24
    )
    coeffs = np.array(
        [res.output_state.amplitude((n,)) for n in range(3)], dtype=complex
    )
    raw = np.array([0.44721360, 0.26832816, -0.12521982])
    expected = raw / np.linalg.norm(raw)
    assert np.allclose(coeffs.real, expected, atol=1e-7)
    assert np.allclose(coeffs.imag, 0.0, atol=1e-12)


def test_nls_probability_matches_closed_form_off_solution():
    res = run_nls(InputCoefficients(0.6, 0.8j, 0), GateParams(0.3, 0.25), cutoff=24)
    assert res.success_probability == pytest.approx(
        res.closed_form_probability, abs=1e-10
    )


@given(
    st.floats(min_value=0.05, max_value=0.7),
    st.floats(min_value=0.05, max_value=0.45),
)
@settings(max_examples=15, deadline=None)
def test_nls_conditional_coefficients_proportional(g1, g2):
    c = InputCoefficients(1, 1, 1).normalized()
    res = run_nls(c, GateParams(g1, g2), cutoff=32)
    got = np.array([res.output_state.amplitude((n,)) for n in range(3)])
    want = np.array(
        [
            math.sqrt(g2),
            math.sqrt(g1) * (1 - 2 * g2),
            g1 * math.sqrt(g2) * (3 * g2 - 2),
        ]
    ) / math.sqrt(3)
    want = want / np.linalg.norm(want)
    phase = got[0] / want[0] if abs(want[0]) > 1e-12 else 1.0
    assert np.allclose(got, want * phase, atol=1e-9)


# -- qubit teleportation -------------------------------------------------------


def test_qubit_teleport_vacuum():
    res = run_qubit_teleport(InputCoefficients(1, 0), 0.1)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert abs(res.output_state.amplitude((0,))) == pytest.approx(1.0, abs=1e-10)


def test_qubit_teleport_balanced():
    c = 1 / math.sqrt(2)
    res = run_qubit_teleport(InputCoefficients(c, c), 0.1)
    assert res.gamma1 == pytest.approx(0.15625)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.success_probability == pytest.approx(
        0.84375 * 0.9 * 0.1, abs=1e-10
    )
    assert res.paper_claimed_probability == pytest.approx(2 * 0.84375 * 0.9 * 0.1)


def test_qubit_probability_vanishes_with_coupling():
    c = 1 / math.sqrt(2)
    grid = [0.15, 0.1, 0.05, 0.02, 0.01, 0.005]  # below the ~0.154 maximizer
    probs = [
        run_qubit_teleport(InputCoefficients(c, c), g2).success_probability
        for g2 in grid
    ]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert probs[-1] < 0.006


def test_qubit_requires_zero_c2():
    with pytest.raises(FockError):
        run_qubit_teleport(InputCoefficients(1, 0, 1), 0.1)


def test_qubit_teleport_is_nls_without_the_c2_input():
    assert QUBIT_TELEPORT.inputs == NLS.inputs[:2]
    assert QUBIT_TELEPORT.targets == NLS.targets[:2]
    assert (QUBIT_TELEPORT.layers, QUBIT_TELEPORT.detected) == (NLS.layers, NLS.detected)
    assert list(TELEPORTS.values()) == [QUBIT_TELEPORT, QUTRIT_TELEPORT]
    assert all(name == c.name for name, c in TELEPORTS.items())


def test_balanced_input_is_equal_weights_on_the_inputs():
    assert QUBIT_TELEPORT.balanced_input == InputCoefficients(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert QUTRIT_TELEPORT.balanced_input == InputCoefficients(*[1 / math.sqrt(3)] * 3)


@pytest.mark.filterwarnings("ignore:input coefficients renormalized")
def test_nan_coefficient_adds_no_c2_term_to_the_qubit():
    # normalization spreads the NaN to c2, which the qubit has no input for
    coeffs = InputCoefficients(math.nan, 1.0)
    for cutoff in (1, None):
        res = run_qubit_teleport(coeffs, 0.01, cutoff)
        assert res.output_state.cutoff == res.target_state.cutoff == 1
    row, = sweep("teleport-qubit", [0.01], 1, coeffs)
    assert row["error"] is None


def test_missing_input_checked_before_normalization_and_couplings():
    # c2 on the qubit fails before the renormalization warning and before
    # the infeasible coupling gamma2 = 0.3 does
    bad = InputCoefficients(3.0, 4.0, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (run_qubit_teleport, lambda *a: run_teleport("teleport-qubit", *a)):
            with pytest.raises(FockError, match=r"^teleport-qubit requires c2 = 0$"):
                run(bad, 0.3)
        rows = sweep("teleport-qubit", [0.1, 0.3], None, bad)
    assert [r["error"] for r in rows] == ["teleport-qubit requires c2 = 0"] * 2
    assert run_qutrit_teleport(InputCoefficients(0.6, 0.0, 0.8), 0.1).fidelity == \
        pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", sorted(TELEPORTS))
def test_run_teleport_is_the_named_runner(name):
    runner = NAMED_RUNNERS[name]
    coeffs = InputCoefficients(0.6, 0.8)
    for cutoff in (None, 3):
        assert run_teleport(name, coeffs, 0.1, cutoff).to_json() == \
            runner(coeffs, 0.1, cutoff).to_json()


def test_run_teleport_unknown_protocol():
    with pytest.raises(FockError, match="unknown teleport protocol 'nls'"):
        run_teleport("nls", InputCoefficients(0.6, 0.8), 0.1)


def test_qubit_herald_distribution_recorded():
    res = run_qubit_teleport(InputCoefficients(0.6, 0.8), 0.05)
    dist = dict(res.herald_distribution)
    assert (1, 1) in dist
    assert dist[(1, 1)] == pytest.approx(res.success_probability, abs=1e-13)
    assert sum(dist.values()) <= 1.0 + 1e-10


# -- qutrit teleportation --------------------------------------------------------


def test_qutrit_vacuum():
    res = run_qutrit_teleport(InputCoefficients(1, 0, 0), 0.05)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert abs(res.output_state.amplitude((0, 0))) == pytest.approx(1.0, abs=1e-10)


def test_qutrit_single_h_photon():
    res = run_qutrit_teleport(InputCoefficients(0, 1, 0), 0.05)
    assert res.gamma1 == pytest.approx(0.05 / 0.81, abs=1e-12)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert abs(res.output_state.amplitude((1, 0))) == pytest.approx(1.0, abs=1e-10)


def test_qutrit_balanced_against_brute_force():
    from bruteforce import qutrit_herald_amplitudes

    c = 1 / math.sqrt(3)
    g2 = 0.05
    res = run_qutrit_teleport(InputCoefficients(c, c, c), g2)
    _, prob = qutrit_herald_amplitudes(c, c, c, res.gamma1, g2)
    assert res.success_probability == pytest.approx(prob, abs=1e-8)


def test_qutrit_output_confined_to_logical_subspace():
    res = run_qutrit_teleport(InputCoefficients(0.5, 0.5, math.sqrt(0.5)), 0.05)
    assert set(res.output_state.terms) <= {(0, 0), (1, 0), (0, 1)}


# -- fidelity -------------------------------------------------------------------


def test_fidelity_identical_and_orthogonal():
    a = make_basis_state((M1,), (0,), 8)
    b = make_basis_state((M1,), (1,), 8)
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == 0.0


def test_fidelity_sign_flipped_two_photon():
    c = 1 / math.sqrt(3)
    plus = superpose(
        [(c, make_basis_state((M1,), (n,), 8)) for n in range(3)]
    )
    minus = superpose(
        [
            (c, make_basis_state((M1,), (0,), 8)),
            (c, make_basis_state((M1,), (1,), 8)),
            (-c, make_basis_state((M1,), (2,), 8)),
        ]
    )
    assert fidelity(plus, minus) == pytest.approx(1 / 9, abs=1e-12)


@given(st.floats(min_value=0, max_value=2 * math.pi))
@settings(max_examples=30, deadline=None)
def test_fidelity_global_phase_invariant(phi):
    a = superpose(
        [
            (0.6, make_basis_state((M1,), (0,), 8)),
            (0.8, make_basis_state((M1,), (1,), 8)),
        ]
    )
    rotated = superpose([(cmath.exp(1j * phi), a)])
    assert fidelity(a, rotated) == pytest.approx(1.0, abs=1e-12)


# -- optimizer and sweep ----------------------------------------------------------


def test_optimizer_agrees_with_grid_scan():
    def closed_form(g):
        g1 = g / (1 - 2 * g) ** 2
        return (1 - g1) * (1 - g) * g if g1 < 1 else 0.0

    grid = np.linspace(0.001, 0.3, 400)
    probs = [closed_form(g) for g in grid]
    best = grid[int(np.argmax(probs))]
    g2_star, p_star = optimize_teleport_success(
        "teleport-qubit", (0.001, 0.3), tolerance=1e-4
    )
    assert abs(g2_star - best) < 2e-3
    assert p_star >= max(probs) - 1e-7


def test_optimizer_degenerate_range():
    g2_star, p_star = optimize_teleport_success("teleport-qubit", (0.1, 0.1))
    assert g2_star == 0.1
    assert p_star == pytest.approx(0.84375 * 0.9 * 0.1, abs=1e-10)


def test_optimizer_invalid_range():
    with pytest.raises(FockError):
        optimize_teleport_success("teleport-qubit", (0.1, 0.6))
    with pytest.raises(FockError):
        optimize_teleport_success("teleport-qubit", (0.0, 0.1))


def test_optimizer_clips_range_to_feasible_couplings():
    # both first probes of (0.2, 0.4) need gamma1 >= 1; the bracket must not
    # walk there, since gamma2 = 0.2 itself succeeds with 0.0711
    g2_star, p_star = optimize_teleport_success("teleport-qubit", (0.2, 0.4))
    assert g2_star < 0.25
    assert p_star >= 0.0711


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan])
def test_optimizer_rejects_a_tolerance_that_is_not_positive(tolerance):
    # 0 and -1 never close the bracket; NaN used to return the midpoint
    with pytest.raises(FockError, match="tolerance must be positive"):
        optimize_teleport_success("teleport-qubit", (0.02, 0.24), tolerance=tolerance)


@pytest.mark.parametrize("name", sorted(TELEPORTS))
def test_optimizer_scores_the_balanced_input_as_its_runner_does(name):
    runner = NAMED_RUNNERS[name]
    g2_star, p_star = optimize_teleport_success(name, (0.02, 0.24), tolerance=1e-3)
    assert p_star == runner(TELEPORTS[name].balanced_input, g2_star).success_probability


def test_optimizer_rejects_cutoff_zero():
    with pytest.raises(FockError, match="cutoff"):
        optimize_teleport_success("teleport-qubit", (0.02, 0.2), cutoff=0)


def test_sweep_single_point_matches_run():
    rows = sweep("teleport-qubit", [0.1])
    res = run_qubit_teleport(
        InputCoefficients(1 / math.sqrt(2), 1 / math.sqrt(2)), 0.1
    )
    assert rows[0]["probability"] == pytest.approx(res.success_probability)
    assert rows[0]["gamma1"] == pytest.approx(res.gamma1)
    assert rows[0]["error"] is None


def test_sweep_log_grid_monotone_gamma1():
    grid = np.geomspace(1e-3, 0.3, 10)
    rows = sweep("teleport-qubit", grid)
    gammas = [r["gamma1"] for r in rows]
    assert all(g is not None for g in gammas)
    assert all(a < b for a, b in zip(gammas, gammas[1:]))
    # the 0.3 endpoint needs gamma1 > 1: reported, but flagged as an error row
    assert rows[-1]["error"] is not None
    assert all(
        r["fidelity"] == pytest.approx(1.0, abs=1e-9)
        for r in rows
        if r["error"] is None
    )


def test_sweep_flags_invalid_points():
    rows = sweep("teleport-qubit", [0.1, 0.5])
    assert rows[0]["error"] is None
    assert rows[1]["error"] is not None
    assert rows[1]["probability"] is None


def test_sweep_cutoff_zero_is_an_error_row():
    rows = sweep("teleport-qubit", [0.1], cutoff=0)
    assert rows[0]["error"] is not None
    assert rows[0]["probability"] is None


# -- circuits as data ------------------------------------------------------------


@given(
    circuit=st.sampled_from([NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT]),
    cutoff=st.integers(min_value=2, max_value=12),
    g2=st.floats(min_value=0.01, max_value=0.24),
)
@settings(max_examples=40, deadline=None)
def test_herald_weights_and_leak_balance(circuit, cutoff, g2):
    qubit = circuit is QUBIT_TELEPORT
    coeffs = InputCoefficients(0.6, 0.8) if qubit else InputCoefficients(0.6, 0.48, 0.64)
    params = GateParams(solve_teleport_constraint(g2), g2)
    res = run_circuit(circuit, coeffs, params, cutoff)
    total = math.fsum(w for _, w in res.herald_distribution)
    assert abs(total + res.pre_herald_state.leaked_norm - 1.0) <= 1e-12


def test_qubit_teleport_at_cutoff_one():
    # c2 = 0 adds no |2> term, so the target fits under cutoff 1
    res = run_qubit_teleport(InputCoefficients(0.6, 0.8), 0.1, cutoff=1)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    assert res.target_state.cutoff == 1


# -- result serialization ----------------------------------------------------------


def test_result_json_schema_roundtrip():
    res = run_qubit_teleport(InputCoefficients(0.6, 0.8), 0.1)
    data = json.loads(res.to_json())
    for key in (
        "protocol",
        "gamma1",
        "gamma2",
        "success_probability",
        "paper_claimed_probability",
        "fidelity",
        "leaked_norm",
        "output_state",
    ):
        assert key in data
    assert data["protocol"] == "teleport-qubit"
    assert data["output_state"]["modes"] == [{"path": 3, "pol": None}]


def test_input_coefficients_renormalized_with_warning():
    with pytest.warns(UserWarning):
        res = run_qubit_teleport(InputCoefficients(3, 4), 0.1)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("call", [
    lambda c: run_nls(c),
    lambda c: run_qubit_teleport(c, 0.1),
    lambda c: run_qutrit_teleport(c, 0.1),
    lambda c: run_teleport("teleport-qutrit", c, 0.1),
    lambda c: sweep("teleport-qubit", [0.1], None, c),
])
def test_renormalization_warning_points_at_the_caller(call):
    with pytest.warns(UserWarning, match="renormalized") as record:
        call(InputCoefficients(3, 4))
    assert [w.filename for w in record] == [__file__]


# -- one-step circuit inputs and targets ---------------------------------------

_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.6, 1e-9, -1e-300, math.nan]),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
_COEFF = st.one_of(st.sampled_from([0, 0j, -0.0]), st.builds(complex, _PART, _PART))


def _superposed(modes, occs, coeffs, cutoff):
    # the reference: one basis state per nonzero coefficient, merged by superpose
    return superpose(
        [(c, make_basis_state(modes, occ, cutoff)) for c, occ in zip(coeffs, occs) if c != 0]
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_bits(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.modes == want.modes and got.cutoff == want.cutoff
    assert repr(got.leaked_norm) == repr(want.leaked_norm)
    assert got.occupations.shape == want.occupations.shape
    assert got.occupations.tobytes() == want.occupations.tobytes()
    assert got.amplitudes.view(float).tobytes() == want.amplitudes.view(float).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT]),
    st.tuples(_COEFF, _COEFF, _COEFF),
    st.integers(0, 3),
)
# every input term is pruned: the ledger is one sum in key order either way
@example(QUTRIT_TELEPORT, (1e-15j, 1e-9j, 1e-15j), 1)
def test_circuit_input_and_target_built_in_one_step(circuit, cs, cutoff):
    # bit for bit (signed zeros included; a NaN term goes to the ledger)
    # and error for error what superpose over basis states gives
    signed = [-c if i in circuit.negated else c for i, c in enumerate(cs)]
    want_in = _outcome(_superposed, circuit.modes, circuit.inputs, cs, cutoff)
    want_target = _outcome(_superposed, circuit.out_modes, circuit.targets, signed, cutoff)
    _assert_same_bits(_outcome(basis_sum, circuit.modes, circuit.inputs, cs, cutoff), want_in)
    _assert_same_bits(
        _outcome(basis_sum, circuit.out_modes, circuit.targets, signed, cutoff), want_target
    )
    # and the run starts from them: it fails as the input does, or ends on
    # that target with its phase fixed
    run = _outcome(run_circuit, circuit, InputCoefficients(*cs), GateParams(0.3, 0.1), cutoff)
    if isinstance(want_in, tuple):
        assert run == want_in
    elif not isinstance(run, tuple):
        _assert_same_bits(run.target_state, fix_global_phase(want_target))


def test_runner_rejects_a_non_integer_cutoff():
    # a fractional cutoff is an error, not a run at the truncated cutoff
    with pytest.raises(FockError, match=r"cutoff must be an integer, got 2\.7"):
        run_qubit_teleport(InputCoefficients(0.6, 0.8), 0.1, cutoff=2.7)
    with pytest.raises(FockError, match=r"cutoff must be an integer, got 8\.5"):
        run_nls(InputCoefficients(0.6, 0.8), cutoff=8.5)


def test_sweep_non_integer_cutoff_is_an_error_row():
    rows = sweep("teleport-qutrit", [0.05, 0.3], cutoff=2.7)
    assert rows[0]["error"] == "cutoff must be an integer, got 2.7"
    assert rows[0]["probability"] is None
    assert "unphysical squeezer" in rows[1]["error"]


# -- circuit records are checked before they run ------------------------------------


@pytest.mark.parametrize("circuit, message", [
    (replace(NLS, detected=(M1,)),
     r"nls: out_modes \(3\) are not its modes minus detected \(2, 3\)"),
    (replace(NLS, out_modes=(ModeLabel(2),)),
     r"nls: out_modes \(2\) are not its modes minus detected \(3\)"),
])
def test_inconsistent_circuit_rejected_before_any_layer(circuit, message, monkeypatch):
    def no_layer(*args):
        raise AssertionError("a layer ran")

    monkeypatch.setattr(protocols, "_squeeze", no_layer)
    with pytest.raises(ModeMismatchError, match=message):
        run_circuit(circuit, InputCoefficients(0.6, 0.8), GateParams(0.3, 0.2), 4)
