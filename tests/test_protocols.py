import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from fockherald.protocols import (
    NLS,
    QUBIT_TELEPORT,
    QUTRIT_TELEPORT,
    _basis_sum,
    fix_global_phase,
    run_circuit,
)

G2_CLOSED = (3 - math.sqrt(2)) / 7
G1_CLOSED = (21 - 7 * math.sqrt(2)) / (9 + 4 * math.sqrt(2))
M1 = ModeLabel(1)


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
    assert abs(total + res.leaked_norm - 1.0) <= 1e-12


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
def test_circuit_input_and_target_built_in_one_step(circuit, cs, cutoff):
    # bit for bit (signed zeros included; a NaN term goes to the ledger)
    # and error for error what superpose over basis states gives
    signed = [-c if i in circuit.negated else c for i, c in enumerate(cs)]
    want_in = _outcome(_superposed, circuit.modes, circuit.inputs, cs, cutoff)
    want_target = _outcome(_superposed, circuit.out_modes, circuit.targets, signed, cutoff)
    _assert_same_bits(_outcome(_basis_sum, circuit.modes, circuit.inputs, cs, cutoff), want_in)
    _assert_same_bits(
        _outcome(_basis_sum, circuit.out_modes, circuit.targets, signed, cutoff), want_target
    )
    # and the run starts from them: it fails as the input does, or ends on
    # that target with its phase fixed
    run = _outcome(run_circuit, circuit, InputCoefficients(*cs), GateParams(0.3, 0.1), cutoff)
    if isinstance(want_in, tuple):
        assert run == want_in
    elif not isinstance(run, tuple):
        _assert_same_bits(run.target_state, fix_global_phase(want_target))
