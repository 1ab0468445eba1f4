"""Batch kernels and batched sweeps against per-state and per-point runs.

A ``StateBatch`` row must equal, bit for bit, what the single-state path and
the term-by-term reference loop give that state alone, also when the rows'
supports differ after pruning; ``sweep`` rows must equal the rows of one
runner call per grid point.
"""

import csv
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from bruteforce import apply_two_mode_squeezer_scalar
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fockherald import (
    DetectionPattern,
    FockError,
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
    normalize,
    optimize_teleport_success,
    project,
    run_qubit_teleport,
    run_qutrit_teleport,
    superpose,
    sweep,
)
from fockherald import protocols
from fockherald.cli import main
from fockherald.protocols import NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT, SWEEP_CHUNK, _basis_sum
from fockherald.states import canonical_modes

M = tuple(ModeLabel(p) for p in range(3))

# each teleport's runner and its balanced input, written out
RUNNERS = {
    "teleport-qubit": (run_qubit_teleport, InputCoefficients(1 / math.sqrt(2), 1 / math.sqrt(2))),
    "teleport-qutrit": (run_qutrit_teleport, InputCoefficients(*[1 / math.sqrt(3)] * 3)),
}


def per_point_rows(protocol, grid, cutoff=None, coeffs=None):
    """``sweep``'s rows from one runner call per point."""
    runner, balanced = RUNNERS[protocol]
    rows = []
    for g2 in grid:
        row = {"gamma2": g2, "gamma1": None, "probability": None, "fidelity": None,
               "leaked_norm": None, "error": None}
        if 0.0 < g2 < 0.5:
            row["gamma1"] = g2 / (1.0 - 2.0 * g2) ** 2
        try:
            res = runner(coeffs or balanced, g2, cutoff)
            row.update(gamma1=res.gamma1, probability=res.success_probability,
                       fidelity=res.fidelity, leaked_norm=res.leaked_norm)
        except FockError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def grid_points():
    feasible = st.floats(min_value=1e-4, max_value=0.2499)
    infeasible = st.floats(min_value=0.25, max_value=0.4999)
    out_of_range = st.sampled_from([0.0, -0.0, -0.1, 0.5, 0.75])
    return st.lists(st.one_of(feasible, feasible, infeasible, out_of_range),
                    min_size=1, max_size=10)


def coefficients():
    c = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return st.builds(InputCoefficients, c, c, st.one_of(st.just(0j), c))


@given(
    protocol=st.sampled_from(sorted(RUNNERS)),
    grid=grid_points(),
    repeats=st.lists(st.integers(min_value=0, max_value=9), max_size=3),
    cutoff=st.integers(min_value=1, max_value=16),
    coeffs=coefficients(),
)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:input coefficients renormalized")
def test_sweep_equals_per_point_runs(protocol, grid, repeats, cutoff, coeffs):
    grid = grid + [grid[i % len(grid)] for i in repeats]  # duplicate points
    if protocol == "teleport-qutrit":
        cutoff = min(cutoff, 8)
    assert sweep(protocol, grid, cutoff, coeffs) == per_point_rows(protocol, grid, cutoff, coeffs)


@pytest.mark.parametrize(
    "protocol, cutoff, coeffs",
    [
        ("teleport-qubit", 16, InputCoefficients(0.6, 0.0, 0.8)),    # c2 on the qubit
        ("teleport-qubit", 16, InputCoefficients(0, 0, 0)),          # all zero
        ("teleport-qutrit", 8, InputCoefficients(0, 0, 0)),
        ("teleport-qubit", 2**21, None),                             # past the key space
        ("teleport-qutrit", 2000, None),
        ("teleport-qubit", 0, None),
        ("teleport-qubit", -3, None),
        ("teleport-qubit", 1, InputCoefficients(0.0, 1.0)),
        ("teleport-qutrit", 1, InputCoefficients(0.6, 0.0, 0.8)),
    ],
)
def test_sweep_point_independent_errors(protocol, cutoff, coeffs):
    grid = [0.05, 0.3, 0.5, 0.1, 0.05, -0.2]
    rows = sweep(protocol, grid, cutoff, coeffs)
    assert rows == per_point_rows(protocol, grid, cutoff, coeffs)


def test_sweep_crosses_chunk_seam():
    grid = list(np.linspace(0.001, 0.26, 2 * SWEEP_CHUNK + 1))
    for protocol, cutoff in (("teleport-qubit", 6), ("teleport-qutrit", 3)):
        assert sweep(protocol, grid, cutoff) == per_point_rows(protocol, grid, cutoff)


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport-qubit", "--start", "0.01", "--stop", "0.3", "--points", "24"],
        ["teleport-qubit", "--start", "1e-4", "--stop", "0.49", "--points", "31", "--log"],
        ["teleport-qutrit", "--start", "-0.1", "--stop", "0.6", "--points", "15"],
        ["teleport-qubit", "--start", "0.02", "--stop", "0.2", "--points", "9",
         "--cutoff", "3"],
    ],
)
def test_cli_sweep_csv_equals_per_point_rendering(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["sweep", *argv]) == 0
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    grid = [float(r[0]) for r in rows[1:]]
    protocol = argv[0]
    cutoff = int(argv[argv.index("--cutoff") + 1]) if "--cutoff" in argv else None
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["gamma2", "gamma1", "probability", "fidelity", "leaked_norm", "error"])
    for row in per_point_rows(protocol, grid, cutoff):
        writer.writerow(
            [repr(row["gamma2"])]
            + ["" if row[k] is None else repr(row[k])
               for k in ("gamma1", "probability", "fidelity", "leaked_norm")]
            + [row["error"] or ""]
        )
    assert out.getvalue() == expected.getvalue()


def same_state(a: PureState, b: PureState) -> bool:
    """Equal bit for bit: modes, cutoff, ledger, rows and signed amplitudes."""
    return (
        a.modes == b.modes
        and a.cutoff == b.cutoff
        and a.leaked_norm == b.leaked_norm
        and np.array_equal(a.occupations, b.occupations)
        and a.amplitudes.view(float).tobytes() == b.amplitudes.view(float).tobytes()
    )


@given(
    cutoff=st.integers(min_value=2, max_value=12),
    gammas=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=0.95)),
            st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=0.95)),
        ),
        min_size=2, max_size=6,
    ),
    amps=st.lists(
        st.complex_numbers(min_magnitude=1e-7, max_magnitude=1.0, allow_nan=False),
        min_size=1, max_size=5,
    ),
)
# a draw whose ledger cancels from a norm of about 2 to 1e-3: a reference
# loop that added its norms one by one missed the kernel's by rel 1.7e-12
@example(cutoff=10, gammas=[(0.0, 0.0), (0.024307720734065418, 0.0)],
         amps=[0.2059628992829084, 0.859375, 0.6121095115220646 + 0.666015625j,
               0.17737362051012995 + 0.6875j, 0.25])
@settings(max_examples=80, deadline=None)
def test_batch_rows_match_scalar_reference(cutoff, gammas, amps):
    # the first layer prunes differently at every coupling, so the second
    # layer and the herald act on rows whose supports differ
    terms = {(i % (cutoff + 1), (2 * i) % (cutoff + 1), i // 2): a for i, a in enumerate(amps)}
    psi = PureState(M, terms, cutoff)
    first = [SqueezerSpec(M[1], M[2], g1) for g1, _ in gammas]
    second = [SqueezerSpec(M[0], M[1], g2) for _, g2 in gammas]
    batch = apply_two_mode_squeezer(StateBatch.of(psi, len(gammas)), first)
    batch = apply_two_mode_squeezer(batch, second)
    pattern = DetectionPattern({M[0]: 1})
    outcome = project(batch, pattern)
    phased = fix_global_phase(outcome.conditional_state)
    overlaps, norms = inner_product(batch, psi), batch.norm_sq()
    for b, (s1, s2) in enumerate(zip(first, second)):
        # bit-identical to the reference loop, whose ledger sums the norms
        # and prunes as the kernel does, and to the single-state kernel
        loop = apply_two_mode_squeezer_scalar(apply_two_mode_squeezer_scalar(psi, s1), s2)
        reference = apply_two_mode_squeezer(apply_two_mode_squeezer(psi, s1), s2)
        assert np.array_equal(batch[b].occupations, loop.occupations)
        assert batch[b].amplitudes.view(float).tobytes() == loop.amplitudes.view(float).tobytes()
        assert batch[b].leaked_norm == loop.leaked_norm
        assert same_state(batch[b], reference)
        single = project(reference, pattern)
        assert outcome.probability[b] == single.probability
        assert same_state(outcome.conditional_state[b], single.conditional_state)
        assert same_state(phased[b], fix_global_phase(single.conditional_state))
        assert overlaps[b] == inner_product(reference, psi)
        assert norms[b] == reference.norm_sq()
    if min(norms) > 1e-12 and psi.norm_sq() > 1e-12:
        fids = fidelity(batch, psi)
        normed, norm = normalize(batch)
        for b in range(len(gammas)):
            assert fids[b] == fidelity(batch[b], psi)
            ref_state, ref_norm = normalize(batch[b])
            assert norm[b] == ref_norm
            assert same_state(normed[b], ref_state)


def assert_well_formed(state):
    """What ``StateBatch._from_arrays`` takes on trust: every state a kernel builds has it.

    Canonical modes; one occupation column per mode and one row per
    amplitude column; one ledger and one support row per state; occupations
    in [0, cutoff]; rows unique and in lexicographic order.
    """
    occ, amp = state.occupations, np.atleast_2d(state.amplitudes)
    assert state.modes == canonical_modes(state.modes)
    assert occ.dtype == np.int64 and occ.shape == (amp.shape[1], len(state.modes))
    assert np.shape(state.leaked_norm) == np.shape(state.amplitudes)[:-1]
    assert state.support is None or state.support.shape == amp.shape
    assert ((occ >= 0) & (occ <= state.cutoff)).all()
    keys = occ @ (state.cutoff + 1) ** np.arange(len(state.modes) - 1, -1, -1)
    assert (np.diff(keys) > 0).all()


COUPLING = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.9))


@given(
    circuit=st.sampled_from([NLS, QUBIT_TELEPORT, QUTRIT_TELEPORT]),
    cutoff=st.integers(min_value=1, max_value=12),
    params=st.lists(st.tuples(COUPLING, COUPLING), min_size=1, max_size=3),
    cs=st.tuples(*[st.one_of(st.just(0.0), st.complex_numbers(max_magnitude=1.0))] * 3),
)
@settings(max_examples=60, deadline=None)
def test_every_kernel_output_meets_the_array_contract(circuit, cutoff, params, cs):
    cs = [c if max(occ) <= cutoff else 0.0 for c, occ in zip(cs, circuit.inputs)]
    assume(any(cs))
    psi = StateBatch.of(_basis_sum(circuit.modes, circuit.inputs, cs, cutoff), len(params))
    assert_well_formed(psi)
    for spec, a, b, g in circuit.layers:
        apply = apply_type2_pdc if spec is PdcSpec else apply_two_mode_squeezer
        psi = apply(psi, [spec(a, b, p[g]) for p in params])
        assert_well_formed(psi)
    conditional = project(psi, DetectionPattern({m: 1 for m in circuit.detected})).conditional_state
    assert_well_formed(conditional)
    assert_well_formed(fix_global_phase(conditional))
    states = [psi[b] for b in range(len(psi))]
    for state in states:
        assert_well_formed(state)
    assert_well_formed(superpose([(1.0, state) for state in states] + [(0.5j, states[0])]))
    norms = psi.norm_sq()
    if min(norms) > 1e-12:
        assert_well_formed(normalize(psi)[0])
        assert_well_formed(normalize(states[0])[0])


def test_pruning_gives_rows_their_own_support():
    psi = PureState(M, {(0, 0, 0): 0.6, (1, 1, 0): 0.8}, 6)
    batch = apply_two_mode_squeezer(
        StateBatch.of(psi, 2), [SqueezerSpec(M[1], M[2], g) for g in (0.0, 0.9)]
    )
    assert batch.support is not None
    assert batch.support[1].all() and not batch.support[0].all()
    for b, g in enumerate((0.0, 0.9)):
        single = apply_two_mode_squeezer(psi, SqueezerSpec(M[1], M[2], g))
        assert same_state(batch[b], single)


def test_batch_of_one_is_the_single_state_path():
    psi = PureState(M, {(1, 2, 0): 0.6, (0, 1, 1): 0.8j}, 10)
    spec = SqueezerSpec(M[0], M[1], 0.3)
    batch = apply_two_mode_squeezer(StateBatch.of(psi), [spec])
    assert len(batch) == 1 and batch.support is None
    assert same_state(batch[0], apply_two_mode_squeezer(psi, spec))
    assert len(batch.terms) == len(batch[0].terms)


def test_batch_specs_must_match_rows_and_modes():
    batch = StateBatch.of(PureState(M, {(1, 1, 0): 1.0}, 4), 2)
    with pytest.raises(FockError):
        apply_two_mode_squeezer(batch, [SqueezerSpec(M[0], M[1], 0.1)])
    with pytest.raises(FockError):
        apply_two_mode_squeezer(
            batch, [SqueezerSpec(M[0], M[1], 0.1), SqueezerSpec(M[1], M[2], 0.1)]
        )


def test_herald_distribution_computed_on_first_read(monkeypatch):
    calls = []

    def counting(state, detected):
        calls.append(len(state.amplitudes))
        return herald_weights(state, detected)

    monkeypatch.setattr(protocols, "herald_weights", counting)
    res = run_qubit_teleport(InputCoefficients(0.6, 0.8), 0.1)
    res.to_json()
    sweep("teleport-qubit", [0.05, 0.1])
    assert calls == []
    dist = res.herald_distribution
    assert dist == herald_weights(res.pre_herald_state, [ModeLabel(1), ModeLabel(2)])
    assert res.herald_distribution is dist
    assert len(calls) == 1
    total = math.fsum(w for _, w in dist)
    assert abs(total + res.pre_herald_state.leaked_norm - 1.0) <= 1e-12


def test_optimizer_propagates_run_errors():
    # every run exceeds the int64 key space: an error, not probability 0
    with pytest.raises(FockError, match="key space"):
        optimize_teleport_success("teleport-qutrit", (0.1, 0.2), tolerance=1e-2, cutoff=2000)


def test_optimizer_still_scores_infeasible_couplings_zero():
    # the first probe at gamma2 ~ 0.316 needs gamma1 > 1 and scores 0
    g2_star, p_star = optimize_teleport_success("teleport-qubit", (0.1, 0.45), tolerance=1e-4)
    assert 0.1 < g2_star < 0.25
    assert p_star > 0.0


def test_a_batch_of_no_states_gives_empty_arrays():
    from fockherald.states import ZeroNormError

    s = PureState(M, {(0, 0, 0): 0.6, (1, 1, 0): 0.8j}, 4)
    none = StateBatch.of(s, 2).take(np.array([False, False]))
    assert len(none) == 0
    for values in (fidelity(none, s), inner_product(none, s), none.norm_sq(), normalize(none)[1]):
        assert isinstance(values, np.ndarray) and values.shape == (0,)
    with pytest.raises(ZeroNormError):
        fidelity(none, PureState(M, {}, 4))


def test_a_squeezer_on_no_states_with_no_specs_names_the_missing_pair():
    # with no spec there is no mode pair to squeeze, so no layout to build
    s = PureState(QUTRIT_TELEPORT.modes, {(0,) * len(QUTRIT_TELEPORT.modes): 1.0}, 4)
    none = StateBatch.of(s, 2).take(np.array([False, False]))
    with pytest.raises(FockError, match="no mode pair"):
        apply_two_mode_squeezer(none, [])
    with pytest.raises(FockError, match="no paths"):
        apply_type2_pdc(none, [])
    with pytest.raises(FockError, match="no mode pair"):
        protocols._run_batch(QUTRIT_TELEPORT, InputCoefficients(0.6, 0.48, 0.64), [], 8)
