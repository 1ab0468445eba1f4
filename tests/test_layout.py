"""Squeezer layouts: what a squeezer derives from the rows only, kept by the run plan.

A batch keeps its rows through pruning (a pruned entry only leaves the
support), so the rows after each layer, and with them each layer's layout,
depend on the input rows, the cutoff and the mode pair only, never on the
couplings or the coefficients.  The run plan builds each squeezer's layout
once (``protocols._Plan.layouts``); the public kernels build theirs on
every call.
"""

import math
import random
import sys

import numpy as np
import pytest
from bruteforce import apply_two_mode_squeezer_scalar, basis_sum, run_batch_reference
from test_plan import _heralded, assert_same_run, recording

from fockherald import (
    InputCoefficients,
    ModeLabel,
    PureState,
    SqueezerSpec,
    StateBatch,
    apply_two_mode_squeezer,
    apply_type2_pdc,
    run_nls,
    run_qubit_teleport,
    run_qutrit_teleport,
    squeezers,
    sweep,
)
from fockherald import protocols
from fockherald.protocols import (
    NLS,
    QUTRIT_TELEPORT,
    GateParams,
    _plan,
    _run_batch,
    solve_nls_params,
)
from fockherald.squeezers import _layout

COEFFS = InputCoefficients(0.6, 0.48, 0.64)


def qutrit_layers(gamma2, cutoff=8):
    """The batch of one after each qutrit layer, as ``_run_batch`` runs them."""
    params = GateParams.teleport(gamma2)
    cs = (COEFFS.c0, COEFFS.c1, COEFFS.c2)
    psi = StateBatch.of(basis_sum(QUTRIT_TELEPORT.modes, QUTRIT_TELEPORT.inputs, cs, cutoff))
    out = []
    for spec, a, b, g in QUTRIT_TELEPORT.layers:
        psi = apply_type2_pdc(psi, [spec(a, b, (params.gamma1, params.gamma2)[g])])
        out.append(psi)
    return out


def test_batch_rows_do_not_depend_on_the_coupling():
    for cutoff in (8, 16):
        weak, strong = qutrit_layers(0.02, cutoff), qutrit_layers(0.24, cutoff)
        for a, b in zip(weak, strong):
            assert np.array_equal(a.occupations, b.occupations)
        # the weak coupling prunes entries the strong one keeps, and the batch
        # keeps their rows as masked entries: zero and outside the support
        assert weak[-1].support is not None
        assert not np.array_equal(weak[-1].support, strong[-1].support)
        masked = ~weak[-1].support[0]
        assert (weak[-1].amplitudes[0][masked] == 0).all()
        assert len(weak[-1][0].occupations) == weak[-1].support[0].sum()


def test_a_weak_coupling_drops_the_rows_past_its_photons():
    # at cutoff 16 gamma2 = 0.02 holds at most 23 photons of the 65 the
    # cutoff allows.  The batch keeps every row, masked past 23; the state
    # it holds drops them, and keeps under a tenth of the strong state's rows
    weak, strong = qutrit_layers(0.02, 16), qutrit_layers(0.24, 16)
    total = weak[-1].occupations.sum(axis=1)
    assert total[weak[-1].support[0]].max() == 23 and total.max() == 65
    state = weak[-1][0]
    assert isinstance(state, PureState)
    assert state.occupations.sum(axis=1).max() == 23
    assert len(state.occupations) * 10 < len(strong[-1][0].occupations)


# each workload's circuit at a coupling g, and its number of squeezers
RUNS_AT = {
    "nls, cutoff 64": (lambda g: run_nls(COEFFS, GateParams(g, g / 2), cutoff=64), 2),
    "qubit, herald cutoff": (lambda g: run_qubit_teleport(InputCoefficients(0.6, 0.8), g), 2),
    "qutrit, cutoff 8": (lambda g: run_qutrit_teleport(COEFFS, g, cutoff=8), 4),
    "qubit sweep, 24 points": (
        lambda g: sweep("teleport-qubit", [g + 0.1 * i / 23 for i in range(24)]), 2),
}


def test_a_run_at_a_new_coupling_builds_no_layout(monkeypatch):
    # a warm run finds every layout in its run plan: the very objects the
    # run before used, with no layout and no squeezer spec built
    built, specs, used = [], [], []
    recording(monkeypatch, protocols, "_layout", built, lambda *args: len(args[0]))
    recording(monkeypatch, SqueezerSpec, "__post_init__", specs, lambda spec: spec)
    recording(monkeypatch, protocols, "_squeeze", used, lambda state, lay, gammas: lay)
    for name, (run, layers) in RUNS_AT.items():
        run(0.05)
        warm = used[:]
        del built[:], specs[:], used[:]
        run(0.1734)
        assert (built, specs) == ([], []), name
        assert len(used) == layers and [id(x) for x in used] == [id(x) for x in warm[-layers:]]
        del used[:]


# per run of ``RUNS_AT``, whether each squeezer's input rows all have
# min(n_a, n_b) = 0, so that it has no lowering series to compute
DOES_NOT_LOWER = {
    "nls, cutoff 64": [True, False],
    "qubit, herald cutoff": [True, False],
    "qutrit, cutoff 8": [True, True, False, False],
    "qubit sweep, 24 points": [True, False],
}


def test_a_layer_that_does_not_lower_computes_no_lowering_series(monkeypatch):
    # the series table of a warm run's layout holds one row per lowering pair
    # and one per raising pair: none of the first kind where no term lowers
    used = []
    recording(monkeypatch, protocols, "_squeeze", used, lambda state, lay, gammas: lay)
    for name, (run, layers) in RUNS_AT.items():
        run(0.05)
        del used[:]
        run(0.1734)
        assert len(used) == layers
        for lay, plain in zip(used, DOES_NOT_LOWER[name]):
            width = lay.roots.shape[1]
            lowering = 0 if lay.low_at is None else len(np.unique(lay.low_at // width))
            raising = len(np.unique(lay.raise_at // width))
            assert (lay.low_at is None) == plain, name
            assert len(lay.roots) == lowering + raising
            assert (lowering == 0) == plain, name


def test_a_warm_nls_stream_builds_no_herald_rows(monkeypatch):
    # the last squeezer's rows are its layout's whatever the coefficients:
    # the plan builds their herald rows once, and the stream none
    rng = random.Random(19)
    stream = []
    for _ in range(200):
        xs = [rng.gauss(0.0, 1.0) for _ in range(6)]
        inv = 1.0 / math.sqrt(sum(x * x for x in xs))
        stream.append(InputCoefficients(*(complex(xs[i] * inv, xs[i + 1] * inv)
                                          for i in (0, 2, 4))))
    params = solve_nls_params()
    _plan.cache_clear()
    built, rows = [], []
    recording(monkeypatch, protocols, "_herald_rows", built, lambda occ, *rest: len(occ))
    recording(monkeypatch, protocols, "_condition", rows, lambda psi, *rest: len(psi.occupations))
    for coeffs in stream:
        run_nls(coeffs, params, 64)
    assert sorted(built) == sorted(set(rows))
    del built[:]
    for coeffs in stream:
        assert _heralded(_run_batch(NLS, coeffs, [params], 64)) == _heralded(
            run_batch_reference(NLS, coeffs, [params], 64))
    assert built == []


def test_cached_layout_arrays_are_read_only():
    psi = PureState((ModeLabel(1), ModeLabel(2)), {(0, 0): 0.6, (2, 1): 0.8}, 4)
    lay = _layout(psi.occupations, 4, 0, 1)
    for name in lay.__slots__:
        array = getattr(lay, name)
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_every_call_builds_its_layout_and_gives_the_reference_loop(monkeypatch):
    # the same rows on another pair or at another cutoff, other rows of the
    # same count, and the same int64 values as rows of another width: each
    # public call builds its own layout from its own rows
    m = tuple(ModeLabel(p) for p in range(3))
    two = PureState(m[:2], {(0, 0): 0.6, (0, 1): 0.48, (1, 0): 0.64}, 3)
    three = PureState(m, {(0, 0, 0): 0.6, (1, 1, 0): 0.8}, 3)
    assert two.occupations.tobytes() == three.occupations.tobytes()
    cases = [(two, (m[0], m[1]))]
    for psi in (three, PureState(m, {(0, 0, 0): 0.6, (1, 1, 0): 0.8}, 5),
                PureState(m, {(0, 1, 0): 0.6, (2, 0, 1): 0.8}, 5)):
        cases += [(psi, pair) for pair in ((m[0], m[1]), (m[1], m[2]), (m[0], m[2]))]
    built = []
    recording(monkeypatch, squeezers, "_layout", built, lambda occ, *key: (occ, *key))
    for psi, pair in cases:
        spec = SqueezerSpec(*pair, 0.3)
        out = apply_two_mode_squeezer(psi, spec)
        loop = apply_two_mode_squeezer_scalar(psi, spec)
        assert np.array_equal(out.occupations, loop.occupations)
        assert out.amplitudes.tobytes() == loop.amplitudes.tobytes()
        assert built[-1][0] is psi.occupations
    assert len(built) == len(cases)


def test_a_pure_state_still_drops_pruned_terms():
    modes = (ModeLabel(1), ModeLabel(2))
    psi = PureState(modes, {(0, 0): 1.0}, 12)
    out = apply_two_mode_squeezer(psi, SqueezerSpec(*modes, 0.02))
    # (1 - g) g^n falls below the pruning threshold from n = 10 on
    assert out.leaked_norm > 0
    assert out.support is None
    assert len(out.occupations) == len(out.amplitudes) == len(out.terms) == 10
    # the same squeezer on a batch of one keeps all 13 rows, 3 of them masked
    batch = apply_two_mode_squeezer(StateBatch.of(psi), [SqueezerSpec(*modes, 0.02)])
    assert len(batch.occupations) == 13 and batch.support.sum() == 10
    assert batch.leaked_norm[0] == out.leaked_norm


def test_the_lowering_series_is_computed_once_per_pair():
    # the qutrit's last squeezer at cutoff 8: its input rows and its layout
    params = GateParams.teleport(0.1)
    psi = StateBatch.of(basis_sum(QUTRIT_TELEPORT.modes, QUTRIT_TELEPORT.inputs,
                                   (COEFFS.c0, COEFFS.c1, COEFFS.c2), 8))
    *first, (ia, ib, _) = _plan(QUTRIT_TELEPORT, 8, (True,) * 3).squeezers
    for a, b, g in first:
        spec = SqueezerSpec(psi.modes[a], psi.modes[b], (params.gamma1, params.gamma2)[g])
        psi = apply_two_mode_squeezer(psi, [spec])
    lay = _layout(psi.occupations, 8, ia, ib)
    pairs = {(r[ia], r[ib]) for r in psi.occupations.tolist()}
    lowered = {(m - k, n - k) for m, n in pairs for k in range(min(m, n) + 1)}
    assert len(psi.occupations) == 1278
    # one row of the series table per input pair, then one per lowered pair
    assert np.array_equal(np.unique(lay.low_at // lay.roots.shape[1]), np.arange(len(pairs)))
    assert len(pairs) == 18 and len(lay.roots) == len(pairs) + len(lowered)
    assert len(lay.term) == len(lay.low_at) == len(lay.decay_at)
    # the decay table covers the steps a row reads, not all 2 * cutoff + 2
    assert len(lay.half_steps) == lay.decay_at.max() + 1 < 2 * 8 + 2
    assert len(lay.group) == 2 * len(lay.row)  # a real and an imaginary slot each


def test_a_warm_run_reads_no_row_values():
    # each layer's input is the very array its layout was built from: the
    # run plan's input rows, then the cone rows the plan holds
    run_qutrit_teleport(COEFFS, 0.05, cutoff=8)
    seen = []

    def watch(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)
        elif event == "c_call":
            seen.append(arg.__name__)

    sys.setprofile(watch)
    try:
        run_qutrit_teleport(COEFFS, 0.1734, cutoff=8)
    finally:
        sys.setprofile(None)
    assert seen.count("_squeeze") == 4 and "_layout" not in seen
    assert "array_equal" not in seen and "tobytes" not in seen


@pytest.mark.parametrize("circuit, cutoff", [(NLS, None), (NLS, 64), (QUTRIT_TELEPORT, 8)])
def test_a_pruned_input_keeps_the_plan_rows_and_the_reference_bits(circuit, cutoff, monkeypatch):
    # c0 = 1e-9 falls below the pruning threshold: the input batch masks its
    # row, the vacuum, and keeps the plan's input rows on every run
    coeffs = InputCoefficients(1e-9, 0.6, 0.8)
    params = [GateParams(0.3, 0.2), GateParams(0.1, 0.05)]
    inputs, built = [], []
    recording(monkeypatch, protocols, "_squeeze", inputs, lambda state, *rest: state)
    _run_batch(circuit, coeffs, params, cutoff)
    recording(monkeypatch, protocols, "_layout", built, lambda *args: args)
    _run_batch(circuit, coeffs, params, cutoff)
    layers = len(inputs) // 2
    plan = _plan(circuit, inputs[0].cutoff, (True,) * 3)
    assert built == [] and inputs[0].occupations is inputs[layers].occupations
    assert inputs[0].occupations is plan.inputs[0].occupations
    assert len(inputs[0].occupations) == len(circuit.inputs)
    assert inputs[0].support.tolist() == [[False, True, True]] * len(params)
    for _ in range(2):
        assert_same_run(circuit, coeffs, params, cutoff)
