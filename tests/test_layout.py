"""The squeezer layout memo: layouts that depend on the rows only, and are reused.

A batch keeps its rows through pruning (a pruned entry only leaves the
support) unless dropping the rows past the largest photon number a state
holds halves it, so the rows after each layer, and with them each layer's
layout, mostly depend on the input, the cutoff and the mode pair, not on
the couplings.
"""

import sys

import numpy as np
import pytest
from bruteforce import apply_two_mode_squeezer_scalar

from fockherald import (
    InputCoefficients,
    ModeLabel,
    PureState,
    SqueezerSpec,
    StateBatch,
    apply_two_mode_squeezer,
    apply_type2_pdc,
    run_qutrit_teleport,
)
from fockherald.protocols import QUTRIT_TELEPORT, GateParams, _basis_sum, _plan
from fockherald.squeezers import LAYOUT_MEMO, _layout, _Rows

COEFFS = InputCoefficients(0.6, 0.48, 0.64)


def qutrit_layers(gamma2, cutoff=8):
    """The batch of one after each qutrit layer, as ``_run_batch`` runs them."""
    params = GateParams.teleport(gamma2)
    cs = (COEFFS.c0, COEFFS.c1, COEFFS.c2)
    psi = StateBatch.of(_basis_sum(QUTRIT_TELEPORT.modes, QUTRIT_TELEPORT.inputs, cs, cutoff))
    out = []
    for spec, a, b, g in QUTRIT_TELEPORT.layers:
        psi = apply_type2_pdc(psi, [spec(a, b, (params.gamma1, params.gamma2)[g])])
        out.append(psi)
    return out


def test_batch_rows_do_not_depend_on_the_coupling():
    weak, strong = qutrit_layers(0.02), qutrit_layers(0.24)
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
    # cutoff allows; a batch drops the rows past the photons held where
    # they are at least half of it, so it keeps under twice the rows below
    weak, strong = qutrit_layers(0.02, 16), qutrit_layers(0.24, 16)
    for a, b in zip(weak, strong):
        total = a.occupations.sum(axis=1)
        held = np.ones(len(total), bool) if a.support is None else a.support.any(axis=0)
        assert len(total) < 2 * np.count_nonzero(total <= total[held].max())
        rows = {r.tobytes() for r in b.occupations}
        assert all(r.tobytes() in rows for r in a.occupations)
    assert weak[-1].occupations.sum(axis=1).max() == 23
    assert len(weak[-1].occupations) * 10 < len(strong[-1].occupations)
    assert not weak[-1].support.all()  # rows below 23 photons stay masked


def test_a_run_at_a_new_coupling_builds_no_layout():
    run_qutrit_teleport(COEFFS, 0.05, cutoff=8)
    before = _layout.cache_info()
    run_qutrit_teleport(COEFFS, 0.1734, cutoff=8)
    after = _layout.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 4  # two PDC layers of two squeezers


def test_the_memo_holds_a_qutrit_run_and_is_bounded():
    assert _layout.cache_info().maxsize == LAYOUT_MEMO >= 4
    _layout.cache_clear()
    for gamma2 in (0.03, 0.2):
        for cutoff in (3, 5, 8):
            run_qutrit_teleport(COEFFS, gamma2, cutoff=cutoff)
    assert _layout.cache_info().currsize == LAYOUT_MEMO


def test_cached_layout_arrays_are_read_only():
    psi = PureState((ModeLabel(1), ModeLabel(2)), {(0, 0): 0.6, (2, 1): 0.8}, 4)
    lay = _layout(_Rows(psi.occupations), 4, 0, 1)
    assert _layout(_Rows(psi.occupations), 4, 0, 1) is lay
    for name in lay.__slots__:
        array = getattr(lay, name)
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_a_warm_memo_gives_the_reference_loop():
    # one layout per (rows, row shape, cutoff, pair): the same rows on another
    # pair or at another cutoff, other rows of the same count, and the same
    # int64 values as rows of another width get their own
    m = tuple(ModeLabel(p) for p in range(3))
    two = PureState(m[:2], {(0, 0): 0.6, (0, 1): 0.48, (1, 0): 0.64}, 3)
    three = PureState(m, {(0, 0, 0): 0.6, (1, 1, 0): 0.8}, 3)
    assert two.occupations.tobytes() == three.occupations.tobytes()
    assert _Rows(two.occupations) != _Rows(three.occupations)
    cases = [(two, (m[0], m[1]))]
    for psi in (three, PureState(m, {(0, 0, 0): 0.6, (1, 1, 0): 0.8}, 5),
                PureState(m, {(0, 1, 0): 0.6, (2, 0, 1): 0.8}, 5)):
        cases += [(psi, pair) for pair in ((m[0], m[1]), (m[1], m[2]), (m[0], m[2]))]
    _layout.cache_clear()
    for psi, pair in cases:
        spec = SqueezerSpec(*pair, 0.3)
        out = apply_two_mode_squeezer(psi, spec)
        loop = apply_two_mode_squeezer_scalar(psi, spec)
        assert np.array_equal(out.occupations, loop.occupations)
        assert out.amplitudes.tobytes() == loop.amplitudes.tobytes()
    assert _layout.cache_info().misses == len(cases)


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
    psi = StateBatch.of(_basis_sum(QUTRIT_TELEPORT.modes, QUTRIT_TELEPORT.inputs,
                                   (COEFFS.c0, COEFFS.c1, COEFFS.c2), 8))
    *first, (ma, mb, _) = _plan(QUTRIT_TELEPORT, 8, (True,) * 3).squeezers
    for a, b, g in first:
        psi = apply_two_mode_squeezer(psi, [SqueezerSpec(a, b, (params.gamma1, params.gamma2)[g])])
    ia, ib = psi.index_of(ma), psi.index_of(mb)
    lay = _layout(_Rows(psi.occupations), 8, ia, ib)
    pairs = {(r[ia], r[ib]) for r in psi.occupations.tolist()}
    assert len(psi.occupations) == 1278
    assert len(lay.low_roots) == len(pairs) == 18
    assert len(lay.term) == len(lay.low_at) == len(lay.decay_at)
    # the decay table covers the steps a row reads, not all 2 * cutoff + 2
    assert len(lay.half_steps) == lay.decay_at.max() + 1 < 2 * 8 + 2
    assert len(lay.group) == 2 * len(lay.row)  # a real and an imaginary slot each


def test_a_warm_run_reads_no_row_values():
    # each layer's input is the very array its layout was keyed on: the run
    # plan's input rows, then the previous layout's output rows
    _layout.cache_clear()
    run_qutrit_teleport(COEFFS, 0.05, cutoff=8)
    seen = []

    def watch(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)
        elif event == "c_call":
            seen.append(arg.__name__)

    before = _layout.cache_info()
    sys.setprofile(watch)
    try:
        run_qutrit_teleport(COEFFS, 0.1734, cutoff=8)
    finally:
        sys.setprofile(None)
    assert _layout.cache_info().hits == before.hits + 4
    assert "array_equal" not in seen and "tobytes" not in seen


def test_an_equal_distinct_array_hits_the_memo():
    psi = PureState((ModeLabel(1), ModeLabel(2)), {(0, 0): 0.6, (2, 1): 0.8}, 4)
    spec = SqueezerSpec(ModeLabel(1), ModeLabel(2), 0.3)
    apply_two_mode_squeezer(psi, spec)
    copy = PureState((ModeLabel(1), ModeLabel(2)), {(0, 0): 0.6, (2, 1): 0.8}, 4)
    assert copy.occupations is not psi.occupations
    before = _layout.cache_info()
    out = apply_two_mode_squeezer(copy, spec)
    after = _layout.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert out.amplitudes.tobytes() == apply_two_mode_squeezer(psi, spec).amplitudes.tobytes()


def test_clearing_the_memo_makes_the_next_run_cold():
    run_qutrit_teleport(COEFFS, 0.05, cutoff=8)
    _layout.cache_clear()
    assert _layout.cache_info() == (0, 0, LAYOUT_MEMO, 0)
    run_qutrit_teleport(COEFFS, 0.05, cutoff=8)
    assert _layout.cache_info()[:2] == (0, 4)
