"""Photon-number heralding: projection onto detection patterns.

A detection pattern fixes exact photon counts on a subset of modes.
Projection keeps the matching terms, strips the detected modes from the
surviving state, and reports the herald probability separately from the
(normalized) conditional state.  Both projection and the herald
distribution work on the state's arrays: a boolean row mask selects the
terms of one pattern (for every state of a ``StateBatch`` at once), and the
distribution sums squared amplitudes by the int64 key of the detected
counts in a single pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import (
    EPS_ZERO,
    FockError,
    ModeLabel,
    ModeMismatchError,
    PureState,
    StateBatch,
    _as_batch,
    _key_strides,
    _mag2,
    _merge_by_key,
    _rescale,
    _row_sums,
    canonical_modes,
)


@dataclass(frozen=True)
class DetectionPattern:
    """Exact photon counts on a strict subset of a state's modes."""

    assignments: dict[ModeLabel, int] = field(default_factory=dict)

    def __post_init__(self):
        for mode, count in self.assignments.items():
            if count < 0:
                raise FockError(f"negative photon count {count} for mode {mode}")

    def sorted_items(self) -> list[tuple[ModeLabel, int]]:
        return sorted(self.assignments.items(), key=lambda kv: kv[0].sort_key())


@dataclass(frozen=True)
class HeraldOutcome:
    """Normalized conditional state plus the herald probability.

    Projecting a ``StateBatch`` gives a batch of conditional states and an
    array of probabilities, one per state.
    """

    conditional_state: PureState | StateBatch
    probability: float | np.ndarray


def _detected_indices(state: PureState | StateBatch, modes) -> list[int]:
    idx = []
    for mode in modes:
        try:
            idx.append(state.modes.index(mode))
        except ValueError:
            raise ModeMismatchError(f"detected mode {mode} not in state") from None
    if len(idx) >= len(state.modes):
        raise ModeMismatchError("detected modes must be a strict subset")
    return idx


def project(state: PureState | StateBatch, pattern: DetectionPattern) -> HeraldOutcome:
    """Condition on the pattern; zero-probability heralds are a value.

    A state whose herald probability is at most ``EPS_ZERO`` conditions to
    the empty state with its ledger unchanged.
    """
    batch = _as_batch(state)
    items = pattern.sorted_items()
    idx = _detected_indices(batch, [m for m, _ in items])
    for (mode, count) in items:
        if count > batch.cutoff:
            raise FockError(f"pattern count {count} on {mode} exceeds cutoff")
    keep_idx = [i for i in range(len(batch.modes)) if i not in idx]
    kept_modes = [batch.modes[i] for i in keep_idx]

    occ = batch.occupations
    match = (occ[:, idx] == [c for _, c in items]).all(axis=1)
    amp = batch.amplitudes.compress(match, axis=1)
    support = None if batch.support is None else batch.support.compress(match, axis=1)
    mag2 = _mag2(amp)
    prob = _row_sums(mag2, support)
    probs = prob.tolist()
    heralded = [p > EPS_ZERO for p in probs]
    if not all(heralded):
        rows = np.array(heralded)[:, None]
        amp = np.where(rows, amp, 0)
        mag2 = np.where(rows, mag2, 0.0)
        if support is None:
            support = np.ones(amp.shape, dtype=bool)
        support = support & rows
    unnorm = StateBatch._from_arrays(
        kept_modes, occ.compress(match, axis=0)[:, keep_idx], amp, batch.cutoff,
        batch.leaked_norm, support, mag2,
    )
    # a heralded state's norm is sqrt(prob): unnorm holds the same entries
    conditional = _rescale(unnorm, [math.sqrt(p) for p in probs], heralded)
    if batch is state:
        return HeraldOutcome(conditional, prob)
    return HeraldOutcome(conditional[0], probs[0])


def herald_weights(
    state: PureState, detected: list[ModeLabel]
) -> list[tuple[tuple[int, ...], float]]:
    """Weight of every herald pattern on ``detected`` with nonzero weight.

    Each pattern is a tuple of counts in canonical mode order, whatever the
    order of ``detected``, and patterns come in lexicographic order of those
    tuples.  Weights sum to the state's squared norm (up to the leaked tail).
    """
    idx = sorted(_detected_indices(state, detected))
    counts = state.occupations[:, idx]
    keys = counts @ _key_strides(len(idx), state.cutoff)
    first, weights = _merge_by_key(keys, _mag2(state.amplitudes))
    return list(zip(map(tuple, counts[first].tolist()), weights.tolist()))


def outcome_distribution(
    state: PureState, detected: list[ModeLabel]
) -> list[tuple[DetectionPattern, float]]:
    """All herald patterns with nonzero weight, in lexicographic order.

    The order is that of ``herald_weights``: lexicographic in the counts
    taken in canonical mode order.  Probabilities sum to the state's squared
    norm (up to the leaked tail).
    """
    modes = canonical_modes(detected)
    return [
        (DetectionPattern(dict(zip(modes, counts))), weight)
        for counts, weight in herald_weights(state, detected)
    ]
