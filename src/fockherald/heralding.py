"""Photon-number heralding: projection onto detection patterns.

A detection pattern fixes exact photon counts on a subset of modes.
Projection keeps the matching terms, strips the detected modes from the
surviving state, and reports the herald probability separately from the
(normalized) conditional state.  Both projection and the herald
distribution work on the state's arrays: a boolean row mask selects the
terms of one pattern, and the distribution sums squared amplitudes by the
int64 key of the detected counts in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .states import (
    EPS_ZERO,
    FockError,
    ModeLabel,
    ModeMismatchError,
    PureState,
    _key_strides,
    _mag2,
    _merge_by_key,
    _norm_sq,
    canonical_modes,
    normalize,
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
    """Normalized conditional state plus the herald probability."""

    conditional_state: PureState
    probability: float


def _detected_indices(state: PureState, modes) -> list[int]:
    idx = []
    for mode in modes:
        if mode not in state.modes:
            raise ModeMismatchError(f"detected mode {mode} not in state")
        idx.append(state.index_of(mode))
    if len(idx) >= len(state.modes):
        raise ModeMismatchError("detected modes must be a strict subset")
    return idx


def project(state: PureState, pattern: DetectionPattern) -> HeraldOutcome:
    """Condition on the pattern; zero-probability heralds are a value."""
    items = pattern.sorted_items()
    idx = _detected_indices(state, [m for m, _ in items])
    for (mode, count) in items:
        if count > state.cutoff:
            raise FockError(f"pattern count {count} on {mode} exceeds cutoff")
    keep_idx = [i for i in range(len(state.modes)) if i not in idx]
    kept_modes = [state.modes[i] for i in keep_idx]

    occ = state.occupations
    match = (occ[:, idx] == [c for _, c in items]).all(axis=1)
    amp = state.amplitudes[match]
    prob = _norm_sq(amp)
    if prob <= EPS_ZERO:
        empty = PureState._from_arrays(
            kept_modes, occ[:0, keep_idx], amp[:0], state.cutoff, state.leaked_norm
        )
        return HeraldOutcome(empty, prob)
    unnorm = PureState._from_arrays(
        kept_modes, occ[match][:, keep_idx], amp, state.cutoff, state.leaked_norm
    )
    conditional, _ = normalize(unnorm)
    return HeraldOutcome(conditional, prob)


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
