"""Sparse pure-state algebra over labeled bosonic modes with a hard cutoff.

A state stores its nonzero terms as two arrays: ``occupations``, an int64
matrix with one row per term and one column per mode (canonical mode
order), and ``amplitudes``, the matching complex128 vector.  Rows are
unique and kept in lexicographic order, so the kernels in ``squeezers``
and ``heralding`` work on whole arrays and never visit terms one by one.
``terms`` is a dict view {occupation tuple: complex amplitude}, built on
first access and cached; states produced inside a circuit never build it
unless asked.

Kernels merge duplicate rows by a mixed-radix int64 key,
``sum(occ[i] * (cutoff + 1) ** (n_modes - 1 - i))``, whose order is the
lexicographic order of the rows.  A fixed-width key would wrap and silently
merge distinct terms, so a state refuses (``FockError``) any mode count and
cutoff with ``(cutoff + 1) ** n_modes > 2**63 - 1``.

Every mode carries the same per-mode photon-number cutoff; amplitude that
any operation pushes past the cutoff (or that pruning discards) is
accumulated in ``leaked_norm`` so the truncation error stays auditable end
to end.

A ``StateBatch`` holds many states over one shared occupation matrix, one
amplitude row and one ledger per state.  The kernels are written for
batches; a ``PureState`` passes through them as a batch of one.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

EPS_DROP = 1e-16   # squared-amplitude pruning threshold
EPS_ZERO = 1e-12   # below this a norm counts as zero
KEY_MAX = 2**63 - 1  # largest int64 term key

_POL_ORDER = {None: "", "H": "H", "V": "V"}


class FockError(ValueError):
    """Base class for contract violations in the state algebra."""


class ModeMismatchError(FockError):
    """Mode sets of the operands are incompatible."""


class CutoffExceededError(FockError):
    """An occupation number violates the per-mode cutoff."""


class ZeroNormError(FockError):
    """Operation requires a state with nonzero norm."""


@dataclass(frozen=True, slots=True)
class ModeLabel:
    """Spatial path index plus optional polarization ('H' or 'V')."""

    path: int
    pol: str | None = None

    def __post_init__(self):
        if self.path < 0:
            raise FockError(f"path index must be nonnegative, got {self.path}")
        if self.pol not in (None, "H", "V"):
            raise FockError(f"polarization must be 'H', 'V' or None, got {self.pol!r}")

    def sort_key(self) -> tuple[int, str]:
        return (self.path, _POL_ORDER[self.pol])

    def __str__(self):
        return f"{self.pol}{self.path}" if self.pol else str(self.path)


def canonical_modes(modes: Iterable[ModeLabel]) -> tuple[ModeLabel, ...]:
    """Sort mode labels by (path, polarization) with H before V."""
    return tuple(sorted(modes, key=ModeLabel.sort_key))


def _validate_modes(modes: Sequence[ModeLabel]) -> None:
    if len(set(modes)) != len(modes):
        raise ModeMismatchError(f"duplicate mode labels in {modes}")
    by_path: dict[int, set[bool]] = {}
    for m in modes:
        by_path.setdefault(m.path, set()).add(m.pol is not None)
    for path, kinds in by_path.items():
        if len(kinds) > 1:
            raise ModeMismatchError(
                f"path {path} mixes polarized and unpolarized modes"
            )


def _check_key_space(n_modes: int, cutoff: int) -> None:
    if (cutoff + 1) ** n_modes > KEY_MAX:
        raise FockError(
            f"{n_modes} modes at cutoff {cutoff} exceed the int64 term-key space:"
            f" (cutoff + 1) ** n_modes must not exceed 2**63 - 1"
        )


def _mag2(amp: np.ndarray) -> np.ndarray:
    return amp.real * amp.real + amp.imag * amp.imag


def _key_strides(n_modes: int, cutoff: int) -> np.ndarray:
    """Mixed-radix weights: ``occupations @ strides`` gives each row's int64 key.

    The first column is the most significant digit, so ascending keys are
    lexicographically ascending rows.  Callers stay inside the key space
    that ``PureState`` enforces for ``cutoff``.
    """
    return np.array([(cutoff + 1) ** e for e in range(n_modes - 1, -1, -1)], dtype=np.int64)


def _group_sums(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Sum the columns of ``values`` by ``group``, row by row.

    ``values`` has one row per state; the result has one row per state and
    one column per group.  Each sum adds its values one by one in column
    order (``bincount`` does; ``add.reduceat`` sums long runs pairwise), so a
    kernel that lists its contributions in the order of a term-by-term loop
    reproduces that loop's rounding even where the contributions cancel.
    One ``bincount`` serves every row: row b's groups are offset by
    b * ``n_groups``.
    """
    n_rows = len(values)
    if n_rows > 1:
        group = (group + n_groups * np.arange(n_rows)[:, None]).ravel()

    def add(w):
        return np.bincount(group, w.ravel(), n_rows * n_groups).reshape(n_rows, n_groups)

    if values.dtype.kind != "c":
        return add(values)
    sums = np.empty((n_rows, n_groups), dtype=values.dtype)
    sums.real = add(values.real)
    sums.imag = add(values.imag)
    return sums


def _group_by_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row of each distinct key in ascending key order, and each row's group.

    A row's group is the position of its key in that order.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return order[starts], np.searchsorted(sorted_keys[starts], keys)


def _merge_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` that share a key, in ascending key order.

    Returns the index of the first input row of each distinct key and the
    sums, each added in input order (see ``_group_sums``).
    """
    first, group = _group_by_key(keys)
    return first, _group_sums(group, values[None], len(first))[0]


def _row_sums(values: np.ndarray, support: np.ndarray | None) -> np.ndarray:
    """Each row of ``values`` summed over its ``support`` entries, in column order.

    A row's sum rounds exactly as ``values[b][support[b]].sum()`` does: numpy
    sums pairwise, so the zeros of entries outside the support must not take
    part, and a 2-d ``sum(axis=1)`` may add column by column instead.
    ``support=None`` means every entry of every row.
    """
    if support is None:
        return np.array([row.sum() for row in values], dtype=values.dtype)
    flat = values[support]
    ends = np.cumsum(np.count_nonzero(support, axis=1)).tolist()
    return np.array(
        [flat[a:b].sum() for a, b in zip([0] + ends[:-1], ends)], dtype=values.dtype
    )


def _mode_index(modes: tuple[ModeLabel, ...], mode: ModeLabel) -> int:
    try:
        return modes.index(mode)
    except ValueError:
        raise ModeMismatchError(f"mode {mode} not in state modes {modes}")


class PureState:
    """Sparse superposition of occupation-number basis states.

    ``occupations`` (int64, one row per term) and ``amplitudes``
    (complex128) hold the terms, rows unique and in lexicographic order;
    both arrays are read-only.  ``terms`` is the equivalent dict, built on
    first access.

    Instances are immutable by convention: no method mutates ``self`` and
    all operations return fresh states, so values can be shared freely
    between threads.
    """

    __slots__ = ("modes", "occupations", "amplitudes", "cutoff", "leaked_norm", "_terms")

    def __init__(
        self,
        modes: Sequence[ModeLabel],
        terms: Mapping[tuple[int, ...], complex],
        cutoff: int,
        leaked_norm: float = 0.0,
    ):
        modes = tuple(modes)
        _validate_modes(modes)
        order = canonical_modes(modes)
        if order != modes:
            perm = [modes.index(m) for m in order]
            terms = {tuple(occ[p] for p in perm): a for occ, a in terms.items()}
            modes = order
        if cutoff < 0:
            raise FockError(f"cutoff must be nonnegative, got {cutoff}")
        _check_key_space(len(modes), cutoff)
        kept: dict[tuple[int, ...], complex] = {}
        leaked = float(leaked_norm)
        for occ, amp in terms.items():
            try:
                occ = tuple(map(operator.index, occ))
            except TypeError:
                raise FockError(f"occupation {occ} is not a tuple of integers") from None
            if len(occ) != len(modes):
                raise ModeMismatchError(
                    f"occupation {occ} has length {len(occ)}, expected {len(modes)}"
                )
            for n in occ:
                if n < 0:
                    raise FockError(f"negative occupation in {occ}")
                if n > cutoff:
                    raise CutoffExceededError(
                        f"occupation {occ} exceeds cutoff {cutoff}"
                    )
            amp = complex(amp)
            mag2 = amp.real * amp.real + amp.imag * amp.imag
            if mag2 < EPS_DROP:
                leaked += mag2
            else:
                kept[occ] = amp
        items = sorted(kept.items())
        occupations = np.array([occ for occ, _ in items], dtype=np.int64)
        amplitudes = np.array([amp for _, amp in items], dtype=np.complex128)
        self._set(modes, occupations.reshape(len(items), len(modes)), amplitudes,
                  cutoff, leaked)

    def _set(self, modes, occupations, amplitudes, cutoff, leaked) -> None:
        occupations.flags.writeable = False
        amplitudes.flags.writeable = False
        self.modes = modes
        self.occupations = occupations
        self.amplitudes = amplitudes
        self.cutoff = int(cutoff)
        self.leaked_norm = leaked
        self._terms = None

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        """{occupation tuple: amplitude} in lexicographic order; do not mutate."""
        if self._terms is None:
            self._terms = dict(self.sorted_terms())
        return self._terms

    # -- queries ---------------------------------------------------------

    def index_of(self, mode: ModeLabel) -> int:
        return _mode_index(self.modes, mode)

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(occ), 0j)

    def norm_sq(self) -> float:
        return float(_mag2(self.amplitudes).sum())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], complex]]:
        """Terms in lexicographic occupation order (deterministic)."""
        return list(zip(map(tuple, self.occupations.tolist()), self.amplitudes.tolist()))

    def __repr__(self):
        parts = [
            f"({a:.4g})|{','.join(map(str, occ))}>"
            for occ, a in self.sorted_terms()[:4]
        ]
        more = "..." if len(self.amplitudes) > 4 else ""
        return (
            f"PureState[{'+'.join(str(m) for m in self.modes)}; cutoff={self.cutoff}; "
            f"{' + '.join(parts)}{more}]"
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "modes": [{"path": m.path, "pol": m.pol} for m in self.modes],
            "cutoff": self.cutoff,
            "leaked_norm": self.leaked_norm,
            "terms": [
                {"occ": list(occ), "re": a.real, "im": a.imag}
                for occ, a in self.sorted_terms()
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "PureState":
        modes = [ModeLabel(m["path"], m.get("pol")) for m in data["modes"]]
        terms = {
            tuple(t["occ"]): complex(t["re"], t["im"]) for t in data["terms"]
        }
        return cls(modes, terms, data["cutoff"], data.get("leaked_norm", 0.0))

    @classmethod
    def from_json(cls, text: str) -> "PureState":
        return cls.from_dict(json.loads(text))


class StateBatch:
    """Rows of states that share modes, cutoff and one occupation matrix.

    ``amplitudes`` is a complex128 matrix with one row per state and one
    column per row of ``occupations`` (unique, lexicographic, as in
    ``PureState``); ``leaked_norm`` holds each state's ledger.  A state's
    terms are its nonzero entries: ``support`` marks them, or is None when
    every state has every term.  The kernels build the term structure of a
    batch once and compute only the values row by row, and every sum over a
    state's terms runs over its support in column order, so row b of a
    result equals, bit for bit, what the same kernel gives ``batch[b]``
    alone.  A ``PureState`` passes through a kernel as a batch of one.
    """

    __slots__ = ("modes", "occupations", "amplitudes", "cutoff", "leaked_norm",
                 "support", "_terms")

    @classmethod
    def of(cls, state: PureState, size: int = 1) -> "StateBatch":
        """``size`` copies of ``state``."""
        amp = state.amplitudes[None]
        if size != 1:
            amp = amp.repeat(size, axis=0)
        batch = cls.__new__(cls)
        batch._set(state.modes, state.occupations, amp, state.cutoff,
                   np.full(size, state.leaked_norm), None)
        return batch

    @classmethod
    def _from_arrays(
        cls,
        modes: Sequence[ModeLabel],
        occupations: np.ndarray,
        amplitudes: np.ndarray,
        cutoff: int,
        leaked_norm: np.ndarray,
        support: np.ndarray | None = None,
    ) -> "StateBatch":
        """Kernel-side constructor: the mapping constructor's checks, vectorised.

        ``modes`` must be canonical and valid, and the rows of
        ``occupations`` unique and in lexicographic order; the kernels
        guarantee both.  ``support`` marks the entries that are terms of
        each state (None: all of them); entries outside it must be zero.
        Occupations are checked against 0 and the cutoff, and terms with
        ``|amp|**2 < EPS_DROP`` move to their state's ``leaked_norm``.
        """
        modes = tuple(modes)
        _check_key_space(len(modes), cutoff)
        if occupations.shape != (amplitudes.shape[-1], len(modes)):
            raise ModeMismatchError(
                f"occupation matrix of shape {occupations.shape} does not match"
                f" {amplitudes.shape[-1]} amplitudes on {len(modes)} modes"
            )
        if occupations.min(initial=0) < 0:
            raise FockError("negative occupation")
        if occupations.max(initial=0) > cutoff:
            raise CutoffExceededError(f"occupation exceeds cutoff {cutoff}")
        mag2 = _mag2(amplitudes)
        keep = mag2 >= EPS_DROP
        leaked = np.asarray(leaked_norm, dtype=float)
        if keep.all():
            support = None
        else:
            leaked = leaked + _row_sums(mag2, ~keep if support is None else support & ~keep)
            rows = keep.any(axis=0)
            if not rows.all():
                occupations = occupations[rows]
                amplitudes, keep = amplitudes.compress(rows, axis=1), keep.compress(rows, axis=1)
            support = None if keep.all() else keep
            if support is not None:
                amplitudes = np.where(keep, amplitudes, 0)
        batch = cls.__new__(cls)
        batch._set(modes, occupations, amplitudes, cutoff, leaked, support)
        return batch

    def _set(self, modes, occupations, amplitudes, cutoff, leaked, support) -> None:
        for arr in (occupations, amplitudes, leaked):
            arr.flags.writeable = False
        self.modes = modes
        self.occupations = occupations
        self.amplitudes = amplitudes
        self.cutoff = int(cutoff)
        self.leaked_norm = leaked
        self.support = support
        self._terms = None

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __getitem__(self, b: int) -> PureState:
        """State ``b`` of the batch."""
        occ, amp = self.occupations, self.amplitudes[b]
        if self.support is not None:
            occ, amp = occ[self.support[b]], amp[self.support[b]]
        state = PureState.__new__(PureState)
        state._set(self.modes, occ, amp, self.cutoff, float(self.leaked_norm[b]))
        return state

    def take(self, rows: np.ndarray) -> "StateBatch":
        """The states where the boolean ``rows`` is set."""
        if rows.all():
            return self
        batch = StateBatch.__new__(StateBatch)
        batch._set(self.modes, self.occupations, self.amplitudes[rows], self.cutoff,
                   self.leaked_norm[rows], None if self.support is None else self.support[rows])
        return batch

    @property
    def terms(self) -> dict[tuple[int, ...], np.ndarray]:
        """{occupation tuple: that term's amplitude in every state}; do not mutate."""
        if self._terms is None:
            self._terms = dict(zip(map(tuple, self.occupations.tolist()), self.amplitudes.T))
        return self._terms

    def index_of(self, mode: ModeLabel) -> int:
        return _mode_index(self.modes, mode)

    def norm_sq(self) -> np.ndarray:
        """Squared norm of every state."""
        return _row_sums(_mag2(self.amplitudes), self.support)


def _as_batch(state: PureState | StateBatch) -> StateBatch:
    return StateBatch.of(state) if isinstance(state, PureState) else state


# -- constructors and algebra ---------------------------------------------


def make_basis_state(
    modes: Sequence[ModeLabel], occ: Sequence[int], cutoff: int
) -> PureState:
    """Single occupation-number basis state with amplitude 1."""
    occ = tuple(occ)
    if len(occ) != len(modes):
        raise ModeMismatchError(
            f"occupation length {len(occ)} does not match {len(modes)} modes"
        )
    return PureState(modes, {occ: 1.0 + 0j}, cutoff)


def vacuum_state(modes: Sequence[ModeLabel], cutoff: int) -> PureState:
    return make_basis_state(modes, (0,) * len(modes), cutoff)


def superpose(terms: Sequence[tuple[complex, PureState]]) -> PureState:
    """Linear combination; duplicate occupation vectors merge by addition."""
    if not terms:
        raise FockError("superpose requires at least one term")
    _, first = terms[0]
    for _, st in terms[1:]:
        if st.modes != first.modes:
            raise ModeMismatchError("superpose operands have different mode sets")
        if st.cutoff != first.cutoff:
            raise FockError("superpose operands have different cutoffs")
    coeffs = [complex(c) for c, _ in terms]
    leaked = 0.0
    for coeff, (_, st) in zip(coeffs, terms):
        leaked += (coeff.real * coeff.real + coeff.imag * coeff.imag) * st.leaked_norm
    occ = np.concatenate([st.occupations for _, st in terms])
    amp = np.concatenate([c * st.amplitudes for c, (_, st) in zip(coeffs, terms)])
    rows, summed = _merge_by_key(occ @ _key_strides(len(first.modes), first.cutoff), amp)
    return StateBatch._from_arrays(
        first.modes, occ[rows], summed[None], first.cutoff, np.array([leaked])
    )[0]


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product over disjoint mode sets (canonically reordered)."""
    if set(a.modes) & set(b.modes):
        raise ModeMismatchError(
            f"tensor operands share modes: {set(a.modes) & set(b.modes)}"
        )
    if a.cutoff != b.cutoff:
        raise FockError("tensor operands have different cutoffs")
    modes = a.modes + b.modes
    terms: dict[tuple[int, ...], complex] = {}
    for occ_a, amp_a in a.sorted_terms():
        for occ_b, amp_b in b.sorted_terms():
            terms[occ_a + occ_b] = amp_a * amp_b
    return PureState(modes, terms, a.cutoff, a.leaked_norm + b.leaked_norm)


def inner_product(a: PureState | StateBatch, b: PureState) -> complex | np.ndarray:
    """<a|b>, conjugate-linear in the first argument; one per state of a batch ``a``."""
    batch = _as_batch(a)
    if batch.modes != b.modes:
        raise ModeMismatchError("inner_product requires identical mode sets")
    # rows are unique within each state, so a key shared by both appears
    # exactly twice after a stable sort: a's row first, then b's
    strides = _key_strides(len(b.modes), max(batch.cutoff, b.cutoff))
    keys = np.concatenate((batch.occupations @ strides, b.occupations @ strides))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    shared = sorted_keys[1:] == sorted_keys[:-1]
    rows_a = order[:-1][shared]
    rows_b = order[1:][shared] - len(batch.occupations)
    # state by state over 1-d arrays of its shared terms: numpy's complex
    # product rounds differently on other array shapes
    sums = []
    for r, amp in enumerate(batch.amplitudes):
        ra, rb = rows_a, rows_b
        if batch.support is not None:
            on = batch.support[r, rows_a]
            ra, rb = rows_a[on], rows_b[on]
        sums.append(complex((amp[ra].conj() * b.amplitudes[rb]).sum()))
    return sums[0] if batch is not a else np.array(sums)


def normalize(a: PureState | StateBatch) -> tuple[PureState | StateBatch, float | np.ndarray]:
    """Rescale to unit norm; returns (normalized state, original norm).

    A batch is normalized state by state and its norms come as an array.
    """
    batch = _as_batch(a)
    n = np.sqrt(batch.norm_sq())
    zero = n <= EPS_ZERO
    if zero.any():
        raise ZeroNormError(f"cannot normalize state with norm {n[zero][0]:.3e}")
    out = _rescale(batch, n, np.ones(len(n), dtype=bool))
    if batch is a:
        return out, n
    return (a if out is batch else out[0]), float(n[0])


def _rescale(batch: StateBatch, n: np.ndarray, rows: np.ndarray) -> StateBatch:
    """Divide the states where ``rows`` is set by their norms ``n``.

    A state whose norm is within 1e-15 of 1 is left as it is; a rescaled
    state's ledger is rescaled too, capped at 1.
    """
    rows = rows & (np.abs(n - 1.0) >= 1e-15)
    if not rows.any():
        return batch
    inv = 1.0 / np.where(rows, n, 1.0)
    amp = batch.amplitudes * inv[:, None]
    leaked = np.minimum(1.0, batch.leaked_norm * inv * inv)
    if not rows.all():
        amp = np.where(rows[:, None], amp, batch.amplitudes)
        leaked = np.where(rows, leaked, batch.leaked_norm)
    return StateBatch._from_arrays(
        batch.modes, batch.occupations, amp, batch.cutoff, leaked, batch.support
    )
