"""Sparse pure-state algebra over labeled bosonic modes with a hard cutoff.

One array type holds states.  A ``StateBatch`` is a set of states over one
shared occupation matrix: ``occupations``, an int64 matrix with one row per
term and one column per mode (canonical mode order), rows unique and in
lexicographic order; ``amplitudes``, a complex128 matrix with one row per
state; and ``leaked_norm``, one ledger per state.  A ``PureState`` is the
batch of one row.  It adds only single-state views (``amplitudes`` as a
vector, ``leaked_norm`` as a float, ``terms`` as a dict {occupation tuple:
complex amplitude} built on first access), the mapping constructor and the
dict/JSON round trip.  The kernels here and in ``squeezers``, ``heralding``
and ``protocols`` work on whole arrays and never visit terms one by one.
They take either kind as it is and hand back the caller's kind: states
through ``type(state)._from_arrays`` and one number per state through
``state._per_state`` (an array for a batch, a scalar for a state).

Kernels merge duplicate rows by a mixed-radix int64 key,
``sum(occ[i] * (cutoff + 1) ** (n_modes - 1 - i))``, whose order is the
lexicographic order of the rows.  A fixed-width key would wrap and silently
merge distinct terms, so a state refuses (``FockError``) any mode count and
cutoff with ``(cutoff + 1) ** n_modes > 2**63 - 1``.

Every mode carries the same per-mode photon-number cutoff, an integer;
amplitude that any operation pushes past the cutoff (or that pruning
discards) is accumulated in ``leaked_norm`` so the truncation error stays
auditable end to end.
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


def _check_cutoff(n_modes: int, cutoff: int) -> None:
    """A cutoff must be a nonnegative integer, inside the int64 term-key space."""
    try:
        operator.index(cutoff)
    except TypeError:
        raise FockError(f"cutoff must be an integer, got {cutoff!r}") from None
    if cutoff < 0:
        raise FockError(f"cutoff must be nonnegative, got {cutoff}")
    if (cutoff + 1) ** n_modes > KEY_MAX:
        raise FockError(
            f"{n_modes} modes at cutoff {cutoff} exceed the int64 term-key space:"
            f" (cutoff + 1) ** n_modes must not exceed 2**63 - 1"
        )


def _mag2(amp: np.ndarray) -> np.ndarray:
    """re*re + im*im of a complex array whose last axis is contiguous."""
    sq = np.square(amp.view(np.float64))
    return np.add(sq[..., ::2], sq[..., 1::2])


def _key_strides(n_modes: int, cutoff: int) -> np.ndarray:
    """Mixed-radix weights: ``occupations @ strides`` gives each row's int64 key.

    The first column is the most significant digit, so ascending keys are
    lexicographically ascending rows.  Callers stay inside the key space
    that a state enforces for ``cutoff``.
    """
    return np.array([(cutoff + 1) ** e for e in range(n_modes - 1, -1, -1)], dtype=np.int64)


def _group_sums(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Sum the columns of ``values`` by ``group``, row by row.

    ``values`` has one row per state; the result has one row per state and
    one column per group.  Each sum adds its values one by one in column
    order (``bincount`` does; ``add.reduceat`` sums long runs pairwise), so a
    kernel that lists its contributions in the order of a term-by-term loop
    reproduces that loop's rounding even where the contributions cancel.
    A complex ``values`` (last axis contiguous) is summed as its float64
    view, so ``group`` then numbers the view's columns: 2g and 2g + 1 for the
    real and imaginary part of group g (``_interleave``).  One ``bincount``
    serves every row and both parts: row b's groups are offset by b times
    the row's width.
    """
    n_rows, split = len(values), values.dtype.kind == "c"
    width = 2 * n_groups if split else n_groups
    if n_rows > 1:
        group = (group + width * np.arange(n_rows)[:, None]).ravel()
    parts = values.view(np.float64) if split else values
    sums = np.bincount(group, parts.ravel(), n_rows * width).reshape(n_rows, width)
    return sums.view(np.complex128) if split else sums


def _interleave(group: np.ndarray) -> np.ndarray:
    """2g and 2g + 1 for each g of ``group``: its columns' parts in a complex sum's float view."""
    out = np.empty(2 * len(group), dtype=group.dtype)
    np.multiply(group, 2, out=out[::2])  # a (n, 2) broadcast is several times slower
    np.add(out[::2], 1, out=out[1::2])
    return out


def _group_by_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row of each distinct key in ascending key order, and each row's group.

    A row's group is the position of its key in that order.
    """
    order = keys.argsort(kind="stable")
    sorted_keys = keys.take(order)
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return order.take(starts), sorted_keys.take(starts).searchsorted(keys)


def _merge_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` that share a key, in ascending key order.

    Returns the index of the first input row of each distinct key and the
    sums, each added in input order (see ``_group_sums``).
    """
    first, group = _group_by_key(keys)
    if values.dtype.kind == "c":
        group = _interleave(group)
    return first, _group_sums(group, values[None], len(first))[0]


def _row_sums(values: np.ndarray, support: np.ndarray | None) -> np.ndarray:
    """Each row of ``values`` summed over its ``support`` entries, in column order.

    A row's sum rounds exactly as ``values[b][support[b]].sum()`` does.  numpy
    sums pairwise, so entries outside the support must not take part: a
    support gets one 1-d ``sum`` per row.  ``support=None`` (every entry)
    gets one ``sum(axis=1)`` in C order, which sums each row pairwise as a
    1-d ``sum`` does; on F order numpy adds column by column instead.
    """
    if support is None:
        return np.add.reduce(np.ascontiguousarray(values), axis=1)  # ``sum`` without its wrapper
    return np.array([row[on].sum() for row, on in zip(values, support)], values.dtype)


def _check_bounds(occupations: np.ndarray, cutoff: int, names: list) -> None:
    """Raise for the first row with an occupation outside [0, cutoff].

    The row's first such entry decides: ``FockError`` if it is negative,
    else ``CutoffExceededError``.  The message names the row as
    ``names[row]`` (the term as the caller wrote it).
    """
    # one pass for both bounds: a negative occupation reads as a huge unsigned one
    wide = occupations.view(np.uint64)
    if not occupations.size or wide.max() <= cutoff:
        return
    row, col = divmod(int((wide > cutoff).argmax()), occupations.shape[1])
    if occupations[row, col] < 0:
        raise FockError(f"negative occupation in {names[row]}")
    raise CutoffExceededError(f"occupation {names[row]} exceeds cutoff {cutoff}")


def _kept(mag2: np.ndarray | float) -> np.ndarray | bool:
    """Whether terms of squared magnitude ``mag2`` stay; the rest, NaN too, join the ledger."""
    return mag2 >= EPS_DROP


class StateBatch:
    """Rows of states that share modes, cutoff and one occupation matrix.

    ``occupations`` (int64, one row per term, rows unique and in
    lexicographic order) is shared; ``amplitudes`` is a complex128 matrix
    with one row per state and one column per term, and ``leaked_norm``
    holds each state's ledger.  All three are read-only.  A state's terms
    are its nonzero entries: ``support`` marks them, or is None when every
    state has every term.  Pruning masks an entry (zero, outside the
    support) and never drops its row, so the rows of a kernel's result
    depend only on the rows it was given, never on the values.  The
    kernels build the term structure of a batch once and compute only the
    values row by row, and every sum over a state's terms runs over its
    support in column order, so row b of a result equals, bit for bit, what
    the same kernel gives ``batch[b]`` alone.

    States are immutable by convention: no method mutates ``self`` and all
    operations return fresh states, so values can be shared freely between
    threads.
    """

    __slots__ = ("modes", "occupations", "cutoff", "support", "_amps", "_ledger", "_terms",
                 "_abs2")

    @staticmethod
    def of(state: "StateBatch", size: int = 1) -> "StateBatch":
        """``size`` copies of ``state``, a state or a batch of one."""
        batch = StateBatch.__new__(StateBatch)
        batch._set(state.modes, state.occupations, state._amps.repeat(size, axis=0),
                   state.cutoff, state._ledger.repeat(size),
                   None if state.support is None else state.support.repeat(size, axis=0),
                   None if state._abs2 is None else state._abs2.repeat(size, axis=0))
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
        mag2: np.ndarray | None = None,
    ) -> "StateBatch":
        """Kernel-side constructor: a state of the kind ``cls`` from its arrays.

        The caller guarantees what a state's terms were checked for where
        they entered: ``modes`` canonical and valid, ``cutoff`` an integer
        inside the key space, the rows of ``occupations`` (int64, one column
        per mode, one row per column of ``amplitudes``) in [0, cutoff],
        unique and in lexicographic order.  ``amplitudes`` has one row per
        state (one for a ``PureState``).  ``support`` marks the entries that
        are terms of each state (None: all of them); entries outside it must
        be zero.  ``mag2`` is ``_mag2(amplitudes)``, if the caller has it.
        See ``_prune``.
        """
        state = cls.__new__(cls)
        state._prune(modes, occupations, amplitudes, cutoff, leaked_norm, support, mag2)
        return state

    def _prune(self, modes, occupations, amplitudes, cutoff, leaked_norm,
               support=None, mag2=None) -> None:
        """Store the arrays, with every pruned term moved to its state's ledger.

        The one pruning rule of both constructors: a term stays if ``_kept``
        says so, and the rest are added to the ledger as one pairwise sum per
        state, in row order.  A batch zeroes a pruned entry, which leaves the
        support, and keeps its row, so its rows are the rows it was given.  A
        ``PureState``'s rows are its terms, so it drops every pruned one.
        """
        if mag2 is None:
            mag2 = _mag2(amplitudes)
        leaked = np.asarray(leaked_norm, dtype=float)
        if not mag2.size or _kept(np.minimum.reduce(mag2, axis=None)):  # a NaN makes it false
            self._set(tuple(modes), occupations, amplitudes, cutoff, leaked, None, mag2)
            return
        keep = _kept(mag2)  # not all set: the smallest entry, or a NaN, is pruned
        leaked = leaked + _row_sums(mag2, ~keep if support is None else support & ~keep)
        if type(self) is StateBatch:
            support, amplitudes = keep, np.where(keep, amplitudes, 0)
        else:
            support = None
            occupations = occupations.compress(keep[0], axis=0)
            amplitudes = amplitudes.compress(keep[0], axis=1)
        self._set(tuple(modes), occupations, amplitudes, cutoff, leaked, support)

    def _set(self, modes, occupations, amplitudes, cutoff, leaked, support, mag2=None) -> None:
        """Store the arrays; ``mag2``, if given, is ``_mag2(amplitudes)``, kept for ``_norms_sq``."""
        occupations.setflags(write=False)
        amplitudes.setflags(write=False)
        leaked.setflags(write=False)
        self.modes = modes
        self.occupations = occupations
        self._amps = amplitudes
        self.cutoff = int(cutoff)
        self._ledger = leaked
        self.support = support
        self._terms = None
        self._abs2 = mag2

    amplitudes = property(operator.attrgetter("_amps"), doc="One amplitude row per state.")
    leaked_norm = property(operator.attrgetter("_ledger"), doc="Every state's ledger.")

    def _per_state(self, values: list):
        """``values``, one per state, as this kind returns them: an array."""
        return np.array(values)

    def _norms_sq(self) -> np.ndarray:
        return _row_sums(_mag2(self._amps) if self._abs2 is None else self._abs2, self.support)

    def __len__(self) -> int:
        return len(self._amps)

    def __getitem__(self, b: int) -> "PureState":
        """State ``b`` of the batch."""
        occ, amp = self.occupations, self._amps[b, None]
        if self.support is not None:
            on = self.support[b]
            occ, amp = occ.compress(on, axis=0), amp.compress(on, axis=1)
        state = PureState.__new__(PureState)
        state._set(self.modes, occ, amp, self.cutoff, self._ledger[b, None], None)
        return state

    def take(self, rows: np.ndarray) -> "StateBatch":
        """The states where the boolean ``rows`` is set."""
        if rows.all():
            return self
        batch = StateBatch.__new__(StateBatch)
        batch._set(self.modes, self.occupations, self._amps[rows], self.cutoff,
                   self._ledger[rows], None if self.support is None else self.support[rows])
        return batch

    def _keep_rows(self, rows: np.ndarray, occupations: np.ndarray) -> "StateBatch":
        """The batch on its ascending ``rows``, whose occupations the caller
        passes as ``occupations``; the others' weight leaves with no charge."""
        support = None if self.support is None else self.support.take(rows, axis=1)
        batch = StateBatch.__new__(StateBatch)
        batch._set(self.modes, occupations, self._amps.take(rows, axis=1), self.cutoff,
                   self._ledger, None if support is None or support.all() else support,
                   None if self._abs2 is None else self._abs2.take(rows, axis=1))
        return batch

    @property
    def terms(self) -> dict[tuple[int, ...], np.ndarray]:
        """{occupation tuple: that row's amplitude in every state}; do not mutate.

        Every row is listed, masked rows too (see ``support``).
        """
        if self._terms is None:
            self._terms = dict(zip(map(tuple, self.occupations.tolist()), self._amps.T))
        return self._terms

    def index_of(self, mode: ModeLabel) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ModeMismatchError(f"mode {mode} not in state modes {self.modes}")

    def norm_sq(self):
        """Squared norm of every state."""
        return self._per_state(self._norms_sq().tolist())


class PureState(StateBatch):
    """Sparse superposition of occupation-number basis states: a batch of one.

    ``occupations`` and ``amplitudes`` (a complex128 vector) hold the
    terms, rows unique and in lexicographic order; ``leaked_norm`` is a
    float.  ``terms`` is the equivalent dict, built on first access.
    """

    __slots__ = ()

    def __init__(
        self,
        modes: Sequence[ModeLabel],
        terms: Mapping[tuple[int, ...], complex],
        cutoff: int,
        leaked_norm: float = 0.0,
    ):
        modes = tuple(modes)
        _validate_modes(modes)
        _check_cutoff(len(modes), cutoff)
        leaked = np.array([float(leaked_norm)])
        # terms are read and checked in insertion order and the caller's mode
        # order; the first term that cannot be read is reported unless a term
        # before it is out of bounds
        occs, amps, error = [], [], None
        try:
            for occ, amp in terms.items():
                try:
                    occ = tuple(map(operator.index, occ))
                except TypeError:
                    raise FockError(f"occupation {occ} is not a tuple of integers") from None
                if len(occ) != len(modes):
                    raise ModeMismatchError(
                        f"occupation {occ} has length {len(occ)}, expected {len(modes)}"
                    )
                occs.append(occ)
                amps.append(complex(amp))
        except (TypeError, ValueError, OverflowError) as exc:
            error = exc
        try:
            occupations = np.array(occs, dtype=np.int64).reshape(len(occs), len(modes))
        except OverflowError:  # past int64 is past the bounds: keep the side
            occupations = np.array([[min(max(n, -1), cutoff + 1) for n in occ] for occ in occs])
        _check_bounds(occupations, cutoff, occs)
        if error is not None:
            raise error
        canonical = canonical_modes(modes)
        if canonical != modes:
            occupations = occupations[:, [modes.index(m) for m in canonical]]
            occs, modes = list(map(tuple, occupations.tolist())), canonical
        order = sorted(range(len(occs)), key=occs.__getitem__)
        if order != list(range(len(occs))):
            occupations = occupations.take(order, axis=0)
            amps = [amps[i] for i in order]
        amplitudes = np.array([amps], dtype=np.complex128)
        self._prune(modes, occupations, amplitudes, cutoff, leaked)

    @property
    def amplitudes(self) -> np.ndarray:
        """The amplitude of every row of ``occupations``."""
        return self._amps[0]

    @property
    def leaked_norm(self) -> float:
        return self._ledger.item()

    def _per_state(self, values: list):
        return values[0]

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        """{occupation tuple: amplitude} in lexicographic order; do not mutate."""
        if self._terms is None:
            self._terms = dict(self.sorted_terms())
        return self._terms

    # -- queries ---------------------------------------------------------

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(occ), 0j)

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
        more = "..." if len(self.occupations) > 4 else ""
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
    return PureState._from_arrays(
        first.modes, occ[rows], summed[None], first.cutoff, np.array([leaked])
    )


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


def inner_product(a: StateBatch, b: PureState) -> complex | np.ndarray:
    """<a|b>, conjugate-linear in the first argument; one per state of a batch ``a``."""
    return a._per_state(_overlaps(a, b))


def _shared_rows(a: np.ndarray, b: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the occupation matrices ``a`` and ``b`` (entries at most
    ``cutoff``) that hold the same occupation, in key order."""
    # rows are unique within each matrix, so a key shared by both appears
    # exactly twice after a stable sort: a's row first, then b's
    strides = _key_strides(a.shape[1], cutoff)
    keys = np.concatenate((a @ strides, b @ strides))
    order = keys.argsort(kind="stable")
    sorted_keys = keys.take(order)
    shared = (sorted_keys[1:] == sorted_keys[:-1]).nonzero()[0]
    return order.take(shared), order.take(shared + 1) - len(a)


def _overlaps(batch: StateBatch, b: StateBatch, rows=None) -> list[complex]:
    """<a|b> for every state a of ``batch``, each one 1-d product summed by a 1-d ``sum``.

    ``b`` is a state or a batch of one.  ``rows`` is ``_shared_rows`` of
    both occupations, found here if None.  The products of all states are
    one flat 1-d product: numpy's complex product rounds differently on a
    2-d broadcast.
    """
    if rows is None:
        if batch.modes != b.modes:
            raise ModeMismatchError("inner_product requires identical mode sets")
        rows = _shared_rows(batch.occupations, b.occupations, max(batch.cutoff, b.cutoff))
    rows_a, rows_b = rows
    amp_b = b._amps[0].take(rows_b)
    if batch.support is None:
        prods = batch._amps.take(rows_a, axis=1).conj().ravel() * np.tile(amp_b, len(batch))
        return _row_sums(prods.reshape(len(batch), len(rows_a)), None).tolist()
    return [complex((amp.take(rows_a[on]).conj() * amp_b[on]).sum())
            for amp, on in zip(batch._amps, batch.support.take(rows_a, axis=1))]


def normalize(a: StateBatch) -> tuple[StateBatch, float | np.ndarray]:
    """Rescale to unit norm; returns (normalized state, original norm).

    A batch is normalized state by state and its norms come as an array.
    """
    norms = [math.sqrt(x) for x in a._norms_sq().tolist()]
    for n in norms:
        if n <= EPS_ZERO:
            raise ZeroNormError(f"cannot normalize state with norm {n:.3e}")
    return _rescale(a, norms), a._per_state(norms)


def _rescale(batch: StateBatch, norms: list[float], rows: list[bool] | None = None) -> StateBatch:
    """Divide the states where ``rows`` is set (all if None) by their ``norms``.

    A state whose norm is within 1e-15 of 1 is left as it is; a rescaled
    state's ledger is rescaled too, capped at 1.  Rescaled norms must be
    positive.
    """
    scaled = [abs(n - 1.0) >= 1e-15 for n in norms]
    if rows is not None:
        scaled = [r and s for r, s in zip(rows, scaled)]
    if not any(scaled):
        return batch
    inv = np.array([1.0 / n if s else 1.0 for n, s in zip(norms, scaled)])
    amp = batch._amps * inv[:, None]
    leaked = np.minimum(1.0, batch._ledger * inv * inv)
    if not all(scaled):
        rows = np.array(scaled)
        amp = np.where(rows[:, None], amp, batch._amps)
        leaked = np.where(rows, leaked, batch._ledger)
    return type(batch)._from_arrays(
        batch.modes, batch.occupations, amp, batch.cutoff, leaked, batch.support
    )
