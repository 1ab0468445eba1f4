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


def _norm_sq(amp: np.ndarray) -> float:
    return float(_mag2(amp).sum())


def _key_strides(n_modes: int, cutoff: int) -> np.ndarray:
    """Mixed-radix weights: ``occupations @ strides`` gives each row's int64 key.

    The first column is the most significant digit, so ascending keys are
    lexicographically ascending rows.  Callers stay inside the key space
    that ``PureState`` enforces for ``cutoff``.
    """
    return np.array([(cutoff + 1) ** e for e in range(n_modes - 1, -1, -1)], dtype=np.int64)


def _merge_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` that share a key, in ascending key order.

    Returns the index of the first input row of each distinct key and the
    sums.  Each sum adds its values one by one in input order (``bincount``
    does; ``add.reduceat`` sums long runs pairwise), so a kernel that lists
    its contributions in the order of a term-by-term loop reproduces that
    loop's rounding even where the contributions cancel.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    group = np.searchsorted(sorted_keys[starts], keys)
    if values.dtype.kind != "c":
        return order[starts], np.bincount(group, values, len(starts))
    sums = np.empty(len(starts), dtype=values.dtype)
    sums.real = np.bincount(group, values.real, len(starts))
    sums.imag = np.bincount(group, values.imag, len(starts))
    return order[starts], sums


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

    @classmethod
    def _from_arrays(
        cls,
        modes: Sequence[ModeLabel],
        occupations: np.ndarray,
        amplitudes: np.ndarray,
        cutoff: int,
        leaked_norm: float,
    ) -> "PureState":
        """Kernel-side constructor: the mapping constructor's checks, vectorised.

        ``modes`` must be canonical and valid, and the rows of
        ``occupations`` unique and in lexicographic order; the kernels
        guarantee both.  Occupations are checked against 0 and the cutoff,
        and terms with ``|amp|**2 < EPS_DROP`` move to ``leaked_norm``.
        """
        modes = tuple(modes)
        _check_key_space(len(modes), cutoff)
        if occupations.shape != (len(amplitudes), len(modes)):
            raise ModeMismatchError(
                f"occupation matrix of shape {occupations.shape} does not match"
                f" {len(amplitudes)} amplitudes on {len(modes)} modes"
            )
        if occupations.min(initial=0) < 0:
            raise FockError("negative occupation")
        if occupations.max(initial=0) > cutoff:
            raise CutoffExceededError(f"occupation exceeds cutoff {cutoff}")
        mag2 = _mag2(amplitudes)
        keep = mag2 >= EPS_DROP
        leaked = float(leaked_norm)
        if not keep.all():
            leaked += float(mag2[~keep].sum())
            occupations, amplitudes = occupations[keep], amplitudes[keep]
        state = cls.__new__(cls)
        state._set(modes, occupations, amplitudes, cutoff, leaked)
        return state

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
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ModeMismatchError(f"mode {mode} not in state modes {self.modes}")

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(occ), 0j)

    def norm_sq(self) -> float:
        return _norm_sq(self.amplitudes)

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
    return PureState._from_arrays(first.modes, occ[rows], summed, first.cutoff, leaked)


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


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.modes != b.modes:
        raise ModeMismatchError("inner_product requires identical mode sets")
    # rows are unique within each state, so a key shared by both appears
    # exactly twice after a stable sort: a's row first, then b's
    strides = _key_strides(len(a.modes), max(a.cutoff, b.cutoff))
    keys = np.concatenate((a.occupations @ strides, b.occupations @ strides))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    shared = sorted_keys[1:] == sorted_keys[:-1]
    rows_a = order[:-1][shared]
    rows_b = order[1:][shared] - len(a.amplitudes)
    return complex((a.amplitudes[rows_a].conj() * b.amplitudes[rows_b]).sum())


def normalize(a: PureState) -> tuple[PureState, float]:
    """Rescale to unit norm; returns (normalized state, original norm)."""
    n = a.norm()
    if n <= EPS_ZERO:
        raise ZeroNormError(f"cannot normalize state with norm {n:.3e}")
    if abs(n - 1.0) < 1e-15:
        return a, n
    inv = 1.0 / n
    leaked = min(1.0, a.leaked_norm * inv * inv)
    return PureState._from_arrays(
        a.modes, a.occupations, a.amplitudes * inv, a.cutoff, leaked
    ), n
