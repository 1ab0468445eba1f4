"""Two-mode squeezer and type-II down-conversion acting on sparse states.

The production path applies the squeezer in its exact disentangled form
(raising exponential x diagonal factor x lowering exponential), which is
triangular on the truncated space: every output amplitude below the cutoff
is exact, and the weight pushed past the cutoff is charged to the state's
leaked-norm ledger.

The kernel works on a batch of states over one occupation matrix (see
``states``): the lowering and raising series coefficients of all terms are
running products (``np.cumprod``) over per-step factor matrices, one row
per input term or per (term, lowering order) and one block per state, and
the outputs that land on the same occupation are summed in a fixed order.
The term structure is built once per batch and only the values per state;
no per-term Python loop runs and no dict is built.  A slow
series-exponential oracle is provided for cross-validation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import (
    FockError,
    ModeLabel,
    ModeMismatchError,
    PureState,
    StateBatch,
    _mag2,
    _group_by_key,
    _group_sums,
    _row_sums,
    make_basis_state,
)


@dataclass(frozen=True, slots=True)
class SqueezerSpec:
    """Non-degenerate two-mode squeezer with coupling gamma = tanh^2(theta)."""

    mode_a: ModeLabel
    mode_b: ModeLabel
    gamma: float

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise FockError("squeezer requires two distinct modes")
        if not 0.0 <= self.gamma < 1.0:
            raise FockError(f"gamma must lie in [0, 1), got {self.gamma}")

    @property
    def theta(self) -> float:
        return math.atanh(math.sqrt(self.gamma))


@dataclass(frozen=True, slots=True)
class PdcSpec:
    """Type-II down-conversion between two polarized paths."""

    path_a: int
    path_b: int
    gamma: float

    def __post_init__(self):
        if self.path_a == self.path_b:
            raise FockError("PDC requires two distinct paths")
        if not 0.0 <= self.gamma < 1.0:
            raise FockError(f"gamma must lie in [0, 1), got {self.gamma}")


def _series(scale: np.ndarray, a: np.ndarray, b: np.ndarray, sign: int, length: int) -> np.ndarray:
    """Running products of scale/t * sqrt(a + sign*t) * sqrt(b + sign*t).

    Entry [r, i, t] holds the product over steps 1..t for scale[r], a[i] and
    b[i] (column 0 is 1), computed as ``np.cumprod`` over the step factors in
    the order the term-by-term loop multiplies them.
    """
    t = np.arange(1, length)
    steps = sign * t
    with np.errstate(invalid="ignore"):  # negative roots only past a row's last step
        roots = np.sqrt(a[:, None] + steps)
        roots *= np.sqrt(b[:, None] + steps)
    out = np.empty((len(scale), len(a), length))
    out[:, :, 0] = 1.0
    np.multiply(roots, (scale[:, None] / t)[:, None, :], out=out[:, :, 1:])
    return out.cumprod(axis=2, out=out)


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every entry of rows ``lengths`` long, row by row."""
    row = np.arange(len(lengths)).repeat(lengths)
    return row, np.arange(len(row)) - (lengths.cumsum() - lengths).repeat(lengths)


def _line_weights(n_modes: int, cutoff: int, ia: int, ib: int) -> np.ndarray:
    """Weights w with ``w @ occupations.T`` = (line key, head) of every row.

    With lo < hi the columns of the squeezed pair, the key of a row orders
    (columns before lo, n_lo, columns between, n_hi, columns after).  The
    head is the number formed by the columns up to lo, n_lo last; the line
    key orders (columns before lo, columns between, n_hi - n_lo, columns
    after), which is the same for every row of a squeezer line and differs
    between lines.  Rows with the same head are in key order exactly when
    their line keys are, so a stable sort by head of rows listed in
    line-key order sorts them by key.  Both fit in int64 wherever the row
    keys do.
    """
    lo, hi = sorted((ia, ib))
    base = cutoff + 1
    low = base ** (n_modes - 1 - hi)  # weight of n_hi - n_lo
    wide = (2 * cutoff + 1) * low
    line = [base ** (hi - 2 - c) * wide if c < lo
            else base ** (hi - 1 - c) * wide if c < hi
            else base ** (n_modes - 1 - c) for c in range(n_modes)]
    line[lo], line[hi] = -low, low
    head = [base ** (lo - c) if c <= lo else 0 for c in range(n_modes)]
    return np.array([line, head], dtype=np.int64)


def apply_two_mode_squeezer(
    state: StateBatch, spec: SqueezerSpec | Sequence[SqueezerSpec]
) -> StateBatch:
    """Apply exp(s a†b†) (1-g)^((n_a+n_b+1)/2) exp(-s ab), s = sqrt(g).

    Photon-number difference on the mode pair is preserved term by term.
    Amplitude raised past the cutoff is added to leaked_norm exactly
    (the operator is unitary, so the lost weight is the norm deficit).
    ``spec`` is one spec or a sequence of one spec per state, all on the
    same two modes; the result is of the kind of ``state``.
    """
    # the term structure (lowering and raising rows, output lines, summation
    # order) depends only on the occupations and is built once; only the
    # values are computed per state
    specs = (spec,) if isinstance(spec, SqueezerSpec) else spec
    if len(specs) != len(state):
        raise FockError(f"{len(specs)} squeezer specs for {len(state)} states")
    pair_modes = (specs[0].mode_a, specs[0].mode_b)
    if any((sp.mode_a, sp.mode_b) != pair_modes for sp in specs):
        raise ModeMismatchError("a batch of squeezers must act on one pair of modes")
    ia = state.index_of(pair_modes[0])
    ib = state.index_of(pair_modes[1])
    cutoff = state.cutoff
    gammas = [sp.gamma for sp in specs]
    s = np.sqrt(gammas)
    # diagonal factor (1-g)^(t/2), tabulated with the same math.exp the
    # term-by-term reference loop calls on the same products
    logs = np.array([math.log1p(-g) if g > 0.0 else 0.0 for g in gammas])
    half_t = 0.5 * np.arange(2 * cutoff + 2)
    decay = np.fromiter(map(math.exp, (logs[:, None] * half_t).ravel().tolist()), float)
    decay = decay.reshape(len(gammas), -1)
    occ, amp = state.occupations, state._amps
    m, n = occ[:, ia], occ[:, ib]

    # lowering exp(-s ab): term i at order k = 0..min(m, n), one row per term
    min_mn = np.minimum(m, n)
    term, k = _ragged(min_mn + 1)
    width = int(min_mn.max(initial=0)) + 1
    low = _series(-s, m + 1, n + 1, -1, width).reshape(len(s), -1).take(term * width + k, axis=1)
    mp, np_ = m.take(term) - k, n.take(term) - k
    base = amp.take(term, axis=1) * low * decay.take(mp + np_ + 1, axis=1)

    # raising exp(s a†b†): row r = (term, k) feeds j = 0..cutoff - max(mp, np_).
    # A row's series depends only on its (mp, np_), which few rows differ in,
    # so it is computed once per distinct pair.
    cap = cutoff - np.maximum(mp, np_)
    row, j = _ragged(cap + 1)
    width = int(cap.max(initial=0)) + 1
    first, pair_of = _group_by_key(mp * (cutoff + 1) + np_)
    raising = _series(s, mp.take(first), np_.take(first), 1, width).reshape(len(s), -1)
    values = base.take(row, axis=1)
    values *= raising.take(pair_of.take(row) * width + j, axis=1)

    # output (mp + j, np_ + j) lies on its input term's line (fixed
    # spectators and n_a - n_b) at distance min(mp, np_) + j from the line's
    # base, the term lowered min(m, n) times.  Every term of a line reaches
    # all cutoff + 1 - |m - n| outputs of that line, so the outputs are
    # numbered line by line, in the order of ``_line_weights``, and one
    # stable sort by each output's head puts them in key order.
    line_key, head = _line_weights(len(state.modes), cutoff, ia, ib) @ occ.T
    rep, line_of = _group_by_key(line_key)
    length = cutoff + 1 - np.abs(m - n).take(rep)
    start = length.cumsum() - length
    group = ((start.take(line_of) + min_mn).take(term) - k).take(row) + j
    out_line, pos = _ragged(length)
    src = rep.take(out_line)  # the input term at the base of each output's line
    head = (head - min_mn).take(src) + pos
    # a head is below (cutoff + 1) ** (min(ia, ib) + 1); on 16 bits numpy sorts by radix
    head = head.astype(np.min_scalar_type((cutoff + 1) ** (min(ia, ib) + 1)))
    order = head.argsort(kind="stable")
    src, pos = src.take(order), pos.take(order)
    out_amp = _group_sums(group, values, len(order)).take(order, axis=1)
    out_occ = occ.take(src, axis=0)
    shift = pos - min_mn.take(src)
    out_occ[:, ia] += shift
    out_occ[:, ib] += shift

    # a state's outputs are the lines its own terms lie on
    reach = None
    if state.support is not None:
        flat = (line_of + len(rep) * np.arange(len(state))[:, None]).ravel()
        on_line = np.bincount(flat, state.support.ravel(), len(state) * len(rep)) > 0
        reach = on_line.reshape(len(state), len(rep)).take(out_line.take(order), axis=1)

    mag2 = _mag2(out_amp)
    deficit = state._norms_sq() - _row_sums(mag2, reach)
    leaked = state._ledger + np.maximum(0.0, deficit)
    return type(state)._from_arrays(state.modes, out_occ, out_amp, cutoff, leaked, reach, mag2)


def squeezer_matrix_element(m: int, n: int, mp: int, np_: int, gamma: float) -> complex:
    """<mp, np_| S |m, n> for the disentangled squeezer; 0 unless mp-np_ = m-n.

    Real under the phase convention theta >= 0; returned as complex for
    interface uniformity with state amplitudes.
    """
    if min(m, n, mp, np_) < 0:
        raise FockError("occupations must be nonnegative")
    if mp - np_ != m - n:
        return 0j
    s = math.sqrt(gamma)
    log1mg = math.log1p(-gamma) if gamma > 0.0 else 0.0
    total = 0.0
    low = 1.0
    for k in range(min(m, n) + 1):
        if k > 0:
            low *= -s / k * (math.sqrt(m - k + 1) * math.sqrt(n - k + 1))
        j = mp - (m - k)
        if j < 0:
            continue
        if j > 0 and s == 0.0:
            continue
        r = 1.0
        for i in range(1, j + 1):
            r *= s / i * (math.sqrt(m - k + i) * math.sqrt(n - k + i))
        total += low * r * math.exp(0.5 * (m - k + n - k + 1) * log1mg)
    return complex(total)


def apply_type2_pdc(
    state: StateBatch, spec: PdcSpec | Sequence[PdcSpec]
) -> StateBatch:
    """Type-II PDC: two commuting squeezers on crossed polarization pairs.

    ``spec`` is one spec or one per state, all on the same two paths.
    """
    specs = (spec,) if isinstance(spec, PdcSpec) else spec
    layers = [
        [SqueezerSpec(ModeLabel(sp.path_a, pol_a), ModeLabel(sp.path_b, pol_b), sp.gamma)
         for sp in specs]
        for pol_a, pol_b in (("H", "V"), ("V", "H"))
    ]
    for layer in layers:
        ma, mb = layer[0].mode_a, layer[0].mode_b
        if ma not in state.modes or mb not in state.modes:
            raise ModeMismatchError(f"PDC requires polarized modes {ma}, {mb}")
    for layer in layers:
        state = apply_two_mode_squeezer(state, layer)
    return state


def apply_squeezer_taylor_oracle(
    state: PureState,
    spec: SqueezerSpec,
    theta_terms: int = 80,
    substeps: int | None = None,
    headroom: int = 80,
    tail_warn: float = 1e-12,
) -> PureState:
    """Series-exponential reference path for the two-mode squeezer.

    Applies exp[theta (a†b† - ab)] by Taylor series.  To keep the series
    numerically stable at strong coupling the exponential is split into
    substeps, exp(theta A) = exp(theta A / r)^r, each summed to
    ``theta_terms`` orders; a single step suffices for small theta.  The
    pair subspace is carried up to cutoff + headroom internally so that
    truncation at the boundary does not contaminate amplitudes below the
    cutoff.  Intended for cross-validation at small cutoffs only.
    """
    if theta_terms < 1:
        raise FockError("theta_terms must be >= 1")
    ia = state.index_of(spec.mode_a)
    ib = state.index_of(spec.mode_b)
    theta = spec.theta
    if substeps is None:
        substeps = max(1, math.ceil(theta / 0.01))
    th = theta / substeps
    cap = state.cutoff + headroom
    dim = cap + 1

    # group terms by spectator occupation; each group is a dense pair block
    groups: dict[tuple[int, ...], np.ndarray] = {}
    in_norm_sq = 0.0
    for occ, amp in state.sorted_terms():
        in_norm_sq += abs(amp) ** 2
        spect = tuple(v for i, v in enumerate(occ) if i not in (ia, ib))
        block = groups.setdefault(spect, np.zeros((dim, dim), dtype=complex))
        block[occ[ia], occ[ib]] += amp

    idx = np.arange(dim, dtype=float)
    up = np.sqrt(np.outer(idx[:-1] + 1.0, idx[:-1] + 1.0))  # sqrt((m+1)(n+1))
    tail = 0.0

    def apply_gen(v: np.ndarray) -> np.ndarray:
        # A v with A = a†b† - ab on the pair block
        w = np.zeros_like(v)
        w[1:, 1:] += up * v[:-1, :-1]
        w[:-1, :-1] -= up * v[1:, 1:]
        return w

    for spect, block in groups.items():
        v = block
        for _ in range(substeps):
            acc = v.copy()
            t = v
            for k in range(1, theta_terms + 1):
                t = apply_gen(t) * (th / k)
                acc += t
                if float(np.abs(t).max()) < 1e-20:
                    break
            last = float(np.linalg.norm(t))
            ratio = th * 2.0 * dim / (theta_terms + 1)  # crude next-term ratio
            tail = max(tail, last / max(1e-300, 1.0 - min(ratio, 0.5)) if ratio < 1.0 else last)
            v = acc
        groups[spect] = v

    if tail > tail_warn:
        warnings.warn(
            f"taylor oracle series tail estimate {tail:.2e} exceeds {tail_warn:.0e};"
            " increase theta_terms",
            stacklevel=2,
        )

    spectator_idx = [i for i in range(len(state.modes)) if i not in (ia, ib)]
    out: dict[tuple[int, ...], complex] = {}
    c = state.cutoff
    for spect, v in groups.items():
        occ_list = [0] * len(state.modes)
        for pos, val in zip(spectator_idx, spect):
            occ_list[pos] = val
        mm, nn = np.nonzero(np.abs(v[: c + 1, : c + 1]) ** 2 >= 1e-34)
        for m, n in zip(mm.tolist(), nn.tolist()):
            occ_list[ia] = m
            occ_list[ib] = n
            key = tuple(occ_list)
            out[key] = out.get(key, 0j) + v[m, n]

    out_norm_sq = sum(abs(a) ** 2 for a in out.values())
    leaked = state.leaked_norm + max(0.0, in_norm_sq - out_norm_sq)
    return PureState(state.modes, out, c, leaked)


def oracle_max_deviation(gamma: float, cutoff: int, theta_terms: int) -> float:
    """Max amplitude gap between the factored and series squeezer paths."""
    ma, mb = ModeLabel(0), ModeLabel(1)
    spec = SqueezerSpec(ma, mb, gamma)
    probes = [
        make_basis_state((ma, mb), (0, 0), cutoff),
        make_basis_state((ma, mb), (1, 1), cutoff),
    ]
    mixed = {
        (0, 0): 0.5, (1, 0): 0.5j, (2, 2): -0.5,
        (min(5, cutoff), min(3, cutoff)): 0.35,
        (cutoff, cutoff): 0.35,
    }
    probes.append(PureState((ma, mb), mixed, cutoff))
    worst = 0.0
    for probe in probes:
        fast = apply_two_mode_squeezer(probe, spec)
        slow = apply_squeezer_taylor_oracle(probe, spec, theta_terms)
        for occ in set(fast.terms) | set(slow.terms):
            worst = max(worst, abs(fast.amplitude(occ) - slow.amplitude(occ)))
    return worst
