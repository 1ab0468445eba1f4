"""Two-mode squeezer and type-II down-conversion acting on sparse states.

The production path applies the squeezer in its exact disentangled form
(raising exponential x diagonal factor x lowering exponential), which is
triangular on the truncated space: every output amplitude below the cutoff
is exact, and the weight pushed past the cutoff is charged to the state's
leaked-norm ledger.

The kernel works on a batch of states over one occupation matrix (see
``states``): the lowering and raising series coefficients are running
products (``np.cumprod``) over one table of per-step factors, one row per
distinct (n_a, n_b) pair and one block per state, gathered to every input
term and (term, lowering order), and the outputs that land on the same
occupation are summed in a fixed order by one ``bincount``.  Everything
derived from the rows (a ``_Layout`` of index arrays) depends only on the
occupations, the cutoff and the mode pair, so ``apply_two_mode_squeezer``
is its checks, ``_layout`` and the values step ``_squeeze``; a caller that
has checked its modes and couplings and keeps its layouts (the run plan,
``protocols._Plan``) calls the last two itself.  No per-term Python loop
runs and no dict is built.  A slow series-exponential oracle is provided
for cross-validation.
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
    _interleave,
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


def _roots(a: np.ndarray, b: np.ndarray, sign: int, length: int) -> np.ndarray:
    """1, then sign * sqrt(a + sign*t) * sqrt(b + sign*t) for t = 1..length - 1, a row per a, b.

    Step t of a series multiplies by s / t times the root, and (s / t) * -r
    is exactly -s / t * r, so sign -1 gives the lowering series' factors.
    """
    steps = sign * np.arange(1, length)
    with np.errstate(invalid="ignore"):  # negative roots only past a row's last step
        roots = np.sqrt(a[:, None] + steps) * np.sqrt(b[:, None] + steps)
    return np.concatenate((np.ones((len(a), 1)), sign * roots), axis=1)


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


@dataclass(frozen=True, slots=True)
class _Layout:
    """What a squeezer derives from the rows of one occupation matrix, all read-only.

    Lowering row r is (input term ``term[r]``, order k) and raising
    contribution c is (lowering row ``row[c]``, order j).  Both series are
    computed once per distinct pair of their row, as the rows of one table
    (``_roots``): one per input (n_a, n_b), then one per lowered
    (n_a - k, n_b - k), with ``steps`` the divisors of its columns.  Where
    no term lowers (min(n_a, n_b) = 0 on every row) every lowering factor
    is 1, the table has no lowering rows and ``low_at`` is None.
    ``low_at``, ``decay_at`` and ``raise_at`` locate each row's and
    contribution's factors in the flattened table and the decay table, and
    ``half_steps`` holds t / 2 for each distinct decay step t the rows
    read.  ``group`` numbers each contribution's output column in the float
    view of the complex sums (2g and 2g + 1, see
    ``states._group_sums``) and ``occupations`` are the output rows.
    ``by_line`` lists the input rows line by line (fixed spectators and
    n_a - n_b), each line starting at ``line_starts``, and ``out_line`` is
    each output's line.  Every caller shares a layout, so its arrays are
    read-only.
    """

    term: np.ndarray
    low_at: np.ndarray | None
    decay_at: np.ndarray
    half_steps: np.ndarray
    row: np.ndarray
    roots: np.ndarray
    steps: np.ndarray
    raise_at: np.ndarray
    group: np.ndarray
    occupations: np.ndarray
    by_line: np.ndarray
    line_starts: np.ndarray
    out_line: np.ndarray

    def __post_init__(self):
        for name in self.__slots__:
            if getattr(self, name) is not None:
                getattr(self, name).setflags(write=False)


def _layout(occ: np.ndarray, cutoff: int, ia: int, ib: int) -> _Layout:
    """The layout of squeezing columns ``ia``, ``ib`` of the occupations ``occ``.

    It depends on the occupations, the cutoff and the mode pair only, not
    on the couplings or the amplitudes, so a caller may keep it for rows
    it knows to be the same.
    """
    m, n = occ[:, ia], occ[:, ib]

    # lowering exp(-s ab): term i at order k = 0..min(m, n), then the
    # diagonal factor, tabulated once per distinct step
    min_mn = np.minimum(m, n)
    term, k = _ragged(min_mn + 1)
    mp, np_ = m.take(term) - k, n.take(term) - k
    decay_step = mp + np_ + 1
    first, decay_at = _group_by_key(decay_step)
    half_steps = 0.5 * decay_step.take(first)

    # raising exp(s a†b†): row r = (term, k) feeds j = 0..cutoff - max(mp, np_)
    cap = cutoff - np.maximum(mp, np_)
    row, j = _ragged(cap + 1)

    # one series table, one row per distinct pair: the raising (mp, np_),
    # after the lowering (m, n) if any term lowers at all
    width = max(int(min_mn.max(initial=0)), int(cap.max(initial=0))) + 1
    first, pair_of = _group_by_key(mp * (cutoff + 1) + np_)
    roots = _roots(mp.take(first), np_.take(first), 1, width)
    raise_at = pair_of.take(row) * width + j
    low_at = None
    if min_mn.any():
        first, pair_of = _group_by_key(m * (cutoff + 1) + n)
        low_at = pair_of.take(term) * width + k
        raise_at += len(first) * width
        roots = np.concatenate((_roots(m.take(first) + 1, n.take(first) + 1, -1, width), roots))
    steps = np.maximum(np.arange(width), 1.0)  # column 0 is the unit step

    # output (mp + j, np_ + j) lies on its input term's line (fixed
    # spectators and n_a - n_b) at distance min(mp, np_) + j from the line's
    # base, the term lowered min(m, n) times.  Every term of a line reaches
    # all cutoff + 1 - |m - n| outputs of that line, so the outputs are
    # numbered line by line, in the order of ``_line_weights``, and one
    # stable sort by each output's head puts them in key order.
    line_key, head = _line_weights(occ.shape[1], cutoff, ia, ib) @ occ.T
    rep, line_of = _group_by_key(line_key)
    length = cutoff + 1 - np.abs(m - n).take(rep)
    start = length.cumsum() - length
    out_line, pos = _ragged(length)
    src = rep.take(out_line)  # the input term at the base of each output's line
    head = (head - min_mn).take(src) + pos
    # a head is below (cutoff + 1) ** (min(ia, ib) + 1); on 16 bits numpy sorts by radix
    head = head.astype(np.min_scalar_type((cutoff + 1) ** (min(ia, ib) + 1)))
    order = head.argsort(kind="stable")
    column = np.empty_like(order)  # each output's column in key order
    column[order] = np.arange(len(order))
    group = column.take(((start.take(line_of) + min_mn).take(term) - k).take(row) + j)
    src, pos = src.take(order), pos.take(order)
    out_occ = occ.take(src, axis=0)
    shift = pos - min_mn.take(src)
    out_occ[:, ia] += shift
    out_occ[:, ib] += shift

    by_line = line_of.argsort(kind="stable")
    per_line = np.bincount(line_of, minlength=len(rep))
    line_starts = per_line.cumsum() - per_line
    return _Layout(term, low_at, decay_at, half_steps, row, roots, steps, raise_at,
                   _interleave(group), out_occ, by_line, line_starts,
                   out_line.take(order))


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
    specs = (spec,) if isinstance(spec, SqueezerSpec) else spec
    if len(specs) != len(state):
        raise FockError(f"{len(specs)} squeezer specs for {len(state)} states")
    if not specs:
        raise FockError("a squeezer needs at least one spec: with none there is no mode pair")
    pair_modes = (specs[0].mode_a, specs[0].mode_b)
    if any((sp.mode_a, sp.mode_b) != pair_modes for sp in specs):
        raise ModeMismatchError("a batch of squeezers must act on one pair of modes")
    ia = state.index_of(pair_modes[0])
    ib = state.index_of(pair_modes[1])
    lay = _layout(state.occupations, state.cutoff, ia, ib)
    return _squeeze(state, lay, [sp.gamma for sp in specs])


def _squeeze(state: StateBatch, lay: _Layout, gammas: Sequence[float]) -> StateBatch:
    """``apply_two_mode_squeezer`` over the layout ``lay`` of ``state``'s rows,
    with coupling ``gammas[b]`` on state b; the caller has checked both."""
    # both series: running products (``cumprod``) of the step factors
    # s / t * root, one block per state, in the order the term-by-term loop
    # multiplies them; column 0 of every row is step 0, a factor 1
    scale = np.sqrt(gammas).reshape(-1, 1, 1) / lay.steps
    scale[..., 0] = 1.0
    series = (lay.roots * scale).cumprod(axis=2).reshape(len(gammas), -1)
    # diagonal factor (1-g)^(t/2), tabulated with the same math.exp the
    # term-by-term reference loop calls on the same products
    logs = [math.log1p(-g) if g > 0.0 else 0.0 for g in gammas]
    half = lay.half_steps.tolist()
    decay = np.fromiter(map(math.exp, [log * h for log in logs for h in half]), float,
                        len(logs) * len(half)).reshape(len(logs), -1).take(lay.decay_at, axis=1)

    if lay.low_at is None:
        # no term lowers, and the loop's lowering factor 1.0 is left out: a
        # finite complex times 1 + 0j differs from it at most in the sign of
        # a zero part, the real factors that follow (each multiplied as
        # x + 0j) keep zero parts zero, and the ``bincount`` sums start from +0.0
        base = state._amps * decay
    else:
        base = state._amps.take(lay.term, axis=1) * series.take(lay.low_at, axis=1) * decay
    values = base.take(lay.row, axis=1)
    values *= series.take(lay.raise_at, axis=1)
    out_amp = _group_sums(lay.group, values, len(lay.occupations))

    # a state's outputs are the lines its own terms lie on
    reach = None
    if state.support is not None:
        on = state.support.take(lay.by_line, axis=1)
        reach = np.logical_or.reduceat(on, lay.line_starts, axis=1).take(lay.out_line, axis=1)

    mag2 = _mag2(out_amp)
    deficit = state._norms_sq() - _row_sums(mag2, reach)
    leaked = state._ledger + np.maximum(0.0, deficit)
    return type(state)._from_arrays(
        state.modes, lay.occupations, out_amp, state.cutoff, leaked, reach, mag2
    )


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


def _pdc_pairs(path_a: int, path_b: int) -> tuple[tuple[ModeLabel, ModeLabel], ...]:
    """The mode pairs a type-II PDC between two paths squeezes, in the order it applies them."""
    return tuple(
        (ModeLabel(path_a, pol_a), ModeLabel(path_b, pol_b))
        for pol_a, pol_b in (("H", "V"), ("V", "H"))
    )


def apply_type2_pdc(
    state: StateBatch, spec: PdcSpec | Sequence[PdcSpec]
) -> StateBatch:
    """Type-II PDC: two commuting squeezers on crossed polarization pairs.

    ``spec`` is one spec or one per state, all on the same two paths.
    """
    specs = (spec,) if isinstance(spec, PdcSpec) else spec
    if not specs:
        raise FockError("a PDC needs at least one spec: with none there are no paths")
    pairs = [_pdc_pairs(sp.path_a, sp.path_b) for sp in specs]
    layers = [[SqueezerSpec(*p[i], sp.gamma) for p, sp in zip(pairs, specs)] for i in (0, 1)]
    for ma, mb in pairs[0]:
        if ma not in state.modes or mb not in state.modes:
            raise ModeMismatchError(f"PDC requires polarized modes {ma}, {mb}")
    for layer in layers:
        state = apply_two_mode_squeezer(state, layer)
    return state


def apply_squeezer_taylor_oracle(
    state: PureState, spec: SqueezerSpec, theta_terms: int = 80
) -> PureState:
    """Series-exponential reference path for the two-mode squeezer.

    Applies exp[theta (a†b† - ab)] by Taylor series.  To keep the series
    numerically stable at strong coupling the exponential is split into
    substeps of theta at most 0.01, exp(theta A) = exp(theta A / r)^r, each
    summed to ``theta_terms`` orders.  The pair subspace is carried up to
    cutoff + 80 internally so that truncation at the boundary does not
    contaminate amplitudes below the cutoff; a series tail estimate above
    1e-12 warns.  Intended for cross-validation at small cutoffs only.
    """
    if theta_terms < 1:
        raise FockError("theta_terms must be >= 1")
    ia = state.index_of(spec.mode_a)
    ib = state.index_of(spec.mode_b)
    theta = spec.theta
    substeps = max(1, math.ceil(theta / 0.01))
    th = theta / substeps
    dim = state.cutoff + 81

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

    if tail > 1e-12:
        warnings.warn(
            f"taylor oracle series tail estimate {tail:.2e} exceeds 1e-12;"
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
