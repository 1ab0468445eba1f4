"""End-to-end heralded circuits: NLS gate and vacuum/one-photon teleportation.

A ``Circuit`` holds one heralded setup as data (input occupations, squeezer
or type-II PDC layers, detected modes, target), and ``run_circuit`` runs
any of them: input superposition, layers, coincidence herald, then the
normalized conditional state with its herald probability and fidelity to
the target.  ``NLS``, ``QUBIT_TELEPORT`` and ``QUTRIT_TELEPORT`` are the
paper's three uses of one setup, behind ``run_nls``, ``run_qubit_teleport``
and ``run_qutrit_teleport``; ``TELEPORTS`` names the two teleports, and
``run_teleport``, ``sweep`` and ``optimize_teleport_success`` take a
teleport by that name.  Parameter constraint solvers and a success
probability optimizer/sweep layer live here as well; a sweep runs its grid
through the circuit's layers as one ``StateBatch``.  What a run builds from
the circuit, the cutoff and which coefficients are nonzero alone is its run
plan (``_Plan``), built once and kept; a run computes only values over it.
Among it is each squeezer's herald cone, the rows from which the herald can
still be reached within the cutoff, and a run hands on only those rows: its
heralded values keep their bits, its ``leaked_norm`` is the cone's ledger,
and the full pre-herald state is computed only when it is read.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .heralding import DetectionPattern, _condition, _herald_columns, _herald_rows, herald_weights
from .squeezers import PdcSpec, SqueezerSpec, _check_pdc_modes, _layout, _pdc_pairs, _squeeze
from .states import (
    EPS_ZERO,
    FockError,
    ModeLabel,
    ModeMismatchError,
    PureState,
    StateBatch,
    ZeroNormError,
    _key_strides,
    _overlaps,
    _shared_rows,
)

if TYPE_CHECKING:
    from fractions import Fraction

SWEEP_CHUNK = 32             # grid points per sweep batch; bounds a sweep's memory
LAYOUT_MEMO = 8              # run plans kept, each with its squeezer layouts


@dataclass(frozen=True)
class InputCoefficients:
    """Input amplitudes: c0 |0>, c1 |1> (or |H>), c2 |2> (or |V>)."""

    c0: complex
    c1: complex
    c2: complex = 0j

    def norm_sq(self) -> float:
        return abs(self.c0) ** 2 + abs(self.c1) ** 2 + abs(self.c2) ** 2

    def normalized(self) -> "InputCoefficients":
        n2 = self.norm_sq()
        if n2 <= EPS_ZERO:
            raise ZeroNormError("input coefficients are all zero")
        if abs(n2 - 1.0) < 1e-12:
            return self
        warnings.warn(
            f"input coefficients renormalized (norm^2 was {n2:.6g})", stacklevel=3
        )
        inv = 1.0 / math.sqrt(n2)
        return InputCoefficients(self.c0 * inv, self.c1 * inv, self.c2 * inv)


@dataclass(frozen=True)
class GateParams:
    """Squeezer couplings for the two amplifier layers."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name, g in (("gamma1", self.gamma1), ("gamma2", self.gamma2)):
            if not 0.0 <= g < 1.0:
                raise FockError(f"{name} must lie in [0, 1), got {g}")

    @classmethod
    def teleport(cls, gamma2: float) -> "GateParams":
        """A teleport's couplings: gamma1 from ``solve_teleport_constraint``."""
        return cls(solve_teleport_constraint(gamma2), gamma2)


@dataclass
class ProtocolResult:
    """Conditional output with success probability and target fidelity.

    ``exact`` certifies the heralded result: the run's cutoff is at least
    the circuit's herald cutoff for this input (``Circuit.herald_cutoffs``)
    and ``leaked_norm`` is finite (a NaN coefficient's terms join it), so
    ``success_probability``, ``fidelity`` and the output state's terms are
    what any larger cutoff gives, bit for bit.  ``leaked_norm`` is the herald
    cone's ledger: the weight that the input and, after each squeezer, the
    rows that can still reach the herald pushed past the cutoff (a run
    carries only those rows; see ``_Plan``).  It is at most the ledger of
    the full state the herald acts on, ``pre_herald_state.leaked_norm``, up
    to rounding, and when ``exact`` none of it could have reached the
    herald.  The output state's own ``leaked_norm`` is 0.0 when ``exact``;
    otherwise it is ``leaked_norm`` divided by the herald probability,
    capped at 1, a scale of the truncation error per unit of heralded
    weight rather than a bound on it.

    ``pre_herald_state``, the state the herald acts on with every row below
    the cutoff, is computed on first read by running the input alone
    through every squeezer without the cone (``_pre_herald_state``), and so
    is ``herald_distribution``, the weight of every pattern on the
    ``detected`` modes.  Only the heralded pattern is certified: entries
    of other patterns near the cutoff can be wrong.
    """

    protocol: str
    gamma1: float
    gamma2: float
    output_state: PureState
    success_probability: float
    fidelity: float
    target_state: PureState
    leaked_norm: float
    paper_claimed_probability: float | None = None
    closed_form_probability: float | None = None
    _pre_herald: Callable[[], PureState] | None = field(default=None, repr=False, compare=False)
    detected: tuple[ModeLabel, ...] = ()
    exact: bool = False

    @functools.cached_property
    def pre_herald_state(self) -> PureState | None:
        """The state the herald acts on, every row below the cutoff, run now."""
        return None if self._pre_herald is None else self._pre_herald()

    @functools.cached_property
    def herald_distribution(self) -> list[tuple[tuple[int, ...], float]]:
        """``herald_weights`` of the pre-herald state on the detected modes."""
        if self.pre_herald_state is None:
            return []
        return herald_weights(self.pre_herald_state, list(self.detected))

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "success_probability": self.success_probability,
            "paper_claimed_probability": self.paper_claimed_probability,
            "closed_form_single_pattern_probability": self.closed_form_probability,
            "fidelity": self.fidelity,
            "leaked_norm": self.leaked_norm,
            "exact": self.exact,
            "output_state": self.output_state.to_dict(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


# -- parameter solvers -----------------------------------------------------


def solve_nls_params() -> GateParams:
    """Couplings making the three herald coefficients equal up to sign.

    They are the closed forms (21-7*sqrt(2))/(9+4*sqrt(2)) and
    (3-sqrt(2))/7, the root of gamma1 = gamma2/(1-2*gamma2)^2 substituted
    into the second coupling equation; both residuals are checked.
    """
    g1 = (21.0 - 7.0 * math.sqrt(2.0)) / (9.0 + 4.0 * math.sqrt(2.0))
    g2 = (3.0 - math.sqrt(2.0)) / 7.0
    r1, r2 = coupling_residuals(g1, g2)
    if max(abs(r1), abs(r2)) >= 1e-12:
        raise FockError(f"coupling residuals too large: {r1:.2e}, {r2:.2e}")
    return GateParams(g1, g2)


def coupling_residuals(g1: float, g2: float) -> tuple[float, float]:
    """Residuals of the two NLS coupling equations; r1 alone is the teleport one."""
    r1 = math.sqrt(g2) - math.sqrt(g1) * (1.0 - 2.0 * g2)
    r2 = math.sqrt(g2) + g1 * math.sqrt(g2) * (3.0 * g2 - 2.0)
    return r1, r2


def solve_teleport_constraint(gamma2: float) -> float:
    """gamma1 = gamma2 / (1 - 2*gamma2)^2 on gamma2 in (0, 1/2)."""
    if not 0.0 < gamma2 < 0.5:
        raise FockError(f"gamma2 must lie in (0, 0.5), got {gamma2}")
    gamma1 = gamma2 / (1.0 - 2.0 * gamma2) ** 2
    if gamma1 >= 1.0:
        raise FockError(
            f"gamma2={gamma2} needs gamma1={gamma1:.6g} >= 1 (unphysical squeezer)"
        )
    return gamma1


# -- fidelity and phase fixing ----------------------------------------------


def fidelity(a: StateBatch, b: PureState) -> float | np.ndarray:
    """|<a|b>|^2 / (<a|a><b|b>); insensitive to global phases.

    A batch ``a`` gives one fidelity per state, a batch of none an empty array.
    """
    return _fidelity(a, b)


def _fidelity(a: StateBatch, b: StateBatch, rows=None) -> float | np.ndarray:
    """``fidelity`` over ``rows``, ``states._shared_rows`` of both occupations (found
    here if None), to ``b``, a state or a batch of one."""
    na, nb = a._norms_sq().tolist(), b._norms_sq().item()
    if min(na, default=math.inf) <= EPS_ZERO or nb <= EPS_ZERO:
        raise ZeroNormError("fidelity requires nonzero states")
    return a._per_state([abs(ip) ** 2 / (n * nb) for ip, n in zip(_overlaps(a, b, rows), na)])


def fix_global_phase(state: StateBatch) -> StateBatch:
    """Rotate so the lowest-occupation nonzero amplitude is real positive.

    A batch is rotated state by state; an empty state stays as it is.
    """
    if not len(state.occupations):
        return state
    amp = state._amps
    if state.support is None:
        refs = amp[:, 0].tolist()
    else:
        refs = amp[np.arange(len(amp)), state.support.argmax(axis=1)].tolist()
    phases = np.array([ref / abs(ref) if ref else 1.0 for ref in refs])
    return type(state)._from_arrays(
        state.modes, state.occupations, amp / phases[:, None],
        state.cutoff, state._ledger, state.support,
    )


# -- circuits ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Circuit:
    """A heralded circuit as data: input, amplifier layers, herald and target.

    Coefficient c_i enters on the occupation ``inputs[i]`` of ``modes`` and
    should leave on the occupation ``targets[i]`` of ``out_modes``, with its
    sign flipped when i is in ``negated``; a circuit has no c_i past its
    ``inputs``.  Each layer is
    ``(SqueezerSpec or PdcSpec, a, b, g)``: the spec's two modes (or paths)
    and the index g of its coupling in (gamma1, gamma2).  The herald is one
    photon on every ``detected`` mode.  ``closed_form(g1, g2, w0, w1, w2)``
    is the herald probability for input weights w_i = |c_i|^2, and
    ``paper_claim(g1, g2)`` the probability the paper states, if any.  A
    circuit equals and hashes as itself only: a run's plan lookup reads no field.
    """

    name: str
    modes: tuple[ModeLabel, ...]
    inputs: tuple[tuple[int, ...], ...]
    layers: tuple[tuple[type, object, object, int], ...]
    detected: tuple[ModeLabel, ...]
    out_modes: tuple[ModeLabel, ...]
    targets: tuple[tuple[int, ...], ...]
    negated: tuple[int, ...]
    closed_form: Callable[..., float]
    paper_claim: Callable[[float, float], float] | None = None

    @property
    def balanced_input(self) -> InputCoefficients:
        """Equal weights on every input: a teleport's default input."""
        return InputCoefficients(*[1 / math.sqrt(len(self.inputs))] * len(self.inputs))

    def check_inputs(self, coeffs: InputCoefficients) -> None:
        """Raise ``FockError`` for a nonzero coefficient the circuit has no input for."""
        for i, c in enumerate((coeffs.c0, coeffs.c1, coeffs.c2)):
            if i >= len(self.inputs) and c != 0:
                raise FockError(f"{self.name} requires c{i} = 0")

    @functools.cached_property
    def herald_cutoffs(self) -> tuple[int | float, ...]:
        """Per input, the smallest cutoff that decides its heralded result.

        It is the largest occupation on any path from ``inputs[i]`` to the
        herald pattern, at any layer, or of the herald, the input or
        ``targets[i]`` itself: at that cutoff and above, every amplitude the
        herald keeps is computed from the same terms in the same order, so
        the heralded fields are bit for bit the same.  ``math.inf`` where
        the paths are unbounded and no finite cutoff decides the result.
        The value depends on the circuit's structure only, not on the
        couplings; the circuit is linear, so a superposition needs the
        largest value over its nonzero coefficients.
        """
        col = {m: i for i, m in enumerate(self.modes)}
        pairs = []  # the mode columns of every squeezer in the order they act
        for spec, a, b, _ in self.layers:
            for ma, mb in _pdc_pairs(a, b) if spec is PdcSpec else ((a, b),):
                if ma not in col or mb not in col:
                    raise ModeMismatchError(f"{self.name}: layer on {ma}, {mb} outside its modes")
                pairs.append((col[ma], col[mb]))
        if not set(self.detected) <= set(col):
            raise ModeMismatchError(f"{self.name}: detected modes outside its modes")
        detected = [col[m] for m in self.detected]
        return tuple(
            max(_cone_peak(x, pairs, detected), max(x), max(t, default=0), 1 if detected else 0)
            for x, t in zip(self.inputs, self.targets)
        )


# -- herald cone ---------------------------------------------------------------
#
# Squeezer k adds the same integer shift s_k to both of its modes (it
# conserves n_a - n_b), so every occupation at every stage is an affine
# function of the input and the shifts.  A path reaches the herald when each
# detected mode ends at 1 and no occupation is ever negative: the integer
# points of a polyhedron.  They are walked shift by shift, each shift's range
# given the ones before it taken from a Fourier-Motzkin projection.  A row
# is a list of integers [constant, coefficient of s_0, ...], read as
# row >= 0; the projection combines rows with positive integer factors and
# divides a row by the gcd of its coefficients, flooring the constant, which
# drops no integer point, so rows stay integral.  Where a shift is unbounded
# the herald is reached with occupations as large as you like, if at all;
# whether at all is a search in a finite box (``_has_integer_point``).


def _paths(
    inputs: tuple[int, ...], pairs: list[tuple[int, int]], detected: list[int]
) -> tuple[list, list, list]:
    """The herald polyhedron of ``inputs``: every column's occupation after
    each squeezer, the occupations the squeezers leave, and the herald rows."""
    width = len(pairs) + 1
    occupation = [[n] + [0] * (width - 1) for n in inputs]
    after, stages = [], []
    for k, (a, b) in enumerate(pairs):
        for c in (a, b):
            occupation[c] = occupation[c][:]
            occupation[c][k + 1] += 1
            stages.append(occupation[c])
        after.append(occupation[:])
    herald = []  # a detected mode ends at 1: its occupation - 1 is >= 0 and <= 0
    for d in detected:
        row = occupation[d][:]
        row[0] -= 1
        herald += [row, [-x for x in row]]
    return after, stages, herald


def _cone_peak(
    inputs: tuple[int, ...], pairs: list[tuple[int, int]], detected: list[int]
) -> int | float:
    """Largest occupation on any path from ``inputs`` to the herald; 0 if none, inf if unbounded.

    The paths are bounded where the rows' recession cone (the rows without
    constants, whose integer points are its scaled rays) bounds every shift;
    then they are walked.  Else a ray raises an occupation without end (the
    stages fix every shift), from any integer point, if there is one.
    """
    _, stages, herald = _paths(inputs, pairs, detected)
    rows, free = stages + herald, list(range(1, len(pairs) + 1))
    recession = [[0, *r] for r in {tuple(r[1:]) for r in rows}]
    if any(None in _range(recession, var, free[:i] + free[i + 1:]) for i, var in enumerate(free)):
        return math.inf if _has_integer_point(rows, free) else 0
    return max((r[0] + sum(c * s for c, s in zip(r[1:], shifts))
                for shifts in _points(rows, free) for r in stages), default=0)


def _cone_rows(
    inputs: list[list[int]], pairs: list[tuple[int, int]], detected: list[int], cutoff: int
) -> list[set[tuple[int, ...]]]:
    """Per squeezer, the rows it leaves on the paths from any of ``inputs`` to
    the herald whose occupations all stay within ``cutoff``."""
    cone = [set() for _ in pairs]
    for x in inputs:
        after, stages, herald = _paths(x, pairs, detected)
        below = [[cutoff - r[0]] + [-c for c in r[1:]] for r in stages]
        for shifts in _points(stages + below + herald, list(range(1, len(pairs) + 1))):
            for rows, occupation in zip(cone, after):
                rows.add(tuple(r[0] + sum(c * s for c, s in zip(r[1:], shifts))
                               for r in occupation))
    return cone


def _fix(row: list, var: int, value: int | Fraction) -> list:
    """``row`` with variable ``var`` set to ``value``."""
    out = row[:]
    out[0] += row[var] * value
    out[var] = 0
    return out


def _range(rows: list, var: int, rest: list[int], integral: bool = True) -> tuple | None:
    """The bounds (lo, hi) of ``var`` once ``rest`` is eliminated, None at an
    open end; None if the rows have no solution.  ``integral`` keeps the
    integer solutions only (``_tighten``), and lo and hi are integers; where
    it is False they are the exact rational bounds."""
    if not integral:
        # imported here: fractions loads decimal, and only a cone whose
        # shifts are unbounded asks for rational bounds
        from fractions import Fraction
    lo = hi = None
    for row in _project(rows, rest, integral):
        a, c = row[var], row[0]
        if a > 0:  # var >= -c / a
            bound = -(c // a) if integral else Fraction(-c, a)
            lo = bound if lo is None else max(lo, bound)
        elif a < 0:  # var <= c / -a
            bound = c // -a if integral else Fraction(c, -a)
            hi = bound if hi is None else min(hi, bound)
        elif c < 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _points(rows: list, free: list[int]) -> Iterator[list[int]]:
    """Every integer value of the ``free`` variables that keeps every row >= 0,
    in lexicographic order; the rows must bound each variable."""
    if not free:
        if all(r[0] >= 0 for r in rows):
            yield []
        return
    var, rest = free[0], free[1:]
    bounds = _range(rows, var, rest)
    if bounds is not None:
        for n in range(bounds[0], bounds[1] + 1):
            for point in _points([_fix(r, var, n) for r in rows], rest):
                yield [n, *point]


def _has_integer_point(rows: list, free: list[int]) -> bool:
    """Whether the rows >= 0 hold an integer point.

    If they do, one lies within n * delta of any rational solution in each
    variable (Cook, Gerards, Schrijver and Tardos 1986, the proximity
    theorem with a zero objective; Schrijver, Theory of Linear and Integer
    Programming, Thm 17.2), n the number of variables and delta a bound on
    the subdeterminants of the coefficients, here Hadamard's: the product
    of the n largest row norms.  Inside that box the search is finite.
    """
    point, fixed = [], rows  # a rational solution, one variable at a time
    for i, var in enumerate(free):
        # rows with no rational solution leave a box around 0 with no point
        lo, hi = _range(fixed, var, free[i + 1:], integral=False) or (None, None)
        point.append(lo if lo is not None else hi if hi is not None else 0)
        fixed = [_fix(r, var, point[-1]) for r in fixed]
    squares = sorted((sum(r[v] ** 2 for v in free) for r in rows), reverse=True)
    reach = len(free) * math.isqrt(math.prod(q for q in squares[: len(free)] if q))
    box = []  # x - reach <= var <= x + reach as rows >= 0
    for var, x in zip(free, point):
        unit = [int(v == var) for v in range(1, len(rows[0]))]
        box += [[-math.ceil(x - reach), *unit], [math.floor(x + reach), *(-u for u in unit)]]
    return next(_points(rows + box, free), None) is not None


def _project(rows: list, variables: list[int], integral: bool) -> list:
    """Fourier-Motzkin: the rows >= 0 that ``variables`` eliminated leave."""
    for var in variables:
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        rows = [r for r in rows if not r[var]] + [
            [p_x * -n[var] + n_x * p[var] for p_x, n_x in zip(p, n)] for p in pos for n in neg
        ]
        if integral:
            rows = [_tighten(r) for r in rows]
        rows = list(map(list, set(map(tuple, rows))))
    return rows


def _tighten(row: list) -> list:
    """``row`` on integer points: c + g * (an integer) >= 0 is floor(c / g) + that >= 0."""
    g = math.gcd(*row[1:])
    return row if g < 2 else [row[0] // g] + [x // g for x in row[1:]]


def _herald_cutoff(circuit: Circuit, cs: Sequence[complex]) -> int | float:
    """The herald cutoff of sum_i cs[i] |inputs[i]>: the largest over its nonzero terms."""
    return max((n for n, c in zip(circuit.herald_cutoffs, cs) if c != 0), default=0)


def run_circuit(
    circuit: Circuit, coeffs: InputCoefficients, params: GateParams, cutoff: int | None = None
) -> ProtocolResult:
    """Run ``circuit`` on the normalized ``coeffs`` and herald the output.

    ``cutoff=None`` runs at the herald cutoff of the input (see
    ``Circuit.herald_cutoffs``).  Zero coefficients add no term to the input
    or to the target, so a circuit's unused occupations need not fit under
    the cutoff; coefficients past its ``inputs`` are not read.  A circuit
    whose ``out_modes`` are not its modes minus ``detected`` raises
    ``ModeMismatchError`` before any layer runs.
    """
    cs = (coeffs.c0, coeffs.c1, coeffs.c2)
    psi, target, prob, out_state, fid = _run_batch(circuit, coeffs, [params], cutoff)
    exact = psi.cutoff >= _herald_cutoff(circuit, cs) and math.isfinite(psi.leaked_norm[0])
    output = out_state[0]
    if exact:  # a fresh row: no weight the cutoff dropped could reach its herald
        output._set(output.modes, output.occupations, output._amps, output.cutoff,
                    np.zeros(1), None)
    gammas = (params.gamma1, params.gamma2)
    return ProtocolResult(
        protocol=circuit.name,
        gamma1=params.gamma1,
        gamma2=params.gamma2,
        output_state=output,
        success_probability=float(prob[0]),
        fidelity=float(fid[0]),
        target_state=target,
        leaked_norm=float(psi.leaked_norm[0]),
        paper_claimed_probability=None if circuit.paper_claim is None
        else circuit.paper_claim(*gammas),
        closed_form_probability=circuit.closed_form(*gammas, *(abs(c) ** 2 for c in cs)),
        _pre_herald=functools.partial(_pre_herald_state, circuit, cs, params, psi.cutoff),
        detected=circuit.detected,
        exact=exact,
    )


def _run_batch(
    circuit: Circuit,
    coeffs: InputCoefficients,
    params: Sequence[GateParams],
    cutoff: int | None,
) -> tuple[StateBatch, PureState, np.ndarray, StateBatch, np.ndarray]:
    """``circuit`` on one input for every ``params``, as one batch.

    Returns the pre-herald batch, the target, and per state the herald
    probability, the phase-fixed conditional state and its fidelity to the
    target (0 where the herald probability is at most ``EPS_ZERO``).
    ``cutoff=None`` is the herald cutoff of the input.  Every row structure
    comes from the run plan (``_plan``); this computes the values.  Each
    squeezer but the last hands on only its cone rows: every contribution to
    a cone row comes from a cone row, in the same order, so the heralded
    values keep their bits, and the pre-herald ledger holds only what the
    input and the cone rows pushed past the cutoff.
    """
    cs = (coeffs.c0, coeffs.c1, coeffs.c2)
    if cutoff is None:
        cutoff = _herald_cutoff(circuit, cs)
        if cutoff == math.inf:
            raise FockError(f"no finite cutoff decides the herald of {circuit.name}")
    nonzero = tuple(c != 0 for c in cs)
    # only an int cutoff is memoized: any other raises as the plan is built
    plan = (_plan if isinstance(cutoff, int) else _Plan)(circuit, cutoff, nonzero)
    if not params:
        raise FockError("a squeezer needs at least one spec: with none there is no mode pair")
    psi = StateBatch.of(_basis_state(*plan.inputs, cs), len(params))
    couplings = list(zip(*[(p.gamma1, p.gamma2) for p in params]))
    for (ia, ib, g), lay, cone in zip(plan.squeezers, plan.layouts, plan.cone_at):
        psi = _squeeze(psi, lay, couplings[g])
        if cone is not None:
            psi = psi._keep_rows(*cone)
    signed = [-c if i in circuit.negated else c for i, c in enumerate(cs)]
    target = fix_global_phase(_basis_state(*plan.targets, signed))

    outcome = _condition(psi, *plan.herald)
    heralded = outcome.probability > EPS_ZERO
    out_state = fix_global_phase(outcome.conditional_state)
    fid = np.zeros(len(params))
    if heralded.any():
        fid[heralded] = _fidelity(out_state.take(heralded), target, plan.overlap)
    return psi, target[0], outcome.probability, out_state, fid


def _pre_herald_state(circuit: Circuit, cs: tuple, params: GateParams, cutoff: int) -> PureState:
    """The state ``_run_batch`` heralds, with every row below the cutoff: the
    input as one ``PureState`` through every squeezer, each on a layout built
    for it and kept by none."""
    plan = _plan(circuit, cutoff, tuple(c != 0 for c in cs))
    psi, gammas = _basis_state(*plan.inputs, cs)[0], (params.gamma1, params.gamma2)
    for ia, ib, g in plan.squeezers:
        psi = _squeeze(psi, _layout(psi.occupations, cutoff, ia, ib), [gammas[g]])
    return psi


def _basis_rows(modes: tuple[ModeLabel, ...], occs: Sequence[tuple[int, ...]],
                nonzero: Sequence[bool], cutoff: int) -> tuple[PureState, list[list[int]]]:
    """The rows of sum_i c_i |occs[i]> over the i that ``nonzero`` marks, as a
    state built by the mapping constructor (so with its checks) with placeholder
    amplitudes, and for each row the i that feed it, in input order."""
    feeds: dict[tuple[int, ...], list[int]] = {}
    for i, (on, occ) in enumerate(zip(nonzero, occs)):
        if on:
            feeds.setdefault(occ, []).append(i)
    if not feeds:
        raise FockError("superpose requires at least one term")
    rows = PureState(modes, dict.fromkeys(feeds, 1.0), cutoff)
    columns = [rows.modes.index(m) for m in modes]  # back to the caller's mode order
    return rows, [feeds[tuple(occ)] for occ in rows.occupations[:, columns].tolist()]


def _basis_state(rows: PureState, feeds: list[list[int]], coeffs: Sequence[complex]) -> StateBatch:
    """The state of ``_basis_rows`` with ``coeffs``, each row's sum from 0 in input
    order, as a batch of one on those rows: a pruned coefficient's row is masked."""
    amps = []
    for feed in feeds:
        amp = 0j
        for i in feed:
            amp = amp + complex(coeffs[i]) * (1 + 0j)
        amps.append(amp)
    return StateBatch._from_arrays(rows.modes, rows.occupations,
                                   np.array([amps], dtype=np.complex128), rows.cutoff, np.zeros(1))


class _Plan:
    """Every row structure of the runs of a circuit at one cutoff and input
    support, built with a run's checks in its order: input and target as
    ``_basis_rows``, every squeezer as (column, column, coupling index) of the
    state's modes in the order they apply, and the herald's columns.

    ``cone`` holds, per squeezer, the rows it leaves from which the herald can
    still be reached within the cutoff (read-only, in key order): the rows on
    the integer paths from a nonzero input to the herald, found from the
    herald polyhedron (``_cone_rows``), never from a squeezer layout.  A batch
    never drops a row, so a run's rows are the plan's: it holds each
    squeezer's ``layouts`` entry, where each squeezer but the last finds its
    cone in its output (``cone_at``: positions and rows, None for the last),
    the ``herald`` arguments of ``heralding._condition`` on the last output,
    and the rows the conditional state shares with the target (``overlap``).
    """

    __slots__ = ("inputs", "squeezers", "targets", "cone", "layouts", "cone_at", "herald", "overlap")

    def __init__(self, circuit: Circuit, cutoff: int, nonzero: tuple[bool, ...]):
        rest = [m for m in circuit.modes if m not in circuit.detected]
        if set(circuit.out_modes) != set(rest):
            out, rest = (", ".join(map(str, ms)) for ms in (circuit.out_modes, rest))
            raise ModeMismatchError(
                f"{circuit.name}: out_modes ({out}) are not its modes minus detected ({rest})")
        self.inputs = _basis_rows(circuit.modes, circuit.inputs, nonzero, cutoff)
        state = self.inputs[0]
        self.squeezers = []
        for spec, a, b, g in circuit.layers:
            spec(a, b, 0.0)  # the spec's own checks
            pairs = ((a, b),)
            if spec is PdcSpec:
                pairs = _pdc_pairs(a, b)
                _check_pdc_modes(pairs, state.modes)
            for ma, mb in pairs:
                self.squeezers.append((state.index_of(ma), state.index_of(mb), g))
        self.targets = _basis_rows(circuit.out_modes, circuit.targets, nonzero, cutoff)
        pattern = DetectionPattern({m: 1 for m in circuit.detected})
        idx, counts, keep_idx, kept_modes = _herald_columns(state.modes, state.cutoff, pattern)
        pairs = [(a, b) for a, b, _ in self.squeezers]
        cone = _cone_rows(state.occupations.tolist(), pairs, idx, cutoff)
        self.cone = tuple(np.array(sorted(rows), dtype=np.int64).reshape(-1, len(state.modes))
                          for rows in cone)
        strides = _key_strides(len(state.modes), cutoff)
        occ, self.layouts, self.cone_at = state.occupations, [], []
        for k, (ia, ib, _) in enumerate(self.squeezers):
            self.layouts.append(_layout(occ, cutoff, ia, ib))
            occ, at = self.layouts[-1].occupations, None
            if k < len(self.squeezers) - 1:  # the herald's row match selects the last stage's
                at = np.isin(occ @ strides, self.cone[k] @ strides).nonzero()[0]
                occ = occ.take(at, axis=0)
            self.cone_at.append(None if at is None else (at, occ))
        match, kept_occ = _herald_rows(occ, idx, counts, keep_idx)
        self.herald = (kept_modes, match, kept_occ)
        self.overlap = _shared_rows(kept_occ, self.targets[0].occupations, cutoff)
        for array in (*self.cone, match, kept_occ, *self.overlap):
            array.setflags(write=False)


# the run plans of the last circuits run, each built on its first run; the
# only memo of a run, so a mixed stream keeps its layouts while its plans fit
_plan = functools.lru_cache(maxsize=LAYOUT_MEMO, typed=True)(_Plan)


_M1, _M2, _M3 = ModeLabel(1), ModeLabel(2), ModeLabel(3)
_H1, _V1, _H2, _V2, _H3, _V3 = (ModeLabel(p, q) for p in (1, 2, 3) for q in "HV")

# squeezers on (2, 3) then (1, 2) over unpolarized paths; a coincidence on
# paths 1 and 2 leaves c0|0> + c1|1> - c2|2> on path 3
NLS = Circuit(
    name="nls",
    modes=(_M1, _M2, _M3),
    inputs=((0, 0, 0), (1, 0, 0), (2, 0, 0)),
    layers=((SqueezerSpec, _M2, _M3, 0), (SqueezerSpec, _M1, _M2, 1)),
    detected=(_M1, _M2),
    out_modes=(_M3,),
    targets=((0,), (1,), (2,)),
    negated=(2,),
    closed_form=lambda g1, g2, w0, w1, w2: (1 - g1) * (1 - g2) * (
        g2 * w0 + g1 * (1 - 2 * g2) ** 2 * w1 + g1 * g1 * g2 * (3 * g2 - 2) ** 2 * w2
    ),
)

# the same setup teleports c0|0> + c1|1>: the NLS circuit without the c2 input
QUBIT_TELEPORT = replace(
    NLS, name="teleport-qubit", inputs=NLS.inputs[:2], targets=NLS.targets[:2], negated=(),
    paper_claim=lambda g1, g2: 2.0 * (1 - g1) * (1 - g2) * g2,
)

# two type-II PDC layers on polarized paths; a four-fold coincidence on
# paths 1 and 2 leaves c0|0> + c1|H> + c2|V> on path 3
QUTRIT_TELEPORT = Circuit(
    name="teleport-qutrit",
    modes=(_H1, _V1, _H2, _V2, _H3, _V3),
    inputs=((0,) * 6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
    layers=((PdcSpec, 2, 3, 0), (PdcSpec, 1, 2, 1)),
    detected=(_H1, _V1, _H2, _V2),
    out_modes=(_H3, _V3),
    targets=((0, 0), (1, 0), (0, 1)),
    negated=(),
    closed_form=lambda g1, g2, w0, w1, w2: (1 - g1) ** 2 * (1 - g2) ** 2 * (
        g2 * g2 * w0 + g1 * (1 - 2 * g2) ** 2 * g2 * (w1 + w2)
    ),
    paper_claim=lambda g1, g2: 3.0 * ((1 - g1) ** 2 * (1 - g2) ** 2) * g2 * g2,
)

# the teleports by name: gamma1 follows from gamma2 by the teleport constraint
TELEPORTS = {c.name: c for c in (QUBIT_TELEPORT, QUTRIT_TELEPORT)}


def run_nls(
    coeffs: InputCoefficients,
    params: GateParams | None = None,
    cutoff: int | None = None,
) -> ProtocolResult:
    """Nonlinear sign gate: two squeezers plus a two-fold coincidence.

    With the solved couplings the conditional output is
    c0|0> + c1|1> - c2|2> on mode 3.  ``cutoff=None`` is the herald cutoff:
    2, or 1 when c2 = 0.
    """
    coeffs = coeffs.normalized()
    if params is None:
        params = solve_nls_params()
    return run_circuit(NLS, coeffs, params, cutoff)


def run_qubit_teleport(
    coeffs: InputCoefficients,
    gamma2: float,
    cutoff: int | None = None,
) -> ProtocolResult:
    """Teleport c0|0> + c1|1> through a squeezed-vacuum channel; c2 must be 0.

    gamma1 follows from the teleport constraint; the herald is one photon
    in each of modes 1 and 2.  The paper's doubled success probability is
    recorded in metadata, not asserted; the full herald distribution is
    computed when ``herald_distribution`` is first read.  ``cutoff=None``
    is the herald cutoff, 1.
    """
    QUBIT_TELEPORT.check_inputs(coeffs)
    return run_circuit(QUBIT_TELEPORT, coeffs.normalized(), GateParams.teleport(gamma2), cutoff)


def run_qutrit_teleport(
    coeffs: InputCoefficients,
    gamma2: float,
    cutoff: int | None = None,
) -> ProtocolResult:
    """Teleport c0|0> + c1|H> + c2|V> through two type-II PDC layers.

    Herald is the four-photon coincidence: one photon in each of H1, V1,
    H2, V2.  Output lives on path 3 (modes H3, V3).  ``cutoff=None`` is the
    herald cutoff, 1.
    """
    QUTRIT_TELEPORT.check_inputs(coeffs)
    return run_circuit(QUTRIT_TELEPORT, coeffs.normalized(), GateParams.teleport(gamma2), cutoff)


def run_teleport(
    protocol: str, coeffs: InputCoefficients, gamma2: float, cutoff: int | None = None
) -> ProtocolResult:
    """The teleport ``TELEPORTS[protocol]``, as its runner above runs it.

    Each runner calls ``normalized`` itself: a warning then names its caller.
    """
    if protocol not in TELEPORTS:
        raise FockError(f"unknown teleport protocol {protocol!r}")
    circuit = TELEPORTS[protocol]
    circuit.check_inputs(coeffs)
    return run_circuit(circuit, coeffs.normalized(), GateParams.teleport(gamma2), cutoff)


# -- optimization and sweeps --------------------------------------------------


def _feasible_limit(lo: float, hi: float) -> float:
    """Largest gamma2 in [lo, hi] that ``solve_teleport_constraint`` accepts.

    gamma1 grows with gamma2, so the accepted values form an interval; ``lo``
    must lie in it.  Bisection over floats ends on adjacent floats.
    """
    def feasible(g2: float) -> bool:
        try:
            solve_teleport_constraint(g2)
        except FockError:
            return False
        return True

    if feasible(hi):
        return hi
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            mid = math.nextafter(lo, hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def optimize_teleport_success(
    protocol: str,
    gamma2_range: tuple[float, float],
    tolerance: float = 1e-6,
    cutoff: int | None = None,
) -> tuple[float, float]:
    """Golden-section maximization of the herald probability over gamma2.

    The constraint gamma1 = gamma2/(1-2*gamma2)^2 is applied at every
    point, and the range is first clipped to the couplings it accepts
    (gamma1 < 1, so gamma2 < 1/4): probes past that boundary would all
    score 0 and could walk the bracket there.  ``tolerance`` is the
    absolute bracket width on gamma2 and must be positive.  Each probe runs
    the balanced input: equal weights on the circuit's inputs.
    """
    if protocol not in TELEPORTS:
        raise FockError(f"unknown teleport protocol {protocol!r}")
    if not tolerance > 0:
        raise FockError(f"tolerance must be positive, got {tolerance}")
    lo, hi = gamma2_range
    if not (0.0 < lo <= hi < 0.5):
        raise FockError(f"gamma2 range must lie inside (0, 0.5), got {gamma2_range}")
    if cutoff is not None and cutoff < 1:  # every run would fail and score 0
        raise FockError(f"cutoff must be positive, got {cutoff}")
    solve_teleport_constraint(lo)  # gamma1 monotone: lo infeasible => all are
    hi = _feasible_limit(lo, hi)
    circuit = TELEPORTS[protocol]

    def probability(g2: float) -> float:
        # infeasible couplings (gamma1 >= 1) count as zero success, so ranges
        # extending past the feasibility boundary remain searchable; any other
        # failure of the run is an error
        try:
            params = GateParams.teleport(g2)
        except FockError:
            return 0.0
        return float(_run_batch(circuit, circuit.balanced_input, [params], cutoff)[2][0])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc = probability(c)
    fd = probability(d)
    while abs(b - a) > tolerance:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = probability(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = probability(d)
    g2_star = 0.5 * (a + b)
    return g2_star, probability(g2_star)


def sweep(
    protocol: str,
    gamma2_values,
    cutoff: int | None = None,
    coeffs: InputCoefficients | None = None,
) -> list[dict]:
    """One row per grid point; invalid points yield an error row, not a raise.

    The feasible points run through the circuit as one batch of at most
    ``SWEEP_CHUNK`` points at a time, which bounds the memory a long grid
    takes; every row equals the row of a separate run at its point.
    ``cutoff=None`` is the herald cutoff of ``coeffs``, by default the
    balanced input: equal weights on the circuit's inputs.
    """
    if protocol not in TELEPORTS:
        raise FockError(f"unknown teleport protocol {protocol!r}")
    circuit = TELEPORTS[protocol]
    coeffs = coeffs or circuit.balanced_input
    shared_error = None
    try:
        circuit.check_inputs(coeffs)
        coeffs = coeffs.normalized()
    except FockError as exc:
        shared_error = str(exc)
    rows, runs = [], []
    for g2 in gamma2_values:
        row = {
            "gamma2": g2,
            "gamma1": None,
            "probability": None,
            "fidelity": None,
            "leaked_norm": None,
            "error": shared_error,
        }
        rows.append(row)
        if 0.0 < g2 < 0.5:
            row["gamma1"] = g2 / (1.0 - 2.0 * g2) ** 2
        if shared_error is None:
            try:
                runs.append((row, GateParams.teleport(g2)))
            except FockError as exc:
                row["error"] = str(exc)
    for i in range(0, len(runs), SWEEP_CHUNK):
        chunk = runs[i:i + SWEEP_CHUNK]
        try:
            psi, _, prob, _, fid = _run_batch(circuit, coeffs, [p for _, p in chunk], cutoff)
        except FockError as exc:  # independent of the point: every run fails alike
            for row, _ in chunk:
                row["error"] = str(exc)
            continue
        for (row, params), p, f, leak in zip(
            chunk, prob.tolist(), fid.tolist(), psi.leaked_norm.tolist()
        ):
            row.update(gamma1=params.gamma1, probability=p, fidelity=f, leaked_norm=leak)
    return rows
