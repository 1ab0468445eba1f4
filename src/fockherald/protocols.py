"""End-to-end heralded circuits: NLS gate and vacuum/one-photon teleportation.

A ``Circuit`` holds one heralded setup as data (input occupations, squeezer
or type-II PDC layers, detected modes, target), and ``run_circuit`` runs
any of them: input superposition, layers, coincidence herald, then the
normalized conditional state with its herald probability and fidelity to
the target.  ``NLS``, ``QUBIT_TELEPORT`` and ``QUTRIT_TELEPORT`` are the
paper's three uses of one setup, behind ``run_nls``, ``run_qubit_teleport``
and ``run_qutrit_teleport``.  Parameter constraint solvers and a success
probability optimizer/sweep layer live here as well; a sweep runs its grid
through the circuit's layers as one ``StateBatch``.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .heralding import DetectionPattern, herald_weights, project
from .squeezers import PdcSpec, SqueezerSpec, apply_two_mode_squeezer, apply_type2_pdc
from .states import (
    EPS_ZERO,
    FockError,
    ModeLabel,
    PureState,
    StateBatch,
    ZeroNormError,
    _overlaps,
)

DEFAULT_NLS_CUTOFF = 64      # strong coupling, gamma1 ~ 0.757
DEFAULT_QUBIT_CUTOFF = 16    # weak coupling teleport runs
DEFAULT_QUTRIT_CUTOFF = 8
SWEEP_CHUNK = 32             # grid points per sweep batch; bounds a sweep's memory


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


@dataclass
class ProtocolResult:
    """Conditional output with success probability and target fidelity.

    ``pre_herald_state`` is the state the herald acts on; the weight of every
    pattern on the ``detected`` modes, ``herald_distribution``, is computed
    from it on first read.
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
    pre_herald_state: PureState | None = field(default=None, repr=False)
    detected: tuple[ModeLabel, ...] = ()

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
            "output_state": self.output_state.to_dict(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


# -- parameter solvers -----------------------------------------------------


def solve_nls_params() -> GateParams:
    """Couplings making the three herald coefficients equal up to sign.

    Substitutes gamma1 = gamma2/(1-2*gamma2)^2 into the second equality and
    bisects for gamma2 on (0, 1/2); the result is confirmed against the
    closed forms (21-7*sqrt(2))/(9+4*sqrt(2)) and (3-sqrt(2))/7.
    """

    def residual(g2: float) -> float:
        # gamma1*(2-3*gamma2) = 1 with gamma1 = g2/(1-2 g2)^2, cleared of poles
        return g2 * (2.0 - 3.0 * g2) - (1.0 - 2.0 * g2) ** 2

    lo, hi = 1e-9, 0.5 - 1e-9
    flo = residual(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = residual(mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    g2 = 0.5 * (lo + hi)
    g1 = solve_teleport_constraint(g2)

    g2_closed = (3.0 - math.sqrt(2.0)) / 7.0
    g1_closed = (21.0 - 7.0 * math.sqrt(2.0)) / (9.0 + 4.0 * math.sqrt(2.0))
    if abs(g2 - g2_closed) > 1e-13 or abs(g1 - g1_closed) > 1e-13:
        raise FockError("bisection disagrees with the closed-form couplings")
    # snap to the closed forms; the bisection served as confirmation
    g1, g2 = g1_closed, g2_closed

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

    A batch ``a`` gives one fidelity per state.
    """
    na, nb = a._norms_sq().tolist(), b.norm_sq()
    if min(na) <= EPS_ZERO or nb <= EPS_ZERO:
        raise ZeroNormError("fidelity requires nonzero states")
    return a._per_state([abs(ip) ** 2 / (n * nb) for ip, n in zip(_overlaps(a, b), na)])


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


@dataclass(frozen=True)
class Circuit:
    """A heralded circuit as data: input, amplifier layers, herald and target.

    Coefficient c_i enters on the occupation ``inputs[i]`` of ``modes`` and
    should leave on the occupation ``targets[i]`` of ``out_modes``, with its
    sign flipped when i is in ``negated``.  Each layer is
    ``(SqueezerSpec or PdcSpec, a, b, g)``: the spec's two modes (or paths)
    and the index g of its coupling in (gamma1, gamma2).  The herald is one
    photon on every ``detected`` mode.  ``closed_form(g1, g2, w0, w1, w2)``
    is the herald probability for input weights w_i = |c_i|^2, and
    ``paper_claim(g1, g2)`` the probability the paper states, if any.
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


def run_circuit(
    circuit: Circuit, coeffs: InputCoefficients, params: GateParams, cutoff: int
) -> ProtocolResult:
    """Run ``circuit`` on the normalized ``coeffs`` and herald the output.

    Zero coefficients add no term to the input or to the target, so a
    circuit's unused occupations need not fit under the cutoff.
    """
    psi, target, prob, out_state, fid = _run_batch(circuit, coeffs, [params], cutoff)
    gammas = (params.gamma1, params.gamma2)
    cs = (coeffs.c0, coeffs.c1, coeffs.c2)
    return ProtocolResult(
        protocol=circuit.name,
        gamma1=params.gamma1,
        gamma2=params.gamma2,
        output_state=out_state[0],
        success_probability=float(prob[0]),
        fidelity=float(fid[0]),
        target_state=target,
        leaked_norm=float(psi.leaked_norm[0]),
        paper_claimed_probability=None if circuit.paper_claim is None
        else circuit.paper_claim(*gammas),
        closed_form_probability=circuit.closed_form(*gammas, *(abs(c) ** 2 for c in cs)),
        pre_herald_state=psi[0],
        detected=circuit.detected,
    )


def _run_batch(
    circuit: Circuit, coeffs: InputCoefficients, params: Sequence[GateParams], cutoff: int
) -> tuple[StateBatch, PureState, np.ndarray, StateBatch, np.ndarray]:
    """``circuit`` on one input for every ``params``, as one batch.

    Returns the pre-herald batch, the target, and per state the herald
    probability, the phase-fixed conditional state and its fidelity to the
    target (0 where the herald probability is at most ``EPS_ZERO``).
    """
    cs = (coeffs.c0, coeffs.c1, coeffs.c2)
    psi = StateBatch.of(_basis_sum(circuit.modes, circuit.inputs, cs, cutoff), len(params))
    for spec, a, b, g in circuit.layers:
        apply = apply_type2_pdc if spec is PdcSpec else apply_two_mode_squeezer
        psi = apply(psi, [spec(a, b, (p.gamma1, p.gamma2)[g]) for p in params])
    signed = [-c if i in circuit.negated else c for i, c in enumerate(cs)]
    target = fix_global_phase(_basis_sum(circuit.out_modes, circuit.targets, signed, cutoff))

    outcome = project(psi, DetectionPattern({m: 1 for m in circuit.detected}))
    heralded = outcome.probability > EPS_ZERO
    out_state = fix_global_phase(outcome.conditional_state)
    fid = np.zeros(len(params))
    if heralded.any():
        fid[heralded] = fidelity(out_state.take(heralded), target)
    return psi, target, outcome.probability, out_state, fid


def _basis_sum(
    modes: tuple[ModeLabel, ...],
    occs: Sequence[tuple[int, ...]],
    coeffs: Sequence[complex],
    cutoff: int,
) -> PureState:
    """sum_i coeffs[i] |occs[i]>, built by the mapping constructor in one step.

    Bit for bit what ``superpose`` gives over ``make_basis_state`` terms, and
    the same errors: zero coefficients add no term, each amplitude is the
    product ``complex(c) * (1 + 0j)``, and terms merge from 0 in input order
    as ``superpose``'s ``bincount`` adds them, which also turns a -0.0 part
    into +0.0.
    """
    terms: dict[tuple[int, ...], complex] = {}
    for c, occ in zip(coeffs, occs):
        if c != 0:
            terms[occ] = terms.get(occ, 0j) + complex(c) * (1 + 0j)
    if not terms:
        raise FockError("superpose requires at least one term")
    return PureState(modes, terms, cutoff)


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

# the same setup teleports c0|0> + c1|1>: the NLS circuit with c2 = 0
QUBIT_TELEPORT = replace(
    NLS, name="teleport-qubit", paper_claim=lambda g1, g2: 2.0 * (1 - g1) * (1 - g2) * g2
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


def run_nls(
    coeffs: InputCoefficients,
    params: GateParams | None = None,
    cutoff: int = DEFAULT_NLS_CUTOFF,
) -> ProtocolResult:
    """Nonlinear sign gate: two squeezers plus a two-fold coincidence.

    With the solved couplings the conditional output is
    c0|0> + c1|1> - c2|2> on mode 3.
    """
    if cutoff < 8:
        raise FockError("run_nls needs cutoff >= 8")
    coeffs = coeffs.normalized()
    if params is None:
        params = solve_nls_params()
    return run_circuit(NLS, coeffs, params, cutoff)


def run_qubit_teleport(
    coeffs: InputCoefficients,
    gamma2: float,
    cutoff: int = DEFAULT_QUBIT_CUTOFF,
) -> ProtocolResult:
    """Teleport c0|0> + c1|1> through a squeezed-vacuum channel.

    gamma1 follows from the teleport constraint; the herald is one photon
    in each of modes 1 and 2.  The paper's doubled success probability is
    recorded in metadata, not asserted; the full herald distribution is
    computed when ``herald_distribution`` is first read.
    """
    _require_qubit(coeffs)
    coeffs = coeffs.normalized()
    params = GateParams(solve_teleport_constraint(gamma2), gamma2)
    return run_circuit(QUBIT_TELEPORT, coeffs, params, cutoff)


def _require_qubit(coeffs: InputCoefficients) -> None:
    if abs(coeffs.c2) != 0:
        raise FockError("qubit teleport requires c2 = 0")


def run_qutrit_teleport(
    coeffs: InputCoefficients,
    gamma2: float,
    cutoff: int = DEFAULT_QUTRIT_CUTOFF,
) -> ProtocolResult:
    """Teleport c0|0> + c1|H> + c2|V> through two type-II PDC layers.

    Herald is the four-photon coincidence: one photon in each of H1, V1,
    H2, V2.  Output lives on path 3 (modes H3, V3).
    """
    coeffs = coeffs.normalized()
    params = GateParams(solve_teleport_constraint(gamma2), gamma2)
    return run_circuit(QUTRIT_TELEPORT, coeffs, params, cutoff)


# -- optimization and sweeps --------------------------------------------------

_BALANCED_QUBIT = InputCoefficients(1 / math.sqrt(2), 1 / math.sqrt(2))
_BALANCED_QUTRIT = InputCoefficients(
    1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3)
)

_RUNNERS = {
    "teleport-qubit": (run_qubit_teleport, _BALANCED_QUBIT, DEFAULT_QUBIT_CUTOFF),
    "teleport-qutrit": (run_qutrit_teleport, _BALANCED_QUTRIT, DEFAULT_QUTRIT_CUTOFF),
}
_TELEPORT_CIRCUITS = {c.name: c for c in (QUBIT_TELEPORT, QUTRIT_TELEPORT)}


def _teleport_probability(protocol: str, gamma2: float, cutoff: int | None) -> float:
    # infeasible couplings (gamma1 >= 1) count as zero success, so ranges
    # extending past the feasibility boundary remain searchable; any other
    # failure of the run is an error
    runner, coeffs, default_cutoff = _RUNNERS[protocol]
    try:
        solve_teleport_constraint(gamma2)
    except FockError:
        return 0.0
    return runner(coeffs, gamma2, default_cutoff if cutoff is None else cutoff).success_probability


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
    absolute bracket width on gamma2.
    """
    if protocol not in _RUNNERS:
        raise FockError(f"unknown teleport protocol {protocol!r}")
    lo, hi = gamma2_range
    if not (0.0 < lo <= hi < 0.5):
        raise FockError(f"gamma2 range must lie inside (0, 0.5), got {gamma2_range}")
    if cutoff is not None and cutoff < 1:  # every run would fail and score 0
        raise FockError(f"cutoff must be positive, got {cutoff}")
    solve_teleport_constraint(lo)  # gamma1 monotone: lo infeasible => all are
    hi = _feasible_limit(lo, hi)
    if lo == hi:
        return lo, _teleport_probability(protocol, lo, cutoff)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc = _teleport_probability(protocol, c, cutoff)
    fd = _teleport_probability(protocol, d, cutoff)
    while abs(b - a) > tolerance:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = _teleport_probability(protocol, c, cutoff)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = _teleport_probability(protocol, d, cutoff)
    g2_star = 0.5 * (a + b)
    return g2_star, _teleport_probability(protocol, g2_star, cutoff)


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
    """
    if protocol not in _RUNNERS:
        raise FockError(f"unknown teleport protocol {protocol!r}")
    _, balanced, default_cutoff = _RUNNERS[protocol]
    circuit = _TELEPORT_CIRCUITS[protocol]
    coeffs = coeffs or balanced
    if cutoff is None:
        cutoff = default_cutoff
    shared_error = None
    try:
        if circuit is QUBIT_TELEPORT:
            _require_qubit(coeffs)
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
                runs.append((row, GateParams(solve_teleport_constraint(g2), g2)))
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
