"""End-to-end heralded circuits: NLS gate and vacuum/one-photon teleportation.

Each protocol builds the input superposition, runs the squeezer (or PDC)
layers, conditions on the coincidence pattern, and reports the normalized
conditional state together with the herald probability and the fidelity
against the analytic target.  Parameter constraint solvers and a success
probability optimizer/sweep layer live here as well.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

# outcome_distribution is unused here but stays in this namespace, where
# the benchmark's tracer (perfbench/tracing.py) wraps it
from .heralding import (  # noqa: F401
    DetectionPattern,
    herald_weights,
    outcome_distribution,
    project,
)
from .squeezers import PdcSpec, SqueezerSpec, apply_two_mode_squeezer, apply_type2_pdc
from .states import (
    EPS_ZERO,
    FockError,
    ModeLabel,
    PureState,
    ZeroNormError,
    inner_product,
    make_basis_state,
    normalize,
    superpose,
)

DEFAULT_NLS_CUTOFF = 64      # strong coupling, gamma1 ~ 0.757
DEFAULT_QUBIT_CUTOFF = 16    # weak coupling teleport runs
DEFAULT_QUTRIT_CUTOFF = 8


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
    """Conditional output with success probability and target fidelity."""

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
    herald_distribution: list[tuple[tuple[int, ...], float]] = field(
        default_factory=list
    )

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

    r1 = math.sqrt(g2) - math.sqrt(g1) * (1.0 - 2.0 * g2)
    r2 = math.sqrt(g2) + g1 * math.sqrt(g2) * (3.0 * g2 - 2.0)
    if max(abs(r1), abs(r2)) >= 1e-12:
        raise FockError(f"coupling residuals too large: {r1:.2e}, {r2:.2e}")
    return GateParams(g1, g2)


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


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 / (<a|a><b|b>); insensitive to global phases."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na <= EPS_ZERO or nb <= EPS_ZERO:
        raise ZeroNormError("fidelity requires nonzero states")
    return abs(inner_product(a, b)) ** 2 / (na * nb)


def fix_global_phase(state: PureState) -> PureState:
    """Rotate so the lowest-occupation nonzero amplitude is real positive."""
    if not len(state.amplitudes):
        return state
    ref = complex(state.amplitudes[0])
    phase = ref / abs(ref)
    return PureState._from_arrays(
        state.modes, state.occupations, state.amplitudes / phase,
        state.cutoff, state.leaked_norm,
    )


# -- circuits ----------------------------------------------------------------


def _single_rail_circuit(
    coeffs: InputCoefficients, params: GateParams, cutoff: int
) -> tuple[PureState, "DetectionPattern", list[ModeLabel]]:
    """Common NLS / qubit-teleport circuit on unpolarized paths 1, 2, 3."""
    m1, m2, m3 = ModeLabel(1), ModeLabel(2), ModeLabel(3)
    modes = (m1, m2, m3)
    parts = [
        (coeffs.c0, make_basis_state(modes, (0, 0, 0), cutoff)),
        (coeffs.c1, make_basis_state(modes, (1, 0, 0), cutoff)),
    ]
    if coeffs.c2 != 0:
        parts.append((coeffs.c2, make_basis_state(modes, (2, 0, 0), cutoff)))
    psi = superpose(parts)
    psi = apply_two_mode_squeezer(psi, SqueezerSpec(m2, m3, params.gamma1))
    psi = apply_two_mode_squeezer(psi, SqueezerSpec(m1, m2, params.gamma2))
    return psi, DetectionPattern({m1: 1, m2: 1}), [m1, m2]


def _finish(
    protocol: str,
    psi: PureState,
    pattern: DetectionPattern,
    detected: list[ModeLabel],
    target: PureState,
    params: GateParams,
    paper_claim: float | None,
    closed_form: float | None,
) -> ProtocolResult:
    outcome = project(psi, pattern)
    dist = herald_weights(psi, detected)
    if outcome.probability > EPS_ZERO:
        out_state = fix_global_phase(outcome.conditional_state)
        fid = fidelity(out_state, target)
    else:
        out_state = outcome.conditional_state
        fid = 0.0
    return ProtocolResult(
        protocol=protocol,
        gamma1=params.gamma1,
        gamma2=params.gamma2,
        output_state=out_state,
        success_probability=outcome.probability,
        fidelity=fid,
        target_state=target,
        leaked_norm=psi.leaked_norm,
        paper_claimed_probability=paper_claim,
        closed_form_probability=closed_form,
        herald_distribution=dist,
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
    psi, pattern, detected = _single_rail_circuit(coeffs, params, cutoff)
    m3 = ModeLabel(3)
    target = superpose(
        [
            (coeffs.c0, make_basis_state((m3,), (0,), cutoff)),
            (coeffs.c1, make_basis_state((m3,), (1,), cutoff)),
            (-coeffs.c2, make_basis_state((m3,), (2,), cutoff)),
        ]
    )
    target = fix_global_phase(target)
    g1, g2 = params.gamma1, params.gamma2
    closed = (1 - g1) * (1 - g2) * (
        g2 * abs(coeffs.c0) ** 2
        + g1 * (1 - 2 * g2) ** 2 * abs(coeffs.c1) ** 2
        + g1 * g1 * g2 * (3 * g2 - 2) ** 2 * abs(coeffs.c2) ** 2
    )
    return _finish("nls", psi, pattern, detected, target, params, None, closed)


def run_qubit_teleport(
    coeffs: InputCoefficients,
    gamma2: float,
    cutoff: int = DEFAULT_QUBIT_CUTOFF,
) -> ProtocolResult:
    """Teleport c0|0> + c1|1> through a squeezed-vacuum channel.

    gamma1 follows from the teleport constraint; the herald is one photon
    in each of modes 1 and 2.  The paper's doubled success probability is
    recorded in metadata, not asserted; the full herald distribution is
    kept for auditing.
    """
    if abs(coeffs.c2) != 0:
        raise FockError("qubit teleport requires c2 = 0")
    coeffs = coeffs.normalized()
    gamma1 = solve_teleport_constraint(gamma2)
    params = GateParams(gamma1, gamma2)
    psi, pattern, detected = _single_rail_circuit(coeffs, params, cutoff)
    m3 = ModeLabel(3)
    target = superpose(
        [
            (coeffs.c0, make_basis_state((m3,), (0,), cutoff)),
            (coeffs.c1, make_basis_state((m3,), (1,), cutoff)),
        ]
    )
    target = fix_global_phase(target)
    g1, g2 = gamma1, gamma2
    closed = (1 - g1) * (1 - g2) * (
        g2 * abs(coeffs.c0) ** 2 + g1 * (1 - 2 * g2) ** 2 * abs(coeffs.c1) ** 2
    )
    claim = 2.0 * (1 - g1) * (1 - g2) * g2
    return _finish(
        "teleport-qubit", psi, pattern, detected, target, params, claim, closed
    )


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
    gamma1 = solve_teleport_constraint(gamma2)
    params = GateParams(gamma1, gamma2)
    labels = {
        (p, q): ModeLabel(p, q) for p in (1, 2, 3) for q in ("H", "V")
    }
    modes = tuple(labels[(p, q)] for p in (1, 2, 3) for q in ("H", "V"))
    zero = (0,) * 6

    def occ_with(path_pol: tuple[int, str]) -> tuple[int, ...]:
        i = modes.index(labels[path_pol])
        occ = list(zero)
        occ[i] = 1
        return tuple(occ)

    psi = superpose(
        [
            (coeffs.c0, make_basis_state(modes, zero, cutoff)),
            (coeffs.c1, make_basis_state(modes, occ_with((1, "H")), cutoff)),
            (coeffs.c2, make_basis_state(modes, occ_with((1, "V")), cutoff)),
        ]
    )
    psi = apply_type2_pdc(psi, PdcSpec(2, 3, gamma1))
    psi = apply_type2_pdc(psi, PdcSpec(1, 2, gamma2))
    detected = [labels[(1, "H")], labels[(1, "V")], labels[(2, "H")], labels[(2, "V")]]
    pattern = DetectionPattern({m: 1 for m in detected})

    out_modes = (labels[(3, "H")], labels[(3, "V")])
    target = superpose(
        [
            (coeffs.c0, make_basis_state(out_modes, (0, 0), cutoff)),
            (coeffs.c1, make_basis_state(out_modes, (1, 0), cutoff)),
            (coeffs.c2, make_basis_state(out_modes, (0, 1), cutoff)),
        ]
    )
    target = fix_global_phase(target)
    g1, g2 = gamma1, gamma2
    pref = (1 - g1) ** 2 * (1 - g2) ** 2
    closed = pref * (
        g2 * g2 * abs(coeffs.c0) ** 2
        + g1 * (1 - 2 * g2) ** 2 * g2 * (abs(coeffs.c1) ** 2 + abs(coeffs.c2) ** 2)
    )
    claim = 3.0 * pref * g2 * g2
    return _finish(
        "teleport-qutrit", psi, pattern, detected, target, params, claim, closed
    )


# -- optimization and sweeps --------------------------------------------------

_BALANCED_QUBIT = InputCoefficients(1 / math.sqrt(2), 1 / math.sqrt(2))
_BALANCED_QUTRIT = InputCoefficients(
    1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3)
)

_RUNNERS = {
    "teleport-qubit": (run_qubit_teleport, _BALANCED_QUBIT, DEFAULT_QUBIT_CUTOFF),
    "teleport-qutrit": (run_qutrit_teleport, _BALANCED_QUTRIT, DEFAULT_QUTRIT_CUTOFF),
}


def _teleport_probability(protocol: str, gamma2: float, cutoff: int | None) -> float:
    # infeasible couplings (gamma1 >= 1) count as zero success, so ranges
    # extending past the feasibility boundary remain searchable
    runner, coeffs, default_cutoff = _RUNNERS[protocol]
    try:
        return runner(coeffs, gamma2, cutoff or default_cutoff).success_probability
    except FockError:
        return 0.0


def optimize_teleport_success(
    protocol: str,
    gamma2_range: tuple[float, float],
    tolerance: float = 1e-6,
    cutoff: int | None = None,
) -> tuple[float, float]:
    """Golden-section maximization of the herald probability over gamma2.

    The constraint gamma1 = gamma2/(1-2*gamma2)^2 is applied at every
    point.  ``tolerance`` is the absolute bracket width on gamma2.
    """
    if protocol not in _RUNNERS:
        raise FockError(f"unknown teleport protocol {protocol!r}")
    lo, hi = gamma2_range
    if not (0.0 < lo <= hi < 0.5):
        raise FockError(f"gamma2 range must lie inside (0, 0.5), got {gamma2_range}")
    solve_teleport_constraint(lo)  # gamma1 monotone: lo infeasible => all are
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
    """One row per grid point; invalid points yield an error row, not a raise."""
    if protocol not in _RUNNERS:
        raise FockError(f"unknown teleport protocol {protocol!r}")
    runner, balanced, default_cutoff = _RUNNERS[protocol]
    coeffs = coeffs or balanced
    rows = []
    for g2 in gamma2_values:
        row = {
            "gamma2": g2,
            "gamma1": None,
            "probability": None,
            "fidelity": None,
            "leaked_norm": None,
            "error": None,
        }
        if 0.0 < g2 < 0.5:
            row["gamma1"] = g2 / (1.0 - 2.0 * g2) ** 2
        try:
            res = runner(coeffs, g2, cutoff or default_cutoff)
            row.update(
                gamma1=res.gamma1,
                probability=res.success_probability,
                fidelity=res.fidelity,
                leaked_norm=res.leaked_norm,
            )
        except FockError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows
