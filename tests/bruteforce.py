"""Independent slow oracles used only by the test suite.

The qutrit-herald oracle builds the two down-conversion generators as
sparse matrices on a total-photon-capped six-mode basis and applies true
matrix exponentials (scipy expm_multiply), sharing no code with the
factored production path.

``transfer`` gives the signed heralded amplitudes of the paper's circuits
in closed form.

``run_batch_reference`` is a circuit run as the library ran it before its
run plans: the input and the target built by the mapping constructor, every
layer through the public ``apply_type2_pdc`` or ``apply_two_mode_squeezer``,
then ``project``, ``fix_global_phase`` and ``fidelity``; it is the reference
of ``protocols._run_batch``.

``apply_two_mode_squeezer_scalar`` is the squeezer as a term-by-term dict
loop; it multiplies the same per-step factors and adds the contributions in
the same order as the vectorised kernel, and serves as its reference.  Its
ledger sums the input and output norms as the kernel does: one numpy
pairwise ``sum`` over the terms' |a|^2 in lexicographic order, so a deficit
that cancels to a few ulps of the norm still agrees to the bit.  The
``PureState`` constructor prunes by the kernel's rule and adds the pruned
terms to the ledger as one sum in key order, as the kernel does, so the
whole ledger agrees to the bit.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from fockherald import (
    DetectionPattern,
    PdcSpec,
    PureState,
    StateBatch,
    apply_two_mode_squeezer,
    apply_type2_pdc,
    fidelity,
    fix_global_phase,
    project,
)
from fockherald.protocols import _herald_cutoff
from fockherald.states import EPS_ZERO, FockError, ModeMismatchError


def apply_two_mode_squeezer_scalar(state, spec):
    """Disentangled squeezer, one input term and one series step at a time."""
    ia = state.index_of(spec.mode_a)
    ib = state.index_of(spec.mode_b)
    g = spec.gamma
    s = math.sqrt(g)
    cutoff = state.cutoff
    log1mg = math.log1p(-g) if g > 0.0 else 0.0

    out = {}
    in_mag2 = []
    for occ, amp in state.sorted_terms():
        in_mag2.append(amp.real * amp.real + amp.imag * amp.imag)
        m, n = occ[ia], occ[ib]
        occ_list = list(occ)
        low = 1.0  # lowering-series coefficient, k = 0
        for k in range(min(m, n) + 1):
            if k > 0:
                low *= -s / k * (math.sqrt(m - k + 1) * math.sqrt(n - k + 1))
            mp, np_ = m - k, n - k
            base = amp * low * math.exp(0.5 * (mp + np_ + 1) * log1mg)
            raise_cap = cutoff - max(mp, np_)
            r = 1.0  # raising-series coefficient, j = 0
            for j in range(raise_cap + 1):
                if j > 0:
                    r *= s / j * (math.sqrt(mp + j) * math.sqrt(np_ + j))
                occ_list[ia] = mp + j
                occ_list[ib] = np_ + j
                key = tuple(occ_list)
                out[key] = out.get(key, 0j) + base * r

    out_mag2 = [a.real * a.real + a.imag * a.imag for _, a in sorted(out.items())]
    deficit = np.array(in_mag2).sum() - np.array(out_mag2).sum()
    leaked = state.leaked_norm + max(0.0, float(deficit))
    return PureState(state.modes, out, cutoff, leaked)


def run_batch_reference(circuit, coeffs, params, cutoff):
    """``protocols._run_batch`` with every structure built anew and every step public."""
    cs = (coeffs.c0, coeffs.c1, coeffs.c2)
    if cutoff is None:
        cutoff = _herald_cutoff(circuit, cs)
        if cutoff == math.inf:
            raise FockError(f"no finite cutoff decides the herald of {circuit.name}")
    rest = [m for m in circuit.modes if m not in circuit.detected]
    if set(circuit.out_modes) != set(rest):
        out, rest = (", ".join(map(str, ms)) for ms in (circuit.out_modes, rest))
        raise ModeMismatchError(
            f"{circuit.name}: out_modes ({out}) are not its modes minus detected ({rest})")
    psi = StateBatch.of(_mapped_sum(circuit.modes, circuit.inputs, cs, cutoff), len(params))
    for spec, a, b, g in circuit.layers:
        apply = apply_type2_pdc if spec is PdcSpec else apply_two_mode_squeezer
        psi = apply(psi, [spec(a, b, (p.gamma1, p.gamma2)[g]) for p in params])
    signed = [-c if i in circuit.negated else c for i, c in enumerate(cs)]
    target = fix_global_phase(_mapped_sum(circuit.out_modes, circuit.targets, signed, cutoff))

    outcome = project(psi, DetectionPattern({m: 1 for m in circuit.detected}))
    heralded = outcome.probability > EPS_ZERO
    out_state = fix_global_phase(outcome.conditional_state)
    fid = np.zeros(len(params))
    if heralded.any():
        fid[heralded] = fidelity(out_state.take(heralded), target)
    return psi, target, outcome.probability, out_state, fid


def _mapped_sum(modes, occs, coeffs, cutoff):
    """sum_i coeffs[i] |occs[i]> through the mapping constructor, terms merged in input order."""
    terms = {}
    for c, occ in zip(coeffs, occs):
        if c != 0:
            terms[occ] = terms.get(occ, 0j) + complex(c) * (1 + 0j)
    if not terms:
        raise FockError("superpose requires at least one term")
    return PureState(modes, terms, cutoff)


def transfer(circuit, g1, g2):
    """Signed heralded amplitudes t_i of a circuit: input c_i leaves as t_i c_i |target_i>.

    Closed forms of the paper's circuits (the teleports' and the NLS gate's
    herald sectors); the herald probability is sum_i t_i^2 |c_i|^2.
    """
    if circuit.name == "teleport-qutrit":
        t1 = math.sqrt(g1 * g2) * (1 - 2 * g2)
        return tuple((1 - g1) * (1 - g2) * t for t in (g2, t1, t1))
    amps = (math.sqrt(g2), math.sqrt(g1) * (1 - 2 * g2), g1 * math.sqrt(g2) * (3 * g2 - 2))
    scale = math.sqrt((1 - g1) * (1 - g2))
    return tuple(scale * t for t in amps[:len(circuit.inputs)])


def herald_weights_scalar(state, detected):
    """{counts in canonical mode order: summed squared amplitude}, term by term."""
    idx = sorted(state.index_of(m) for m in detected)
    weights = {}
    for occ, amp in state.sorted_terms():
        key = tuple(occ[i] for i in idx)
        weights[key] = weights.get(key, 0.0) + abs(amp) ** 2
    return weights

# mode order: H1, V1, H2, V2, H3, V3
_PDC1_PAIRS = ((2, 5), (3, 4))  # (H2,V3), (V2,H3)
_PDC2_PAIRS = ((0, 3), (1, 2))  # (H1,V2), (V1,H2)


def _basis(cap_total):
    states = [
        occ
        for occ in itertools.product(range(cap_total + 1), repeat=6)
        if sum(occ) <= cap_total
    ]
    states.sort()
    return states, {s: i for i, s in enumerate(states)}


def _pair_generator(states, index, ia, ib, theta):
    rows, cols, vals = [], [], []
    for occ in states:
        i = index[occ]
        raised = list(occ)
        raised[ia] += 1
        raised[ib] += 1
        j = index.get(tuple(raised))
        if j is not None:
            v = theta * math.sqrt((occ[ia] + 1) * (occ[ib] + 1))
            rows += [j, i]
            cols += [i, j]
            vals += [v, -v]
    n = len(states)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def qutrit_herald_amplitudes(c0, c1, c2, gamma1, gamma2, cap_total=14):
    """Herald-sector amplitudes {path-3 occupation: amplitude} and probability."""
    states, index = _basis(cap_total)
    th1 = math.atanh(math.sqrt(gamma1))
    th2 = math.atanh(math.sqrt(gamma2))
    g1 = sum(_pair_generator(states, index, a, b, th1) for a, b in _PDC1_PAIRS)
    g2 = sum(_pair_generator(states, index, a, b, th2) for a, b in _PDC2_PAIRS)
    v = np.zeros(len(states), dtype=complex)
    v[index[(0, 0, 0, 0, 0, 0)]] = c0
    v[index[(1, 0, 0, 0, 0, 0)]] = c1
    v[index[(0, 1, 0, 0, 0, 0)]] = c2
    v = expm_multiply(g1, v)
    v = expm_multiply(g2, v)
    amps = {}
    prob = 0.0
    for occ in states:
        if occ[:4] == (1, 1, 1, 1):
            a = v[index[occ]]
            prob += abs(a) ** 2
            if abs(a) > 1e-14:
                amps[occ[4:]] = a
    return amps, prob
