import dataclasses
import math

import pytest
from bruteforce import herald_weights_scalar

from fockherald import (
    DetectionPattern,
    FockError,
    GateParams,
    InputCoefficients,
    ModeLabel,
    ModeMismatchError,
    SqueezerSpec,
    apply_two_mode_squeezer,
    herald_weights,
    make_basis_state,
    outcome_distribution,
    project,
    run_nls,
    superpose,
    vacuum_state,
)
from fockherald.protocols import NLS, run_circuit

M1, M2, M3 = ModeLabel(1), ModeLabel(2), ModeLabel(3)


def nls_circuit(alpha, beta, gamma_c, g1, g2, cutoff=24):
    modes = (M1, M2, M3)
    psi = superpose(
        [
            (alpha, make_basis_state(modes, (0, 0, 0), cutoff)),
            (beta, make_basis_state(modes, (1, 0, 0), cutoff)),
            (gamma_c, make_basis_state(modes, (2, 0, 0), cutoff)),
        ]
    )
    psi = apply_two_mode_squeezer(psi, SqueezerSpec(M2, M3, g1))
    return apply_two_mode_squeezer(psi, SqueezerSpec(M1, M2, g2))


def test_project_basis_state():
    st_ = make_basis_state((M1, M2, M3), (1, 1, 0), 8)
    out = project(st_, DetectionPattern({M1: 1, M2: 1}))
    assert out.probability == pytest.approx(1.0)
    assert out.conditional_state.modes == (M3,)
    assert out.conditional_state.amplitude((0,)) == pytest.approx(1.0)


def test_project_tmsv_photon_counting():
    gamma, cutoff = 0.3, 16
    tmsv = apply_two_mode_squeezer(
        vacuum_state((M2, M3), cutoff), SqueezerSpec(M2, M3, gamma)
    )
    for n in range(5):
        out = project(tmsv, DetectionPattern({M2: n}))
        assert out.probability == pytest.approx((1 - gamma) * gamma**n, abs=1e-13)
        assert abs(out.conditional_state.amplitude((n,))) == pytest.approx(1.0)


def test_project_nls_coincidence_weight():
    # squared Eq-7 coefficients for the (1,1) pattern
    alpha, beta, gamma_c = 0.5, 0.5j, math.sqrt(0.5)
    g1, g2 = 0.3, 0.15
    psi = nls_circuit(alpha, beta, gamma_c, g1, g2)
    out = project(psi, DetectionPattern({M1: 1, M2: 1}))
    expected = (1 - g1) * (1 - g2) * (
        g2 * abs(alpha) ** 2
        + g1 * (1 - 2 * g2) ** 2 * abs(beta) ** 2
        + g1**2 * g2 * (3 * g2 - 2) ** 2 * abs(gamma_c) ** 2
    )
    assert out.probability == pytest.approx(expected, abs=1e-10)


def test_project_zero_probability_is_a_value():
    st_ = make_basis_state((M1, M2), (1, 0), 8)
    out = project(st_, DetectionPattern({M1: 0}))
    assert out.probability == 0.0
    assert out.conditional_state.terms == {}


def test_project_pattern_at_the_cutoff():
    # a count equal to the cutoff conditions normally; one more is rejected
    tmsv = apply_two_mode_squeezer(vacuum_state((M1, M2), 4), SqueezerSpec(M1, M2, 0.3))
    out = project(tmsv, DetectionPattern({M1: 4}))
    assert out.conditional_state.modes == (M2,)
    assert list(out.conditional_state.terms) == [(4,)]
    assert out.conditional_state.amplitude((4,)) == pytest.approx(1.0, abs=1e-15)
    assert out.probability == pytest.approx(abs(tmsv.amplitude((4, 4))) ** 2, rel=1e-15)
    assert out.probability > 0.0
    with pytest.raises(FockError, match=r"pattern count 5 on 1 exceeds cutoff"):
        project(tmsv, DetectionPattern({M1: 5}))


def test_project_unknown_mode():
    st_ = make_basis_state((M1, M2), (0, 0), 8)
    with pytest.raises(ModeMismatchError):
        project(st_, DetectionPattern({M3: 1}))


def test_project_requires_strict_subset():
    st_ = make_basis_state((M1, M2), (0, 0), 8)
    with pytest.raises(ModeMismatchError):
        project(st_, DetectionPattern({M1: 0, M2: 0}))


def test_projecting_removed_mode_is_error():
    st_ = make_basis_state((M1, M2, M3), (1, 1, 0), 8)
    out = project(st_, DetectionPattern({M1: 1}))
    with pytest.raises(ModeMismatchError):
        project(out.conditional_state, DetectionPattern({M1: 1}))


def test_product_state_projection_composes():
    a = superpose(
        [
            (0.6, make_basis_state((M1, M2, M3), (0, 0, 0), 8)),
            (0.8, make_basis_state((M1, M2, M3), (1, 1, 0), 8)),
        ]
    )
    joint = project(a, DetectionPattern({M1: 1}))
    chained = project(joint.conditional_state, DetectionPattern({M2: 1}))
    direct = project(a, DetectionPattern({M1: 1, M2: 1}))
    assert joint.probability * chained.probability == pytest.approx(
        direct.probability, abs=1e-12
    )


def test_distribution_basis_state():
    st_ = make_basis_state((M1, M2), (2, 0), 8)
    dist = outcome_distribution(st_, [M1])
    assert len(dist) == 1
    pattern, prob = dist[0]
    assert pattern.assignments == {M1: 2}
    assert prob == pytest.approx(1.0)


def test_distribution_tmsv_geometric():
    gamma, cutoff = 0.3, 16
    tmsv = apply_two_mode_squeezer(
        vacuum_state((M2, M3), cutoff), SqueezerSpec(M2, M3, gamma)
    )
    dist = outcome_distribution(tmsv, [M2])
    probs = {p.assignments[M2]: w for p, w in dist}
    for n, w in probs.items():
        assert w == pytest.approx((1 - gamma) * gamma**n, abs=1e-13)
    assert sum(probs.values()) == pytest.approx(
        1 - gamma ** (cutoff + 1), abs=1e-12
    )


def test_distribution_completeness_on_nls_circuit():
    psi = nls_circuit(1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3), 0.4, 0.2)
    dist = outcome_distribution(psi, [M1, M2])
    total = sum(w for _, w in dist)
    assert abs(total - psi.norm_sq()) < 1e-10
    assert abs(total - (1 - psi.leaked_norm)) <= psi.leaked_norm + 1e-10


def test_distribution_consistent_with_project():
    psi = nls_circuit(0.8, 0.6, 0.0, 0.3, 0.25)
    dist = {
        tuple(c for _, c in p.sorted_items()): w
        for p, w in outcome_distribution(psi, [M1, M2])
    }
    out = project(psi, DetectionPattern({M1: 1, M2: 1}))
    assert dist[(1, 1)] == pytest.approx(out.probability, abs=1e-13)


def test_distribution_order_is_lexicographic():
    psi = nls_circuit(0.6, 0.0, 0.8, 0.3, 0.25)
    counts = [
        tuple(c for _, c in p.sorted_items())
        for p, _ in outcome_distribution(psi, [M1, M2])
    ]
    assert counts == sorted(counts)


def test_pattern_negative_count_rejected():
    with pytest.raises(ValueError):
        DetectionPattern({M1: -1})


def _as_count_tuples(dist):
    return [(tuple(c for _, c in p.sorted_items()), w) for p, w in dist]


def test_herald_distribution_convention():
    coeffs = InputCoefficients(0.6, 0.48, 0.64)
    params, cutoff = GateParams(0.4, 0.2), 16
    res = run_nls(coeffs, params, cutoff)
    psi = nls_circuit(0.6, 0.48, 0.64, 0.4, 0.2, cutoff)
    assert NLS.detected == (M1, M2)
    expected = _as_count_tuples(outcome_distribution(psi, [M1, M2]))
    assert res.herald_distribution == expected
    # counts stay in canonical mode order when detected modes are given
    # out of order, and the order of the patterns does not change
    reordered = run_circuit(dataclasses.replace(NLS, detected=(M2, M1)), coeffs, params, cutoff)
    assert reordered.herald_distribution == expected
    assert _as_count_tuples(outcome_distribution(psi, [M2, M1])) == expected


def test_herald_weights_match_distribution_and_reference():
    psi = nls_circuit(0.6, 0.0, 0.8, 0.3, 0.25)
    for detected in ([M1, M2], [M2, M1], [M3], [M3, M1]):
        weights = herald_weights(psi, detected)
        dist = _as_count_tuples(outcome_distribution(psi, detected))
        assert [c for c, _ in weights] == [c for c, _ in dist]
        for (_, w), (_, w_dist) in zip(weights, dist):
            assert abs(w - w_dist) <= 1e-15
        ref = herald_weights_scalar(psi, detected)
        assert [c for c, _ in weights] == sorted(ref)
        for counts, w in weights:
            assert abs(w - ref[counts]) <= 1e-14
