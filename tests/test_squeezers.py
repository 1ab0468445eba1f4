import math

import pytest
from bruteforce import apply_two_mode_squeezer_scalar
from hypothesis import given, settings
from hypothesis import strategies as st

from fockherald import (
    FockError,
    ModeLabel,
    ModeMismatchError,
    PdcSpec,
    PureState,
    SqueezerSpec,
    apply_squeezer_taylor_oracle,
    apply_two_mode_squeezer,
    apply_type2_pdc,
    inner_product,
    make_basis_state,
    normalize,
    squeezer_matrix_element,
    vacuum_state,
)

MA, MB = ModeLabel(2), ModeLabel(3)
POL = tuple(ModeLabel(p, q) for p in (2, 3) for q in ("H", "V"))


def test_identity_at_zero_coupling():
    vac = vacuum_state((MA, MB), 8)
    out = apply_two_mode_squeezer(vac, SqueezerSpec(MA, MB, 0.0))
    assert out.terms == vac.terms
    assert out.leaked_norm == 0.0


def test_tmsv_amplitudes():
    gamma, cutoff = 0.3, 20
    vac = vacuum_state((MA, MB), cutoff)
    out = apply_two_mode_squeezer(vac, SqueezerSpec(MA, MB, gamma))
    for n in range(cutoff + 1):
        expected = math.sqrt(1 - gamma) * gamma ** (n / 2)
        assert out.amplitude((n, n)).real == pytest.approx(expected, abs=1e-14)
    # off-diagonal terms never appear
    assert all(m == n for m, n in out.terms)


def test_one_one_amplitude_closed_form():
    gamma = 0.226541
    st_ = make_basis_state((MA, MB), (1, 1), 12)
    out = apply_two_mode_squeezer(st_, SqueezerSpec(MA, MB, gamma))
    expected = math.sqrt(1 - gamma) * (1 - 2 * gamma)
    assert out.amplitude((1, 1)).real == pytest.approx(expected, abs=1e-12)


def test_missing_mode_rejected():
    st_ = vacuum_state((MA,), 8)
    with pytest.raises(ModeMismatchError):
        apply_two_mode_squeezer(st_, SqueezerSpec(MA, MB, 0.1))


def test_spec_validation():
    with pytest.raises(ValueError):
        SqueezerSpec(MA, MA, 0.1)
    with pytest.raises(ValueError):
        SqueezerSpec(MA, MB, 1.0)


@pytest.mark.parametrize("args, message", [
    ((1, 1, 0.1), "PDC requires two distinct paths"),
    ((1, 2, 1.0), r"gamma must lie in \[0, 1\), got 1.0"),
    ((1, 2, -0.1), r"gamma must lie in \[0, 1\), got -0.1"),
])
def test_pdc_spec_validation(args, message):
    with pytest.raises(FockError, match=message):
        PdcSpec(*args)


def test_matrix_element_rejects_negative_occupations():
    with pytest.raises(FockError, match="occupations must be nonnegative"):
        squeezer_matrix_element(1, 1, -1, -1, 0.1)


def test_matrix_element_tmsv_column():
    for gamma in (0.1, 0.226541, 0.757359):
        for n in range(10):
            got = squeezer_matrix_element(0, 0, n, n, gamma)
            expected = math.sqrt(1 - gamma) * gamma ** (n / 2)
            assert got.real == pytest.approx(expected, abs=1e-13)


def test_matrix_element_number_difference_zero():
    assert squeezer_matrix_element(1, 1, 2, 1, 0.3) == 0
    assert squeezer_matrix_element(4, 1, 2, 0, 0.3) == 0


def test_matrix_element_two_two_to_one_one():
    gamma = 0.3
    got = squeezer_matrix_element(2, 2, 1, 1, gamma)
    expected = math.sqrt(gamma) * math.sqrt(1 - gamma) * (3 * gamma - 2)
    assert got.real == pytest.approx(expected, abs=1e-13)


def test_matrix_elements_agree_with_application():
    gamma, cutoff = 0.35, 10
    st_ = make_basis_state((MA, MB), (3, 1), cutoff)
    out = apply_two_mode_squeezer(st_, SqueezerSpec(MA, MB, gamma))
    for (m, n), amp in out.terms.items():
        elem = squeezer_matrix_element(3, 1, m, n, gamma)
        assert abs(amp - elem) < 1e-13


def test_unitarity_when_leak_negligible():
    gamma, cutoff = 0.1, 40  # tail g^(cutoff+1) ~ 1e-41
    st_ = make_basis_state((MA, MB), (2, 1), cutoff)
    out = apply_two_mode_squeezer(st_, SqueezerSpec(MA, MB, gamma))
    assert out.leaked_norm < 1e-12
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_leaked_norm_accounts_for_cutoff():
    gamma, cutoff = 0.6, 6
    vac = vacuum_state((MA, MB), cutoff)
    out = apply_two_mode_squeezer(vac, SqueezerSpec(MA, MB, gamma))
    # exact TMSV tail beyond the cutoff
    tail = gamma ** (cutoff + 1)
    assert out.leaked_norm == pytest.approx(tail, abs=1e-12)
    assert out.norm_sq() + out.leaked_norm == pytest.approx(1.0, abs=1e-12)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.0, max_value=0.8),
)
@settings(max_examples=80, deadline=None)
def test_number_difference_conserved(m, n, gamma):
    st_ = make_basis_state((MA, MB), (m, n), 10)
    out = apply_two_mode_squeezer(st_, SqueezerSpec(MA, MB, gamma))
    assert all(mp - np_ == m - n for mp, np_ in out.terms)


@st.composite
def squeezer_cases(draw):
    n_modes = draw(st.integers(min_value=2, max_value=6))
    cutoff = draw(st.integers(min_value=4, max_value=64))
    modes = tuple(ModeLabel(p) for p in range(n_modes))
    occs = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=cutoff)] * n_modes),
            min_size=1, max_size=6, unique=True,
        )
    )
    amps = [
        draw(st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0))
        for _ in occs
    ]
    ia, ib = draw(st.permutations(range(n_modes)))[:2]
    gamma = draw(st.sampled_from([0.0, 0.05, 0.757, 0.95]))
    state = PureState(modes, dict(zip(occs, amps)), cutoff)
    return state, SqueezerSpec(modes[ia], modes[ib], gamma)


@given(squeezer_cases())
@settings(max_examples=100, deadline=None)
def test_vectorised_kernel_matches_scalar_reference(case):
    # tolerances fixed from float64 rounding; the kernel multiplies and adds
    # in the loop's order, and sums the norms behind leaked_norm as it does
    state, spec = case
    norm = state.norm()
    fast = apply_two_mode_squeezer(state, spec)
    ref = apply_two_mode_squeezer_scalar(state, spec)
    for occ in set(fast.terms) | set(ref.terms):
        assert abs(fast.amplitude(occ) - ref.amplitude(occ)) <= 1e-14 * norm
    assert abs(fast.leaked_norm - ref.leaked_norm) <= 1e-13 * norm**2


# -- type-II PDC -------------------------------------------------------------


def test_pdc_identity_at_zero():
    vac = vacuum_state(POL, 6)
    out = apply_type2_pdc(vac, PdcSpec(2, 3, 0.0))
    assert out.terms == vac.terms


def test_pdc_sector_weights():
    gamma, cutoff = 0.3, 10
    vac = vacuum_state(POL, cutoff)
    out = apply_type2_pdc(vac, PdcSpec(2, 3, gamma))
    sector = {}
    for occ, amp in out.terms.items():
        total = sum(occ)
        assert total % 2 == 0
        sector[total // 2] = sector.get(total // 2, 0.0) + abs(amp) ** 2
    for n in range(9):
        expected = (1 - gamma) ** 2 * (n + 1) * gamma**n
        assert sector[n] == pytest.approx(expected, abs=1e-12)


def test_pdc_pair_symmetry():
    gamma = 0.2
    vac = vacuum_state(POL, 6)
    out = apply_type2_pdc(vac, PdcSpec(2, 3, gamma))
    # modes canonical order: H2, V2, H3, V3
    assert out.amplitude((1, 0, 0, 1)) == pytest.approx(out.amplitude((0, 1, 1, 0)))


def test_pdc_pair_sector_matches_symmetric_construction():
    # n-pair sector, renormalized, equals
    # (a†_H2 a†_V3 + a†_V2 a†_H3)^n |0> / (sqrt(n+1) n!)
    gamma, cutoff = 0.25, 8
    vac = vacuum_state(POL, cutoff)
    out = apply_type2_pdc(vac, PdcSpec(2, 3, gamma))
    for n in range(1, 6):
        sector_terms = {
            occ: amp for occ, amp in out.terms.items() if sum(occ) == 2 * n
        }
        sector = PureState(POL, sector_terms, cutoff)
        sector, _ = normalize(sector)
        # explicit expansion: sum_k |k>_H2 |n-k>_V2 |n-k>_H3 |k>_V3 / sqrt(n+1)
        explicit_terms = {
            (k, n - k, n - k, k): 1 / math.sqrt(n + 1) for k in range(n + 1)
        }
        explicit = PureState(POL, explicit_terms, cutoff)
        overlap = abs(inner_product(explicit, sector))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_pdc_requires_polarized_modes():
    vac = vacuum_state((MA, MB), 6)
    with pytest.raises(ModeMismatchError):
        apply_type2_pdc(vac, PdcSpec(2, 3, 0.1))


def test_pdc_crossed_differences_conserved():
    gamma, cutoff = 0.3, 6
    h2, v2, h3, v3 = POL
    st_ = make_basis_state(POL, (1, 0, 0, 2), cutoff)
    out = apply_type2_pdc(st_, PdcSpec(2, 3, gamma))
    for occ in out.terms:
        nh2, nv2, nh3, nv3 = occ
        assert nh2 - nv3 == 1 - 2
        assert nv2 - nh3 == 0 - 0


# -- series-exponential oracle ------------------------------------------------


def test_oracle_identity_at_zero():
    st_ = make_basis_state((MA, MB), (2, 1), 8)
    out = apply_squeezer_taylor_oracle(st_, SqueezerSpec(MA, MB, 0.0))
    assert out.amplitude((2, 1)) == pytest.approx(1.0, abs=1e-14)


def test_oracle_matches_factored_on_vacuum():
    gamma, cutoff = 0.04, 12
    vac = vacuum_state((MA, MB), cutoff)
    spec = SqueezerSpec(MA, MB, gamma)
    fast = apply_two_mode_squeezer(vac, spec)
    slow = apply_squeezer_taylor_oracle(vac, spec, theta_terms=60)
    for occ in set(fast.terms) | set(slow.terms):
        assert abs(fast.amplitude(occ) - slow.amplitude(occ)) < 1e-10


def test_oracle_one_one_component():
    gamma = 0.226541
    st_ = make_basis_state((MA, MB), (1, 1), 12)
    out = apply_squeezer_taylor_oracle(st_, SqueezerSpec(MA, MB, gamma))
    expected = math.sqrt(1 - gamma) * (1 - 2 * gamma)
    assert out.amplitude((1, 1)).real == pytest.approx(expected, abs=1e-9)


def test_oracle_with_spectator_mode():
    gamma, cutoff = 0.2, 8
    mx = ModeLabel(7)
    st_ = make_basis_state((MA, MB, mx), (1, 0, 3), cutoff)
    spec = SqueezerSpec(MA, MB, gamma)
    fast = apply_two_mode_squeezer(st_, spec)
    slow = apply_squeezer_taylor_oracle(st_, spec)
    for occ in set(fast.terms) | set(slow.terms):
        assert abs(fast.amplitude(occ) - slow.amplitude(occ)) < 1e-10


def test_oracle_needs_one_series_term():
    with pytest.raises(FockError, match="theta_terms must be >= 1"):
        apply_squeezer_taylor_oracle(vacuum_state((MA, MB), 4), SqueezerSpec(MA, MB, 0.1), 0)
