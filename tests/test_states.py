import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockherald import (
    CutoffExceededError,
    FockError,
    ModeLabel,
    ModeMismatchError,
    PureState,
    SqueezerSpec,
    StateBatch,
    ZeroNormError,
    apply_two_mode_squeezer,
    inner_product,
    make_basis_state,
    normalize,
    superpose,
    tensor,
    vacuum_state,
)
from fockherald.states import _overlaps, _row_sums

M1, M2, M3 = ModeLabel(1), ModeLabel(2), ModeLabel(3)


def test_basis_state_vacuum():
    st_ = make_basis_state((M1, M2, M3), (0, 0, 0), 8)
    assert st_.amplitude((0, 0, 0)) == 1
    assert st_.leaked_norm == 0.0
    assert len(st_.terms) == 1


def test_basis_state_two_photons():
    st_ = make_basis_state((M1,), (2,), 8)
    assert st_.norm() == 1.0


def test_basis_state_cutoff_violation():
    with pytest.raises(CutoffExceededError):
        make_basis_state((M1,), (9,), 8)


def test_basis_state_length_mismatch():
    with pytest.raises(ModeMismatchError):
        make_basis_state((M1, M2), (1,), 8)


def test_mode_label_validation():
    with pytest.raises(ValueError):
        ModeLabel(-1)
    with pytest.raises(ValueError):
        ModeLabel(0, "X")


def test_mixed_polarization_on_path_rejected():
    with pytest.raises(ModeMismatchError):
        PureState((ModeLabel(1), ModeLabel(1, "H")), {(0, 0): 1.0}, 4)


def test_superpose_zero_coefficient():
    a = make_basis_state((M1,), (0,), 8)
    b = make_basis_state((M1,), (1,), 8)
    out = superpose([(1.0, a), (0.0, b)])
    assert out.terms == {(0,): 1.0 + 0j}


def test_superpose_orthonormal_norm():
    c = 1 / math.sqrt(3)
    parts = [(c, make_basis_state((M1,), (n,), 8)) for n in range(3)]
    out = superpose(parts)
    assert out.norm() == pytest.approx(1.0, abs=1e-14)


def test_superpose_merges_duplicates():
    a = make_basis_state((M1,), (0,), 8)
    out = superpose([(1 / math.sqrt(2), a), (1 / math.sqrt(2), a)])
    assert len(out.terms) == 1
    assert out.amplitude((0,)) == pytest.approx(math.sqrt(2))


def test_superpose_mode_mismatch():
    a = make_basis_state((M1,), (0,), 8)
    b = make_basis_state((M2,), (0,), 8)
    with pytest.raises(ModeMismatchError):
        superpose([(1.0, a), (1.0, b)])


def test_tensor_basis():
    a = make_basis_state((M1,), (1,), 8)
    b = vacuum_state((M2, M3), 8)
    out = tensor(a, b)
    assert out.modes == (M1, M2, M3)
    assert out.amplitude((1, 0, 0)) == 1


def test_tensor_distributes():
    alpha, beta = 0.6, 0.8
    a = superpose(
        [
            (alpha, make_basis_state((M1,), (0,), 8)),
            (beta, make_basis_state((M1,), (1,), 8)),
        ]
    )
    out = tensor(a, vacuum_state((M2, M3), 8))
    assert len(out.terms) == 2
    assert out.amplitude((0, 0, 0)) == pytest.approx(alpha)
    assert out.amplitude((1, 0, 0)) == pytest.approx(beta)


def test_tensor_shared_mode_rejected():
    with pytest.raises(ModeMismatchError):
        tensor(vacuum_state((M1,), 8), vacuum_state((M1, M2), 8))


def test_inner_product_basics():
    zero = make_basis_state((M1,), (0,), 8)
    one = make_basis_state((M1,), (1,), 8)
    assert inner_product(zero, zero) == 1
    assert inner_product(zero, one) == 0


def test_inner_product_conjugate_linear_in_first():
    a = superpose([(1j, make_basis_state((M1,), (0,), 8))])
    b = make_basis_state((M1,), (0,), 8)
    assert inner_product(a, b) == pytest.approx(-1j)
    assert inner_product(b, a) == pytest.approx(1j)


def test_tmsv_truncated_norm_is_geometric_sum():
    # <TMSV|TMSV> at cutoff N equals sum_{n<=N} (1-g) g^n = 1 - g^(N+1)
    gamma, cutoff = 0.4, 12
    vac = vacuum_state((M2, M3), cutoff)
    tmsv = apply_two_mode_squeezer(vac, SqueezerSpec(M2, M3, gamma))
    expected = sum((1 - gamma) * gamma**n for n in range(cutoff + 1))
    assert expected == pytest.approx(1 - gamma ** (cutoff + 1), abs=1e-15)
    assert inner_product(tmsv, tmsv).real == pytest.approx(expected, abs=1e-13)


def test_normalize_idempotent():
    a = make_basis_state((M1,), (0,), 8)
    out, n = normalize(a)
    assert n == 1.0
    assert out.terms == a.terms


def test_normalize_scales():
    a = superpose([(2.0, make_basis_state((M1,), (0,), 8))])
    out, n = normalize(a)
    assert n == pytest.approx(2.0)
    assert out.amplitude((0,)) == pytest.approx(1.0)


def test_normalize_zero_state():
    zero = PureState((M1,), {}, 8)
    with pytest.raises(ZeroNormError):
        normalize(zero)


def test_canonical_mode_ordering():
    hi, lo = ModeLabel(2, "V"), ModeLabel(2, "H")
    st_ = PureState((hi, lo), {(1, 0): 1.0}, 4)
    assert st_.modes == (lo, hi)
    assert st_.amplitude((0, 1)) == 1  # occupation permuted with the labels


def test_pruning_feeds_leaked_norm():
    st_ = PureState((M1,), {(0,): 1.0, (1,): 1e-9}, 8)
    assert (1,) not in st_.terms
    assert st_.leaked_norm == pytest.approx(1e-18)


# (cutoff + 1) ** n_modes must fit an int64 term key, 2**63 - 1
TWO_MODE_MAX_CUTOFF = 3037000498  # 3037000499**2 < 2**63 - 1 < 3037000500**2


def test_key_space_limit_on_cutoff():
    top = TWO_MODE_MAX_CUTOFF
    PureState((M1, M2), {(0, 0): 1.0}, top)
    with pytest.raises(FockError, match="term-key space"):
        PureState((M1, M2), {(0, 0): 1.0}, top + 1)


def test_key_space_limit_on_mode_count():
    modes = tuple(ModeLabel(p) for p in range(63))
    assert vacuum_state(modes[:62], 1).norm() == 1.0  # 2**62 keys
    with pytest.raises(FockError, match="term-key space"):
        vacuum_state(modes, 1)  # 2**63 keys


def test_distinct_terms_at_key_space_edge_stay_distinct():
    top = TWO_MODE_MAX_CUTOFF
    a = PureState((M1, M2), {(top, top): 0.6, (top, 0): 0.8}, top)
    b = PureState((M1, M2), {(top, top - 1): 1.0, (0, top): 1.0}, top)
    out = superpose([(1.0, a), (1.0, b)])
    assert out.terms == {
        (0, top): 1.0, (top, 0): 0.8, (top, top - 1): 1.0, (top, top): 0.6
    }
    assert inner_product(a, out) == pytest.approx(1.0)


def test_non_integer_occupation_rejected():
    with pytest.raises(FockError):
        PureState((M1,), {(1.5,): 1.0}, 8)


def test_serialization_roundtrip():
    st_ = superpose(
        [
            (0.6, make_basis_state((M1, M2), (0, 1), 8)),
            (0.8j, make_basis_state((M1, M2), (2, 0), 8)),
        ]
    )
    data = json.loads(st_.to_json())
    assert data["modes"] == [{"path": 1, "pol": None}, {"path": 2, "pol": None}]
    occs = [t["occ"] for t in data["terms"]]
    assert occs == sorted(occs)
    back = PureState.from_json(st_.to_json())
    assert back.terms == st_.terms
    assert back.cutoff == st_.cutoff


@st.composite
def weighted_basis_terms(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    out = []
    for _ in range(n):
        occ = draw(st.integers(min_value=0, max_value=4))
        re = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        im = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        out.append((complex(re, im), occ))
    return out


@given(weighted_basis_terms())
@settings(max_examples=60, deadline=None)
def test_superpose_order_independent(entries):
    parts = [(c, make_basis_state((M1,), (occ,), 8)) for c, occ in entries]
    fwd = superpose(parts)
    rev = superpose(list(reversed(parts)))
    for occ in set(fwd.terms) | set(rev.terms):
        assert abs(fwd.amplitude(occ) - rev.amplitude(occ)) < 1e-10


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_tensor_inner_product_factorizes(na, nb, nc, nd):
    a = make_basis_state((M1,), (na,), 8)
    b = make_basis_state((M2,), (nb,), 8)
    c = make_basis_state((M1,), (nc,), 8)
    d = make_basis_state((M2,), (nd,), 8)
    lhs = inner_product(tensor(a, b), tensor(c, d))
    rhs = inner_product(a, c) * inner_product(b, d)
    assert abs(lhs - rhs) < 1e-12


# -- the mapping constructor's contract ------------------------------------------


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "terms, want",
    [
        # a term's entries are checked in order: the bound fires before the sign
        ({(5, -1): 1.0}, (CutoffExceededError, "occupation (5, -1) exceeds cutoff 4")),
        ({(-1, 5): 1.0}, (FockError, "negative occupation in (-1, 5)")),
        ({(1,): 1.0}, (ModeMismatchError, "occupation (1,) has length 1, expected 2")),
        ({(1.0, 0): 1.0}, (FockError, "occupation (1.0, 0) is not a tuple of integers")),
        ({(1.5,): 1.0}, (FockError, "occupation (1.5,) is not a tuple of integers")),
        ({(2**70, 0): 1.0}, (CutoffExceededError, f"occupation ({2**70}, 0) exceeds cutoff 4")),
        ({(0, -(2**70)): 1.0}, (FockError, f"negative occupation in (0, {-(2**70)})")),
        # several bad terms: the first one in insertion order is named
        ({(0, 0): 1.0, (9, 0): 1.0, (-1, 0): 1.0},
         (CutoffExceededError, "occupation (9, 0) exceeds cutoff 4")),
        ({(-1, 0): 1.0, (9, 0): 1.0}, (FockError, "negative occupation in (-1, 0)")),
        ({(9, 0): 1.0, (1.5, 0): 1.0}, (CutoffExceededError, "occupation (9, 0) exceeds cutoff 4")),
        ({(1.5, 0): 1.0, (9, 0): 1.0},
         (FockError, "occupation (1.5, 0) is not a tuple of integers")),
        ({(9, 0): 1.0, (1,): 1.0}, (CutoffExceededError, "occupation (9, 0) exceeds cutoff 4")),
        ({(0, 0): 1.0, (1,): 1.0, (9, 0): 1.0},
         (ModeMismatchError, "occupation (1,) has length 1, expected 2")),
        # an amplitude is converted after its own occupation is checked
        ({(9, 0): None}, (CutoffExceededError, "occupation (9, 0) exceeds cutoff 4")),
        ({(0, 0): None, (9, 0): 1.0}, _raised(complex, None)),
    ],
)
def test_constructor_names_the_first_bad_term(terms, want):
    assert _raised(PureState, (M1, M2), terms, 4) == want


@pytest.mark.parametrize(
    "terms, want",
    [
        ({(1, 2, 3): 1.0}, (ModeMismatchError, "occupation (1, 2, 3) has length 3, expected 2")),
        ({(1,): 1.0}, (ModeMismatchError, "occupation (1,) has length 1, expected 2")),
        ({(5, 0): 1.0}, (CutoffExceededError, "occupation (5, 0) exceeds cutoff 4")),
        ({(5, -1): 1.0}, (CutoffExceededError, "occupation (5, -1) exceeds cutoff 4")),
        ({(-1, 5): 1.0}, (FockError, "negative occupation in (-1, 5)")),
        ({(0, 0): 1.0, (1.5, 0): 1.0},
         (FockError, "occupation (1.5, 0) is not a tuple of integers")),
    ],
)
def test_constructor_checks_terms_in_the_callers_mode_order(terms, want):
    # modes given as (2, 1): each term is checked as written, then reordered
    assert _raised(PureState, (M2, M1), terms, 4) == want


def test_constructor_reorders_checked_terms_to_canonical_modes():
    st_ = PureState((M2, M1), {(1, 2): 0.6, (2, 0): 0.8j}, 4)
    assert st_.modes == (M1, M2)
    assert st_.terms == {(0, 2): 0.8j, (2, 1): 0.6}


def test_constructor_accepts_integer_like_occupations():
    st_ = PureState((M1, M2), {(True, 0): 1.0}, 4)
    assert st_.terms == {(1, 0): 1.0}
    assert st_.occupations.dtype == np.int64


def _pruned_ledger_terms():
    return {
        (4,): 1.4167695923015321e-09,
        (3,): 8.40485062198488e-09,
        (2,): 7.584991265970817e-09,
        (1,): 2.5996764522463326e-09,
        (0,): 1.0,
    }


def test_pruned_terms_join_the_ledger_as_one_sum_in_key_order():
    # onto the incoming ledger as one pairwise sum of the pruned terms in row
    # order, as the kernels add theirs; adding them one by one in insertion
    # order gives 0.000495435087092078
    st_ = PureState((M1,), _pruned_ledger_terms(), 8, 0.000495435087091941)
    assert repr(st_.leaked_norm) == "0.0004954350870920779"
    assert st_.terms == {(0,): 1.0}
    data = {
        "modes": [{"path": 1, "pol": None}],
        "cutoff": 8,
        "leaked_norm": 0.000495435087091941,
        "terms": [{"occ": list(occ), "re": a, "im": 0.0} for occ, a in _pruned_ledger_terms().items()],
    }
    back = PureState.from_dict(data)
    assert repr(back.leaked_norm) == "0.0004954350870920779"
    assert back.terms == {(0,): 1.0}


@pytest.mark.parametrize("cutoff", [3.5, 2.9, 3.0, None, "3"])
def test_constructor_rejects_a_non_integer_cutoff(cutoff):
    with pytest.raises(FockError, match=r"cutoff must be an integer, got "):
        PureState((M1,), {(2,): 1.0}, cutoff)


def test_constructor_accepts_integer_like_cutoffs():
    assert PureState((M1,), {(2,): 1.0}, np.int64(3)).cutoff == 3
    assert type(PureState((M1,), {(1,): 1.0}, np.int64(3)).cutoff) is int


# widths around numpy's pairwise-sum blocks (8 terms, 128 per recursion leaf)
WIDTHS = st.one_of(st.sampled_from([0, 7, 8, 9, 128, 129, 256]), st.integers(0, 300))
LAYOUTS = st.sampled_from(["C", "F", "sliced"])


def _matrix(seed, rows, cols, layout, cplx):
    """Random values over six decades, laid out C-ordered, F-ordered or as a strided slice."""
    rng = np.random.default_rng(seed)
    shape = (rows, 2 * cols + 1) if layout == "sliced" else (rows, cols)

    def part():
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)

    values = part() + 1j * part() if cplx else part()
    if layout == "sliced":
        return values[:, 1::2]
    return np.asfortranarray(values) if layout == "F" else values


@given(st.integers(0, 2**32 - 1), st.integers(0, 40), WIDTHS, LAYOUTS, st.booleans())
@settings(max_examples=200, deadline=None)
def test_row_sums_round_as_one_sum_per_row(seed, rows, cols, layout, cplx):
    values = _matrix(seed, rows, cols, layout, cplx)
    want = np.array([values[b].copy().sum() for b in range(rows)], dtype=values.dtype)
    assert _row_sums(values, None).tobytes() == want.tobytes()
    support = np.random.default_rng(seed + 1).random(values.shape) < 0.7
    want = np.array([values[b][support[b]].sum() for b in range(rows)], dtype=values.dtype)
    assert _row_sums(values, support).tobytes() == want.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(0, 40), WIDTHS, LAYOUTS)
@settings(max_examples=200, deadline=None)
def test_overlaps_round_as_one_product_and_sum_per_state(seed, rows, cols, layout):
    amps = _matrix(seed, rows, cols, layout, True)
    batch = StateBatch.__new__(StateBatch)
    batch._set((M1,), np.arange(cols, dtype=np.int64)[:, None], amps, cols, np.zeros(rows), None)
    rng = np.random.default_rng(seed + 1)
    picked = np.sort(rng.permutation(cols + 4)[:rng.integers(0, cols + 5)])
    b = PureState((M1,), {(int(k),): complex(*rng.normal(size=2)) for k in picked}, cols + 4)
    shared = picked[picked < cols]
    amp_b = np.array([b.amplitude((k,)) for k in shared.tolist()], dtype=complex)
    want = [complex((amps[i].take(shared).conj() * amp_b).sum()) for i in range(rows)]
    assert np.array(_overlaps(batch, b)).tobytes() == np.array(want, dtype=complex).tobytes()
