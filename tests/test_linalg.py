import ast
import itertools
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tmat
from tmat import (
    ConvergenceError,
    FamilyDescriptor,
    ParamSpec,
    Rational64,
    RationalOverflowError,
    SingularMatrixError,
    UnsupportedOperationError,
    cond1,
    construct,
    determinant,
    eigvals,
    entry_sum,
    frobenius_norm,
    inverse,
    is_diagonal,
    is_posdef,
    is_symmetric,
    materialize,
    rank,
    register_family,
    solve,
    spectral_moduli,
)
from tmat import linalg
from tmat.core import DenseMatrix
from tmat.families import feasible_size, get_family
from tmat.linalg import (
    _bandwidths,
    _bareiss,
    _charpoly,
    _float_rows,
    as_dense,
    dense_is_diagonal,
    dense_is_posdef,
    dense_is_symmetric,
    det_dense,
    inverse_dense,
    is_exact_identity,
    jacobi_eigvals,
    matmul_dense,
    max_abs_identity_residual,
    ql_eigvals,
    rank_dense,
    solve_dense,
)
from tmat.scalars import INT64_MAX, INT64_MIN, from_int

from oracles import (
    cofactor_det,
    frac_rows,
    naive_diagonal,
    naive_symmetric,
    to_fraction,
)

ALL_FAMILIES = tuple(tmat.list_families())

# frozen from the exact cofactor oracle below (test_determinant_oracle_values)
HILBERT_DETS = {
    1: Fraction(1),
    2: Fraction(1, 12),
    3: Fraction(1, 2160),
    4: Fraction(1, 6048000),
    5: Fraction(1, 266716800000),
}


def test_determinant_oracle_values():
    for n, expected in HILBERT_DETS.items():
        assert cofactor_det(frac_rows(construct("hilbert", n=n))) == expected


@pytest.mark.parametrize("n", sorted(HILBERT_DETS))
def test_hilbert_determinants_exact(n):
    d = determinant(construct("hilbert", n=n))
    assert isinstance(d, Rational64)
    assert d.as_fraction() == HILBERT_DETS[n]


def test_hilbert_determinant_float_value():
    d = determinant(construct("hilbert", n=3, scalar_kind=tmat.FLOAT64))
    assert abs(d - 0.000462962962962963) <= 1e-18


def test_determinant_examples():
    assert determinant(construct("pascal", n=5)) == 1
    assert determinant(construct("jordbloc", n=3, lam=0)) == 0.0
    # pascal's closed det agrees with the generic LU fallback
    assert det_dense(materialize(construct("pascal", n=5))) == 1


def test_determinant_requires_square():
    with pytest.raises(UnsupportedOperationError):
        determinant(construct("hilbert", m=2, n=3))


def test_rational_overflow_advises_float():
    with pytest.raises(RationalOverflowError, match="float64"):
        determinant(construct("hilbert", n=7))
    # float64 succeeds on the same instance
    d = determinant(construct("hilbert", n=7, scalar_kind=tmat.FLOAT64))
    assert d == pytest.approx(4.8358e-25, rel=1e-3)


def test_inverse_hilbert_returns_lazy_handle():
    inv = inverse(construct("hilbert", n=3))
    assert isinstance(inv, tmat.MatrixHandle)
    assert inv.family == "inversehilbert"
    assert [[int(v) for v in row] for row in materialize(inv).to_rows()] == [
        [9, -36, 30],
        [-36, 192, -180],
        [30, -180, 180],
    ]
    back = inverse(inv)
    assert back.family == "hilbert"


def test_inverse_pei_formula():
    h = construct("pei", n=3, alpha=1)
    inv = as_dense(inverse(h))
    assert to_fraction(inv.get(1, 1)) == Fraction(3, 4)
    assert to_fraction(inv.get(1, 2)) == Fraction(-1, 4)
    assert is_exact_identity(matmul_dense(materialize(h), inv))


def test_inverse_forsythe_structure():
    inv = as_dense(inverse(construct("forsythe", n=3, alpha=1e-10, lam=0)))
    assert inv.get(1, 3) == 1e10
    assert inv.get(2, 1) == 1.0
    assert inv.get(3, 2) == 1.0
    assert inv.get(1, 1) == 0.0
    # nonzero shift has no closed form; the generic fallback still inverts
    h = construct("forsythe", n=3, alpha=1e-3, lam=1)
    product = matmul_dense(materialize(h), as_dense(inverse(h)))
    assert max_abs_identity_residual(product) <= 1e-10


def test_inverse_singular_sumij():
    from tmat.sumij import install_sumij

    install_sumij()
    with pytest.raises(SingularMatrixError):
        inverse(construct("sumij", n=3))
    assert rank(construct("sumij", n=5)) == 2


def test_generic_exact_inverse_lotkin():
    h = construct("lotkin", n=4)
    product = matmul_dense(materialize(h), as_dense(inverse(h)))
    assert is_exact_identity(product)


def test_eigvals_examples():
    assert eigvals(construct("minij", n=1)) == pytest.approx([1.0], abs=1e-12)
    golden = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    assert eigvals(construct("minij", n=2)) == pytest.approx(golden, abs=1e-12)
    assert eigvals(construct("poisson", n=2)) == pytest.approx([2, 4, 4, 6], abs=1e-12)


def test_eigvals_ql_fallback_for_wilkinson():
    h = construct("wilkinson", n=5)
    vals = eigvals(h)
    assert len(vals) == 5
    rows = _float_rows(h)
    trace = sum(rows[i][i] for i in range(5))
    assert sum(vals) == pytest.approx(trace, abs=1e-10)
    assert math.prod(vals) == pytest.approx(det_dense(materialize(h)), abs=1e-8)
    for n in (5, 21, 60):  # W21+ has pairs equal to about 1e-14
        h = construct("wilkinson", n=n)
        oracle = jacobi_eigvals(_float_rows(h))
        assert max(abs(a - b) for a, b in zip(eigvals(h), oracle)) <= 1e-10 * frobenius_norm(h)


def test_eigvals_nonsymmetric_without_closed_form_rejected():
    with pytest.raises(UnsupportedOperationError):
        eigvals(construct("grcar", n=4))


def test_forsythe_complex_spectrum():
    h = construct("forsythe", n=4, alpha=1e-8, lam=0)
    vals = eigvals(h)
    assert len(vals) == 4
    assert all(abs(abs(v) - 1e-2) <= 1e-12 for v in vals)
    moduli = spectral_moduli(h)
    assert len(moduli) == 1
    assert moduli[0][1] == 4
    assert moduli[0][0] == pytest.approx(1e-2, rel=1e-9)


def test_frobenius_norm_values():
    assert frobenius_norm(construct("hilbert", n=3)) == pytest.approx(
        1.413624183909335, abs=1e-12
    )
    assert frobenius_norm(construct("jordbloc", n=3, lam=0)) == pytest.approx(
        math.sqrt(2), abs=1e-15
    )
    assert frobenius_norm(construct("hilbert", m=0, n=0)) == 0.0


def test_predicate_triple_hilbert():
    h = construct("hilbert", n=3)
    assert (is_diagonal(h), is_posdef(h), is_symmetric(h)) == (False, True, True)


def test_predicates_on_rectangular():
    h = construct("hilbert", m=2, n=5)
    assert not is_symmetric(h)
    assert not is_posdef(h)
    assert not is_diagonal(h)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_predicate_soundness_vs_scan(family, n):
    h = construct(family, n=n)
    rows = frac_rows(h)
    assert is_symmetric(h) == naive_symmetric(rows)
    assert is_diagonal(h) == naive_diagonal(rows)
    d = materialize(h)
    assert dense_is_symmetric(d) == naive_symmetric(rows)
    assert dense_is_diagonal(d) == naive_diagonal(rows)


@pytest.mark.parametrize("family, name", [("pei", "alpha"), ("kms", "rho"), ("moler", "alpha")])
@pytest.mark.parametrize("kind", [tmat.FLOAT64, tmat.RATIONAL64])
def test_symmetric_predicate_soundness_at_random_parameters(family, name, kind):
    rng = random.Random(f"{family} {kind}")
    for _ in range(25):
        if kind == tmat.RATIONAL64:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            value = rng.uniform(-3.0, 3.0)
        h = construct(family, {"n": rng.randint(1, 8), name: value}, scalar_kind=kind)
        assert is_symmetric(h) == naive_symmetric(frac_rows(h))
        assert is_symmetric(h) == dense_is_symmetric(materialize(h))


def test_posdef_scan_fallback():
    assert is_posdef(construct("lehmer", n=5))
    assert not is_posdef(construct("grcar", n=4))
    assert not is_posdef(construct("jordbloc", n=3, lam=0))
    assert not is_posdef(construct("clement", n=4))


def test_solve_examples():
    assert solve(construct("pei", n=2, alpha=1), [3, 3]) == [1, 1]
    h = construct("hilbert", n=3)
    x = [Rational64(1), Rational64(2), Rational64(3)]
    d = materialize(h)
    rhs = [
        sum((d.get(i, j) * x[j - 1] for j in range(1, 4)), Rational64(0))
        for i in range(1, 4)
    ]
    assert solve(h, rhs) == x
    with pytest.raises(SingularMatrixError):
        solve(construct("jordbloc", n=2, lam=0), [1, 1])


def test_float_singular_message_names_its_bound():
    # pascal(300) is unimodular, but its Frobenius norm puts the bound of
    # column 1, whose entries are all 1, at 4.5e165
    h = construct("pascal", n=300, scalar_kind=tmat.FLOAT64)
    assert determinant(h) == 1.0
    with pytest.raises(SingularMatrixError) as info:
        solve(h, [1.0] * 300)
    assert str(info.value) == (
        "matrix is singular to working precision "
        "(no pivot in column 1 above 1e-13 * ||A||_F = 4.5e+165)"
    )


def test_rank_examples():
    assert rank(construct("hilbert", n=4)) == 4
    assert rank(construct("hilbert", m=2, n=5)) == 2
    assert rank(construct("jordbloc", n=3, lam=0)) == 2


def test_float_pivot_bounds_at_forsythe_n2():
    # ||A||_F = 1.0 exactly: rank needs a pivot above 1e-10 * ||A||_F, while
    # det and solve take any nonzero pivot of at least 1e-13 * ||A||_F
    assert rank(construct("forsythe", n=2, alpha=1e-10)) == 1
    h = construct("forsythe", n=2, alpha=1e-13)
    assert det_dense(materialize(h)) == -1e-13
    assert solve(h, [1.0, 1.0]) == [1e13, 1.0]


NAN = float("nan")


@pytest.mark.parametrize(
    "rows",
    [
        [[NAN]],
        [[0.0, 1.0], [NAN, 0.0]],  # forsythe n = 2, alpha = nan
        [[1.0, 2.0], [3.0, NAN]],
        [[1.0, 0.0, 0.0], [0.0, NAN, 0.0], [0.0, 0.0, 1.0]],
    ],
)
def test_rank_with_nan_entries_agrees_with_det(rows):
    d = DenseMatrix.from_rows(rows, tmat.FLOAT64)
    assert (rank_dense(d) == d.rows) == (det_dense(d) != 0.0)


INF = float("inf")


# outcomes of det_dense, rank_dense, solve_dense (rhs of ones) and
# inverse_dense rows; None stands for SingularMatrixError. In every case
# ||A||_F is NaN or inf, so both pivot bounds reject every finite pivot; an
# infinite one passes both when ||A||_F is inf
@pytest.mark.parametrize(
    "rows, det, rank, x, inv",
    [
        ([[NAN]], 0.0, 0, None, None),
        ([[INF]], INF, 1, [0.0], [[0.0]]),
        ([[-INF]], -INF, 1, [0.0], [[0.0]]),
        ([[1.0, NAN], [2.0, 3.0]], 0.0, 0, None, None),
        ([[1.0, INF], [2.0, 3.0]], 0.0, 1, None, None),
        ([[NAN, INF], [2.0, 3.0]], 0.0, 1, None, None),  # fsum of squares NaN, hypot inf
        ([[INF, 0.0], [0.0, 1.0]], 0.0, 1, None, None),
        ([[INF, 1.0], [1.0, NAN]], 0.0, 1, None, None),
        ([[1e200, -INF, 0.0], [NAN, 1.0, 1e200], [0.0, 2.0, 3.0]], 0.0, 1, None, None),
        ([[INF, 0.0], [0.0, INF]], INF, 2, [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]]),
        ([[INF, 0.0], [0.0, -INF]], -INF, 2, [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]]),
        ([[1e300, INF], [0.0, 1e300]], 0.0, 1, None, None),
    ],
)
def test_lu_outcomes_on_non_finite_entries(rows, det, rank, x, inv):
    d = DenseMatrix.from_rows(rows, tmat.FLOAT64)
    assert det_dense(d) == det
    assert rank_dense(d) == rank
    for op, want in ((lambda: solve_dense(d, [1.0] * d.rows), x),
                     (lambda: inverse_dense(d).to_rows(), inv)):
        if want is None:
            with pytest.raises(SingularMatrixError):
                op()
        else:
            assert op() == want


def _exact_norm(values) -> Decimal:
    square = sum((Fraction(v) ** 2 for v in values), Fraction(0))
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()


@pytest.mark.parametrize("family", ["hilbert", "kms", "lehmer", "cauchy", "frank"])
def test_frobenius_norm_within_one_ulp_of_the_exact_norm(family):
    for n in range(1, 30):
        h = construct(family, n=n, scalar_kind=tmat.FLOAT64)
        norm = frobenius_norm(h)
        exact = _exact_norm(materialize(h).data)
        assert abs(Decimal(norm) - exact) <= Decimal(math.ulp(norm)), (n, norm, exact)


def test_dense_scans_on_nan_entries():
    # one NaN object at (1, 2) and (2, 1): a list comparison, which tests
    # identity before ==, would call it equal to itself
    d = DenseMatrix.from_rows([[1.0, NAN], [NAN, 1.0]], tmat.FLOAT64)
    assert d.data[1] is d.data[2]
    assert not dense_is_symmetric(d)
    assert not dense_is_diagonal(d)
    # a NaN on the diagonal is compared with nothing
    d = DenseMatrix.from_rows([[NAN, -0.0], [0.0, NAN]], tmat.FLOAT64)
    assert dense_is_symmetric(d)
    assert dense_is_diagonal(d)
    for rows in ([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]):
        assert dense_is_diagonal(DenseMatrix.from_rows(rows, tmat.FLOAT64))
        rows[-1][-1] = NAN
        assert not dense_is_diagonal(DenseMatrix.from_rows(rows, tmat.FLOAT64))


def test_cond1():
    assert cond1(construct("hilbert", n=6)) > 1e6
    assert cond1(construct("hilbert", n=4)) > 1e4
    assert cond1(construct("jordbloc", n=3, lam=0)) == float("inf")
    assert cond1(construct("hilbert", n=1)) == 1.0
    with pytest.raises(UnsupportedOperationError):  # no closed inverse: LU is capped
        cond1(construct("lotkin", n=100))


@pytest.mark.parametrize(
    "family, params",
    [("kms", {"rho": 1.7e308}), ("triw", {"alpha": 1.7e308}), ("forsythe", {"alpha": 1.7e308, "lam": 1.7e308})],
)
@pytest.mark.parametrize("n", [2, 3, 8])
def test_cond1_of_entries_near_the_float_range_returns_or_refuses(family, params, n):
    # a column sum beyond the float range is inf, not fsum's OverflowError
    try:
        assert isinstance(cond1(construct(family, n=n, scalar_kind=tmat.FLOAT64, **params)), float)
    except tmat.TmatError:
        pass


def test_closed_determinants_beyond_the_float_range_are_signed_inf():
    jordbloc = construct("jordbloc", n=2, lam=1e300, scalar_kind=tmat.FLOAT64)
    assert determinant(jordbloc) == math.inf
    assert determinant(construct("jordbloc", n=3, lam=-1e300, scalar_kind=tmat.FLOAT64)) == -math.inf


def test_pei_determinant_beyond_the_float_range_is_signed_inf():
    # alpha^(n-1) (alpha + n)
    assert determinant(construct("pei", n=3, alpha=1e300, scalar_kind=tmat.FLOAT64)) == math.inf
    assert determinant(construct("pei", n=3, alpha=-1e300, scalar_kind=tmat.FLOAT64)) == -math.inf
    assert determinant(construct("pei", n=4, alpha=-1e300, scalar_kind=tmat.FLOAT64)) == math.inf


def test_forsythe_eigvals_with_an_infinite_corner():
    # n = 1: the one entry lambda + alpha; n >= 2: |alpha|^(1/n) is beyond range
    assert eigvals(construct("forsythe", n=1, alpha=math.inf, scalar_kind=tmat.FLOAT64)) == [math.inf]
    for alpha in (math.inf, -math.inf):
        with pytest.raises(UnsupportedOperationError, match="eigvals of forsythe"):
            eigvals(construct("forsythe", n=2, alpha=alpha, scalar_kind=tmat.FLOAT64))


def test_entry_sum():
    assert entry_sum(construct("minij", n=3)) == 14
    assert entry_sum(construct("kms", n=2)) == pytest.approx(3.0)


def _exact_float_sum(values):
    """The correctly rounded sum of finite floats, +-inf beyond the float range."""
    total = sum(map(Fraction, values), Fraction(0))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(1e306, 1.7e308) | st.floats(-1.7e308, -1e306), min_size=1, max_size=6))
def test_float_entry_sum_beyond_the_float_range_is_the_exact_sum(big):
    # cauchy with y = (0,) has the entries 1 / x_i
    h = construct("cauchy", x=tuple(1 / v for v in big), y=(0.0,), scalar_kind=tmat.FLOAT64)
    values = materialize(h).data
    assert entry_sum(h) == _exact_float_sum(values)


@pytest.mark.parametrize(
    "x, want",
    [
        ((0.6e-308, 0.6e-308), math.inf),
        ((-0.6e-308, -0.6e-308), -math.inf),
        # 1/x = (1.67e308, 1.67e308, -1.67e308, -1.43e308): cancels back into range
        ((0.6e-308, 0.6e-308, -0.6e-308, -0.7e-308), 2.380952380952375e307),
    ],
)
def test_float_entry_sum_where_fsum_overflows(x, want):
    h = construct("cauchy", x=x, y=(0.0,), scalar_kind=tmat.FLOAT64)
    values = materialize(h).data
    with pytest.raises(OverflowError):
        math.fsum(values)
    assert entry_sum(h) == want == _exact_float_sum(values)


def test_float_entry_sum_with_infinite_entries_is_the_float_sum():
    # rho**2 overflows: +-inf entries next to finite ones whose partial sums overflow
    h = construct("kms", n=40, rho=-1.7e308, scalar_kind=tmat.FLOAT64)
    assert math.isnan(entry_sum(h))
    h = construct("kms", n=3, rho=1.7e308, scalar_kind=tmat.FLOAT64)
    assert entry_sum(h) == math.inf


def _frac_product(a_rows, b_rows):
    return [
        [sum((Fraction(*x.as_integer_ratio()) * Fraction(*y.as_integer_ratio())
              for x, y in zip(row, col)), Fraction(0)) for col in zip(*b_rows)]
        for row in a_rows
    ]


def _rational_dense(rows, ncols):
    return DenseMatrix(len(rows), ncols, [row[j] for j in range(ncols) for row in rows],
                       tmat.RATIONAL64)


def test_rational_matmul_checks_only_the_product():
    big = 2**62
    a = _rational_dense([[Rational64(big), Rational64(big), Rational64(-big)]], 3)
    ones = _rational_dense([[Rational64(1)]] * 3, 1)
    assert matmul_dense(a, ones).data == [Rational64(big)]
    a = _rational_dense([[Rational64(big), Rational64(big)]], 2)
    with pytest.raises(RationalOverflowError, match=r"^matmul: .* use scalar kind float64"):
        matmul_dense(a, _rational_dense([[Rational64(1)]] * 2, 1))


@st.composite
def rational_factors(draw):
    """(a_rows, b_rows, (m, k, n)): an m x k and a k x n rational64 matrix, with
    small entries or entries whose products and sums may leave 64 bits."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    if draw(st.booleans()):
        entries = st.builds(Rational64, st.integers(-20, 20), st.integers(1, 20))
    else:
        entries = st.builds(Rational64, st.integers(-(2**62), 2**62), st.integers(1, 2**40))
    a_rows = [[draw(entries) for _ in range(k)] for _ in range(m)]
    b_rows = [[draw(entries) for _ in range(n)] for _ in range(k)]
    return a_rows, b_rows, (m, k, n)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rational_factors())
def test_rational_matmul_matches_a_fraction_product(ab):
    a_rows, b_rows, (m, k, n) = ab
    a, b = _rational_dense(a_rows, k), _rational_dense(b_rows, n)
    want = _frac_product(a_rows, b_rows) if k else [[Fraction(0)] * n for _ in range(m)]
    fits = all(
        INT64_MIN <= v.numerator <= INT64_MAX >= v.denominator for row in want for v in row
    )
    if not fits:
        with pytest.raises(RationalOverflowError, match="^matmul: "):
            matmul_dense(a, b)
        return
    got = matmul_dense(a, b)
    assert got.dims == (m, n)
    assert all(type(v) is Rational64 for v in got.data)
    assert [[got.get(i + 1, j + 1).as_fraction() for j in range(n)] for i in range(m)] == want


# -- dispatch equivalence (closed forms vs generic fallbacks) -------------------

CLOSED_DET = [
    f for f in ALL_FAMILIES if "closed_det" in get_family(f).descriptor.capabilities
]
CLOSED_INV = [
    f for f in ALL_FAMILIES if "closed_inverse" in get_family(f).descriptor.capabilities
]
SYMMETRIC_CLOSED_EIG = ["minij", "pei", "poisson"]


@pytest.mark.parametrize("family", CLOSED_DET)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dispatch_equivalence_det(family, n):
    h = construct(family, n=n)
    try:
        closed = determinant(h)
    except RationalOverflowError:
        # the value itself exceeds rational64 (cauchy at n = 6); both routes
        # must agree on that, and the float64 twins must agree on the value
        with pytest.raises(RationalOverflowError):
            det_dense(materialize(h))
        h = construct(family, n=n, scalar_kind=tmat.FLOAT64)
        closed = determinant(h)
        generic = det_dense(materialize(h))
        assert abs(closed - generic) <= 1e-10 * max(1.0, abs(generic))
        return
    generic = det_dense(materialize(h))
    if isinstance(closed, Rational64):
        assert closed == generic
    else:
        scale = max(1.0, abs(generic))
        assert abs(closed - generic) <= 1e-10 * scale


@pytest.mark.parametrize("family", CLOSED_INV)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dispatch_equivalence_inverse(family, n):
    h = construct(family, n=n)
    closed = as_dense(inverse(h))
    generic = inverse_dense(materialize(h))
    if h.scalar_kind == tmat.RATIONAL64:
        assert closed.to_rows() == generic.to_rows()
    else:
        worst = max(
            abs(closed.get(i, j) - generic.get(i, j))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
        assert worst <= 1e-10 * max(1.0, frobenius_norm(h))


@pytest.mark.parametrize("family", SYMMETRIC_CLOSED_EIG)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dispatch_equivalence_eigvals(family, n):
    if family == "poisson" and n > 2:
        n = 2  # grid parameter: dimension n^2 stays within the size budget
    h = construct(family, n=n)
    closed = sorted(float(v) for v in eigvals(h))
    generic = jacobi_eigvals(_float_rows(h))
    assert max(abs(a - b) for a, b in zip(closed, generic)) <= 1e-10


# -- Jacobi correctness on random symmetric matrices ----------------------------


def test_jacobi_random_symmetric_identities():
    rng = random.Random(20240817)
    for _ in range(50):
        n = rng.randint(1, 10)
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.uniform(-1, 1)
                rows[i][j] = rows[j][i] = v
        vals = jacobi_eigvals(rows)
        dense = DenseMatrix.from_rows(rows, tmat.FLOAT64)
        det = det_dense(dense)
        trace = sum(rows[i][i] for i in range(n))
        assert abs(det - math.prod(vals)) <= 1e-8 * max(1.0, abs(det))
        assert abs(trace - sum(vals)) <= 1e-10


def test_jacobi_scales_out_of_the_overflow_range():
    rows = _float_rows(construct("wilkinson", n=5))
    huge = [[math.ldexp(v, 900) for v in row] for row in rows]
    assert jacobi_eigvals(huge) == [math.ldexp(v, 900) for v in jacobi_eigvals(rows)]
    assert jacobi_eigvals([[1e308, 1e308], [1e308, 1e308]]) == [0.0, math.inf]


@pytest.mark.parametrize("family, params", [("kms", {"rho": 1e100}), ("moler", {"alpha": 1e110})])
def test_jacobi_eigvals_of_huge_entries(family, params):
    # kms entries are rho ** |i - j|: 1e100 ** 39 is beyond the float range, 1e7 ** 39 = 1e273 is not
    for n, p in ((3, params), (40, {"rho": 1e7} if family == "kms" else params)):
        h = construct(family, n=n, scalar_kind=tmat.FLOAT64, **p)
        vals = eigvals(h)
        assert all(math.isfinite(v) for v in vals)
        trace = math.fsum(tmat.element(h, i, i) for i in range(1, n + 1))
        assert abs(sum(vals) - trace) <= 1e-12 * max(map(abs, vals))


# -- implicit QL on symmetric tridiagonal matrices ----------------------------------


def _tridiagonal_rows(diag, sub):
    n = len(diag)
    rows = [[0.0] * n for _ in range(n)]
    for i, v in enumerate(diag):
        rows[i][i] = v
    for i, v in enumerate(sub):
        rows[i + 1][i] = rows[i][i + 1] = v
    return rows


def _frob(rows):
    return math.sqrt(math.fsum(v * v for row in rows for v in row))


def _normal_both_ways(values, shift):
    """Every value and its 2**shift multiple are zero or normal floats, so
    scaling by 2**shift is exact in both directions."""
    return all(v == 0 or min(abs(v), abs(math.ldexp(v, shift))) >= sys.float_info.min for v in values)


def _agrees_with_jacobi(vals, oracle, rows):
    worst = max((abs(a - b) for a, b in zip(vals, oracle)), default=0.0)
    return len(vals) == len(oracle) and worst <= 1e-10 * max(1.0, _frob(rows))


@settings(max_examples=150, deadline=None)
@given(
    diag=st.lists(st.floats(-10, 10), max_size=12),
    data=st.data(),
    shift=st.sampled_from([0, 900, -900]),
)
def test_ql_agrees_with_jacobi_on_random_tridiagonals(diag, data, shift):
    n = len(diag)
    # zero off-diagonals split the problem into blocks
    entry = st.one_of(st.floats(-10, 10), st.just(0.0))
    sub = data.draw(st.lists(entry, min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    vals = ql_eigvals(diag, sub)
    rows = _tridiagonal_rows(diag, sub)
    assert vals == sorted(vals)
    assert max((abs(a - b) for a, b in zip(vals, jacobi_eigvals(rows))), default=0.0) <= (
        1e-10 * max(1.0, _frob(rows))
    )
    # the scaling is exact in the normal range, so a scaled matrix gives the scaled spectrum
    scaled = ql_eigvals([math.ldexp(v, shift) for v in diag], [math.ldexp(v, shift) for v in sub])
    if _normal_both_ways(diag + sub + vals, shift):
        assert scaled == [math.ldexp(v, shift) for v in vals]


def test_ql_small_and_overflowing_spectra():
    assert ql_eigvals([], []) == []
    assert ql_eigvals([3.0], []) == [3.0]
    assert ql_eigvals([1.0, 1.0], [1.0]) == pytest.approx([0.0, 2.0], abs=1e-15)
    assert ql_eigvals([2.0, 1.0], [0.0]) == [1.0, 2.0]
    low, high = ql_eigvals([1e308, 1e308], [1e308])
    assert high == math.inf and abs(low) <= 1e-10 * 1e308


@pytest.mark.parametrize(
    "diag, sub, want, tol",
    [
        # a subnormal coupling all but splits the matrix into two 2x2 blocks
        ([0.0] * 4, [8.0, 2.2250738585e-313, 1.0], [-8.0, -1.0, 1.0, 8.0], 1e-14),
        # scaled by 2**-997, each 1e-10 is subnormal; the exact small eigenvalues are 0 and
        # +-sqrt(2) * 1e-10
        ([1e300, 0.0, 0.0, 0.0], [1e-10] * 3, [0.0, 0.0, 0.0, 1e300], 2e-10),
    ],
)
def test_ql_deflates_subnormal_couplings(diag, sub, want, tol):
    rows = _tridiagonal_rows(diag, sub)
    vals = ql_eigvals(diag, sub)
    assert vals == pytest.approx(want, rel=1e-15, abs=tol)
    assert _agrees_with_jacobi(vals, jacobi_eigvals(rows), rows)


def _user_tridiagonal(diag):
    n = len(diag)
    register_family(
        FamilyDescriptor(id="usertri", params=(), default_scalar_kind=tmat.FLOAT64, tags=()),
        lambda p, i, j, k: diag[i - 1] if i == j else (1.0 if abs(i - j) == 1 else 0.0),
        dims_fn=lambda p: (n, n),
    )
    return construct("usertri")


def test_ql_on_a_nan_entry_raises_as_the_jacobi_route_did():
    h = _user_tridiagonal([1.0, math.nan, 2.0])
    assert is_symmetric(h)
    with pytest.raises(ConvergenceError):
        eigvals(h)
    with pytest.raises(ConvergenceError):
        jacobi_eigvals(_float_rows(h))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_raise_before_any_sweep_or_rotation(monkeypatch, bad):
    def never(*args):
        raise AssertionError("an eigensolver ran on a non-finite entry")

    for name in ("_jacobi_sweeps", "_tridiagonalize", "_implicit_ql"):
        monkeypatch.setattr(linalg, name, never)
    rows = _float_rows(construct("kms", n=20))
    rows[3][3] = bad
    with pytest.raises(ConvergenceError, match="need finite entries"):
        jacobi_eigvals(rows)
    with pytest.raises(ConvergenceError, match="need finite entries"):
        ql_eigvals([1.0, bad, 2.0], [1.0, 1.0])
    with pytest.raises(ConvergenceError, match="need finite entries"):
        eigvals(_user_symmetric(rows))  # not tridiagonal: the Householder route


def test_ql_iteration_limit(monkeypatch):
    monkeypatch.setattr(linalg, "QL_MAX_ITER", 0)
    with pytest.raises(ConvergenceError, match="0 iterations"):
        ql_eigvals([1.0, 2.0], [1.0])
    assert ql_eigvals([1.0, 2.0], [0.0]) == [1.0, 2.0]  # already diagonal: no iteration


def test_eigvals_routes_tridiagonal_to_ql_and_dense_through_householder(monkeypatch):
    calls = []
    for name in ("ql_eigvals", "_tridiagonalize", "_implicit_ql", "jacobi_eigvals", "_jacobi_sweeps"):
        solver = getattr(linalg, name)
        monkeypatch.setattr(
            linalg, name, lambda *args, _name=name, _solver=solver: calls.append(_name) or _solver(*args)
        )
    eigvals(construct("wilkinson", n=7))
    assert calls == ["ql_eigvals", "_implicit_ql"]
    calls.clear()
    eigvals(construct("kms", n=7))
    assert calls == ["_tridiagonalize", "_implicit_ql"]


_USER_IDS = itertools.count()


def _user_symmetric(rows):
    """The matrix rows as a newly registered float64 family."""
    fid = f"usersym{next(_USER_IDS)}"
    register_family(
        FamilyDescriptor(id=fid, params=(), default_scalar_kind=tmat.FLOAT64, tags=()),
        lambda p, i, j, k: rows[i - 1][j - 1],
        dims_fn=lambda p: (len(rows), len(rows)),
    )
    return construct(fid)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    zeroed=st.sets(st.integers(0, 11), max_size=4),
    shift=st.sampled_from([0, 900, -900]),
)
def test_householder_ql_agrees_with_jacobi_on_random_symmetric(n, seed, zeroed, shift):
    # entries come from a seeded generator: drawing up to 78 floats through hypothesis is slow
    rng = random.Random(seed)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if not {i, j} & zeroed and rng.random() < 0.8:  # zero rows, columns and entries
                rows[i][j] = rows[j][i] = rng.uniform(-10, 10)
    vals = eigvals(_user_symmetric(rows))
    assert vals == sorted(vals)
    assert _agrees_with_jacobi(vals, jacobi_eigvals(rows), rows)
    # the scaling is exact in the normal range, so a scaled matrix gives the scaled spectrum
    scaled = eigvals(_user_symmetric([[math.ldexp(v, shift) for v in row] for row in rows]))
    if _normal_both_ways([v for row in rows for v in row] + vals, shift):
        assert scaled == [math.ldexp(v, shift) for v in vals]


DENSE_SYMMETRIC = [
    f for f in ALL_FAMILIES
    if get_family(f).eigvals_fn is None
    and is_symmetric(h := construct(f, n=7))
    and _bandwidths(_float_rows(h))[1] > 1
]


@pytest.mark.parametrize("family", DENSE_SYMMETRIC)
def test_eigvals_of_builtin_dense_symmetric_agree_with_jacobi(family):
    for n in (0, 1, 2, 3, 7, 21, 40):
        rows = _float_rows(construct(family, n=n, scalar_kind=tmat.FLOAT64))
        oracle = jacobi_eigvals(rows)
        for kind in (tmat.FLOAT64, tmat.RATIONAL64):  # rational64 solves its float64 twin's rows
            assert _agrees_with_jacobi(eigvals(construct(family, n=n, scalar_kind=kind)), oracle, rows)


QL_ROUTED = [f for f in ALL_FAMILIES if get_family(f).eigvals_fn is None]


@pytest.mark.parametrize("family", QL_ROUTED)
@pytest.mark.parametrize("kind", [tmat.FLOAT64, tmat.RATIONAL64])
def test_ql_spectra_of_builtin_tridiagonals_agree_with_jacobi(family, kind):
    for n in (0, 1, 2, 3, 4, 7, 21, 60):
        try:
            h = construct(family, n=n, scalar_kind=kind)
        except tmat.TmatError:  # families with other parameters
            return
        rows = _float_rows(h)
        if not is_symmetric(h) or _bandwidths(rows)[1] > 1:
            continue
        vals = eigvals(h)
        assert max((abs(a - b) for a, b in zip(vals, jacobi_eigvals(rows))), default=0.0) <= (
            1e-10 * max(1.0, _frob(rows))
        )


@pytest.mark.parametrize(
    "rows",
    [
        [[1e-100, 1e200], [1e200, 1.0]],  # l_21 = 1e250: its square overflows
        [[1e308, 1e308], [1e308, 1e308]],
        [[math.nan]],
        [[1.0, 0.0], [0.0, math.nan]],
        [[math.inf, 1.0], [1.0, 1.0]],
    ],
)
def test_float_posdef_is_false_on_overflow_and_non_finite_entries(rows):
    assert dense_is_posdef(DenseMatrix.from_rows(rows, tmat.FLOAT64)) is False


@pytest.mark.parametrize("family, n, want", [("poisson", 30, True), ("wilkinson", 999, False)])
def test_float_posdef_of_a_large_band_matrix(family, n, want):
    # the leading-pivot pass stays inside the band: 900 and 999 rows in well under a second
    assert dense_is_posdef(materialize(construct(family, n=n, scalar_kind=tmat.FLOAT64))) is want


def _callers(name, keyword=None):
    """Names of the functions in the tmat package that call name (with keyword)."""
    found = []
    for path in sorted(Path(tmat.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == name
                    and (keyword is None or any(k.arg == keyword for k in node.keywords))
                ):
                    found.append(fn.name)
    return found


def test_one_posdef_decision_per_scalar_kind():
    # is_posdef's fallback, the posdef tag check and the predicate cross-check share it
    assert _callers("_lu_factor", "leading") == ["dense_is_posdef"]
    assert _callers("_bareiss", "leading") == ["dense_is_posdef"]


def test_lu_pivoting_deterministic_and_exact():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[Rational64(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        dense = DenseMatrix.from_rows(rows, tmat.RATIONAL64)
        got = det_dense(dense)
        want = cofactor_det([[to_fraction(v) for v in row] for row in rows])
        assert got.as_fraction() == want
        assert det_dense(dense).as_fraction() == want  # repeatable


# -- one sum for the lazy and the dense side ------------------------------------------


def _dense_row(values, kind):
    return DenseMatrix(1, len(values), list(values), kind)


def test_rational_dense_sum_checks_only_the_total():
    big = Rational64(2**62)
    d = _dense_row([big, big, -big], tmat.RATIONAL64)
    assert linalg.dense_sum(d) == big
    h = construct("companion", v=(-(2**62), -(2**62), 2**62), scalar_kind=tmat.RATIONAL64)
    assert materialize(h).data[2::3] == d.data  # the last row is -v
    assert entry_sum(h) == big + 2  # plus the two ones of the superdiagonal


def test_rational_dense_sum_beyond_64_bits_names_the_operation():
    big = Rational64(2**62)
    with pytest.raises(tmat.RationalOverflowError, match="dense_sum: .*float64"):
        linalg.dense_sum(_dense_row([big, big], tmat.RATIONAL64))


@pytest.mark.parametrize(
    "values, want",
    [
        ((1.7e308, 1.7e308, -1.7e308), 1.7e308),
        ((1.7e308, 1.7e308), math.inf),
        ((0.1, 0.2, 0.3), 0.6),
    ],
)
def test_float_dense_sum_of_finite_entries_is_the_exact_sum(values, want):
    assert linalg.dense_sum(_dense_row(values, tmat.FLOAT64)) == want == _exact_float_sum(values)


def test_float_dense_sum_with_infinite_entries_is_the_float_sum():
    assert math.isnan(linalg.dense_sum(_dense_row([math.inf, -math.inf], tmat.FLOAT64)))
    assert linalg.dense_sum(_dense_row([math.inf, 1.7e308, 1.7e308], tmat.FLOAT64)) == math.inf


@pytest.mark.parametrize(
    "family, params, kind",
    [
        ("kms", {"n": 40, "rho": -1.7e308}, tmat.FLOAT64),
        ("cauchy", {"x": (0.6e-308, 0.6e-308, -0.6e-308, -0.7e-308), "y": (0.0,)}, tmat.FLOAT64),
        ("lehmer", {"n": 30}, tmat.RATIONAL64),
        ("companion", {"v": (-(2**62), -(2**62), 2**62)}, tmat.RATIONAL64),
        ("poisson", {"n": 4}, tmat.FLOAT64),
    ],
)
def test_dense_sum_equals_entry_sum(family, params, kind):
    h = construct(family, params, scalar_kind=kind)
    lazy, dense = entry_sum(h), linalg.dense_sum(materialize(h))
    assert type(lazy) is type(dense)
    assert lazy == dense or (lazy != lazy and dense != dense)


# -- the exact characteristic polynomial -------------------------------------------

_CHARPOLY_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 0.5, -3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)  # 1e300 next to 1e-300 puts d, the lcm of the denominators, past 2^1000
_CHARPOLY_RATIONALS = st.builds(
    Rational64,
    st.integers(INT64_MIN + 1, INT64_MAX) | st.integers(-9, 9),
    st.integers(1, INT64_MAX) | st.integers(1, 9),
)


@pytest.mark.parametrize("n", range(7))
@settings(derandomize=True, max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_charpoly_matches_the_cofactor_oracle(n, data):
    entries = data.draw(st.sampled_from([_CHARPOLY_FLOATS, _CHARPOLY_RATIONALS]))
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    # det(tI - A) at n + 1 integer points fixes a polynomial of degree n
    c = _charpoly(rows)
    assert len(c) == n + 1 and c[n] == 1
    exact = [[to_fraction(v) for v in row] for row in rows]
    for t in range(-(n // 2), n + 1 - n // 2):
        shifted = [[(t if i == j else 0) - v for j, v in enumerate(row)] for i, row in enumerate(exact)]
        assert sum(ck * t**k for k, ck in enumerate(c)) == cofactor_det(shifted)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_charpoly_constant_term_is_the_signed_bareiss_determinant(family):
    for n in range(1, 17):
        size_params = feasible_size(family, n)
        if size_params is None:
            continue
        try:
            rows = materialize(construct(family, size_params)).to_rows()
        except RationalOverflowError:
            continue
        if len(rows) != len(rows[0]):
            continue
        assert _charpoly(rows)[0] == (-1) ** len(rows) * _bareiss(rows, len(rows))[3], (family, n)


# -- a registered routine may decline with None -------------------------------------


def _decline(h):
    return None


def _second_difference(fid, kind, tags=(), **routines):
    """tridiag(-1, 2, -1) of order n, registered as fid with the given routines; its n = 5 handle."""
    register_family(
        FamilyDescriptor(id=fid, params=(ParamSpec("n", "dim"),), default_scalar_kind=kind, tags=tags),
        lambda p, i, j, k: from_int(k, 2 if i == j else -(abs(i - j) == 1)),
        **routines,
    )
    return construct(fid, n=5)


@pytest.mark.parametrize("kind", [tmat.FLOAT64, tmat.RATIONAL64])
@pytest.mark.parametrize(
    "op, routines",
    [
        (determinant, {"det_fn": _decline}),
        (eigvals, {"eigvals_fn": _decline}),
        (inverse, {"inverse_fn": _decline}),
        (lambda h: solve(h, [1, 2, 3, 4, 5]), {"inverse_fn": _decline}),
        (is_symmetric, {"predicates": {"symmetric": _decline}}),
        (is_diagonal, {"predicates": {"diagonal": _decline}}),
        (is_posdef, {"predicates": {"posdef": _decline}}),
    ],
    ids=["determinant", "eigvals", "inverse", "solve", "is_symmetric", "is_diagonal", "is_posdef"],
)
def test_a_routine_answering_none_gets_the_generic_answer(op, routines, kind):
    want = op(_second_difference("plain", kind))
    assert want is not None
    assert op(_second_difference("declining", kind, **routines)) == want


def test_the_audit_defers_where_a_routine_declines():
    _second_difference(
        "declining", tmat.RATIONAL64, ("symmetric", "posdef", "eigen"),
        det_fn=_decline, eigvals_fn=_decline, predicates={"symmetric": _decline},
    )
    (report,) = tmat.audit("declining", [4])
    verdicts = {f.tag: f.verdict for f in report.findings}
    assert verdicts == {"symmetric": "pass", "posdef": "pass", "eigen": "not-checkable"}
