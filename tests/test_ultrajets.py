"""Jet storage, Taylor and remainder arithmetic, and certificate fitting."""

import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraext._fitting import BOUNDED, GROWING, INCONCLUSIVE, libm_log_maxima, range_trend
from ultraext.errors import ConfigError, InconclusiveTrend, NotInClass, OrderOverflow
from ultraext.matrix_calculus import associated_matrix
from ultraext.ultrajets import (
    JetCertificate,
    TaylorPolynomial,
    UltraJet,
    _constraints,
    _largest_ratio,
    certify,
    polynomial_jet,
    remainder,
    taylor_poly,
    taylor_vectors,
)
from ultraext.weight_functions import WeightFunction
from ultraext.whitney_geometry import CompactSet1D
from _reference import polynomial_jet_rows, scaled, taylor_coeffs, taylor_degree

POINT = CompactSet1D.from_points([0.0])
PAIR = CompactSet1D.from_points([0.0, 0.5])


@pytest.fixture(scope="module")
def matrix():
    return associated_matrix(WeightFunction.power(0.5), k_max=64)


def gevrey_jet(matrix, xi=1.0, alpha_max=32):
    full = matrix.full_log_row(xi)
    row = tuple(math.exp(v) for v in full[: alpha_max + 1])
    return UltraJet(POINT, (0.0,), (row,))


def test_jet_validation():
    with pytest.raises(ValueError):
        UltraJet(POINT, (), ())
    with pytest.raises(ValueError):
        UltraJet(PAIR, (0.5, 0.0), ((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        UltraJet(PAIR, (0.0, 0.0), ((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        UltraJet(PAIR, (0.0, 0.5), ((1.0,),))
    with pytest.raises(ValueError):
        UltraJet(PAIR, (0.0, 0.5), ((1.0,), (1.0, 2.0)))
    with pytest.raises(ValueError):
        UltraJet(POINT, (0.0,), ((math.inf,),))
    with pytest.raises(ValueError):
        UltraJet(POINT, (0.25,), ((1.0,),))


def test_value_access_and_overflow():
    jet = UltraJet(POINT, (0.0,), ((3.0, -1.0, 5.0),))
    assert jet.alpha_max == 2
    assert jet.value(0.0, 1) == -1.0
    assert jet.row(0.0).tolist() == [3.0, -1.0, 5.0]
    with pytest.raises(OrderOverflow):
        jet.value(0.0, 3)
    with pytest.raises(ValueError):
        jet.value(0.5, 0)


def test_taylor_trivial_examples():
    jet = UltraJet(POINT, (0.0,), ((1.0, 2.0),))
    line = taylor_poly(jet, 0.0, 1)
    assert line(0.5) == 2.0
    assert taylor_degree(line) == 1
    assert taylor_coeffs(line) == (1.0, 2.0)
    constant = taylor_poly(jet, 0.0, 0)
    assert constant(123.0) == 1.0
    with pytest.raises(OrderOverflow):
        taylor_poly(jet, 0.0, 2)
    with pytest.raises(ValueError):
        TaylorPolynomial(0.0, ())


def test_taylor_reproduction_is_bit_exact():
    # factorial-squared values at awkward magnitudes survive the round trip
    row = tuple(math.exp(2.0 * math.lgamma(k + 1.0)) / 3.0 for k in range(9))
    jet = UltraJet(POINT, (0.0,), (row,))
    poly = taylor_poly(jet, 0.0, 8)
    for alpha in range(9):
        assert poly.derivative(alpha)(0.0) == row[alpha]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_taylor_reproduction_random_rows(data):
    n = data.draw(st.integers(1, 10))
    row = tuple(
        data.draw(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        )
        for _ in range(n)
    )
    jet = UltraJet(POINT, (0.0,), (row,))
    p = data.draw(st.integers(0, n - 1))
    poly = taylor_poly(jet, 0.0, p)
    for alpha in range(p + 1):
        assert poly.derivative(alpha)(0.0) == row[alpha]


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def taylor_and_argument(draw):
    degree = draw(st.integers(0, 40))
    center = draw(
        st.floats(-8.0, 8.0, allow_nan=False).filter(lambda c: c != 0.0)
    )
    derivs = tuple(draw(FINITE) for _ in range(degree + 1))
    y = draw(
        st.one_of(
            st.floats(-20.0, 20.0, allow_nan=False),
            st.integers(-20, 20),
            st.floats(-20.0, 20.0, allow_nan=False).map(np.float64),
        )
    )
    return TaylorPolynomial(center, derivs), y


@settings(max_examples=300, deadline=None)
@given(taylor_and_argument())
def test_scalar_taylor_matches_array_path_bitwise(case):
    poly, y = case
    row = taylor_vectors([poly], np.array([0]), np.array([y]), 0)[0]
    assert bits(poly(y)) == bits(float(row[0]))


@settings(max_examples=150, deadline=None)
@given(taylor_and_argument(), st.integers(0, 44))
def test_derivative_vector_matches_shifted_polynomials(case, order):
    poly, y = case
    vec = poly.derivatives(y, order)
    assert len(vec) == order + 1
    row = taylor_vectors([poly], np.array([0]), np.array([y]), order)[0].tolist()
    for b, v in enumerate(vec):
        assert bits(v) == bits(poly.derivative(b)(y))
        assert bits(v) == bits(row[b])


def test_derivative_equals_direct_construction():
    poly = TaylorPolynomial(0.5, (1.0, -2.0, 3.0, 0.25))
    assert poly.derivative(0) == poly
    assert poly.derivative(2) == TaylorPolynomial(0.5, (3.0, 0.25))
    assert poly.derivative(9) == TaylorPolynomial(0.5, (0.0,))
    with pytest.raises(ValueError):
        poly.derivative(-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_direct_construction_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        TaylorPolynomial(0.0, (1.0, bad))
    with pytest.raises(ValueError):
        TaylorPolynomial(1.0, (bad,))


def test_remainder_vanishes_on_polynomial_jets():
    # dyadic data keeps every step exact, so the zero is exact
    jet = polynomial_jet(PAIR, [0.0, 0.5], [1.0, -2.0, 3.0, 0.25], 8)
    for a, b in ((0.0, 0.5), (0.5, 0.0)):
        for k in range(3, 8):
            for alpha in range(k + 1):
                assert remainder(jet, a, b, k, alpha) == 0.0


def test_remainder_at_equal_points_is_zero():
    rng = np.random.default_rng(3)
    rows = tuple(tuple(rng.standard_normal(9)) for _ in range(2))
    jet = UltraJet(PAIR, (0.0, 0.5), rows)
    for k in range(8):
        for alpha in range(k + 1):
            assert remainder(jet, 0.5, 0.5, k, alpha) == 0.0


def test_remainder_matches_exp_taylor_tail():
    jet = UltraJet.from_function(PAIR, [0.0, 0.5], 12, lambda a, k: math.exp(a))
    for k in range(11):
        for alpha in range(k + 1):
            got = remainder(jet, 0.0, 0.5, k, alpha)
            tail = math.exp(0.5) - sum(
                0.5**m / math.factorial(m) for m in range(k - alpha + 1)
            )
            assert got == pytest.approx(tail, abs=1e-12)


def test_remainder_linear_in_the_jet():
    rng = np.random.default_rng(11)
    rows1 = tuple(tuple(rng.standard_normal(10)) for _ in range(2))
    rows2 = tuple(tuple(rng.standard_normal(10)) for _ in range(2))
    j1 = UltraJet(PAIR, (0.0, 0.5), rows1)
    j2 = UltraJet(PAIR, (0.0, 0.5), rows2)
    combined = UltraJet(
        PAIR,
        (0.0, 0.5),
        tuple(
            tuple(u + 3.0 * v for u, v in zip(r1, r2))
            for r1, r2 in zip(rows1, rows2)
        ),
    )
    for k in (2, 5, 8):
        for alpha in (0, 1, k):
            lhs = remainder(combined, 0.0, 0.5, k, alpha)
            rhs = remainder(j1, 0.0, 0.5, k, alpha) + 3.0 * remainder(
                j2, 0.0, 0.5, k, alpha
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    # scaling by a power of two is bit-exact
    assert remainder(scaled(j1, 2.0), 0.0, 0.5, 5, 2) == 2.0 * remainder(
        j1, 0.0, 0.5, 5, 2
    )


def test_polynomial_jet_derivatives():
    jet = polynomial_jet(PAIR, [0.0, 0.5], [1.0, 0.0, 1.0], 4)
    assert jet.value(0.5, 0) == 1.25
    assert jet.value(0.5, 1) == 1.0
    assert jet.value(0.5, 2) == 2.0
    assert jet.value(0.5, 3) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4, unique=True),
    st.lists(st.floats(-1e3, 1e3), max_size=8),
    st.integers(0, 12),
)
def test_polynomial_jet_rows_match_the_horner_loop_bitwise(points, coeffs, alpha_max):
    # polynomial_jet takes each row from the partition's power-basis rule;
    # the Horner loop and derivative rows it once ran are the oracle.
    jet = polynomial_jet(CompactSet1D.from_points(points), points, coeffs, alpha_max)
    want = polynomial_jet_rows(points, coeffs, alpha_max)
    assert [[v.hex() for v in row] for row in jet.rows] == [[v.hex() for v in row] for row in want]


def test_certify_zero_jet(matrix):
    cert = certify(UltraJet(POINT, (0.0,), ((0.0,) * 17,)), matrix)
    assert cert.c == 1.0 and cert.rho == 1.0
    assert cert.xi == matrix.xi_values[0]
    assert cert.rate_trend == BOUNDED


def test_certify_exact_row_jet_with_pinned_xi(matrix):
    cert = certify(gevrey_jet(matrix), matrix, xi=1.0)
    assert cert.c == 1.0
    assert cert.rho == 1.0
    assert cert.xi == 1.0
    assert cert.rate_trend == BOUNDED


def test_certify_defaults_to_smallest_passing_row(matrix):
    cert = certify(gevrey_jet(matrix), matrix)
    assert cert.xi == matrix.xi_values[0]
    # row ratio between xi = 1 and xi = 1/4 is geometric with rate 16
    assert cert.rho == 16.0
    assert cert.c == pytest.approx(1.0, rel=1e-9)
    assert cert.rate_trend == BOUNDED


def test_certify_scaling_leaves_rho_and_scales_c(matrix):
    base = certify(gevrey_jet(matrix), matrix)
    for c in (2.0, 4.0):
        cert = certify(scaled(gevrey_jet(matrix), c), matrix)
        assert cert.rho == base.rho
        assert cert.xi == base.xi
        assert cert.c == c * base.c


def test_certify_rejects_factorial_power_overgrowth(matrix):
    row = tuple(math.exp(5.0 * math.lgamma(k + 1.0)) for k in range(29))
    jet = UltraJet(POINT, (0.0,), (row,))
    with pytest.raises(NotInClass) as info:
        certify(jet, matrix)
    assert "growing" in str(info.value)


def test_certify_two_point_jet_margins(matrix):
    jet = UltraJet.from_function(PAIR, [0.0, 0.5], 12, lambda a, k: math.exp(a))
    cert = certify(jet, matrix)
    assert cert.c == pytest.approx(math.exp(0.5), rel=1e-12)
    assert cert.rho >= 1.0
    assert cert.rate_trend == BOUNDED


def ref_constraints(jet, matrix, xi):
    """The constraint rows with one remainder() call per (a, b, k, alpha)."""
    log_full = matrix.full_log_row(xi)
    log_div = matrix.row_log(xi)
    rows = []
    for alpha in range(jet.alpha_max + 1):
        lhs = max(abs(r[alpha]) for r in jet.rows)
        if lhs != 0.0:
            rest = float(log_full[alpha])
            rows.append((alpha, math.log(lhs) - rest, lhs, rest, "value"))
    for a in jet.base_points:
        for b in jet.base_points:
            if a == b:
                continue
            gap = math.log(abs(b - a))
            for k in range(jet.alpha_max):
                for alpha in range(k + 1):
                    lhs = abs(remainder(jet, a, b, k, alpha))
                    if lhs == 0.0:
                        continue
                    rest = (
                        math.lgamma(alpha + 1.0)
                        + float(log_div[k + 1])
                        + (k + 1 - alpha) * gap
                    )
                    rows.append((k + 1, math.log(lhs) - rest, lhs, rest, "remainder"))
    return rows


def ref_need_profile(rows, alpha_max):
    """Per power, the largest need of ref_constraints' rows, as certify took it."""
    prof = np.full(alpha_max + 1, -np.inf)
    for power, need, _, _, _ in rows:
        prof[power] = max(prof[power], need)
    return prof


def assert_columns_are_reference(jet, matrix, xi, family=None):
    """_constraints' columns and need profile against ref_constraints, bit for bit."""
    power, lhs, rest = _constraints(jet, matrix, xi)
    want = ref_constraints(jet, matrix, xi)
    if family is not None:
        # Value rows come first, one per order with a nonzero maximum.
        values = np.count_nonzero(np.abs(np.array(jet.rows)).max(axis=0))
        keep = slice(None, values) if family == "value" else slice(values, None)
        power, lhs, rest = power[keep], lhs[keep], rest[keep]
        want = [r for r in want if r[4] == family]
    assert power.tolist() == [r[0] for r in want]
    assert [v.hex() for v in lhs.tolist()] == [r[2].hex() for r in want]
    assert [v.hex() for v in rest.tolist()] == [r[3].hex() for r in want]
    got_prof = libm_log_maxima(lhs, rest, power, jet.alpha_max + 1)[1]
    want_prof = ref_need_profile(want, jet.alpha_max)
    assert [v.hex() for v in got_prof.tolist()] == [v.hex() for v in want_prof.tolist()]
    return want


# Inputs where numpy's float64 log rounded differently from libm's on one
# x86-64 build; on another build the test below still checks values.
LOG_SPLITS = [0.969198109122836, 0.8227465357681107, 2.1219619620691477, 5.927289139536661]


def exp_splits(sign):
    """x on a grid where numpy's exp exceeds (sign 1) or falls short of libm's
    e^x by an ulp, with e^x just above a power of two."""
    xs = np.arange(-600.0, 600.0, 0.0137)
    gap = np.exp(xs) - np.array([math.exp(x) for x in xs.tolist()])
    mant = np.frexp(np.exp(xs))[0]
    return xs[(np.sign(gap) == sign) & (mant < 0.6)][:20]


def test_libm_extremes_hold_where_numpy_rounds_the_other_way():
    # Each case pairs a row whose numpy and libm values sit on either side
    # of a second row's exact value, so picking the numpy extreme alone
    # gives the wrong row; the filter must keep both.
    x_up = exp_splits(1)
    if not x_up.size:
        pytest.skip("numpy's exp agrees with libm on the whole grid")
    one_below = 1.0 - 2.0**-53
    for x in x_up.tolist():  # numpy ratio 1 - 2^-52 < 1 - 2^-53 < libm ratio 1
        got = _largest_ratio(np.array([x, 0.0]), np.array([math.exp(x), one_below]))
        assert got == 1.0
    for v in LOG_SPLITS:
        exact, approx = math.log(v), float(np.log(v))
        rest = float(np.float32(exact))  # need = log v - rest cancels to few bits
        mid = 0.5 * ((exact - rest) + (approx - rest))
        prof = libm_log_maxima(np.array([v, 1.0]), np.array([rest, -mid]), np.array([1, 1]), 2)[1]
        assert prof.tolist() == [-math.inf, max(exact - rest, mid)]


def test_constraints_match_remainder_reference(matrix):
    triple = CompactSet1D.from_points([0.0, 0.23, 0.7])
    jet = UltraJet.from_function(
        triple, [0.0, 0.23, 0.7], 20, lambda a, k: math.cos(3.0 * a + k) * 1.5**k
    )
    for xi in (matrix.xi_values[0], 1.0):
        assert len(assert_columns_are_reference(jet, matrix, xi)) > 3 * 2 * 20


@st.composite
def small_jets(draw):
    """Jets of 1-5 points and orders 0-16; polynomial ones have exact-zero remainders."""
    alpha_max = draw(st.integers(0, 16))
    if draw(st.booleans()):
        dyadic = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
        pts = draw(st.lists(dyadic, min_size=1, max_size=5, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=4))
        return polynomial_jet(CompactSet1D.from_points(pts), pts, coeffs, alpha_max)
    anywhere = st.floats(-4.0, 4.0, allow_nan=False)
    pts = sorted(draw(st.lists(anywhere, min_size=1, max_size=5, unique=True)))
    rows = tuple(tuple(draw(FINITE) for _ in range(alpha_max + 1)) for _ in pts)
    return UltraJet(CompactSet1D.from_points(pts), tuple(pts), rows)


@settings(max_examples=80, deadline=None)
@given(small_jets(), st.sampled_from([0.25, 1.0, 8.0]))
def test_constraint_rows_match_remainder_reference_bitwise(matrix, jet, xi):
    assert_columns_are_reference(jet, matrix, xi)


def test_polynomial_jet_remainder_zeros_are_skipped(matrix):
    pts = [-1.0, 0.0, 0.5, 1.5]
    jet = polynomial_jet(CompactSet1D.from_points(pts), pts, [1.0, -2.0, 3.0, 1.0], 12)
    got = assert_columns_are_reference(jet, matrix, 1.0, family="remainder")
    assert got and all(r[0] <= 3 for r in got)  # every k >= 3 remainder is 0


def parent_rate_profile(rows, alpha_max):
    """The scalar rate profile certify used before the remainder table."""
    prof = ref_need_profile(rows, alpha_max)
    rates = np.zeros(alpha_max + 1)
    witness = (0, 0)
    running = 0.0
    for top in range(1, alpha_max + 1):
        if np.isfinite(prof[top]):
            for low in range(top):
                if not np.isfinite(prof[low]):
                    continue
                slope = (prof[top] - prof[low]) / (top - low)
                if slope > running:
                    running = slope
                    witness = (low, top)
        rates[top] = running
    return rates, witness


def parent_certify(jet, matrix, xi=None):
    """certify as it was with one Taylor evaluation per remainder.

    ref_constraints stands in for the old _constraints: both evaluate
    remainder() with the same operands, bit for bit.  Every log and exp
    is math's, one call per row.
    """
    grid = [2.0 ** (i / 4.0) for i in range(41)]
    failures = []
    for x in matrix.xi_values if xi is None else (float(xi),):
        rows = ref_constraints(jet, matrix, x)
        if not rows:
            return JetCertificate(1.0, 1.0, x, BOUNDED)
        rates, witness = parent_rate_profile(rows, jet.alpha_max)
        needed = float(rates[-1])
        if len(rates) >= 9:
            trend, growth = range_trend(np.exp(rates[1:] - rates.max()))
        else:
            trend, growth = INCONCLUSIVE, 1.0
        accept = trend == BOUNDED or len(rates) < 9
        snapped = next((g for g in grid if math.log(g) >= needed - 1e-12), None)
        if snapped is None:
            accept = False
            trend = GROWING
        if not accept:
            failures.append((x, trend, growth, witness, needed))
            continue
        log_rho = math.log(snapped)
        best_c = 0.0
        try:
            for power, _, lhs, rest, _ in rows:
                ratio = lhs / math.exp(rest + power * log_rho)
                if ratio > best_c:
                    best_c = ratio
            if best_c == math.inf:
                raise NotInClass(f"certificate constant overflows double precision at xi={x}")
        except OverflowError:
            raise NotInClass(
                f"a bound rho^k e^rest of the certificate overflows double precision at xi={x}"
            ) from None
        return JetCertificate(best_c, snapped, x, trend)
    worst = failures[-1]
    detail = (
        f"needed growth rate e^{worst[4]:.3f} per order keeps rising with the "
        f"truncation (trend {worst[1]}, last-window growth {worst[2]:.3f}); "
        f"steepest chord between orders {worst[3][0]} and {worst[3][1]} at xi={worst[0]}"
    )
    if any(f[1] == GROWING for f in failures):
        raise NotInClass(detail)
    raise InconclusiveTrend(detail)


def outcome(fn, *args):
    """Certificate fields as hex, or the error type and message."""
    try:
        cert = fn(*args)
    except (ValueError, OverflowError, NotInClass, InconclusiveTrend) as err:
        return type(err).__name__, str(err)
    fields = (cert.c, cert.rho, cert.xi)
    return (*map(float.hex, fields), cert.rate_trend)


def row_jet(matrix, xi, alpha_max, points=(0.0, 0.3, 0.7), scale=1.0):
    full = matrix.full_log_row(xi)
    return UltraJet.from_function(
        CompactSet1D.from_points(points),
        points,
        alpha_max,
        lambda a, k: scale * math.exp(full[k]) * math.cos(2.0 * a + k),
    )


@pytest.mark.parametrize(
    "xi, alpha_max, accepted_xi",
    [(1.0, 16, 2.0), (2.0, 12, 4.0), (4.0, 16, 8.0), (0.5, 12, 0.5), (1.0, 6, None)],
)
def test_certify_matches_the_per_remainder_certify_bitwise(matrix, xi, alpha_max, accepted_xi):
    jet = row_jet(matrix, xi, alpha_max)
    got = outcome(certify, jet, matrix)
    assert got == outcome(parent_certify, jet, matrix)
    if accepted_xi is not None:  # rows below accepted_xi were tried and refused
        assert got[2] == accepted_xi.hex()


@pytest.mark.parametrize("alpha_max", range(1, 9))
def test_certify_accepts_a_jet_too_short_to_judge(matrix, alpha_max):
    # Under nine truncation orders the rate profile holds fewer than eight
    # entries: no trend, and the first row tried accepts, saying so.
    jet = row_jet(matrix, 1.0, alpha_max)
    got = outcome(certify, jet, matrix)
    assert got == outcome(parent_certify, jet, matrix)
    assert (got[3] == INCONCLUSIVE) == (alpha_max < 8)
    if alpha_max < 8:
        assert got[2] == matrix.xi_values[0].hex()


def test_certify_not_in_class_message_matches_the_per_remainder_certify(matrix):
    jet = row_jet(matrix, 8.0, 16)
    with pytest.raises(NotInClass) as info:
        certify(jet, matrix)
    assert outcome(parent_certify, jet, matrix) == ("NotInClass", str(info.value))


def assert_certify_is_parent(jet, matrix, xi=None):
    """certify's outcome, with RuntimeWarning as an error, is parent_certify's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = outcome(lambda *args: certify(*args, xi=xi), jet, matrix)
    assert got == outcome(parent_certify, jet, matrix, xi)
    return got


@settings(max_examples=150, deadline=None)
@given(small_jets(), st.sampled_from([None, 0.25, 1.0, 8.0]))
def test_certify_matches_the_per_remainder_certify_on_random_jets(matrix, jet, xi):
    assert_certify_is_parent(jet, matrix, xi)


@pytest.mark.parametrize("points", [(0.0,), (0.0, 0.3, 0.7), (0.0, 0.23, 0.51, 0.7, 1.04)])
@pytest.mark.parametrize("row_xi", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("pinned", [False, True])
def test_certify_of_weight_row_jets_matches_the_per_remainder_certify(matrix, points, row_xi, pinned):
    # Every base point stores the weight row itself, so each value row has
    # lhs = e^rest up to rounding: at rho = 1 they all tie for C.
    full = matrix.full_log_row(row_xi)
    jet = UltraJet.from_function(
        CompactSet1D.from_points(points), points, 24, lambda a, k: math.exp(full[k])
    )
    got = assert_certify_is_parent(jet, matrix, row_xi if pinned else None)
    assert got[0] == 1.0.hex()  # C sits on the tie


@pytest.mark.parametrize("points", [(0.0, 0.3, 0.7), (0.0, 40.0), (-60.0, 0.0, 90.0), (0.0, 1e100)])
def test_certify_of_huge_jets_is_silent(matrix, points):
    # at |b - a| >= 40 the Horner terms overflow to inf, as in the scalar path
    jet = row_jet(matrix, 0.25, 16, points, scale=1e300 / math.exp(matrix.full_log_row(0.25)[16]))
    got = assert_certify_is_parent(jet, matrix)
    if max(points) - min(points) >= 40.0:
        assert got[0] == "NotInClass"


def test_certify_requires_long_enough_rows(matrix):
    jet = UltraJet(POINT, (0.0,), ((1.0,) * (matrix.order + 2),))
    with pytest.raises(OrderOverflow):
        certify(jet, matrix)


def test_jet_json_round_trip():
    jet = UltraJet.from_function(PAIR, [0.0, 0.5], 6, lambda a, k: a + k)
    doc = json.loads(json.dumps(jet.to_json()))
    assert UltraJet.from_json(doc) == jet
    doc["values"] = doc["values"][:-1]
    with pytest.raises(ValueError):
        UltraJet.from_json(doc)


JET_DOC = {"e": [[0.0, 0.0]], "alpha_max": 1, "values": [[0.0, 0, 1.0], [0.0, 1, 2.0]]}


@pytest.mark.parametrize(
    "edit, match",
    [
        # alpha_max 1.7 used to be truncated to 1.
        ({"alpha_max": 1.7}, "alpha_max"),
        ({"alpha_max": True}, "alpha_max"),
        # A second entry for (0.0, 1) used to overwrite the first.
        ({"values": [[0.0, 0, 1.0], [0.0, 1, 2.0], [0.0, 1, 5.0]]}, "repeat order 1"),
        ({"values": [[0.0, 0, True], [0.0, 1, 2.0]]}, "value"),
        ({"values": [[0.0, 0, "1.5"], [0.0, 1, 2.0]]}, "value"),
        ({"values": [["0", 0, 1.0], [0.0, 1, 2.0]]}, "point"),
        ({"values": [[0.0, 0.5, 1.0], [0.0, 1, 2.0]]}, "order"),
        ({"values": [[0.0, 0, 1.0], [0.0, 1]]}, "3-entry lists"),
        ({"values": [[0.0, 0, 1.0]]}, "orders 0 to 1"),
        ({"e": [[0.0, "0"]]}, "endpoint"),
        ({"e": [[0.0]]}, "2-entry lists"),
        ({"e": "0"}, "e must be a list"),
        ({"comment": "ignored before"}, r"unknown: \['comment'\]"),
    ],
)
def test_jet_json_is_read_strictly(edit, match):
    with pytest.raises(ConfigError, match=match):
        UltraJet.from_json({**JET_DOC, **edit})


def test_jet_json_takes_integral_floats_as_counts():
    doc = {**JET_DOC, "alpha_max": 1.0, "values": [[0.0, 0.0, 1.0], [0.0, 1, 2]]}
    assert UltraJet.from_json(doc) == UltraJet.from_json(JET_DOC)
    with pytest.raises(ConfigError, match=r"missing: \['values'\]"):
        UltraJet.from_json({"e": [[0.0, 0.0]], "alpha_max": 1})
