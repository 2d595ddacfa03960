"""Jet storage, Taylor and remainder arithmetic, and certificate fitting."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraext._fitting import BOUNDED
from ultraext.errors import NotInClass, OrderOverflow
from ultraext.matrix_calculus import associated_matrix
from ultraext.ultrajets import (
    TaylorPolynomial,
    UltraJet,
    _constraints,
    certify,
    polynomial_jet,
    remainder,
    taylor_poly,
)
from ultraext.weight_functions import WeightFunction
from ultraext.whitney_geometry import CompactSet1D

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
    assert line.degree == 1
    assert line.coeffs == (1.0, 2.0)
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
    assert bits(poly(y)) == bits(float(poly(np.array([y], dtype=float))[0]))


@settings(max_examples=150, deadline=None)
@given(taylor_and_argument(), st.integers(0, 44))
def test_derivative_vector_matches_shifted_polynomials(case, order):
    poly, y = case
    vec = poly.derivatives(y, order)
    assert len(vec) == order + 1
    for b, v in enumerate(vec):
        assert bits(v) == bits(poly.derivative(b)(y))
        assert bits(v) == bits(float(poly.derivative(b)(np.array([y]))[0]))


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
    assert remainder(j1.scaled(2.0), 0.0, 0.5, 5, 2) == 2.0 * remainder(
        j1, 0.0, 0.5, 5, 2
    )


def test_polynomial_jet_derivatives():
    jet = polynomial_jet(PAIR, [0.0, 0.5], [1.0, 0.0, 1.0], 4)
    assert jet.value(0.5, 0) == 1.25
    assert jet.value(0.5, 1) == 1.0
    assert jet.value(0.5, 2) == 2.0
    assert jet.value(0.5, 3) == 0.0


def test_certify_zero_jet(matrix):
    cert = certify(UltraJet(POINT, (0.0,), ((0.0,) * 17,)), matrix)
    assert cert.c == 1.0 and cert.rho == 1.0
    assert cert.xi == matrix.xi_values[0]
    assert math.isinf(cert.value_margin) and math.isinf(cert.remainder_margin)
    assert cert.rate_trend == BOUNDED


def test_certify_exact_row_jet_with_pinned_xi(matrix):
    cert = certify(gevrey_jet(matrix), matrix, xi=1.0)
    assert cert.c == 1.0
    assert cert.rho == 1.0
    assert cert.xi == 1.0
    assert cert.value_margin == 1.0
    assert math.isinf(cert.remainder_margin)  # single base point, no pairs
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
        scaled = certify(gevrey_jet(matrix).scaled(c), matrix)
        assert scaled.rho == base.rho
        assert scaled.xi == base.xi
        assert scaled.c == c * base.c


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
    assert cert.value_margin >= 1.0 - 1e-9
    assert math.isfinite(cert.remainder_margin)
    assert cert.remainder_margin >= 1.0 - 1e-9
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


def test_constraints_match_remainder_reference(matrix):
    triple = CompactSet1D.from_points([0.0, 0.23, 0.7])
    jet = UltraJet.from_function(
        triple, [0.0, 0.23, 0.7], 20, lambda a, k: math.cos(3.0 * a + k) * 1.5**k
    )
    for xi in (matrix.xi_values[0], 1.0):
        got = _constraints(jet, matrix, xi)
        want = ref_constraints(jet, matrix, xi)
        assert len(got) == len(want) > 3 * 2 * 20
        for g, w in zip(got, want):
            assert g[0] == w[0] and g[4] == w[4]
            assert [bits(v) for v in g[1:4]] == [bits(v) for v in w[1:4]]


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
