"""Sequence-transform tests: brute-force oracles, frozen values, invariants."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraext.errors import (
    CountingIndexAtCutoff,
    InfimumAtCutoff,
    SupremumAtCutoff,
)
from ultraext.seq_calculus import (
    WeightSequence,
    associated_weight,
    counting_index,
    h_function,
    log_convex_minorant,
    log_h_function,
)

K = 64


def gevrey2(k_max: int = K) -> WeightSequence:
    return WeightSequence.factorial_power(2.0, k_max)


# -- independent oracles ------------------------------------------------


def oracle_associated(log_values, t):
    """Direct max over the stored range, plain Python floats."""
    lt = math.log(t)
    return max(k * lt - lv for k, lv in enumerate(log_values))


def oracle_h(log_values, t):
    lt = math.log(t)
    return math.exp(min(lv + k * lt for k, lv in enumerate(log_values)))


def oracle_counting(log_values, t):
    """Smallest argmin of m_k t^k: the h-characterization of the index."""
    lt = math.log(t)
    terms = [lv + k * lt for k, lv in enumerate(log_values)]
    return terms.index(min(terms))


def oracle_minorant_log(log_values, k):
    """sup_t t^k / exp(omega(t)) through the line-envelope kinks.

    omega as a function of log t is the upper envelope of the lines
    j*x - log m_j; the concave objective k*x - omega(x) attains its sup at
    an envelope kink, and every kink is an intersection of two lines, so
    enumerating all pairwise intersections is an exact oracle.
    """
    kinks = []
    n = len(log_values)
    for a in range(n):
        for b in range(a + 1, n):
            kinks.append((log_values[b] - log_values[a]) / (b - a))
    best = -math.inf
    for x in kinks:
        omega = max(j * x - lv for j, lv in enumerate(log_values))
        best = max(best, k * x - omega)
    return best


# -- frozen worked values ----------------------------------------------


def test_associated_weight_gevrey_at_4():
    m = gevrey2()
    got = associated_weight(m, 4.0)
    assert got == pytest.approx(math.log(4.0), rel=0, abs=1e-12)
    assert got == pytest.approx(oracle_associated(m.log_values, 4.0), abs=0)


def test_associated_weight_clamps_at_zero_for_small_t():
    m = gevrey2()
    assert associated_weight(m, 1e-6) == 0.0
    assert associated_weight(m, 0.5) == 0.0


def test_h_function_gevrey_quarter():
    m = gevrey2()
    assert h_function(m, 0.25) == pytest.approx(0.25, rel=1e-14)
    assert h_function(m, 0.0) == 0.0
    # settles at 1 for large t: every positive-k term dominates the k=0 term
    assert h_function(m, 2.0) == 1.0


def test_counting_index_frozen_values():
    m = gevrey2()
    assert counting_index(m, 0.25) == 1
    assert counting_index(m, 1.0) == 0
    assert counting_index(m, 0.01) == 9


def test_counting_index_matches_h_argmin_off_ties():
    m = gevrey2()
    for t in np.geomspace(0.011, 0.9, 37):
        t = float(t)
        assert counting_index(m, t) == oracle_counting(m.log_values, t)


def test_minorant_hull_example():
    # m = 1, 4, 4, 64, then extended log-convexly
    quot = [math.log(4.0), 0.0, math.log(16.0)]
    while len(quot) < 20:
        quot.append(quot[-1] + 1.0)
    m = WeightSequence.from_log_quotients(quot)
    assert not m.is_log_convex
    mm = log_convex_minorant(m)
    vals = mm.values()
    assert vals[1] == pytest.approx(2.0, rel=1e-14)
    assert vals[2] == pytest.approx(4.0, rel=0, abs=0)  # hull vertex keeps its value
    assert vals[3] == pytest.approx(64.0, rel=1e-14)


# -- cutoff guards ------------------------------------------------------


def test_supremum_cutoff_raises():
    m = gevrey2(20)
    with pytest.raises(SupremumAtCutoff):
        associated_weight(m, 1e9)  # t beyond the escape of a 20-term range


def test_infimum_cutoff_raises():
    m = gevrey2(20)
    with pytest.raises(InfimumAtCutoff):
        h_function(m, 1e-9)
    val, argmin = log_h_function(m, math.log(1e-9))
    assert argmin == 20  # low-level variant reports instead of raising


def test_counting_index_cutoff_raises():
    m = gevrey2(20)
    with pytest.raises(CountingIndexAtCutoff):
        counting_index(m, 1e-9)


# -- construction validation -------------------------------------------


def test_rejects_short_and_unnormalized_sequences():
    with pytest.raises(ValueError):
        WeightSequence.from_log_values([0.0] * 10)
    bad = [0.1] + [0.2 * k * k for k in range(1, 21)]
    with pytest.raises(ValueError):
        WeightSequence.from_log_values(bad)  # m_0 != 1


def test_rejects_non_escaping_sequence():
    with pytest.raises(ValueError):
        WeightSequence.from_log_values([0.0] * 21)  # m_k == 1 throughout


# -- identity suite on the canonical example ----------------------------


def test_duality_on_grid():
    m = gevrey2()
    for t in np.geomspace(1e-3, 50.0, 61):
        t = float(t)
        h = h_function(m, t)
        dual = math.exp(-associated_weight(m, 1.0 / t))
        assert abs(h - dual) <= 1e-12 * (1.0 + h)


def test_monotone_segment_exact_integer_arithmetic():
    """Products m_k t^k are nonincreasing up to the counting index, exactly.

    Checked with exact rational arithmetic: m_k = (k!)^2 and dyadic t leave
    no rounding slack at all.
    """
    m = gevrey2(40)
    for j in range(1, 11):
        t = Fraction(1, 2**j)
        gamma = counting_index(m, float(t))
        exact = [Fraction(math.factorial(k)) ** 2 * t**k for k in range(gamma + 1)]
        for k in range(gamma):
            assert exact[k] >= exact[k + 1]


def test_counting_index_monotone_in_t():
    m = gevrey2()
    ts = np.geomspace(0.011, 1.0, 64)
    gammas = [counting_index(m, float(t)) for t in ts]
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))


def test_associated_weight_monotone_and_convex_in_log_t():
    m = gevrey2()
    ts = np.geomspace(0.5, 30.0, 41)
    vals = [associated_weight(m, float(t)) for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    # convexity in log t: second differences on the uniform log grid
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert b <= (a + c) / 2 + 1e-9


# -- minorant invariants ------------------------------------------------


def _random_weight_sequence(draws) -> WeightSequence:
    """Valid, generically non-convex sequence from bounded draws."""
    lv = [0.0]
    for k in range(1, len(draws) + 1):
        lv.append(draws[k - 1] + 0.2 * k * k)
    return WeightSequence.from_log_values(lv)


@given(st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=24, max_size=24))
@settings(max_examples=120, deadline=None)
def test_minorant_invariants_random(draws):
    m = _random_weight_sequence(draws)
    mm = log_convex_minorant(m)
    # pointwise below, exactly
    assert all(a <= b for a, b in zip(mm.log_values, m.log_values))
    # quotient view nondecreasing, exactly
    assert all(a <= b for a, b in zip(mm.log_quotients, mm.log_quotients[1:]))
    assert mm.is_log_convex
    # idempotence, exactly (same object contents, bit for bit)
    assert log_convex_minorant(mm) == mm


@given(st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=24, max_size=24))
@settings(max_examples=60, deadline=None)
def test_minorant_matches_sup_formula_oracle(draws):
    m = _random_weight_sequence(draws)
    mm = log_convex_minorant(m)
    for k in range(1, m.order // 2 + 1):
        want = oracle_minorant_log(m.log_values, k)
        assert mm.log_values[k] == pytest.approx(want, abs=1e-8)


def test_minorant_of_convex_is_identity():
    m = gevrey2(24)
    assert log_convex_minorant(m) is m


@given(
    st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=24, max_size=24),
    st.floats(0.02, 5.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_duality_random(draws, t):
    m = _random_weight_sequence(draws)
    try:
        h = h_function(m, t)
        dual = math.exp(-associated_weight(m, 1.0 / t))
    except (InfimumAtCutoff, SupremumAtCutoff):
        return
    assert abs(h - dual) <= 1e-12 * (1.0 + h)
