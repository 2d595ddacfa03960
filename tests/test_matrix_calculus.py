"""Matrix-level calculus: associated matrices, regularization, interleaving."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraext.errors import (
    BracketFailure,
    HypothesisViolated,
    MissingRow,
    SandwichUnverifiable,
)
from ultraext.matrix_calculus import (
    DEFAULT_XI,
    WeightMatrix,
    associated_matrix,
    interleave_matrix,
    lemma8_regularize,
    partnered,
    sandwich_H,
    sandwich_fit,
    sandwich_xi,
    strong_regularization,
    suffix_minimum,
)
from ultraext.seq_calculus import WeightSequence, counting_index
from ultraext.weight_functions import WeightFunction
from _reference import divided_matrix, gamma_doubling_check, matrix_from_json


def log_factorials(k_max: int) -> list[float]:
    return [math.lgamma(k + 1.0) for k in range(k_max + 1)]


def gevrey_matrix(k_max: int = 24) -> WeightMatrix:
    """Divided rows k! and (k!)^2, the worked example pair."""
    lg = log_factorials(k_max)
    return divided_matrix({1.0: lg, 2.0: [2 * v for v in lg]})


def interleave_oracle(log_values: np.ndarray) -> np.ndarray:
    """v_k = min_j s_j s_{k-j}, by direct enumeration over all splits."""
    n = len(log_values)
    out = np.empty(2 * n - 1)
    for k in range(2 * n - 1):
        lo = max(0, k - n + 1)
        out[k] = min(log_values[j] + log_values[k - j] for j in range(lo, min(k, n - 1) + 1))
    return out


# -- construction and validation -------------------------------------------


def test_matrix_validation_rejects_bad_input():
    lg = log_factorials(24)
    with pytest.raises(ValueError):
        divided_matrix({1.0: lg, 2.0: [0.5 * v for v in lg]})  # order flip
    with pytest.raises(ValueError):
        divided_matrix({1.0: [1.0] + lg[1:]})  # m_0 != 1
    with pytest.raises(ValueError):
        divided_matrix({1.0: lg[:10]})  # too short
    with pytest.raises(ValueError):
        divided_matrix({-1.0: lg})
    bad = list(lg)
    bad[5] = math.inf
    with pytest.raises(ValueError):
        divided_matrix({1.0: bad})
    with pytest.raises(ValueError, match="at least one row"):
        WeightMatrix({})
    with pytest.raises(ValueError, match="same order"):
        divided_matrix({1.0: lg, 2.0: [2 * v for v in log_factorials(30)]})


def test_matrix_stores_the_rows_it_is_given():
    rows = {xi: WeightSequence.factorial_power(xi, 24) for xi in (2.0, 1.0)}
    m = WeightMatrix(rows)
    assert m.xi_values == (1.0, 2.0)
    for xi, row in rows.items():
        assert m.row_sequence(xi) is row
        assert m.row_log(xi) is row._lv
        with pytest.raises(ValueError):
            m.row_log(xi)[0] = 1.0  # shared, so read-only


def test_missing_row_raises():
    m = gevrey_matrix()
    with pytest.raises(MissingRow):
        m.row_log(3.0)
    with pytest.raises(MissingRow):
        interleave_matrix(m, [2.0])  # needs the row at 4.0


def test_json_round_trip():
    m = gevrey_matrix()
    doc = m.to_json()
    back = matrix_from_json(doc)
    assert back.xi_values == m.xi_values
    for xi in m.xi_values:
        np.testing.assert_allclose(back.row_log(xi), m.row_log(xi), atol=1e-12)


# -- associated matrices ----------------------------------------------------


def test_associated_rows_match_closed_form():
    # normalized sqrt weight: full row exp(2k log(2 xi k / e) + 1/xi) once
    # the conjugate leaves its plateau, exactly 1 before
    S = associated_matrix(WeightFunction.power(0.5), k_max=40)
    for xi in (0.25, 1.0, 4.0):
        full = S.full_log_row(xi)
        k = np.arange(41, dtype=float)
        ref = np.zeros(41)
        active = xi * k >= 0.5
        ref[active] = 2 * k[active] * np.log(2 * xi * k[active] / math.e) + 1.0 / xi
        assert np.abs(full - ref).max() < 1e-6


def test_associated_example_value():
    S = associated_matrix(WeightFunction.power(0.5), k_max=16)
    got = math.exp(S.full_log_row(1.0)[2] - 1.0)  # strip the e^(1/xi) offset
    assert got == pytest.approx((4.0 / math.e) ** 4, rel=1e-6)


def test_associated_rows_start_at_one_and_grow_with_xi():
    S = associated_matrix(WeightFunction.log_power(2.0), k_max=32)
    prev = None
    for xi in S.xi_values:
        full = S.full_log_row(xi)
        assert full[0] == 0.0
        if prev is not None:
            assert np.all(full >= prev - 1e-9)
        prev = full


def test_associated_propagates_conjugate_failure():
    # log-power 1 normalizes to a linear reparametrization whose conjugate
    # is infinite beyond slope 1
    with pytest.raises(BracketFailure):
        associated_matrix(WeightFunction.log_power(1.0), k_max=32)
    with pytest.raises(ValueError):
        associated_matrix(WeightFunction.power(0.5), k_max=8)


def test_associated_matrix_solves_all_rows_in_one_conjugate_call(monkeypatch):
    from ultraext import matrix_calculus

    calls = []
    solver = matrix_calculus.young_conjugate_grid

    def counted(w, ys, *args, **kwargs):
        calls.append(np.shape(ys))
        return solver(w, ys, *args, **kwargs)

    monkeypatch.setattr(matrix_calculus, "young_conjugate_grid", counted)
    mat = associated_matrix(WeightFunction.power(0.5), (4.0, 0.5, 1.0), k_max=20)
    assert calls == [(3, 21)]
    assert mat.xi_values == (0.5, 1.0, 4.0)


# -- regularization and the sandwich ---------------------------------------


def test_regularized_rows_are_log_convex_minorants():
    S = associated_matrix(WeightFunction.power(0.5), k_max=100)
    Sb = strong_regularization(S)
    for xi in S.xi_values:
        seq = Sb.row_sequence(xi)
        assert seq.is_log_convex
        assert np.all(Sb.row_log(xi) <= S.row_log(xi) + 1e-12)
    # the small-xi row is genuinely non-convex on the conjugate plateau
    # (divided entries 1/k! there), so regularization must do real work
    assert not S.row_sequence(0.25).is_log_convex
    assert np.any(Sb.row_log(0.25) < S.row_log(0.25) - 1e-9)


def test_sandwich_fit_sqrt_matrix():
    S = associated_matrix(WeightFunction.power(0.5), k_max=100)
    Sb = strong_regularization(S)
    fit = sandwich_fit(S, Sb)
    assert fit.b == 2.0
    assert 1.0 <= fit.a_constant < 1.0 + 1e-9
    assert 1.0 <= fit.c_constant < 1.0 + 1e-9
    for xi, detail in fit.per_xi.items():
        lo = S.row_log(xi / 2.0)
        hi = Sb.row_log(2.0 * xi)
        k = np.arange(len(lo))
        assert np.all(lo - math.log(detail["a"]) <= Sb.row_log(xi) + 1e-9)
        assert np.all(S.row_log(xi) <= k * math.log(detail["c"]) + hi + 1e-9)


def test_sandwich_unverifiable_for_collapsing_hull():
    # deep dips drag the minorant far below every comparison row, with a
    # deficit growing linearly in k, so no index shift can absorb it
    K = 64
    a = np.arange(K + 1, dtype=float) ** 2
    for dip in (7, 15, 29, 61):
        a[dip] = 0.0
    rows = {xi: xi * a for xi in DEFAULT_XI}
    bad = divided_matrix(rows)
    reg = strong_regularization(bad)
    assert reg.row_sequence(1.0).is_log_convex
    with pytest.raises(SandwichUnverifiable):
        sandwich_fit(bad, reg)


def test_sandwich_fit_without_partnered_rows_names_the_grid():
    # No xi of {1, 2} has both xi/b and b*xi stored: that is a missing
    # row, not a sandwich verdict.
    m = gevrey_matrix()
    assert sandwich_xi(m.xi_values) == {2.0: [], 4.0: []}
    with pytest.raises(MissingRow, match=r"no xi of the grid \[1\.0, 2\.0\] has both xi/b and b\*xi"):
        sandwich_fit(m, strong_regularization(m))


def test_partnered_reads_the_grid_as_a_set():
    grid = [4.0, 0.25, 1.0, 1.0, 0.5]
    assert partnered(grid, 0.5, 2.0) == [0.5]
    assert partnered(grid, 0.25, 4.0) == [1.0]
    assert partnered(grid, 2.0) == [0.25, 0.5]
    assert partnered(grid) == [0.25, 0.5, 1.0, 4.0]
    assert sandwich_xi(grid) == {2.0: [0.5], 4.0: [1.0]}


# -- interleaving -----------------------------------------------------------


def test_interleave_quotient_duplication_bit_identical():
    S = associated_matrix(WeightFunction.power(0.5), k_max=100)
    Sb = strong_regularization(S)
    V = interleave_matrix(Sb)
    assert V.xi_values == (0.25, 0.5, 1.0, 2.0, 4.0)
    for xi in V.xi_values:
        lq_v = np.asarray(V.row_sequence(xi).log_quotients)
        lq_s = np.asarray(Sb.row_sequence(2.0 * xi).log_quotients)
        assert np.array_equal(lq_v, np.repeat(lq_s, 2))
        assert np.array_equal(lq_v[0::2], lq_v[1::2])
        assert V.row_sequence(xi).is_log_convex


def test_interleave_matches_enumeration_oracle():
    S = associated_matrix(WeightFunction.power(0.5), k_max=60)
    Sb = strong_regularization(S)
    V = interleave_matrix(Sb)
    for xi in (0.25, 1.0, 4.0):
        oracle = interleave_oracle(Sb.row_log(2.0 * xi))
        got = V.row_log(xi)[: len(oracle)]
        assert np.abs(got - oracle).max() < 1e-10


def test_interleave_gevrey_quotients_and_squares():
    Gb = strong_regularization(gevrey_matrix())
    V = interleave_matrix(Gb, [1.0])
    vq = np.exp(np.asarray(V.row_sequence(1.0).log_quotients))
    np.testing.assert_allclose(vq[:6], [1.0, 1.0, 4.0, 4.0, 9.0, 9.0], rtol=1e-12)
    lv_v = V.row_log(1.0)
    lv_s = Gb.row_log(2.0)
    assert np.abs(lv_v[0::2] - 2.0 * lv_s).max() < 1e-10
    assert lv_v[0] == 0.0
    assert lv_v[1] == pytest.approx(lv_s[1], abs=1e-15)


# -- counting-index doubling ------------------------------------------------


def test_gamma_doubling_frozen_values():
    Gb = strong_regularization(gevrey_matrix())
    V = interleave_matrix(Gb, [1.0])
    s2 = Gb.row_sequence(2.0)
    v1 = V.row_sequence(1.0)
    assert (counting_index(s2, 0.25), counting_index(v1, 0.25)) == (1, 2)
    assert (counting_index(s2, 1.0), counting_index(v1, 1.0)) == (0, 0)
    assert (counting_index(s2, 7.5), counting_index(v1, 7.5)) == (0, 0)
    assert (counting_index(s2, 0.01), counting_index(v1, 0.01)) == (9, 18)


def test_gamma_doubling_check_exact_on_grids():
    S = associated_matrix(WeightFunction.power(0.5), k_max=100)
    Sb = strong_regularization(S)
    V = interleave_matrix(Sb)
    # the reachable t range depends on the top quotient of the source row,
    # which scales with xi; stay above each row's cutoff
    for xi, t_min in ((0.25, 0.1), (1.0, 6e-3), (4.0, 5e-4)):
        ok, bad = gamma_doubling_check(Sb, V, xi, np.geomspace(t_min, 4.0, 48))
        assert ok and bad is None


def test_gamma_doubling_detects_mismatch():
    lg = log_factorials(24)
    Gb = strong_regularization(gevrey_matrix())
    cubes = divided_matrix(
        {1.0: [1.5 * v for v in lg], 2.0: [3.0 * v for v in lg]}
    )
    V3 = interleave_matrix(strong_regularization(cubes), [1.0])
    ok, bad = gamma_doubling_check(Gb, V3, 1.0, [0.25, 0.125])
    assert not ok
    assert bad == 0.125


def test_sandwich_H_fit_and_stability():
    S = associated_matrix(WeightFunction.power(0.5), k_max=220)
    Sb = strong_regularization(S)
    V = interleave_matrix(Sb)
    h50 = sandwich_H(Sb, V, 1.0, 50)
    h200 = sandwich_H(Sb, V, 1.0, 200)
    assert h50 >= 1.0
    assert abs(h200 - h50) <= 0.1 * h50
    # left chain with the fitted constant, right chain with H = 1
    k = np.arange(51)
    assert np.all(Sb.row_log(1.0)[:51] <= k * math.log(h50) + V.row_log(1.0)[:51] + 1e-9)
    assert np.all(V.row_log(1.0)[:51] <= Sb.row_log(2.0)[:51] + 1e-9)


# -- quotient repair --------------------------------------------------------


def test_suffix_minimum_frozen_example():
    np.testing.assert_array_equal(
        suffix_minimum([2.0, 1.5, 3.0]), np.array([1.5, 1.5, 3.0])
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=40))
def test_suffix_minimum_exact_properties(values):
    v = np.array(values)
    out = suffix_minimum(v)
    # every output is one of the stored inputs, bit for bit
    assert all(x in set(v.tolist()) for x in out.tolist())
    assert np.all(np.diff(out) >= 0.0) or len(out) == 1
    assert np.all(out <= v)
    np.testing.assert_array_equal(suffix_minimum(out), out)


def test_lemma8_frozen_example():
    mu = np.ones(4)
    nu = np.array([1.0, 2.0, 3.0, 9.0])  # nu_k/k = 2, 1.5, 3
    out = lemma8_regularize(mu, nu, c_bound=10.0)
    np.testing.assert_allclose(out, [1.0, 1.5, 3.0, 9.0], rtol=1e-15)


def test_lemma8_hypothesis_violations():
    nu = np.array([1.0, 2.0, 3.0, 9.0])
    with pytest.raises(HypothesisViolated):
        lemma8_regularize(np.ones(4), np.array([1.0, 3.0, 2.0, 9.0]), 10.0)
    with pytest.raises(HypothesisViolated):
        lemma8_regularize(np.array([1.0, 50.0, 1.0, 1.0]), nu, 2.0)
    with pytest.raises(HypothesisViolated):
        lemma8_regularize(np.array([0.5, 1.0, 1.0, 1.0]), nu, 10.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lemma8_postconditions(data):
    n = data.draw(st.integers(3, 24))
    steps = data.draw(
        st.lists(st.floats(0.0, 2.0), min_size=n - 1, max_size=n - 1)
    )
    nu = np.concatenate([[1.0], 1.0 + np.cumsum(steps)])
    k = np.arange(1, n, dtype=float)
    c = 4.0
    # largest mu allowed by the hypothesis, scaled into the interior
    cap = c * np.minimum.accumulate((nu[1:] / k)[::-1])[::-1] * k
    frac = data.draw(st.floats(0.1, 0.99))
    mu = np.concatenate([[1.0], frac * cap])
    out = lemma8_regularize(mu, nu, c_bound=c)
    assert np.all(out <= nu)
    assert np.all(mu <= c * out + 1e-9 * (1.0 + np.abs(mu).max()))
    ratios = out[1:] / k
    assert np.all(np.diff(ratios) >= -1e-15 * np.abs(ratios[:-1]))


# -- the conjugate chain across weights -------------------------------------


def test_regularized_conjugate_chain_for_dominating_weight():
    # sigma = kappa(omega) = 2 sqrt(t) dominates omega = sqrt(t); the
    # matrix of the bigger weight sits below the matrix of the smaller
    # one, and regularization only lowers it further
    W = associated_matrix(WeightFunction.power(0.5), k_max=80)
    S = associated_matrix(WeightFunction.power(0.5, scale=2.0), k_max=80)
    Sb = strong_regularization(S)
    for xi in W.xi_values:
        sb = Sb.row_log(xi)
        s = S.row_log(xi)
        w_row = W.row_log(xi)
        scale = 1.0 + np.abs(w_row).max()
        assert np.all(sb <= s + 1e-9 * scale)
        assert np.all(s <= w_row + 1e-9 * scale)
