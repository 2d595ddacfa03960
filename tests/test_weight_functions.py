"""Weight-function tests: closed-form oracles, classifier verdicts, trends."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ultraext._fitting import BOUNDED, GROWING, INCONCLUSIVE, decade_trend, range_trend
from ultraext.errors import BracketFailure, ConfigError, DivergentTail, InconclusiveTrend
from ultraext.weight_functions import (
    WeightFunction,
    classify,
    equivalent,
    geometric_grid,
    kappa_transform_grid,
    weight_from_json,
    weight_to_json,
    young_conjugate_grid,
)


def conjugate_closed_form(y, exponent, scale=1.0):
    """Exact conjugate of the normalized power weight scale * t^exponent."""
    y = np.asarray(y, dtype=float)
    sa = scale * exponent
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (y / exponent) * (np.log(y / sa) - 1.0) + scale
    return np.where(y >= sa, val, 0.0)


# -- Young conjugate ----------------------------------------------------


def test_conjugate_frozen_values_sqrt():
    w = WeightFunction.power(0.5)
    assert young_conjugate_grid(w, [1.0])[0] == pytest.approx(2 * math.log(2) - 1, rel=1e-9)
    assert young_conjugate_grid(w, [2.0])[0] == pytest.approx(4 * math.log(4) - 3, rel=1e-9)
    assert young_conjugate_grid(w, [0.0])[0] == 0.0


@pytest.mark.parametrize("exponent,scale", [(0.5, 1.0), (0.3, 2.0), (0.8, 0.5)])
def test_conjugate_matches_closed_form(exponent, scale):
    w = WeightFunction.power(exponent, scale)
    ys = np.geomspace(1.0, 100.0, 25)
    got = young_conjugate_grid(w, ys)
    want = conjugate_closed_form(ys, exponent, scale)
    assert np.max(np.abs(got - want) / (1.0 + want)) < 1e-6


def test_conjugate_convex_and_nondecreasing():
    w = WeightFunction.power(0.5)
    ys = np.linspace(0.0, 40.0, 81)
    vals = young_conjugate_grid(w, ys)
    assert np.all(np.diff(vals) >= -1e-12)
    mid = vals[1:-1] - 0.5 * (vals[:-2] + vals[2:])
    assert np.max(mid) < 1e-9 * (1.0 + vals[-1])


def test_conjugate_vanishes_below_slope_threshold():
    # for scale*exponent = 1.5 the objective peaks at x = 0 until y reaches
    # 1.5; below that only rounding dust of the exp evaluation survives
    w = WeightFunction.power(0.5, scale=3.0)
    assert young_conjugate_grid(w, [1.0])[0] == pytest.approx(0.0, abs=1e-12)
    assert young_conjugate_grid(w, [1.4999])[0] == pytest.approx(0.0, abs=1e-12)
    assert young_conjugate_grid(w, [2.0])[0] > 0.01


def test_bracket_failure_for_linear_phi():
    # phi(x) = x for max(0, log t): the conjugate is infinite for y > 1
    w = WeightFunction.log_power(1.0)
    with pytest.raises(BracketFailure):
        young_conjugate_grid(w, [2.0])
    assert young_conjugate_grid(w, [0.5])[0] == 0.0


# The conjugate solver before it was batched: one call per y row, obj
# evaluated separately at each point.  Kept as the oracle of the batched
# solver, which must match it bit for bit.
def per_row_conjugate(w, y_values, max_exponent=512.0, iterations=100):
    ys = np.asarray(y_values, dtype=float)

    def obj(x):
        return x * ys - w.phi(x)

    hi = np.ones_like(ys)
    for _ in range(64):
        rising = obj(hi) - obj(0.5 * hi) > 1e-15 * (1.0 + np.abs(obj(hi)))
        rising &= hi <= max_exponent
        if not np.any(rising):
            break
        hi = np.where(rising, 2.0 * hi, hi)
    still = (hi > max_exponent) & (obj(hi) - obj(0.5 * hi) > 0.0)
    if np.any(still):
        y_bad = float(ys[np.nonzero(still)[0][0]])
        raise BracketFailure(
            f"conjugate maximizer exceeds x = {max_exponent} at y = {y_bad:.6g}"
        )
    lo = np.zeros_like(ys)
    for _ in range(iterations):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        left_lower = obj(m1) < obj(m2)
        lo = np.where(left_lower, m1, lo)
        hi = np.where(left_lower, hi, m2)
    return np.maximum(0.0, obj(0.5 * (lo + hi)))


CONJUGATE_FAMILIES = {
    "power": WeightFunction.power(0.5),
    "power_scaled": WeightFunction.power(0.3, 2.0),
    "log_power": WeightFunction.log_power(2.5),
    "linear_over_log_squared": WeightFunction.linear_over_log_squared(),
    "tabulated": WeightFunction.tabulated([0.0, 1.0, 3.0, 10.0], [0.0, 0.3, 1.0, 6.0]),
    "kappa_of": WeightFunction.kappa_of(WeightFunction.power(0.5)),
}


@pytest.mark.parametrize("name", list(CONJUGATE_FAMILIES))
def test_batched_conjugate_matches_the_per_row_solver(name):
    w = CONJUGATE_FAMILIES[name]
    xis = np.array([0.1, 0.25, 0.5, 1.0, 1.3, 2.0, 4.0, 8.0])
    grid = xis[:, None] * np.arange(33.0)
    got = young_conjugate_grid(w, grid)
    assert got.shape == grid.shape
    want = [per_row_conjugate(w, row) for row in grid]
    assert [[v.hex() for v in r] for r in got.tolist()] == [
        [v.hex() for v in r.tolist()] for r in want
    ]


@pytest.mark.parametrize("xis", [[0.25, 0.5, 1.0], [0.1, 0.3, 2.0]])
def test_batched_conjugate_names_the_first_failing_y(xis):
    w = WeightFunction.log_power(1.0)
    grid = np.array(xis)[:, None] * np.arange(17.0)
    with pytest.raises(BracketFailure) as batched:
        young_conjugate_grid(w, grid)
    with pytest.raises(BracketFailure) as per_row:
        for row in grid:
            per_row_conjugate(w, row)
    assert str(batched.value) == str(per_row.value)


# -- kappa transform ----------------------------------------------------


def test_kappa_power_closed_form():
    w = WeightFunction.power(0.5)
    assert kappa_transform_grid(w, [4.0])[0] == pytest.approx(4.0, rel=1e-8)
    for a in (0.2, 0.8):
        wa = WeightFunction.power(a)
        ts = np.geomspace(1.0, 1e6, 16)
        got = kappa_transform_grid(wa, ts)
        want = ts**a / (1.0 - a)
        assert np.max(np.abs(got - want) / want) < 1e-6


def test_kappa_ratio_constant_for_power():
    w = WeightFunction.power(0.5)
    ts = np.geomspace(0.1, 1e5, 13)
    ratio = kappa_transform_grid(w, ts) / w.raw(ts)
    assert np.max(np.abs(ratio - 2.0)) < 1e-6


def test_kappa_log_squared_family():
    w = WeightFunction.linear_over_log_squared()
    for x in (10.0, 16.0):
        t = math.exp(x)
        assert kappa_transform_grid(w, [t])[0] == pytest.approx(t / x, rel=1e-6)


def test_kappa_dominates_weight_and_is_concave():
    grid = np.geomspace(1.0, 1e8, 33)
    for w in (WeightFunction.power(0.3), WeightFunction.linear_over_log_squared()):
        kv = kappa_transform_grid(w, grid)
        assert np.all(kv >= w.raw(grid) * (1.0 - 1e-9))
        # midpoint concavity on the geometric grid is concavity in log t,
        # which is weaker; test in t directly on an arithmetic grid
        ts = np.linspace(10.0, 1e4, 201)
        kt = kappa_transform_grid(w, ts)
        dip = 0.5 * (kt[:-2] + kt[2:]) - kt[1:-1]
        assert np.max(dip) < 1e-7 * kt[-1]
        ratio = kv / grid
        assert np.all(np.diff(ratio[grid > 100.0]) < 0.0)
        assert ratio[-1] < 0.5 * ratio[grid > 100.0][0]


def test_divergent_tail_for_linear_weight():
    w = WeightFunction.linear()
    with pytest.raises(DivergentTail):
        kappa_transform_grid(w, [1.0])
    with pytest.raises(DivergentTail):
        WeightFunction.kappa_of(w)


@pytest.mark.parametrize("ts", [[math.nan, 4.0], [math.inf], [4.0, -math.inf], [0.0]])
def test_kappa_grid_rejects_non_finite_or_non_positive_t(ts):
    # A NaN or infinite t used to run the quadrature and end in
    # DivergentTail, a verdict on the weight rather than on the argument.
    with pytest.raises(ValueError, match="finite t > 0") as err:
        kappa_transform_grid(WeightFunction.power(0.5), ts)
    assert not isinstance(err.value, DivergentTail)


def test_kappa_grid_matches_scalar_calls():
    w = WeightFunction.power(0.7)
    ts = np.geomspace(0.5, 1e4, 9)
    grid_vals = kappa_transform_grid(w, ts)
    for t, v in zip(ts, grid_vals):
        assert kappa_transform_grid(w, [t])[0] == pytest.approx(v, rel=1e-12)


@pytest.mark.parametrize(
    "w",
    [
        WeightFunction.power(0.5),
        WeightFunction.log_power(2.0),
        WeightFunction.linear_over_log_squared(),
        WeightFunction.kappa_of(WeightFunction.power(0.5)),
    ],
    ids=["power", "log_power", "linear_over_log_squared", "kappa_of"],
)
def test_kappa_grid_entries_are_bitwise_the_scalar_calls(w):
    # A grid entry must not depend on which other points share the call
    # (or are still converging in it): each is the one-point result.
    ts = np.geomspace(1e-2, 1e9, 130)
    grid_vals = kappa_transform_grid(w, ts).tolist()
    assert [v.hex() for v in grid_vals] == [kappa_transform_grid(w, [t])[0].hex() for t in ts]



@pytest.mark.parametrize("t", [0.01, 0.1, 0.5])
def test_kappa_of_a_weight_vanishing_on_the_first_panels_matches_mpmath(t):
    # w(s) = max(0, log s)^2 vanishes for s <= 1, so below t = 1 the
    # first panels add exactly zero; that must not pass for convergence.
    # Oracle: kappa(t) = int_{v >= 0} w(t e^v) e^-v dv by mpmath
    # quadrature at 30 digits, split where the integrand starts.  The
    # Simpson panels straddle that kink; the measured relative error is
    # 3e-6 at t = 0.01, 4e-7 at 0.1 and 5e-8 at 0.5.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        start = -mpmath.log(t)
        want = mpmath.quad(lambda v: (v - start) ** 2 * mpmath.exp(-v), [start, mpmath.inf])
    got = kappa_transform_grid(WeightFunction.log_power(2.0), [t])[0]
    assert got == pytest.approx(float(want), rel=1e-5)


# -- classification -----------------------------------------------------


def test_classify_sqrt():
    c = classify(WeightFunction.power(0.5))
    assert (c.nonquasianalytic, c.little_o_of_t, c.strong, c.concave_equivalent) == (
        True,
        True,
        True,
        True,
    )
    assert c.constants["strong_constant"] == pytest.approx(2.0, rel=0.05)
    assert c.constants["concave_constant"] <= 1.0 + 1e-9


@pytest.mark.parametrize("a", [0.2, 0.8])
def test_classify_power_strong_constant(a):
    c = classify(WeightFunction.power(a))
    assert c.strong is True
    assert c.constants["strong_constant"] == pytest.approx(1.0 / (1.0 - a), rel=0.05)


def test_classify_log_squared_not_strong_with_log_witness():
    c = classify(WeightFunction.linear_over_log_squared())
    assert c.nonquasianalytic is True
    assert c.strong is False
    ab = np.asarray(c.witnesses["strong_ratio_abscissae"])
    rv = np.asarray(c.witnesses["strong_ratio_values"])
    assert np.max(np.abs(rv - np.log(ab)) / np.log(ab)) < 0.1


def test_classify_linear_skips_strong():
    c = classify(WeightFunction.linear())
    assert c.nonquasianalytic is False
    assert c.little_o_of_t is False
    assert c.strong is None
    assert "strong_skipped" in c.witnesses


def test_classify_log_power_integrable():
    c = classify(WeightFunction.log_power(2.0))
    assert c.nonquasianalytic is True
    assert c.little_o_of_t is True
    assert c.strong is True


def test_classify_strong_implies_flags():
    for w in (
        WeightFunction.power(0.2),
        WeightFunction.power(0.5),
        WeightFunction.power(0.8),
        WeightFunction.log_power(2.0),
    ):
        c = classify(w)
        if c.strong:
            assert c.nonquasianalytic
            assert c.concave_equivalent


def test_classify_rejects_narrow_grid():
    with pytest.raises(ValueError):
        classify(WeightFunction.power(0.5), t_grid=np.geomspace(1.0, 1e4, 41))


# -- equivalence --------------------------------------------------------


def test_equivalent_scalar_multiple():
    r = equivalent(WeightFunction.power(0.5), WeightFunction.power(0.5, scale=2.0))
    assert r.equivalent is True
    assert r.constant == pytest.approx(2.0, rel=1e-3)


def test_equivalent_distinct_exponents():
    r = equivalent(WeightFunction.power(0.5), WeightFunction.power(1.0 / 3.0))
    assert r.equivalent is False
    assert r.witnesses["diverging_direction"] == "forward"
    assert r.witnesses["diverging_ratio"] > 10.0


def test_equivalent_to_own_kappa():
    w = WeightFunction.power(0.5)
    r = equivalent(w, WeightFunction.kappa_of(w))
    assert r.equivalent is True
    assert r.constant == pytest.approx(2.0, rel=1e-3)


def test_equivalent_inconclusive_on_slope_break():
    # piecewise weight steepens at log t = 17.5 (inside the top decade of
    # the default grid): the ratio against t^0.55 rises then falls there
    tab = WeightFunction.tabulated([0.0, 17.5, 30.0], [0.0, 8.75, 17.5])
    with pytest.raises(InconclusiveTrend):
        equivalent(WeightFunction.power(0.55), tab)


# -- trend helper -------------------------------------------------------


def test_decade_trend_branches():
    t = np.geomspace(1.0, 1e8, 81)
    lg = np.log10(t)
    verdict, growth = decade_trend(t, 1.0 - 1.0 / t)
    assert verdict == BOUNDED and growth <= 1.05
    verdict, growth = decade_trend(t, np.log(t))
    assert verdict == GROWING and growth > 1.05
    bump = np.minimum(lg, 7.5) - 0.5 * np.maximum(0.0, lg - 7.5)
    verdict, growth = decade_trend(t, np.exp(bump))
    assert verdict == INCONCLUSIVE


def test_decade_trend_rejects_bad_input():
    t = np.geomspace(1.0, 10.0, 21)
    with pytest.raises(ValueError):
        decade_trend(t, np.ones_like(t))  # no two-decade window


@pytest.mark.parametrize("n", range(8))
def test_range_trend_under_eight_entries_is_too_little_to_judge(n):
    assert range_trend(np.geomspace(1.0, 1e6, n)) == (INCONCLUSIVE, 1.0)


def test_range_trend_judges_eight_entries():
    assert range_trend(np.geomspace(1.0, 1e6, 8))[0] == GROWING


@pytest.mark.parametrize(
    "t",
    [
        [], [1.0], [1.0, 100.0], [1.0, 10.0, 100.0],  # fewer than four samples
        [1.0, 10.0, 50.0, 100.0],  # one sample in the lower half [1, 10)
        [1.0, 2.0, 5.0, 100.0],  # one sample in the upper half [10, 100]
    ],
)
def test_decade_trend_on_too_few_samples_is_too_little_to_judge(t):
    # Judged, each of these rising windows would be growing.
    t = np.array(t)
    assert decade_trend(t, t) == (INCONCLUSIVE, 1.0)


def test_decade_trend_judges_two_samples_in_each_half():
    t = np.array([1.0, 2.0, 10.0, 100.0])
    assert decade_trend(t, t)[0] == GROWING


@pytest.mark.parametrize(
    "call",
    [
        lambda: decade_trend([1.0, 2.0], [1.0]),
        lambda: decade_trend([[1.0, 2.0]], [[1.0, 2.0]]),
        lambda: decade_trend([2.0, 1.0], [1.0, 1.0]),
        lambda: decade_trend([1.0, 2.0], [1.0, 1.0], growth_tol=0.5),
        lambda: range_trend(np.ones((2, 3))),
    ],
    ids=["shapes", "2-d", "order", "growth_tol", "2-d range"],
)
def test_trend_helpers_reject_malformed_input_of_any_length(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("growth_tol", [math.nan, math.inf, 0.5, 0.0, -1.0])
def test_trend_helpers_reject_bad_growth_tolerance(growth_tol):
    t = np.geomspace(1.0, 1e8, 81)
    with pytest.raises(ValueError, match="growth tolerance"):
        decade_trend(t, np.log(t), growth_tol=growth_tol)


@pytest.mark.parametrize(
    "tolerances",
    [
        {"growth_tol": math.nan},
        {"growth_tol": 0.5},
        {"little_o_eps": math.nan},
        {"little_o_eps": -1.0},
        {"little_o_eps": 0.0},
    ],
)
def test_classify_rejects_bad_tolerances(tolerances):
    # growth_tol 0.5 used to call the strong weight t^0.5 not strong
    with pytest.raises(ValueError):
        classify(WeightFunction.power(0.5), **tolerances)


# -- construction and serialization -------------------------------------


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        WeightFunction.power(1.2)
    with pytest.raises(ValueError):
        WeightFunction.power(0.5, scale=-1.0)
    with pytest.raises(ValueError):
        WeightFunction.log_power(0.5)
    with pytest.raises(ValueError):
        WeightFunction.tabulated([0.0, 1.0], [0.0, -0.5])  # negative final slope
    with pytest.raises(ValueError):
        WeightFunction.tabulated([0.0, 1.0, 2.0], [0.0, 0.7, 1.2])  # slopes decrease
    with pytest.raises(ValueError):
        WeightFunction.tabulated([0.0, 0.0, 1.0], [0.0, 0.1, 0.2])


def test_normalization_and_zero():
    w = WeightFunction.power(0.5, scale=3.0)
    assert w(1.0) == 0.0
    assert w(0.0) == 0.0
    assert w(4.0) == pytest.approx(3.0, rel=1e-12)  # 3*2 - 3
    assert w.raw(4.0) == pytest.approx(6.0, rel=1e-12)


def test_log_squared_plateau_continuity():
    w = WeightFunction.linear_over_log_squared()
    e2 = math.exp(2.0)
    assert w.raw(e2) == pytest.approx(e2 / 4.0, rel=1e-12)
    assert w.raw(0.5 * e2) == pytest.approx(e2 / 4.0, rel=1e-12)
    assert w.raw(math.exp(3.0)) == pytest.approx(math.exp(3.0) / 9.0, rel=1e-12)


def test_json_round_trip_all_families():
    ws = [
        WeightFunction.power(0.4, scale=1.5),
        WeightFunction.linear(),
        WeightFunction.log_power(3.0),
        WeightFunction.linear_over_log_squared(),
        WeightFunction.tabulated([0.0, 2.0, 5.0], [0.0, 1.0, 4.0]),
        WeightFunction.kappa_of(WeightFunction.power(0.5)),
    ]
    ts = np.geomspace(0.5, 1e4, 9)
    for w in ws:
        doc = weight_to_json(w)
        again = weight_from_json(doc)
        assert again.family == w.family
        assert np.allclose(again.raw(ts), w.raw(ts), rtol=1e-12)
    with pytest.raises(ValueError):
        weight_from_json({"family": "mystery"})


SQRT_DOC = {"family": "power", "parameters": {"exponent": 0.5}}


def tabulated_doc(log_t_knots, log_w_knots):
    params = {"log_t_knots": log_t_knots, "log_w_knots": log_w_knots}
    return {"family": "tabulated", "parameters": params}


def kappa_doc(inner):
    return {"family": "kappa_of", "parameters": {"inner": inner}}


@pytest.mark.parametrize(
    "doc, key",
    [
        # A misspelled optional parameter used to be dropped silently.
        ({"family": "power", "parameters": {"exponent": 0.5, "scael": 3.0}}, "scael"),
        ({"family": "power", "parameters": {"scale": 3.0}}, "exponent"),
        ({"family": "linear", "parameters": {"power": 2.0}}, "power"),
        ({"family": "log_power", "parameters": {}}, "power"),
        ({"family": "power", "parameters": {"exponent": "0.5"}}, "exponent"),
        ({"family": "power", "parameters": {"exponent": 0.5, "scale": True}}, "scale"),
        ({"family": "log_power", "parameters": {"power": None}}, "power"),
        (tabulated_doc([0.0, "1"], [0.0, 1.0]), "log_t_knots"),
        (tabulated_doc("01", [0.0, 1.0]), "log_t_knots"),
        (kappa_doc({"family": "power", "parameters": {"exponant": 0.5}}), "exponant"),
        (kappa_doc({"family": "power"}), "inner.parameters"),
        ({"family": "kappa_of", "parameters": {"inner": SQRT_DOC, "rtol": "1e-8"}}, "rtol"),
        ({**SQRT_DOC, "normalisation": 1.0}, "normalisation"),
        ({**SQRT_DOC, "parameters": [0.5]}, "parameters"),
        ({"parameters": {"exponent": 0.5}}, "family"),
        # An unhashable family used to end in a bare TypeError.
        ({"family": ["power"], "parameters": {"exponent": 0.5}}, "family"),
        # The raw value of sqrt(t) at t = 1 is 1.0, not 123.
        ({**SQRT_DOC, "normalization": 123.0}, "normalization"),
        ({**SQRT_DOC, "normalization": "1.0"}, "normalization"),
        (kappa_doc({**SQRT_DOC, "normalization": 0.0}), "inner.normalization"),
    ],
)
def test_weight_json_is_read_strictly(doc, key):
    with pytest.raises(ConfigError, match=key):
        weight_from_json(doc)


def test_weight_json_normalization_must_be_the_offset():
    w = weight_from_json({**SQRT_DOC, "normalization": 1.0})
    assert w.offset == 1.0
    kappa = WeightFunction.kappa_of(WeightFunction.power(0.5))
    doc = json.loads(json.dumps(weight_to_json(kappa)))
    assert weight_from_json(doc).offset == kappa.offset
    doc["normalization"] = math.nextafter(kappa.offset, 0.0)
    with pytest.raises(ConfigError, match="normalization"):
        weight_from_json(doc)


def test_geometric_grid_shape():
    g = geometric_grid(1.0, 1e8, per_decade=10)
    assert len(g) == 81
    assert g[0] == pytest.approx(1.0)
    assert g[-1] == pytest.approx(1e8)
