import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraext.errors import (
    MissingRow,
    OrderOverflow,
    OutsideRegion,
    PlanInvalid,
    PrecisionFloor,
)
from ultraext.extension_engine import (
    ExtensionPlan,
    PlanConstants,
    _requested_degree,
    assemble,
    boundary_limits,
    eval_derivative,
    make_plan,
    region_samples,
    verify_bounds,
)
from ultraext.matrix_calculus import (
    associated_matrix,
    interleave_matrix,
    strong_regularization,
)
from ultraext.seq_calculus import WeightSequence
from ultraext.ultrajets import JetCertificate, UltraJet, certify, polynomial_jet
from ultraext.weight_functions import WeightFunction
from ultraext.whitney_geometry import CompactSet1D, distance_and_nearest


def fd_deriv(fun, x, order, step, levels=3):
    """Central difference with Richardson extrapolation in the step."""

    def diff(s):
        total = 0.0
        for j in range(order + 1):
            total += (-1) ** j * math.comb(order, j) * fun(x + (order / 2 - j) * s)
        return total / s**order

    vals = [diff(step / 2**k) for k in range(levels)]
    fac = 4.0
    while len(vals) > 1:
        vals = [(fac * vals[k + 1] - vals[k]) / (fac - 1.0) for k in range(len(vals) - 1)]
        fac *= 4.0
    return vals[0]


SQUARE_ROW = WeightSequence.from_log_quotients(
    tuple(2.0 * math.log(k) for k in range(1, 33))
)


@pytest.fixture(scope="module")
def pipeline():
    w = WeightFunction.power(0.5)
    reg = strong_regularization(associated_matrix(w, k_max=64))
    inter = interleave_matrix(reg)
    e = CompactSet1D.from_points([0.0])
    full = inter.full_log_row(1.0)
    jet = UltraJet(e, (0.0,), (tuple(np.exp(full[:33])),))
    cert = certify(jet, inter, xi=1.0)
    plan = make_plan(cert, reg)
    ext = assemble(jet, reg, plan, max_generation=44)
    return reg, inter, jet, cert, plan, ext


def test_requested_degree_frozen_examples():
    assert _requested_degree(SQUARE_ROW, 1.0, 0.25) == (1, False)
    assert _requested_degree(SQUARE_ROW, 1.0, 0.01) == (17, False)
    assert _requested_degree(SQUARE_ROW, 1.0, 10.0) == (0, False)
    # beyond the stored quotients: the floor 2 * order - 1, flagged
    assert _requested_degree(SQUARE_ROW, 1.0, 1e-9) == (63, True)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-2, max_value=10.0),
    st.floats(min_value=1e-2, max_value=10.0),
)
def test_requested_degree_monotone_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    deg_lo, _ = _requested_degree(SQUARE_ROW, 1.0, lo)
    deg_hi, _ = _requested_degree(SQUARE_ROW, 1.0, hi)
    assert deg_lo >= deg_hi


def test_plan_validation():
    with pytest.raises(PlanInvalid):
        ExtensionPlan(dilation=0.0, folds=8, xi=1.0, rho=1.0, jet_bound=1.0)
    with pytest.raises(PlanInvalid):
        ExtensionPlan(dilation=16.0, folds=0, xi=1.0, rho=1.0, jet_bound=1.0)
    with pytest.raises(PlanInvalid):
        ExtensionPlan(dilation=16.0, folds=8, xi=-1.0, rho=1.0, jet_bound=1.0)
    with pytest.raises(PlanInvalid):
        ExtensionPlan(dilation=16.0, folds=8, xi=1.0, rho=0.5, jet_bound=1.0)
    plan = ExtensionPlan(dilation=16.0, folds=8, xi=1.0, rho=1.0, jet_bound=1.0)
    assert plan.meets_threshold
    low = ExtensionPlan(dilation=4.0, folds=8, xi=1.0, rho=1.0, jet_bound=1.0)
    assert not low.meets_threshold


def test_plan_json_round_trip(pipeline):
    _, _, _, _, plan, _ = pipeline
    blob = json.dumps(plan.to_json(), sort_keys=True)
    back = ExtensionPlan.from_json(json.loads(blob))
    assert back == plan


def test_plan_json_without_constants_uses_field_defaults():
    doc = {"dilation": 10.0, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 2.0}
    plan = ExtensionPlan.from_json(doc)
    assert plan.constants == PlanConstants()
    assert not plan.meets_threshold
    assert ExtensionPlan.from_json(json.loads(json.dumps(plan.to_json()))) == plan


def test_plan_json_rejects_unknown_constants():
    doc = {"dilation": 16.0, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 2.0}
    with pytest.raises(PlanInvalid):
        ExtensionPlan.from_json(dict(doc, constants={"k9": 1.0}))


@pytest.mark.parametrize("key", ["dilation", "folds", "xi", "rho", "jet_bound"])
def test_plan_json_rejects_missing_keys(key):
    doc = {"dilation": 16.0, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 2.0}
    del doc[key]
    with pytest.raises(PlanInvalid, match=key):
        ExtensionPlan.from_json(doc)


def test_plan_json_rejects_unknown_keys():
    doc = {"dilation": 16.0, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 2.0}
    with pytest.raises(PlanInvalid, match="dilaton"):
        ExtensionPlan.from_json(dict(doc, dilaton=32.0))
    plan = ExtensionPlan.from_json(dict(doc, theory_degree=40))
    assert plan.theory_degree == 40


@pytest.mark.parametrize("key, value", [
    ("folds", 8.9), ("folds", True), ("folds", "8"),
    ("theory_degree", 40.5), ("theory_degree", False), ("theory_degree", "40"),
])
def test_plan_json_rejects_non_integer_counts(key, value):
    doc = {"dilation": 16.0, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 2.0}
    with pytest.raises(PlanInvalid, match=key):
        ExtensionPlan.from_json(dict(doc, **{key: value}))


@pytest.mark.parametrize("key", ["dilation", "xi", "rho", "jet_bound"])
@pytest.mark.parametrize("value", [True, "16", None, [16.0]])
def test_plan_json_rejects_non_numbers(key, value):
    doc = {"dilation": 16.0, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 2.0}
    with pytest.raises(PlanInvalid, match=key):
        ExtensionPlan.from_json(dict(doc, **{key: value}))


@pytest.mark.parametrize("name", ["c0", "c1", "c2", "h", "k1", "k2", "k3", "m1"])
@pytest.mark.parametrize("value", [True, "1"])
def test_plan_json_rejects_non_number_constants(name, value):
    # A string k2 of "1" at dilation 20 and rho 1 would clear the threshold
    # and skip the negative control.
    doc = {"dilation": 20.0, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 2.0}
    with pytest.raises(PlanInvalid, match=name):
        ExtensionPlan.from_json(dict(doc, constants={name: value}))


def test_plan_json_accepts_integral_numbers_and_null_m1():
    doc = {"dilation": 16, "folds": 8.0, "xi": 1, "rho": 1, "jet_bound": 2,
           "constants": {"k2": 12, "m1": None}, "theory_degree": 40.0}
    plan = ExtensionPlan.from_json(doc)
    assert (plan.folds, plan.theory_degree) == (8, 40)
    assert type(plan.folds) is int and type(plan.theory_degree) is int
    assert plan.dilation == 16.0 and plan.constants.m1 is None


@pytest.mark.parametrize(
    "name, value",
    [("k3", "NaN"), ("k3", "-3"), ("h", "NaN"), ("h", "Infinity"), ("c0", "0"),
     ("k1", "-Infinity"), ("k2", "NaN"), ("m1", "NaN")],
)
def test_plan_file_rejects_non_finite_or_non_positive_constants(name, value):
    text = (
        '{"dilation": 16, "folds": 8, "xi": 1, "rho": 1, "jet_bound": 2,'
        f' "constants": {{"{name}": {value}}}}}'
    )
    with pytest.raises(PlanInvalid, match=name):
        ExtensionPlan.from_json(json.loads(text))


def test_make_plan_constants(pipeline):
    reg, _, _, cert, plan, _ = pipeline
    h = plan.constants.h
    assert h >= 1.0
    assert plan.constants.k1 == pytest.approx(27.0 * 2.5 * h / (7.0 / 16.0))
    assert plan.constants.k3 == pytest.approx(3.0 * h)
    assert plan.dilation == pytest.approx(16.0 * cert.rho)
    assert plan.theory_degree == math.ceil(plan.constants.k1 * plan.dilation)
    assert plan.meets_threshold


def test_make_plan_needs_both_rows(pipeline):
    reg = pipeline[0]
    cert = JetCertificate(1.0, 1.0, 4.0, 1.0, 1.0, "bounded")
    with pytest.raises(MissingRow):
        make_plan(cert, reg)


def test_assemble_rejects_degenerate_plan(pipeline):
    reg, _, jet, _, plan, _ = pipeline
    bad = ExtensionPlan(
        dilation=0.05, folds=plan.folds, xi=plan.xi, rho=plan.rho,
        jet_bound=plan.jet_bound, constants=plan.constants,
    )
    with pytest.raises(PlanInvalid):
        assemble(jet, reg, bad, max_generation=30)


def test_assemble_counts_caps_and_cutoffs(pipeline):
    _, _, _, _, _, ext = pipeline
    assert ext.degree_caps > 0
    assert ext.degree_cutoffs > 0
    assert all(d <= want for d, want in zip(ext.degrees, ext.requested))
    assert ext.d_max > 0.0


def test_stored_point_agreement_is_exact(pipeline):
    _, _, jet, _, _, ext = pipeline
    for a in range(9):
        assert eval_derivative(ext, 0.0, a) == jet.value(0.0, a)


def test_locality_of_terms(pipeline):
    _, _, _, _, _, ext = pipeline
    x = 3.0 / 8.0 * ext.d_max
    terms = ext.terms(x)
    assert 1 <= len(terms) <= 3
    assert list(terms) == list(ext.cover.members(x, expanded=True))


def test_outside_region_and_order_overflow(pipeline):
    _, _, _, _, plan, ext = pipeline
    with pytest.raises(OutsideRegion):
        eval_derivative(ext, ext.d_max * 2.0, 0)
    with pytest.raises(OutsideRegion):
        eval_derivative(ext, ext.cover.d_min_covered / 4.0, 0)
    with pytest.raises(OrderOverflow):
        eval_derivative(ext, ext.d_max / 2.0, plan.folds + 1)


def test_on_set_point_without_stored_row():
    e = CompactSet1D.from_intervals([(-1.0, 0.0)])
    jet = UltraJet(e, (0.0,), ((0.0,) * 9,))
    w = WeightFunction.power(0.5)
    reg = strong_regularization(associated_matrix(w, k_max=64))
    plan = ExtensionPlan(dilation=16.0, folds=4, xi=1.0, rho=1.0, jet_bound=1.0)
    ext = assemble(jet, reg, plan, max_generation=30)
    with pytest.raises(OutsideRegion):
        eval_derivative(ext, -0.5, 0)


def test_zero_jet_vanishes_and_passes(pipeline):
    reg = pipeline[0]
    e = CompactSet1D.from_points([0.0])
    jet = UltraJet(e, (0.0,), ((0.0,) * 33,))
    plan = pipeline[4]
    ext = assemble(jet, reg, plan, max_generation=40)
    for x in (1e-4, -2e-3, 5e-3 * 0.9):
        d, _ = distance_and_nearest(e, x)
        if not ext.cover.d_min_covered <= d < ext.d_max:
            continue
        for a in range(5):
            assert eval_derivative(ext, x, a) == 0.0
    rep = verify_bounds(ext, samples=200, alpha_cap=6)
    assert rep.all_passed
    assert rep.fitted_m == 1.0
    assert rep.fitted_m1 == 1.0
    bnd = boundary_limits(ext, 4, 0.0, max_index=40)
    assert all(s.errors == (0.0,) * 5 for s in bnd.steps)


def test_polynomial_jet_reproduced_exactly(pipeline):
    reg, _, _, _, plan, _ = pipeline
    e = CompactSet1D.from_points([0.0])
    coeffs = (1.0, 2.0, 0.0, 1.0)
    jet = polynomial_jet(e, (0.0,), coeffs, alpha_max=32)
    ext = assemble(jet, reg, plan, max_generation=40)

    def exact(x, a):
        vals = {0: 1.0 + 2.0 * x + x**3, 1: 2.0 + 3.0 * x**2, 2: 6.0 * x, 3: 6.0}
        return vals.get(a, 0.0)

    checked = 0
    for x in (1e-3, -1e-3, 5e-4, 2e-3, -7e-4):
        d, _ = distance_and_nearest(e, x)
        if not ext.cover.d_min_covered <= d < ext.d_max:
            continue
        mindeg = min(ext.degrees[int(i)] for i in ext.cover.members(x, expanded=True))
        assert mindeg >= 3, "probe must sit where the local degree covers the polynomial"
        for a in range(5):
            got = eval_derivative(ext, x, a)
            assert got == pytest.approx(exact(x, a), rel=1e-12, abs=1e-12)
        checked += 1
    assert checked >= 3
    rep = verify_bounds(ext, samples=150, alpha_cap=6)
    assert rep.all_passed


def test_polynomial_boundary_errors_are_exact_differences(pipeline):
    reg, _, _, _, plan, _ = pipeline
    e = CompactSet1D.from_points([0.0])
    jet = polynomial_jet(e, (0.0,), (1.0, 2.0, 0.0, 1.0), alpha_max=32)
    ext = assemble(jet, reg, plan, max_generation=40)
    bnd = boundary_limits(ext, 3, 0.0, max_index=40)
    assert len(bnd.steps) >= 20
    checked = 0
    for s in bnd.steps:
        mindeg = min(ext.degrees[int(i)] for i in ext.cover.members(s.x, expanded=True))
        if mindeg < 3:
            continue
        # Where the local degrees cover the polynomial, f is the
        # polynomial itself, so the top-order error vanishes and the
        # lower orders shrink like the true increments.
        assert s.errors[3] == 0.0
        assert s.errors[0] == pytest.approx(abs(2.0 * s.x + s.x**3), rel=1e-12)
        assert s.errors[1] == pytest.approx(abs(3.0 * s.x**2), rel=1e-12)
        checked += 1
    assert checked >= 20
    assert all(bnd.nonincreasing)


def test_evaluation_is_linear_in_the_jet(pipeline):
    reg, inter, jet1, _, plan, ext1 = pipeline
    e = jet1.e
    jet2 = polynomial_jet(e, (0.0,), (0.5, -1.0, 2.0), alpha_max=32)
    rows = tuple(
        tuple(a + b for a, b in zip(r1, r2))
        for r1, r2 in zip(jet1.rows, jet2.rows)
    )
    jet12 = UltraJet(e, (0.0,), rows)
    ext2 = assemble(jet2, reg, plan, max_generation=44)
    ext12 = assemble(jet12, reg, plan, max_generation=44)
    for x in (1e-3, -2e-3, 4e-3):
        for a in range(4):
            lhs = eval_derivative(ext12, x, a)
            rhs = eval_derivative(ext1, x, a) + eval_derivative(ext2, x, a)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_eval_matches_finite_differences(pipeline):
    # Inductive cross-check: each order is differenced against the
    # previous one, which the preceding orders have already validated
    # down to order zero.  A direct order-four stencil on the value is
    # hopeless here: the roundoff floor eps*|f|/s^4 exceeds |f''''| at
    # every representable step, so agreement is asserted only where the
    # one-step oracle is conditioned well above its own floor.
    _, _, _, _, _, ext = pipeline
    breaks = np.asarray(ext.partition.breakpoints)
    lo, hi = 1e-3, ext.d_max * 0.8
    probes = []
    for b1, b2 in zip(breaks, breaks[1:]):
        mid = 0.5 * (b1 + b2)
        d, _ = distance_and_nearest(ext.jet.e, float(mid))
        if lo <= d <= hi and b2 - b1 > 1e-5:
            probes.append((float(mid), float(b2 - b1)))
    assert len(probes) >= 10
    checked = {a: 0 for a in range(1, 5)}
    for mid, width in probes:
        for a in range(1, 5):
            got = eval_derivative(ext, mid, a)
            ref = fd_deriv(lambda y: eval_derivative(ext, y, a - 1), mid, 1, width / 10.0)
            scale = max(abs(ref), abs(got))
            if scale == 0.0:
                continue
            base = abs(eval_derivative(ext, mid, a - 1))
            floor = 2.0**-52 * max(base, 1.0) / (width / 40.0)
            if scale < 1e6 * floor:
                continue
            assert abs(got - ref) / scale < 1e-6
            checked[a] += 1
    assert all(checked[a] >= 10 for a in checked)


def test_region_samples_stay_in_band(pipeline):
    _, _, _, _, _, ext = pipeline
    xs = region_samples(ext, 300)
    assert len(xs) > 50
    for x in xs:
        d, _ = distance_and_nearest(ext.jet.e, float(x))
        assert ext.cover.d_min_covered <= d < ext.d_max


def test_bound_report_all_green(pipeline):
    _, _, _, _, _, ext = pipeline
    rep = verify_bounds(ext, samples=400, alpha_cap=8)
    assert rep.all_passed
    assert rep.valuation_pairs > 0
    assert rep.valuation_ok
    assert rep.degree_cap_hits > 0
    assert rep.degree_cutoff_hits > 0
    assert 1.0 <= rep.fitted_m <= 6.0 * ext.plan.dilation
    assert 1.0 <= rep.fitted_m1 <= 6.0 * ext.plan.dilation
    for c in rep.checks:
        assert c.passed, (c.name, c.notes)
    blob = json.dumps(rep.to_json(), sort_keys=True)
    assert json.loads(blob)["checks"][0]["name"] == rep.checks[0].name


def test_sparse_audit_distance_trend_is_inconclusive(pipeline):
    *_, ext = pipeline
    report = verify_bounds(ext, samples=32, alpha_cap=8)
    assert report.check("residual_decay").distance_trend == "inconclusive"


def test_bound_report_clips_order_cap(pipeline):
    _, _, _, _, _, ext = pipeline
    rep = verify_bounds(ext, samples=100, alpha_cap=12)
    assert rep.alpha_cap == ext.plan.folds
    assert any("clipped" in n for n in rep.notes)


def test_boundary_descent_reaches_deep_dyadics(pipeline):
    _, _, _, _, _, ext = pipeline
    bnd = boundary_limits(ext, 6, 0.0, max_index=40)
    assert bnd.steps[-1].index == 40
    assert bnd.floor_index is None
    assert all(bnd.nonincreasing)
    e0 = [s.errors[0] for s in bnd.steps]
    assert e0[0] > e0[-1] > 0.0
    for al in range(7):
        errs = [s.errors[al] for s in bnd.steps]
        fits = bnd.fitted[al]
        assert math.isfinite(fits)
        for s, err in zip(bnd.steps, errs):
            assert err <= fits * (s.distance + s.decay) * (1.0 + 1e-12)


def test_boundary_floor_reasons(pipeline):
    _, _, _, _, _, ext = pipeline
    with pytest.raises(PrecisionFloor):
        boundary_limits(ext, 2, 0.0, max_index=5)

    e = CompactSet1D.from_intervals([(-1.0, 0.0)])
    jet = UltraJet(e, (-1.0, 0.0), ((0.0,) * 9, (0.0,) * 9))
    reg = pipeline[0]
    plan = ExtensionPlan(dilation=16.0, folds=4, xi=1.0, rho=1.0, jet_bound=1.0)
    ext2 = assemble(jet, reg, plan, max_generation=30)
    with pytest.raises(PrecisionFloor):
        boundary_limits(ext2, 2, -1.0, max_index=40)


def test_boundary_floor_below_cover_depth(pipeline):
    reg, inter, jet, cert, plan, _ = pipeline
    shallow = assemble(jet, reg, plan, max_generation=20)
    bnd = boundary_limits(shallow, 2, 0.0, max_index=40)
    assert bnd.floor_reason == "below the resolved cover depth"
    assert bnd.floor_index is not None
    assert len(bnd.steps) > 4


def test_negative_control_is_flagged(pipeline):
    reg, _, jet, cert, plan, _ = pipeline
    bad = ExtensionPlan(
        dilation=0.05, folds=plan.folds, xi=plan.xi, rho=cert.rho,
        jet_bound=cert.c, constants=plan.constants,
    )
    ext = assemble(jet, reg, bad, max_generation=40, allow_degenerate=True)
    rep = verify_bounds(ext, samples=200, alpha_cap=8)
    assert not rep.plan.meets_threshold
    assert not rep.all_passed
    assert any(c.alpha_trend == "growing" and not c.passed for c in rep.checks)
