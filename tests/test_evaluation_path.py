"""One derivative vector per evaluation point, checked bitwise.

eval_derivative builds each off-set point's vector once per call, by
the scalar glue at a float and by one array pass over an array of
points; verify_bounds fills per-sample tables and runs every check
column-wise.  Both are compared with scalar code: the first with a fresh
per-order evaluation by the per-member product rule, and its array form
with the float call, the second with a copy of the per-sample audit.  The
local Taylor rule that assembly and the audit share is compared with its
scalar form.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultraext import extension_engine
from ultraext._fitting import libm_log_maxima
from ultraext.errors import CountingIndexAtCutoff, OrderOverflow, OutsideRegion
from ultraext.extension_engine import (
    BoundReport,
    _bound_ratios,
    _capped,
    _difference_derivatives,
    _local_taylor,
    _log_abs,
    _log_decay,
    _ratio_check,
    assemble,
    eval_derivative,
    make_plan,
    region_samples,
    verify_bounds,
)
from ultraext import partition_of_unity
from ultraext.matrix_calculus import associated_matrix, interleave_matrix, strong_regularization
from ultraext.partition_of_unity import Partition
from ultraext.seq_calculus import QUOTIENT_TIE_SLACK, counting_index
from ultraext.ultrajets import (
    TaylorPolynomial,
    UltraJet,
    certify,
    polynomial_jet,
    taylor_poly,
    taylor_vectors,
)
from ultraext.weight_functions import WeightFunction
from ultraext.whitney_geometry import (
    CompactSet1D,
    distance_grid,
    distances_and_nearest,
)
from _reference import (
    distance_and_nearest,
    entry_ratio_check,
    finish_check,
    interval_poly,
    members,
    memberships,
    nearest_base_point,
    numpy_phi_derivatives,
    rebuilt,
    terms,
)


# The scalar local Taylor rule, the oracle of _local_taylor: the anchor
# is the base point nearest the nearest set point (nearest_base_point),
# the degree comes from the counting index at the dilated distance.
def requested_degree(row, dilation, d):
    """(degree wanted at distance d, cutoff flag); at cutoff the floor 2K - 1."""
    try:
        gamma = counting_index(row, dilation * d)
    except CountingIndexAtCutoff:
        return 2 * row.order - 1, True
    return max(2 * gamma - 1, 0), False


# The per-point helpers of the scalar audit, kept as its oracle: one
# product rule per member with Python floats, then t_ref added.  The
# engine now runs the same operations column-wise over member rows.
def _log_ratio(log_lhs: float, log_rhs: float) -> float:
    return math.exp(min(log_lhs - log_rhs, 700.0))


def _deviation_derivatives(diffs, phis, order):
    out = np.zeros(order + 1)
    for i, dvals in diffs.items():
        if dvals is None:
            continue
        p = phis[i]
        for a in range(order + 1):
            acc = 0.0
            for b in range(a + 1):
                acc += math.comb(a, b) * p[a - b] * dvals[b]
            out[a] += acc
    return out


class PhiVectors(dict):
    """phi_i derivative vectors 0..order at one x, each built on first use."""

    def __init__(self, partition, x, order):
        super().__init__()
        self.partition, self.x, self.order = partition, x, order

    def __missing__(self, i):
        vec = self[i] = self.partition.derivatives(i, self.x, self.order)
        return vec


def _glued_derivatives(f, x, order, members, phis, t_ref):
    ref_vals = t_ref.derivatives(x, order)
    diffs = {
        i: _difference_derivatives(interval_poly(f, i), t_ref, ref_vals, x, order)
        for i in members
    }
    out = _deviation_derivatives(diffs, phis, order)
    for a in range(order + 1):
        out[a] += ref_vals[a]
    return out


# Each builder returns the extension and the regularized matrix it was
# assembled against.
def gevrey_extension(points, folds=8, weight=None, e=None, xi=1.0):
    """The README extend job's extension (power 0.5, gevrey jet at xi 1) on points.

    e, when given, is the set; points are then its base points.
    """
    weight = WeightFunction.power(0.5) if weight is None else weight
    reg = strong_regularization(associated_matrix(weight, k_max=64))
    inter = interleave_matrix(reg)
    row = tuple(float(v) for v in np.exp(inter.full_log_row(xi)[:33]))
    e = CompactSet1D.from_points(points) if e is None else e
    jet = UltraJet(e, tuple(points), (row,) * len(points))
    plan = make_plan(certify(jet, inter, xi=xi), reg, folds=folds)
    return assemble(jet, reg, plan), reg


def weight_row_extension(points, xi):
    """The extend job on a jet whose every row is the README weight's row at xi.

    Each base point stores the same row of the associated matrix, and
    certify picks its own row for the plan.
    """
    mat = associated_matrix(WeightFunction.power(0.5), k_max=64)
    reg = strong_regularization(mat)
    row = tuple(math.exp(v) for v in mat.full_log_row(xi)[:33].tolist())
    jet = UltraJet(CompactSet1D.from_points(points), tuple(points), (row,) * len(points))
    return assemble(jet, reg, make_plan(certify(jet, interleave_matrix(reg)), reg)), reg


def polynomial_extension(points, coeffs):
    """The extend job with a polynomial jet (README weight, certify's own row)."""
    reg = strong_regularization(associated_matrix(WeightFunction.power(0.5), k_max=64))
    inter = interleave_matrix(reg)
    jet = polynomial_jet(CompactSet1D.from_points(points), points, coeffs, 32)
    return assemble(jet, reg, make_plan(certify(jet, inter), reg)), reg


@pytest.fixture(scope="module")
def cases():
    """name -> (extension, the regularized matrix it was assembled against)."""
    return {
        "one_point": gevrey_extension([0.0]),
        "two_points": gevrey_extension([0.0, 0.23]),
        "folds_12": gevrey_extension([0.0], folds=12),
        # The eight points of the benchmark's extend_cluster job.
        "cluster": gevrey_extension([0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81]),
        "power_09": gevrey_extension([0.0], weight=WeightFunction.power(0.9)),
        "log_squared": gevrey_extension(
            [0.0], weight=WeightFunction.linear_over_log_squared()
        ),
        "interval": gevrey_extension(
            [-1.0, 0.0], e=CompactSet1D.from_intervals([(-1.0, 0.0)])
        ),
        # Two points close enough that some (sample, member) pairs join
        # Taylor polynomials of distinct anchors.
        "polynomial": polynomial_extension([0.0, 0.01], [1.0, 2.0, -3.0]),
        "weight_row": weight_row_extension([0.0, 0.3, 0.7], 1.0),
        # The degree row (xi 1/2) is a hull minorant: its quotient view is
        # not the differences of its values.  On two points a yardstick
        # built from the values moves an order trend of the report; on
        # {0} alone it moved none.
        "hull_minorant": gevrey_extension(
            [0.0, 0.23], weight=WeightFunction.power(0.9), xi=0.25
        ),
    }


@pytest.fixture(scope="module")
def extensions(cases):
    return {name: f for name, (f, _) in cases.items()}


def parent_reference_index(f, x):
    inside = members(f.cover, x)
    if len(inside):
        return int(inside[0])
    return int(members(f.cover, x, expanded=True)[0])


def fresh_derivative(f, x, alpha):
    """The order-alpha vector's last entry, built from nothing stored."""
    phis = PhiVectors(f.partition, x, alpha)
    t_ref = interval_poly(f, parent_reference_index(f, x))
    return float(_glued_derivatives(f, x, alpha, terms(f, x), phis, t_ref)[alpha])


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["one_point", "two_points"]),
    picks=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    drawn=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 8)), max_size=20),
)
def test_eval_derivative_serves_every_order_bitwise_as_fresh(extensions, name, picks, drawn):
    f = extensions[name]
    xs = region_samples(f, 120).tolist()
    x1, x2 = (xs[p % len(xs)] for p in picks)
    base, top = f.jet.base_points[-1], f.plan.folds
    onset = [(base, 0), (base, top)]
    calls = (
        [(x1, a) for a in range(top + 1)]  # ascending
        + onset
        + [(x1, a) for a in range(top, -1, -1)]  # descending
        + [(x2, 3)] * 3 + [(x2, 0)] * 2  # repeated
        + onset
        + [(x, a) for a in range(top + 1) for x in (x1, x2)]  # interleaved points
        + [((x1, x2, base)[k], a) for k, a in drawn]
    )
    for x, a in calls:
        want = f.jet.value(x, a) if x == base else fresh_derivative(f, x, a)
        assert eval_derivative(f, x, a).hex() == want.hex(), (x, a)


def test_eval_derivative_builds_only_the_bumps_of_its_piece(monkeypatch):
    # A fresh cluster extension: assembly builds no piece row; one
    # evaluation reads the rows of the bumps alive on the piece holding x.
    f, _ = gevrey_extension([0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81])
    part = f.partition
    assert part._pieces == {}
    for x in region_samples(f, 40).tolist():
        j = int(np.searchsorted(part.breakpoints, x, side="right")) - 1
        if len(part.piece_active[j]) == 2:
            break
    shifts = []
    real = partition_of_unity._taylor_shift
    monkeypatch.setattr(
        partition_of_unity, "_taylor_shift", lambda *a: shifts.append(a) or real(*a)
    )
    eval_derivative(f, x, f.plan.folds)
    assert len(shifts) == len(part.piece_active[j])
    assert list(part._pieces) == [j]


def test_eval_derivative_builds_one_vector_per_point(extensions, monkeypatch):
    # Nothing is stored on the extension.  A float x with an order vector
    # is one scalar glue and one one-point distance lookup; a call per
    # order builds its own vector; an array of points is one lookup and
    # one array pass that builds each (point, member) phi vector once and
    # no scalar glue.
    f = extensions["two_points"]
    built, passes, phis, scanned = [], [], [], []
    scalar, glue = extension_engine._glued_derivatives, extension_engine._glue
    derivatives, nearest = Partition.derivatives, extension_engine.distances_and_nearest

    def counted(f, x, order):
        built.append(x)
        return scalar(f, x, order)

    def counted_pass(f, xs, *rest, **kwargs):
        passes.append(xs.tolist())
        return glue(f, xs, *rest, **kwargs)

    def counted_phi(self, i, x, order):
        phis.append((x, i))
        return derivatives(self, i, x, order)

    def counted_scan(e, xs):
        scanned.append(np.asarray(xs).tolist())
        return nearest(e, xs)

    monkeypatch.setattr(extension_engine, "_glued_derivatives", counted)
    monkeypatch.setattr(extension_engine, "_glue", counted_pass)
    monkeypatch.setattr(extension_engine, "distances_and_nearest", counted_scan)
    monkeypatch.setattr(Partition, "derivatives", counted_phi)
    xs = region_samples(f, 40)
    x1, top = xs[3].item(), f.plan.folds
    orders = np.arange(top + 1)
    vec = eval_derivative(f, x1, orders)
    assert built == [x1] and scanned == [[x1]] and passes == []
    per_order = [eval_derivative(f, x1, a) for a in orders.tolist()]
    assert built == [x1] * (top + 2) and scanned == [[x1]] * (top + 2)
    assert [type(v) for v in per_order] == [float] * (top + 1)
    assert [v.hex() for v in vec.tolist()] == [v.hex() for v in per_order]
    assert eval_derivative(f, 0.23, [2, 0]).tolist() == [f.jet.value(0.23, a) for a in (2, 0)]

    del built[:], scanned[:], phis[:]
    points = np.append(xs, 0.23)  # one point on the set
    table = eval_derivative(f, points, orders)
    assert table.shape == (points.size, top + 1)
    assert built == [] and scanned == [points.tolist()] and passes == [xs.tolist()]
    assert len(phis) == len(set(phis)) and {x for x, _ in phis} <= set(xs.tolist())
    assert [v.hex() for v in table[3].tolist()] == [v.hex() for v in vec.tolist()]
    assert table[-1].tolist() == [f.jet.value(0.23, a) for a in orders.tolist()]
    assert eval_derivative(f, points, 5).tolist() == table[:, 5].tolist()

    # Order and region checks run on every form of the call.
    for a in (top + 1, -1):
        for x, alpha in ((x1, a), (x1, [0, a]), (points, a), (points, [a, 0])):
            with pytest.raises(OrderOverflow):
                eval_derivative(f, x, alpha)
    for x in (x1, points):
        with pytest.raises(OrderOverflow):
            eval_derivative(f, x, [])
    for x in (0.23 + 2.0 * f.d_max, 0.5 * f.cover.d_min_covered, math.nan):
        with pytest.raises(OutsideRegion):
            eval_derivative(f, x, 0)
        with pytest.raises(OutsideRegion):
            eval_derivative(f, np.append(points, x), orders)


# The extensions of the three benchmark workloads with the ladder of
# their sample traces (extend_readme and audit_dense share the one-point
# extension), and the polynomial jet whose bumps meet two anchors.
TRACES = {"one_point": 400, "cluster": 40, "polynomial": 2000}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(TRACES)),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.floats(0.98, 1.02)), min_size=1, max_size=30),
    onset=st.lists(st.integers(0, 10**6), max_size=3),
    orders=st.integers(0, 8) | st.lists(st.integers(0, 8), min_size=1, max_size=9),
    bad=st.sampled_from([None, "far", "deep"]),
)
def test_array_eval_derivative_is_the_scalar_call_bitwise(extensions, name, picks, onset, orders, bad):
    # Trace points jittered as the CLI jitters them, base points on the
    # set in between; every entry against the float call by float.hex.
    f = extensions[name]
    ladder = region_samples(f, TRACES[name]).tolist()
    xs = []
    for p, factor in picks:
        x = ladder[p % len(ladder)]
        d, nearest = distance_and_nearest(f.jet.e, x)
        if f.cover.d_min_covered <= d * factor < f.d_max:
            x = nearest + (x - nearest) * factor
        xs.append(x)
    for p in onset:
        xs.insert(p % (len(xs) + 1), f.jet.base_points[p % len(f.jet.base_points)])
    if bad is not None:
        # One point out of the band: past d_max, or below the cover depth.
        a = f.jet.base_points[-1]
        x = a + (2.0 * f.d_max if bad == "far" else 0.5 * f.cover.d_min_covered)
        with pytest.raises(OutsideRegion):
            eval_derivative(f, x, orders)
        with pytest.raises(OutsideRegion):
            eval_derivative(f, np.array(xs[:1] + [x] + xs[1:]), orders)
    got = eval_derivative(f, np.array(xs), orders)
    alphas = [orders] if isinstance(orders, int) else orders
    assert got.shape == (len(xs),) + (() if isinstance(orders, int) else (len(orders),))
    got = got.reshape(len(xs), len(alphas))
    for k, x in enumerate(xs):
        want = [eval_derivative(f, x, a).hex() for a in alphas]
        assert [v.hex() for v in got[k].tolist()] == want, (x, alphas)


@pytest.mark.parametrize("name", sorted(TRACES))
def test_array_eval_derivative_is_the_scalar_call_on_the_whole_ladder(extensions, name, monkeypatch):
    # Every ladder point, since the choice of reference polynomial moves
    # the bits of few of them (3 of the 400 one-point points).  The
    # polynomial ladder holds points whose live bumps carry two anchors,
    # where the array pass subtracts t_ref vectors from T_i rows and the
    # float call runs the distinct-center difference.
    f = extensions[name]
    xs = region_samples(f, TRACES[name])
    orders = np.arange(f.plan.folds + 1)
    apart = []
    difference = extension_engine._difference_derivatives

    def counted(t_i, t_ref, *rest):
        apart.append(t_i.center != t_ref.center)
        return difference(t_i, t_ref, *rest)

    monkeypatch.setattr(extension_engine, "_difference_derivatives", counted)
    got = eval_derivative(f, xs, orders)
    assert apart == []  # the array pass runs no scalar difference
    for k, x in enumerate(xs.tolist()):
        assert got[k].tobytes() == eval_derivative(f, x, orders).tobytes(), x
    assert any(apart) == (name == "polynomial")


def parent_verify_bounds(f, reg, *, samples: int = 400, alpha_cap: int = 8):
    """verify_bounds with per-sample Taylor vectors and per-order log terms.

    Its yardsticks are taken from the regularized matrix reg that f was
    assembled against: the interleaved row at xi and reg's own row 2xi.
    """
    plan = f.plan
    cap = min(int(alpha_cap), plan.folds, f.jet.alpha_max)
    notes: list[str] = []
    if cap < alpha_cap:
        notes.append(f"order cap clipped to {cap} by folds or stored jet order")
    xs = region_samples(f, samples)
    ld = plan.dilation
    k3 = plan.constants.k3
    value_row_log = interleave_matrix(reg, [plan.xi]).full_log_row(plan.xi).tolist()
    growth_row_log = reg.full_log_row(2.0 * plan.xi).tolist()

    taylor_ratios: list[float] = []
    taylor_ds: list[float] = []
    taylor_alpha: dict[int, float] = {}
    consis_ratios: list[float] = []
    consis_ds: list[float] = []
    consis_alpha: dict[int, float] = {}
    pair_i_ratios: list[float] = []
    pair_i_ds: list[float] = []
    pair_i_alpha: dict[int, float] = {}
    pair_x_ratios: list[float] = []
    pair_x_ds: list[float] = []
    pair_x_alpha: dict[int, float] = {}
    resid_raw: list[tuple[float, int, float]] = []
    growth_raw: list[tuple[float, int, float]] = []
    skipped_pair_i = 0
    skipped_pair_x = 0
    skipped_resid = 0
    cap_hits = 0
    cutoff_hits = 0

    # Per-interval decay values at the dilated center distance, and
    # whether the stored jet order caps the interval's degree.
    center_info: dict[int, tuple[float, float, bool]] = {}
    center_capped: dict[int, bool] = {}
    for i, c in enumerate(f.cover.centers):
        d_i, _ = distance_and_nearest(f.jet.e, float(c))
        lh, ok = _log_decay(f.degree_row, math.log(ld * d_i))
        center_info[i] = (d_i, lh, ok)
        center_capped[i] = requested_degree(f.degree_row, ld, d_i)[0] > f.jet.alpha_max

    for x in xs:
        x = float(x)
        d, xhat = distance_and_nearest(f.jet.e, x)
        anchor = nearest_base_point(f.jet, xhat)
        want, at_cut = requested_degree(f.degree_row, ld, d)
        cutoff_hits += at_cut
        deg = min(want, f.jet.alpha_max)
        cap_hits += deg < want
        t_x = taylor_poly(f.jet, anchor, deg)
        # Every vector below is evaluated once per sample and shared.
        members = terms(f, x)
        phis = PhiVectors(f.partition, x, cap)
        tx_vals = t_x.derivatives(x, cap)
        diffs_x = {
            i: _difference_derivatives(interval_poly(f, i), t_x, tx_vals, x, cap)
            for i in members
        }
        dev_x = _deviation_derivatives(diffs_x, phis, cap)
        t_ref = interval_poly(f, parent_reference_index(f, x))
        if t_ref == t_x:
            # Same anchor and degree: the glued sum is t_x plus dev_x.
            glued = dev_x.copy()
            for a in range(cap + 1):
                glued[a] += tx_vals[a]
        else:
            glued = _glued_derivatives(f, x, cap, members, phis, t_ref)

        lh_near, near_ok = _log_decay(f.degree_row, math.log(3.0 * ld * d))
        lh_resid, resid_ok = _log_decay(f.residual_row, math.log(k3 * ld * d))
        # The residual estimate presumes the local degrees actually reach
        # what the distance asks for; once the stored jet order caps them
        # the sum decays polynomially, not at the profile rate.
        capped_here = deg < want or any(center_capped[i] for i in members)

        for a in range(cap + 1):
            lhs = abs(tx_vals[a])
            log_rhs = (a + 1) * math.log(2.0 * ld) + value_row_log[a]
            r = _log_ratio(math.log(lhs), log_rhs) if lhs > 0.0 else 0.0
            taylor_ratios.append(r)
            taylor_ds.append(d)
            taylor_alpha[a] = max(taylor_alpha.get(a, 0.0), r)

            if a < want and a + 1 < len(value_row_log):
                lhs_c = abs(tx_vals[a] - f.jet.value(anchor, a))
                log_rhs_c = (
                    (a + 1) * math.log(2.0 * ld)
                    + math.lgamma(a + 1)
                    + value_row_log[a + 1]
                    - math.lgamma(a + 2)
                    + math.log(d)
                )
                r = _log_ratio(math.log(lhs_c), log_rhs_c) if lhs_c > 0.0 else 0.0
                consis_ratios.append(r)
                consis_ds.append(d)
                consis_alpha[a] = max(consis_alpha.get(a, 0.0), r)

            resid = abs(dev_x[a])
            if resid_ok and not capped_here:
                log_base = growth_row_log[a] + lh_resid
                resid_raw.append((math.log(resid) - log_base if resid > 0.0 else -math.inf, a, d))
            else:
                skipped_resid += 1

            total = abs(glued[a])
            growth_raw.append((math.log(total) - growth_row_log[a] if total > 0.0 else -math.inf, a, d))

        for i in members:
            d_i, lh_far, i_ok = center_info[i]
            dvals = diffs_x[i]
            for b in range(cap + 1):
                diff = abs(dvals[b]) if dvals is not None else 0.0
                log_diff = math.log(diff) if diff > 0.0 else -math.inf
                log_row = math.lgamma(b + 1) + f.degree_row.log_values[b]
                if i_ok:
                    log_rhs = (b + 1) * math.log(ld) + log_row + lh_far
                    r = _log_ratio(log_diff, log_rhs)
                    pair_i_ratios.append(r)
                    pair_i_ds.append(d_i)
                    pair_i_alpha[b] = max(pair_i_alpha.get(b, 0.0), r)
                else:
                    skipped_pair_i += 1
                if near_ok:
                    log_rhs = (b + 1) * math.log(3.0 * ld) + log_row + lh_near
                    r = _log_ratio(log_diff, log_rhs)
                    pair_x_ratios.append(r)
                    pair_x_ds.append(d)
                    pair_x_alpha[b] = max(pair_x_alpha.get(b, 0.0), r)
                else:
                    skipped_pair_x += 1

    # Fit one growth base per terminal estimate, in log space.  The base
    # is the worst (a + 1)-th root of the per-order log envelope, which
    # makes the companion constant at most one over the sample, so every
    # normalized ratio is bounded by one.
    def order_envelope(raw: list[tuple[float, int, float]]) -> dict[int, float]:
        env: dict[int, float] = {}
        for log_r, a, _ in raw:
            env[a] = max(env.get(a, -math.inf), log_r)
        return env

    def fit_log_base(env: dict[int, float]) -> float:
        vals = [v / (a + 1) for a, v in env.items() if v > -math.inf]
        return max([0.0] + vals)

    def slope_profile(env: dict[int, float]) -> list[float]:
        # Consecutive chord slopes of the log envelope.  A uniform base
        # exists exactly when these stabilize rather than keep growing,
        # so the order verdict is taken on this profile.  The normalized
        # per-order maxima rise toward one at the binding order by
        # construction and carry no verdict of their own.
        orders = sorted(a for a, v in env.items() if v > -math.inf)
        return [
            math.exp(min((env[a2] - env[a1]) / (a2 - a1), 700.0))
            for a1, a2 in zip(orders, orders[1:])
        ]

    resid_env = order_envelope(resid_raw)
    growth_env = order_envelope(growth_raw)
    log_m1 = fit_log_base(resid_env)
    log_m = fit_log_base(growth_env)
    m1 = math.exp(min(log_m1, 700.0))
    m = math.exp(min(log_m, 700.0))

    def normalize(raw, log_base):
        ratios, ds, per_alpha = [], [], {}
        for log_r, a, d in raw:
            r = math.exp(log_r - (a + 1) * log_base) if log_r > -math.inf else 0.0
            ratios.append(r)
            ds.append(d)
            per_alpha[a] = max(per_alpha.get(a, 0.0), r)
        return ratios, ds, per_alpha

    resid_n = normalize(resid_raw, log_m1)
    growth_n = normalize(growth_raw, log_m)

    checks = (
        finish_check("taylor_value_bound", taylor_ratios, taylor_ds, taylor_alpha, 0),
        finish_check("taylor_jet_consistency", consis_ratios, consis_ds, consis_alpha, 0),
        finish_check(
            "pair_difference_interval", pair_i_ratios, pair_i_ds, pair_i_alpha, skipped_pair_i
        ),
        finish_check(
            "pair_difference_point", pair_x_ratios, pair_x_ds, pair_x_alpha, skipped_pair_x
        ),
        finish_check(
            "residual_decay", resid_n[0], resid_n[1], resid_n[2], skipped_resid,
            fitted=m1, alpha_profile=slope_profile(resid_env),
        ),
        finish_check(
            "global_derivative_growth", growth_n[0], growth_n[1], growth_n[2], 0,
            fitted=m, alpha_profile=slope_profile(growth_env),
        ),
    )
    return BoundReport(
        checks=checks,
        sample_count=len(xs),
        alpha_cap=cap,
        fitted_m=m,
        fitted_m1=m1,
        degree_cap_hits=cap_hits,
        degree_cutoff_hits=cutoff_hits,
        plan=plan,
        notes=tuple(notes),
    )


@pytest.mark.parametrize(
    "name, alpha_cap, samples",
    [
        pytest.param("one_point", 8, 240, id="one_point-8"),
        pytest.param("two_points", 8, 240, id="two_points-8"),
        pytest.param("folds_12", 12, 240, id="folds_12-12"),
        # 24 samples glue around a t_ref other than t_x, and 5 have two
        # nonzero member differences, summed in member order.
        pytest.param("cluster", 8, 240, id="cluster-8"),
        # Every residual_decay sample is skipped: its tables are empty.
        pytest.param("power_09", 8, 240, id="power_09-8"),
        # The stored jet order caps the degree on 230 of 240 samples.
        pytest.param("log_squared", 8, 240, id="log_squared-8"),
        # One- and two-column tables.
        pytest.param("one_point", 0, 240, id="one_point-0"),
        pytest.param("one_point", 1, 240, id="one_point-1"),
        pytest.param("one_point", 8, 2000, id="one_point-8-2000"),
        # The sparse_audit config's 32 samples: residual_decay's bins span
        # under two decades, and four checks hold one bin in a window half.
        pytest.param("one_point", 8, 32, id="one_point-8-32"),
        # Some (sample, member) pairs join polynomials of distinct anchors.
        pytest.param("polynomial", 8, 2000, id="polynomial-8-2000"),
        # Every base point stores the weight row; the plan is on the row
        # certify picks (xi 1/4), not on a pinned one.
        pytest.param("weight_row", 8, 2000, id="weight_row-8-2000"),
        # The yardsticks come from the degree row's quotient view.
        pytest.param("hull_minorant", 8, 240, id="hull_minorant-8"),
    ],
)
def test_audit_matches_the_per_sample_audit(cases, name, alpha_cap, samples):
    f, reg = cases[name]
    got = verify_bounds(f, samples=samples, alpha_cap=alpha_cap).to_json()
    want = parent_verify_bounds(f, reg, samples=samples, alpha_cap=alpha_cap).to_json()
    assert json.dumps(got) == json.dumps(want)
    assert got["alpha_cap"] == alpha_cap


def test_audit_cases_reach_their_edge_tables(extensions):
    # What the cases above are there for, so a change of the fixtures
    # cannot quietly drop one.
    checks = {
        name: {c.name: c for c in verify_bounds(extensions[name], samples=240).checks}
        for name in ("power_09", "log_squared")
    }
    resid = checks["power_09"]["residual_decay"]
    assert resid.samples_used == 0 and resid.skipped > 0
    rep = verify_bounds(extensions["log_squared"], samples=240)
    assert rep.degree_cap_hits == 230 and rep.sample_count == 240
    # A yardstick built from the row's values instead of its quotients
    # would differ here.
    row = extensions["hull_minorant"].degree_row
    assert np.count_nonzero(np.array(row.log_quotients) != np.diff(row.log_values)) > 0


@pytest.mark.parametrize("name", ["one_point", "cluster", "log_squared"])
def test_requested_degrees_are_the_scalar_rule(extensions, name):
    f = extensions[name]
    ld, row = f.plan.dilation, f.degree_row
    xs = region_samples(f, 2000).tolist()
    # Points at distances whose threshold -log(ld * d) - slack equals a
    # quotient exactly (a tie) or sits an ulp of d away from one, and
    # points far past the last quotient (the cutoff).  Each set starts at
    # 0.0, so -d lies at distance d exactly.
    ties = 0
    for q in row.log_quotients[::3]:
        d = math.exp(-q - QUOTIENT_TIE_SLACK) / ld
        for _ in range(64):
            xs.append(-d)
            ties += -math.log(ld * d) - QUOTIENT_TIE_SLACK == q
            d = math.nextafter(d, 0.0)
    xs += [-1e-300, -1e-200, -1e-120]
    assert ties > 0
    local = _local_taylor(f.jet, row, ld, np.array(xs))
    want = [requested_degree(row, ld, distance_and_nearest(f.jet.e, x)[0]) for x in xs]
    assert list(zip(local.requested.tolist(), local.cutoff.tolist())) == want
    assert any(cut for _, cut in want) and not all(cut for _, cut in want)


@pytest.mark.parametrize("name", ["one_point", "cluster", "interval", "polynomial", "log_squared"])
def test_assembly_is_the_scalar_local_taylor_rule(extensions, name):
    # Every interval's polynomial, degree and flags against the scalar
    # rule at its center, and the counts assemble reports.
    f = extensions[name]
    caps = cutoffs = 0
    for i, c in enumerate(f.cover.centers.tolist()):
        d, xhat = distance_and_nearest(f.jet.e, c)
        want, at_cut = requested_degree(f.degree_row, f.plan.dilation, d)
        deg = min(want, f.jet.alpha_max)
        t = taylor_poly(f.jet, nearest_base_point(f.jet, xhat), deg)
        got = interval_poly(f, i)
        assert [v.hex() for v in (got.center, *got.derivs)] == [
            v.hex() for v in (t.center, *t.derivs)
        ]
        anchor = f.jet.base_points[f.local.anchor[i]]
        assert (anchor.hex(), f.local.degree[i], f.local.requested[i]) == (t.center.hex(), deg, want)
        assert f.local.cutoff[i] == at_cut
        caps += deg < want
        cutoffs += at_cut
    assert f.local.degree.dtype.kind == f.local.requested.dtype.kind == "i"
    local_caps = np.count_nonzero(f.local.degree < f.local.requested)
    assert (local_caps, np.count_nonzero(f.local.cutoff)) == (caps, cutoffs)


def test_assembly_builds_one_polynomial_per_anchor_and_degree(monkeypatch):
    # The eight cluster points: 630 intervals share 73 polynomials.
    made = []
    real = extension_engine.taylor_poly
    monkeypatch.setattr(
        extension_engine, "taylor_poly", lambda *args: made.append(args) or real(*args)
    )
    f, _ = gevrey_extension([0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81])
    assert len(f.local.which) == 630
    assert len(made) == len(set(made)) == len(set(f.local.polys)) == 73
    assert sorted(set(f.local.which.tolist())) == list(range(73))


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "ratios",
    [
        [NAN, 0.0, 2.0, INF, 1.0, 0.5, 3.0, 0.0],  # a leading NaN is the maximum
        [0.0, 2.0, NAN, 1.0, INF, 0.5, 3.0, 0.25],  # a later NaN is passed over
        [0.0, 2.0, NAN, 1.0, 0.5, 3.0, 0.25, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.5, INF, 0.0, 2.0],
    ],
)
def test_finish_check_takes_arrays_with_the_list_semantics(ratios):
    ds = np.geomspace(1e-9, 1e-1, len(ratios)).tolist()
    per_alpha = {a: r for a, r in enumerate(ratios[:3])}
    want = finish_check("check", ratios, ds, per_alpha, 1)
    got = finish_check("check", np.array(ratios), np.array(ds), per_alpha, 1)
    assert repr(got) == repr(want)
    assert repr(got.max_ratio) == repr(max(ratios))


@pytest.mark.parametrize(
    "skipped, note", [(0, "no usable samples"), (2160, "every sample was skipped")]
)
def test_finish_check_without_a_usable_sample_fails(skipped, note):
    check = finish_check("residual_decay", [], [], {}, skipped, notes=("cap",))
    assert check.passed is False
    assert (check.samples_used, check.skipped) == (0, skipped)
    assert check.notes == ("cap", note)


@st.composite
def ratio_tables(draw):
    """_ratio_check arguments: a table with zeros, NaN and inf, masks and binned distances.

    A wild table draws every entry and log_rhs from all floats.  A tame
    one grows like d^-p e^(s a) in distance d and order a, so its trends
    can come out bounded or growing, and carries a few special entries.
    """
    def cells(entry, shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(entry, min_size=size, max_size=size)), float).reshape(shape)

    rows, width = draw(st.integers(0, 40)), draw(st.integers(1, 9) | st.just(9))
    special = st.sampled_from([0.0, -0.0, 5e-324, 1e300, INF, -INF, NAN])
    # Rows fall in half-decade bins 0-8 of 1/d, several to a bin.
    bins = cells(st.integers(0, 8), (rows,)) + cells(st.floats(0.05, 0.95), (rows,))
    ds = 10.0 ** (-bins / 2.0)
    if draw(st.booleans()):
        values = cells(st.one_of(special, st.floats(-1e6, 1e6), st.floats()), (rows, width))
        rhs_entry = st.one_of(
            st.sampled_from([0.0, INF, -INF, NAN]), st.floats(-60.0, 60.0), st.floats(-1e4, 1e4)
        )
        log_rhs = cells(rhs_entry, draw(st.sampled_from([(width,), (rows, width)])))
    else:
        power = draw(st.sampled_from([0.0, 1.0, 3.0]))
        slope = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        values = cells(st.floats(1.0, 2.0), (rows, width)) * ds[:, None] ** -power
        values *= np.exp(slope * np.arange(width))
        spots = st.tuples(st.integers(0, max(values.size - 1, 0)), special)
        for k, v in draw(st.lists(spots, max_size=3 if values.size else 0)):
            values.flat[k] = v
        log_rhs = cells(st.sampled_from([0.0, 0.25]), (width,))
    kind = draw(st.sampled_from(["all", "rows", "columns", "entries", "none"]))
    if kind == "all":
        used = True
    else:
        shape = {"rows": (rows, 1), "columns": (1, width)}.get(kind, (rows, width))
        used = (cells(st.booleans(), shape) > 0) & (kind != "none")
    return values, log_rhs, ds, draw(st.integers(0, 40)), used, draw(st.booleans())


@given(ratio_tables())
# A leading NaN ratio (inf / e^inf), and a later one among two used entries.
@example((np.array([[INF, 1.0], [2.0, NAN]]), np.array([INF, 0.0]), np.array([0.1, 0.01]), 0, True, False))
@example((np.array([[1.0, INF]]), np.array([0.0, INF]), np.array([0.1]), 0, True, False))
@settings(max_examples=400, deadline=None)
def test_ratio_check_is_the_entry_verdict(args):
    # The verdict from row maxima against the one from a masked copy of the used entries.
    values, log_rhs, ds, skipped, used, terminal = args
    with np.errstate(all="ignore"):
        got = _ratio_check("check", values, log_rhs, ds, skipped, used, terminal)
        want = entry_ratio_check("check", values, log_rhs, ds, skipped, used, terminal)
    assert repr(got) == repr(want)


def test_audit_log_and_exp_are_libm_per_entry():
    # numpy's vectorized log and exp round differently from libm on some
    # inputs (the first three of each list did on one x86-64 build); the
    # audit's figures are libm's.  Each value sits in a column of its own,
    # so each is its column's maximum and must be libm's.
    vals = [1.0082016495047519, 0.969198109122836, -0.48041963949836897, 0.0, math.nan, 7e-300]
    mag, logs = _log_abs(np.array([vals]))
    _, env = libm_log_maxima(mag, 0.0, np.arange(len(vals)), len(vals), logs)
    want = [math.log(abs(v)) if abs(v) > 0.0 else -math.inf for v in vals]
    assert [v.hex() for v in env.tolist()] == [v.hex() for v in want]
    xs = [531.0938228084433, 335.7787464585925, 494.17133009082085, -math.inf, -745.5, 1.0]
    live = np.array([[True] * 5 + [False]])
    ones = np.ones((1, len(xs)))
    got = _bound_ratios(ones, np.log(ones), -np.array([xs]), live, np.array([0]), _capped)
    want = [math.exp(x) for x in xs[:5]] + [0.0]
    assert [v.hex() for v in got[0].tolist()] == [v.hex() for v in want]


def test_audit_maxima_hold_where_numpy_rounds_the_other_way():
    # numpy's log of v is an ulp below libm's, so the libm ratio a of an
    # entry (v, rest) lies two ulps above its numpy value; a second entry
    # of exact value mid sits between them.  Picking numpy's maximum alone
    # gives mid; the filter must keep both, in a column and in a bin.
    v = 5.927289139536661
    rest = math.log(v) + 3e-9
    a = math.exp(math.log(v) - rest)
    low = math.exp(float(np.log(v)) - rest)
    mid = math.nextafter(low, a)
    if not (low < mid < a and float(np.exp(math.log(mid))) == math.exp(math.log(mid)) == mid):
        pytest.skip("numpy's log or exp rounds as libm's here")
    mag = np.array([[v], [1.0]])
    rhs = np.array([[rest], [-math.log(mid)]])
    got = _bound_ratios(mag, np.log(mag), rhs, True, np.array([0, 0]), _capped)
    assert got.max() == a
    # Columns led by a third row in another bin: only the bin decides.
    mag, logs = _log_abs(np.array([[v, 0.0], [0.0, 1.0], [2.0, 2.0]]))
    rhs = np.array([[rest, 0.0], [0.0, -math.log(mid)], [0.0, 0.0]])
    got = _bound_ratios(mag, logs, rhs, True, np.array([3, 3, 4]), _capped)
    assert got[0, 0] == a and got[1, 1] == mid
    # The log envelope: numpy's need of (v, rest) falls below a second
    # entry's exact need mid, libm's lies above it.
    rest = float(np.float32(math.log(v)))
    mid = 0.5 * ((math.log(v) - rest) + (float(np.log(v)) - rest))
    mag = np.array([[v], [1.0]])
    _, env = libm_log_maxima(mag, np.array([[rest], [-mid]]), np.arange(1), 1, np.log(mag))
    assert float(np.log(v)) - rest < mid < math.log(v) - rest
    assert env.tolist() == [math.log(v) - rest]


def test_audit_sends_huge_log_ratios_to_libm(monkeypatch):
    # Past |log|v| - rhs| = 2^12 an ulp of the log ratio could exceed the
    # filter's width, so such an entry goes to libm whatever its value.
    sent = []
    real = extension_engine.libm
    monkeypatch.setattr(
        extension_engine, "libm", lambda fn, v: sent.append(v.tolist()) or real(fn, v)
    )
    mag, logs = _log_abs(np.array([[2.0], [3.0], [5.0]]))
    rhs = np.array([[5000.0], [0.0], [math.log(5.0) + 40.0]])
    got = _bound_ratios(mag, logs, rhs, True, np.array([0, 0, 0]), _capped)
    assert got[1, 0] == math.exp(math.log(3.0))
    assert sent == [[2.0, 3.0], [math.log(2.0) - 5000.0, math.log(3.0)]]


@pytest.mark.parametrize(
    "name, samples",
    # The partitions of the README job, the cluster job and audit_dense.
    [("one_point", 240), ("cluster", 240), ("one_point", 2000)],
)
def test_phi_derivatives_on_python_floats_are_the_numpy_scalar_rules(extensions, name, samples):
    f = extensions[name]
    mixed = 0
    for x in region_samples(f, samples).tolist():
        for i in memberships(f.cover, x)[1].tolist():
            got = f.partition.derivatives(i, x, f.plan.folds)
            want = numpy_phi_derivatives(f.partition, i, x, f.plan.folds)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
            mixed += 0.0 < got[0] < 1.0
    assert mixed > 0  # pairs that run the reciprocal and product rules


def test_audit_heap_peak_stays_below_the_per_sample_lists(extensions):
    # The per-sample audit held one Python float per (sample, order) in
    # each check's lists, and its tracemalloc peak on this run was 6.0 MB.
    f = extensions["one_point"]
    verify_bounds(f, samples=2000)  # pieces and phi rows built once
    tracemalloc.start()
    try:
        verify_bounds(f, samples=2000, alpha_cap=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.0e6


def test_two_point_audit_changes_anchor_and_reference(extensions):
    # The samples reach both anchors, and some of them glue around a
    # reference polynomial other than their own t_x, so the audit above
    # ran its t_ref != t_x branch.
    f = extensions["two_points"]
    anchors, other_ref = set(), 0
    for x in region_samples(f, 240).tolist():
        d, xhat = distance_and_nearest(f.jet.e, x)
        anchor = nearest_base_point(f.jet, xhat)
        want, _ = requested_degree(f.degree_row, f.plan.dilation, d)
        t_x = taylor_poly(f.jet, anchor, min(want, f.jet.alpha_max))
        anchors.add(anchor)
        other_ref += interval_poly(f, parent_reference_index(f, x)) != t_x
    assert anchors == {0.0, 0.23}
    assert other_ref > 0


@pytest.mark.parametrize("name", ["one_point", "two_points", "cluster", "folds_12", "log_squared"])
def test_array_lookup_matches_the_per_sample_lookup(extensions, name):
    # The audit's whole-sample geometry against the scalar helpers it
    # replaces, on every region sample: distances, nearest set points and
    # anchors by float.hex, members and reference intervals exactly.
    f = extensions[name]
    xs = region_samples(f, 2000)
    ds, hats = distances_and_nearest(f.jet.e, xs)
    local = _local_taylor(f.jet, f.degree_row, f.plan.dilation, xs)
    anchors = np.asarray(f.jet.base_points)[local.anchor]
    assert local.distance.tobytes() == ds.tobytes()
    cand, inside, expanded = f.cover.window_memberships(xs)
    grid = distance_grid(f.jet.e, xs)
    for k, x in enumerate(xs.tolist()):
        d, xhat = distance_and_nearest(f.jet.e, x)
        assert (ds[k].hex(), grid[k].hex(), hats[k].hex()) == (d.hex(), d.hex(), xhat.hex())
        assert anchors[k].hex() == nearest_base_point(f.jet, xhat).hex()
        want_in, want_ex = memberships(f.cover, x)
        assert cand[k][inside[k]].tolist() == want_in.tolist()
        assert cand[k][expanded[k]].tolist() == want_ex.tolist()
        assert parent_reference_index(f, x) == (want_in.tolist() or want_ex.tolist())[0]


def test_pair_classification_runs_once_per_distinct_pair(extensions, monkeypatch):
    # On the README extension at 2000 samples the (sample, member) pairs
    # fall on 26 distinct (T_i, t_x) pairs, every one on a shared center;
    # each _glue pass builds each of its differences once.
    f = extensions["one_point"]
    passes = []
    glue, difference = extension_engine._glue, extension_engine._shared_center_difference

    def counted_glue(*args):
        passes.append([])
        return glue(*args)

    def counted(t_i, t_ref):
        passes[-1].append((t_i, t_ref))
        return difference(t_i, t_ref)

    monkeypatch.setattr(extension_engine, "_glue", counted_glue)
    monkeypatch.setattr(extension_engine, "_shared_center_difference", counted)
    verify_bounds(f, samples=2000)
    assert len(passes[0]) == len(set(passes[0])) == 26
    assert all(len(calls) == len(set(calls)) for calls in passes)


def test_nan_point_is_outside_the_region_on_both_paths(extensions):
    # NaN has no distance to the set: the scalar and array distances are
    # NaN alike, and both evaluation paths refuse it by its distance.
    f = extensions["one_point"]
    d, p = distance_and_nearest(f.jet.e, math.nan)
    ds, ps = distances_and_nearest(f.jet.e, np.array([math.nan]))
    assert math.isnan(d) and math.isnan(p) and np.isnan(ds).all() and np.isnan(ps).all()
    for x in (math.nan, np.array([0.003, math.nan])):
        with pytest.raises(OutsideRegion, match="d\\(x\\)=nan is not below d_max"):
            eval_derivative(f, x, 0)


@pytest.mark.parametrize("order", [0, 3, 8, 40])
def test_taylor_vectors_are_the_scalar_derivative_vectors(extensions, order):
    # Rows of mixed degree (0, 1 and 32), shared centers, derivative
    # orders past the degree, and a difference polynomial with a -0.0 tail.
    jet = extensions["two_points"].jet
    polys = [
        taylor_poly(jet, 0.0, 32),
        taylor_poly(jet, 0.23, 0),
        taylor_poly(jet, 0.23, 1),
        TaylorPolynomial(0.0, (0.0, 0.0, 1e300, -0.0)),
    ]
    ys = np.array([0.01, -0.003, 0.25, 0.1, 1e-9, 0.2, 0.229, 0.3])
    which = np.array([0, 0, 1, 2, 3, 3, 2, 0])
    got = taylor_vectors(polys, which, ys, order)
    for r, (g, y) in enumerate(zip(which.tolist(), ys.tolist())):
        want = polys[g].derivatives(y, order)
        assert [v.hex() for v in got[r].tolist()] == [v.hex() for v in want]
