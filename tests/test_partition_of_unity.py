"""Bump splines, the normalized family, and its exact derivative extrema."""

import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraext import partition_of_unity as pou
from ultraext.errors import CoverOverlap, DegenerateSupport, UncoveredPoint
from ultraext.partition_of_unity import (
    MARGIN_FRACTION,
    Partition,
    PiecewisePolynomial,
    _eval_local,
    _taylor_shift,
    build_bump,
    build_partition,
    template_plateau,
)
from ultraext.whitney_geometry import (
    CompactSet1D,
    build_cover,
    covered_sample_grid,
    distance_grid,
)
from _reference import (
    bump,
    bump_row,
    derivative,
    integral,
    members,
    partition_value,
    piece_index,
    rebuilt,
    sup_norm,
    support,
)

EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=None)
def point_cover():
    return build_cover(CompactSet1D.from_points([0.0]), 1.0, max_generation=8)


@functools.lru_cache(maxsize=None)
def mixed_cover():
    return build_cover(CompactSet1D(((-1.0, 0.0), (1.0, 1.0))), 1.0, max_generation=7)


@functools.lru_cache(maxsize=None)
def point_partition():
    return build_partition(point_cover(), 8)


def placed(folds, centers, sides):
    """(placed breakpoints, rows) of the template at each (center, side), as build_partition places it."""
    template = build_bump(folds)
    centers, sides = np.asarray(centers, dtype=float), np.asarray(sides, dtype=float)
    rows = [
        tuple(tuple(c / s**m for m, c in enumerate(row)) for row in template.pieces)
        for s in sides.tolist()
    ]
    return centers[:, None] + sides[:, None] * template._bp, rows


def bumps(part):
    """Every bump of a partition as a checked PiecewisePolynomial."""
    return [bump(part, i) for i in range(len(part))]


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


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewisePolynomial((0.0,), ())
    with pytest.raises(ValueError):
        PiecewisePolynomial((0.0, 0.0), ((1.0,),))
    with pytest.raises(ValueError):
        PiecewisePolynomial((0.0, 1.0, 2.0), ((1.0,),))
    with pytest.raises(ValueError):
        PiecewisePolynomial((0.0, 1.0), ((),))
    with pytest.raises(ValueError):
        PiecewisePolynomial((0.0, 1.0), ((math.nan,),))


def test_piecewise_rows_of_mixed_length():
    # shorter rows are zero-padded; every row is still checked
    p = PiecewisePolynomial((0.0, 1.0, 2.0), ((1.0, 2.0), (3.0,)))
    assert p.degree == 1
    assert p(0.5) == 2.0 and p(1.5) == 3.0
    with pytest.raises(ValueError, match="empty"):
        PiecewisePolynomial((0.0, 1.0, 2.0), ((1.0, 2.0), ()))
    with pytest.raises(ValueError, match="finite"):
        PiecewisePolynomial((0.0, 1.0, 2.0), ((1.0, 2.0), (math.inf,)))
    with pytest.raises(ValueError, match="finite"):
        PiecewisePolynomial((0.0, 1.0, 2.0), ((1.0, 2.0), (3.0, -math.inf)))


def test_piecewise_evaluation_uses_local_coordinates():
    f = PiecewisePolynomial((0.0, 1.0, 3.0), ((0.0, 1.0), (1.0, -1.0)))
    assert f(0.5) == 0.5
    assert f(1.0) == 1.0  # right-continuous: the second piece owns x=1
    assert f(2.0) == 0.0
    assert f(3.0) == -1.0  # rightmost breakpoint belongs to the last piece
    assert f(-0.1) == 0.0 and f(3.1) == 0.0
    assert piece_index(f, 0.2) == 0
    assert piece_index(f, 3.0) == 1
    assert piece_index(f, 5.0) == -1
    assert support(f) == (0.0, 3.0)
    assert f.degree == 1
    out = f(np.array([0.5, 2.0, 10.0]))
    assert out.tolist() == [0.5, 0.0, 0.0]


def test_piecewise_derivative_and_integral():
    f = PiecewisePolynomial((0.0, 2.0), ((1.0, 0.0, 3.0),))
    g = derivative(f)
    assert g.pieces == ((0.0, 6.0),)
    assert g(1.0) == 6.0
    # integral of 1 + 3 t^2 over [0, 2] in the local variable
    assert integral(f) == 2.0 + 8.0


def test_sup_norm_exact_on_a_quadratic():
    f = PiecewisePolynomial((0.0, 1.0), ((0.0, 1.0, -1.0),))
    assert sup_norm(f) == 0.25
    g = PiecewisePolynomial((0.0, 1.0, 3.0), ((0.0, 1.0), (1.0, -1.0)))
    assert sup_norm(g) == 1.0  # attained at the middle breakpoint


def test_one_fold_template_frozen_values():
    # One fold of width 1/16 on [-17/32, 17/32]: linear ramps over
    # [-9/16, -1/2] and [1/2, 9/16], all dyadic, so every value is exact.
    b = build_bump(1)
    assert support(b) == (-0.5625, 0.5625)
    assert b.breakpoints == (-0.5625, -0.5, 0.5, 0.5625)
    assert b.degree == 1
    assert b(0.0) == 1.0 and b(0.5) == 1.0 and b(-0.5) == 1.0
    assert b(0.53125) == 0.5 and b(-0.53125) == 0.5
    assert b(0.5625) == 0.0 and b(-0.5625) == 0.0
    assert integral(b) == 1.0625


def test_plateau_support_and_range():
    b = build_bump(3)
    # The box width 1/48 is not dyadic, but the support ends and the core
    # ends are, and the core row is exactly (1, 0, ...).
    assert support(b) == (-0.5625, 0.5625)
    for x in (-0.5, -0.25, 0.0, 0.5):
        assert b(x) == 1.0
    xs = np.linspace(-0.6, 0.6, 2000)
    vals = b(xs)
    assert np.all(vals >= -1e-14) and np.all(vals <= 1.0 + 1e-14)
    assert abs(integral(b) - 1.0625) <= 1e-13


def test_single_fold_ramp_slope_is_exact():
    b = build_bump(1)
    assert sup_norm(derivative(b)) == 16.0  # 1 / width


def test_derivative_chain_bound():
    # Every derivative up to the fold count obeys (2 / width)^order.
    cap = 2.0 / (MARGIN_FRACTION / 8)
    cur = build_bump(8)
    assert sup_norm(cur) <= 1.0 + 1e-12
    for order in range(1, 9):
        cur = derivative(cur)
        assert sup_norm(cur) <= cap**order * (1.0 + 1e-12)


def test_single_bump_partition_is_identity():
    part = Partition.from_bumps(*placed(4, [0.5], [1.0]), 4)
    assert len(part) == 1
    for x in (-0.05, 0.0, 0.37, 1.0, 1.05):
        assert partition_value(part, 0, x) == 1.0
        assert part.derivatives(0, x, 4).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert partition_value(part, 0, 2.0) == 0.0
    assert part.sup_norm(0, 0) == 1.0
    assert part.sup_norm(0, 3) == 0.0


def test_two_bump_overlap_sums_to_one():
    part = Partition.from_bumps(*placed(3, [0.5, 1.5], [1.0, 1.0]), 3)
    xs = np.linspace(-0.05, 2.05, 4001)
    sums = part.values_matrix(xs).sum(axis=0)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    # both bumps genuinely alive somewhere in the overlap
    mid = part.values_matrix(np.array([1.0]))
    assert mid[0, 0] > 0.0 and mid[1, 0] > 0.0


@pytest.mark.parametrize("factory", [point_cover, mixed_cover])
def test_cover_partition_sums_to_one(factory):
    cover = factory()
    part = build_partition(cover, 8)
    xs = covered_sample_grid(cover, 10_000)
    assert xs.size >= 10_000
    sums = part.values_matrix(xs).sum(axis=0)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


@pytest.mark.parametrize("factory", [point_cover, mixed_cover])
def test_supports_stay_inside_expanded_intervals(factory):
    cover = factory()
    part = build_partition(cover, 8)
    halves = cover.expanded_halfwidths()
    for i, psi in enumerate(bumps(part)):
        lo, hi = support(psi)
        assert lo >= cover.centers[i] - halves[i] - 1e-12
        assert hi <= cover.centers[i] + halves[i] + 1e-12
        width = (1.0 + 2.0 * MARGIN_FRACTION) * cover.sides[i]
        assert abs((hi - lo) - width) <= 1e-12 * max(1.0, width)


def test_dropping_a_cell_breaks_coverage():
    cover = point_cover()
    drop = int(np.argsort(np.abs(cover.centers))[len(cover.centers) // 2])
    keep = [k for k in range(len(cover.centers)) if k != drop]
    broken = rebuilt(
        cover,
        centers=tuple(cover.centers[k] for k in keep),
        sides=tuple(cover.sides[k] for k in keep),
        generations=tuple(cover.generations[k] for k in keep),
    )
    with pytest.raises(UncoveredPoint):
        build_partition(broken, 3)


def test_build_partition_rejects_bad_parameters():
    cover = point_cover()
    with pytest.raises(ValueError):
        build_partition(cover, 0)
    narrow = build_cover(
        CompactSet1D.from_points([0.0]), 1.0, expansion=1.05, max_generation=4
    )
    with pytest.raises(ValueError):
        build_partition(narrow, 3)
    with pytest.raises(ValueError):
        Partition.from_bumps(np.empty((0, 2)), [], 2)


def test_build_partition_refuses_a_cover_the_window_cannot_serve():
    # At expansion 1.9 an expanded interval reaches its neighbour's
    # center, so the two-interval window of window_memberships could
    # miss members; build_partition is where every extension's cover
    # is checked for it.
    with pytest.raises(CoverOverlap):
        build_partition(rebuilt(point_cover(), expansion=1.9), 8)


def test_order_caps():
    part = point_partition()
    with pytest.raises(ValueError):
        part.derivatives(0, 0.5, 9)
    with pytest.raises(ValueError):
        part.derivatives(0, 0.5, -1)
    with pytest.raises(ValueError):
        part.sup_norm(0, 9)


def test_quotient_derivatives_match_difference_oracle():
    part = point_partition()
    bp = part.breakpoints
    cands = [
        j
        for j, act in enumerate(part.piece_active)
        if len(act) >= 2 and bp[j + 1] - bp[j] > 5e-4
    ]
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for j in rng.choice(cands, size=10, replace=False):
        w = float(bp[j + 1] - bp[j])
        i = int(rng.choice(part.piece_active[j]))
        probe = bp[j] + w * np.linspace(0.25, 0.75, 25)
        for order in range(1, 5):
            mags = [abs(part.derivatives(i, float(x), order)[order]) for x in probe]
            x0 = float(probe[int(np.argmax(mags))])
            exact = part.derivatives(i, x0, order)[order]
            approx = fd_deriv(lambda t: partition_value(part, i, t), x0, order, w / 10.0)
            worst = max(worst, abs(approx - exact) / abs(exact))
    assert worst <= 1e-6


def test_derivative_sums_of_the_family_vanish():
    part = point_partition()
    cover = point_cover()
    xs = covered_sample_grid(cover, 64)[::7]
    for x in xs:
        idx = members(cover, float(x), expanded=True)
        stack = np.array([part.derivatives(int(i), float(x), 4) for i in idx])
        sums = stack.sum(axis=0)
        scale = max(1.0, float(np.max(np.abs(stack))))
        assert abs(sums[0] - 1.0) <= 1e-9 * scale
        assert np.max(np.abs(sums[1:])) <= 1e-9 * scale


def test_sup_norm_dominates_dense_grid():
    part = point_partition()
    i = len(part) // 2
    lo, hi = support(bump(part, i))
    xs = np.linspace(lo, hi, 2001)
    for order in (1, 3):
        exact = part.sup_norm(i, order)
        grid = max(abs(part.derivatives(i, float(x), order)[order]) for x in xs)
        assert grid <= exact * (1.0 + 1e-9)
        assert exact <= grid * 1.05


@settings(max_examples=60, deadline=None)
@given(
    center=st.floats(-5.0, 5.0),
    log_side=st.integers(-10, 2),
    folds=st.integers(1, 4),
)
def test_bump_profile_properties(center, log_side, folds):
    # The template placed on the interval (center, side): one on the
    # core, supported on the core widened by a margin of side / 16.
    side = 2.0**log_side
    at, rows = placed(folds, [center], [side])
    b = PiecewisePolynomial(tuple(at[0].tolist()), rows[0])
    core = (center - 0.5 * side, center + 0.5 * side)
    margin = side * MARGIN_FRACTION
    slo, shi = support(b)
    assert abs(slo - (core[0] - margin)) <= 1e-12 * max(1.0, abs(center) + side)
    assert abs(shi - (core[1] + margin)) <= 1e-12 * max(1.0, abs(center) + side)
    for t in (0.0, 0.5, 1.0):
        assert abs(b(core[0] + t * side) - 1.0) <= 1e-12
    xs = np.linspace(slo, shi, 500)
    vals = b(xs)
    assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
    assert abs(b(slo)) <= 1e-12 and abs(b(shi)) <= 1e-12
    target = side + margin
    assert abs(integral(b) - target) <= 1e-10 * max(1.0, target)


# Reference kernels: the Taylor shift on float64 arrays, and the
# partition rows by a scan over pieces x bumps.  The pure-float kernel
# and the support-indexed partition must match them bit for bit, signed
# zeros included.


def ref_taylor_shift(coeffs, shift):
    out = np.array(coeffs, dtype=float)
    n = out.size
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += shift * out[j + 1]
    return out


def ref_partition_rows(part):
    """(active, coeffs, total) per refinement piece by the pieces x bumps scan."""
    polys = bumps(part)
    all_bp = np.unique(np.concatenate([b._bp for b in polys]))
    rows = []
    for j in range(all_bp.size - 1):
        t = float(all_bp[j])
        mid = 0.5 * (all_bp[j] + all_bp[j + 1])
        act, cfs = [], []
        for i, psi in enumerate(polys):
            k = piece_index(psi, mid)
            if k < 0:
                continue
            act.append(i)
            cfs.append(ref_taylor_shift(psi.pieces[k], t - psi.breakpoints[k]))
        tot = np.zeros(max((c.size for c in cfs), default=1))
        for c in cfs:
            tot[: c.size] += c
        rows.append((tuple(act), cfs, tot))
    return rows


def raw(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_partition_matches_scan(part):
    ref = ref_partition_rows(part)
    assert len(part.piece_active) == len(ref)
    for j, (act, cfs, tot) in enumerate(ref):
        assert part.piece_active[j] == act
        got_cfs, got_tot = part.piece(j)
        assert [raw(c) for c in got_cfs] == [raw(c) for c in cfs]
        assert raw(got_tot) == raw(tot)


COEFF = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
NONZERO = st.floats(-50.0, 50.0, allow_nan=False).filter(lambda v: v != 0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10).flatmap(lambda d: st.lists(COEFF, min_size=d + 1, max_size=d + 1)),
       NONZERO)
def test_taylor_shift_matches_numpy_reference(coeffs, shift):
    assert raw(_taylor_shift(coeffs, shift)) == raw(ref_taylor_shift(coeffs, shift))
    as_numpy = _taylor_shift(np.array(coeffs), np.float64(shift))
    assert raw(as_numpy) == raw(ref_taylor_shift(coeffs, shift))


def test_template_rows_beyond_float_range_raise(monkeypatch):
    # With a margin of 1e-12 the exact rows at 30 folds exceed float
    # range; rounding them must raise rather than store infinities.
    # (With the template's own margin of 1/16 they first overflow
    # between 150 and 170 folds.)
    monkeypatch.setattr(pou, "MARGIN_FRACTION", 1e-12)
    with pytest.raises(ValueError, match="finite"):
        build_bump(30)


def test_partition_matches_scan_on_three_point_cover():
    cover = build_cover(CompactSet1D.from_points([0.0, 0.3, 0.7]), 1.0, max_generation=6)
    part = build_partition(cover, 3)
    assert max(map(len, part.piece_active)) >= 2
    assert_partition_matches_scan(part)


def test_partition_matches_scan_on_nested_and_shared_supports():
    # Supports at folds 4 are center +- 9/16 side, all dyadic here.
    at, rows = placed(
        4,
        [
            0.0,  # support [-2.25, 2.25]
            0.5,  # nested inside the first, sharing no breakpoint with it
            0.5,  # the same center, a narrower side: nested in the second
            3.0,  # beyond a gap no bump covers; ends at 3.5625 ...
            4.125,  # ... where this one starts: a shared breakpoint
            7.0,  # beyond another gap
        ],
        [4.0, 0.5, 0.25, 1.0, 1.0, 2.0],
    )
    part = Partition.from_bumps(at, rows, 4)
    assert () in part.piece_active
    assert_partition_matches_scan(part)


def test_live_bumps_match_the_per_bump_slices():
    # The array fill of piece_active against one support slice per bump
    # (midpoints from the first >= start to the last <= end), on the
    # 630-interval cover of the eight cluster points.
    cover = build_cover(CompactSet1D.from_points(CLUSTER_POINTS), 1.0, max_generation=44)
    part = build_partition(cover, 8)
    bp = part.breakpoints
    mids = 0.5 * (bp[:-1] + bp[1:])
    live = [[] for _ in range(mids.size)]
    for i, row in enumerate(part.placed):
        lo = int(np.searchsorted(mids, row[0], side="left"))
        hi = int(np.searchsorted(mids, row[-1], side="right"))
        for j in range(lo, hi):
            live[j].append(i)
    assert part.piece_active == tuple(map(tuple, live))
    assert type(part.piece_active) is tuple
    assert {type(i) for act in part.piece_active for i in act} == {int}
    assert {len(act) for act in part.piece_active} == {0, 1, 2}


# Eight points with irregular, non-dyadic gaps, as in the extend_cluster
# benchmark workload.
CLUSTER_POINTS = (0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81)


@pytest.mark.parametrize("points", [(0.0,), CLUSTER_POINTS])
@pytest.mark.parametrize("folds", [1, 2, 4, 8, 16])
def test_placed_template_matches_the_placed_oracle(points, folds):
    # Bump (c, s) is the rounded exact template placed at (c, s): each
    # breakpoint c + s*b and each coefficient row[m] / s**m, taken exactly
    # and rounded once.  Sides are powers of two, so the placement's float
    # arithmetic rounds only the sum c + s*b.
    cover = build_cover(CompactSet1D.from_points(points), 1.0, max_generation=40)
    part = build_partition(cover, folds)
    bp, rows = rounded_template(folds)
    scaled = {}
    for c, s, psi in zip(cover.centers.tolist(), cover.sides.tolist(), bumps(part)):
        want = [float(Fraction(c) + Fraction(s) * Fraction(b)) for b in bp]
        assert raw(psi.breakpoints) == raw(want)
        if s not in scaled:
            scaled[s] = [
                [float(Fraction(v) / Fraction(s) ** m) for m, v in enumerate(row)] for row in rows
            ]
        assert [raw(r) for r in psi.pieces] == [raw(r) for r in scaled[s]]


def test_deepest_template_bumps_stay_smooth():
    cover = build_cover(CompactSet1D.from_points([0.0]), 1.0, max_generation=44)
    part = build_partition(cover, 8)
    assert min(len(b.breakpoints) for b in bumps(part)) > 2
    deep = cover.sides == cover.sides.min()
    xs = np.concatenate(
        [cover.centers[deep] + t * cover.sides[deep] for t in (-0.5, -0.25, 0.0, 0.25, 0.5)]
    )
    sums = part.values_matrix(xs).sum(axis=0)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "point, generations, reason", [(1000.0, 40, "strictly increasing"), (0.0, 125, "finite")]
)
def test_unresolvable_placement_raises_degenerate_support(point, generations, reason):
    # Near 1000 the deepest sides span fewer ulps than the template has
    # breakpoints; at 0, sides near 1e-37 make the rows divided by
    # side**m overflow.
    cover = build_cover(CompactSet1D.from_points([point]), 1.0, max_generation=generations)
    with pytest.raises(DegenerateSupport, match=f"center .*, side .*{reason}"):
        build_partition(cover, 8)


def test_piece_rows_are_built_on_first_read_only(monkeypatch):
    cover = build_cover(CompactSet1D.from_points([0.0]), 1.0, max_generation=44)
    built = build_partition(cover, 8)
    calls = []
    real = pou._taylor_shift
    monkeypatch.setattr(pou, "_taylor_shift", lambda *a: calls.append(a) or real(*a))
    part = Partition.from_bumps(built.placed, built.rows, 8)
    assert calls == []
    j = next(j for j, act in enumerate(part.piece_active) if len(act) >= 2)
    x = float(0.5 * (part.breakpoints[j] + part.breakpoints[j + 1]))
    first = part.derivatives(part.piece_active[j][0], x, 8)
    assert len(calls) == len(part.piece_active[j])
    assert raw(part.derivatives(part.piece_active[j][0], x, 8)) == raw(first)
    assert len(calls) == len(part.piece_active[j])


@pytest.mark.parametrize("points, folds", [((0.0, 0.3, 0.7), 3), (CLUSTER_POINTS, 8)])
def test_total_matches_the_piecewise_total(points, folds):
    cover = build_cover(CompactSet1D.from_points(list(points)), 1.0, max_generation=40)
    part = build_partition(cover, folds)
    bp = part.breakpoints
    want = PiecewisePolynomial(
        tuple(bp.tolist()), tuple(part.piece(j)[1] for j in range(bp.size - 1))
    )
    span = bp[-1] - bp[0]
    xs = np.concatenate(
        [
            bp,
            0.5 * (bp[:-1] + bp[1:]),
            covered_sample_grid(cover, 4096),
            [bp[0] - span, np.nextafter(bp[0], -np.inf), np.nextafter(bp[-1], np.inf)],
        ]
    )
    assert raw(part.total(xs)) == raw(want(xs))
    x = float(xs[bp.size + 1])
    assert isinstance(part.total(x), float)
    assert part.total(x) == want(x)


def test_piece_rows_that_overflow_raise_on_read():
    huge = np.array([[0.0, 1.0], [0.0, 1.0]]), [((1e308,),), ((1e308,),)]
    part = Partition.from_bumps(*huge, 1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        part.piece(0)


def polyder_derivative_values(coeffs, t, order):
    """_derivative_values with each derivative row taken by npoly.polyder."""
    out = np.empty(order + 1)
    cur = np.asarray(coeffs, dtype=float)
    for m in range(order + 1):
        out[m] = _eval_local(cur, t)
        cur = np.polynomial.polynomial.polyder(cur) if cur.size > 1 else np.zeros(1)
    return out


def test_derivative_values_match_the_polyder_chain():
    rng = np.random.default_rng(17)
    rows = [np.zeros(1), np.zeros(9), np.array([2.5]), np.array([0.0, -0.0, 3.0])]
    rows += [rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n) for n in range(1, 14)]
    for row in rows:
        for t in (0.0, 1e-7, 0.37, float(rng.uniform(0.0, 2.0))):
            for order in (0, 1, len(row) - 1, len(row) + 2):
                got = pou._derivative_values(row, t, order)
                want = polyder_derivative_values(row, t, order)
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


# The template in exact arithmetic: the core [-17/32, 17/32] convolved
# with `folds` unit-mass boxes of width 1/(16 folds) is a difference of
# two Irwin-Hall distribution functions (integrated cardinal B-splines).


def exact_template_rows(folds, lefts, mids):
    """Rows of the exact template on each piece, expanded at its left end."""
    w = Fraction(1, 16 * folds)
    half = Fraction(folds, 2)
    rows = []
    for t, mid in zip(lefts, mids):
        row = [Fraction(0)] * (folds + 1)
        for sign, end in ((1, Fraction(-17, 32)), (-1, Fraction(17, 32))):
            s_mid = (mid - end) / w + half  # Irwin-Hall argument at the midpoint
            if s_mid >= folds:
                row[0] += sign
                continue
            for k in range(math.floor(s_mid) + 1) if s_mid > 0 else ():
                alpha = (t - end) / w + half - k
                for m in range(folds + 1):
                    row[m] += (
                        sign * (-1) ** k * math.comb(folds, k) * math.comb(folds, m)
                        * alpha ** (folds - m) / w**m / math.factorial(folds)
                    )
        rows.append(row)
    return rows


def rounded_template(folds):
    """The exact template rounded once: (breakpoints, rows) as floats.

    Each breakpoint is its exact value rounded; each row is the exact
    piece expanded at that rounded breakpoint, then rounded entry by entry.
    """
    w = Fraction(1, 16 * folds)
    bp = sorted(
        float(end + (k - Fraction(folds, 2)) * w)
        for end in (Fraction(-17, 32), Fraction(17, 32))
        for k in range(folds + 1)
    )
    exact_bp = [Fraction(b) for b in bp]
    mids = [(a + b) / 2 for a, b in zip(exact_bp, exact_bp[1:])]
    rows = [[float(c) for c in row] for row in exact_template_rows(folds, exact_bp[:-1], mids)]
    return bp, rows


@pytest.mark.parametrize("folds", [*range(1, 13), 16])
def test_float_template_matches_the_rational_template(folds):
    # Every breakpoint and coefficient is the exact value rounded once,
    # bit for bit.
    template = build_bump(folds)
    want_bp, want_rows = rounded_template(folds)
    assert raw(template.breakpoints) == raw(want_bp)
    assert [raw(row) for row in template.pieces] == [raw(row) for row in want_rows]
    bp = [Fraction(b) for b in template.breakpoints]

    # The certificate, computed from the float rows, claims no more than
    # the exact template: a plateau holding the exact one, [-1/2, 1/2]
    # (where the exact template is 1), and a floor next to the exact 0.
    # Floors measured: -0.25 eps at folds 3, above -0.04 eps elsewhere.
    q0, q1, floor = template_plateau(template)
    assert bp[q0] <= Fraction(-1, 2) and bp[q1] >= Fraction(1, 2)
    assert -EPS <= floor <= 0.0


def test_every_dropped_band_cell_raises_uncovered_point():
    # The README cover; a 2048-point sample of the bump total missed 12
    # of these 86 drops.  A drop that uncovers band points must raise; a
    # drop whose whole core lies below d_min_covered uncovers none.
    cover = build_cover(CompactSet1D.from_points([0.0]), 1.0, max_generation=44)
    d_center = distance_grid(cover.e, cover.centers)
    half = 0.5 * cover.sides
    d_far = np.maximum(
        distance_grid(cover.e, cover.centers - half), distance_grid(cover.e, cover.centers + half)
    )
    raised = passed = 0
    for drop in range(len(cover)):
        keep = np.arange(len(cover)) != drop
        broken = rebuilt(
            cover,
            centers=cover.centers[keep],
            sides=cover.sides[keep],
            generations=cover.generations[keep],
        )
        if d_center[drop] >= cover.d_min_covered:
            with pytest.raises(UncoveredPoint):
                build_partition(broken, 8)
            raised += 1
        elif d_far[drop] < cover.d_min_covered:
            build_partition(broken, 8)
            passed += 1
    assert passed >= 1 and raised + passed == len(cover)


def test_build_partition_materializes_no_bump_and_no_piece():
    cover = build_cover(CompactSet1D.from_points(list(CLUSTER_POINTS)), 1.0, max_generation=44)
    part = build_partition(cover, 8)
    assert part._pieces == {}
    # Bump i is held as the template placed at (c, s), never built.
    template = build_bump(8)
    c, s = float(cover.centers[3]), float(cover.sides[3])
    assert raw(part.placed[3]) == raw(c + s * template._bp)
    assert part.rows[3] is part.rows[int(np.argmax(cover.sides == s))]


def one_interval(center, side):
    """The one-point cover with its intervals replaced by (center, side)."""
    cover = point_cover()
    return rebuilt(
        cover, centers=np.array([center]), sides=np.array([side]), generations=np.array([1])
    )


@pytest.mark.parametrize(
    "condition",
    [
        "two breakpoints",
        "finite breakpoints",
        "increasing breakpoints",
        "row per piece",
        "nonempty rows",
        "finite rows",
    ],
)
def test_placement_check_enforces_each_piecewise_condition(condition):
    # Partition.piece reads the placed arrays without PiecewisePolynomial's
    # checks, so each condition they make must hold for every placement
    # that build_partition accepts: the data ones by the array check, the
    # shape ones by the template.
    rejected = {
        "finite breakpoints": ((math.inf, 1.0), "breakpoints must be finite"),
        "increasing breakpoints": ((1000.0, 1e-14), "breakpoints must be strictly increasing"),
        "finite rows": ((0.0, 1e-40), "coefficients must be finite"),
    }
    if condition in rejected:
        (center, side), message = rejected[condition]
        with pytest.raises(DegenerateSupport, match=re.escape(f"center {center}, side {side}: {message}")):
            build_partition(one_interval(center, side), 8)
        return
    template = build_bump(8)
    cover = build_cover(CompactSet1D.from_points(list(CLUSTER_POINTS)), 1.0, max_generation=44)
    part = build_partition(cover, 8)
    n = part.placed.shape[1]
    if condition == "two breakpoints":
        assert n == len(template.breakpoints) >= 2
    elif condition == "row per piece":
        assert all(len(rows) == n - 1 for rows in part.rows)
    else:
        lengths = [len(row) for row in template.pieces]
        assert min(lengths) >= 1
        assert all([len(row) for row in rows] == lengths for rows in part.rows)


@pytest.mark.parametrize("points", [(0.0,), CLUSTER_POINTS])
def test_placed_bumps_equal_the_checked_construction(points):
    # Each bump (placed[i], rows[i]) passes PiecewisePolynomial's checks,
    # and values_matrix is that bump over the total, bit for bit.
    cover = build_cover(CompactSet1D.from_points(list(points)), 1.0, max_generation=44)
    part = build_partition(cover, 8)
    xs = covered_sample_grid(cover, 512)
    got = part.values_matrix(xs)
    totals = part.total(xs)
    for i, want in enumerate(bumps(part)):
        assert raw(want._bp) == raw(part.placed[i]) and want.pieces is part.rows[i]
        quotient = want(xs) / np.where(totals > 0.0, totals, 1.0)
        assert raw(got[i]) == raw(np.where(totals > 0.0, quotient, 0.0))


@pytest.mark.parametrize("folds", range(1, 9))
def test_piece_rows_are_the_built_bump_route(folds):
    # Partition.piece finds each bump's piece in the placed arrays; the
    # route through the built bump is its oracle, on every piece of the
    # cluster cover.  Fold counts 3, 5, 6 and 7 move the template's
    # breakpoints off the dyadic grid.
    template = build_bump(folds)
    dyadic = all((b * 2.0**20).is_integer() for b in template.breakpoints)
    assert dyadic == (folds not in (3, 5, 6, 7))
    cover = build_cover(CompactSet1D.from_points(list(CLUSTER_POINTS)), 1.0, max_generation=44)
    part = build_partition(cover, folds)
    polys = bumps(part)
    bp = part.breakpoints
    for j, act in enumerate(part.piece_active):
        t, mid = float(bp[j]), float(0.5 * (bp[j] + bp[j + 1]))
        got, _ = part.piece(j)
        assert [raw(c) for c in got] == [raw(bump_row(polys[i], t, mid)) for i in act]
