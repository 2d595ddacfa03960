"""Compact sets, distance oracles, and the Whitney interval cover."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraext import whitney_geometry
from ultraext.cli import main as cli_main
from ultraext.errors import EmptyCover
from ultraext.whitney_geometry import (
    EXPANDED_CLEARANCE,
    CompactSet1D,
    build_cover,
    covered_sample_grid,
    distance_grid,
    distances_and_nearest,
    sorted_unique,
    verify_eq14,
)
from _reference import distance_and_nearest, eq14_loop, members, overlap_counts, rebuilt, stack_cover

POINT = CompactSet1D.from_points([0.0])
MIXED = CompactSet1D.from_intervals([(-1.0, 0.0), (1.0, 1.0)])


def test_compact_set_validation():
    with pytest.raises(ValueError):
        CompactSet1D(())
    with pytest.raises(ValueError):
        CompactSet1D(((0.0, -1.0),))
    with pytest.raises(ValueError):
        CompactSet1D(((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        CompactSet1D(((0.0, math.inf),))
    assert distance_grid(MIXED, [-0.5, 0.5]).tolist() == [0.0, 0.5]
    assert MIXED.span == (-1.0, 1.0)


def test_distance_examples():
    ds, ps = distances_and_nearest(MIXED, [0.25, 0.7, -0.5, 0.5])
    assert ds[0] == 0.25 and ds[1] == pytest.approx(0.3, abs=1e-15) and ds[2:].tolist() == [0.0, 0.5]
    # the tie between 0 and 1 at 0.5 resolves toward the smaller coordinate
    assert ps.tolist() == [0.0, 1.0, -0.5, 0.0]


@settings(max_examples=150, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_distance_nearest_consistency(x):
    ds, ps = distances_and_nearest(MIXED, [x])
    assert abs(x - ps[0]) == ds[0]
    assert distance_grid(MIXED, ps).tolist() == [0.0]
    assert distance_grid(MIXED, [x])[0] == ds[0]


def test_cover_contains_the_expected_interval():
    cov = build_cover(POINT, 1.0)
    match = [
        (c, s, g)
        for c, s, g in zip(cov.centers, cov.sides, cov.generations)
        if c == 0.375 and s == 0.25
    ]
    assert match, "interval [1/4, 1/2] missing from the cover of (0, 1]"


def test_cover_sides_track_center_distance():
    for e in (POINT, MIXED):
        cov = build_cover(e, 1.0)
        d_c = distance_grid(e, cov.centers)
        assert np.all(cov.sides <= d_c)
        assert np.all(d_c < 2.5 * cov.sides)
        # the spec window is wider; stay inside it
        assert np.all(d_c <= 4.0 * cov.sides)


def test_expanded_intervals_avoid_e():
    for e in (POINT, MIXED):
        cov = build_cover(e, 1.0)
        half = cov.expanded_halfwidths()
        lo = cov.centers - half
        hi = cov.centers + half
        # closest approach of Q_i* to E stays at least 7/16 of a side
        d_lo = distance_grid(e, lo)
        d_hi = distance_grid(e, hi)
        margin = EXPANDED_CLEARANCE * cov.sides
        assert np.all(np.minimum(d_lo, d_hi) >= margin - 1e-12)


def test_eq14_exact_example_point():
    cov = build_cover(POINT, 1.0)
    rep = verify_eq14(cov, [15.0 / 64.0])
    assert rep.ok
    assert rep.checked == 2
    assert rep.worst_upper == pytest.approx(1.6, abs=1e-15)
    assert rep.worst_lower == pytest.approx(0.8, abs=1e-15)


def test_eq14_center_ratio_is_one():
    cov = build_cover(POINT, 1.0)
    rep = verify_eq14(cov, [cov.centers[len(cov) // 2]])
    assert rep.ok
    assert rep.worst_lower <= 1.0 <= rep.worst_upper


def test_eq14_and_overlap_on_dense_samples():
    for e in (POINT, MIXED):
        cov = build_cover(e, 1.0)
        xs = covered_sample_grid(cov, 10_000)
        assert len(xs) >= 10_000
        rep = verify_eq14(cov, xs)
        assert rep.ok, rep.violations[:3]
        assert rep.worst_lower >= 0.5 and rep.worst_upper <= 3.0
        assert rep.max_overlap == overlap_counts(cov, xs).max() <= 3
        assert min(len(members(cov, x)) for x in xs) >= 1


@pytest.mark.parametrize("xs", [[], [100.0]])
def test_eq14_without_a_checked_sample_fails(xs):
    # No sample, or none on an expanded interval, shows nothing.
    rep = verify_eq14(build_cover(POINT, 1.0), xs)
    assert rep.checked == 0 and not rep.violations
    assert not rep.ok


def test_eq14_negative_control_expansion_3():
    cov = build_cover(POINT, 1.0)
    bad = rebuilt(cov, expansion=3.0)
    rep = verify_eq14(bad, covered_sample_grid(bad, 2000))
    assert not rep.ok
    assert rep.violations


def test_empty_cover_raised():
    with pytest.raises(EmptyCover):
        build_cover(POINT, 1.0, max_generation=0)


def test_cover_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_cover(POINT, 0.0)
    with pytest.raises(ValueError):
        build_cover(POINT, 1.0, expansion=2.5)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cover_window_for_random_sets(data):
    k = data.draw(st.integers(1, 3))
    pts = sorted(
        data.draw(
            st.lists(
                st.floats(-2.0, 2.0).map(lambda v: round(v, 3)),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
    )
    e = CompactSet1D.from_points(pts)
    cov = build_cover(e, 0.5, max_generation=24)
    d_c = distance_grid(e, cov.centers)
    assert np.all(cov.sides <= d_c)
    assert np.all(d_c < 2.5 * cov.sides)
    xs = covered_sample_grid(cov, 500)
    assert min(len(members(cov, x)) for x in xs) >= 1
    assert overlap_counts(cov, xs).max() <= 3
    # The precondition of the two-interval window build_partition checks:
    # no expanded interval reaches a neighbouring center.
    half, gaps = cov.expanded_halfwidths(), np.diff(cov.centers)
    assert ((gaps > half[:-1]) & (gaps > half[1:])).all()


def test_csv_dump_round_trips(tmp_path):
    # cover-dump's cover.csv, byte for byte what csv.writer renders from
    # the cover's own arrays, and every value reads back exactly.
    # At 1.9 the distance check fails (exit 2), and the CSV is written still.
    cases = [([0.0], 1.125, 0), ([0.0, 0.3, 0.7], 1.9, 2)]
    for k, (points, expansion, code) in enumerate(cases):
        doc = {"set": {"points": points}, "cover": {"expansion": expansion}}
        cfg = tmp_path / f"cover{k}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"out{k}"
        assert cli_main(["cover-dump", "--config", str(cfg), "--out", str(out)]) == code
        cov = build_cover(CompactSet1D.from_points(points), 1.0, expansion=expansion)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["center", "side", "generation"])
        for c, s, g in zip(cov.centers, cov.sides, cov.generations):
            writer.writerow([repr(float(c)), repr(float(s)), int(g)])
        text = (out / "cover.csv").read_text()
        assert text == buf.getvalue()
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert len(rows) == len(cov)
        assert [float(r[0]) for r in rows] == cov.centers.tolist()
        assert [float(r[1]) for r in rows] == cov.sides.tolist()
        assert [int(r[2]) for r in rows] == cov.generations.tolist()


@pytest.mark.parametrize(
    "values",
    [
        [3.0, 1.0, 2.0, 1.0, 3.0, 3.0, -1.5],
        [0.0, -0.0],
        [-0.0, 0.0],
        [1.0, -0.0, 0.0, -1.0],
        [-1.0, 0.0, 2.0, -0.0, 0.0],
        [],
        [2.5],
        [math.nan],
        [1.0, math.nan, 0.5, math.nan, 1.0, -math.inf, math.inf],
        np.linspace(-1.0, 1.0, 301).tolist() + np.linspace(-1.0, 1.0, 201).tolist(),
    ],
)
def test_sorted_unique_equals_np_unique(values):
    a = np.array(values, dtype=float)
    got = sorted_unique(a)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in np.unique(a).tolist()]


def test_sorted_unique_keeps_the_first_of_signed_zeros():
    # Defined by input order at any length; np.unique's pick follows its
    # hash table on longer inputs, so it is not the oracle here.
    for first, rest in ((-0.0, 0.0), (0.0, -0.0)):
        got = sorted_unique(np.array([1.0, first] + [rest, -1.0] * 100))
        assert [v.hex() for v in got.tolist()] == ["-0x1.0000000000000p+0", first.hex(), "0x1.0000000000000p+0"]


@pytest.mark.parametrize(
    "components, xs",
    [
        # Exact ties between two components, in-set points and the far ends.
        (((0.0, 0.0), (1.0, 1.0)), [0.5, -0.25, 0.0, 1.0, 0.75, 2.0, -math.inf, math.inf, math.nan]),
        (((-1.0, 0.0), (0.5, 2.0), (3.0, 3.0)), [0.25, 2.5, -2.0, -0.5, 1.0, 3.0, 2.75, 10.0]),
        # 0.1 - 1e-300 rounds to 0.1: a rounding tie with the farther
        # component, which the scalar loop settles toward 0.0.
        (((0.0, 0.0), (1e-300, 1e-300)), [0.1, -0.1, 5e-301, 2e-300]),
        # Many components closer together than the rounding of x - b: all
        # tie from afar and the scan keeps the first.  From 1e6, -5 stays
        # strictly farther than the cluster at 1; from 1e300 it ties too.
        (tuple((k * 1e-300, k * 1e-300) for k in range(100)), [0.1, 7.0, -3.0, 5e-299, 2.05e-299, 1e300]),
        (((-5.0, -5.0),) + tuple((1.0 + k * 2.0**-52,) * 2 for k in range(300)),
         [1e6, 1e300, 0.5, -2.0, -1e300, 1.0 + 7.5 * 2.0**-52, 3.0]),
    ],
)
def test_distances_and_nearest_is_the_scalar_rule(components, xs):
    e = CompactSet1D(components)
    ds, ps = distances_and_nearest(e, np.array(xs))
    for x, d, p in zip(xs, ds.tolist(), ps.tolist()):
        want_d, want_p = distance_and_nearest(e, x)
        assert (d.hex(), p.hex()) == (want_d.hex(), want_p.hex()), x


# Endpoints from a coarse grid, signed zeros, tiny and huge values and
# clusters below the rounding of far-away distances.
_ENDPOINTS = st.one_of(
    st.integers(-8, 8).map(lambda v: v / 4.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-300, 2e-300, 1.0 + 2.0**-52, 1e300, -1e300]),
    st.floats(-4.0, 4.0),
)


@st.composite
def _sets(draw):
    ends = sorted(draw(st.lists(_ENDPOINTS, min_size=1, max_size=12, unique=True)))
    comps, k = [], 0
    while k < len(ends):
        if k + 1 < len(ends) and draw(st.booleans()):
            comps.append((ends[k], ends[k + 1]))
            k += 2
        else:
            comps.append((ends[k], ends[k]))
            k += 1
    return CompactSet1D(comps)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_distances_and_nearest_is_the_scan(data):
    e = data.draw(_sets())
    ends = e.starts.tolist() + e.ends.tolist()
    near = [math.nextafter(v, s) for v in ends for s in (-math.inf, math.inf)]
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1e6]
    xs = data.draw(st.lists(st.one_of(st.sampled_from(ends + near + special), _ENDPOINTS), min_size=1, max_size=20))
    ds, ps = distances_and_nearest(e, np.array(xs))
    want = [distance_and_nearest(e, x) for x in xs]
    assert [(d.hex(), p.hex()) for d, p in zip(ds.tolist(), ps.tolist())] == [(d.hex(), p.hex()) for d, p in want]


@st.composite
def _cover_sets(draw):
    # Grid endpoints make cells share endpoints with components, where
    # the enclose and meet tests decide.
    grid = st.integers(-8, 8).map(lambda v: v / 4.0)
    ends = sorted(draw(st.lists(st.one_of(grid, st.floats(-2.0, 2.0)), min_size=1, max_size=8, unique=True)))
    return CompactSet1D([(a, b if draw(st.booleans()) else a) for a, b in zip(ends[::2], ends[1::2] + ends[-1:])])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cover_is_the_stack_descent(data):
    e = data.draw(_cover_sets())
    r_cov = data.draw(st.sampled_from([0.1, 0.3, 1.0, 2.5]))
    max_generation = data.draw(st.integers(0, 30))
    expansion = data.draw(st.sampled_from([9.0 / 8.0, 1.9]))
    want = stack_cover(e, r_cov, max_generation)
    if not want[0].size:
        with pytest.raises(EmptyCover):
            build_cover(e, r_cov, expansion, max_generation)
        return
    cov = build_cover(e, r_cov, expansion, max_generation)
    got = (cov.centers, cov.sides, cov.generations)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert [a.dtype for a in got] == [a.dtype for a in want]


def _eq14_key(rep):
    """An Eq14Report with every float as its hex, so equal keys are equal bit for bit."""
    violations = [(x.hex(), i, r.hex()) for x, i, r in rep.violations]
    return rep.ok, rep.worst_lower.hex(), rep.worst_upper.hex(), rep.checked, violations, rep.max_overlap


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eq14_is_the_per_sample_loop(data):
    # The array pass against the loop over members scans, bit for bit, on
    # samples drawn unsorted and repeated from the expanded interval ends
    # and their neighbouring floats, the set itself, NaN and the
    # infinities, or no sample at all.  Expansion 3.0, past what
    # build_cover admits, is the negative control with violations.
    e = data.draw(_cover_sets())
    expansion = data.draw(
        st.one_of(st.sampled_from([9.0 / 8.0, 1.9]), st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
    )
    r_cov = data.draw(st.sampled_from([0.1, 0.3, 1.0]))
    try:
        cov = build_cover(e, r_cov, expansion, data.draw(st.integers(4, 16)))
    except EmptyCover:
        return
    if data.draw(st.booleans()):
        cov = rebuilt(cov, expansion=3.0)
    half = cov.expanded_halfwidths()
    edges = np.concatenate([cov.centers - half, cov.centers + half]).tolist()
    near = [math.nextafter(v, s) for v in edges for s in (-math.inf, math.inf)]
    on_e = e.starts.tolist() + e.ends.tolist() + (0.5 * (e.starts + e.ends)).tolist()
    pool = edges + near + covered_sample_grid(cov, 32).tolist()
    special = on_e + [math.nan, math.inf, -math.inf]
    xs = data.draw(st.lists(st.one_of(st.sampled_from(pool), st.sampled_from(special)), max_size=40))
    assert _eq14_key(verify_eq14(cov, xs)) == _eq14_key(eq14_loop(cov, xs))


def test_eq14_ratio_past_the_largest_double_is_the_loop():
    # A sample one subnormal off the set, inside the negative control's
    # reach: d(x_i) / d(x) overflows to inf, a violation, as in the loop.
    cov = rebuilt(build_cover(CompactSet1D.from_points([0.0]), 1.0, 9.0 / 8.0, 4), expansion=3.0)
    xs = [-5e-324, 5e-324]
    rep = verify_eq14(cov, xs)
    assert _eq14_key(rep) == _eq14_key(eq14_loop(cov, xs))
    assert rep.worst_upper == math.inf and rep.violations


@pytest.mark.parametrize("points", [[0.0], [8.0], [1000.0], [0.0, 1e-300]])
def test_cover_is_the_stack_descent_at_the_precision_floor(points):
    # Past the rounding of x + side, cells and their halves coincide.
    e = CompactSet1D.from_points(points)
    for max_generation in (48, 70):
        cov = build_cover(e, 1.0, max_generation=max_generation)
        want = stack_cover(e, 1.0, max_generation)
        assert [a.tobytes() for a in (cov.centers, cov.sides, cov.generations)] == [a.tobytes() for a in want]


def test_cover_makes_one_lookup_per_generation(monkeypatch):
    # One distance lookup per generation: the stand-in for a cover that
    # grew as (cells x components) when each cell scanned every component.
    calls = []
    lookup = whitney_geometry.distances_and_nearest

    def counted(e, xs):
        calls.append(len(xs))
        return lookup(e, xs)

    monkeypatch.setattr(whitney_geometry, "distances_and_nearest", counted)
    gaps = np.diff([0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81])
    points = np.concatenate(([0.0], np.cumsum(np.resize(gaps, 63))))
    for e in (POINT, MIXED, CompactSet1D.from_points(points)):
        for max_generation in (0, 12, 48):
            del calls[:]
            try:
                build_cover(e, 1.0, max_generation=max_generation)
            except EmptyCover:
                pass
            assert 1 <= len(calls) <= max_generation + 1
