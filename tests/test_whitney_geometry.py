"""Compact sets, distance oracles, and the Whitney interval cover."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraext.cli import main as cli_main
from ultraext.errors import EmptyCover
from ultraext.whitney_geometry import (
    CompactSet1D,
    ExtensionConstants,
    build_cover,
    covered_sample_grid,
    distance_and_nearest,
    distance_grid,
    distances_and_nearest,
    overlap_counts,
    sorted_unique,
    verify_eq14,
)
from _reference import rebuilt

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
    assert 0.5 in MIXED.components[0] or (-0.5 in MIXED)
    assert MIXED.span == (-1.0, 1.0)


def test_distance_examples():
    d, p = distance_and_nearest(MIXED, 0.25)
    assert (d, p) == (0.25, 0.0)
    d, p = distance_and_nearest(MIXED, 0.7)
    assert d == pytest.approx(0.3, abs=1e-15) and p == 1.0
    d, p = distance_and_nearest(MIXED, -0.5)
    assert (d, p) == (0.0, -0.5)
    # tie between 0 and 1 resolves toward the smaller coordinate
    d, p = distance_and_nearest(MIXED, 0.5)
    assert (d, p) == (0.5, 0.0)


@settings(max_examples=150, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_distance_nearest_consistency(x):
    d, p = distance_and_nearest(MIXED, x)
    assert abs(x - p) == d
    assert p in MIXED
    assert distance_grid(MIXED, [x])[0] == d


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
        margin = cov.constants.b_1 * cov.sides
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
        assert overlap_counts(cov, xs).max() <= 3
        assert min(len(cov.members(x)) for x in xs) >= 1


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


def test_constants_validation():
    c = build_cover(POINT, 1.0).constants
    assert c.A_1 <= c.A_2
    assert c.r_0 == 1.0
    with pytest.raises(ValueError):
        ExtensionConstants(r_0=1.0, B_1=1.0, b_1=1.0, A_1=2.0, A_2=1.0)
    with pytest.raises(ValueError):
        ExtensionConstants(r_0=-1.0, B_1=1.0, b_1=1.0, A_1=1.0, A_2=2.0)


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
    assert min(len(cov.members(x)) for x in xs) >= 1
    assert overlap_counts(cov, xs).max() <= 3


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
    ],
)
def test_distances_and_nearest_is_the_scalar_rule(components, xs):
    e = CompactSet1D(components)
    ds, ps = distances_and_nearest(e, np.array(xs))
    for x, d, p in zip(xs, ds.tolist(), ps.tolist()):
        want_d, want_p = distance_and_nearest(e, x)
        assert (d.hex(), p.hex()) == (want_d.hex(), want_p.hex()), x
