"""Compact subsets of the line and Whitney interval covers.

The cover tiles a punctured neighborhood {0 < d(x, E) < r_cov} with dyadic
intervals whose side is comparable to their distance from E.  Intervals
come from a top-down descent, one generation of dyadic cells at a time: a
cell is kept when its side does not exceed the distance of its center and
its parent failed that test, which pins the realized window to
side <= d(center) < 2.5 * side.  The expanded intervals (factor 9/8) then
stay clear of E by 7/16 of a side, and the proportionality of distances
on expanded intervals holds with margin.

Every distance comes from one lookup rule, distances_and_nearest, which
bisects the sorted components instead of scanning them.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyCover

EXPANSION = 9.0 / 8.0

# Realized side-to-distance window of the descent rule:
# side <= d(center) < SIDE_WINDOW_HI * side.
SIDE_WINDOW_HI = 2.5

# Distance from E of an expanded interval, in sides: the center sits at
# least one side out and the default expansion reaches 9/16 of a side.
EXPANDED_CLEARANCE = 7.0 / 16.0

# Bound on d(x) / d(center) over an expanded interval: d(x) is at most
# d(center) + 9/16 side, and side <= d(center).
EXPANDED_REACH = 25.0 / 16.0


class CompactSet1D:
    """Finite union of disjoint closed intervals, points allowed.

    The arrays starts and ends list the component endpoints; both are
    increasing, since the components are sorted and disjoint.
    """

    def __init__(self, components) -> None:
        comps = tuple((float(a), float(b)) for a, b in components)
        if not comps:
            raise ValueError("compact set needs at least one component")
        for a, b in comps:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("component endpoints must be finite")
            if a > b:
                raise ValueError(f"component [{a}, {b}] is inverted")
        for (_, b0), (a1, _) in zip(comps, comps[1:]):
            if not b0 < a1:
                raise ValueError("components must be sorted and disjoint")
        self.components = comps
        self.starts = np.array([a for a, _ in comps])
        self.ends = np.array([b for _, b in comps])

    @classmethod
    def from_points(cls, points: Iterable[float]) -> CompactSet1D:
        pts = sorted(float(p) for p in points)
        return cls(tuple((p, p) for p in pts))

    @classmethod
    def from_intervals(cls, intervals: Iterable[Sequence[float]]) -> CompactSet1D:
        return cls(tuple((float(a), float(b)) for a, b in intervals))

    @property
    def span(self) -> tuple[float, float]:
        return self.components[0][0], self.components[-1][1]


def distances_and_nearest(e: CompactSet1D, xs) -> tuple[np.ndarray, np.ndarray]:
    """Distance to the set and a nearest point at every entry of xs.

    The rule is a scan of the components in order in which a component
    takes over the nearest point only at a strictly smaller distance, so
    ties go to the smaller coordinate; NaN gives (nan, nan) and +-inf
    gives (inf, nan).  Only two components can hold the smallest
    distance: the last one starting at or before x and the next one.
    Bisection finds them, and each is measured with the scan's own
    subtractions and comparisons (np.clip with array bounds may return a
    bound's signed zero where the scan returns x), so both outputs are
    the scan's bit for bit.  A component further left can still tie
    after rounding (on {0, 1e-300} at 0.1 the scan keeps 0.0): fl(x - b)
    does not increase with b, so a second bisection finds the first tied
    end.
    """
    xs = np.asarray(xs, dtype=float)
    starts, ends = e.starts, e.ends
    i = np.searchsorted(starts, xs, side="right")
    left = np.maximum(i - 1, 0)
    # With one component the two candidates coincide and nothing ties.
    one = len(starts) == 1
    best_d = np.full(xs.shape, np.inf)
    best_p = np.full(xs.shape, np.nan)
    for k in (left,) if one else (left, np.minimum(i, len(starts) - 1)):
        a, b = starts[k], ends[k]
        d = np.maximum(a - xs, xs - b)
        np.maximum(d, 0.0, out=d)
        np.copyto(best_p, np.where(xs < a, a, np.where(xs > b, b, xs)), where=d < best_d)
        np.minimum(best_d, d, out=best_d)
    if one:
        return best_d, best_p
    tied = (left > 0) & (best_d < np.inf) & (xs - ends[left - 1] <= best_d)
    if tied.any():
        x, d = xs[tied], best_d[tied]
        lo, hi = np.zeros_like(left[tied]), left[tied] - 1
        while (lo < hi).any():
            mid = (lo + hi) // 2
            ok = x - ends[mid] <= d
            lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
        best_p[tied] = ends[lo]
    return best_d, best_p


def sorted_unique(values) -> np.ndarray:
    """np.unique of a float array, without the numpy.ma import np.unique makes.

    A stable sort keeps the first of equal values in input order, so the
    first of -0.0 and 0.0; NaNs sort last and collapse to one, as in
    np.unique.
    """
    a = np.sort(np.ravel(values), kind="stable")
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    if a.size and np.isnan(a[-1]):
        keep[int(np.argmax(np.isnan(a))) + 1 :] = False
    return a[keep]


def distance_grid(e: CompactSet1D, xs) -> np.ndarray:
    return distances_and_nearest(e, xs)[0]


class WhitneyCover:
    """Dyadic interval cover of {0 < d(x, E) < r_cov}.

    Arrays are index-aligned: interval i is [centers[i] - sides[i]/2,
    centers[i] + sides[i]/2] born at generation generations[i]; its
    expanded version scales the side by ``expansion`` about the center.
    Points with d(x) below d_min_covered sit in the unresolved sliver
    next to E left by the generation cap and are not claimed.
    """

    def __init__(
        self,
        e: CompactSet1D,
        r_cov: float,
        centers: np.ndarray,
        sides: np.ndarray,
        generations: np.ndarray,
        expansion: float,
        d_min_covered: float,
    ) -> None:
        self.e = e
        self.r_cov = r_cov
        self.centers = centers
        self.sides = sides
        self.generations = generations
        self.expansion = expansion
        self.d_min_covered = d_min_covered

    def __len__(self) -> int:
        return len(self.centers)

    def expanded_halfwidths(self) -> np.ndarray:
        return 0.5 * self.expansion * self.sides

    def window_memberships(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both members tests at many points, with no (points x intervals) table.

        Returns (candidates, inside, expanded), each of shape (len(xs), 2):
        the candidates of x are the intervals j - 1 and j whose centers
        bracket it, j = searchsorted(centers, x), and the masks are the
        members tests on them (false out of range), members ascending.

        The window is complete when no expanded interval reaches the
        center of a neighbour.  On a cover of build_cover that follows
        from sorted centers, disjoint cells, side <= d(center) < 2.5 side
        and the 9/8 expansion: a neighbour k within 9/16 s_i of center i
        has d(c_k) >= 7/16 s_i, so s_k > 7/40 s_i, yet disjoint cells put
        it (s_i + s_k) / 2 > 0.5875 s_i away.  build_partition checks the
        condition once on the float centers and halfwidths, so it holds
        for the float tests of every extension's cover.
        """
        xs = np.asarray(xs, dtype=float)
        half = self.expanded_halfwidths()
        j = np.searchsorted(self.centers, xs, side="left")
        pair = np.stack([j - 1, j], axis=-1)
        valid = (pair >= 0) & (pair < len(self.centers))
        pair = np.clip(pair, 0, len(self.centers) - 1)
        gap = np.abs(xs[..., None] - self.centers[pair])
        inside = valid & (gap <= (0.5 * self.sides)[pair])
        return pair, inside, valid & (gap <= half[pair])


def build_cover(
    e: CompactSet1D,
    r_cov: float,
    expansion: float = EXPANSION,
    max_generation: int = 48,
) -> WhitneyCover:
    """Whitney cover by maximal dyadic intervals with side <= d(center).

    Cells touching the region are split until their side drops below the
    center distance; the survivors are mutually disjoint up to endpoints
    and cover every x with 3 * side_floor <= d(x) < r_cov, where
    side_floor is the finest side the generation cap admits.  At an
    expansion above 9/8 an expanded interval may reach a neighbouring
    center, and build_partition then raises CoverOverlap.
    """
    if not (r_cov > 0.0 and math.isfinite(r_cov)):
        raise ValueError("r_cov must be positive and finite")
    if not 1.0 < expansion < 2.0:
        raise ValueError("expansion must sit in (1, 2)")
    lo, hi = e.span
    width = (hi - lo) + 2.0 * r_cov
    root_side = 2.0 ** math.ceil(math.log2(width))
    root_lo = lo - r_cov

    # Each generation's cells share one side, so a generation is one
    # array pass: drop the cells one component encloses and those that
    # miss E by r_cov or more (from a cell disjoint from E the nearest
    # point is seen from an endpoint), keep those with side <= d(center)
    # and split the rest.  The set tests count by bisection: a component
    # holds [l, r] when fewer ends lie below r than starts at or below l,
    # and one meets it when fewer ends lie below l than starts at or below r.
    lefts, side = np.array([root_lo]), root_side
    kept: list[tuple[np.ndarray, float, int]] = []
    for gen in range(max_generation + 1):
        rights = lefts + side
        centers = lefts + 0.5 * side
        xs = np.concatenate((lefts, rights, centers))
        d_left, d_right, d_center = distance_grid(e, xs).reshape(3, -1)
        enclosed = np.searchsorted(e.ends, rights) < np.searchsorted(e.starts, lefts, side="right")
        meets = np.searchsorted(e.ends, lefts) < np.searchsorted(e.starts, rights, side="right")
        live = ~enclosed & (meets | (np.minimum(d_left, d_right) < r_cov))
        keep = live & (side <= d_center)
        kept.append((centers[keep], side, gen))
        split = live & ~keep
        count = np.count_nonzero(split)
        if gen == max_generation or not count:
            break
        children = np.empty(2 * count)
        children[0::2], children[1::2] = lefts[split], centers[split]
        lefts, side = children, 0.5 * side
    centers = np.concatenate([c for c, _, _ in kept])
    if not centers.size:
        raise EmptyCover(
            f"no admissible interval for r_cov={r_cov} within {max_generation} generations"
        )
    order = np.argsort(centers)
    sides = np.concatenate([np.full(c.size, s) for c, s, _ in kept])
    gens = np.concatenate([np.full(c.size, g) for c, _, g in kept])
    side_floor = root_side * 2.0 ** (-max_generation)
    return WhitneyCover(e, r_cov, centers[order], sides[order], gens[order], expansion,
                        d_min_covered=3.0 * side_floor)


class Eq14Report(NamedTuple):
    """Outcome of the distance-proportionality check on expanded intervals."""

    ok: bool
    worst_lower: float  # min over samples of d(x_i)/d(x), must stay >= 1/2
    worst_upper: float  # max over samples of d(x_i)/d(x), must stay <= 3
    checked: int
    violations: list
    max_overlap: int  # most expanded intervals holding one sample, 0 without samples


def verify_eq14(cover: WhitneyCover, sample_points) -> Eq14Report:
    """Check (1/2) d(x) <= d(x_i) <= 3 d(x) for samples on expanded intervals.

    Every sample is tested against every expanded interval containing it,
    and the largest number of such intervals is the report's max_overlap.
    Points landing on E inside some expanded interval (possible only for
    adversarial expansions) are reported as violations with ratio inf.
    A check that tested no (sample, interval) pair fails: it has shown
    nothing.

    The pairs are found in one array pass: the samples passing
    |x - c| <= half lie within c -+ 2 half after rounding, so bisecting
    the sorted samples there and keeping those that pass the test finds
    them all.  Ordered by (sample, interval), they give every figure and
    violation of a per-sample loop over ascending members, bit for bit.
    """
    xs = np.asarray(sample_points, dtype=float)
    d_x = distance_grid(cover.e, xs)
    d_center = distance_grid(cover.e, cover.centers)
    half = cover.expanded_halfwidths()
    order = np.argsort(xs)
    lo = np.searchsorted(xs[order], cover.centers - 2.0 * half, side="left")
    hi = np.searchsorted(xs[order], cover.centers + 2.0 * half, side="right")
    counts = hi - lo
    interval = np.repeat(np.arange(len(cover)), counts)
    run_start = np.cumsum(counts) - counts
    sample = order[np.arange(counts.sum()) - np.repeat(run_start - lo, counts)]
    keep = np.abs(xs[sample] - cover.centers[interval]) <= half[interval]
    by_sample = np.lexsort((interval[keep], sample[keep]))
    sample, interval = sample[keep][by_sample], interval[keep][by_sample]

    dx = d_x[sample]
    on_e = dx == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = d_center[interval] / dx
    bad = on_e | ~((0.5 <= ratio) & (ratio <= 3.0))
    ratio[on_e] = math.inf
    measured = ratio[~on_e]
    violations = list(zip(xs[sample[bad]].tolist(), interval[bad].tolist(), ratio[bad].tolist()))
    return Eq14Report(
        ok=sample.size > 0 and not violations,
        worst_lower=float(measured.min(initial=math.inf)),
        worst_upper=math.inf if on_e.any() else float(measured.max(initial=0.0)),
        checked=int(sample.size),
        violations=violations,
        max_overlap=int(np.bincount(sample, minlength=1).max()),
    )


def covered_sample_grid(cover: WhitneyCover, n: int) -> np.ndarray:
    """Deterministic sample of the covered region, denser toward E.

    Blends a uniform grid over the bounding box with geometric ladders
    descending toward each component endpoint, then keeps points x with
    d_min_covered <= d(x) < r_cov.
    """
    lo, hi = cover.e.span
    box = np.linspace(lo - cover.r_cov, hi + cover.r_cov, 3 * max(n, 16))
    ladders = [box]
    depth = max(cover.d_min_covered, 1e-12)
    rungs = np.geomspace(depth, cover.r_cov, 128)
    for a, b in cover.e.components:
        ladders.append(a - rungs)
        ladders.append(b + rungs)
    xs = sorted_unique(np.concatenate(ladders))
    d = distance_grid(cover.e, xs)
    kept = xs[(d >= cover.d_min_covered) & (d < cover.r_cov)]
    if len(kept) > n:
        kept = kept[np.linspace(0, len(kept) - 1, n).round().astype(int)]
    return kept

