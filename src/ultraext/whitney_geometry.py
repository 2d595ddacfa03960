"""Compact subsets of the line and Whitney interval covers.

The cover tiles a punctured neighborhood {0 < d(x, E) < r_cov} with dyadic
intervals whose side is comparable to their distance from E.  Intervals
come from a top-down descent: a dyadic cell is kept when its side does not
exceed the distance of its center and its parent failed that test, which
pins the realized window to side <= d(center) < 2.5 * side.  The expanded
intervals (factor 9/8) then stay clear of E by 7/16 of a side, and the
proportionality of distances on expanded intervals holds with margin.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CoverOverlap, EmptyCover

EXPANSION = 9.0 / 8.0

# Realized side-to-distance window of the descent rule.
SIDE_WINDOW_LO = 1.0
SIDE_WINDOW_HI = 2.5

# Distance from E of an expanded interval, in sides: the center sits at
# least one side out and the default expansion reaches 9/16 of a side.
EXPANDED_CLEARANCE = 7.0 / 16.0


class CompactSet1D:
    """Finite union of disjoint closed intervals, points allowed.

    starts and ends list the component endpoints; both are increasing,
    since the components are sorted and disjoint.
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
        self.starts = tuple(a for a, _ in comps)
        self.ends = tuple(b for _, b in comps)

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

    def __contains__(self, x: float) -> bool:
        return self.meets(x, x)

    def meets(self, left: float, right: float) -> bool:
        """Whether [left, right] meets the set.

        Only the last component starting at or before right can: the
        ends increase, so it reaches furthest.  Comparisons only, so exact.
        """
        i = bisect.bisect_right(self.starts, right) - 1
        return i >= 0 and left <= self.ends[i]

    def encloses(self, left: float, right: float) -> bool:
        """Whether one component contains [left, right].

        Only the last component starting at or before left can, as in meets.
        """
        i = bisect.bisect_right(self.starts, left) - 1
        return i >= 0 and right <= self.ends[i]


def distance_and_nearest(e: CompactSet1D, x: float) -> tuple[float, float]:
    """Distance to the set and a nearest point, ties toward smaller coordinate.

    A NaN x gives (nan, nan), as in distances_and_nearest.
    """
    x = float(x)
    if math.isnan(x):
        return math.nan, math.nan
    best_d = math.inf
    best_p = math.nan
    for a, b in e.components:
        if x < a:
            d, p = a - x, a
        elif x > b:
            d, p = x - b, b
        else:
            d, p = 0.0, x
        if d < best_d:
            best_d, best_p = d, p
    return best_d, best_p


def distances_and_nearest(e: CompactSet1D, xs) -> tuple[np.ndarray, np.ndarray]:
    """distance_and_nearest at every entry of xs, bit for bit (NaN gives NaN).

    The components are visited in order and a later one replaces the
    nearest point only at a strictly smaller distance, as in the scalar
    loop, so ties go to the smaller coordinate.
    """
    xs = np.asarray(xs, dtype=float)
    best_d = np.full(xs.shape, np.inf)
    best_p = np.full(xs.shape, np.nan)
    for a, b in e.components:
        d = np.maximum(a - xs, xs - b)
        np.maximum(d, 0.0, out=d)
        np.copyto(best_p, np.clip(xs, a, b), where=d < best_d)
        np.minimum(best_d, d, out=best_d)
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


class ExtensionConstants:
    """Cover and partition constants as realized by this construction.

    r_0 bounds the covered distances; every x on an expanded interval has
    b_1 * side <= d(x) <= B_1 * d(center); centers satisfy
    A_1 * side <= d(center) < A_2 * side.
    """

    def __init__(self, r_0: float, B_1: float, b_1: float, A_1: float, A_2: float) -> None:
        for name, value in (("r_0", r_0), ("B_1", B_1), ("b_1", b_1), ("A_1", A_1), ("A_2", A_2)):
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
        if A_1 > A_2:
            raise ValueError("need A_1 <= A_2")
        self.r_0, self.B_1, self.b_1, self.A_1, self.A_2 = r_0, B_1, b_1, A_1, A_2


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
        constants: ExtensionConstants,
    ) -> None:
        self.e = e
        self.r_cov = r_cov
        self.centers = centers
        self.sides = sides
        self.generations = generations
        self.expansion = expansion
        self.d_min_covered = d_min_covered
        self.constants = constants

    def __len__(self) -> int:
        return len(self.centers)

    def expanded_halfwidths(self) -> np.ndarray:
        return 0.5 * self.expansion * self.sides

    def members(self, x: float, expanded: bool = False) -> np.ndarray:
        """Indices of (expanded) intervals containing x."""
        half = self.expanded_halfwidths() if expanded else 0.5 * self.sides
        return np.nonzero(np.abs(x - self.centers) <= half)[0]

    def memberships(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(members(x), members(x, expanded=True)) from one |x - centers|."""
        gap = np.abs(x - self.centers)
        return (
            np.nonzero(gap <= 0.5 * self.sides)[0],
            np.nonzero(gap <= self.expanded_halfwidths())[0],
        )

    def window_memberships(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """memberships at many points, with no (points x intervals) table.

        Returns (candidates, inside, expanded), each of shape (len(xs), 2):
        the candidates of x are the intervals j - 1 and j whose centers
        bracket it, j = searchsorted(centers, x), and the masks are
        memberships' tests on them (false out of range), members ascending.

        The window is complete when no expanded interval reaches the
        center of a neighbour.  On a cover of build_cover that follows
        from sorted centers, disjoint cells, side <= d(center) < 2.5 side
        and the 9/8 expansion: a neighbour k within 9/16 s_i of center i
        has d(c_k) >= 7/16 s_i, so s_k > 7/40 s_i, yet disjoint cells put
        it (s_i + s_k) / 2 > 0.5875 s_i away.  The condition is checked on
        the float centers and halfwidths, so it holds for the float tests;
        CoverOverlap if it fails (a wider expansion can break it).
        """
        xs = np.asarray(xs, dtype=float)
        half = self.expanded_halfwidths()
        gaps = np.diff(self.centers)
        if not ((gaps > half[:-1]) & (gaps > half[1:])).all():
            raise CoverOverlap(
                "an expanded interval reaches a neighbouring center; the"
                " two-interval window would miss members"
            )
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
    center, and window_memberships (so verify_bounds) then raises
    CoverOverlap.
    """
    if not (r_cov > 0.0 and math.isfinite(r_cov)):
        raise ValueError("r_cov must be positive and finite")
    if not 1.0 < expansion < 2.0:
        raise ValueError("expansion must sit in (1, 2)")
    lo, hi = e.span
    width = (hi - lo) + 2.0 * r_cov
    root_side = 2.0 ** math.ceil(math.log2(width))
    root_lo = lo - r_cov

    centers: list[float] = []
    sides: list[float] = []
    gens: list[int] = []
    stack = [(root_lo, root_side, 0)]
    while stack:
        left, side, gen = stack.pop()
        right = left + side
        if e.encloses(left, right):
            continue  # interior cells carry no region points
        # min distance over a cell disjoint from E sits at an endpoint
        if not e.meets(left, right):
            if min(distance_and_nearest(e, left)[0], distance_and_nearest(e, right)[0]) >= r_cov:
                continue
        center = left + 0.5 * side
        d_center, _ = distance_and_nearest(e, center)
        if side <= d_center:
            centers.append(center)
            sides.append(side)
            gens.append(gen)
        elif gen < max_generation:
            stack.append((left, 0.5 * side, gen + 1))
            stack.append((left + 0.5 * side, 0.5 * side, gen + 1))
    if not centers:
        raise EmptyCover(
            f"no admissible interval for r_cov={r_cov} within {max_generation} generations"
        )
    order = np.argsort(centers)
    centers_a = np.asarray(centers)[order]
    sides_a = np.asarray(sides)[order]
    gens_a = np.asarray(gens)[order]
    side_floor = root_side * 2.0 ** (-max_generation)
    constants = ExtensionConstants(
        r_0=r_cov,
        B_1=25.0 / 16.0,
        b_1=EXPANDED_CLEARANCE,
        A_1=SIDE_WINDOW_LO,
        A_2=SIDE_WINDOW_HI,
    )
    return WhitneyCover(
        e=e,
        r_cov=r_cov,
        centers=centers_a,
        sides=sides_a,
        generations=gens_a,
        expansion=expansion,
        d_min_covered=3.0 * side_floor,
        constants=constants,
    )


class Eq14Report(NamedTuple):
    """Outcome of the distance-proportionality check on expanded intervals."""

    ok: bool
    worst_lower: float  # min over samples of d(x_i)/d(x), must stay >= 1/2
    worst_upper: float  # max over samples of d(x_i)/d(x), must stay <= 3
    checked: int
    violations: list


def verify_eq14(cover: WhitneyCover, sample_points) -> Eq14Report:
    """Check (1/2) d(x) <= d(x_i) <= 3 d(x) for samples on expanded intervals.

    Every sample is tested against every expanded interval containing it.
    Points landing on E inside some expanded interval (possible only for
    adversarial expansions) are reported as violations with ratio inf.
    A check that tested no (sample, interval) pair fails: it has shown
    nothing.
    """
    xs = np.asarray(sample_points, dtype=float)
    d_x = distance_grid(cover.e, xs)
    d_center = distance_grid(cover.e, cover.centers)
    worst_lo = math.inf
    worst_hi = 0.0
    checked = 0
    violations: list = []
    for x, dx in zip(xs, d_x):
        for i in cover.members(x, expanded=True):
            checked += 1
            if dx == 0.0:
                violations.append((float(x), int(i), math.inf))
                worst_hi = math.inf
                continue
            ratio = d_center[i] / dx
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
            if not 0.5 <= ratio <= 3.0:
                violations.append((float(x), int(i), float(ratio)))
    return Eq14Report(
        ok=checked > 0 and not violations,
        worst_lower=worst_lo,
        worst_upper=worst_hi,
        checked=checked,
        violations=violations,
    )


def overlap_counts(cover: WhitneyCover, sample_points) -> np.ndarray:
    """Number of expanded intervals containing each sample point."""
    xs = np.asarray(sample_points, dtype=float)
    return np.array([len(cover.members(x, expanded=True)) for x in xs])


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

