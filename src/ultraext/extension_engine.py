"""Glued extension of a certified jet off the set, with bound reports.

The extension takes the form f = sum_i phi_i T_i where the phi_i come
from the partition subordinate to the dyadic cover and T_i is a Taylor
polynomial of the jet anchored at a nearest set point of the interval
center.  The polynomial degree at distance d is driven by the counting
index of the regularized weight row at the dilated distance L*d, so the
truncation error matches the decay profile of the row's h-function.

Everything here is desk-scale: constants that the existence proofs leave
free (the binding threshold multiple, the doubling constant of the decay
profile, the growth bases of the final estimates) are either recorded in
the plan or fitted from samples and reported with a trend verdict, never
assumed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._fitting import GROWING, INCONCLUSIVE, decade_trend, range_trend
from ._fitting import libm, libm_log_maxima, libm_picks
from .errors import (
    MissingRow,
    OrderOverflow,
    OutsideRegion,
    PlanInvalid,
    PrecisionFloor,
    json_integer,
    json_number,
    json_object,
)
from .matrix_calculus import WeightMatrix, interleave_matrix, sandwich_H
from .partition_of_unity import Partition, build_partition
from .seq_calculus import WeightSequence, counting_index, log_h_function
from .ultrajets import TaylorPolynomial, UltraJet, taylor_poly, taylor_vectors
from .whitney_geometry import (
    EXPANDED_CLEARANCE,
    EXPANDED_REACH,
    EXPANSION,
    SIDE_WINDOW_HI,
    CompactSet1D,
    WhitneyCover,
    build_cover,
    distance_grid,
    distances_and_nearest,
    sorted_unique,
)

# Threshold multiples on the dilation, in units of the certificate
# growth radius.  The two larger ones come from the telescoping and
# gluing estimates in one dimension; the first from the plain Taylor
# bound.  A plan is degenerate unless L exceeds their maximum times rho.
THRESHOLD_TAYLOR = 2.0
THRESHOLD_TELESCOPE = 12.0
THRESHOLD_GLUE = 8.0

# log of the smallest positive double; below this a decay value is an
# exact zero in float arithmetic whether or not the row is long enough.
_LOG_TINY = math.log(5e-324)
_LOG_EPS = math.log(2.0**-53)

# Cover depth for assemble and the extend job.  build_cover's own 48
# reaches sides where placed bumps degenerate (DegenerateSupport).
MAX_GENERATION = 44


class PlanConstants(NamedTuple):
    """Derived constants carried by a plan.

    h is the fitted doubling constant linking the decay profiles of the
    row and its doubled partner; k1 scales the theoretical smoothness
    degree, k2 is the binding threshold multiple, k3 dilates the
    argument of the residual decay profile.
    """

    h: float = 1.0
    k1: float = 1.0
    k2: float = max(THRESHOLD_TAYLOR, THRESHOLD_TELESCOPE, THRESHOLD_GLUE)
    k3: float = 3.0

    def to_json(self) -> dict:
        return self._asdict()


class ExtensionPlan:
    """Dilation, fold count and row index chosen for one extension run.

    ``meets_threshold`` records whether the dilation clears k2 * rho;
    assembling with a plan below the threshold is the explicit negative
    control and must be requested by name.
    """

    def __init__(
        self,
        dilation: float,
        folds: int,
        xi: float,
        rho: float,
        jet_bound: float,
        constants: PlanConstants = PlanConstants(),
        theory_degree: int = 0,
    ) -> None:
        if not (math.isfinite(dilation) and dilation > 0.0):
            raise PlanInvalid(f"dilation must be positive, got {dilation}")
        if not (isinstance(folds, int) and folds >= 1):
            raise PlanInvalid(f"fold count must be a positive integer, got {folds}")
        if not (xi > 0.0 and math.isfinite(xi)):
            raise PlanInvalid("row index xi must be positive and finite")
        if not (rho >= 1.0 and math.isfinite(rho)):
            raise PlanInvalid("certificate radius rho must be >= 1")
        if not (jet_bound > 0.0 and math.isfinite(jet_bound)):
            raise PlanInvalid("certificate bound must be positive and finite")
        c = constants
        if not 1.0 <= c.h < math.inf:
            raise PlanInvalid(f"doubling constant h must be finite and >= 1, got {c.h}")
        bad = [k for k in ("k1", "k2", "k3") if not 0.0 < getattr(c, k) < math.inf]
        if bad:
            raise PlanInvalid(f"plan constants must be positive and finite: {bad}")
        self.dilation = dilation
        self.folds = folds
        self.xi = xi
        self.rho = rho
        self.jet_bound = jet_bound
        self.constants = constants
        self.theory_degree = theory_degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtensionPlan):
            return NotImplemented
        return self.to_json() == other.to_json()

    @property
    def meets_threshold(self) -> bool:
        return self.dilation > self.constants.k2 * self.rho

    def to_json(self) -> dict:
        return {
            "dilation": self.dilation,
            "folds": self.folds,
            "xi": self.xi,
            "rho": self.rho,
            "jet_bound": self.jet_bound,
            "constants": self.constants.to_json(),
            "theory_degree": self.theory_degree,
        }

    @classmethod
    def from_json(cls, doc) -> "ExtensionPlan":
        """Plan from its JSON form; missing constants take the field defaults.

        Every top-level key but ``constants`` and ``theory_degree`` is
        required, and unknown keys are rejected.  ``folds`` and
        ``theory_degree`` must be integral numbers and every other value
        a number; booleans and strings are rejected.
        """
        required = ("dilation", "folds", "xi", "rho", "jet_bound")
        json_object(doc, "plan", required, ("constants", "theory_degree"), PlanInvalid)
        given = doc.get("constants", {})
        json_object(given, "plan.constants", (), PlanConstants._fields, PlanInvalid)

        def number(key: str, value) -> float:
            return json_number(value, f"plan value {key}", PlanInvalid)

        def integer(key: str, value) -> int:
            return json_integer(value, f"plan value {key}", PlanInvalid)

        return cls(
            dilation=number("dilation", doc["dilation"]),
            folds=integer("folds", doc["folds"]),
            xi=number("xi", doc["xi"]),
            rho=number("rho", doc["rho"]),
            jet_bound=number("jet_bound", doc["jet_bound"]),
            constants=PlanConstants(**{k: number(k, v) for k, v in given.items()}),
            theory_degree=integer("theory_degree", doc.get("theory_degree", 0)),
        )


def make_plan(
    certificate,
    regular: WeightMatrix,
    *,
    dilation: float | None = None,
    folds: int = 8,
) -> ExtensionPlan:
    """Derive a plan from a jet certificate and the regularized matrix.

    The doubling constant h is fitted from the interleaving sandwich at
    row index 2*xi, the residual decay argument is dilated by k3 = 3h,
    and the theoretical smoothness degree k1 * dilation is recorded
    after rounding up (the fold count actually used stays the desk-scale
    default unless overridden).  The default dilation is 16 * rho, the
    smallest power-of-two multiple clearing every threshold.  Raises
    MissingRow, naming the certificate's xi and rho and the xi values the
    matrix stores, when the row at 2*xi or 4*xi is missing.
    """
    xi = float(certificate.xi)
    rho = float(certificate.rho)
    if not regular.has(2.0 * xi) or not regular.has(4.0 * xi):
        stored = ", ".join(map(str, regular.xi_values))
        raise MissingRow(
            f"certify accepted the jet first at xi={xi} (rho={rho}); a plan needs rows"
            f" at 2*xi={2 * xi} and 4*xi={4 * xi}, and the matrix stores xi in ({stored})"
        )
    inter = interleave_matrix(regular, [2.0 * xi])
    h = sandwich_H(regular, inter, 2.0 * xi, regular.order)
    # Degree rate of the smoothness budget at envelope base 1: the cover's
    # window and margin constants enter as its A_2 and b_1.
    k1 = 27.0 * SIDE_WINDOW_HI * h / EXPANDED_CLEARANCE
    if dilation is None:
        dilation = 16.0 * rho
    theory = math.ceil(k1 * float(dilation))
    return ExtensionPlan(
        dilation=float(dilation),
        folds=int(folds),
        xi=xi,
        rho=rho,
        jet_bound=float(certificate.c),
        constants=PlanConstants(h=h, k1=k1, k3=3.0 * h),
        theory_degree=theory,
    )


def _log_decay(row: WeightSequence, log_t) -> tuple[float, bool]:
    """(log of the decay profile, settled flag) at log argument log_t.

    An array of log arguments gives an array of each, entry by entry.

    Settled means the infimum is attained strictly inside the stored
    range, or is already an exact float zero so the missing tail cannot
    change the value.
    """
    lh, k = log_h_function(row, log_t)
    return lh, (k < row.order) | (lh < _LOG_TINY)


class _LocalTaylor(NamedTuple):
    """The local Taylor rule at an array of points, entry by entry."""

    distance: np.ndarray
    requested: np.ndarray  # degree the distance asks for
    cutoff: np.ndarray  # no stored quotient reached: requested is the floor 2K - 1
    anchor: np.ndarray  # index in jet.base_points
    degree: np.ndarray  # requested, capped by the stored jet order
    which: np.ndarray  # index of the point's polynomial in polys
    polys: list[TaylorPolynomial]  # one per distinct (anchor, degree), ascending


def _local_taylor(jet: UltraJet, row: WeightSequence, dilation: float, xs) -> _LocalTaylor:
    """The Taylor polynomial of the jet glued at each point of xs.

    Its anchor is the base point nearest the point's nearest set point,
    ties to the smaller one.  Its degree is 2 * gamma - 1, at least 0,
    for gamma = counting_index(row, dilation * d(x)), capped by the
    stored jet order; where no stored quotient reaches, gamma is K and
    2K - 1 is a flagged lower bound.  Each entry is the scalar rule at
    its point bit for bit, and taylor_poly runs once per distinct
    (anchor, degree).
    """
    ds, hats = distances_and_nearest(jet.e, xs)
    pts = jet.base_points
    _, anchors = distances_and_nearest(CompactSet1D.from_points(pts), hats)
    anchor = np.searchsorted(pts, anchors)
    gamma = counting_index(row, dilation * ds)
    requested = np.maximum(2 * gamma - 1, 0)
    degree = np.minimum(requested, jet.alpha_max)
    span = jet.alpha_max + 1
    key = anchor * span + degree
    keys = sorted_unique(key)
    polys = [taylor_poly(jet, pts[k // span], k % span) for k in keys.tolist()]
    which = np.searchsorted(keys, key)
    return _LocalTaylor(ds, requested, gamma == row.order, anchor, degree, which, polys)


class ExtensionFunction(NamedTuple):
    """The glued extension and everything needed to evaluate and audit it.

    Cover interval i carries the bump phi_i of the partition and the
    Taylor polynomial local.polys[local.which[i]], the local Taylor rule
    at its center.  Valid arguments are the stored base points of the
    jet together with the off-set band 0 < d(x) < d_max resolved by the
    cover.
    """

    jet: UltraJet
    plan: ExtensionPlan
    cover: WhitneyCover
    partition: Partition
    local: _LocalTaylor
    degree_row: WeightSequence
    residual_row: WeightSequence
    d_max: float


def assemble(
    jet: UltraJet,
    matrix: WeightMatrix,
    plan: ExtensionPlan,
    *,
    r_cov: float = 1.0,
    max_generation: int = MAX_GENERATION,
    allow_degenerate: bool = False,
) -> ExtensionFunction:
    """Build the extension for a jet against a regularized matrix.

    ``matrix`` must hold log-convex divided rows at 2*xi and 4*xi (the
    strong regularization of the associated matrix); the extension keeps
    those two rows and nothing else of it.  A plan below its threshold
    raises PlanInvalid unless the degenerate run is requested
    explicitly.  The partition comes from build_partition, which
    certifies the bump total positive on the whole covered band from the
    template's plateau (no sampling) and raises UncoveredPoint where it
    cannot.  The cover uses the 9/8 expansion.  The local Taylor rule is
    _local_taylor's at the interval centers: intervals with one (anchor,
    degree) share one polynomial, and its degrees above the stored jet
    order are capped and flagged, as are quotient-range cutoffs.
    """
    if not plan.meets_threshold and not allow_degenerate:
        raise PlanInvalid(
            f"dilation {plan.dilation} does not clear "
            f"{plan.constants.k2} * rho = {plan.constants.k2 * plan.rho}"
        )
    degree_row = matrix.row_sequence(2.0 * plan.xi)
    residual_row = matrix.row_sequence(4.0 * plan.xi)
    for name, row in (("2*xi", degree_row), ("4*xi", residual_row)):
        if not row.is_log_convex:
            raise ValueError(f"row at {name} must be log-convex; regularize first")

    cover = build_cover(jet.e, r_cov, EXPANSION, max_generation)
    partition = build_partition(cover, plan.folds)
    s1 = math.exp(degree_row.log_values[1])
    d_max = min(
        cover.r_cov / (3.0 * EXPANDED_REACH),
        1.0 / (3.0 * plan.dilation * s1),
    )

    return ExtensionFunction(
        jet=jet,
        plan=plan,
        cover=cover,
        partition=partition,
        local=_local_taylor(jet, degree_row, plan.dilation, cover.centers),
        degree_row=degree_row,
        residual_row=residual_row,
        d_max=d_max,
    )


def _jet_values(f: ExtensionFunction, x: float, order: int) -> list[float]:
    """The stored jet values 0..order at a point x of the set."""
    try:
        return [f.jet.value(x, a) for a in range(order + 1)]
    except ValueError:
        raise OutsideRegion(f"x={x} lies on the set but is not a stored base point") from None


def _shared_center_difference(
    t_i: TaylorPolynomial, t_ref: TaylorPolynomial
) -> TaylorPolynomial | None:
    """t_i - t_ref for two truncations of one derivative row; None if zero.

    Both are taylor_poly truncations of one stored jet row, so their
    common coefficients are the same floats and the longer one's tail is
    that row's: the difference is exactly the tail, zero below the lower
    degree, a sparse polynomial whose evaluation never cancels.
    """
    a, b = t_i.derivs, t_ref.derivs
    lo = min(len(a), len(b))
    tail = a[lo:] if len(a) > len(b) else tuple(-v for v in b[lo:])
    if all(v == 0.0 for v in tail):
        return None
    return TaylorPolynomial(t_i.center, (0.0,) * lo + tail)


def _difference_derivatives(
    t_i: TaylorPolynomial,
    t_ref: TaylorPolynomial,
    ref_vals: list[float],
    x: float,
    order: int,
) -> list[float] | None:
    """Derivatives 0..order of t_i - t_ref at x; None if exactly zero.

    On a shared center the difference is _shared_center_difference's,
    and None marks one that vanishes.  On distinct centers the values
    are subtracted (ref_vals is the vector of t_ref at x), so the result
    is not exact and loses every digit where the two polynomials agree
    up to rounding: the jet [1, 2, -3] on {0, 0.01} gives 0.0 at orders
    3-8 where the exact glued sum reaches 5e21 (its cancelling terms
    reach 2e38).
    """
    if t_i.center != t_ref.center:
        return [v - r for v, r in zip(t_i.derivatives(x, order), ref_vals)]
    diff = _shared_center_difference(t_i, t_ref)
    return None if diff is None else diff.derivatives(x, order)


def _deviation_derivatives(owners, diffs, phis, n: int, width: int) -> np.ndarray:
    """Derivatives 0..width-1 of (sum_i phi_i T_i) - t_ref at n points.

    Since the phi_i sum to one on the band, the deviation is
    sum_i phi_i (T_i - t_ref).  Row r of diffs is a member's nonzero
    difference vector against t_ref at point owners[r], and row r of
    phis its phi vector.  The product rule runs column-wise over all
    rows in the scalar loop's order, which it matches bit for bit: entry
    a sums comb(a, b) * phi[a - b] * diff[b] from 0.0 for b = 0..a in
    turn, then np.add.at adds a point's rows to its output in the order
    given.  Only + and * run here, which numpy rounds as Python does (no
    log or exp, which must stay libm's).
    """
    out = np.zeros((n, width))
    if len(owners):
        diffs, phis = np.asarray(diffs), np.asarray(phis)
        acc = np.zeros(diffs.shape)
        for b in range(width):
            combs = np.array([math.comb(a, b) for a in range(b, width)], dtype=float)
            acc[:, b:] += combs * phis[:, : width - b] * diffs[:, b : b + 1]
        np.add.at(out, owners, acc)
    return out


def _memberships(cover: WhitneyCover, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ref, pair_k, pair_i): the interval holding each point, and its members.

    The members of x are the intervals whose bump can be alive at x,
    those whose expanded interval holds it; (pair_k, pair_i) lists each
    (point, member) pair, each point's members ascending.  ref is the
    first interval containing x, or else its first member.  All of it
    comes from WhitneyCover.window_memberships, whose two-interval window
    build_partition has checked on the cover.
    """
    cand, inside, expanded = cover.window_memberships(xs)
    slot = np.where(inside.any(axis=1), inside.argmax(axis=1), expanded.argmax(axis=1))
    pair_k, pair_slot = np.nonzero(expanded)
    return cand[np.arange(len(cand)), slot], pair_k, cand[pair_k, pair_slot]


def _glued_derivatives(f: ExtensionFunction, x: float, order: int) -> list[float]:
    """Derivatives 0..order of the extension at one point x off the set.

    The sum runs over the members of x (_memberships) and is taken as
    t_ref plus the deviation from it, t_ref the Taylor polynomial of the
    interval holding x.
    """
    ref, _, members = _memberships(f.cover, [x])
    polys, which = f.local.polys, f.local.which
    t_ref = polys[which[ref[0]]]
    ref_vals = t_ref.derivatives(x, order)
    diffs, phis = [], []
    for i in members.tolist():
        dvals = _difference_derivatives(polys[which[i]], t_ref, ref_vals, x, order)
        if dvals is not None:
            diffs.append(dvals)
            phis.append(f.partition.derivatives(i, x, order))
    out = _deviation_derivatives([0] * len(phis), diffs, phis, 1, order + 1)[0]
    out += ref_vals
    return out.tolist()


class _Glue(NamedTuple):
    """The glued sum at n points, each taken around its polynomial t_ref."""

    ref: np.ndarray  # the interval holding each point (_memberships)
    pair_k: np.ndarray  # (point, member) pairs, each point's members ascending
    pair_i: np.ndarray
    diffs: np.ndarray  # T_i - t_ref per pair; a row that vanishes stays zero
    base: np.ndarray  # t_ref at each point
    dev: np.ndarray  # sum_i phi_i (T_i - t_ref); base + dev is the glued sum


def _glue(f: ExtensionFunction, xs: np.ndarray, order: int, phis: dict, refs=None) -> _Glue:
    """_glued_derivatives at every point of xs in array passes, bit for bit.

    The points lie off the set, inside the band.  Point k is taken
    around polys[which[k]] for refs = (polys, which), distinct
    polynomials; by default around its holding interval's, the local
    rule's polys[which[ref[k]]].  Members and holding intervals come
    from one _memberships call.  Shared center and vanishing are decided
    once per distinct (T_i, t_ref); the t_ref vectors and the difference
    rows that do not vanish come from one Horner pass each
    (taylor_vectors), a distinct-center row less the t_ref vector
    (_difference_derivatives' two cases).  The phi vector of each live
    (x, member) pair is read from the dict phis, or computed by
    Partition.derivatives and added to it.
    """
    n = len(xs)
    ref, pair_k, pair_i = _memberships(f.cover, xs)
    interval = f.local.which  # the polynomial of each interval in f.local.polys
    polys, which = (f.local.polys, interval[ref]) if refs is None else refs
    base = taylor_vectors(polys, which, xs, order)

    diff_polys: list[TaylorPolynomial] = []
    row_of = np.full(pair_k.size, -1)
    apart = np.zeros(pair_k.size, dtype=bool)  # centers differ
    # One group per distinct (T_i, t_ref), its pairs in ascending order.
    keys = interval[pair_i] * len(polys) + which[pair_k]
    by_key = np.argsort(keys, kind="stable")
    for sel in np.split(by_key, np.flatnonzero(np.diff(keys[by_key])) + 1):
        t_i, t_ref = f.local.polys[interval[pair_i[sel[0]]]], polys[which[pair_k[sel[0]]]]
        if t_i.center != t_ref.center:
            apart[sel] = True
            poly = t_i
        else:
            poly = _shared_center_difference(t_i, t_ref)
        if poly is not None:
            row_of[sel] = len(diff_polys)
            diff_polys.append(poly)
    live = row_of >= 0
    live_k, live_i = pair_k[live], pair_i[live]
    diffs = np.zeros((pair_k.size, order + 1))
    if diff_polys:
        rows = taylor_vectors(diff_polys, row_of[live], xs[live_k], order)
        rows[apart[live]] -= base[live_k[apart[live]]]
        diffs[live] = rows

    xs_list = xs.tolist()
    vecs = []
    for k, i in zip(live_k.tolist(), live_i.tolist()):
        vec = phis.get((xs_list[k], i))
        if vec is None:
            vec = phis[xs_list[k], i] = f.partition.derivatives(i, xs_list[k], order)
        vecs.append(vec)
    dev = _deviation_derivatives(live_k, diffs[live], vecs, n, order + 1)
    return _Glue(ref, pair_k, pair_i, diffs, base, dev)


def eval_derivative(f: ExtensionFunction, x, alpha):
    """Derivatives of the glued extension, or the jet values on E.

    x is a float or a 1-D array of points and alpha an order or an array
    of orders.  The result is indexed [x][alpha], an axis dropped where
    its argument is a scalar: a float x and an int alpha give a float.
    Orders are capped by the fold count of the partition; outside the
    resolved band the evaluation refuses rather than extrapolating, and
    an array refuses if any of its points does.  Where live bumps carry
    Taylor polynomials of distinct anchors, the value is not exact:
    _difference_derivatives subtracts two separately evaluated Taylor
    vectors there.

    A float x is read as a one-point array: one distance lookup, one
    region check and the jet values on E serve both forms.  Each off-set
    point's vector 0..max(alpha) is built once: by _glued_derivatives at
    a float x, by one _glue pass over an array, which agree bit for bit.
    Entry a of that vector is bitwise the order-a vector's last entry:
    the Taylor vectors, Partition.derivatives and the product rule each
    compute entry a from entries <= a only.
    """
    orders = np.asarray(alpha)
    if orders.size == 0 or not ((orders >= 0) & (orders <= f.plan.folds)).all():
        raise OrderOverflow(f"order {alpha} is not within 0..{f.plan.folds}, the fold count")
    top = int(orders.max())
    scalar = np.ndim(x) == 0
    xs = np.asarray(x, dtype=float).reshape(-1)
    ds, _ = distances_and_nearest(f.jet.e, xs)
    off = ds != 0.0
    outside = off & ~((ds >= f.cover.d_min_covered) & (ds < f.d_max))
    if outside.any():  # the first such point, a NaN distance too
        d = float(ds[outside][0])
        if not d < f.d_max:
            raise OutsideRegion(f"d(x)={d} is not below d_max={f.d_max}")
        raise OutsideRegion(f"d(x)={d} lies below the resolved cover depth")
    out = np.empty((xs.size, top + 1))
    for k in np.flatnonzero(~off).tolist():
        out[k] = _jet_values(f, float(xs[k]), top)
    if scalar and off[0]:
        out[0] = _glued_derivatives(f, float(xs[0]), top)
    elif off.any():
        g = _glue(f, xs[off], top, {})
        out[off] = g.dev + g.base
    vals = out[0, orders] if scalar else out[:, orders]
    return float(vals) if vals.ndim == 0 else vals


# -- bound verification -------------------------------------------------


class BoundCheck(NamedTuple):
    """Outcome of one displayed-bound check over the sample."""

    name: str
    fitted_constant: float
    max_ratio: float
    alpha_trend: str
    alpha_growth: float
    distance_trend: str
    distance_growth: float
    samples_used: int
    skipped: int
    passed: bool
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return self._asdict()


class BoundReport(NamedTuple):
    checks: tuple[BoundCheck, ...]
    sample_count: int
    alpha_cap: int
    fitted_m: float
    fitted_m1: float
    degree_cap_hits: int
    degree_cutoff_hits: int
    plan: ExtensionPlan
    notes: tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            **self._asdict(),
            "checks": [c.to_json() for c in self.checks],
            "all_passed": self.all_passed,
            "plan": self.plan.to_json(),
        }


def region_samples(f: ExtensionFunction, n: int) -> np.ndarray:
    """Deterministic geometric ladder through the evaluation band."""
    lo = max(f.cover.d_min_covered, f.d_max * 1e-12, 5e-16)
    hi = f.d_max * (1.0 - 1e-9)
    if not lo < hi:
        raise ValueError("evaluation band is empty at this resolution")
    rungs = np.geomspace(lo, hi, max(int(n) // (2 * len(f.jet.e.components)), 8))
    pts = []
    for a, b in f.jet.e.components:
        pts.append(a - rungs)
        pts.append(b + rungs)
    xs = sorted_unique(np.concatenate(pts))
    d = distance_grid(f.jet.e, xs)
    return xs[(d >= f.cover.d_min_covered) & (d < f.d_max)]


def _half_decades(ds) -> np.ndarray:
    """The half-decade of 1/d holding each distance d: floor(2 log10(1/d))."""
    return np.floor(np.log10(1.0 / np.asarray(ds, dtype=float)) * 2.0).astype(int)


def _log_abs(values: np.ndarray, used=True) -> tuple[np.ndarray, np.ndarray]:
    """(|v|, numpy's log|v|), zeros outside the mask used: log within an ulp or so of math.log."""
    mag = np.abs(values)
    np.copyto(mag, 0.0, where=np.logical_not(used))
    with np.errstate(divide="ignore"):
        return mag, np.log(mag)


def _bound_ratios(mag, logs, log_rhs, live, bins, exponent) -> np.ndarray:
    """math.exp(exponent(math.log(mag) - log_rhs, column)) where live and mag > 0, else 0.0.

    exponent maps an array of log ratios and their column indices to the
    exponents, entry by entry.  logs is numpy's log of mag (_log_abs) and
    bins[r] row r's distance bin (_half_decades).  numpy's log and exp
    fill the table; math.log and math.exp take the entries libm_picks
    names for the column and bin maxima, with those forced whose log
    ratio lies past 2^12, where an ulp of it exceeds what LIBM_TOL allows.
    """
    live = live & (mag > 0.0)
    order = np.arange(mag.shape[1])
    cols = np.broadcast_to(order, mag.shape)
    raw = logs - log_rhs
    out = np.where(live, np.exp(exponent(raw, cols)), 0.0)
    keys = (order, (bins - bins.min(initial=0))[:, None])
    pick = live & libm_picks(out, keys, live & ~(np.abs(raw) < 2.0**12))
    raw = libm(math.log, mag[pick]) - np.broadcast_to(log_rhs, mag.shape)[pick]
    out[pick] = libm(math.exp, exponent(raw, cols[pick]))
    return out


def _capped(raw, cols) -> np.ndarray:
    """The exponent of a bound check's ratio: the log ratio, at most 700."""
    return np.minimum(raw, 700.0)


def _ratio_check(name, values, log_rhs, row_ds, skipped, used=True, terminal=False):
    """One check's verdict from its (rows x orders) table of values v, row r at distance row_ds[r].

    An entry's ratio is |v| / e^log_rhs (log_rhs broadcast against the
    table), its exponent capped at 700, and 0.0 where v is zero or the
    entry is outside used.  A terminal check first fits one growth base,
    the worst (a + 1)-th root of the per-order log envelope (made libm's
    first), so the companion constant is at most one over the sample and
    every normalized ratio e^(log ratio - (a + 1) log base) is bounded by
    one; it returns (BoundCheck, base), any other check the BoundCheck.

    The verdict is the per-entry one, read from per-row values: as the
    unused ratios are 0.0, a row's maximum is its used entries' maximum.
    The worst ratio is Python's max over the used entries in row order (a
    leading NaN is the result, a later one is passed over).  A check
    without a usable sample fails: it has shown nothing.
    """
    used = np.broadcast_to(used, values.shape)
    mag, logs = _log_abs(values, used)
    exponent, live, profile, fitted = _capped, True, None, None
    if terminal:
        orders = np.arange(mag.shape[1])
        raw, env = libm_log_maxima(mag, log_rhs, orders, orders.size, logs)
        env = env.tolist()
        kept = [a for a, v in enumerate(env) if v > -math.inf]
        log_base = max([0.0] + [env[a] / (a + 1) for a in kept])
        # Consecutive chord slopes of the log envelope.  A uniform base
        # exists exactly when these stabilize rather than keep growing,
        # so the order verdict is taken on this profile.  The normalized
        # per-order maxima rise toward one at the binding order by
        # construction and carry no verdict of their own.
        profile = [
            math.exp(min((env[a2] - env[a1]) / (a2 - a1), 700.0))
            for a1, a2 in zip(kept, kept[1:])
        ]
        shift = (orders + 1) * log_base
        exponent, live = (lambda x, cols: x - shift[cols]), raw > -np.inf
        fitted = math.exp(min(log_base, 700.0))
    bins = _half_decades(row_ds)
    ratios = _bound_ratios(mag, logs, log_rhs, live, bins, exponent)
    count = int(np.count_nonzero(used))
    if count == 0:
        check = BoundCheck(
            name, 0.0, 0.0, INCONCLUSIVE, 1.0, INCONCLUSIVE, 1.0, 0, skipped, False,
            ("every sample was skipped",) if skipped else ("no usable samples",),
        )
    else:
        maxima = np.fmax.reduce(ratios, axis=0, initial=0.0)
        rows = used.any(axis=1)
        first = int(rows.argmax())
        max_ratio = float(ratios[first, used[first].argmax()])
        if not math.isnan(max_ratio):
            max_ratio = float(maxima.max())
        at, ag = range_trend(maxima[used.any(axis=0)] if profile is None else profile)
        keys, group = np.unique(bins[rows], return_inverse=True)
        top = np.full(keys.size, -np.inf)
        np.maximum.at(top, group, np.max(ratios, axis=1)[rows])
        # The audit's own policy: bins spanning under two decades carry no
        # distance trend, and the window is the top min(2, span - 0.5) decades.
        mids = 10.0 ** ((keys + 0.5) / 2.0)
        dt, dg = INCONCLUSIVE, 1.0
        if mids[-1] / mids[0] >= 100.0:
            dt, dg = decade_trend(mids, top, decades=min(2.0, math.log10(mids[-1] / mids[0]) - 0.5))
        check = BoundCheck(
            name=name,
            fitted_constant=max_ratio if fitted is None else fitted,
            max_ratio=max_ratio,
            alpha_trend=at,
            alpha_growth=float(ag),
            distance_trend=dt,
            distance_growth=float(dg),
            samples_used=count,
            skipped=skipped,
            passed=math.isfinite(max_ratio) and at != GROWING and dt != GROWING,
        )
    return (check, fitted) if terminal else check


def verify_bounds(
    f: ExtensionFunction, *, samples: int = 400, alpha_cap: int = 8
) -> BoundReport:
    """Check every displayed estimate of the construction on a sample.

    Each check fits its free constant as the worst observed ratio and
    reports the ratio trend in the order and in the distance; a check
    passes when the ratios are finite and neither trend is growing.
    The two terminal estimates fit a growth base instead (one base for
    all orders, no per-order refit).  Failures are entries in the
    report, not exceptions, so a degenerate plan can be audited.  Both
    yardsticks come from the degree row f.degree_row (row 2*xi of the
    regularized matrix): the Taylor value checks take the full row of
    its interleaving at xi (interleave_matrix, so the row's quotient
    view), the growth checks the full row 2*xi itself.

    Phase 1 fills (samples x orders) tables with the vectors of t_x
    (the sample's Taylor polynomial), its jet row, dev_x (the glued sum
    minus t_x) and the glued sum, and a pair table with each (sample,
    member) difference vector against t_x and the member's d_i, decay
    value and settled flag.  It runs as array passes over the whole
    sample set, bitwise equal to a per-sample walk: distances and t_x by
    _local_taylor (the rule assemble applies to the interval centers),
    then one _glue pass around t_x for the t_x vectors, the difference
    rows and dev_x.  Its members come from _memberships, whose
    WhitneyCover.window_memberships tests only the two intervals whose
    centers bracket a sample.
    That window holds because no expanded interval reaches a neighbouring
    center (sorted centers, disjoint cells, the 9/8 expansion), which
    build_partition checked when the extension was assembled.  Shared
    center and vanishing are decided once per distinct (T_i, t_x) pair.
    The samples whose holding interval carries a polynomial other than
    t_x are glued once more, in a second _glue pass around that t_ref,
    so the glued sum is eval_derivative's bit for bit.  Each (sample,
    member) phi vector is one Partition.derivatives call, shared by the
    two passes; it is the only per-pair work.

    Phase 2 runs one _ratio_check per estimate over its table, with
    elementwise array arithmetic in the operation order of a per-sample
    loop, bit for bit: subtraction, abs, minimum and fmax are the scalar
    operations.  Only the column and distance-bin maxima of a check's
    ratio table, and the column maxima of a terminal check's log
    envelope, reach the report; numpy's log and exp fill the tables, and
    the entries that can decide one of those maxima take libm's
    (math.log and math.exp) by the rule of _fitting.libm_picks, so every
    reported figure is the per-entry libm computation's.
    """
    plan = f.plan
    cap = min(int(alpha_cap), plan.folds, f.jet.alpha_max)
    notes: list[str] = []
    if cap < alpha_cap:
        notes.append(f"order cap clipped to {cap} by folds or stored jet order")
    xs = region_samples(f, samples)
    ld = plan.dilation
    k3 = plan.constants.k3
    n, width = len(xs), cap + 1
    orders = np.arange(width)

    # Per-interval decay values at the dilated center distance.
    center_lh, center_ok = _log_decay(f.degree_row, libm(math.log, ld * f.local.distance))

    # The yardsticks, full rows built from the degree row alone.
    degree_matrix = WeightMatrix({2.0 * plan.xi: f.degree_row})
    value_log = interleave_matrix(degree_matrix, [plan.xi]).full_log_row(plan.xi).tolist()
    growth_log = degree_matrix.full_log_row(2.0 * plan.xi)[:width]

    # Order-only log terms, each the left part of the per-sample sum it
    # starts, so adding the sample's own term gives the same float.
    log_2ld = math.log(2.0 * ld)
    taylor_rhs = np.array([(a + 1) * log_2ld + value_log[a] for a in range(width)])
    n_consis = min(width, len(value_log) - 1)
    consis_rhs = np.array([
        (a + 1) * log_2ld + math.lgamma(a + 1) + value_log[a + 1] - math.lgamma(a + 2)
        for a in range(n_consis)
    ] + [0.0] * (width - n_consis))
    log_rows = [math.lgamma(b + 1) + f.degree_row.log_values[b] for b in range(width)]
    far_rhs = np.array([(b + 1) * math.log(ld) + r for b, r in enumerate(log_rows)])
    near_rhs = np.array([(b + 1) * math.log(3.0 * ld) + r for b, r in enumerate(log_rows)])

    # Phase 1: each sample's t_x by the local Taylor rule, then t_x, the
    # (sample, member) difference rows against it and dev_x from one
    # array glue around t_x.
    local = _local_taylor(f.jet, f.degree_row, ld, xs)
    ds, wants, degs = local.distance, local.requested, local.degree
    jet_tab = np.array(f.jet.rows)[local.anchor, :width]
    lh_near, near_ok = _log_decay(f.degree_row, libm(math.log, 3.0 * ld * ds))
    lh_resid, resid_ok = _log_decay(f.residual_row, libm(math.log, k3 * ld * ds))
    phis: dict = {}
    g = _glue(f, xs, cap, phis, (local.polys, local.which))
    tx, dev, diffs, pair_k, pair_i = g.base, g.dev, g.diffs, g.pair_k, g.pair_i

    # Where the holding interval's polynomial is t_x the glued sum is t_x
    # plus dev_x; the other samples are glued again around their t_ref,
    # reusing the phi vectors already built.
    glued = dev + tx
    other = (f.local.anchor[g.ref] != local.anchor) | (f.local.degree[g.ref] != degs)
    if other.any():
        h = _glue(f, xs[other], cap, phis)
        glued[other] = h.dev + h.base
    # The residual estimate presumes the local degrees actually reach
    # what the distance asks for; once the stored jet order caps them
    # the sum decays polynomially, not at the profile rate.
    capped = degs < wants
    capped[pair_k[(f.local.degree < f.local.requested)[pair_i]]] = True

    # Phase 2: one ratio check per estimate.  Each reads the entries
    # marked in its used mask, and its tables are dropped once its
    # verdict is in.
    i_ok, x_ok = center_ok[pair_i][:, None], near_ok[pair_k][:, None]
    rows = (resid_ok & ~capped)[:, None]
    checks = [
        _ratio_check("taylor_value_bound", tx, taylor_rhs, ds, 0),
        _ratio_check(
            "taylor_jet_consistency", tx - jet_tab, consis_rhs + libm(math.log, ds)[:, None],
            ds, 0, orders < np.minimum(wants, n_consis)[:, None],
        ),
        _ratio_check(
            "pair_difference_interval", diffs, far_rhs + center_lh[pair_i][:, None],
            f.local.distance[pair_i], width * int(np.count_nonzero(~i_ok)), i_ok,
        ),
        _ratio_check(
            "pair_difference_point", diffs, near_rhs + lh_near[pair_k][:, None],
            ds[pair_k], width * int(np.count_nonzero(~x_ok)), x_ok,
        ),
    ]
    resid, m1 = _ratio_check(
        "residual_decay", dev, growth_log + lh_resid[:, None], ds,
        width * int(np.count_nonzero(~rows)), rows, terminal=True,
    )
    growth, m = _ratio_check("global_derivative_growth", glued, growth_log, ds, 0, terminal=True)
    return BoundReport(
        checks=(*checks, resid, growth),
        sample_count=n,
        alpha_cap=cap,
        fitted_m=m,
        fitted_m1=m1,
        degree_cap_hits=int(np.count_nonzero(degs < wants)),
        degree_cutoff_hits=int(np.count_nonzero(local.cutoff)),
        plan=plan,
        notes=tuple(notes),
    )


# -- boundary limits ----------------------------------------------------


class BoundaryStep(NamedTuple):
    index: int
    x: float
    distance: float
    decay: float
    errors: tuple[float, ...]


class BoundaryReport(NamedTuple):
    """Dyadic approach of the extension derivatives to the jet values.

    fitted[a] is the smallest constant with e_j <= fitted * (d_j + decay_j)
    over the recorded steps; the trend fields say whether that ratio was
    still rising when the descent stopped.
    """

    a: float
    alpha_cap: int
    steps: tuple[BoundaryStep, ...]
    fitted: tuple[float, ...]
    nonincreasing: tuple[bool, ...]
    ratio_trend: tuple[str, ...]
    floor_index: int | None
    floor_reason: str | None
    decay_scale: float

    def to_json(self) -> dict:
        """The summary in bound_report.json; the steps themselves go to a CSV."""
        return {**self._asdict(), "steps": len(self.steps)}


def boundary_limits(
    f: ExtensionFunction, alpha_cap: int, a: float, *, max_index: int = 60
) -> BoundaryReport:
    """Watch f approach its jet along a + 2^-j for j up to max_index.

    The descent starts at the first step below d_max and stops early,
    with the index and reason recorded, at the first step that lands in
    the set, drops below the cover depth or leaves the decay scale
    unresolved, tested in that order.  Those rules read distances and
    decay only, so one pass over every step decides the stop before
    anything is evaluated; each step above it is then one
    eval_derivative call.  PrecisionFloor is raised when no step lies
    below d_max or already the first step stops the descent.
    """
    if not 0 <= alpha_cap <= min(f.plan.folds, f.jet.alpha_max):
        raise OrderOverflow(
            f"alpha_cap {alpha_cap} exceeds folds or the stored jet order"
        )
    orders = np.arange(alpha_cap + 1)
    jet_row = f.jet.row(a)[orders]
    scale = f.plan.constants.k3 * f.plan.dilation

    js = np.arange(max_index + 1)
    js = js[np.ldexp(1.0, -js) < f.d_max]
    if not js.size:
        raise PrecisionFloor("no dyadic step lands inside the region")
    xs = a + np.ldexp(1.0, -js)
    ds = distance_grid(f.jet.e, xs)
    # The decay is read up to the first distance stop, where log d is defined.
    near = (ds == 0.0) | (ds < f.cover.d_min_covered)
    n = int(near.argmax()) if near.any() else js.size
    lh, settled = _log_decay(f.residual_row, libm(math.log, scale * ds[:n]))
    # Any decay value below d * eps adds nothing to d + decay in
    # floating point, so an unresolved tail down there is harmless.
    settled |= lh < libm(math.log, ds[:n]) + _LOG_EPS
    kept = int(settled.argmin()) if not settled.all() else n
    if kept < n:
        floor_reason = "decay scale unresolved at the stored order"
    elif n < js.size:
        floor_reason = "step landed inside the set" if ds[n] == 0.0 else "below the resolved cover depth"
    else:
        floor_reason = None
    if kept == 0:
        raise PrecisionFloor(f"first dyadic step already unresolvable: {floor_reason}")

    xs, ds, decay = xs[:kept], ds[:kept], libm(math.exp, lh[:kept])
    errors = np.abs(np.array([eval_derivative(f, x, orders) for x in xs.tolist()]) - jet_row)
    columns = (js[:kept].tolist(), xs.tolist(), ds.tolist(), decay.tolist(), errors.tolist())
    steps = tuple(BoundaryStep(j, x, d, h, tuple(e)) for j, x, d, h, e in zip(*columns))
    ratios = errors / (ds + decay)[:, None]
    tol = 1e-12 * (1.0 + errors.max(axis=0, initial=0.0))
    return BoundaryReport(
        a=float(a),
        alpha_cap=alpha_cap,
        steps=steps,
        fitted=tuple(ratios.max(axis=0).tolist()),
        nonincreasing=tuple((np.diff(errors, axis=0) <= tol).all(axis=0).tolist()),
        ratio_trend=tuple(range_trend(col)[0] for col in (ratios + 1e-300).T),
        floor_index=None if floor_reason is None else int(js[kept]),
        floor_reason=floor_reason,
        decay_scale=scale,
    )
