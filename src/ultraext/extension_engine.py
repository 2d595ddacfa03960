"""Glued extension of a certified jet off the set, with bound reports.

The extension takes the form f = sum_i phi_i T_i where the phi_i come
from the partition subordinate to the dyadic cover and T_i is a Taylor
polynomial of the jet anchored at a nearest set point of the interval
center.  The polynomial degree at distance d is driven by the counting
index of the regularized weight row at the dilated distance L*d, so the
truncation error matches the decay profile of the row's h-function.

Everything here is desk-scale: constants that the existence proofs leave
free (the threshold multiples, the doubling constant of the decay
profile, the growth bases of the final estimates) are either recorded in
the plan or fitted from samples and reported with a trend verdict, never
assumed.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ._fitting import GROWING, INCONCLUSIVE, decade_trend, libm, range_trend
from .errors import (
    MissingRow,
    OrderOverflow,
    OutsideRegion,
    PlanInvalid,
    PrecisionFloor,
)
from .matrix_calculus import WeightMatrix, interleave_matrix, sandwich_H
from .partition_of_unity import Partition, build_partition
from .seq_calculus import WeightSequence, counting_index, log_h_function
from .ultrajets import TaylorPolynomial, UltraJet, taylor_poly, taylor_vectors
from .whitney_geometry import (
    EXPANSION,
    WhitneyCover,
    build_cover,
    distance_and_nearest,
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

# Relative width of the audit's numpy filter in front of libm.  A ratio
# is e^x, x the log ratio log|v| - rhs capped at 700 or less a shift.
# numpy's log and exp are within an ulp or two of libm's; with
# |log|v|| <= 745 and |log ratio| < 2^12 (a larger one always goes to
# libm) numpy's x is within 1.3e-12 of libm's, so its ratio within
# 1.5e-12 relatively, and any width above twice that keeps every entry
# that can hold a libm maximum.  The width stays near that bound: the
# ratios of a deep distance bin can lie closer than 1e-9 (hundreds of
# them do in the README audit at 2000 samples), and each would go to libm.
_AUDIT_TOL = 1e-11

# Cover depth for assemble and the extend job.  build_cover's own 48
# reaches sides where placed bumps degenerate (DegenerateSupport).
MAX_GENERATION = 44


class PlanConstants(NamedTuple):
    """Derived constants carried by a plan.

    c0, c1, c2 are the threshold multiples; h is the fitted doubling
    constant linking the decay profiles of the row and its doubled
    partner; k1 scales the theoretical smoothness degree, k2 is the
    binding threshold multiple, k3 dilates the argument of the residual
    decay profile.  m1 stays None until a bound report fits it.
    """

    c0: float = THRESHOLD_TAYLOR
    c1: float = THRESHOLD_TELESCOPE
    c2: float = THRESHOLD_GLUE
    h: float = 1.0
    k1: float = 1.0
    k2: float = max(THRESHOLD_TAYLOR, THRESHOLD_TELESCOPE, THRESHOLD_GLUE)
    k3: float = 3.0
    m1: float | None = None

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in ("c0", "c1", "c2", "h", "k1", "k2", "k3")}
        out["m1"] = self.m1
        return out


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
        bad = [k for k in ("c0", "c1", "c2", "k1", "k2", "k3") if not 0.0 < getattr(c, k) < math.inf]
        if bad or not (c.m1 is None or math.isfinite(c.m1)):
            raise PlanInvalid(f"plan constants must be positive and finite: {bad or ['m1']}")
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
        a number (``m1`` may be null); booleans and strings are rejected.
        """
        required = {"dilation", "folds", "xi", "rho", "jet_bound"}
        missing = required - set(doc)
        unknown = set(doc) - required - {"constants", "theory_degree"}
        if missing or unknown:
            raise PlanInvalid(
                f"plan keys missing: {sorted(missing)}, unknown: {sorted(unknown)}"
            )
        given = doc.get("constants", {})
        unknown = set(given) - set(PlanConstants._fields)
        if unknown:
            raise PlanInvalid(f"unknown plan constants: {sorted(unknown)}")
        return cls(
            dilation=_plan_number(doc["dilation"], "dilation"),
            folds=_plan_integer(doc["folds"], "folds"),
            xi=_plan_number(doc["xi"], "xi"),
            rho=_plan_number(doc["rho"], "rho"),
            jet_bound=_plan_number(doc["jet_bound"], "jet_bound"),
            constants=PlanConstants(
                **{
                    k: None if k == "m1" and v is None else _plan_number(v, k)
                    for k, v in given.items()
                }
            ),
            theory_degree=_plan_integer(doc.get("theory_degree", 0), "theory_degree"),
        )


def _plan_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanInvalid(f"plan value {name} must be a number, got {value!r}")
    return float(value)


def _plan_integer(value, name: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanInvalid(f"plan value {name} must be an integer, got {value!r}")
    return value


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
    smallest power-of-two multiple clearing every threshold.
    """
    xi = float(certificate.xi)
    rho = float(certificate.rho)
    if not regular.has(2.0 * xi) or not regular.has(4.0 * xi):
        raise MissingRow(f"plan needs rows at 2*xi={2 * xi} and 4*xi={4 * xi}")
    inter = interleave_matrix(regular, [2.0 * xi])
    h = sandwich_H(regular, inter, 2.0 * xi, regular.order)
    # Degree rate of the smoothness budget at envelope base 1: margin and
    # window constants of the cover enter through A_2 = 2.5 and b_1 = 7/16.
    k1 = 27.0 * 2.5 * h / (7.0 / 16.0)
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


def _log_decay(
    row: WeightSequence, log_t, *, negligible_below: float | None = None
) -> tuple[float, bool]:
    """(log of the decay profile, settled flag) at log argument log_t.

    An array of log arguments gives an array of each, entry by entry.

    Settled means the infimum is attained strictly inside the stored
    range, or is already an exact float zero so the missing tail cannot
    change the value.  When negligible_below is given, a partial infimum
    below that log threshold also counts as settled: the true value is
    smaller still, and anything below the threshold is equivalent for
    the caller (used with log(d * eps), where d + h rounds to d exactly
    for every h under the threshold).
    """
    lh, k = log_h_function(row, log_t)
    settled = (k < row.order) | (lh < _LOG_TINY)
    if negligible_below is not None:
        settled = settled | (lh < negligible_below)
    return lh, settled


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
    points = sorted_unique(hats)
    pts = jet.base_points
    nearest = [pts.index(min(pts, key=lambda p: (abs(p - y), p))) for y in points.tolist()]
    anchor = np.array(nearest, dtype=int)[np.searchsorted(points, hats)]
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

    Valid arguments are the stored base points of the jet together with
    the off-set band 0 < d(x) < d_max resolved by the cover.
    """

    jet: UltraJet
    plan: ExtensionPlan
    cover: WhitneyCover
    partition: Partition
    taylors: tuple[TaylorPolynomial, ...]
    degrees: tuple[int, ...]
    requested: tuple[int, ...]
    anchors: tuple[float, ...]
    degree_row: WeightSequence
    residual_row: WeightSequence
    value_row_log: tuple[float, ...]
    growth_row_log: tuple[float, ...]
    d_max: float
    degree_cutoffs: int
    degree_caps: int

    def __call__(self, x: float) -> float:
        return eval_derivative(self, x, 0)


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
    strong regularization of the associated matrix).  Degrees above the
    stored jet order are capped and counted; quotient-range cutoffs in
    the degree rule are likewise counted, never silently absorbed.  A
    plan below its threshold raises PlanInvalid unless the degenerate
    run is requested explicitly.  The partition comes from
    build_partition, which certifies the bump total positive on the
    whole covered band from the template's plateau (no sampling) and
    raises UncoveredPoint where it cannot.  The cover uses the 9/8
    expansion.  Each interval's Taylor polynomial is _local_taylor's at
    its center, and intervals with one (anchor, degree) share one object.
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
    value_row = interleave_matrix(matrix, [plan.xi]).full_log_row(plan.xi)
    growth_row = matrix.full_log_row(2.0 * plan.xi)

    cover = build_cover(jet.e, r_cov, EXPANSION, max_generation)
    partition = build_partition(cover, plan.folds)
    s1 = math.exp(degree_row.log_values[1])
    d_max = min(
        cover.constants.r_0 / (3.0 * cover.constants.B_1),
        1.0 / (3.0 * plan.dilation * s1),
    )

    local = _local_taylor(jet, degree_row, plan.dilation, cover.centers)
    return ExtensionFunction(
        jet=jet,
        plan=plan,
        cover=cover,
        partition=partition,
        taylors=tuple(local.polys[w] for w in local.which.tolist()),
        degrees=tuple(local.degree.tolist()),
        requested=tuple(local.requested.tolist()),
        anchors=tuple(jet.base_points[a] for a in local.anchor.tolist()),
        degree_row=degree_row,
        residual_row=residual_row,
        value_row_log=tuple(float(v) for v in value_row),
        growth_row_log=tuple(float(v) for v in growth_row),
        d_max=d_max,
        degree_cutoffs=int(np.count_nonzero(local.cutoff)),
        degree_caps=int(np.count_nonzero(local.degree < local.requested)),
    )


def _check_region(f: ExtensionFunction, d: float) -> None:
    """Refuse a distance d(x) outside the resolved band (a NaN too)."""
    if not d < f.d_max:
        raise OutsideRegion(f"d(x)={d} is not below d_max={f.d_max}")
    if d < f.cover.d_min_covered:
        raise OutsideRegion(f"d(x)={d} lies below the resolved cover depth")


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

    They differ exactly in the tail entries, so the difference is a
    sparse polynomial whose evaluation never cancels.
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


def _glued_derivatives(f: ExtensionFunction, x: float, order: int) -> list[float]:
    """Derivatives 0..order of the extension at one point x off the set.

    The members are the intervals whose bump can be alive at x, those
    whose expanded interval holds it.  The sum is taken as t_ref plus
    the deviation from it, t_ref the Taylor polynomial of the interval
    holding x: the first one containing x, or else the first expanded one.
    """
    inside, expanded = f.cover.memberships(x)
    members = expanded.tolist()
    t_ref = f.taylors[int(inside[0]) if len(inside) else members[0]]
    ref_vals = t_ref.derivatives(x, order)
    diffs, phis = [], []
    for i in members:
        dvals = _difference_derivatives(f.taylors[i], t_ref, ref_vals, x, order)
        if dvals is not None:
            diffs.append(dvals)
            phis.append(f.partition.derivatives(i, x, order))
    out = _deviation_derivatives([0] * len(phis), diffs, phis, 1, order + 1)[0]
    out += ref_vals
    return out.tolist()


def _interval_keys(f: ExtensionFunction) -> np.ndarray:
    """Each interval's Taylor polynomial as anchor index * (alpha_max + 1) + degree."""
    anchors = np.searchsorted(f.jet.base_points, f.anchors)
    return anchors * (f.jet.alpha_max + 1) + np.asarray(f.degrees)


class _Glue(NamedTuple):
    """The glued sum at n points, each taken around its polynomial t_ref."""

    ref: np.ndarray  # the interval holding each point (_glued_derivatives' rule)
    pair_k: np.ndarray  # (point, member) pairs, each point's members ascending
    pair_i: np.ndarray
    diffs: np.ndarray  # T_i - t_ref per pair; a row that vanishes stays zero
    base: np.ndarray  # t_ref at each point
    dev: np.ndarray  # sum_i phi_i (T_i - t_ref); base + dev is the glued sum
    shared: list  # (T_i, t_ref, pair count) per distinct shared-center pair


def _glue(f: ExtensionFunction, xs: np.ndarray, order: int, phis: dict, refs=None) -> _Glue:
    """_glued_derivatives at every point of xs in array passes, bit for bit.

    The points lie off the set, inside the band.  refs = (polys, which)
    takes point k around polys[which[k]] (distinct polynomials) instead
    of its holding interval's.  Members come from one
    WhitneyCover.window_memberships (CoverOverlap where its two-interval
    window cannot serve the cover).  Shared center and vanishing are
    decided once per distinct (T_i, t_ref); the t_ref vectors and the
    difference rows that do not vanish come from one Horner pass each
    (taylor_vectors), a distinct-center row less the t_ref vector
    (_difference_derivatives' two cases).  The phi vector of each live
    (x, member) pair is read from the dict phis, or computed by
    Partition.derivatives and added to it.
    """
    n = len(xs)
    cand, inside, expanded = f.cover.window_memberships(xs)
    slot = np.where(inside.any(axis=1), inside.argmax(axis=1), expanded.argmax(axis=1))
    ref = cand[np.arange(n), slot]
    pair_k, pair_slot = np.nonzero(expanded)
    pair_i = cand[pair_k, pair_slot]
    interval_key = _interval_keys(f)
    if refs is None:
        holder = dict(zip(interval_key[ref].tolist(), ref.tolist()))
        held = sorted(holder)
        refs = [f.taylors[holder[k]] for k in held], np.searchsorted(held, interval_key[ref])
    polys, which = refs
    base = taylor_vectors(polys, which, xs, order)

    diff_polys: list[TaylorPolynomial] = []
    row_of = np.full(pair_k.size, -1)
    apart = np.zeros(pair_k.size, dtype=bool)  # centers differ
    shared = []
    # One group per distinct (T_i, t_ref), its pairs in ascending order.
    keys = interval_key[pair_i] * len(polys) + which[pair_k]
    by_key = np.argsort(keys, kind="stable")
    for sel in np.split(by_key, np.flatnonzero(np.diff(keys[by_key])) + 1):
        t_i, t_ref = f.taylors[pair_i[sel[0]]], polys[which[pair_k[sel[0]]]]
        if t_i.center != t_ref.center:
            apart[sel] = True
            poly = t_i
        else:
            shared.append((t_i, t_ref, sel.size))
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
    return _Glue(ref, pair_k, pair_i, diffs, base, dev, shared)


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

    Each off-set point's vector 0..max(alpha) is built once: by
    _glued_derivatives at a float x, by one _glue pass over an array,
    which agree bit for bit.  Entry a of that vector is bitwise the
    order-a vector's last entry: the Taylor vectors, Partition.derivatives
    and the product rule each compute entry a from entries <= a only.
    """
    orders = np.asarray(alpha)
    if orders.size == 0 or not ((orders >= 0) & (orders <= f.plan.folds)).all():
        raise OrderOverflow(f"order {alpha} is not within 0..{f.plan.folds}, the fold count")
    top = int(orders.max())
    if np.ndim(x) == 0:
        x = float(x)
        d, _ = distance_and_nearest(f.jet.e, x)
        if d == 0.0:
            vec = _jet_values(f, x, top)
        else:
            _check_region(f, d)
            vec = _glued_derivatives(f, x, top)
        return vec[alpha] if orders.ndim == 0 else np.array(vec)[orders]
    xs = np.asarray(x, dtype=float)
    ds, _ = distances_and_nearest(f.jet.e, xs)
    off = ds != 0.0
    outside = off & ~((ds >= f.cover.d_min_covered) & (ds < f.d_max))
    if outside.any():
        _check_region(f, float(ds[outside][0]))
    out = np.empty((xs.size, top + 1))
    for k in np.flatnonzero(~off).tolist():
        out[k] = _jet_values(f, float(xs[k]), top)
    if off.any():
        g = _glue(f, xs[off], top, {})
        out[off] = g.dev + g.base
    return out[:, orders]


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
        return {
            "name": self.name,
            "fitted_constant": self.fitted_constant,
            "max_ratio": self.max_ratio,
            "alpha_trend": self.alpha_trend,
            "alpha_growth": self.alpha_growth,
            "distance_trend": self.distance_trend,
            "distance_growth": self.distance_growth,
            "samples_used": self.samples_used,
            "skipped": self.skipped,
            "passed": self.passed,
            "notes": list(self.notes),
        }


class BoundReport(NamedTuple):
    checks: tuple[BoundCheck, ...]
    sample_count: int
    alpha_cap: int
    fitted_m: float
    fitted_m1: float
    degree_cap_hits: int
    degree_cutoff_hits: int
    valuation_pairs: int
    valuation_ok: bool
    plan: ExtensionPlan
    notes: tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks) and self.valuation_ok

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "checks": [c.to_json() for c in self.checks],
            "sample_count": self.sample_count,
            "alpha_cap": self.alpha_cap,
            "fitted_m": self.fitted_m,
            "fitted_m1": self.fitted_m1,
            "degree_cap_hits": self.degree_cap_hits,
            "degree_cutoff_hits": self.degree_cutoff_hits,
            "valuation_pairs": self.valuation_pairs,
            "valuation_ok": self.valuation_ok,
            "all_passed": self.all_passed,
            "plan": self.plan.to_json(),
            "notes": list(self.notes),
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


def _ratio_bins(ds: Sequence[float], ratios: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Worst ratio per half-decade of 1/d, abscissae increasing toward d -> 0."""
    r = np.asarray(ratios, dtype=float)
    idx = _half_decades(ds)
    order = np.argsort(idx, kind="stable")
    keys, starts = np.unique(idx[order], return_index=True)
    abscissae = 10.0 ** ((keys + 0.5) / 2.0)
    maxima = np.maximum.reduceat(r[order], starts)
    return abscissae, maxima


def _distance_trend(ds: Sequence[float], ratios: Sequence[float]) -> tuple[str, float]:
    if len(ds) < 4:
        return INCONCLUSIVE, 1.0
    abscissae, maxima = _ratio_bins(ds, ratios)
    if len(abscissae) < 4 or abscissae[-1] / abscissae[0] < 100.0:
        return INCONCLUSIVE, 1.0
    span = math.log10(abscissae[-1] / abscissae[0])
    decades = min(2.0, span - 0.5)
    # decade_trend compares the two halves of its window and needs two
    # bins in each; a sparse sample can leave one half short of that.
    top = abscissae[-1]
    mid = top / 10.0 ** (decades / 2.0)
    lo = top / 10.0**decades * (1.0 - 1e-12)
    first = np.count_nonzero((abscissae >= lo) & (abscissae < mid))
    if first < 2 or np.count_nonzero(abscissae >= mid) < 2:
        return INCONCLUSIVE, 1.0
    return decade_trend(abscissae, maxima, decades=decades)


def _alpha_trend(profile: Sequence[float]) -> tuple[str, float]:
    vals = np.asarray(profile, dtype=float)
    if len(vals) < 8:
        return INCONCLUSIVE, 1.0
    return range_trend(vals)


def _finish_check(
    name: str,
    ratios: Sequence[float],
    ds: Sequence[float],
    per_alpha: dict[int, float],
    skipped: int,
    fitted: float | None = None,
    notes: tuple[str, ...] = (),
    alpha_profile: Sequence[float] | None = None,
) -> BoundCheck:
    """One check's verdict from its ratios and their distances (arrays or lists).

    A check without a usable sample fails: it has shown nothing.  The
    worst ratio is Python's max over the sequence: a leading NaN is the
    result, a later one is passed over.
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        return BoundCheck(
            name, 0.0, 0.0, INCONCLUSIVE, 1.0, INCONCLUSIVE, 1.0, 0, skipped, False,
            notes + (("every sample was skipped",) if skipped else ("no usable samples",)),
        )
    max_ratio = float(ratios[0])
    if not math.isnan(max_ratio):
        max_ratio = float(np.fmax.reduce(ratios))
    if alpha_profile is None:
        alpha_profile = [per_alpha[a] for a in sorted(per_alpha)]
    at, ag = _alpha_trend(alpha_profile)
    dt, dg = _distance_trend(ds, ratios)
    passed = math.isfinite(max_ratio) and at != GROWING and dt != GROWING
    return BoundCheck(
        name=name,
        fitted_constant=float(fitted) if fitted is not None else max_ratio,
        max_ratio=max_ratio,
        alpha_trend=at,
        alpha_growth=float(ag),
        distance_trend=dt,
        distance_growth=float(dg),
        samples_used=ratios.size,
        skipped=skipped,
        passed=passed,
        notes=notes,
    )


def _log_abs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|v|, numpy's log|v|), -inf at zeros: within an ulp or so of math.log."""
    mag = np.abs(values)
    with np.errstate(divide="ignore"):
        return mag, np.log(mag)


def _deciding(ratios: np.ndarray, bins: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Live entries of a numpy ratio table that can be a column or bin maximum.

    ratios holds numpy's values of a table whose true entries are libm's,
    each within half _AUDIT_TOL relative of its libm value where that is
    not tiny; bins[r] is row r's distance bin (_half_decades).  An entry
    is picked when it lies within a relative _AUDIT_TOL of its column's
    or its bin's numpy maximum, so every entry that can be the libm
    maximum is, and every other one stays below it.  A maximum under
    2^-1000 (subnormal values, where numpy's relative error is unbounded)
    or NaN picks every live entry of its group.
    """
    def floor(top):
        return np.where(top >= 2.0**-1000, top * (1.0 - _AUDIT_TOL), -np.inf)

    keys = bins - bins.min(initial=0)
    bin_top = np.zeros(keys.max(initial=0) + 1)
    np.fmax.at(bin_top, keys, np.fmax.reduce(ratios, axis=1, initial=0.0))
    col_top = np.fmax.reduce(ratios, axis=0, initial=0.0)
    return live & ((ratios >= floor(col_top)) | (ratios >= floor(bin_top)[keys][:, None]))


def _bound_ratios(mag, logs, log_rhs, live, bins, exponent) -> np.ndarray:
    """math.exp(exponent(math.log(mag) - log_rhs, column)) where live and mag > 0, else 0.0.

    exponent maps an array of log ratios and their column indices to the
    exponents, entry by entry.  logs is numpy's log of mag (_log_abs).
    numpy's log and exp fill the table; the entries _deciding picks, and
    only those, take math.log and math.exp, so every column and bin
    maximum is the per-entry libm value.
    """
    live = live & (mag > 0.0)
    cols = np.broadcast_to(np.arange(mag.shape[1]), mag.shape)
    raw = logs - log_rhs
    out = np.where(live, np.exp(exponent(raw, cols)), 0.0)
    # Past 2^12 an ulp of the log ratio can exceed what _AUDIT_TOL allows.
    pick = _deciding(out, bins, live) | (live & ~(np.abs(raw) < 2.0**12))
    raw = libm(math.log, mag[pick]) - np.broadcast_to(log_rhs, mag.shape)[pick]
    out[pick] = libm(math.exp, exponent(raw, cols[pick]))
    return out


def _capped(raw, cols) -> np.ndarray:
    """The exponent of a bound check's ratio: the log ratio, at most 700."""
    return np.minimum(raw, 700.0)


def _log_envelope(mag, logs, log_rhs) -> tuple[np.ndarray, np.ndarray]:
    """(raw, env): raw = math.log(mag) - log_rhs where mag > 0, else -inf, and its column maxima.

    numpy's logs fill raw; the entries within _AUDIT_TOL * (1 + |top|) of
    their column's numpy maximum top take math.log, so env is the
    per-entry libm envelope and no other entry of raw exceeds it.  The
    other entries of raw stay numpy's.
    """
    raw = np.where(mag > 0.0, logs - log_rhs, -np.inf)
    top = np.fmax.reduce(raw, axis=0, initial=-np.inf)
    with np.errstate(invalid="ignore"):
        pick = (mag > 0.0) & (raw >= top - _AUDIT_TOL * (1.0 + np.abs(top)))
    raw[pick] = libm(math.log, mag[pick]) - np.broadcast_to(log_rhs, raw.shape)[pick]
    return raw, np.fmax.reduce(raw, axis=0, initial=-np.inf)


def verify_bounds(
    f: ExtensionFunction, *, samples: int = 400, alpha_cap: int = 8
) -> BoundReport:
    """Check every displayed estimate of the construction on a sample.

    Each check fits its free constant as the worst observed ratio and
    reports the ratio trend in the order and in the distance; a check
    passes when the ratios are finite and neither trend is growing.
    The two terminal estimates fit a growth base instead (one base for
    all orders, no per-order refit).  Failures are entries in the
    report, not exceptions, so a degenerate plan can be audited.

    Phase 1 fills (samples x orders) tables with the vectors of t_x
    (the sample's Taylor polynomial), its jet row, dev_x (the glued sum
    minus t_x) and the glued sum, and a pair table with each (sample,
    member) difference vector against t_x and the member's d_i, decay
    value and settled flag.  It runs as array passes over the whole
    sample set, bitwise equal to a per-sample walk: distances and t_x by
    _local_taylor (the rule assemble applies to the interval centers),
    then one _glue pass around t_x for the t_x vectors, the difference
    rows and dev_x.  Its members come from WhitneyCover.window_memberships,
    which tests only the two intervals whose centers bracket a sample.
    That window holds because no expanded interval reaches a neighbouring
    center (sorted centers, disjoint cells, the 9/8 expansion); it is
    checked once per call and CoverOverlap raised if it fails.  Shared
    center, valuation and vanishing are decided once per distinct
    (T_i, t_x) pair.  The samples whose holding interval carries a
    polynomial other than t_x are glued once more, in a second _glue
    pass around that t_ref, so the glued sum is eval_derivative's bit for
    bit.  Each (sample, member) phi vector is one Partition.derivatives
    call, shared by the two passes; it is the only per-pair work.

    Phase 2 computes every check from the tables with elementwise array
    arithmetic in the operation order of a per-sample loop, bit for bit:
    subtraction, abs, minimum and fmax are the scalar operations.  Only
    the column and distance-bin maxima of a check's ratio table, and the
    column maxima of a terminal check's log envelope, reach the report;
    numpy's log and exp fill the tables, and the entries that can decide
    one of those maxima take libm's (math.log and math.exp), so every
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
    center_d = distance_grid(f.jet.e, f.cover.centers)
    center_lh, center_ok = _log_decay(f.degree_row, libm(math.log, ld * center_d))

    # Order-only log terms, each the left part of the per-sample sum it
    # starts, so adding the sample's own term gives the same float.
    log_2ld = math.log(2.0 * ld)
    taylor_rhs = np.array([(a + 1) * log_2ld + f.value_row_log[a] for a in range(width)])
    consis_rhs = [
        (a + 1) * log_2ld + math.lgamma(a + 1) + f.value_row_log[a + 1] - math.lgamma(a + 2)
        for a in range(min(width, len(f.value_row_log) - 1))
    ]
    log_rows = [math.lgamma(b + 1) + f.degree_row.log_values[b] for b in range(width)]
    far_rhs = np.array([(b + 1) * math.log(ld) + r for b, r in enumerate(log_rows)])
    near_rhs = np.array([(b + 1) * math.log(3.0 * ld) + r for b, r in enumerate(log_rows)])
    growth_log = np.array(f.growth_row_log[:width])

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
    val_pairs = sum(count for _, _, count in g.shared)
    val_ok = all([_valuation_oks(f.jet, t_x.center, t_i, t_x) for t_i, t_x, _ in g.shared])

    # Where the holding interval's polynomial is t_x the glued sum is t_x
    # plus dev_x; the other samples are glued again around their t_ref,
    # reusing the phi vectors already built.
    glued = dev + tx
    sample_key = local.anchor * (f.jet.alpha_max + 1) + degs
    other = _interval_keys(f)[g.ref] != sample_key
    if other.any():
        h = _glue(f, xs[other], cap, phis)
        glued[other] = h.dev + h.base
    # The residual estimate presumes the local degrees actually reach
    # what the distance asks for; once the stored jet order caps them
    # the sum decays polynomially, not at the profile rate.
    capped = degs < wants
    capped[pair_k[(np.asarray(f.degrees) < np.asarray(f.requested))[pair_i]]] = True

    # Phase 2: the checks, column-wise over the tables.  A check reads
    # the entries marked in `used`; its tables are dropped once its
    # verdict is in.
    checks: list[BoundCheck] = []
    ds_bins = _half_decades(ds)

    def finish(name, ratios, row_ds, skipped, used=True, **kwargs) -> None:
        used = np.broadcast_to(used, ratios.shape)
        maxima = np.fmax.reduce(ratios, axis=0, initial=0.0).tolist()
        per_alpha = {a: v for a, v in enumerate(maxima) if used[:, a].any()}
        ds_used = np.broadcast_to(row_ds[:, None], used.shape)[used]
        checks.append(_finish_check(name, ratios[used], ds_used, per_alpha, skipped, **kwargs))

    mag, logs = _log_abs(tx)
    ratios = _bound_ratios(mag, logs, taylor_rhs, True, ds_bins, _capped)
    finish("taylor_value_bound", ratios, ds, 0)

    used = orders < np.minimum(wants, len(consis_rhs))[:, None]
    mag, logs = _log_abs(np.where(used, tx - jet_tab, 0.0))
    log_rhs = np.array(consis_rhs + [0.0] * (width - len(consis_rhs)))
    log_rhs = log_rhs + libm(math.log, ds)[:, None]
    ratios = _bound_ratios(mag, logs, log_rhs, True, ds_bins, _capped)
    finish("taylor_jet_consistency", ratios, ds, 0, used)

    mag, logs = _log_abs(diffs)
    i_ok, x_ok = center_ok[pair_i][:, None], near_ok[pair_k][:, None]
    skipped_pairs = width * int(np.count_nonzero(~i_ok) + np.count_nonzero(~x_ok))
    log_rhs = far_rhs + center_lh[pair_i][:, None]
    bins = _half_decades(center_d)[pair_i]
    ratios = _bound_ratios(mag, logs, log_rhs, i_ok, bins, _capped)
    finish("pair_difference_interval", ratios, center_d[pair_i], skipped_pairs, i_ok)
    log_rhs = near_rhs + lh_near[pair_k][:, None]
    ratios = _bound_ratios(mag, logs, log_rhs, x_ok, ds_bins[pair_k], _capped)
    finish("pair_difference_point", ratios, ds[pair_k], 0, x_ok)

    # Fit one growth base per terminal estimate, in log space.  The base
    # is the worst (a + 1)-th root of the per-order log envelope, which
    # makes the companion constant at most one over the sample, so every
    # normalized ratio is bounded by one.
    def fit_log_base(env: list[float]) -> float:
        vals = [v / (a + 1) for a, v in enumerate(env) if v > -math.inf]
        return max([0.0] + vals)

    def slope_profile(env: list[float]) -> list[float]:
        # Consecutive chord slopes of the log envelope.  A uniform base
        # exists exactly when these stabilize rather than keep growing,
        # so the order verdict is taken on this profile.  The normalized
        # per-order maxima rise toward one at the binding order by
        # construction and carry no verdict of their own.
        kept = [a for a, v in enumerate(env) if v > -math.inf]
        return [
            math.exp(min((env[a2] - env[a1]) / (a2 - a1), 700.0))
            for a1, a2 in zip(kept, kept[1:])
        ]

    def terminal(name, values, log_rhs, skipped, used=True) -> float:
        # The envelope fixes the base, so it is made libm's first; then
        # each normalized ratio is math.exp(raw - (a + 1) * log_base).
        mag, logs = _log_abs(values)
        raw, env = _log_envelope(mag, logs, log_rhs)
        env = env.tolist()
        log_base = fit_log_base(env)
        shift = (orders + 1) * log_base
        ratios = _bound_ratios(
            mag, logs, log_rhs, raw > -np.inf, ds_bins, lambda x, cols: x - shift[cols]
        )
        fitted = math.exp(min(log_base, 700.0))
        finish(name, ratios, ds, skipped, used, fitted=fitted, alpha_profile=slope_profile(env))
        return fitted

    rows = (resid_ok & ~capped)[:, None]
    log_rhs = growth_log + lh_resid[:, None]
    skipped = width * int(np.count_nonzero(~rows))
    m1 = terminal("residual_decay", np.where(rows, dev, 0.0), log_rhs, skipped, rows)
    m = terminal("global_derivative_growth", glued, growth_log, 0)
    return BoundReport(
        checks=tuple(checks),
        sample_count=n,
        alpha_cap=cap,
        fitted_m=m,
        fitted_m1=m1,
        degree_cap_hits=int(np.count_nonzero(degs < wants)),
        degree_cutoff_hits=int(np.count_nonzero(local.cutoff)),
        valuation_pairs=val_pairs,
        valuation_ok=val_ok,
        plan=plan,
        notes=tuple(notes),
    )


def _valuation_oks(
    jet: UltraJet, anchor: float, t_i: TaylorPolynomial, t_x: TaylorPolynomial
) -> bool:
    """Shared-anchor difference must vanish exactly to the lower degree.

    Truncations of one derivative row differ exactly by the row entries
    beyond the lower degree, so the first nonzero coefficient of the
    difference sits at min degree + 1 whenever that row entry is nonzero.
    """
    a, b = t_i.derivs, t_x.derivs
    lo = min(len(a), len(b))
    if a[:lo] != b[:lo]:
        return False
    if len(a) == len(b):
        return a == b
    tail = a[lo:] if len(a) > len(b) else b[lo:]
    row = jet.row(anchor)
    first = next((k for k, v in enumerate(tail) if v != 0.0), None)
    expected = next(
        (k for k in range(lo, lo + len(tail)) if row[k] != 0.0), None
    )
    if expected is None:
        return first is None
    return first is not None and lo + first == expected


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
        return {
            "a": self.a,
            "alpha_cap": self.alpha_cap,
            "steps": len(self.steps),
            "fitted": list(self.fitted),
            "nonincreasing": list(self.nonincreasing),
            "ratio_trend": list(self.ratio_trend),
            "floor_index": self.floor_index,
            "floor_reason": self.floor_reason,
            "decay_scale": self.decay_scale,
        }


def boundary_limits(
    f: ExtensionFunction, alpha_cap: int, a: float, *, max_index: int = 60
) -> BoundaryReport:
    """Watch f approach its jet along a + 2^-j for j up to max_index.

    The descent stops early, with the index and reason recorded, when
    the decay scale stops being resolvable or the points drop below the
    cover depth.  PrecisionFloor is raised only if already the first
    step is unresolvable.
    """
    if not 0 <= alpha_cap <= min(f.plan.folds, f.jet.alpha_max):
        raise OrderOverflow(
            f"alpha_cap {alpha_cap} exceeds folds or the stored jet order"
        )
    orders = np.arange(alpha_cap + 1)
    jet_row = [f.jet.value(a, al) for al in orders.tolist()]
    scale = f.plan.constants.k3 * f.plan.dilation

    j0 = 0
    while 2.0**-j0 >= f.d_max:
        j0 += 1
        if j0 > max_index:
            raise PrecisionFloor("no dyadic step lands inside the region")

    steps: list[BoundaryStep] = []
    floor_index: int | None = None
    floor_reason: str | None = None
    for j in range(j0, max_index + 1):
        step = 2.0**-j
        x = a + step
        d, _ = distance_and_nearest(f.jet.e, x)
        if d == 0.0:
            floor_index, floor_reason = j, "step landed inside the set"
            break
        if d < f.cover.d_min_covered:
            floor_index, floor_reason = j, "below the resolved cover depth"
            break
        # Any decay value below d * eps adds nothing to d + decay in
        # floating point, so an unresolved tail down there is harmless.
        lh, settled = _log_decay(
            f.residual_row,
            math.log(scale * d),
            negligible_below=math.log(d) + _LOG_EPS,
        )
        if not settled:
            floor_index, floor_reason = j, "decay scale unresolved at the stored order"
            break
        vals = eval_derivative(f, x, orders).tolist()
        errs = tuple(abs(v - r) for v, r in zip(vals, jet_row))
        steps.append(BoundaryStep(j, x, d, math.exp(lh), errs))
    if not steps:
        raise PrecisionFloor(
            f"first dyadic step already unresolvable: {floor_reason}"
        )

    fitted = []
    noninc = []
    trends = []
    slack = 1e-12
    for al in range(alpha_cap + 1):
        e = np.array([s.errors[al] for s in steps])
        denom = np.array([s.distance + s.decay for s in steps])
        ratios = e / denom
        fitted.append(float(ratios.max()))
        tol = slack * (1.0 + float(e.max(initial=0.0)))
        noninc.append(bool(np.all(np.diff(e) <= tol)))
        if len(ratios) >= 8:
            verdict, _ = range_trend(ratios + 1e-300)
        else:
            verdict = INCONCLUSIVE
        trends.append(verdict)
    return BoundaryReport(
        a=float(a),
        alpha_cap=alpha_cap,
        steps=tuple(steps),
        fitted=tuple(fitted),
        nonincreasing=tuple(noninc),
        ratio_trend=tuple(trends),
        floor_index=floor_index,
        floor_reason=floor_reason,
        decay_scale=scale,
    )
