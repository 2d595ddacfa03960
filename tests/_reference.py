"""Reference operations the tests check the pipeline against.

None of these runs in an extend job.  Each is a plain function over the
public data of a pipeline object, so the objects themselves carry only
what a job uses.
"""

import inspect
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from ultraext._fitting import GROWING, INCONCLUSIVE, decade_trend, libm_log_maxima, range_trend
from ultraext.errors import OrderOverflow, PrecisionFloor
from ultraext.extension_engine import (
    _LOG_EPS,
    BoundaryReport,
    BoundaryStep,
    BoundCheck,
    _bound_ratios,
    _capped,
    _half_decades,
    _log_abs,
    _log_decay,
    eval_derivative,
)
from ultraext.matrix_calculus import WeightMatrix
from ultraext.partition_of_unity import (
    PiecewisePolynomial,
    _derivative_values,
    _eval_local,
    _real_roots_in,
    _taylor_shift,
)
from ultraext.seq_calculus import WeightSequence, _lower_hull_indices, counting_index
from ultraext.whitney_geometry import Eq14Report, distance_grid


def rebuilt(obj, **changes):
    """obj built again through its class's constructor, some arguments changed.

    Every constructor argument is read back from the attribute of its
    name, so the rebuilt object passes the constructor's checks afresh.
    """
    names = inspect.signature(type(obj)).parameters
    unknown = changes.keys() - names.keys()
    if unknown:
        raise TypeError(f"{type(obj).__name__} takes no argument {sorted(unknown)}")
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in names})


def divided_matrix(rows: dict) -> WeightMatrix:
    """The WeightMatrix of a mapping xi -> divided log values."""
    return WeightMatrix({xi: WeightSequence.from_log_values(r) for xi, r in rows.items()})


def matrix_from_json(doc: dict) -> WeightMatrix:
    """The matrix of a WeightMatrix.to_json document: each full row less log k!."""
    rows = {}
    for x, full in zip(doc["xi_values"], doc["rows"]):
        lg = np.array([math.lgamma(i + 1.0) for i in range(len(full))])
        rows[float(x)] = np.asarray(full, dtype=float) - lg
    return divided_matrix(rows)


def support(poly: PiecewisePolynomial) -> tuple[float, float]:
    """First and last breakpoint of a piecewise polynomial."""
    return poly.breakpoints[0], poly.breakpoints[-1]


def derivative(poly: PiecewisePolynomial) -> PiecewisePolynomial:
    """Piecewise derivative, exact per piece; a constant row becomes (0.0,)."""
    rows = []
    for row in poly.pieces:
        if len(row) == 1:
            rows.append((0.0,))
        else:
            rows.append(tuple(m * c for m, c in enumerate(row))[1:])
    return PiecewisePolynomial(poly.breakpoints, tuple(rows))


def integral(poly: PiecewisePolynomial) -> float:
    """Integral over the support, exact per piece."""
    total = 0.0
    for j, row in enumerate(poly.pieces):
        w = poly.breakpoints[j + 1] - poly.breakpoints[j]
        acc = 0.0
        for m in range(len(row) - 1, -1, -1):
            acc = acc * w + row[m] / (m + 1)
        total += acc * w
    return total


def sup_norm(poly: PiecewisePolynomial) -> float:
    """Exact max of the absolute value, from per-piece critical points."""
    best = 0.0
    for j, row in enumerate(poly.pieces):
        w = float(poly.breakpoints[j + 1] - poly.breakpoints[j])
        # Work on the unit piece so root finding sees tame coefficients.
        scaled = np.asarray(row, dtype=float) * w ** np.arange(len(row))
        ts = [0.0, 1.0]
        if scaled.size > 1:
            ts.extend(_real_roots_in(npoly.polyder(scaled), 0.0, 1.0))
        for t in ts:
            best = max(best, abs(_eval_local(scaled, t)))
    return best


def piece_index(poly: PiecewisePolynomial, x: float) -> int:
    """Index of the piece whose interval holds x, -1 outside the span."""
    bp = np.asarray(poly.breakpoints)
    if x < bp[0] or x > bp[-1]:
        return -1
    return min(int(np.searchsorted(bp, x, side="right")) - 1, bp.size - 2)


def bump(part, i: int) -> PiecewisePolynomial:
    """Bump psi_i of a partition as a checked PiecewisePolynomial."""
    return PiecewisePolynomial(tuple(part.placed[i].tolist()), part.rows[i])


def bump_row(poly: PiecewisePolynomial, t: float, probe: float) -> np.ndarray:
    """Coefficients of a built bump around t, from its piece holding probe.

    The oracle of Partition.piece, which finds the piece in the placed
    arrays instead of building the bump.
    """
    j = piece_index(poly, probe)
    assert j >= 0, "probe outside the support"
    return np.array(_taylor_shift(poly.pieces[j], t - poly.breakpoints[j]))


def partition_value(part, i: int, x: float) -> float:
    """phi_i(x) as the quotient of bump i and the bump total."""
    psi = bump(part, i)(x)
    if psi == 0.0:
        return 0.0
    return psi / part.total(x)


def numpy_phi_derivatives(part, i: int, x: float, order: int) -> np.ndarray:
    """Partition.derivatives with its reciprocal and product rules on numpy scalars."""
    out = np.zeros(order + 1)
    bp = part.breakpoints
    if x < bp[0] or x > bp[-1]:
        return out
    j = min(int(np.searchsorted(bp, x, side="right")) - 1, bp.size - 2)
    actives = part.piece_active[j]
    if i not in actives:
        return out
    if len(actives) == 1:
        out[0] = 1.0
        return out
    dx = x - bp[j]
    cfs, tot = part.piece(j)
    psi_d = _derivative_values(cfs[actives.index(i)], dx, order)
    tot_d = _derivative_values(tot, dx, order)
    if tot_d[0] == 0.0:
        return out
    recip = np.zeros(order + 1)
    recip[0] = 1.0 / tot_d[0]
    for m in range(1, order + 1):
        acc = 0.0
        for r in range(1, m + 1):
            acc += math.comb(m, r) * tot_d[r] * recip[m - r]
        recip[m] = -recip[0] * acc
    for b in range(order + 1):
        out[b] = sum(math.comb(b, r) * psi_d[r] * recip[b - r] for r in range(b + 1))
    return out


def scaled(jet, c: float):
    """The jet with every stored value multiplied by c."""
    return rebuilt(jet, rows=tuple(tuple(c * v for v in r) for r in jet.rows))


def terms(f, x: float) -> list[int]:
    """Indices of the intervals whose bump can be alive at x."""
    return [int(i) for i in members(f.cover, x, expanded=True)]


def members(cover, x: float, expanded: bool = False) -> np.ndarray:
    """Indices of the (expanded) cover intervals containing x, by a scan of every interval."""
    half = cover.expanded_halfwidths() if expanded else 0.5 * cover.sides
    return np.nonzero(np.abs(x - cover.centers) <= half)[0]


def memberships(cover, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(members(x), members(x, expanded=True)) from one |x - centers| over every interval.

    The oracle of WhitneyCover.window_memberships at one point.
    """
    gap = np.abs(x - cover.centers)
    return (
        np.nonzero(gap <= 0.5 * cover.sides)[0],
        np.nonzero(gap <= cover.expanded_halfwidths())[0],
    )


def interval_poly(f, i: int):
    """The Taylor polynomial an extension glues on cover interval i."""
    return f.local.polys[f.local.which[i]]


def taylor_degree(poly) -> int:
    """Degree of a TaylorPolynomial: one less than its stored derivative count."""
    return len(poly.derivs) - 1


def taylor_coeffs(poly) -> tuple[float, ...]:
    """Monomial coefficients of a TaylorPolynomial in powers of (y - center)."""
    return tuple(d / math.factorial(m) for m, d in enumerate(poly.derivs))


def gamma_doubling_check(regular, interleaved, xi: float, t_values) -> tuple[bool, float | None]:
    """Exact counting-index doubling between a row and its interleaving.

    Checks 2 * Gamma_{sbar^(2xi)}(t) == Gamma_{v^xi}(t) as integers at
    every grid point.  Returns (True, None) on success, else (False, t)
    for the first violating t.  Cutoff errors from the counting index
    propagate.
    """
    src = regular.row_sequence(2.0 * xi)
    v = interleaved.row_sequence(xi)
    for t in t_values:
        t = float(t)
        if 2 * counting_index(src, t) != counting_index(v, t):
            return False, t
    return True, None


def fraction_minorant(m: WeightSequence) -> WeightSequence:
    """log_convex_minorant on Fraction arithmetic: the hull of the exact log values.

    Each slope and interpolant is an exact rational rounded once to a
    float, the values the integer hull of seq_calculus must reproduce.
    """
    if m.is_log_convex:
        return m
    exact = [Fraction(v) for v in m.log_values]
    hull = _lower_hull_indices(exact)
    out_values = list(m.log_values)
    out_quotients = [0.0] * m.order
    for a, b in zip(hull[:-1], hull[1:]):
        slope_exact = (exact[b] - exact[a]) / (b - a)
        for k in range(a + 1, b):
            out_values[k] = min(m.log_values[k], float(exact[a] + slope_exact * (k - a)))
        for k in range(a, b):
            out_quotients[k] = float(slope_exact)
    return WeightSequence(tuple(out_values), tuple(out_quotients))


def nearest_base_point(jet, y: float) -> float:
    """The base point of the jet nearest y, ties to the smaller one.

    The oracle of the anchor rule of extension_engine._local_taylor.
    """
    return min(jet.base_points, key=lambda p: (abs(p - y), p))


def distance_and_nearest(e, x: float) -> tuple[float, float]:
    """Distance to the set and a nearest point, by a scan of every component.

    A component takes over the nearest point only at a strictly smaller
    distance, so ties go to the smaller coordinate; a NaN x gives
    (nan, nan).  The oracle of whitney_geometry.distances_and_nearest.
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


def stack_cover(e, r_cov: float, max_generation: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, sides, generations) of build_cover, by a descent one cell at a time.

    Pops a dyadic cell, drops it if one component encloses it or it
    misses E by r_cov or more, keeps it if side <= d(center) and else
    splits it; the set tests scan every component.  The oracle of the
    level-by-level descent.
    """
    lo, hi = e.span
    root_side = 2.0 ** math.ceil(math.log2((hi - lo) + 2.0 * r_cov))
    centers, sides, gens = [], [], []
    stack = [(lo - r_cov, root_side, 0)]
    while stack:
        left, side, gen = stack.pop()
        right = left + side
        if any(a <= left and right <= b for a, b in e.components):
            continue
        if not any(a <= right and left <= b for a, b in e.components):
            if min(distance_and_nearest(e, left)[0], distance_and_nearest(e, right)[0]) >= r_cov:
                continue
        center = left + 0.5 * side
        if side <= distance_and_nearest(e, center)[0]:
            centers.append(center)
            sides.append(side)
            gens.append(gen)
        elif gen < max_generation:
            stack.append((left, 0.5 * side, gen + 1))
            stack.append((left + 0.5 * side, 0.5 * side, gen + 1))
    order = np.argsort(centers)
    return np.asarray(centers)[order], np.asarray(sides)[order], np.asarray(gens)[order]


def overlap_counts(cover, sample_points) -> np.ndarray:
    """Number of expanded intervals containing each sample point, one members call each."""
    xs = np.asarray(sample_points, dtype=float)
    return np.array([len(members(cover, x, expanded=True)) for x in xs])


def eq14_loop(cover, sample_points) -> Eq14Report:
    """verify_eq14 as a loop over the samples, each scanning every interval.

    The oracle of the array pass: a sample's pairs are its members in
    ascending order, and the figures accumulate pair by pair.
    """
    xs = np.asarray(sample_points, dtype=float)
    d_x = distance_grid(cover.e, xs)
    d_center = distance_grid(cover.e, cover.centers)
    worst_lo = math.inf
    worst_hi = 0.0
    checked = max_overlap = 0
    violations: list = []
    for x, dx in zip(xs, d_x):
        held = members(cover, x, expanded=True)
        max_overlap = max(max_overlap, len(held))
        for i in held:
            checked += 1
            if dx == 0.0:
                violations.append((float(x), int(i), math.inf))
                worst_hi = math.inf
                continue
            with np.errstate(over="ignore"):  # a ratio past the largest double is inf
                ratio = d_center[i] / dx
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
            if not 0.5 <= ratio <= 3.0:
                violations.append((float(x), int(i), float(ratio)))
    return Eq14Report(
        ok=checked > 0 and not violations,
        worst_lower=float(worst_lo),
        worst_upper=float(worst_hi),
        checked=checked,
        violations=violations,
        max_overlap=max_overlap,
    )


def ratio_bins(ds, ratios) -> tuple[np.ndarray, np.ndarray]:
    """Worst ratio per half-decade of 1/d, abscissae increasing toward d -> 0."""
    r = np.asarray(ratios, dtype=float)
    idx = _half_decades(ds)
    order = np.argsort(idx, kind="stable")
    keys, starts = np.unique(idx[order], return_index=True)
    abscissae = 10.0 ** ((keys + 0.5) / 2.0)
    maxima = np.maximum.reduceat(r[order], starts)
    return abscissae, maxima


def alpha_trend(profile) -> tuple[str, float]:
    """The order verdict of a check from its per-order profile."""
    vals = np.asarray(profile, dtype=float)
    if len(vals) < 8:
        return INCONCLUSIVE, 1.0
    return range_trend(vals)


def distance_trend(ds, ratios) -> tuple[str, float]:
    """The distance verdict of a check from its used entries and their distances."""
    if len(ds) < 4:
        return INCONCLUSIVE, 1.0
    abscissae, maxima = ratio_bins(ds, ratios)
    if len(abscissae) < 4 or abscissae[-1] / abscissae[0] < 100.0:
        return INCONCLUSIVE, 1.0
    span = math.log10(abscissae[-1] / abscissae[0])
    decades = min(2.0, span - 0.5)
    top = abscissae[-1]
    mid = top / 10.0 ** (decades / 2.0)
    lo = top / 10.0**decades * (1.0 - 1e-12)
    first = np.count_nonzero((abscissae >= lo) & (abscissae < mid))
    if first < 2 or np.count_nonzero(abscissae >= mid) < 2:
        return INCONCLUSIVE, 1.0
    return decade_trend(abscissae, maxima, decades=decades)


def finish_check(
    name, ratios, ds, per_alpha, skipped, fitted=None, notes=(), alpha_profile=None
) -> BoundCheck:
    """One check's verdict from its used ratios and their distances (arrays or lists).

    A check without a usable sample fails.  The worst ratio is Python's
    max over the sequence: a leading NaN is the result, a later one is
    passed over.  The oracle of extension_engine._ratio_check's verdict.
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
    at, ag = alpha_trend(alpha_profile)
    dt, dg = distance_trend(ds, ratios)
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


def entry_ratio_check(name, values, log_rhs, row_ds, skipped, used=True, terminal=False):
    """extension_engine._ratio_check through a masked copy of the used entries.

    Unused entries of values are zeroed, the whole ratio table is built,
    and its used entries and their distances go through finish_check in
    row order; the per-order maxima are the table's column maxima.  A
    terminal check fits its growth base from the log envelope first and
    returns (BoundCheck, base).
    """
    used = np.broadcast_to(used, values.shape)
    mag, logs = _log_abs(np.where(used, values, 0.0))
    orders = np.arange(values.shape[1])
    exponent, live, kwargs = _capped, True, {}
    if terminal:
        raw, env = libm_log_maxima(mag, log_rhs, orders, orders.size, logs)
        env = env.tolist()
        kept = [a for a, v in enumerate(env) if v > -math.inf]
        log_base = max([0.0] + [env[a] / (a + 1) for a in kept])
        shift = (orders + 1) * log_base
        exponent, live = (lambda x, cols: x - shift[cols]), raw > -np.inf
        kwargs = {
            "fitted": math.exp(min(log_base, 700.0)),
            "alpha_profile": [
                math.exp(min((env[a2] - env[a1]) / (a2 - a1), 700.0))
                for a1, a2 in zip(kept, kept[1:])
            ],
        }
    ratios = _bound_ratios(mag, logs, log_rhs, live, _half_decades(row_ds), exponent)
    maxima = np.fmax.reduce(ratios, axis=0, initial=0.0).tolist()
    per_alpha = {a: v for a, v in enumerate(maxima) if used[:, a].any()}
    ds_used = np.broadcast_to(np.asarray(row_ds)[:, None], used.shape)[used]
    check = finish_check(name, ratios[used], ds_used, per_alpha, skipped, **kwargs)
    return (check, kwargs["fitted"]) if terminal else check


def polynomial_jet_rows(points, coeffs, alpha_max: int) -> list[tuple[float, ...]]:
    """The rows polynomial_jet once built, its own Horner loop per derivative row, sorted points."""
    cur = [float(c) for c in coeffs] or [0.0]
    rows_by_order = []
    for _ in range(alpha_max + 1):
        rows_by_order.append(list(cur))
        cur = [m * c for m, c in enumerate(cur)][1:] or [0.0]

    def deriv(a: float, alpha: int) -> float:
        acc = 0.0
        for c in reversed(rows_by_order[alpha]):
            acc = acc * a + c
        return acc

    pts = sorted(float(a) for a in points)
    return [tuple(deriv(a, alpha) for alpha in range(alpha_max + 1)) for a in pts]


def boundary_descent(f, alpha_cap: int, a: float, *, max_index: int = 60) -> BoundaryReport:
    """boundary_limits as a walk: each step's stop rules, then its evaluation, one step at a time."""
    if not 0 <= alpha_cap <= min(f.plan.folds, f.jet.alpha_max):
        raise OrderOverflow(f"alpha_cap {alpha_cap} exceeds folds or the stored jet order")
    orders = np.arange(alpha_cap + 1)
    jet_row = [f.jet.value(a, al) for al in orders.tolist()]
    scale = f.plan.constants.k3 * f.plan.dilation

    j0 = 0
    while 2.0**-j0 >= f.d_max:
        j0 += 1
        if j0 > max_index:
            raise PrecisionFloor("no dyadic step lands inside the region")

    steps = []
    floor_index = floor_reason = None
    for j in range(j0, max_index + 1):
        x = a + 2.0**-j
        d = float(distance_grid(f.jet.e, [x])[0])
        if d == 0.0:
            floor_index, floor_reason = j, "step landed inside the set"
            break
        if d < f.cover.d_min_covered:
            floor_index, floor_reason = j, "below the resolved cover depth"
            break
        lh, settled = _log_decay(f.residual_row, math.log(scale * d))
        if not (settled or lh < math.log(d) + _LOG_EPS):
            floor_index, floor_reason = j, "decay scale unresolved at the stored order"
            break
        vals = eval_derivative(f, x, orders).tolist()
        errs = tuple(abs(v - r) for v, r in zip(vals, jet_row))
        steps.append(BoundaryStep(j, x, d, math.exp(lh), errs))
    if not steps:
        raise PrecisionFloor(f"first dyadic step already unresolvable: {floor_reason}")

    fitted, noninc, trends = [], [], []
    for al in range(alpha_cap + 1):
        e = np.array([s.errors[al] for s in steps])
        ratios = e / np.array([s.distance + s.decay for s in steps])
        fitted.append(float(ratios.max()))
        tol = 1e-12 * (1.0 + float(e.max(initial=0.0)))
        noninc.append(bool(np.all(np.diff(e) <= tol)))
        trends.append(range_trend(ratios + 1e-300)[0] if len(ratios) >= 8 else INCONCLUSIVE)
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
