"""Whitney jets on a compact set and their class certificates.

A jet stores prescribed derivative values at finitely many base points of
the set.  Taylor polynomials and Whitney remainders are exact in the
stored data; the certificate search fits the smallest geometric growth
(C, rho) against a weight matrix row so that both the value bound

    |F^alpha(a)| <= C rho^alpha V_alpha

and the remainder bound

    |(R_a^k F)^alpha(b)| <= C rho^(k+1) alpha! v_(k+1) |b - a|^(k+1-alpha)

hold on everything stored.  Whether the needed rate is stable as the
truncation order grows is a trend verdict, never a guess.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ._fitting import BOUNDED, GROWING, range_trend
from ._fitting import libm, libm_log_maxima, libm_picks
from .errors import ConfigError, InconclusiveTrend, NotInClass, OrderOverflow
from .errors import json_components, json_integer, json_number, json_object, json_rows
from .matrix_calculus import WeightMatrix
from .partition_of_unity import _derivative_values
from .whitney_geometry import CompactSet1D, distance_grid

# Candidate growth rates: quarter-octave steps from 1 up to 2^10.
RHO_GRID = tuple(2.0 ** (i / 4.0) for i in range(41))


class TaylorPolynomial:
    """Polynomial recorded by its derivative values at the center.

    Evaluates sum_m derivs[m] (y - center)^m / m! with the factorials
    folded into the Horner factors.  Differentiation shifts the stored
    values instead of multiplying coefficients, so the alpha-th
    derivative at the center reproduces derivs[alpha] bit-exactly.

    p(y) takes a float (or int) and runs the Horner loop acc = derivs[m]
    + acc * dy / (m + 1.0) on Python floats; taylor_vectors is its array
    form, bit for bit.
    """

    def __init__(self, center: float, derivs: tuple[float, ...]) -> None:
        if len(derivs) == 0:
            raise ValueError("need at least one derivative value")
        if not all(math.isfinite(c) for c in derivs):
            raise ValueError("derivative values must be finite")
        self.center, self.derivs = center, derivs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaylorPolynomial):
            return NotImplemented
        return self.center == other.center and self.derivs == other.derivs

    def __hash__(self) -> int:
        return hash((self.center, self.derivs))

    def __call__(self, y: float) -> float:
        derivs = self.derivs
        dy = float(y) - self.center
        acc = derivs[-1]
        for m in range(len(derivs) - 2, -1, -1):
            acc = derivs[m] + acc * dy / (m + 1.0)
        return float(acc)

    def derivative(self, alpha: int = 1) -> "TaylorPolynomial":
        if alpha < 0:
            raise ValueError("derivative order must be nonnegative")
        # A tail of a validated row is valid: skip the per-entry checks.
        shifted = object.__new__(TaylorPolynomial)
        shifted.center, shifted.derivs = self.center, self.derivs[alpha:] or (0.0,)
        return shifted

    def derivatives(self, y: float, order: int) -> list[float]:
        """[T^(b)(y) for b = 0..order], each bitwise equal to derivative(b)(y)."""
        return [self.derivative(b)(y) for b in range(order + 1)]


def taylor_vectors(
    polys: Sequence[TaylorPolynomial], which: np.ndarray, ys: np.ndarray, order: int
) -> np.ndarray:
    """Row r is polys[which[r]].derivatives(ys[r], order), bit for bit.

    One Horner pass runs over all rows and orders at once.  Entry (r, b)
    performs the scalar loop of derivative(b): it starts from the last
    stored value (0.0 past the degree) and runs acc = derivs[b + m] +
    acc * dy / (m + 1.0) for m from the degree of derivative(b) minus
    one down to 0; np.where holds an entry once its loop has ended.
    """
    width = order + 1
    lens = np.array([len(p.derivs) for p in polys])
    table = np.zeros((len(polys), int(lens.max()) + width))
    for g, p in enumerate(polys):
        table[g, : lens[g]] = p.derivs
    centers = np.array([p.center for p in polys])
    dy = (np.asarray(ys, dtype=float) - centers[which])[:, None]
    coeffs = table[which]
    steps = (lens[which] - 1)[:, None] - np.arange(width)  # degree of derivative(b)
    acc = np.where(steps >= 0, table[which, lens[which] - 1][:, None], 0.0)
    # A held entry may overflow; Python's float loop raises on nothing either.
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(int(steps.max(initial=0)) - 1, -1, -1):
            acc = np.where(m < steps, coeffs[:, m : m + width] + acc * dy / (m + 1.0), acc)
    return acc


class UltraJet:
    """Prescribed derivatives F^alpha(a) at finitely many points of E.

    rows[i][alpha] is the value of order alpha at base_points[i]; all
    rows share the truncation order.  Base points are exact float keys
    and must lie in the set.
    """

    def __init__(self, e: CompactSet1D, base_points, rows) -> None:
        pts = tuple(float(a) for a in base_points)
        if len(pts) == 0:
            raise ValueError("jet needs at least one base point")
        if list(pts) != sorted(set(pts)):
            raise ValueError("base points must be strictly increasing")
        rows = tuple(tuple(float(v) for v in r) for r in rows)
        if len(rows) != len(pts):
            raise ValueError("need exactly one value row per base point")
        if len({len(r) for r in rows}) != 1 or len(rows[0]) == 0:
            raise ValueError("value rows must share a common positive length")
        for r in rows:
            if not all(math.isfinite(v) for v in r):
                raise ValueError("jet values must be finite")
        if np.any(distance_grid(e, np.asarray(pts)) != 0.0):
            raise ValueError("every base point must lie in the set")
        self.e, self.base_points, self.rows = e, pts, rows

    def _key(self) -> tuple:
        return self.e.components, self.base_points, self.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, UltraJet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def alpha_max(self) -> int:
        return len(self.rows[0]) - 1

    def _index(self, a: float) -> int:
        try:
            return self.base_points.index(float(a))
        except ValueError:
            raise ValueError(f"base point {a} is not stored") from None

    def value(self, a: float, alpha: int) -> float:
        if not 0 <= alpha <= self.alpha_max:
            raise OrderOverflow(f"order {alpha} exceeds stored order {self.alpha_max}")
        return self.rows[self._index(a)][alpha]

    def row(self, a: float) -> np.ndarray:
        return np.asarray(self.rows[self._index(a)])

    @classmethod
    def from_function(
        cls,
        e: CompactSet1D,
        points: Sequence[float],
        alpha_max: int,
        fn: Callable[[float, int], float],
    ) -> "UltraJet":
        pts = sorted(float(a) for a in points)
        rows = tuple(
            tuple(float(fn(a, alpha)) for alpha in range(alpha_max + 1)) for a in pts
        )
        return cls(e, tuple(pts), rows)

    def to_json(self) -> dict:
        values = [
            [a, alpha, self.rows[i][alpha]]
            for i, a in enumerate(self.base_points)
            for alpha in range(self.alpha_max + 1)
        ]
        return {
            "e": [[a, b] for a, b in self.e.components],
            "alpha_max": self.alpha_max,
            "values": values,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "UltraJet":
        """Jet from its JSON form, read as strictly as a plan file.

        The keys are exactly e, alpha_max and values.  e lists [a, b]
        pairs of numbers, alpha_max is an integral number, and every
        values entry is [point, order, value] with an integral order and
        numbers otherwise.  Booleans and strings are rejected, and so is
        a second entry for one (point, order) pair; every point needs
        every order up to alpha_max.  The components of e are sorted, and
        one that is not finite, inverted or meets another is rejected.
        ConfigError names the bad entry.
        """
        json_object(doc, "jet", ("e", "alpha_max", "values"))
        pairs = json_rows(doc["e"], "jet e", 2)
        comps = [("jet e", [json_number(v, "jet e endpoint") for v in pair]) for pair in pairs]
        alpha_max = json_integer(doc["alpha_max"], "jet alpha_max")
        table: dict[float, dict[int, float]] = {}
        for a, alpha, v in json_rows(doc["values"], "jet values", 3):
            a = json_number(a, "jet value point")
            alpha = json_integer(alpha, f"jet value order at {a!r}")
            row = table.setdefault(a, {})
            if alpha in row:
                raise ConfigError(f"jet values repeat order {alpha} at point {a!r}")
            row[alpha] = json_number(v, f"jet value at ({a!r}, {alpha})")
        pts = sorted(table)
        rows = []
        for a in pts:
            row = table[a]
            if sorted(row) != list(range(alpha_max + 1)):
                raise ConfigError(f"base point {a} needs exactly the orders 0 to {alpha_max}")
            rows.append(tuple(row[alpha] for alpha in range(alpha_max + 1)))
        return cls(CompactSet1D(json_components(comps)), tuple(pts), tuple(rows))


def polynomial_jet(
    e: CompactSet1D, points: Sequence[float], coeffs: Sequence[float], alpha_max: int
) -> UltraJet:
    """Jet of the polynomial sum_m coeffs[m] y^m, exact derivatives.

    Each point's row is _derivative_values there, the power-basis rule
    the partition evaluates its pieces with.
    """
    rows = {a: _derivative_values(coeffs, a, alpha_max) for a in map(float, points)}
    return UltraJet.from_function(e, points, alpha_max, lambda a, alpha: rows[a][alpha])


def taylor_poly(jet: UltraJet, a: float, p: int) -> TaylorPolynomial:
    """Taylor polynomial of the jet at a stored base point, degree p."""
    if not 0 <= p <= jet.alpha_max:
        raise OrderOverflow(f"degree {p} exceeds stored order {jet.alpha_max}")
    i = jet._index(a)
    return TaylorPolynomial(float(a), jet.rows[i][: p + 1])


def remainder(jet: UltraJet, a: float, b: float, k: int, alpha: int) -> float:
    """Whitney remainder F^alpha(b) - (T_a^k F)^(alpha)(b).

    Linear in the jet and identically zero on jets of polynomials of
    degree at most k.
    """
    if not 0 <= alpha <= k <= jet.alpha_max - 1:
        raise OrderOverflow(
            f"need 0 <= alpha <= k <= {jet.alpha_max - 1}, got alpha={alpha}, k={k}"
        )
    predicted = taylor_poly(jet, a, k).derivative(alpha)(float(b))
    return jet.value(b, alpha) - predicted


class JetCertificate:
    """Fitted growth certificate for one weight-matrix row.

    c and rho place the jet under the row xi; rate_trend records the
    truncation-stability verdict behind the acceptance.
    """

    def __init__(self, c: float, rho: float, xi: float, rate_trend: str) -> None:
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError("certificate constant must be positive")
        if not rho >= 1.0:
            raise ValueError("certificate growth rate must be at least 1")
        self.c, self.rho, self.xi = c, rho, xi
        self.rate_trend = rate_trend


def _remainder_table(jet: UltraJet):
    """Every nonzero |(R_a^k F)^(alpha)(b)| with its row data, in row order.

    One numpy Horner pass covers every ordered pair (a, b) of distinct
    base points and every entry (k, alpha) = tril_indices(alpha_max)[j]
    at once.  Entry (j, p) runs the scalar path's operations in the same
    order, acc = d[alpha+m] + acc * dy / (m + 1.0) from acc = d[k] for m
    from k - alpha - 1 down to 0, so it is bitwise equal to
    |remainder(jet, a, b, k, alpha)|.  The entries are held sorted by
    that depth, so the ones still running at step m are a leading block
    of the preallocated buffers.  Returns flat arrays (k+1, log alpha!,
    (k+1-alpha) log|b-a|, |R|) over (a, b, k, alpha) in loop order
    without the exact zeros.  Nothing here depends on the weight row.
    """
    pts, big_k = np.array(jet.base_points), jet.alpha_max
    vals = np.array(jet.rows)
    k, alpha = np.tril_indices(big_k)
    ia, ib = np.nonzero(~np.eye(pts.size, dtype=bool))
    dy = pts[ib] - pts[ia]
    deepest = np.argsort(alpha - k, kind="stable")
    depth = (k - alpha)[deepest]
    d = vals[ia].T
    acc = d[k[deepest]]
    coeff, step = np.empty_like(acc), np.empty_like(acc)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(big_k - 2, -1, -1):
            n = np.count_nonzero(depth > m)
            np.take(d, alpha[deepest[:n]] + m, axis=0, out=coeff[:n])
            np.multiply(acc[:n], dy, out=step[:n])
            np.divide(step[:n], m + 1.0, out=step[:n])
            np.add(coeff[:n], step[:n], out=acc[:n])
        lhs = np.abs(vals[ib].T[alpha[deepest]] - acc)[np.argsort(deepest)].T
    gaps = libm(math.log, np.abs(dy))
    keep = lhs != 0.0
    lgamma = np.array([math.lgamma(i + 1.0) for i in range(big_k)])[alpha]
    power, lgamma = (np.broadcast_to(c, lhs.shape)[keep] for c in (k + 1, lgamma))
    pgap = ((k + 1 - alpha) * gaps[:, None])[keep]
    return power, lgamma, pgap, lhs[keep]


def _constraints(jet: UltraJet, matrix: WeightMatrix, xi: float, table=None):
    """Columns (power, lhs, rest) of the constraint rows, fixed order.

    A row asks lhs <= C rho^power e^rest.  Value rows come first, one per
    order alpha with a nonzero max_a |F^alpha(a)| and rest = log M_alpha;
    then a row per entry of the remainder table (built here unless
    passed) with rest = log alpha! + log_div[k+1] + (k+1-alpha) log|b-a|
    summed in that order, bitwise as from remainder() directly.
    """
    log_full = matrix.full_log_row(xi)
    log_div = matrix.row_log(xi)
    tops = np.abs(np.array(jet.rows)).max(axis=0)
    orders = np.flatnonzero(tops != 0.0)
    power, lgamma, pgap, lhs = _remainder_table(jet) if table is None else table
    rest = lgamma + log_div[power] + pgap
    return (
        np.concatenate([orders, power]),
        np.concatenate([tops[orders], lhs]),
        np.concatenate([log_full[orders], rest]),
    )


def _rate_profile(prof: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Needed log rate per truncation order, with the steepest chord.

    rates[K] is the steepest chord slope of the per-power log needs over
    powers <= K, floored at zero so the snapped rho never drops below 1.
    """
    need = prof.tolist()
    rates = [0.0] * len(need)
    witness = (0, 0)
    running = 0.0
    for top in range(1, len(need)):
        if math.isfinite(need[top]):
            for low in range(top):
                if not math.isfinite(need[low]):
                    continue
                slope = (need[top] - need[low]) / (top - low)
                if slope > running:
                    running = slope
                    witness = (low, top)
        rates[top] = running
    return np.array(rates), witness


def _largest_ratio(x: np.ndarray, lhs: np.ndarray) -> float:
    """max of lhs / math.exp(x) over the rows, NaN passed over, at least 0.0.

    numpy's exp fills the ratios; math.exp takes the rows libm_picks
    names, with those forced whose numpy scale or ratio leaves
    [2^-1000, 2^1000], where numpy's value does not bound libm's.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = np.exp(x)
        ratio = lhs / scale
        bounded = (scale >= 2.0**-1000) & (scale <= 2.0**1000)
        bounded &= (ratio >= 2.0**-1000) & (ratio <= 2.0**1000)
        pick = libm_picks(ratio, (0,), ~bounded)
        return float(np.fmax.reduce(lhs[pick] / libm(math.exp, x[pick]), initial=0.0))


def certify(
    jet: UltraJet, matrix: WeightMatrix, *, xi: float | None = None
) -> JetCertificate:
    """Fit (C, rho) for the smallest stored row that accepts the jet.

    rho is snapped up to RHO_GRID from the steepest chord of the
    per-order log needs (scaling the jet cancels in every chord, so rho
    is scaling-invariant); C is the exact maximum of the linear
    constraint ratios at that rho.  A row accepts when the needed rate is
    stable in the truncation order; rows are tried in ascending xi and
    the first acceptance wins; the remainder table, bitwise equal to
    remainder() and independent of the row, is built once per jet.

    Every log and exp behind the per-power needs and C is libm's
    (math.log, math.exp), as in a loop over the constraint rows, so the
    certificate is that loop's bit for bit; numpy's log and exp only
    pick the rows that can decide a value (libm_log_maxima, libm_picks).
    Raises NotInClass with the steepest-chord witness when the rate grows
    with truncation on every row, and NotInClass naming xi when the
    fitted constant, or a bound rho^power e^rest that libm evaluates,
    overflows double precision.
    """
    if matrix.order < jet.alpha_max:
        raise OrderOverflow(
            f"matrix rows stop at order {matrix.order}, jet needs {jet.alpha_max}"
        )
    candidates = matrix.xi_values if xi is None else (float(xi),)
    table = _remainder_table(jet)
    failures = []
    for x in candidates:
        power, lhs, rest = _constraints(jet, matrix, x, table)
        if not power.size:
            return JetCertificate(1.0, 1.0, x, BOUNDED)
        rates, witness = _rate_profile(libm_log_maxima(lhs, rest, power, jet.alpha_max + 1)[1])
        needed = float(rates[-1])
        trend, growth = range_trend(np.exp(rates[1:] - rates.max()))
        accept = trend == BOUNDED or len(rates) < 9  # too short to judge: accept, inconclusive
        snapped = next((g for g in RHO_GRID if math.log(g) >= needed - 1e-12), None)
        if snapped is None:
            accept = False
            trend = GROWING
        if not accept:
            failures.append((x, trend, growth, witness, needed))
            continue
        log_scale = rest + power * math.log(snapped)
        try:
            # math.exp overflows only on rows whose numpy scale leaves
            # [2^-1000, 2^1000], and every one of those is forced to libm.
            best_c = _largest_ratio(log_scale, lhs)
        except OverflowError:
            raise NotInClass(
                f"a bound rho^k e^rest of the certificate overflows double precision at xi={x}"
            ) from None
        if best_c == math.inf:
            raise NotInClass(f"certificate constant overflows double precision at xi={x}")
        return JetCertificate(best_c, snapped, x, trend)
    worst = failures[-1]
    detail = (
        f"needed growth rate e^{worst[4]:.3f} per order keeps rising with the "
        f"truncation (trend {worst[1]}, last-window growth {worst[2]:.3f}); "
        f"steepest chord between orders {worst[3][0]} and {worst[3][1]} at xi={worst[0]}"
    )
    if any(f[1] == GROWING for f in failures):
        raise NotInClass(detail)
    raise InconclusiveTrend(detail)
