"""Families of weight sequences indexed by a positive parameter.

A weight matrix stores one sequence per index value xi, ordered so that
larger xi gives a pointwise larger sequence.  Matrices arise here in two
ways: from the Young conjugate of a weight function (one row per xi), and
from row-wise surgery on an existing matrix (log-convex regularization,
interleaving).  All row data lives in the log domain.

Rows are stored in divided form, i.e. with the factorial removed.  The
factorial-included values are reconstructed on demand; keeping the divided
sequence as the single source of truth is what lets the interleaving
quotients stay bit-identical in the tests.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    HypothesisViolated,
    MissingRow,
    SandwichUnverifiable,
)
from ._fitting import BOUNDED, range_trend
from .seq_calculus import MIN_ORDER, WeightSequence, counting_index, log_convex_minorant
from .weight_functions import WeightFunction, young_conjugate_grid

DEFAULT_XI = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

# Pointwise comparisons between rows run in the log domain; inversions
# below this size are treated as rounding noise.
ORDER_SLACK = 1e-9

# Trend tolerance for the soft factorial-domination diagnostic.  Looser
# than the fitting default because k-th roots drift on short ranges, yet
# tight enough to flag the sqrt(k!) deficit, which grows by the factor
# (4/3)^(1/2) per quarter window independently of the range.
_KFAC_GROWTH_TOL = 1.1


def _as_xi(x: float) -> float:
    v = float(x)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"index value must be finite and positive, got {x!r}")
    return v


class WeightMatrix:
    """Ordered family of weight sequences indexed by xi, stored divided.

    ``log_rows[i]`` holds log m_k for ``xi_values[i]`` with the factorial
    removed; the factorial-included row is the divided row times k!.
    Construction enforces the row order (larger xi means a pointwise
    larger row) and records a soft diagnostic for factorial domination.

    Rows are plain value arrays so that borderline families (a constant
    divided row is the factorial itself) remain representable.  Where an
    operation needs the sequence calculus, ``row_sequence`` produces a
    WeightSequence view on demand; views handed to the constructor (for
    example minorant outputs, whose quotient view carries exact hull
    slopes) are kept and returned bit-identical.
    """

    def __init__(self, xi_values, log_rows) -> None:
        xis = tuple(_as_xi(x) for x in xi_values)
        rows = tuple(tuple(float(v) for v in r) for r in log_rows)
        if len(xis) != len(set(xis)):
            raise ValueError("duplicate xi values")
        if list(xis) != sorted(xis):
            raise ValueError("xi values must be sorted ascending")
        if len(xis) != len(rows):
            raise ValueError("one row per xi value required")
        if not rows:
            raise ValueError("matrix needs at least one row")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("all rows must share the same order")
        if len(rows[0]) < MIN_ORDER + 1:
            raise ValueError(f"rows need at least {MIN_ORDER + 1} entries")
        prev = None
        for xi, row in zip(xis, rows):
            lv = np.asarray(row)
            if not np.all(np.isfinite(lv)):
                raise ValueError(f"row xi={xi} has non-finite log values")
            if lv[0] != 0.0:
                raise ValueError(f"row xi={xi} must start at m_0 = 1")
            if prev is not None and np.any(lv < prev - ORDER_SLACK * (1.0 + np.abs(prev))):
                raise ValueError(f"row order violated below xi={xi}: rows must grow with xi")
            prev = lv
        self.xi_values = xis
        self.log_rows = rows
        self._seq_cache: dict[int, WeightSequence] = {}
        self.kfac_root_bound, self.kfac_root_stable = self._kfac_diagnostic()

    def _kfac_diagnostic(self) -> tuple[float, bool]:
        # (k!/M_k)^(1/k) = exp(-log m_k / k) on the divided row.  The full
        # sequences should dominate k! up to a geometric factor, so these
        # roots must not grow along the range.  Short ranges cannot settle
        # this sharply; the verdict is recorded, not enforced.
        worst = 0.0
        stable = True
        for row in self.log_rows:
            lv = np.asarray(row)
            k = np.arange(len(lv), dtype=float)
            roots = -lv[1:] / k[1:]
            worst = max(worst, float(np.exp(roots.max())))
            if len(roots) >= 8:
                verdict, _ = range_trend(
                    np.exp(roots - roots.max()), growth_tol=_KFAC_GROWTH_TOL
                )
                if verdict != BOUNDED:
                    stable = False
        return worst, stable

    @property
    def order(self) -> int:
        return len(self.log_rows[0]) - 1

    def has(self, xi: float) -> bool:
        return _as_xi(xi) in self.xi_values

    def _index(self, xi: float) -> int:
        x = _as_xi(xi)
        try:
            return self.xi_values.index(x)
        except ValueError:
            raise MissingRow(f"no row stored for xi={xi}") from None

    def row_log(self, xi: float) -> np.ndarray:
        """Divided log values for an exactly stored xi."""
        return np.asarray(self.log_rows[self._index(xi)])

    def row_sequence(self, xi: float) -> WeightSequence:
        """Sequence-calculus view of a row; fails for borderline rows.

        The view must satisfy the sequence admissibility conditions
        (escape of the k-th roots in particular), which genuinely fail
        for rows at the analytic edge.  Views are cached, and views
        supplied at construction time are returned unchanged.
        """
        i = self._index(xi)
        cache = self._seq_cache
        if i not in cache:
            cache[i] = WeightSequence.from_log_values(self.log_rows[i])
        return cache[i]

    def full_log_row(self, xi: float) -> np.ndarray:
        """log of the factorial-included row, log M_k = log k! + log m_k."""
        lv = self.row_log(xi)
        lg = np.array([math.lgamma(i + 1.0) for i in range(len(lv))])
        return lv + lg

    @classmethod
    def from_divided_rows(cls, rows: Mapping[float, "WeightSequence | Iterable[float]"]) -> WeightMatrix:
        """Build from a mapping xi -> divided log values or sequence views."""
        xis = sorted(_as_xi(x) for x in rows)
        data = []
        views: dict[int, WeightSequence] = {}
        for i, x in enumerate(xis):
            src = rows[x]
            if isinstance(src, WeightSequence):
                views[i] = src
                data.append(src.log_values)
            else:
                data.append(tuple(float(v) for v in src))
        out = cls(tuple(xis), tuple(data))
        out._seq_cache.update(views)
        return out

    def to_json(self) -> dict:
        """JSON document with factorial-included rows, {xi_values, rows}."""
        return {
            "xi_values": list(self.xi_values),
            "rows": [self.full_log_row(x).tolist() for x in self.xi_values],
        }

    @classmethod
    def from_json(cls, doc: dict) -> WeightMatrix:
        xis = [float(x) for x in doc["xi_values"]]
        rows = {}
        for x, full in zip(xis, doc["rows"]):
            full = np.asarray(full, dtype=float)
            lg = np.array([math.lgamma(i + 1.0) for i in range(len(full))])
            rows[x] = full - lg
        return cls.from_divided_rows(rows)


def associated_matrix(
    w: WeightFunction, xi_grid: Iterable[float] = DEFAULT_XI, k_max: int = 64
) -> WeightMatrix:
    """Matrix of sequences conjugate to a weight function.

    Row xi has factorial-included entries exp(phi*(xi k)/xi) where phi* is
    the Young conjugate of the weight's normalized log reparametrization.
    Each row is automatically log-convex and starts at 1.  A weight whose
    conjugate is infinite somewhere on the needed ray (linear growth in
    the reparametrization) surfaces as BracketFailure from the conjugate
    solver.
    """
    if k_max < 16:
        raise ValueError("k_max must be at least 16")
    xis = sorted(_as_xi(x) for x in xi_grid)
    k = np.arange(k_max + 1, dtype=float)
    lgam = np.array([math.lgamma(i + 1.0) for i in range(k_max + 1)])
    xi_col = np.array(xis)[:, None]
    full = young_conjugate_grid(w, xi_col * k) / xi_col
    rows = {xi: WeightSequence.from_log_values(r - lgam) for xi, r in zip(xis, full)}
    return WeightMatrix.from_divided_rows(rows)


class SandwichFit(NamedTuple):
    """Constants verifying that regularization loses at most an index step.

    With s the divided input rows and sbar their log-convex minorants, the
    fitted constants satisfy, on the stored range and for every xi that
    has both partners on the grid,

        s^(xi/b)_k / a  <=  sbar^xi_k   and   s^xi_k <= c^k sbar^(b xi)_k.
    """

    b: float
    a_constant: float
    c_constant: float
    per_xi: dict


def strong_regularization(matrix: WeightMatrix, verify: bool = True) -> WeightMatrix:
    """Row-wise log-convex minorant of the divided rows.

    The result has log-convex divided rows sitting below the input, with
    equality wherever the input row was already convex.  With ``verify``
    the index-shift sandwich is fitted and SandwichUnverifiable propagates
    if no stored index ratio admits bounded constants.
    """
    rows = {
        xi: log_convex_minorant(matrix.row_sequence(xi)) for xi in matrix.xi_values
    }
    out = WeightMatrix.from_divided_rows(rows)
    if verify:
        sandwich_fit(matrix, out)
    return out


def sandwich_fit(matrix: WeightMatrix, regular: WeightMatrix) -> SandwichFit:
    """Fit the index-shift constants bounding regularization loss.

    Tries index ratios b in {2, 4} (the spacings available on the default
    grid).  For each xi with xi/b and b*xi stored, the lower constant is
    the worst ratio s^(xi/b)/sbar^xi and the upper constant the worst
    k-th root of s^xi/sbar^(b xi); both ratio sequences must have a
    bounded trend along the range, otherwise the ratio b is rejected.
    """
    last_detail: dict = {}
    for b in (2.0, 4.0):
        eligible = [
            xi
            for xi in matrix.xi_values
            if matrix.has(xi / b) and matrix.has(b * xi)
        ]
        if not eligible:
            continue
        a_worst = 1.0
        c_worst = 1.0
        per_xi: dict = {}
        ok = True
        for xi in eligible:
            lo = matrix.row_log(xi / b)
            sb = regular.row_log(xi)
            sbb = regular.row_log(b * xi)
            s = matrix.row_log(xi)
            k = np.arange(1, len(s))

            log_a = lo - sb
            log_c_roots = (s[1:] - sbb[1:]) / k
            for ratios in (np.exp(log_a - log_a.max()), np.exp(log_c_roots - log_c_roots.max())):
                if len(ratios) >= 8:
                    verdict, _ = range_trend(ratios)
                    if verdict != BOUNDED:
                        ok = False
            with np.errstate(over="ignore"):
                a_xi = float(np.exp(max(log_a.max(), 0.0)))
                c_xi = float(np.exp(max(log_c_roots.max(), 0.0)))
            per_xi[xi] = {"a": a_xi, "c": c_xi}
            a_worst = max(a_worst, a_xi)
            c_worst = max(c_worst, c_xi)
        if ok:
            return SandwichFit(b=b, a_constant=a_worst, c_constant=c_worst, per_xi=per_xi)
        last_detail = per_xi
    raise SandwichUnverifiable(
        f"no stored index ratio admits bounded sandwich constants; last fit {last_detail}"
    )


def interleave_matrix(
    regular: WeightMatrix, xi_values: Iterable[float] | None = None
) -> WeightMatrix:
    """Interleaved matrix v^xi_k = min_j sbar^(2xi)_j sbar^(2xi)_(k-j).

    For a log-convex row the minimum over splits duplicates each quotient:
    the row for xi is built directly from the quotients of the stored
    2*xi row, each repeated twice, so consecutive quotient pairs of the
    result are bit-identical and even entries are exact squares of the
    source entries.  Requesting xi without a stored 2*xi row raises
    MissingRow.
    """
    if xi_values is None:
        wanted = [xi for xi in regular.xi_values if regular.has(2.0 * xi)]
        if not wanted:
            raise MissingRow("no xi on the grid has its doubled partner stored")
    else:
        wanted = sorted(_as_xi(x) for x in xi_values)
    rows: dict[float, WeightSequence] = {}
    for xi in wanted:
        if not regular.has(2.0 * xi):
            raise MissingRow(f"interleaving row xi={xi} needs the row at 2*xi={2 * xi}")
        src = regular.row_sequence(2.0 * xi)
        lq = np.asarray(src.log_quotients)
        rows[xi] = WeightSequence.from_log_quotients(np.repeat(lq, 2))
    return WeightMatrix.from_divided_rows(rows)


def gamma_doubling_check(
    regular: WeightMatrix,
    interleaved: WeightMatrix,
    xi: float,
    t_values: Iterable[float],
) -> tuple[bool, float | None]:
    """Exact counting-index doubling between a row and its interleaving.

    Checks 2 * Gamma_{sbar^(2xi)}(t) == Gamma_{v^xi}(t) as integers at
    every grid point.  Returns (True, None) on success, else (False, t)
    for the first violating t.  Cutoff errors from the counting index
    propagate.
    """
    src = regular.row_sequence(2.0 * _as_xi(xi))
    v = interleaved.row_sequence(xi)
    for t in t_values:
        t = float(t)
        if 2 * counting_index(src, t) != counting_index(v, t):
            return False, t
    return True, None


def sandwich_H(
    regular: WeightMatrix, interleaved: WeightMatrix, xi: float, k_cap: int
) -> float:
    """Fitted constant H with sbar^xi_k <= H^k v^xi_k <= H^k sbar^(2xi)_k.

    The right inequality holds with H = 1 (the j = 0 split of the
    interleaving minimum) and is asserted; the left constant is the worst
    k-th root of sbar^xi_k / v^xi_k over 1 <= k <= k_cap.  Growth of the
    root sequence along the range only warns, since the constant is still
    a valid bound for the stored orders.
    """
    x = _as_xi(xi)
    sb = regular.row_log(x)
    sb2 = regular.row_log(2.0 * x)
    v = interleaved.row_log(x)
    cap = min(int(k_cap), len(sb) - 1, len(v) - 1)
    if cap < 1:
        raise ValueError("k_cap leaves no index to fit")
    scale = 1.0 + np.abs(sb2[: cap + 1]).max()
    if np.any(v[: cap + 1] > sb2[: cap + 1] + ORDER_SLACK * scale):
        raise AssertionError("interleaved row exceeds its source row")
    k = np.arange(1, cap + 1)
    roots = (sb[1 : cap + 1] - v[1 : cap + 1]) / k
    if len(roots) >= 8:
        verdict, growth = range_trend(np.exp(roots - roots.max()))
        if verdict != BOUNDED:
            warnings.warn(
                f"interleaving roots still growing at k={cap} (factor {growth:.3f})",
                RuntimeWarning,
                stacklevel=2,
            )
    return float(np.exp(max(roots.max(), 0.0)))


def suffix_minimum(values) -> np.ndarray:
    """Running minimum from the right; every output is a stored input."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) == 0:
        raise ValueError("need a nonempty 1-d array")
    return np.minimum.accumulate(v[::-1])[::-1]


def lemma8_regularize(mu, nu, c_bound: float) -> np.ndarray:
    """Monotone repair of a quotient sequence dominated by another.

    Inputs are quotient sequences with mu[0] == nu[0] == 1 and nu
    nondecreasing, under the hypothesis mu_j / j <= c_bound * nu_k / k
    for 1 <= j <= k (HypothesisViolated otherwise).  The repaired
    sequence has nu~_k / k equal to the suffix minimum of nu_l / l, so
    the quotient-over-index ratios become nondecreasing while keeping
    nu~ <= nu pointwise and mu <= c_bound * nu~.
    """
    m = np.asarray(mu, dtype=float)
    n = np.asarray(nu, dtype=float)
    if m.ndim != 1 or n.ndim != 1 or len(m) != len(n) or len(n) < 2:
        raise ValueError("quotient arrays must be 1-d, equal length, length >= 2")
    if m[0] != 1.0 or n[0] != 1.0:
        raise HypothesisViolated("quotient sequences must start at 1")
    if np.any(np.diff(n) < -ORDER_SLACK * (1.0 + np.abs(n).max())):
        raise HypothesisViolated("nu quotients must be nondecreasing")
    k = np.arange(1, len(n), dtype=float)
    mu_ratio = m[1:] / k
    nu_ratio = n[1:] / k
    slack = ORDER_SLACK * (1.0 + np.abs(mu_ratio).max())
    if np.any(np.maximum.accumulate(mu_ratio) > c_bound * nu_ratio + slack):
        raise HypothesisViolated(
            "mu_j/j exceeds c_bound * nu_k/k somewhere on the range"
        )
    repaired = suffix_minimum(nu_ratio)
    out = np.empty_like(n)
    out[0] = 1.0
    # The product k * (nu_k/k) can land one ulp above nu_k; clamp so the
    # pointwise bound nu~ <= nu is exact.
    out[1:] = np.minimum(n[1:], k * repaired)
    return out
