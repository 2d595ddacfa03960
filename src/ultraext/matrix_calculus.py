"""Families of weight sequences indexed by a positive parameter.

A weight matrix is an ordered family of WeightSequence rows, one per
index value xi, where larger xi gives a pointwise larger row.  Matrices
arise here in two ways: from the Young conjugate of a weight function
(one row per xi), and from row-wise surgery on an existing matrix
(log-convex regularization, interleaving).  All row data lives in the
log domain.

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
from .seq_calculus import WeightSequence, log_convex_minorant
from .weight_functions import WeightFunction, young_conjugate_grid

DEFAULT_XI = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

# The index ratios b that sandwich_fit tries: the spacings of the default grid.
SANDWICH_RATIOS = (2.0, 4.0)

# Pointwise comparisons between rows run in the log domain; inversions
# below this size are treated as rounding noise.
ORDER_SLACK = 1e-9


def _as_xi(x: float) -> float:
    v = float(x)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"index value must be finite and positive, got {x!r}")
    return v


class WeightMatrix:
    """Ordered family of divided weight sequences indexed by xi.

    ``rows[i]`` is the WeightSequence given for ``xi_values[i]``, with the
    factorial removed; the factorial-included row is the divided row times
    k!.  Each row has passed its own checks as a WeightSequence, so
    construction checks only what ties the rows together: at least one
    row, positive finite xi, one shared order, and the row order (larger
    xi means a pointwise larger row).
    """

    def __init__(self, rows: Mapping[float, WeightSequence]) -> None:
        xis = tuple(sorted(_as_xi(x) for x in rows))
        if not xis:
            raise ValueError("matrix needs at least one row")
        seqs = tuple(rows[x] for x in xis)
        if len({s.order for s in seqs}) != 1:
            raise ValueError("all rows must share the same order")
        for xi, lo, hi in zip(xis[1:], seqs, seqs[1:]):
            if np.any(hi._lv < lo._lv - ORDER_SLACK * (1.0 + np.abs(lo._lv))):
                raise ValueError(f"row order violated below xi={xi}: rows must grow with xi")
        self.xi_values = xis
        self.rows = seqs

    @property
    def order(self) -> int:
        return self.rows[0].order

    def has(self, xi: float) -> bool:
        return _as_xi(xi) in self.xi_values

    def row_sequence(self, xi: float) -> WeightSequence:
        """The row stored for an exactly stored xi."""
        x = _as_xi(xi)
        try:
            return self.rows[self.xi_values.index(x)]
        except ValueError:
            raise MissingRow(f"no row stored for xi={xi}") from None

    def row_log(self, xi: float) -> np.ndarray:
        """Divided log values for an exactly stored xi, read-only."""
        return self.row_sequence(xi)._lv

    def full_log_row(self, xi: float) -> np.ndarray:
        """log of the factorial-included row, log M_k = log k! + log m_k."""
        lv = self.row_log(xi)
        lg = np.array([math.lgamma(i + 1.0) for i in range(len(lv))])
        return lv + lg

    def to_json(self) -> dict:
        """JSON document with factorial-included rows, {xi_values, rows}."""
        return {
            "xi_values": list(self.xi_values),
            "rows": [self.full_log_row(x).tolist() for x in self.xi_values],
        }


def partnered(xi_values: Iterable[float], *ratios: float) -> list[float]:
    """The xi of a grid with r*xi on it for every r of ratios, ascending.

    The pairing rule of the matrices: sandwich_fit fits the xi partnered
    at 1/b and b, interleave_matrix builds the xi partnered at 2.
    """
    grid = set(xi_values)
    return sorted(xi for xi in grid if all(r * xi in grid for r in ratios))


def sandwich_xi(xi_values: Iterable[float]) -> dict[float, list[float]]:
    """Per index ratio b of SANDWICH_RATIOS, the xi sandwich_fit compares: those partnered at 1/b and b."""
    return {b: partnered(xi_values, 1.0 / b, b) for b in SANDWICH_RATIOS}


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
    return WeightMatrix(rows)


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


def strong_regularization(matrix: WeightMatrix) -> WeightMatrix:
    """Row-wise log-convex minorant of the divided rows.

    The result has log-convex divided rows sitting below the input, with
    equality wherever the input row was already convex.  sandwich_fit
    bounds what the minorant loses.
    """
    return WeightMatrix({
        xi: log_convex_minorant(row) for xi, row in zip(matrix.xi_values, matrix.rows)
    })


def sandwich_fit(matrix: WeightMatrix, regular: WeightMatrix) -> SandwichFit:
    """Fit the index-shift constants bounding regularization loss.

    Tries the index ratios b of SANDWICH_RATIOS.  For each xi with xi/b
    and b*xi stored (sandwich_xi), the lower constant is the worst ratio
    s^(xi/b)/sbar^xi and the upper constant the worst k-th root of
    s^xi/sbar^(b xi); both ratio sequences must have a bounded trend
    along the range, otherwise the ratio b is rejected.  Raises
    MissingRow, naming the grid, when no ratio has such an xi.
    """
    by_ratio = sandwich_xi(matrix.xi_values)
    if not any(by_ratio.values()):
        raise MissingRow(f"no xi of the grid {list(matrix.xi_values)} has both xi/b and b*xi stored")
    last_detail: dict = {}
    for b, eligible in by_ratio.items():
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
                if range_trend(ratios)[0] != BOUNDED:
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
        wanted = partnered(regular.xi_values, 2.0)
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
    return WeightMatrix(rows)


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
