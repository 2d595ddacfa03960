"""Transforms of a single weight sequence.

A weight sequence m = (m_0, ..., m_K) is a finite positive sequence with
m_0 = 1 whose k-th roots escape upward on the stored range.  This module
provides the transforms attached to such a sequence:

* associated weight   sup_k log(t^k / m_k)          (nondecreasing, convex
  in log t, identically 0 near t = 0),
* h-function          inf_k m_k t^k                 (0 at t = 0, equal to 1
  for large t, dual to the associated weight),
* counting index      min{k : m_{k+1}/m_k >= 1/t}   (the index where the
  infimum above settles; requires log-convexity),
* log-convex minorant (lower convex hull of k -> log m_k).

Everything is computed on log m_k.  Gevrey-type sequences overflow IEEE
doubles near k = 85; their logs never do.  Extrema over the mathematically
infinite index set are enumerated up to K and raise a CutoffError subclass
when attained at K, so truncation unsoundness always surfaces.

Exactness contract of the minorant: the result of `log_convex_minorant` is
flagged log-convex and is returned unchanged by a second application
(idempotence is exact, by construction); its stored quotients are
nondecreasing exactly; its values never exceed the input.  The stored
quotient view (per-segment hull slopes, replicated bit-identically) is
authoritative for the counting index; it may differ from value differences
by ulps.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._fitting import libm
from .errors import (
    CountingIndexAtCutoff,
    InfimumAtCutoff,
    SupremumAtCutoff,
)

MIN_ORDER = 16  # smallest admissible K; shorter sequences say nothing asymptotic


class WeightSequence:
    """Positive sequence m_0..m_K stored as log m_k with a quotient view.

    `log_quotients[i]` holds log(m_{i+1}/m_i).  For sequences built by the
    minorant the quotients are the authoritative view (exact hull slopes);
    for sequences built from values they are plain differences.
    """

    def __init__(self, log_values: tuple[float, ...], log_quotients: tuple[float, ...]) -> None:
        lv, lq = log_values, log_quotients
        if len(lv) < MIN_ORDER + 1:
            raise ValueError(f"need at least {MIN_ORDER + 1} entries, got {len(lv)}")
        if len(lq) != len(lv) - 1:
            raise ValueError("quotient view must have one entry less than values")
        if lv[0] != 0.0:
            raise ValueError("m_0 must equal 1 (log_values[0] == 0.0)")
        if not all(math.isfinite(v) for v in lv):
            raise ValueError("log values must be finite")
        if not all(math.isfinite(q) for q in lq):
            raise ValueError("log quotients must be finite")
        K = len(lv) - 1
        # escape proxy: m_K^(1/K) > m_{K/2}^(2/K), i.e. the stored roots still climb
        if not lv[K] > 2.0 * lv[K // 2]:
            raise ValueError("k-th roots do not escape on the stored range")
        self.log_values = lv
        self.log_quotients = lq
        self.is_log_convex = all(lq[i] <= lq[i + 1] for i in range(len(lq) - 1))
        self._lv = np.asarray(lv, dtype=float)
        self._lq = np.asarray(lq, dtype=float)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_log_values(cls, log_values) -> "WeightSequence":
        lv = tuple(float(v) for v in log_values)
        lq = tuple(lv[i + 1] - lv[i] for i in range(len(lv) - 1))
        return cls(lv, lq)

    @classmethod
    def from_log_quotients(cls, log_quotients) -> "WeightSequence":
        lq = tuple(float(q) for q in log_quotients)
        lv = [0.0]
        for q in lq:
            lv.append(lv[-1] + q)
        return cls(tuple(lv), lq)

    @classmethod
    def factorial_power(cls, exponent: float, k_max: int) -> "WeightSequence":
        """m_k = (k!)^exponent; the Gevrey model scale."""
        return cls.from_log_values(
            [exponent * math.lgamma(k + 1) for k in range(k_max + 1)]
        )

    # -- views ----------------------------------------------------------

    @property
    def order(self) -> int:
        """Index K of the last stored entry."""
        return len(self.log_values) - 1

    def values(self) -> np.ndarray:
        """Plain m_k values; overflows for fast-growing long sequences."""
        return np.exp(self._lv)


# -- transforms ---------------------------------------------------------


def _require_positive_t(t: float) -> float:
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    return t


def associated_weight(m: WeightSequence, t: float) -> float:
    """sup over k of log(t^k / m_k), enumerated on the stored range.

    The k = 0 term is 0, so the result is automatically clamped at 0.
    Raises SupremumAtCutoff when the maximum is attained at k = K (ties
    included): the genuine supremum may then live beyond the truncation.
    """
    t = _require_positive_t(t)
    lt = math.log(t)
    terms = np.arange(m.order + 1) * lt - m._lv
    best = float(terms.max())
    if terms[-1] == best:
        raise SupremumAtCutoff(f"supremum attained at the cutoff K={m.order} for t={t}")
    return best


def h_function(m: WeightSequence, t: float) -> float:
    """inf over k of m_k t^k, with h(0) = 0; always in [0, 1].

    Raises InfimumAtCutoff when the minimum is attained at k = K.
    """
    t = float(t)
    if t == 0.0:
        return 0.0
    t = _require_positive_t(t)
    lt = math.log(t)
    terms = m._lv + np.arange(m.order + 1) * lt
    best = float(terms.min())
    if terms[-1] == best:
        raise InfimumAtCutoff(f"infimum attained at the cutoff K={m.order} for t={t}")
    return math.exp(best)


def log_h_function(m: WeightSequence, log_t):
    """(log inf_k m_k t^k, argmin k) without the cutoff guard.

    Low-level variant for callers that handle the at-cutoff case
    themselves (boundary-limit reports); argmin == K signals the cutoff.
    An array of log arguments gives two arrays, one row of terms per
    entry, so each entry is the scalar result bit for bit.
    """
    log_ts = np.asarray(log_t, dtype=float)
    terms = m._lv + np.arange(m.order + 1) * log_ts[..., None]
    k = terms.argmin(axis=-1)
    lh = np.take_along_axis(terms, k[..., None], axis=-1)[..., 0]
    return (lh, k) if log_ts.ndim else (float(lh), int(k))


# Quotients within this log-distance of 1/t count as ties (smallest k wins).
# Must stay far below the quotient spacing of any sequence in use.
QUOTIENT_TIE_SLACK = 1e-9


def counting_index(m: WeightSequence, t):
    """min{k >= 0 : m_{k+1}/m_k >= 1/t} for a log-convex sequence.

    This is the index at which the h-function infimum settles; it is
    nonincreasing in 1/t and tends to infinity as t -> 0.  Ties in the
    defining inequality resolve to the smallest k, with a relative slack
    so that a quotient equal to 1/t up to rounding still counts.  The
    comparison uses the stored quotient view against the threshold -log t.

    An array of t gives an array of indices, with libm log per entry, so
    each entry is the scalar result bit for bit.  An entry that no stored
    quotient reaches is K = m.order there, where a scalar t raises
    CountingIndexAtCutoff.
    """
    array = np.ndim(t) > 0
    if array:
        ts = np.asarray(t, dtype=float)
        bad = ~((ts > 0.0) & np.isfinite(ts))
        if bad.any():
            raise ValueError(f"t must be positive and finite, got {ts[bad][0]!r}")
        log_t = libm(math.log, ts.ravel()).reshape(ts.shape)
    else:
        t = _require_positive_t(t)
        log_t = math.log(t)
    if not m.is_log_convex:
        raise ValueError("counting index requires a log-convex sequence")
    k = np.searchsorted(m._lq, -log_t - QUOTIENT_TIE_SLACK, side="left")
    if array:
        return k
    if k >= m.order:
        raise CountingIndexAtCutoff(
            f"no quotient reaches 1/t within the stored range for t={t}"
        )
    return int(k)


# -- log-convex minorant ------------------------------------------------


def _lower_hull_indices(points: list[Fraction]) -> list[int]:
    """Vertex indices of the lower convex hull of (k, points[k]), exact.

    Monotone chain over unit-spaced abscissae; collinear middle points are
    dropped, so consecutive hull slopes are strictly increasing.
    """
    hull: list[int] = []
    for k, y in enumerate(points):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            # pop j unless it makes a strict downward kink:
            # slope(i->j) < slope(j->k)  <=>  (y_j - y_i)(k - j) < (y - y_j)(j - i)
            if (points[j] - points[i]) * (k - j) < (y - points[j]) * (j - i):
                break
            hull.pop()
        hull.append(k)
    return hull


def log_convex_minorant(m: WeightSequence) -> WeightSequence:
    """Largest log-convex sequence below m (lower hull of k -> log m_k).

    A log-convex input is returned as-is, which makes the operation exactly
    idempotent.  The result's quotient view repeats each hull-segment slope
    bit-identically; its values equal the input at hull vertices and are
    clamped to never exceed the input in between.
    """
    if m.is_log_convex:
        return m
    exact = [Fraction(v) for v in m.log_values]
    hull = _lower_hull_indices(exact)
    out_values = list(m.log_values)
    out_quotients = [0.0] * m.order
    for a, b in zip(hull[:-1], hull[1:]):
        slope_exact = (exact[b] - exact[a]) / (b - a)
        slope = float(slope_exact)
        for k in range(a + 1, b):
            interp = float(exact[a] + slope_exact * (k - a))
            out_values[k] = min(m.log_values[k], interp)
        out_values[b] = m.log_values[b]
        for k in range(a, b):
            out_quotients[k] = slope
    return WeightSequence(tuple(out_values), tuple(out_quotients))
