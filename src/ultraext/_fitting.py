"""Finite-grid asymptotics: bound constants with a last-decades trend check.

Whether a sampled ratio stays bounded can only be decided up to a trend
heuristic; every caller turns the third verdict into an explicit
InconclusiveTrend error rather than guessing.

Whether a sample can carry a trend is decided here alone: a window half
of fewer than two samples, a decade grid of fewer than four or an order
range of fewer than eight is too little to judge, (INCONCLUSIVE, 1.0);
only malformed input raises ValueError.

A maximum that certify or the audit reports is libm's (math.log,
math.exp) bit for bit while numpy fills its table, by one rule: libm
recomputes the entries within LIBM_TOL below their group's numpy maximum
and the caller's forced ones, whose numpy values do not bound libm's.
libm_picks applies it to a table; libm_log_maxima is its log-space form.
"""

from __future__ import annotations

import math

import numpy as np

BOUNDED = "bounded"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"

# Relative slack under which a dip still counts as monotone nondecreasing.
_MONOTONE_SLACK = 1e-9

# Largest growth factor across a trend window that still counts as bounded.
_GROWTH_TOL = 1.05


def check_growth_tol(growth_tol: float) -> None:
    """Reject a growth tolerance under which no trend verdict means anything."""
    if not (np.isfinite(growth_tol) and growth_tol >= 1.0):
        raise ValueError(f"growth tolerance must be finite and at least 1, got {growth_tol}")


def _verdict(earlier, later, window, growth_tol: float) -> tuple[str, float]:
    """The three-way verdict on the growth max(later) / max(earlier) of two window halves.

    Growth within growth_tol means BOUNDED.  Larger growth means GROWING
    when the window is monotone nondecreasing (a genuine divergence
    trend) and INCONCLUSIVE otherwise, as it is on a half of fewer than
    two samples, with growth 1.0.
    """
    if len(earlier) < 2 or len(later) < 2:
        return INCONCLUSIVE, 1.0
    floor = np.finfo(float).tiny
    growth = float(max(later.max(), floor) / max(earlier.max(), floor))
    if growth <= growth_tol:
        return BOUNDED, growth
    scale = float(np.abs(window).max())
    monotone = bool(np.all(np.diff(window) >= -_MONOTONE_SLACK * (1.0 + scale)))
    return (GROWING if monotone else INCONCLUSIVE), growth


def decade_trend(
    abscissae,
    values,
    growth_tol: float = _GROWTH_TOL,
    decades: float = 2.0,
) -> tuple[str, float]:
    """Classify the tail of positive values sampled on a geometric grid.

    The top `decades` of the abscissa range are split in half; the ratio
    of the per-half maxima is the growth factor, judged by _verdict.
    Fewer than four samples are too little to judge.
    """
    check_growth_tol(growth_tol)
    t = np.asarray(abscissae, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("need matching 1-d abscissa/value arrays")
    if np.any(np.diff(t) <= 0):
        raise ValueError("abscissae must be strictly increasing")
    if len(t) < 4:
        return INCONCLUSIVE, 1.0
    top = t[-1]
    lo = top / 10.0**decades
    if lo < t[0] * (1.0 - 1e-12):
        raise ValueError("grid does not span the requested trend window")
    mid = top / 10.0 ** (decades / 2.0)
    window = t >= lo * (1.0 - 1e-12)
    return _verdict(v[window & (t < mid)], v[t >= mid], v[window], growth_tol)


def range_trend(values) -> tuple[str, float]:
    """Quarter-based trend of a positive sequence over its index range.

    Compares the maximum over the last quarter against the previous
    quarter by _verdict over the second half, with the fixed tolerance
    _GROWTH_TOL, for sequences indexed by order k rather than by a
    geometric abscissa.  Fewer than eight entries are too little to judge.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("need a 1-d sequence for a trend verdict")
    n = len(v)
    if n < 8:
        return INCONCLUSIVE, 1.0
    return _verdict(v[n // 2 : 3 * n // 4], v[3 * n // 4 :], v[n // 2 :], _GROWTH_TOL)


def libm(fn, values: np.ndarray) -> np.ndarray:
    """fn (math.log or math.exp) per entry: numpy's own round differently on some inputs."""
    return np.fromiter(map(fn, values.tolist()), float, values.size)


# Relative width of the band below a group's numpy maximum that libm
# recomputes.  numpy's float64 log and exp are within an ulp or two of
# libm's (on one x86-64 build its exp differed on 4.6% of 2M inputs and
# its log on 7, by an ulp each time).  So a need log v - rhs moves by
# under 2e-13 + 2 ulps of itself; a ratio e^x with |x| < 2^12 from
# numpy's log and exp by 1.5e-12 relatively (x by 1.3e-12); a quotient
# v / e^x of values in [2^-1000, 2^1000] by a few ulps.  Any width above
# twice those keeps every entry that can hold a libm maximum; entries
# outside those ranges are forced.  The width stays near that bound: the
# ratios of a deep distance bin in the audit can lie closer than 1e-9
# (hundreds do in the README audit at 2000 samples).
LIBM_TOL = 1e-11


def _group_max(table: np.ndarray, key, size: int) -> np.ndarray:
    """Largest entry of each group g < size (entry e in group key[e]), NaN passed over, or -inf.

    The axes along which key is constant are reduced first, so only what
    is left goes through the slower np.fmax.at.
    """
    key = np.asarray(key)
    key = key.reshape((1,) * (table.ndim - key.ndim) + key.shape)
    axes = tuple(a for a, n in enumerate(key.shape) if n == 1)
    part = np.fmax.reduce(table, axis=axes, keepdims=True, initial=-np.inf)
    top = np.full(size, -np.inf)
    np.fmax.at(top, np.broadcast_to(key, part.shape).ravel(), part.ravel())
    return top


def libm_picks(table: np.ndarray, keys, forced=False, *, logs: bool = False) -> np.ndarray:
    """Entries of a numpy-filled table whose libm values can decide a group maximum.

    Each of keys (nonnegative integers broadcast against table) groups
    the entries.  An entry is picked when forced, or when its numpy value
    lies at or above its group's floor under the numpy maximum top:
    top - LIBM_TOL * (1 + |top|) in a table of logs (an infinite top is
    its own floor), top * (1 - LIBM_TOL) in a table of nonnegative ratios
    (-inf when top < 2^-1000, where numpy's relative error is unbounded).
    Forced entries set no group's top; a NaN entry is picked only forced.
    """
    held = np.where(forced, np.nan, table)
    pick = np.array(np.broadcast_to(forced, table.shape))
    with np.errstate(invalid="ignore"):
        for key in keys:
            key = np.asarray(key)
            top = _group_max(held, key, int(key.max(initial=0)) + 1)
            if logs:
                floor = np.where(np.isinf(top), top, top - LIBM_TOL * (1.0 + np.abs(top)))
            else:
                floor = np.where(top >= 2.0**-1000, top * (1.0 - LIBM_TOL), -np.inf)
            pick |= held >= floor[key]
    return pick


def libm_log_maxima(mag, rhs, key, size: int, logs=None) -> tuple[np.ndarray, np.ndarray]:
    """(need, top): need = math.log(mag) - rhs, taking log 0 as -inf, and its group maxima.

    Groups are as in _group_max.  numpy's log of mag (logs, if given)
    fills need, and the entries libm_picks names get math.log, so top is
    the per-entry libm maximum; the other entries stay numpy's.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        need = (np.log(mag) if logs is None else logs) - rhs
        pick = (mag > 0.0) & libm_picks(need, (key,), logs=True)
        need[pick] = libm(math.log, mag[pick]) - np.broadcast_to(rhs, need.shape)[pick]
    # A group's maximum is a picked entry, or -inf when it has none.
    return need, _group_max(need[pick], np.broadcast_to(key, need.shape)[pick], size)


def bound_constant(numerator, denominator) -> float:
    """Smallest C with num <= C * (den + 1) on the sample, as a max ratio."""
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if np.any(den < 0.0) or np.any(num < 0.0):
        raise ValueError("bound fitting expects nonnegative samples")
    return float(np.max(num / (den + 1.0)))
