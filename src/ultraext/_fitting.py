"""Finite-grid asymptotics: bound constants with a last-decades trend check.

Whether a sampled ratio stays bounded can only be decided up to a trend
heuristic; every caller turns the third verdict into an explicit
InconclusiveTrend error rather than guessing.
"""

from __future__ import annotations

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


def decade_trend(
    abscissae,
    values,
    growth_tol: float = _GROWTH_TOL,
    decades: float = 2.0,
) -> tuple[str, float]:
    """Classify the tail of positive values sampled on a geometric grid.

    The top `decades` of the abscissa range are split in half; the ratio
    of the per-half maxima is the growth factor.  Growth within
    `growth_tol` means BOUNDED.  Larger growth means GROWING when the
    window is monotone nondecreasing (a genuine divergence trend) and
    INCONCLUSIVE otherwise.
    """
    check_growth_tol(growth_tol)
    t = np.asarray(abscissae, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or len(t) < 4:
        raise ValueError("need matching 1-d abscissa/value arrays, length >= 4")
    if np.any(np.diff(t) <= 0):
        raise ValueError("abscissae must be strictly increasing")
    top = t[-1]
    lo = top / 10.0**decades
    if lo < t[0] * (1.0 - 1e-12):
        raise ValueError("grid does not span the requested trend window")
    mid = top / 10.0 ** (decades / 2.0)
    window = t >= lo * (1.0 - 1e-12)
    first = v[window & (t < mid)]
    second = v[t >= mid]
    if len(first) < 2 or len(second) < 2:
        raise ValueError("too few samples in the trend window")
    floor = np.finfo(float).tiny
    growth = float(max(second.max(), floor) / max(first.max(), floor))
    if growth <= growth_tol:
        return BOUNDED, growth
    w = v[window]
    scale = float(np.abs(w).max())
    monotone = bool(np.all(np.diff(w) >= -_MONOTONE_SLACK * (1.0 + scale)))
    return (GROWING if monotone else INCONCLUSIVE), growth


def range_trend(values) -> tuple[str, float]:
    """Quarter-based trend of a positive sequence over its index range.

    Compares the maximum over the last quarter against the previous
    quarter; the same three-way verdict as decade_trend, for sequences
    indexed by order k rather than by a geometric abscissa, with the
    fixed tolerance _GROWTH_TOL.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 8:
        raise ValueError("need a 1-d sequence of length >= 8 for a trend verdict")
    n = len(v)
    q3 = v[n // 2 : 3 * n // 4]
    q4 = v[3 * n // 4 :]
    floor = np.finfo(float).tiny
    growth = float(max(q4.max(), floor) / max(q3.max(), floor))
    if growth <= _GROWTH_TOL:
        return BOUNDED, growth
    tail = v[n // 2 :]
    monotone = bool(np.all(np.diff(tail) >= -_MONOTONE_SLACK * (1.0 + np.abs(tail).max())))
    return (GROWING if monotone else INCONCLUSIVE), growth


def libm(fn, values: np.ndarray) -> np.ndarray:
    """fn (math.log or math.exp) per entry: numpy's own round differently on some inputs."""
    return np.fromiter(map(fn, values.tolist()), float, values.size)


def bound_constant(numerator, denominator) -> float:
    """Smallest C with num <= C * (den + 1) on the sample, as a max ratio."""
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if np.any(den < 0.0) or np.any(num < 0.0):
        raise ValueError("bound fitting expects nonnegative samples")
    return float(np.max(num / (den + 1.0)))
