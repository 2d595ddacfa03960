"""Reference operations the tests check the pipeline against.

None of these runs in an extend job.  Each is a plain function over the
public data of a pipeline object, so the objects themselves carry only
what a job uses.
"""

from dataclasses import replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from ultraext.partition_of_unity import PiecewisePolynomial, _eval_local, _real_roots_in


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


def partition_value(part, i: int, x: float) -> float:
    """phi_i(x) as the quotient of bump i and the bump total."""
    psi = part.bumps[i](x)
    if psi == 0.0:
        return 0.0
    return psi / part.total(x)


def scaled(jet, c: float):
    """The jet with every stored value multiplied by c."""
    return replace(jet, rows=tuple(tuple(c * v for v in r) for r in jet.rows))


def terms(f, x: float) -> list[int]:
    """Indices of the intervals whose bump can be alive at x."""
    return [int(i) for i in f.cover.members(x, expanded=True)]
