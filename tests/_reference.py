"""Reference operations the tests check the pipeline against.

None of these runs in an extend job.  Each is a plain function over the
public data of a pipeline object, so the objects themselves carry only
what a job uses.
"""

import inspect
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from ultraext.partition_of_unity import (
    PiecewisePolynomial,
    _derivative_values,
    _eval_local,
    _real_roots_in,
)


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
    return [int(i) for i in f.cover.members(x, expanded=True)]


def taylor_degree(poly) -> int:
    """Degree of a TaylorPolynomial: one less than its stored derivative count."""
    return len(poly.derivs) - 1


def taylor_coeffs(poly) -> tuple[float, ...]:
    """Monomial coefficients of a TaylorPolynomial in powers of (y - center)."""
    return tuple(d / math.factorial(m) for m, d in enumerate(poly.derivs))
