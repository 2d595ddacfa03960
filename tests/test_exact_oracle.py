"""eval_derivative against exact arithmetic on the data it evaluates.

The oracle takes the float piece rows, breakpoints and Taylor data of an
extension exactly into mpmath, forms the truncated Taylor series at x of
sum_i psi_i T_i and of sum_i psi_i over the bumps alive on the piece
holding x, divides them, and reads off the derivatives 0..folds.  The
exact sums cancel terms near 1e100 at the deepest breakpoints (the bump
derivatives grow like side**-8 there), so the oracle runs at 200 and at
400 digits and must agree with itself before it judges the float path.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from ultraext.extension_engine import assemble, eval_derivative, make_plan, region_samples
from ultraext.matrix_calculus import associated_matrix, interleave_matrix, strong_regularization
from ultraext.ultrajets import UltraJet, certify
from ultraext.weight_functions import WeightFunction
from ultraext.whitney_geometry import CompactSet1D

CLUSTER_POINTS = [0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81]


@pytest.fixture(scope="module")
def pipeline():
    reg = strong_regularization(associated_matrix(WeightFunction.power(0.5), k_max=64))
    return reg, interleave_matrix(reg)


def extension(pipeline, jet, xi):
    reg, inter = pipeline
    plan = make_plan(certify(jet, inter, xi=xi), reg, folds=8)
    return assemble(jet, reg, plan, max_generation=44)


def gevrey_jet(pipeline, points):
    """The README extend job's jet: the interleaved row at xi 1 at every point."""
    row = tuple(float(v) for v in np.exp(pipeline[1].full_log_row(1.0)[:33]))
    return UltraJet(CompactSet1D.from_points(points), tuple(points), (row,) * len(points))


def sine_jet(points):
    def fn(a, k):
        return (math.sin(a), math.cos(a), -math.sin(a), -math.cos(a))[k % 4]

    return UltraJet.from_function(CompactSet1D.from_points(points), points, 32, fn)


def _times(a, b, n):
    return [sum(a[r] * b[k - r] for r in range(k + 1)) for k in range(n)]


def exact_derivatives(f, x: float, order: int) -> list:
    """Derivatives 0..order at x of sum psi_i T_i / sum psi_i, at mp precision.

    Each bump is the polynomial of its piece holding the refinement
    piece's midpoint, the piece Partition.derivatives reads.
    """
    n = order + 1
    part = f.partition
    bp = part.breakpoints
    j = min(int(np.searchsorted(bp, x, side="right")) - 1, bp.size - 2)
    mid = float(0.5 * (bp[j] + bp[j + 1]))
    num, den = [mpf(0)] * n, [mpf(0)] * n
    for i in part.piece_active[j]:
        bump = part.bumps[i]
        k = bump.piece_index(mid)
        u = mpf(x) - mpf(bump.breakpoints[k])
        cs = [mpf(c) for c in bump.pieces[k]]
        psi = [
            sum(cs[m] * mpmath.binomial(m, r) * u ** (m - r) for m in range(r, len(cs)))
            for r in range(n)
        ]
        t = f.taylors[i]
        v = mpf(x) - mpf(t.center)
        ds = [mpf(c) for c in t.derivs]
        tay = [
            sum(ds[m] * v ** (m - r) / mpmath.factorial(m - r) for m in range(r, len(ds)))
            / mpmath.factorial(r)
            for r in range(n)
        ]
        num = [a + b for a, b in zip(num, _times(psi, tay, n))]
        den = [a + b for a, b in zip(den, psi)]
    q: list = []
    for k in range(n):
        q.append((num[k] - sum(q[r] * den[k - r] for r in range(k))) / den[0])
    return [q[k] * mpmath.factorial(k) for k in range(n)]


# (jet, certificate row, worst relative error observed over 40 region
# samples and all orders 0..8, which is the bound).
CASES = {
    "readme": (lambda p: gevrey_jet(p, [0.0]), 1.0, 1.2e-16),
    "cluster": (lambda p: gevrey_jet(p, CLUSTER_POINTS), 1.0, 2.0e-16),
    # An analytic jet on two close points, its row chosen by certify.
    "sine": (lambda p: sine_jet([0.0, 0.01]), None, 1.1e-16),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_eval_derivative_matches_exact_arithmetic(pipeline, name):
    make_jet, xi, bound = CASES[name]
    f = extension(pipeline, make_jet(pipeline), xi)
    order = f.plan.folds
    ladder = region_samples(f, 80 * len(f.jet.e.components))
    xs = ladder[np.linspace(0, ladder.size - 1, 40).round().astype(int)].tolist()
    worst = 0.0
    for x in xs:
        with mp.workdps(200):
            low = exact_derivatives(f, x, order)
        with mp.workdps(400):
            exact = exact_derivatives(f, x, order)
            for a, (lo, hi) in enumerate(zip(low, exact)):
                assert abs(lo - hi) <= mpf(10) ** -60 * abs(hi), (x, a)
                got = eval_derivative(f, x, a)
                if hi == 0:
                    assert got == 0.0, (x, a)
                    continue
                worst = max(worst, float(abs(mpf(got) - hi) / abs(hi)))
    assert worst <= bound
