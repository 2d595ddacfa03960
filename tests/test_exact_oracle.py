"""eval_derivative against exact arithmetic on the data it evaluates.

The oracle takes the float piece rows, breakpoints and Taylor data of an
extension exactly into mpmath, forms the truncated Taylor series at x of
sum_i psi_i T_i and of sum_i psi_i over the bumps alive on the piece
holding x, divides them, and reads off the derivatives 0..folds.  The
exact sums cancel terms near 1e100 at the deepest breakpoints (the bump
derivatives grow like side**-8 there), so the oracle runs at 200 and at
400 digits and must agree with itself before it judges the float path.
Where the live bumps carry Taylor polynomials of two anchors, the error
is measured against the summed terms' magnitudes instead, since there
the exact sum is itself the cancellation of much larger terms.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from ultraext import extension_engine
from ultraext.extension_engine import assemble, eval_derivative, make_plan, region_samples
from ultraext.matrix_calculus import associated_matrix, interleave_matrix, strong_regularization
from ultraext.ultrajets import UltraJet, certify, polynomial_jet
from ultraext.weight_functions import WeightFunction
from ultraext.whitney_geometry import CompactSet1D
from _reference import bump, interval_poly, piece_index, terms

CLUSTER_POINTS = [0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81]


@pytest.fixture(scope="module")
def pipeline():
    reg = strong_regularization(associated_matrix(WeightFunction.power(0.5), k_max=64))
    return reg, interleave_matrix(reg)


def extension(pipeline, jet, xi):
    reg, inter = pipeline
    plan = make_plan(certify(jet, inter, xi=xi), reg, folds=8)
    return assemble(jet, reg, plan)


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


def exact_derivatives(f, x: float, order: int) -> tuple[list, list]:
    """Derivatives 0..order at x of sum psi_i T_i / sum psi_i, at mp precision.

    Also returns, per order, the sum over bumps of the magnitudes of the
    terms psi_i T_i / sum psi_i: the size of what the sum cancels.  Each
    bump is the polynomial of its piece holding the refinement piece's
    midpoint, the piece Partition.derivatives reads.
    """
    n = order + 1
    part = f.partition
    bp = part.breakpoints
    j = min(int(np.searchsorted(bp, x, side="right")) - 1, bp.size - 2)
    mid = float(0.5 * (bp[j] + bp[j + 1]))
    products, den = [], [mpf(0)] * n
    for i in part.piece_active[j]:
        psi_i = bump(part, i)
        k = piece_index(psi_i, mid)
        u = mpf(x) - mpf(psi_i.breakpoints[k])
        cs = [mpf(c) for c in psi_i.pieces[k]]
        psi = [
            sum(cs[m] * mpmath.binomial(m, r) * u ** (m - r) for m in range(r, len(cs)))
            for r in range(n)
        ]
        t = interval_poly(f, i)
        v = mpf(x) - mpf(t.center)
        ds = [mpf(c) for c in t.derivs]
        tay = [
            sum(ds[m] * v ** (m - r) / mpmath.factorial(m - r) for m in range(r, len(ds)))
            / mpmath.factorial(r)
            for r in range(n)
        ]
        products.append(_times(psi, tay, n))
        den = [a + b for a, b in zip(den, psi)]

    def divide(num):
        q: list = []
        for k in range(n):
            q.append((num[k] - sum(q[r] * den[k - r] for r in range(k))) / den[0])
        return q

    exact = divide([sum(col) for col in zip(*products)])
    scale = [sum(col) for col in zip(*([abs(v) for v in divide(p)] for p in products))]
    facts = [mpmath.factorial(k) for k in range(n)]
    return [v * c for v, c in zip(exact, facts)], [v * c for v, c in zip(scale, facts)]


def quadratic_jet(points):
    return polynomial_jet(CompactSet1D.from_points(points), points, [1.0, 2.0, -3.0], 32)


# (jet, certificate row, worst relative error over 40 region samples
# and all orders 0..8, worst error at the two-anchor samples or None
# where there are none).  Each bound is the observed worst.  The cluster
# bound moved from 2.0e-16 to 8.5e-16 (measured 8.45e-16, under 4 ulps)
# when the template became the exact one rounded once: the oracle
# evaluates the program's own rows exactly, so only the float path's
# rounding on the new rows shows, not a change of the rows themselves.
CASES = {
    "readme": (lambda p: gevrey_jet(p, [0.0]), 1.0, 1.2e-16, None),
    "cluster": (lambda p: gevrey_jet(p, CLUSTER_POINTS), 1.0, 8.5e-16, None),
    # An analytic jet on two close points, its row chosen by certify.
    "sine": (lambda p: sine_jet([0.0, 0.01]), None, 1.1e-16, None),
    # Low growth keeps d_max above half the gap, so the bumps near its
    # middle carry polynomials anchored at both points.
    "quadratic": (lambda p: quadratic_jet([0.0, 0.01]), None, 1.1e-16, 1.1e-16),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_eval_derivative_matches_exact_arithmetic(pipeline, name, monkeypatch):
    make_jet, xi, bound, two_anchor_bound = CASES[name]
    f = extension(pipeline, make_jet(pipeline), xi)
    order = f.plan.folds
    ladder = region_samples(f, 80 * len(f.jet.e.components))
    xs = ladder[np.linspace(0, ladder.size - 1, 40).round().astype(int)].tolist()
    # Every fine-ladder sample whose live bumps carry two anchors.
    mixed = [
        x for x in region_samples(f, 2000).tolist()
        if len({int(f.local.anchor[i]) for i in terms(f, x)}) > 1
    ]
    assert bool(mixed) == (two_anchor_bound is not None)
    apart = []
    difference = extension_engine._difference_derivatives

    def counted(t_i, t_ref, *rest):
        apart.append(t_i.center != t_ref.center)
        return difference(t_i, t_ref, *rest)

    monkeypatch.setattr(extension_engine, "_difference_derivatives", counted)
    worst = {False: 0.0, True: 0.0}
    for x, two in [(x, False) for x in xs] + [(x, True) for x in mixed]:
        with mp.workdps(200):
            low, _ = exact_derivatives(f, x, order)
        with mp.workdps(400):
            exact, scale = exact_derivatives(f, x, order)
            for a, (lo, hi) in enumerate(zip(low, exact)):
                assert abs(lo - hi) <= mpf(10) ** -60 * abs(hi), (x, a)
                got = eval_derivative(f, x, a)
                # Where two anchors meet, their polynomials (both the
                # quadratic) agree up to the rounding of the jet values,
                # so from order 3 the exact sum is that rounding times
                # bump derivatives up to 1e38, which float subtraction
                # cannot resolve: the error there is measured against the
                # magnitude of the summed terms.
                ref = scale[a] if two else abs(hi)
                if ref == 0:
                    assert got == 0.0, (x, a)
                    continue
                worst[two] = max(worst[two], float(abs(mpf(got) - hi) / ref))
    assert worst[False] <= bound
    assert worst[True] <= (two_anchor_bound or 0.0)
    # eval_derivative ran the distinct-center difference in the case whose
    # bumps meet two anchors, and in no other.
    assert any(apart) == bool(mixed)
