"""Acceptance suite: one test per shipped guarantee.

Each criterion is a single test function, so a verbose run prints one
pass or fail line per criterion; on success the test also prints its own
verdict line with the headline numbers.  Tolerances are stated literally
at the assertion sites.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ultraext.cli import main as cli_main
from ultraext.extension_engine import (
    assemble,
    boundary_limits,
    eval_derivative,
    make_plan,
    verify_bounds,
)
from ultraext.errors import PlanInvalid
from ultraext.matrix_calculus import (
    associated_matrix,
    gamma_doubling_check,
    interleave_matrix,
    lemma8_regularize,
    sandwich_H,
    sandwich_fit,
    strong_regularization,
)
from ultraext.partition_of_unity import MARGIN_FRACTION, build_bump, build_partition
from ultraext.seq_calculus import (
    WeightSequence,
    associated_weight,
    counting_index,
    h_function,
    log_convex_minorant,
)
from ultraext.ultrajets import UltraJet, certify, polynomial_jet
from ultraext.weight_functions import (
    WeightFunction,
    classify,
    geometric_grid,
    kappa_transform_grid,
    young_conjugate_grid,
)
from ultraext.whitney_geometry import (
    CompactSet1D,
    build_cover,
    covered_sample_grid,
    distance_and_nearest,
    overlap_counts,
    verify_eq14,
)
from _reference import derivative, partition_value, rebuilt, sup_norm


def verdict(number: int, label: str, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {number:>2} ({label}): PASS{tail}")


def test_criterion_01_transform_closed_form():
    start = time.perf_counter()
    ts = np.geomspace(1.0, 1e6, 64)
    worst = 0.0
    for a in (0.2, 0.5, 0.8):
        got = kappa_transform_grid(WeightFunction.power(a), ts)
        want = ts**a / (1.0 - a)
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    verdict(1, "transform closed form", f"rel {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_strongness_classifier():
    sqrt_w = WeightFunction.power(0.5)
    cls = classify(sqrt_w)
    assert cls.strong is True
    c_fitted = cls.constants["strong_constant"]
    assert abs(c_fitted - 2.0) < 0.05 * 2.0

    slow = WeightFunction.linear_over_log_squared()
    cls2 = classify(slow)
    assert cls2.strong is False
    # witness: the transform gains a log factor, so kappa / omega tracks
    # log t on the last two decades of the default grid
    ts = geometric_grid()
    ratio = kappa_transform_grid(slow, ts) / np.asarray(slow.raw(ts))
    tail = ts >= 1e6
    assert np.all(np.abs(ratio[tail] / np.log(ts[tail]) - 1.0) < 0.10)
    verdict(2, "strongness classifier", f"fitted C {c_fitted:.4f}")


def test_criterion_03_conjugate_and_matrix_rows():
    w = WeightFunction.power(0.5)
    ys = np.geomspace(1.0, 100.0, 80)
    got = young_conjugate_grid(w, ys)
    # normalized sqrt weight: phi*(y) = 2y log(2y) - 2y + 1 past the plateau
    want = 2.0 * ys * np.log(2.0 * ys) - 2.0 * ys + 1.0
    assert float(np.max(np.abs(got - want) / np.maximum(want, 1.0))) < 1e-6

    S = associated_matrix(w, k_max=40)
    worst = 0.0
    for xi in (0.25, 1.0, 4.0):
        full = S.full_log_row(xi)
        k = np.arange(41, dtype=float)
        ref = np.zeros(41)
        active = xi * k >= 0.5
        ref[active] = 2 * k[active] * np.log(2 * xi * k[active] / math.e) + 1.0 / xi
        worst = max(worst, float(np.abs(full - ref).max()))
    assert worst < 1e-5
    verdict(3, "conjugate and matrix rows", f"log gap {worst:.2e}")


def test_criterion_04_identity_suite():
    start = time.perf_counter()

    # associated function duality within 1e-12
    m = WeightSequence.factorial_power(2.0, 64)
    for t in np.geomspace(1e-3, 0.9, 64):
        h = h_function(m, float(t))
        assert abs(h - math.exp(-associated_weight(m, 1.0 / float(t)))) <= 1e-12

    Sb = strong_regularization(associated_matrix(WeightFunction.power(0.5), k_max=100))
    V = interleave_matrix(Sb)

    # quotient duplication, bit for bit
    q = V.row_sequence(1.0).log_quotients
    src = Sb.row_sequence(2.0).log_quotients
    assert all(q[2 * i] == src[i] and q[2 * i + 1] == src[i] for i in range(len(src)))

    # counting index doubles exactly, as integers, on four rows
    for xi, t_min in ((0.25, 0.1), (0.5, 2e-2), (1.0, 6e-3), (2.0, 1.5e-3)):
        ok, counterexample = gamma_doubling_check(
            Sb, V, xi, np.geomspace(t_min, 4.0, 64)
        )
        assert ok and counterexample is None

    # products m_k t^k are nonincreasing up to the counting index, checked
    # in exact rational arithmetic
    gevrey2 = WeightSequence.factorial_power(2.0, 40)
    for j in range(1, 11):
        t = Fraction(1, 2**j)
        gamma = counting_index(gevrey2, float(t))
        exact = [Fraction(math.factorial(k)) ** 2 * t**k for k in range(gamma + 1)]
        assert all(exact[k] >= exact[k + 1] for k in range(gamma))

    # minorant idempotence, bit for bit, on a perturbed convex sequence
    rng = np.random.default_rng(3)
    logs = np.cumsum(np.cumsum(rng.uniform(0.05, 1.0, 40)))
    logs += rng.uniform(0.0, 0.4, 40)
    s = WeightSequence.from_log_values((0.0,) + tuple(logs))
    m1 = log_convex_minorant(s)
    m2 = log_convex_minorant(m1)
    assert m1.log_values == m2.log_values

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    verdict(4, "identity suite", f"{elapsed:.2f}s")


def test_criterion_05_sandwich_constants():
    w = WeightFunction.power(0.5)
    S = associated_matrix(w, k_max=100)
    Sb = strong_regularization(S)
    fit = sandwich_fit(S, Sb)
    assert fit.b == 2.0
    assert math.isfinite(fit.a_constant) and fit.a_constant >= 1.0
    assert math.isfinite(fit.c_constant) and fit.c_constant >= 1.0

    # the interleaving constant must be stable as the fit range grows
    S2 = associated_matrix(w, (0.5, 1.0, 2.0), k_max=208)
    Sb2 = strong_regularization(S2)
    V2 = interleave_matrix(Sb2, (1.0,))
    h_short = sandwich_H(Sb2, V2, 1.0, 50)
    h_long = sandwich_H(Sb2, V2, 1.0, 200)
    assert abs(h_long - h_short) <= 0.10 * h_short
    verdict(
        5,
        "sandwich constants",
        f"A {fit.a_constant:.3g} C {fit.c_constant:.3g} H {h_long:.3g}",
    )


def test_criterion_06_suffix_minimum_repair():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        nu = np.concatenate([[1.0], 1.0 + np.cumsum(rng.uniform(0.0, 2.0, n - 1))])
        k = np.arange(1, n, dtype=float)
        c = 4.0
        cap = c * np.minimum.accumulate((nu[1:] / k)[::-1])[::-1] * k
        mu = np.concatenate([[1.0], rng.uniform(0.1, 0.99) * cap])
        out = lemma8_regularize(mu, nu, c_bound=c)
        assert np.all(out <= nu)
        assert np.all(mu <= c * out + 1e-9 * (1.0 + np.abs(mu).max()))
        ratios = out[1:] / k
        assert np.all(np.diff(ratios) >= -1e-15 * np.abs(ratios[:-1]))
    verdict(6, "suffix-minimum repair", "100 randomized inputs")


def test_criterion_07_cover_geometry():
    start = time.perf_counter()
    sets = (
        CompactSet1D.from_points([0.0]),
        CompactSet1D((( -1.0, 0.0), (1.0, 1.0))),
    )
    for e in sets:
        cover = build_cover(e, 1.0)
        xs = covered_sample_grid(cover, 10_000)
        rep = verify_eq14(cover, xs)
        assert rep.ok and not rep.violations
        assert rep.worst_lower >= 0.5 and rep.worst_upper <= 3.0
        assert int(overlap_counts(cover, xs).max()) <= 3

    # an aggressive expansion must break the proportionality check; the
    # builder refuses it outright, so it is forced onto a built cover
    good = build_cover(CompactSet1D.from_points([0.0]), 1.0)
    bad = rebuilt(good, expansion=3.0)
    rep = verify_eq14(bad, covered_sample_grid(bad, 10_000))
    assert not rep.ok and rep.violations

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    verdict(7, "cover geometry", f"{elapsed:.2f}s")


def test_criterion_08_partition_bounds():
    cover = build_cover(CompactSet1D.from_points([0.0]), 1.0, max_generation=24)
    part = build_partition(cover, 8)
    xs = covered_sample_grid(cover, 10_000)
    sums = part.values_matrix(xs).sum(axis=0)
    assert float(np.max(np.abs(sums - 1.0))) <= 1e-12

    # every bump derivative up to the fold count obeys (2 / width)^order
    cap = 2.0 / (MARGIN_FRACTION / 8)
    cur = build_bump(8)
    for order in range(1, 9):
        cur = derivative(cur)
        assert sup_norm(cur) <= cap**order * (1.0 + 1e-12)

    # partition derivatives against a finite-difference oracle at ten
    # random points, picked on pieces wide enough for stable stencils
    bp = part.breakpoints
    cands = [
        j
        for j, act in enumerate(part.piece_active)
        if len(act) >= 2 and bp[j + 1] - bp[j] > 5e-4
    ]
    rng = np.random.default_rng(5)
    checked = 0
    for j in rng.choice(cands, size=10, replace=False):
        width = float(bp[j + 1] - bp[j])
        i = int(rng.choice(part.piece_active[j]))
        x0 = float(bp[j] + width * rng.uniform(0.3, 0.7))
        for order in (1, 2, 3):
            got = part.derivatives(i, x0, order)[order]
            ref = fd_reference(lambda y: partition_value(part, i, y), x0, order, width / 10.0)
            scale = max(abs(got), abs(ref), 1.0)
            assert abs(got - ref) / scale < 1e-6
        checked += 1
    assert checked == 10
    verdict(8, "partition bounds", f"{checked} oracle points")


def fd_reference(fun, x, order, step, levels=3):
    def stencil(s):
        acc = 0.0
        for j in range(order + 1):
            acc += (-1.0) ** j * math.comb(order, j) * fun(x + (order / 2.0 - j) * s)
        return acc / s**order

    vals = [stencil(step / 2.0**lv) for lv in range(levels)]
    fac = 4.0
    while len(vals) > 1:
        vals = [(fac * b - a) / (fac - 1.0) for a, b in zip(vals, vals[1:])]
        fac *= 4.0
    return vals[0]


def test_criterion_09_extension_end_to_end():
    start = time.perf_counter()
    w = WeightFunction.power(0.5)
    reg = strong_regularization(associated_matrix(w, k_max=64))
    inter = interleave_matrix(reg)
    e = CompactSet1D.from_points([0.0])

    # Gevrey-type jet: derivatives are the full interleaved row values,
    # factorials included
    full = inter.full_log_row(1.0)
    jet = UltraJet(e, (0.0,), (tuple(float(v) for v in np.exp(full[:33])),))
    cert = certify(jet, inter, xi=1.0)
    plan = make_plan(cert, reg)
    ext = assemble(jet, reg, plan)

    # stored-point agreement is exact
    for a in range(9):
        assert eval_derivative(ext, 0.0, a) == jet.value(0.0, a)

    # dyadic boundary approach: errors shrink monotonically and stay
    # dominated by the fitted multiple of distance plus sequence decay
    bnd = boundary_limits(ext, 6, 0.0, max_index=40)
    assert bnd.steps[-1].index == 40 and bnd.floor_index is None
    assert all(bnd.nonincreasing)
    e0 = np.array([s.errors[0] for s in bnd.steps])
    assert np.all(np.diff(e0) < 0.0)
    for alpha in range(7):
        fitted = bnd.fitted[alpha]
        assert math.isfinite(fitted)
        for s in bnd.steps:
            assert s.errors[alpha] <= fitted * (s.distance + s.decay) * (1 + 1e-12)
        assert bnd.ratio_trend[alpha] != "growing"

    # one growth base across all orders, no per-order refit
    rep = verify_bounds(ext, samples=200, alpha_cap=8)
    assert rep.all_passed
    assert rep.check("global_derivative_growth").passed
    assert math.isfinite(rep.fitted_m) and rep.fitted_m >= 1.0

    # a polynomial jet is reproduced to within 1e-12 wherever the local
    # degree covers the polynomial
    coeffs = (1.0, 2.0, 0.0, 1.0)
    pjet = polynomial_jet(e, (0.0,), coeffs, alpha_max=32)
    pext = assemble(pjet, reg, plan, max_generation=40)
    probes = 0
    for x in (1e-3, -1e-3, 5e-4, 2e-3, -7e-4, 3e-4, -4e-4, 8e-4, 1.5e-3, -1.2e-3):
        d, _ = distance_and_nearest(e, x)
        if not pext.cover.d_min_covered <= d < pext.d_max:
            continue
        mindeg = min(pext.degrees[int(i)] for i in pext.cover.members(x, expanded=True))
        assert mindeg >= 3
        want = coeffs[0] + coeffs[1] * x + coeffs[3] * x**3
        got = eval_derivative(pext, x, 0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        probes += 1
    assert probes >= 10

    # a plan dilated below the certified growth index is refused, and a
    # forced degenerate run fails its audit
    with pytest.raises(PlanInvalid):
        assemble(jet, reg, make_plan(cert, reg, dilation=0.5 * cert.rho))
    degenerate = assemble(
        jet,
        reg,
        make_plan(cert, reg, dilation=0.5 * cert.rho),
        allow_degenerate=True,
    )
    bad = verify_bounds(degenerate, samples=200, alpha_cap=8)
    assert not bad.all_passed

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    verdict(9, "extension end to end", f"M {rep.fitted_m:.4g} in {elapsed:.1f}s")


def test_criterion_10_deterministic_reports(tmp_path):
    cfg = {
        "weight": {"family": "power", "parameters": {"exponent": 0.5}},
        "k": 64,
        "jet": {"kind": "gevrey", "set": {"points": [0.0]}, "alpha_max": 32, "xi": 1.0},
        "run": {"samples": 120, "csv_samples": 16, "alpha_cap": 8},
        "seed": 1,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli_main(["extend", "--config", str(path), "--out", str(out1)]) == 0
    assert cli_main(["extend", "--config", str(path), "--out", str(out2)]) == 0
    names = ("bound_report.json", "extension_samples.csv", "boundary_limits.csv")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    verdict(10, "deterministic reports", f"{len(names)} files byte-identical")
