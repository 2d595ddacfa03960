"""Checks of the `ultraext extend` products against oracles computed apart from the program.

(a) boundary_limits.csv: every order's error is nonincreasing along the
    dyadic descent a + 2^-j, and at the deep steps (distance <= 2^-29)
    e_a / distance matches |F^(a+1)(a)|, the first Taylor term of the jet
    row at the base point.
(b) extension_samples.csv: on a seeded subset of the trace points, f^(a)
    for a = 1..3 matches a Richardson-extrapolated central difference of
    f^(a-1).  The step d/4096 stays below the partition's box width
    side/(16*folds) (about d/320), so the stencil does not straddle the
    spline pieces; the steps actually taken are the representable ones.
(c) The partition values sum to 1 within 1e-12 at the trace points.
(d) Jobs with the same config and seed write byte-identical products.
A workload's own job must also pass its audit: bound_report.json says
all_passed and is no negative control (check_verdict).

No check compares against a stored copy of earlier output.  Each check
raises CheckError; self_test feeds each one a corrupted product.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass

import numpy as np

PRODUCTS = ("bound_report.json", "extension_samples.csv", "boundary_limits.csv")

EPS = sys.float_info.epsilon
DEEP_DISTANCE = 2.0**-29
DEEP_STEPS_MIN = 4
TAYLOR_RTOL = 1e-4
# Headroom on eps for the float error of differences and quotients.
ROUNDOFF = 64.0
FD_DIVISOR = 4096.0
FD_RTOL = 1e-6
FD_ORDERS = (1, 2, 3)
FD_POINTS = 16
FD_MIN_POINTS = 8
# The finest stencil step must span this many ulps of the coordinate.
FD_MIN_ULPS = 1024.0
PARTITION_TOL = 1e-12


class CheckError(Exception):
    """A product disagrees with its oracle."""


@dataclass(frozen=True)
class Products:
    """Parsed products: the report, the sample trace and the descent."""

    report: dict
    samples: dict[float, tuple[float, ...]]
    boundary: tuple[tuple[int, float, float, float, tuple[float, ...]], ...]


def _rows(text: bytes, header: tuple[str, ...], name: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text.decode("utf-8"))))
    if not rows or tuple(rows[0]) != header:
        raise CheckError(f"{name}: header {rows[0] if rows else None} is not {header}")
    return rows[1:]


def parse(products: dict[str, bytes]) -> Products:
    missing = [p for p in PRODUCTS if p not in products]
    if missing:
        raise CheckError(f"missing products: {missing}")
    try:
        return _parse(products)
    except (ValueError, IndexError, KeyError, TypeError) as err:
        raise CheckError(f"malformed product: {type(err).__name__}: {err}") from None


def _parse(products: dict[str, bytes]) -> Products:
    report = json.loads(products["bound_report.json"])
    cap = int(report["boundary"]["alpha_cap"])

    samples: dict[float, list[float]] = {}
    for row in _rows(products["extension_samples.csv"], ("x", "alpha", "derivative"),
                     "extension_samples.csv"):
        x, alpha, value = float(row[0]), int(row[1]), float(row[2])
        orders = samples.setdefault(x, [])
        if alpha != len(orders):
            raise CheckError(f"extension_samples.csv: x={x!r} lists order {alpha} "
                             f"after {len(orders)} orders")
        orders.append(value)
    if not samples or any(len(v) != cap + 1 for v in samples.values()):
        raise CheckError(f"extension_samples.csv: every x needs orders 0..{cap}")

    header = ("index", "x", "distance", "decay") + tuple(f"e{a}" for a in range(cap + 1))
    boundary = tuple(
        (int(r[0]), float(r[1]), float(r[2]), float(r[3]), tuple(float(v) for v in r[4:]))
        for r in _rows(products["boundary_limits.csv"], header, "boundary_limits.csv")
    )
    if not boundary:
        raise CheckError("boundary_limits.csv has no steps")
    return Products(report, {x: tuple(v) for x, v in samples.items()}, boundary)


def check_boundary(p: Products, jet_row) -> int:
    """(a) on the descent; returns the number of deep-step comparisons."""
    steps = p.boundary
    for prev, cur in zip(steps, steps[1:]):
        if cur[0] != prev[0] + 1 or not cur[2] < prev[2]:
            raise CheckError(f"boundary step {cur[0]} does not follow step {prev[0]}")
        for a, (e_prev, e_cur) in enumerate(zip(prev[4], cur[4])):
            if e_cur > e_prev * (1.0 + 1e-9):
                raise CheckError(
                    f"boundary e{a} rises from {e_prev!r} to {e_cur!r} at step {cur[0]}"
                )
    deep = [s for s in steps if s[2] <= DEEP_DISTANCE]
    if len(deep) < DEEP_STEPS_MIN:
        raise CheckError(f"only {len(deep)} boundary steps reach distance 2^-29")
    checked = 0
    for index, _, d, _, errors in deep:
        for a, e in enumerate(errors):
            first = abs(float(jet_row[a + 1]))
            # e_a = |sum_k F^(a+k) d^k / k!|: the k = 1 term dominates at
            # depth; the float error of f^(a)(x) - F^(a)(a) is the rest.
            tol = TAYLOR_RTOL * first + ROUNDOFF * EPS * abs(float(jet_row[a])) / d
            if abs(e / d - first) > tol:
                raise CheckError(
                    f"boundary step {index}: e{a}/d = {e / d!r}, jet term {first!r}"
                )
            checked += 1
    return checked


def _distance(components, x: float) -> float:
    return min(a - x if x < a else (x - b if x > b else 0.0) for a, b in components)


def _richardson(g, x: float, h: float) -> tuple[float, float, float]:
    """Extrapolated central difference of g at x, its error estimate, max |g|."""

    def central(step: float) -> tuple[float, float]:
        hi, lo = x + step, x - step
        g_hi, g_lo = g(hi), g(lo)
        return (g_hi - g_lo) / (hi - lo), max(abs(g_hi), abs(g_lo))

    d1, m1 = central(h)
    d2, m2 = central(0.5 * h)
    d4, m4 = central(0.25 * h)
    coarse = (4.0 * d2 - d1) / 3.0
    fine = (4.0 * d4 - d2) / 3.0
    return fine, abs(fine - coarse), max(m1, m2, m4)


def fd_points(p: Products, ext, seed: int) -> list[float]:
    """Seeded subset of the trace points where the stencil fits in the band."""
    comps = ext.jet.e.components
    fits = []
    for x in sorted(p.samples):
        d = _distance(comps, x)
        h = d / FD_DIVISOR
        if (d - h > ext.cover.d_min_covered and d + h < ext.d_max
                and 0.25 * h >= FD_MIN_ULPS * math.ulp(x)):
            fits.append(x)
    if len(fits) < FD_MIN_POINTS:
        raise CheckError(f"only {len(fits)} trace points admit the difference stencil")
    return sorted(random.Random(seed).sample(fits, min(FD_POINTS, len(fits))))


def check_derivatives(p: Products, ext, seed: int) -> list[tuple[float, int, float]]:
    """(b); returns (x, order, relative tolerance) per comparison."""
    from ultraext import eval_derivative

    comps = ext.jet.e.components
    done = []
    for x in fd_points(p, ext, seed):
        h = _distance(comps, x) / FD_DIVISOR
        for a in FD_ORDERS:
            ref = p.samples[x][a]
            est, spread, g_max = _richardson(
                lambda y: eval_derivative(ext, y, a - 1), x, h
            )
            tol = FD_RTOL * abs(ref) + spread + ROUNDOFF * EPS * g_max / (0.25 * h)
            if not abs(ref - est) <= tol:
                raise CheckError(
                    f"f^({a})({x!r}) = {ref!r} but the difference oracle gives {est!r}"
                    f" (tolerance {tol:.3g})"
                )
            done.append((x, a, tol / abs(ref) if ref else math.inf))
    return done


def check_partition(p: Products, ext) -> None:
    """(c) at every trace point."""
    xs = np.array(sorted(p.samples))
    dev = np.abs(ext.partition.values_matrix(xs).sum(axis=0) - 1.0)
    if not dev.max() <= PARTITION_TOL:
        worst = int(np.argmax(dev))
        raise CheckError(f"partition sums to 1{dev[worst]:+.3g} at x={xs[worst]!r}")


def check_verdict(products: dict[str, bytes]) -> None:
    """The audit passed every bound on a plan above the dilation threshold."""
    report = parse(products).report
    if report.get("all_passed") is not True or report.get("negative_control") is not False:
        raise CheckError(f"bound_report.json: all_passed={report.get('all_passed')!r}, "
                         f"negative_control={report.get('negative_control')!r}")


def check_job(products: dict[str, bytes], ext, seed: int) -> dict:
    """(a)-(c) on one job's products; returns the comparison counts."""
    p = parse(products)
    row = ext.jet.row(float(p.report["boundary"]["a"]))
    deep = check_boundary(p, row)
    fd = check_derivatives(p, ext, seed)
    check_partition(p, ext)
    return {"deep_steps": deep, "fd_comparisons": len(fd), "partition_points": len(p.samples)}


def digest(products: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in PRODUCTS:
        h.update(name.encode())
        h.update(products.get(name, b"<missing>"))
    return h.hexdigest()


def check_identical(reference: dict[str, bytes], products: dict[str, bytes]) -> None:
    """(d) against the first job of the run."""
    if digest(products) != digest(reference):
        changed = [n for n in PRODUCTS if products.get(n) != reference.get(n)]
        raise CheckError(f"a rerun with the same seed changed {changed}")


def _corrupt_derivative(products, ext, seed):
    p = parse(products)
    # The comparison with the tightest relative tolerance, off by 1e-3.
    x, a, _ = min(check_derivatives(p, ext, seed), key=lambda c: c[2])
    text = products["extension_samples.csv"].decode()
    lines = text.split("\n")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) == 3 and float(cells[0]) == x and int(cells[1]) == a:
            cells[2] = repr(float(cells[2]) * (1.0 + 1e-3))
            lines[i] = ",".join(cells)
            break
    return dict(products, **{"extension_samples.csv": "\n".join(lines).encode()})


def _swap_boundary_rows(products):
    lines = products["boundary_limits.csv"].split(b"\n")
    mid = len(lines) // 2
    lines[mid], lines[mid + 1] = lines[mid + 1], lines[mid]
    return dict(products, **{"boundary_limits.csv": b"\n".join(lines)})


def _fail_verdict(products):
    report = json.loads(products["bound_report.json"])
    report["all_passed"] = False
    return dict(products, **{"bound_report.json": json.dumps(report).encode()})


def _change_byte(products):
    data = bytearray(products["extension_samples.csv"])
    i = len(data) // 2
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    return dict(products, **{"extension_samples.csv": bytes(data)})


def self_test(products: dict[str, bytes], ext, seed: int) -> list[str]:
    """Corrupt a good product four ways; returns the corruptions that passed."""
    cases = (
        ("perturbed derivative value", lambda: check_job(
            _corrupt_derivative(products, ext, seed), ext, seed)),
        ("swapped boundary row", lambda: check_job(
            _swap_boundary_rows(products), ext, seed)),
        ("failed verdict", lambda: check_verdict(_fail_verdict(products))),
        ("changed byte", lambda: check_identical(products, _change_byte(products))),
    )
    missed = []
    for name, run in cases:
        try:
            run()
        except CheckError:
            continue
        missed.append(name)
    return missed
