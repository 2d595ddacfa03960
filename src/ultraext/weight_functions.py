"""Weight functions on the half line, Young conjugation, and the smoothing
transform kappa(t) = integral over u >= 1 of w(t*u)/u^2.

A weight here is continuous, nondecreasing, and normalized so that w(1) = 0
and w(0) = 0 after subtracting the raw value at 1; x -> w(e^x) is convex and
log t = O(w(t)).  Every family evaluates through `log_raw`, the logarithm of
the raw weight as a function of x = log t.  That form stays well scaled for
exponents far outside floating-point range of t itself, which is exactly
what the tail of the kappa quadrature visits.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from ._fitting import BOUNDED, GROWING, INCONCLUSIVE, bound_constant, check_growth_tol, decade_trend
from .errors import BracketFailure, ConfigError, DivergentTail, InconclusiveTrend
from .errors import json_number, json_numbers, json_object

# log of the value of t/(log t)^2 at its stationary point t = e^2; the
# family is held constant below that point so the log-composition stays
# convex after normalization.
_LOG_PLATEAU = 2.0 - 2.0 * math.log(2.0)

_VALIDATION_X = np.linspace(-3.0, 28.0, 125)


class WeightFunction:
    """Evaluable weight with a raw branch and a clamped normalized branch.

    `raw` keeps the family's natural values; calling the object subtracts
    raw(1) and clamps at zero.  `phi(x)` is the normalized weight at e^x.
    """

    __slots__ = ("family", "parameters", "offset", "_fn")

    def __init__(
        self,
        family: str,
        parameters: dict,
        log_raw_fn: Callable[[np.ndarray], np.ndarray],
    ):
        self.family = family
        self.parameters = dict(parameters)
        self._fn = log_raw_fn
        self.offset = float(np.exp(self._fn(np.zeros(1))[0]))
        _validate_axioms(self)

    # -- constructors --------------------------------------------------

    @classmethod
    def power(cls, exponent: float, scale: float = 1.0) -> "WeightFunction":
        """w(t) = scale * t^exponent with 0 < exponent < 1."""
        if not 0.0 < exponent < 1.0:
            raise ValueError(f"power exponent must lie in (0, 1), got {exponent}")
        if not scale > 0.0:
            raise ValueError(f"power scale must be positive, got {scale}")
        ls = math.log(scale)

        def fn(x: np.ndarray) -> np.ndarray:
            return ls + exponent * x

        return cls("power", {"exponent": float(exponent), "scale": float(scale)}, fn)

    @classmethod
    def linear(cls) -> "WeightFunction":
        """w(t) = t; the quasianalytic control case."""
        return cls("linear", {}, lambda x: np.asarray(x, dtype=float) + 0.0)

    @classmethod
    def log_power(cls, power: float) -> "WeightFunction":
        """w(t) = max(0, log t)^power with power >= 1."""
        if not power >= 1.0:
            raise ValueError(f"log power must be >= 1 for convexity, got {power}")

        def fn(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = power * np.log(np.maximum(x, 0.0))
            return np.where(x > 0.0, out, -np.inf)

        return cls("log_power", {"power": float(power)}, fn)

    @classmethod
    def linear_over_log_squared(cls) -> "WeightFunction":
        """w(t) = t/(log t)^2 above e^2, held at its minimum e^2/4 below.

        The constant continuation keeps x -> w(e^x) convex once the
        normalization clamps the plateau to zero.
        """

        def fn(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            safe = np.maximum(x, 2.0)
            return np.where(x >= 2.0, x - 2.0 * np.log(safe), _LOG_PLATEAU)

        return cls("linear_over_log_squared", {}, fn)

    @classmethod
    def tabulated(cls, log_t_knots, log_w_knots) -> "WeightFunction":
        """Piecewise log-log linear weight; slopes must be nondecreasing.

        Extended beyond the table with the first/last slope.
        """
        xs = np.asarray(log_t_knots, dtype=float)
        ys = np.asarray(log_w_knots, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("need matching 1-d knot arrays of length >= 2")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("tabulated knots must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("log-abscissa knots must be strictly increasing")
        slopes = np.diff(ys) / np.diff(xs)
        if np.any(np.diff(slopes) < -1e-12):
            raise ValueError("tabulated slopes must be nondecreasing")
        if slopes[-1] <= 0.0:
            raise ValueError("final tabulated slope must be positive")
        s_lo, s_hi = float(slopes[0]), float(slopes[-1])

        def fn(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            base = np.interp(x, xs, ys)
            base = np.where(x < xs[0], ys[0] + s_lo * (x - xs[0]), base)
            base = np.where(x > xs[-1], ys[-1] + s_hi * (x - xs[-1]), base)
            return base

        params = {"log_t_knots": xs.tolist(), "log_w_knots": ys.tolist()}
        return cls("tabulated", params, fn)

    @classmethod
    def kappa_of(cls, inner: "WeightFunction", rtol: float = 1e-8) -> "WeightFunction":
        """The smoothing transform of another weight, as a weight itself.

        Raises DivergentTail at construction when the inner weight is
        quasianalytic.
        """

        def fn(x: np.ndarray) -> np.ndarray:
            return _log_kappa_grid(inner.log_raw, x, rtol=rtol)

        params = {"inner": inner, "rtol": float(rtol)}
        return cls("kappa_of", params, fn)

    # -- evaluation ----------------------------------------------------

    def log_raw(self, x) -> np.ndarray:
        """log of the raw weight at t = e^x; -inf where the weight vanishes."""
        return self._fn(np.asarray(x, dtype=float))

    def raw(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < 0.0):
            raise ValueError("weights are defined for t >= 0")
        out = np.zeros_like(arr)
        pos = arr > 0.0
        with np.errstate(over="ignore"):
            out[pos] = np.exp(self.log_raw(np.log(arr[pos])))
        return float(out[0]) if scalar else out

    def __call__(self, t):
        r = self.raw(t)
        return np.maximum(0.0, r - self.offset) if isinstance(r, np.ndarray) else max(0.0, r - self.offset)

    def phi(self, x):
        """Normalized weight at e^x, defined for every real x."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        with np.errstate(over="ignore"):
            vals = np.maximum(0.0, np.exp(self.log_raw(np.atleast_1d(arr))) - self.offset)
        return float(vals[0]) if scalar else vals

    def __repr__(self) -> str:
        keys = {k: v for k, v in self.parameters.items() if not isinstance(v, WeightFunction)}
        return f"WeightFunction({self.family}, {keys})"


def _validate_axioms(w: WeightFunction) -> None:
    """Sampled axiom check: nondecreasing, convex log-composition, log t = O(w)."""
    with np.errstate(over="ignore"):
        vals = np.exp(w.log_raw(_VALIDATION_X))
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{w.family}: raw weight overflows on the test range")
    scale = 1.0 + np.abs(vals[1:])
    if np.any(np.diff(vals) < -1e-9 * scale):
        raise ValueError(f"{w.family}: weight is not nondecreasing")
    if not 0.0 <= w.offset < math.inf:
        raise ValueError(f"{w.family}: raw value at t = 1 must be finite")
    p = np.maximum(0.0, vals - w.offset)
    mid_excess = p[1:-1] - 0.5 * (p[:-2] + p[2:])
    if np.any(mid_excess > 1e-9 * (1.0 + p[2:])):
        raise ValueError(f"{w.family}: log-composition fails the midpoint convexity test")
    tail = _VALIDATION_X >= 15.0
    if np.max(p[tail] / _VALIDATION_X[tail]) < 1e-6:
        raise ValueError(f"{w.family}: weight does not dominate log t on the test range")


# -- kappa transform ----------------------------------------------------

_SIMPSON_SUB = 64
_SIMPSON_W = np.ones(_SIMPSON_SUB + 1)
_SIMPSON_W[1:-1:2] = 4.0
_SIMPSON_W[2:-1:2] = 2.0
_SIMPSON_W /= 3.0
# Doubling panels before the tail must pass its Cauchy test.
_MAX_PANELS = 64


def _log_kappa_grid(
    log_raw_fn: Callable[[np.ndarray], np.ndarray],
    log_t,
    rtol: float = 1e-8,
) -> np.ndarray:
    """log kappa(e^a) for an array of exponents a, by panel quadrature.

    Substituting u = e^v turns the transform into the integral over v >= 0
    of w_raw(e^(a+v)) e^(-v).  Panels [0,1], [1,2], [2,4], ... are summed
    by composite Simpson; geometric panel growth makes the increment ratio
    converge for both exponential and power-law tails, so the geometric
    tail extrapolation below is asymptotically exact for either.  The
    truncated integrand value itself is a rigorous lower bound for the
    tail (the weight is nondecreasing) and is folded in as a floor.

    Batching contract: every step is per row (panel sums are row sums,
    not a matrix product whose rounding can depend on the row count), so
    each entry is bitwise what a call with that entry alone returns.
    """
    if not 0.0 < rtol < 1.0:
        raise ValueError("rtol must lie in (0, 1)")
    a = np.asarray(log_t, dtype=float)
    shape = a.shape
    a = np.ravel(a)
    n = a.shape[0]
    shift = np.zeros(n)
    partial = np.zeros(n)
    inc_prev = np.zeros(n)
    tail = np.zeros(n)
    active = np.ones(n, dtype=bool)
    lo, hi = 0.0, 1.0
    for m in range(_MAX_PANELS):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        v = np.linspace(lo, hi, _SIMPSON_SUB + 1)
        g_log = log_raw_fn(a[idx][:, None] + v[None, :]) - v[None, :]
        if m == 0:
            s = np.max(g_log, axis=1)
            shift[idx] = np.where(np.isfinite(s), s, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.exp(g_log - shift[idx][:, None])
        inc = (hi - lo) / _SIMPSON_SUB * (g * _SIMPSON_W).sum(axis=1)
        partial[idx] += inc
        if m >= 1:
            done = (inc <= rtol * partial[idx]) & (inc <= inc_prev[idx])
            # Zero increments on a zero sum are no convergence: the weight
            # may vanish on the first panels (log_power below t = 1).
            done &= np.isfinite(partial[idx]) & (partial[idx] > 0.0)
            if np.any(done):
                di = idx[done]
                with np.errstate(divide="ignore", invalid="ignore"):
                    r = np.where(inc_prev[di] > 0.0, inc[done] / inc_prev[di], 0.0)
                r = np.minimum(r, 0.999)
                geo = inc[done] * r / (1.0 - r)
                tail[di] = np.maximum(geo, g[done, -1])
                active[di] = False
        inc_prev[idx] = inc
        lo, hi = hi, 2.0 * hi
    if np.any(active) or not np.all(np.isfinite(partial)):
        bad = np.nonzero(active | ~np.isfinite(partial))[0][0]
        raise DivergentTail(
            f"tail of the smoothing integral fails the Cauchy test after "
            f"{_MAX_PANELS} doubling panels at log t = {a[bad]:.6g}"
        )
    return np.reshape(shift + np.log(partial + tail), shape)


def kappa_transform_grid(w: WeightFunction, t_values, rtol: float = 1e-8) -> np.ndarray:
    """kappa(t) at each t, the average of w along dilations; always >= w_raw(t).

    Computed on the raw branch, so closed forms like kappa = t^a/(1-a)
    for w = t^a hold without normalization offsets.  Each entry is
    bitwise the result of a call with that t alone.
    """
    ts = np.asarray(t_values, dtype=float)
    if np.any(ts <= 0.0) or not np.all(np.isfinite(ts)):
        raise ValueError("kappa transform requires finite t > 0")
    return np.exp(_log_kappa_grid(w.log_raw, np.log(ts), rtol=rtol))


# -- Young conjugate ----------------------------------------------------

# The doubling bracket gives up past this x; a fixed number of ternary
# steps then narrows it.
CONJUGATE_MAX_EXPONENT = 512.0
_TERNARY_STEPS = 100


def young_conjugate_grid(w: WeightFunction, y_values) -> np.ndarray:
    """sup over x >= 0 of x*y - phi(x) for each y, phi the normalized log-composition.

    Ternary search (_TERNARY_STEPS steps) on the concave objective after
    a doubling bracket.  Raises BracketFailure when the objective is
    still rising at x = CONJUGATE_MAX_EXPONENT (512), which is a genuine
    infinite conjugate for weights with linearly growing phi; the
    message names the first such y in C order.

    Batching contract: y_values may have any shape, and each entry's
    search runs on its own.  The bracket evaluates hi and hi/2, and each
    ternary step m1 and m2, in one phi call over all entries; for a phi
    that is elementwise (every family, kappa_of included) each result
    is bitwise the one a call with that entry alone gives.
    """
    ys = np.asarray(y_values, dtype=float)
    shape = ys.shape
    ys = np.ravel(ys)
    if np.any(ys < 0.0) or not np.all(np.isfinite(ys)):
        raise ValueError("conjugate arguments must be finite and nonnegative")
    yy = np.concatenate((ys, ys))

    def obj_pair(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.concatenate((x1, x2))
        f = x * yy - w.phi(x)
        return f[: ys.size], f[ys.size :]

    hi = np.ones_like(ys)
    for _ in range(64):
        f_hi, f_half = obj_pair(hi, 0.5 * hi)
        rising = f_hi - f_half > 1e-15 * (1.0 + np.abs(f_hi))
        rising &= hi <= CONJUGATE_MAX_EXPONENT
        if not np.any(rising):
            break
        hi = np.where(rising, 2.0 * hi, hi)
    else:
        f_hi, f_half = obj_pair(hi, 0.5 * hi)
    still = (hi > CONJUGATE_MAX_EXPONENT) & (f_hi - f_half > 0.0)
    if np.any(still):
        y_bad = float(ys[np.nonzero(still)[0][0]])
        raise BracketFailure(
            f"conjugate maximizer exceeds x = {CONJUGATE_MAX_EXPONENT} at y = {y_bad:.6g}"
        )
    lo = np.zeros_like(ys)
    for _ in range(_TERNARY_STEPS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = obj_pair(m1, m2)
        left_lower = f1 < f2
        lo = np.where(left_lower, m1, lo)
        hi = np.where(left_lower, hi, m2)
    mid = 0.5 * (lo + hi)
    val = np.maximum(0.0, mid * ys - w.phi(mid))
    return np.reshape(val, shape)


# -- classification -----------------------------------------------------


def geometric_grid(t_min: float = 1.0, t_max: float = 1e8, per_decade: int = 10) -> np.ndarray:
    if not 0.0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    decades = math.log10(t_max / t_min)
    return np.geomspace(t_min, t_max, int(round(per_decade * decades)) + 1)


class WeightClassification(NamedTuple):
    """Grid-decided asymptotic flags with fitted constants and witnesses.

    A None flag means the test was skipped (recorded in witnesses), not
    that it failed.
    """

    nonquasianalytic: bool
    little_o_of_t: bool
    strong: bool | None
    concave_equivalent: bool | None
    constants: dict
    witnesses: dict

    def as_dict(self) -> dict:
        return {
            **self._asdict(),
            "constants": dict(self.constants),
            "witnesses": {k: list(v) if isinstance(v, np.ndarray) else v for k, v in self.witnesses.items()},
        }


def classify(
    w: WeightFunction,
    t_grid=None,
    growth_tol: float = 1.05,
    little_o_eps: float = 0.05,
    rtol: float = 1e-8,
) -> WeightClassification:
    """Decide integrability, sublinearity, strongness, and dilation concavity.

    All verdicts are finite-grid fits with a last-two-decades trend rule;
    a non-monotone growing trend raises InconclusiveTrend instead of
    guessing.  Computed on the raw branch throughout, which changes
    nothing: every property tested is invariant under the additive
    normalization.
    """
    check_growth_tol(growth_tol)
    if not (math.isfinite(little_o_eps) and little_o_eps > 0.0):
        raise ValueError(f"little-o threshold must be finite and positive, got {little_o_eps}")
    grid = geometric_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 13:
        raise ValueError("classification grid must be 1-d with enough samples")
    if math.log10(grid[-1] / grid[0]) < 6.0 - 1e-9:
        raise ValueError("classification grid must span at least six decades")
    raw_vals = w.raw(grid)
    constants: dict = {}
    witnesses: dict = {}

    ratio_t = raw_vals / grid
    window = grid >= grid[-1] / 100.0
    wr = ratio_t[window]
    little_o = bool(wr[-1] < little_o_eps and np.all(np.diff(wr) <= 1e-9 * (1.0 + wr[:-1])))
    constants["little_o_top_ratio"] = float(wr[-1])

    try:
        kappa_at_one = float(np.exp(_log_kappa_grid(w.log_raw, np.zeros(1), rtol=rtol)[0]))
        nonqa = True
        constants["kappa_at_one"] = kappa_at_one
    except DivergentTail as err:
        nonqa = False
        witnesses["nonquasianalytic_failure"] = str(err)

    if not nonqa:
        strong: bool | None = None
        witnesses["strong_skipped"] = "smoothing transform diverges; strongness undefined"
    else:
        kappa_vals = np.exp(_log_kappa_grid(w.log_raw, np.log(grid), rtol=rtol))
        fit_ratio = kappa_vals / (raw_vals + 1.0)
        pure_ratio = kappa_vals / np.maximum(raw_vals, np.finfo(float).tiny)
        verdict, growth = decade_trend(grid, fit_ratio, growth_tol=growth_tol)
        if verdict == INCONCLUSIVE:
            raise InconclusiveTrend(
                f"kappa/weight ratio is non-monotone at the grid top (growth {growth:.4g})"
            )
        strong = verdict == BOUNDED
        constants["strong_constant"] = float(np.max(fit_ratio))
        constants["strong_growth"] = growth
        witnesses["strong_ratio_abscissae"] = grid[window]
        witnesses["strong_ratio_values"] = pure_ratio[window]

    lam = 2.0 ** np.arange(1, 11)
    mask = raw_vals > 1e-300
    tg = grid[mask]
    dilated = w.raw(np.outer(lam, tg))
    dil_ratio = np.max(dilated / (lam[:, None] * raw_vals[mask][None, :]), axis=0)
    verdict, growth = decade_trend(tg, dil_ratio, growth_tol=growth_tol)
    if verdict == INCONCLUSIVE:
        raise InconclusiveTrend(
            f"dilation ratio is non-monotone at the grid top (growth {growth:.4g})"
        )
    concave_equivalent = verdict == BOUNDED
    constants["concave_constant"] = float(np.max(dil_ratio))
    constants["concave_t0"] = float(tg[0])
    if not concave_equivalent:
        j = int(np.argmax(dil_ratio))
        witnesses["concave_violation_t"] = float(tg[j])
        witnesses["concave_violation_ratio"] = float(dil_ratio[j])

    return WeightClassification(
        nonquasianalytic=nonqa,
        little_o_of_t=little_o,
        strong=strong,
        concave_equivalent=concave_equivalent,
        constants=constants,
        witnesses=witnesses,
    )


class EquivalenceResult(NamedTuple):
    equivalent: bool
    constant: float | None
    witnesses: dict


def equivalent(w1: WeightFunction, w2: WeightFunction, t_grid=None, growth_tol: float = 1.05) -> EquivalenceResult:
    """Mutual O-domination of two weights on a geometric grid.

    Fits C with w1 <= C*(w2 + 1) and symmetrically; a growing monotone
    ratio trend refutes equivalence, a non-monotone one raises
    InconclusiveTrend.
    """
    grid = geometric_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    r1 = w1.raw(grid)
    r2 = w2.raw(grid)
    witnesses: dict = {}
    for name, num, den in (("forward", r1, r2), ("backward", r2, r1)):
        ratio = num / (den + 1.0)
        verdict, growth = decade_trend(grid, ratio, growth_tol=growth_tol)
        witnesses[f"{name}_growth"] = growth
        if verdict == INCONCLUSIVE:
            raise InconclusiveTrend(
                f"{name} ratio is non-monotone at the grid top (growth {growth:.4g})"
            )
        if verdict == GROWING:
            j = int(np.argmax(ratio))
            witnesses["diverging_direction"] = name
            witnesses["diverging_abscissa"] = float(grid[j])
            witnesses["diverging_ratio"] = float(ratio[j])
            return EquivalenceResult(False, None, witnesses)
    c = max(bound_constant(r1, r2), bound_constant(r2, r1))
    return EquivalenceResult(True, c, witnesses)


# -- serialization ------------------------------------------------------


def weight_to_json(w: WeightFunction) -> dict:
    params = {}
    for k, v in w.parameters.items():
        params[k] = weight_to_json(v) if isinstance(v, WeightFunction) else v
    return {"family": w.family, "parameters": params, "normalization": w.offset}


# Each family's JSON parameters, with whether each one is required.  A
# family is built by the WeightFunction constructor of its name, with
# the parameters as keyword arguments.
_JSON_PARAMETERS = {
    "power": {"exponent": True, "scale": False},
    "linear": {},
    "log_power": {"power": True},
    "linear_over_log_squared": {},
    "tabulated": {"log_t_knots": True, "log_w_knots": True},
    "kappa_of": {"inner": True, "rtol": False},
}


def weight_from_json(doc: dict, where: str = "weight") -> WeightFunction:
    """Weight from its JSON form, read strictly; ConfigError names the bad key.

    The keys are family, parameters and normalization.  A family takes
    the parameters _JSON_PARAMETERS lists and needs its required ones.
    Values are JSON numbers (knots are lists of them), never booleans or
    strings, and kappa_of's inner weight is read by the same rules.
    normalization may be left out; if given, it must equal the built
    weight's offset, the value weight_to_json writes.
    """
    json_object(doc, where, ("family",), ("parameters", "normalization"))
    family = doc["family"]
    if not isinstance(family, str) or family not in _JSON_PARAMETERS:
        raise ConfigError(f"{where}.family: unknown weight family {family!r}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}.parameters must be an object")
    spec = _JSON_PARAMETERS[family]
    unknown = sorted(set(params) - set(spec))
    missing = [k for k, required in spec.items() if required and k not in params]
    if unknown or missing:
        raise ConfigError(
            f"{where}.parameters of a {family} weight: unknown {unknown}, missing {missing}"
        )
    args = {}
    for key, value in params.items():
        at = f"{where}.parameters.{key}"
        if key == "inner":
            args[key] = weight_from_json(value, at)
        elif key.endswith("_knots"):
            args[key] = json_numbers(value, at)
        else:
            args[key] = json_number(value, at)
    w = getattr(WeightFunction, family)(**args)
    if "normalization" in doc:
        norm = json_number(doc["normalization"], f"{where}.normalization")
        if norm != w.offset:
            raise ConfigError(
                f"{where}.normalization is {norm!r}, but the weight's raw value at"
                f" t = 1 is {w.offset!r}"
            )
    return w
