"""Command line front end.

One job per invocation: a JSON config names the inputs, a handful of
flags override the common knobs, and every product is written to the
output directory in one pass at the end of the run.  Nothing is written
when the config or the computation fails, and products are first written
to temporary siblings that replace the old files only once every write
has succeeded, so a failed write leaves the old products untouched.  The
replacements are one os.replace per file: a failure between two of them
can leave a mix of new and old products.

The seed (config "seed" or --seed) is a nonnegative integer; `extend`
draws its sample-trace jitter from numpy's default generator stream
(PCG64 as seeded by numpy.random.default_rng), reproduced in-repo so the
job never imports numpy.random.

Exit codes: 0 on success, 2 when a verdict is inconclusive or a
negative control was requested and confirmed, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, InconclusiveTrend, UltraextError
from .extension_engine import (
    MAX_GENERATION,
    ExtensionPlan,
    assemble,
    boundary_limits,
    eval_derivative,
    make_plan,
    region_samples,
    verify_bounds,
)
from .matrix_calculus import (
    DEFAULT_XI,
    associated_matrix,
    interleave_matrix,
    sandwich_fit,
    strong_regularization,
)
from .ultrajets import UltraJet, certify, polynomial_jet
from .weight_functions import (
    classify,
    geometric_grid,
    kappa_transform_grid,
    weight_from_json,
    weight_to_json,
)
from .whitney_geometry import (
    EXPANSION,
    CompactSet1D,
    build_cover,
    covered_sample_grid,
    distances_and_nearest,
    overlap_counts,
    verify_eq14,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

_WEIGHT_KEYS = {"family": None, "parameters": None, "normalization": None}
_SET_KEYS = {"points": None, "intervals": None}

# Allowed keys per command, nested where the value is itself an object.
# Anything else in the config is rejected up front.
_SCHEMA = {
    "classify": {
        "command": None,
        "out": None,
        "seed": None,
        "weight": _WEIGHT_KEYS,
        "grid": {"t_min": None, "t_max": None, "per_decade": None},
        "tolerances": {"growth_tol": None, "little_o_eps": None, "rtol": None},
    },
    "matrix": {
        "command": None,
        "out": None,
        "seed": None,
        "weight": _WEIGHT_KEYS,
        "k": None,
        "xi": None,
    },
    "extend": {
        "command": None,
        "out": None,
        "seed": None,
        "weight": _WEIGHT_KEYS,
        "k": None,
        "xi": None,
        "jet": {
            "kind": None,
            "path": None,
            "set": _SET_KEYS,
            "alpha_max": None,
            "xi": None,
            "scale": None,
            "coefficients": None,
        },
        "plan": {"path": None, "dilation": None, "folds": None},
        "run": {
            "samples": None,
            "csv_samples": None,
            "alpha_cap": None,
            "r_cov": None,
            "max_generation": None,
            "boundary_base": None,
            "boundary_max_index": None,
        },
    },
    "cover-dump": {
        "command": None,
        "out": None,
        "seed": None,
        "set": _SET_KEYS,
        "cover": {
            "r_cov": None,
            "expansion": None,
            "max_generation": None,
            "check_points": None,
        },
    },
}


def _check_keys(doc: dict, schema: dict, where: str) -> None:
    for key, value in doc.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key {key!r} in {where}; allowed: {sorted(schema)}"
            )
        sub = schema[key]
        if sub is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{where}.{key} must be an object")
        _check_keys(value, sub, f"{where}.{key}")


def _number(cfg: dict, key: str, default, where: str = "config"):
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    return float(value)


def _integer(cfg: dict, key: str, default, where: str = "config") -> int:
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    return value


def _object(cfg: dict, key: str, where: str = "config") -> dict:
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.{key} must be an object")
    return value


def _require_weight(cfg: dict):
    if "weight" not in cfg:
        raise ConfigError("config needs a 'weight' object")
    return weight_from_json(_object(cfg, "weight"))


def _xi_list(cfg: dict) -> tuple[float, ...]:
    raw = cfg.get("xi", list(DEFAULT_XI))
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("config.xi must be a nonempty list of numbers")
    out = []
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError("config.xi must be a nonempty list of numbers")
        out.append(float(v))
    return tuple(out)


def _jsonify(obj):
    """Recursively strip numpy types so json.dumps accepts the document."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _dump_json(doc: dict) -> str:
    return json.dumps(_jsonify(doc), sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """CSV text of rows of Python floats, ints and bools, as csv.writer writes it.

    Each cell is the value's repr (one %r per header name), which is the
    text csv.writer writes for those types; no header name and no such
    repr holds a comma, quote or newline, so no field is quoted.
    """
    line = ",".join(["%r"] * len(header))
    return "\n".join([",".join(header)] + [line % tuple(row) for row in rows] + [""])


def _build_set(doc: dict, where: str) -> CompactSet1D:
    points = doc.get("points", [])
    intervals = doc.get("intervals", [])
    comps = [(float(p), float(p)) for p in points]
    for pair in intervals:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{where}.intervals entries must be [a, b] pairs")
        comps.append((float(pair[0]), float(pair[1])))
    if not comps:
        raise ConfigError(f"{where} needs 'points' or 'intervals'")
    comps.sort()
    return CompactSet1D(tuple(comps))


def _base_points(e: CompactSet1D) -> tuple[float, ...]:
    pts: list[float] = []
    for a, b in e.components:
        for p in (a, b):
            if not pts or pts[-1] != p:
                pts.append(p)
    return tuple(pts)


# -- commands -----------------------------------------------------------


def cmd_classify(cfg: dict):
    """Asymptotic classification of a weight plus the transform trace."""
    w = _require_weight(cfg)
    grid = _object(cfg, "grid")
    t_min = _number(grid, "t_min", 1.0, "config.grid")
    t_max = _number(grid, "t_max", 1e8, "config.grid")
    per_decade = _integer(grid, "per_decade", 10, "config.grid")
    tol = _object(cfg, "tolerances")
    growth_tol = _number(tol, "growth_tol", 1.05, "config.tolerances")
    little_o_eps = _number(tol, "little_o_eps", 0.05, "config.tolerances")
    rtol = _number(tol, "rtol", 1e-8, "config.tolerances")

    ts = geometric_grid(t_min, t_max, per_decade)
    code = EXIT_OK
    try:
        result = classify(
            w, ts, growth_tol=growth_tol, little_o_eps=little_o_eps, rtol=rtol
        ).as_dict()
    except InconclusiveTrend as err:
        result = {"inconclusive": str(err)}
        code = EXIT_INCONCLUSIVE

    kappa = kappa_transform_grid(w, ts, rtol=rtol)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.asarray(w.raw(ts), dtype=float)
        ratio = kappa / omega
    keep = np.isfinite(omega) & (omega > 0.0) & np.isfinite(kappa)
    rows = list(zip(*(col[keep].tolist() for col in (ts, omega, kappa, ratio))))

    report = {
        "command": "classify",
        "weight": weight_to_json(w),
        "grid": {"t_min": t_min, "t_max": t_max, "per_decade": per_decade},
        "tolerances": {
            "growth_tol": growth_tol,
            "little_o_eps": little_o_eps,
            "rtol": rtol,
        },
        "classification": result,
        "csv_rows": len(rows),
    }
    files = {
        "classification.json": _dump_json(report),
        "kappa_vs_omega.csv": _csv_text(("t", "omega", "kappa", "ratio"), rows),
    }
    if code == EXIT_OK:
        line = "classification: " + " ".join(
            f"{k}={result[k]}"
            for k in ("nonquasianalytic", "little_o_of_t", "strong")
        )
    else:
        line = f"classification inconclusive: {result['inconclusive']}"
    return files, code, [line]


def cmd_matrix(cfg: dict):
    """Associated, regularized, and interleaved matrices as one JSON file."""
    w = _require_weight(cfg)
    k_max = _integer(cfg, "k", 64)
    xi_grid = _xi_list(cfg)

    mat = associated_matrix(w, xi_grid, k_max=k_max)
    reg = strong_regularization(mat)
    fit = sandwich_fit(mat, reg)
    inter_xi = tuple(x for x in reg.xi_values if reg.has(2.0 * x))
    inter = interleave_matrix(reg, inter_xi) if inter_xi else None

    doc = {
        "command": "matrix",
        "weight": weight_to_json(w),
        "k_max": k_max,
        "xi": list(xi_grid),
        "associated": mat.to_json(),
        "regularized": reg.to_json(),
        "interleaved": inter.to_json() if inter is not None else None,
        "sandwich": {
            "index_ratio": fit.b,
            "lower_constant": fit.a_constant,
            "upper_constant": fit.c_constant,
            "per_xi": {repr(x): v for x, v in fit.per_xi.items()},
        },
    }
    files = {"matrix.json": _dump_json(doc)}
    line = (
        f"matrix: rows={len(xi_grid)} k={k_max} sandwich b={fit.b:g} "
        f"a={fit.a_constant:.6g} c={fit.c_constant:.6g}"
    )
    return files, EXIT_OK, [line]


def _build_jet(cfg: dict, inter):
    jcfg = _object(cfg, "jet")
    kind = jcfg.get("kind")
    if kind == "file":
        path = jcfg.get("path")
        if not isinstance(path, str):
            raise ConfigError("config.jet.path must be a file path string")
        return UltraJet.from_json(json.loads(Path(path).read_text()))

    if "set" not in jcfg:
        raise ConfigError("config.jet needs a 'set' object unless kind is 'file'")
    e = _build_set(_object(jcfg, "set", "config.jet"), "config.jet.set")
    points = _base_points(e)
    alpha_max = _integer(jcfg, "alpha_max", 32, "config.jet")
    if kind == "zero":
        return UltraJet(e, points, ((0.0,) * (alpha_max + 1),) * len(points))
    if kind == "polynomial":
        coeffs = jcfg.get("coefficients")
        if not isinstance(coeffs, (list, tuple)) or not coeffs:
            raise ConfigError("config.jet.coefficients must be a nonempty list")
        return polynomial_jet(e, points, [float(c) for c in coeffs], alpha_max)
    if kind == "gevrey":
        xi = _number(jcfg, "xi", 1.0, "config.jet")
        scale = _number(jcfg, "scale", 1.0, "config.jet")
        if not inter.has(xi):
            raise ConfigError(f"interleaved matrix has no row at xi={xi:g}")
        if alpha_max > inter.order:
            raise ConfigError(
                f"jet order {alpha_max} exceeds matrix order {inter.order}; raise k"
            )
        full = inter.full_log_row(xi)[: alpha_max + 1]
        row = tuple(scale * float(v) for v in np.exp(full))
        return UltraJet(e, points, (row,) * len(points))
    raise ConfigError(
        f"config.jet.kind must be one of file, zero, polynomial, gevrey; got {kind!r}"
    )


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, uint64): hashmix/mix over a 4-word pool."""
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    h = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = (h * 0x931E8875) & _MASK32
        value = (value * h) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = (h * 0x58F38DED) & _MASK32
        value = (value * h) & _MASK32
        out.append(value ^ (value >> 16))
    return [out[2 * i] | (out[2 * i + 1] << 32) for i in range(4)]


def _uniform_stream(seed: int):
    """numpy.random.default_rng(seed).uniform() draws, bit for bit, without numpy.random.

    PCG64 (128-bit LCG, XSL-RR output) seeded as numpy seeds it; each
    draw is the top 53 bits of one 64-bit output.
    """
    s = _pcg64_seed_words(seed)
    inc = ((((s[2] << 64) | s[3]) << 1) | 1) & _MASK128
    state = ((inc + ((s[0] << 64) | s[1])) * _PCG64_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG64_MULT + inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _MASK64
        yield (x >> 11) * 2.0**-53


def cmd_extend(cfg: dict):
    """Full pipeline: certificate, plan, assembly, audit, boundary trace."""
    w = _require_weight(cfg)
    k_max = _integer(cfg, "k", 64)
    xi_grid = _xi_list(cfg)
    run = _object(cfg, "run")
    samples = _integer(run, "samples", 240, "config.run")
    csv_samples = _integer(run, "csv_samples", 40, "config.run")
    alpha_cap = _integer(run, "alpha_cap", 8, "config.run")
    r_cov = _number(run, "r_cov", 1.0, "config.run")
    max_generation = _integer(run, "max_generation", MAX_GENERATION, "config.run")
    boundary_max = _integer(run, "boundary_max_index", 40, "config.run")
    seed = _integer(cfg, "seed", 0)
    for key, count in (("samples", samples), ("csv_samples", csv_samples)):
        if count < 1:
            raise ConfigError(f"config.run.{key} must be at least 1, got {count}")

    mat = associated_matrix(w, xi_grid, k_max=k_max)
    reg = strong_regularization(mat)
    inter_xi = tuple(x for x in reg.xi_values if reg.has(2.0 * x))
    if not inter_xi:
        raise ConfigError("no xi in the grid has a stored doubled row")
    inter = interleave_matrix(reg, inter_xi)

    jet = _build_jet(cfg, inter)
    jcfg = _object(cfg, "jet")
    cert_xi = jcfg.get("xi")
    cert = certify(jet, inter, xi=cert_xi)

    pcfg = _object(cfg, "plan")
    if "path" in pcfg:
        if "dilation" in pcfg or "folds" in pcfg:
            raise ConfigError("config.plan.path excludes inline plan parameters")
        plan = ExtensionPlan.from_json(json.loads(Path(pcfg["path"]).read_text()))
    else:
        dilation = pcfg.get("dilation")
        if dilation is not None:
            dilation = _number(pcfg, "dilation", None, "config.plan")
        folds = _integer(pcfg, "folds", 8, "config.plan")
        plan = make_plan(cert, reg, dilation=dilation, folds=folds)

    negative_control = not plan.meets_threshold
    ext = assemble(
        jet,
        reg,
        plan,
        r_cov=r_cov,
        max_generation=max_generation,
        allow_degenerate=negative_control,
    )
    report = verify_bounds(ext, samples=samples, alpha_cap=alpha_cap)

    # The descent runs along a + 2^-j, so the default base is the first
    # base point with nothing of the set just to its right.
    right_ends = {b for _, b in jet.e.components}
    default_base = next(
        (p for p in jet.base_points if p in right_ends), jet.base_points[0]
    )
    boundary_a = run.get("boundary_base", default_base)
    if isinstance(boundary_a, bool) or not isinstance(boundary_a, (int, float)):
        raise ConfigError("config.run.boundary_base must be a number")
    bnd = boundary_limits(
        ext, report.alpha_cap, float(boundary_a), max_index=boundary_max
    )

    # Jittered sample trace.  The jitter rescales the distance to the
    # nearest set point, keeping every sample inside the verified band;
    # the generator is seeded from the config so reruns are identical.
    xs = region_samples(ext, csv_samples)
    d, nearest = distances_and_nearest(jet.e, xs)
    factor = 1.0 + 0.04 * (np.fromiter(_uniform_stream(seed), float, xs.size) - 0.5)
    moved = (ext.cover.d_min_covered <= d * factor) & (d * factor < ext.d_max)
    xs = np.where(moved, nearest + (xs - nearest) * factor, xs)
    derivs = eval_derivative(ext, xs, np.arange(report.alpha_cap + 1)).tolist()
    sample_rows = [(x, a, v) for x, row in zip(xs.tolist(), derivs) for a, v in enumerate(row)]

    doc = report.to_json()
    doc.update(
        {
            "command": "extend",
            "seed": seed,
            "weight": weight_to_json(w),
            "negative_control": negative_control,
            "certificate": {
                "c": cert.c,
                "rho": cert.rho,
                "xi": cert.xi,
                "rate_trend": cert.rate_trend,
            },
            "boundary": bnd.to_json(),
        }
    )

    boundary_rows = [
        (s.index, s.x, s.distance, s.decay) + s.errors for s in bnd.steps
    ]
    err_names = tuple(f"e{a}" for a in range(bnd.alpha_cap + 1))
    files = {
        "bound_report.json": _dump_json(doc),
        "extension_samples.csv": _csv_text(("x", "alpha", "derivative"), sample_rows),
        "boundary_limits.csv": _csv_text(
            ("index", "x", "distance", "decay") + err_names, boundary_rows
        ),
    }

    code = EXIT_OK
    lines = [
        f"bound report: all_passed={report.all_passed} "
        f"M={report.fitted_m:.6g} M1={report.fitted_m1:.6g}",
        f"boundary: steps={len(bnd.steps)} floor={bnd.floor_reason!r}",
    ]
    if negative_control:
        lines.append(
            f"negative control: dilation {plan.dilation:g} is below "
            f"threshold {plan.constants.k2 * plan.rho:g}"
        )
        code = EXIT_INCONCLUSIVE
    elif not report.all_passed:
        lines.append("one or more displayed bounds failed; see bound_report.json")
        code = EXIT_INCONCLUSIVE
    return files, code, lines


def cmd_cover(cfg: dict):
    if "set" not in cfg:
        raise ConfigError("config needs a 'set' object")
    e = _build_set(_object(cfg, "set"), "config.set")
    ccfg = _object(cfg, "cover")
    r_cov = _number(ccfg, "r_cov", 1.0, "config.cover")
    expansion = _number(ccfg, "expansion", EXPANSION, "config.cover")
    max_generation = _integer(ccfg, "max_generation", 48, "config.cover")
    check_points = _integer(ccfg, "check_points", 4096, "config.cover")

    cover = build_cover(e, r_cov, expansion=expansion, max_generation=max_generation)
    xs = covered_sample_grid(cover, check_points)
    eq14 = verify_eq14(cover, xs)
    overlap = overlap_counts(cover, xs)

    summary = {
        "command": "cover-dump",
        "set": {"components": [list(c) for c in e.components]},
        "r_cov": r_cov,
        "expansion": expansion,
        "max_generation": max_generation,
        "intervals": len(cover.centers),
        "d_min_covered": cover.d_min_covered,
        "distance_check": {
            "ok": eq14.ok,
            "worst_lower": eq14.worst_lower,
            "worst_upper": eq14.worst_upper,
            "checked": eq14.checked,
            "violations": len(eq14.violations),
        },
        "max_overlap": int(overlap.max()) if len(overlap) else 0,
    }
    rows = zip(cover.centers.tolist(), cover.sides.tolist(), cover.generations.tolist())
    files = {
        "cover.csv": _csv_text(("center", "side", "generation"), rows),
        "cover_summary.json": _dump_json(summary),
    }
    code = EXIT_OK if eq14.ok else EXIT_INCONCLUSIVE
    line = (
        f"cover: intervals={len(cover.centers)} d_min={cover.d_min_covered:.3g} "
        f"distance check ok={eq14.ok} max overlap={summary['max_overlap']}"
    )
    return files, code, [line]


_COMMANDS = {
    "classify": cmd_classify,
    "matrix": cmd_matrix,
    "extend": cmd_extend,
    "cover-dump": cmd_cover,
}

# Flags that only make sense for commands taking a matrix grid.
_GRID_FLAG_COMMANDS = {"matrix", "extend"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraext",
        description="weight sequence calculus and constructive extension jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "classify": "classify a weight function and trace its transform",
        "matrix": "materialize associated and regularized weight matrices",
        "extend": "build an extension, audit its bounds, trace the boundary",
        "cover-dump": "build a proportional cover and dump it as CSV",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the job config JSON")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--k", type=int, default=None, help="matrix order override")
        p.add_argument("--xi", default=None, help="comma separated xi grid override")
        p.add_argument("--seed", type=int, default=None, help="sample jitter seed, a nonnegative integer")
    return parser


def _load_config(args) -> dict:
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if "command" in doc and doc["command"] != args.command:
        raise ConfigError(
            f"config names command {doc['command']!r}, invoked as {args.command!r}"
        )
    _check_keys(doc, _SCHEMA[args.command], "config")
    cfg = dict(doc)
    if args.out is not None:
        cfg["out"] = args.out
    if args.seed is not None:
        cfg["seed"] = args.seed
    for flag, value in (("k", args.k), ("xi", args.xi)):
        if value is None:
            continue
        if args.command not in _GRID_FLAG_COMMANDS:
            raise ConfigError(f"--{flag} does not apply to {args.command}")
        if flag == "xi":
            try:
                cfg["xi"] = [float(p) for p in value.split(",")]
            except ValueError:
                raise ConfigError(f"could not parse --xi value {value!r}")
        else:
            cfg["k"] = value
    if "out" not in cfg or not isinstance(cfg["out"], str):
        raise ConfigError("give an output directory via config 'out' or --out")
    if "seed" in cfg and _integer(cfg, "seed", 0) < 0:
        raise ConfigError("config.seed must be a nonnegative integer")
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        files, code, lines = _COMMANDS[args.command](cfg)
    except UltraextError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ERROR

    out = Path(cfg["out"])
    staged = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(files.items()):
            staged[out / name] = tmp = out / f".{name}.{os.getpid()}.tmp"
            tmp.write_text(text)
        for path, tmp in staged.items():
            os.replace(tmp, path)
    except OSError as err:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ERROR
    for path in staged:
        print(f"wrote {path}")
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
