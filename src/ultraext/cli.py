"""Command line front end.

One job per invocation: a JSON config names the inputs, a handful of
flags override the common knobs, and every product is written to the
output directory in one pass at the end of the run.  Nothing is written
when the config or the computation fails, and products are first written
to temporary siblings that replace the old files only once every write
has succeeded, so a failed write leaves the old products untouched.  The
replacements are one os.replace per file: a failure between two of them
can leave a mix of new and old products.

_SCHEMA, the one table of config keys, gives each key's reader (which
holds the key's floor) and default.  _load_config reads the config
through it with the flags applied, so config, weight, sets, jet file and
plan file are all checked before any work, and so are the rules between
the xi grid, k and the jet that the matrices must meet; a wrong kind or a
broken floor or rule is a ConfigError naming the dotted key.

Exit codes: 0 on success, 2 when a verdict is inconclusive or a
negative control was requested and confirmed, 1 on any error.

`main` leaves the interpreter as it found it, so tests and library
callers may run it in-process; `console_main` is the process entry point.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, InconclusiveTrend, UltraextError
from .errors import json_components, json_integer, json_number, json_numbers, json_object, json_rows
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
    partnered,
    sandwich_fit,
    sandwich_xi,
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
    verify_eq14,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

# The default of a key the config must give.
_REQUIRED = object()


class _Number(NamedTuple):
    """Reader of a config number; with count=True, of an integral one.

    The value must be at least `least`, greater than `above` and less
    than `below`, where given: the key's README Floor, which NaN breaks.
    `words` states the floor in the error instead.
    """

    count: bool = False
    least: float | None = None
    above: float | None = None
    below: float | None = None
    words: str | None = None

    def __call__(self, value, where: str):
        x = (json_integer if self.count else json_number)(value, where)
        if self.least is not None and not x >= self.least:
            broken = f"at least {self.least:g}"
        elif self.above is not None and not x > self.above:
            broken = f"greater than {self.above:g}"
        elif self.below is not None and not x < self.below:
            broken = f"less than {self.below:g}"
        else:
            return x
        raise ConfigError(f"{where} must be {self.words or broken}, got {x}")


class _Numbers(NamedTuple):
    """Reader of a nonempty config list of numbers, each read by entry."""

    entry: _Number

    def __call__(self, value, where: str) -> list[float]:
        return [self.entry(x, f"{where} entry") for x in json_numbers(value, where, nonempty=True)]


class _Object(NamedTuple):
    """Reader of a config object: each key's (reader, default), then build.

    A key left out takes its default, read like a given value; a None
    default stays None (the value depends on other keys or on the run)
    and a _REQUIRED key must be given.  build(values, doc, where), where
    given, makes the object's value and checks rules between keys.
    """

    keys: dict
    build: Callable | None = None

    def __call__(self, doc, where: str):
        json_object(doc, where, optional=self.keys)
        values = {}
        for key, (read, default) in self.keys.items():
            at = f"{where}.{key}"
            if key in doc:
                values[key] = read(doc[key], at)
            elif default is _REQUIRED:
                raise ConfigError(f"{at} is required")
            else:
                values[key] = None if default is None else read(default, at)
        return values if self.build is None else self.build(values, doc, where)


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _pairs(value, where: str) -> list[list[float]]:
    return [json_numbers(pair, where) for pair in json_rows(value, where, 2)]


def _file_of(parse):
    """Reader of a file path string: parse of the JSON document in the file."""

    def read(value, where: str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a file path string")
        return parse(json.loads(Path(value).read_text()))

    return read


def _build_set(values: dict, doc: dict, where: str) -> CompactSet1D:
    entries = [(f"{where}.points", (p, p)) for p in values["points"]]
    entries += [(f"{where}.intervals", pair) for pair in values["intervals"]]
    if not entries:
        raise ConfigError(f"{where} needs 'points' or 'intervals'")
    return CompactSet1D(json_components(entries))


def _check_jet(values: dict, doc: dict, where: str) -> dict:
    """The jet block, once its kind is known and it holds what the kind needs."""
    kind = values["kind"]
    if kind not in ("file", "zero", "polynomial", "gevrey"):
        raise ConfigError(f"{where}.kind must be one of file, zero, polynomial, gevrey; got {kind!r}")
    if kind == "file" and values["path"] is None:
        raise ConfigError(f"{where}.path is required for kind 'file'")
    if kind != "file" and values["set"] is None:
        raise ConfigError(f"{where} needs a 'set' object unless kind is 'file'")
    if kind == "polynomial" and values["coefficients"] is None:
        raise ConfigError(f"{where}.coefficients is required for kind 'polynomial'")
    return values


def _check_grid(values: dict, doc: dict, where: str) -> dict:
    """The classify grid, once it spans six decades (t_max / t_min finite) in 13 points or more."""
    t_min, t_max = values["t_min"], values["t_max"]
    decades = math.log10(t_max / t_min) if t_max > t_min else -math.inf
    if not 6.0 - 1e-9 <= decades < math.inf:
        raise ConfigError(f"{where}.t_max / t_min must be finite and at least 1e6, got {t_max / t_min:g}")
    points = int(round(values["per_decade"] * decades)) + 1  # geometric_grid's count
    if points < 13:
        raise ConfigError(f"{where}.per_decade must give 13 grid points or more, got {points}")
    return values


def _check_plan(values: dict, doc: dict, where: str) -> dict:
    if "path" in doc and ("dilation" in doc or "folds" in doc):
        raise ConfigError(f"{where}.path excludes inline plan parameters")
    return values


def _check_xi(values: dict, doc: dict, where: str) -> dict:
    """The xi grid, once an entry has xi/b and b*xi on it too for a sandwich ratio b."""
    grid = values["xi"]
    if not any(sandwich_xi(grid).values()):
        raise ConfigError(f"{where}.xi needs an xi with xi/b and b*xi in the grid, b = 2 or 4; got {grid}")
    return values


def _check_extend(values: dict, doc: dict, where: str) -> dict:
    """The extend config, once grid, k and jet fit the interleaved matrix.

    Its rows are the xi with 2*xi on the grid, and its order is 2*k.
    """
    _check_xi(values, doc, where)
    grid, jet, order = values["xi"], values["jet"], 2 * values["k"]
    if not partnered(grid, 2.0):
        raise ConfigError(f"{where}.xi needs an xi with 2*xi in the grid; got {grid}")
    xi = 1.0 if jet["xi"] is None and jet["kind"] == "gevrey" else jet["xi"]
    if xi is not None and 2.0 * xi not in grid:
        raise ConfigError(f"{where}.jet.xi {xi:g} needs 2*xi = {2.0 * xi:g} in {where}.xi {grid}")
    file = jet["kind"] == "file"
    key, alpha_max = ("path", jet["path"].alpha_max) if file else ("alpha_max", jet["alpha_max"])
    if alpha_max > order:
        raise ConfigError(
            f"{where}.jet.{key}: jet order {alpha_max} exceeds 2*k = {order}, the matrix order"
        )
    return values


_SET = _Object({"points": (json_numbers, []), "intervals": (_pairs, [])}, _build_set)
_COMMON = {"command": (_text, None), "out": (_text, _REQUIRED)}
_MATRIX = {
    "weight": (weight_from_json, _REQUIRED),
    "k": (_Number(count=True, least=16), 64),
    "xi": (_Numbers(_Number(above=0, below=math.inf, words="finite and greater than 0")), list(DEFAULT_XI)),
}

# Each command's config keys, nested where the value is an object: the
# README's Key, Default and Floor columns, which a test compares.
_SCHEMA = {
    "classify": _Object({
        **_COMMON,
        "weight": (weight_from_json, _REQUIRED),
        "grid": (_Object({
            "t_min": (_Number(above=0), 1.0),
            "t_max": (_Number(), 1e8),
            "per_decade": (_Number(count=True), 10),
        }, _check_grid), {}),
        "tolerances": (_Object({
            "growth_tol": (_Number(least=1), 1.05),
            "little_o_eps": (_Number(above=0), 0.05),
            "rtol": (_Number(above=0, below=1), 1e-8),
        }), {}),
    }),
    "matrix": _Object({**_COMMON, **_MATRIX}, _check_xi),
    "extend": _Object({
        **_COMMON,
        **_MATRIX,
        "seed": (_Number(count=True, least=0, words="a nonnegative integer"), 0),
        "jet": (_Object({
            "kind": (_text, _REQUIRED),
            "path": (_file_of(UltraJet.from_json), None),
            "set": (_SET, None),
            "alpha_max": (_Number(count=True, least=0), 32),
            "xi": (_Number(), None),
            "scale": (_Number(), 1.0),
            "coefficients": (_Numbers(_Number()), None),
        }, _check_jet), _REQUIRED),
        "plan": (_Object({
            "path": (_file_of(ExtensionPlan.from_json), None),
            "dilation": (_Number(above=0), None),
            "folds": (_Number(count=True, least=1), 8),
        }, _check_plan), {}),
        "run": (_Object({
            "samples": (_Number(count=True, least=1), 240),
            "csv_samples": (_Number(count=True, least=1), 40),
            "alpha_cap": (_Number(count=True, least=0), 8),
            "r_cov": (_Number(above=0), 1.0),
            "max_generation": (_Number(count=True, least=0), MAX_GENERATION),
            "boundary_base": (_Number(), None),
            "boundary_max_index": (_Number(count=True, least=0), 40),
        }), {}),
    }, _check_extend),
    "cover-dump": _Object({
        **_COMMON,
        "set": (_SET, _REQUIRED),
        "cover": (_Object({
            "r_cov": (_Number(above=0), 1.0),
            "expansion": (_Number(above=1, below=2), EXPANSION),
            "max_generation": (_Number(count=True, least=0), 48),
            "check_points": (_Number(count=True, least=1), 4096),
        }), {}),
    }),
}


def _dump_json(doc: dict) -> str:
    """A product's JSON text; every value in doc is a plain Python one."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_line(row) -> str:
    """One CSV line of Python floats, ints and bools, as csv.writer writes it.

    Each cell is the value's repr, which is the text csv.writer writes for
    those types; no such repr holds a comma, quote or newline, so no field
    is quoted.
    """
    return ",".join(map(repr, row))


def _trace_lines(xs: np.ndarray, derivs: np.ndarray) -> list[str]:
    """The _csv_line of each (xs[i], alpha, derivs[i, alpha]).

    Each x heads one line per order alpha, so it is rendered once per
    point rather than once per line.
    """
    heads = [f",{a}," for a in range(derivs.shape[1])]
    lines = []
    for x, row in zip(xs.tolist(), derivs.tolist()):
        rx = repr(x)
        lines += [rx + head + repr(v) for head, v in zip(heads, row)]
    return lines


def _csv_text(header, lines) -> str:
    """CSV text: the header line, then the given lines, each newline-terminated."""
    return "\n".join([",".join(header), *lines, ""])


# -- commands -----------------------------------------------------------


def cmd_classify(cfg: dict):
    """Asymptotic classification of a weight plus the transform trace."""
    w, grid, tol = cfg["weight"], cfg["grid"], cfg["tolerances"]

    ts = geometric_grid(grid["t_min"], grid["t_max"], grid["per_decade"])
    code = EXIT_OK
    try:
        result = classify(w, ts, **tol).as_dict()
    except InconclusiveTrend as err:
        result = {"inconclusive": str(err)}
        code = EXIT_INCONCLUSIVE

    kappa = kappa_transform_grid(w, ts, rtol=tol["rtol"])
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.asarray(w.raw(ts), dtype=float)
        ratio = kappa / omega
    keep = np.isfinite(omega) & (omega > 0.0) & np.isfinite(kappa)
    cols = (col[keep].tolist() for col in (ts, omega, kappa, ratio))
    rows = [_csv_line(row) for row in zip(*cols)]

    report = {
        "command": "classify",
        "weight": weight_to_json(w),
        "grid": grid,
        "tolerances": tol,
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
    w, k_max, xi_grid = cfg["weight"], cfg["k"], cfg["xi"]

    mat = associated_matrix(w, xi_grid, k_max=k_max)
    reg = strong_regularization(mat)
    fit = sandwich_fit(mat, reg)
    inter = interleave_matrix(reg) if partnered(reg.xi_values, 2.0) else None

    doc = {
        "command": "matrix",
        "weight": weight_to_json(w),
        "k_max": k_max,
        "xi": xi_grid,
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


def _build_jet(jcfg: dict, inter) -> UltraJet:
    """The jet of the config's jet block; a gevrey jet takes rows of inter."""
    kind = jcfg["kind"]
    if kind == "file":
        return jcfg["path"]
    e, alpha_max = jcfg["set"], jcfg["alpha_max"]
    points = tuple(sorted(set(e.starts.tolist() + e.ends.tolist())))  # every endpoint, once
    if kind == "zero":
        return UltraJet(e, points, ((0.0,) * (alpha_max + 1),) * len(points))
    if kind == "polynomial":
        return polynomial_jet(e, points, jcfg["coefficients"], alpha_max)
    # gevrey: without jet.xi the jet is the row at 1.0, while the
    # certificate, which reads jet.xi too, tries every row.
    xi = 1.0 if jcfg["xi"] is None else jcfg["xi"]
    full = inter.full_log_row(xi)[: alpha_max + 1]
    row = tuple(jcfg["scale"] * float(v) for v in np.exp(full))
    return UltraJet(e, points, (row,) * len(points))


def cmd_extend(cfg: dict):
    """Full pipeline: certificate, plan, assembly, audit, boundary trace."""
    w, jcfg, pcfg, run, seed = (cfg[key] for key in ("weight", "jet", "plan", "run", "seed"))

    mat = associated_matrix(w, cfg["xi"], k_max=cfg["k"])
    reg = strong_regularization(mat)
    sandwich_fit(mat, reg)  # SandwichUnverifiable ends the job
    inter = interleave_matrix(reg)

    jet = _build_jet(jcfg, inter)
    cert = certify(jet, inter, xi=jcfg["xi"])
    plan = pcfg["path"]
    if plan is None:
        plan = make_plan(cert, reg, dilation=pcfg["dilation"], folds=pcfg["folds"])

    negative_control = not plan.meets_threshold
    ext = assemble(jet, reg, plan, r_cov=run["r_cov"], max_generation=run["max_generation"],
                   allow_degenerate=negative_control)
    report = verify_bounds(ext, samples=run["samples"], alpha_cap=run["alpha_cap"])

    # The descent runs along a + 2^-j, so the default base is the first
    # base point with nothing of the set just to its right.
    right_ends = {b for _, b in jet.e.components}
    default_base = next(
        (p for p in jet.base_points if p in right_ends), jet.base_points[0]
    )
    boundary_a = default_base if run["boundary_base"] is None else run["boundary_base"]
    bnd = boundary_limits(ext, report.alpha_cap, boundary_a, max_index=run["boundary_max_index"])

    # Jittered sample trace.  The jitter rescales the distance to the
    # nearest set point, keeping every sample inside the verified band;
    # the stdlib generator is seeded from the config so reruns are identical.
    xs = region_samples(ext, run["csv_samples"])
    d, nearest = distances_and_nearest(jet.e, xs)
    rng = random.Random(seed)
    factor = 1.0 + 0.04 * (np.array([rng.random() for _ in range(xs.size)]) - 0.5)
    moved = (ext.cover.d_min_covered <= d * factor) & (d * factor < ext.d_max)
    xs = np.where(moved, nearest + (xs - nearest) * factor, xs)
    derivs = eval_derivative(ext, xs, np.arange(report.alpha_cap + 1))

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
        _csv_line((s.index, s.x, s.distance, s.decay) + s.errors) for s in bnd.steps
    ]
    err_names = tuple(f"e{a}" for a in range(bnd.alpha_cap + 1))
    files = {
        "bound_report.json": _dump_json(doc),
        "extension_samples.csv": _csv_text(
            ("x", "alpha", "derivative"), _trace_lines(xs, derivs)
        ),
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
    """A proportional cover of the set, its intervals and its checks."""
    e, ccfg = cfg["set"], cfg["cover"]
    r_cov, expansion, max_generation = ccfg["r_cov"], ccfg["expansion"], ccfg["max_generation"]

    cover = build_cover(e, r_cov, expansion=expansion, max_generation=max_generation)
    xs = covered_sample_grid(cover, ccfg["check_points"])
    eq14 = verify_eq14(cover, xs)

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
        "max_overlap": eq14.max_overlap,
    }
    rows = zip(cover.centers.tolist(), cover.sides.tolist(), cover.generations.tolist())
    files = {
        "cover.csv": _csv_text(("center", "side", "generation"), map(_csv_line, rows)),
        "cover_summary.json": _dump_json(summary),
    }
    code = EXIT_OK if eq14.ok else EXIT_INCONCLUSIVE
    line = (
        f"cover: intervals={len(cover.centers)} d_min={cover.d_min_covered:.3g} "
        f"distance check ok={eq14.ok} max overlap={summary['max_overlap']}"
    )
    return files, code, [line]


# Each command's job and its help line.
_COMMANDS = {
    "classify": (cmd_classify, "classify a weight function and trace its transform"),
    "matrix": (cmd_matrix, "materialize associated and regularized weight matrices"),
    "extend": (cmd_extend, "build an extension, audit its bounds, trace the boundary"),
    "cover-dump": (cmd_cover, "build a proportional cover and dump it as CSV"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraext",
        description="weight sequence calculus and constructive extension jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the job config JSON")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--k", type=int, default=None, help="matrix order override")
        p.add_argument("--xi", default=None, help="comma separated xi grid override")
        p.add_argument("--seed", type=int, default=None, help="sample jitter seed, a nonnegative integer")
    return parser


def _load_config(args) -> dict:
    """The config with the flags applied, read through _SCHEMA: every value typed, every default filled."""
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if "command" in doc and doc["command"] != args.command:
        raise ConfigError(
            f"config names command {doc['command']!r}, invoked as {args.command!r}"
        )
    doc = dict(doc)
    for flag, value in (("out", args.out), ("seed", args.seed), ("k", args.k), ("xi", args.xi)):
        if value is None:
            continue
        if flag not in _SCHEMA[args.command].keys:
            raise ConfigError(f"--{flag} does not apply to {args.command}")
        if flag == "xi":
            try:
                value = [float(p) for p in value.split(",")]
            except ValueError:
                raise ConfigError(f"could not parse --xi value {value!r}")
        doc[flag] = value
    return _SCHEMA[args.command](doc, "config")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        files, code, lines = _COMMANDS[args.command][0](cfg)
    except (UltraextError, OSError, ValueError, KeyError, TypeError) as err:
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


def console_main() -> int:
    """main() on sys.argv between two gc.freeze() calls.

    The first spares the job's collections the heap the imports left.
    Once main has returned, every product is written, closed and renamed
    into place; the second spares shutdown the final cyclic collections
    over module objects that the OS reclaims with the process anyway.
    atexit handlers and the flush of stdout and stderr still run.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
