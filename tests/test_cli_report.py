"""End-to-end checks of the command line jobs through main()."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ultraext import _fitting, cli, extension_engine, ultrajets
from ultraext.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    _csv_line,
    _csv_text,
    _trace_lines,
    main,
)
from ultraext.extension_engine import region_samples
from ultraext.whitney_geometry import distances_and_nearest
from _reference import matrix_from_json


def write_config(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


SQRT_WEIGHT = {"family": "power", "parameters": {"exponent": 0.5}}


def test_classify_square_root_is_strong(tmp_path):
    cfg = write_config(tmp_path, {"weight": SQRT_WEIGHT, "out": str(tmp_path / "out")})
    assert main(["classify", "--config", cfg]) == EXIT_OK
    doc = read_json(tmp_path / "out" / "classification.json")
    cls = doc["classification"]
    assert cls["strong"] is True
    assert cls["nonquasianalytic"] is True
    assert cls["little_o_of_t"] is True
    assert abs(cls["constants"]["strong_constant"] - 2.0) < 0.1
    header, rows = read_csv(tmp_path / "out" / "kappa_vs_omega.csv")
    assert header == ["t", "omega", "kappa", "ratio"]
    assert len(rows) == doc["csv_rows"] > 60


def test_classify_witness_ratio_tracks_log(tmp_path):
    # For t/(log t)^2 the transform gains a full log factor, so the ratio
    # column is the non-strongness witness: it should track log t closely
    # at the top of the grid.
    cfg = write_config(
        tmp_path,
        {
            "weight": {"family": "linear_over_log_squared", "parameters": {}},
            "out": str(tmp_path / "out"),
        },
    )
    assert main(["classify", "--config", cfg]) == EXIT_OK
    cls = read_json(tmp_path / "out" / "classification.json")["classification"]
    assert cls["strong"] is False
    assert "strong_ratio_values" in cls["witnesses"]
    header, rows = read_csv(tmp_path / "out" / "kappa_vs_omega.csv")
    tail = [(float(t), float(r)) for t, _, _, r in rows if float(t) >= 1e6]
    assert len(tail) >= 10
    for t, ratio in tail:
        assert ratio == pytest.approx(math.log(t), rel=0.10)


def test_classify_out_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path, {"weight": SQRT_WEIGHT, "out": str(tmp_path / "ignored")}
    )
    out = tmp_path / "flagged"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "classification.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_malformed_config_fails_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"weight": ')
    out = tmp_path / "out"
    code = main(["classify", "--config", str(bad), "--out", str(out)])
    assert code == EXIT_ERROR
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"weight": SQRT_WEIGHT, "bogus": 1, "out": str(tmp_path / "out")}
    )
    assert main(["classify", "--config", cfg]) == EXIT_ERROR
    assert not (tmp_path / "out").exists()
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tolerances",
    [{"growth_tol": math.nan}, {"growth_tol": 0.5}, {"little_o_eps": math.nan}, {"little_o_eps": -1}],
)
def test_classify_bad_tolerance_is_an_error(tmp_path, capsys, tolerances):
    # Once a bare ValueError from deep in classify; now the config reader's
    # error, naming the key.
    cfg = write_config(
        tmp_path, {"weight": SQRT_WEIGHT, "tolerances": tolerances, "out": str(tmp_path / "out")}
    )
    assert main(["classify", "--config", cfg]) == EXIT_ERROR
    assert not (tmp_path / "out").exists()
    [key] = tolerances
    assert f"error: ConfigError: config.tolerances.{key} must be " in capsys.readouterr().err


def test_command_mismatch_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        {"command": "classify", "weight": SQRT_WEIGHT, "out": str(tmp_path / "out")},
    )
    assert main(["matrix", "--config", cfg]) == EXIT_ERROR


def test_grid_flags_rejected_on_classify(tmp_path):
    cfg = write_config(tmp_path, {"weight": SQRT_WEIGHT, "out": str(tmp_path / "out")})
    assert main(["classify", "--config", cfg, "--k", "32"]) == EXIT_ERROR
    assert main(["classify", "--config", cfg, "--xi", "1,2"]) == EXIT_ERROR


@pytest.mark.parametrize("command", ["classify", "matrix", "cover-dump"])
def test_seed_flag_rejected_where_no_jitter_reads_it(tmp_path, capsys, command):
    # Only extend draws a jitter; the other commands refuse --seed.
    doc = {"set": {"points": [0.0]}} if command == "cover-dump" else {"weight": SQRT_WEIGHT}
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out), "--seed", "7"]
    assert main(argv) == EXIT_ERROR
    assert not out.exists()
    assert f"error: ConfigError: --seed does not apply to {command}\n" in capsys.readouterr().err


def test_matrix_dump_round_trips(tmp_path):
    cfg = write_config(tmp_path, {"weight": SQRT_WEIGHT, "k": 48})
    out = tmp_path / "out"
    assert main(["matrix", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = read_json(out / "matrix.json")
    assert doc["k_max"] == 48
    assert doc["sandwich"]["upper_constant"] >= 1.0
    reg = matrix_from_json(doc["regularized"])
    assert reg.order >= 48
    for xi in (0.25, 1.0, 8.0):
        assert reg.has(xi)
    assert doc["interleaved"] is not None


def test_matrix_xi_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, {"weight": SQRT_WEIGHT, "k": 48})
    out = tmp_path / "out"
    code = main(
        ["matrix", "--config", cfg, "--out", str(out), "--xi", "0.5,1.0,2.0"]
    )
    assert code == EXIT_OK
    doc = read_json(out / "matrix.json")
    assert doc["xi"] == [0.5, 1.0, 2.0]
    mat = matrix_from_json(doc["associated"])
    assert sorted(mat.xi_values) == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("command", ["matrix", "extend"])
@pytest.mark.parametrize("flag, bad", [("0", "0.0"), ("1,-2", "-2.0"), ("nan", "nan"), ("0.5,inf", "inf")])
def test_xi_flag_entry_off_its_floor_is_config_error(tmp_path, capsys, monkeypatch, command, flag, bad):
    # --xi goes through the reader of config.xi, before any matrix is built.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(cli, "associated_matrix", no_work)
    doc = {"matrix": {"weight": SQRT_WEIGHT}, "extend": GEVREY_EXTEND}[command]
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--xi", flag]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: ConfigError: config.xi entry must be finite and greater than 0, got {bad}\n" in err


def test_cover_dump_layout_and_summary(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "set": {"intervals": [[-1.0, 0.0]], "points": [1.0]},
            "cover": {"check_points": 1500},
        },
    )
    out = tmp_path / "out"
    assert main(["cover-dump", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "cover.csv")
    assert header == ["center", "side", "generation"]
    assert len(rows) > 50
    summary = read_json(out / "cover_summary.json")
    assert summary["intervals"] == len(rows)
    assert summary["distance_check"]["ok"] is True
    assert summary["distance_check"]["violations"] == 0
    assert 1 <= summary["max_overlap"] <= 3


GEVREY_EXTEND = {
    "weight": SQRT_WEIGHT,
    "k": 64,
    "jet": {"kind": "gevrey", "set": {"points": [0.0]}, "alpha_max": 32, "xi": 1.0},
    "run": {"samples": 160, "csv_samples": 24, "alpha_cap": 8},
    "seed": 7,
}


@pytest.fixture(scope="module")
def extend_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("extend")
    cfg = write_config(tmp, dict(GEVREY_EXTEND))
    out = tmp / "out"
    code = main(["extend", "--config", cfg, "--out", str(out)])
    return code, out


def test_extend_passes_and_reports(extend_run):
    code, out = extend_run
    assert code == EXIT_OK
    doc = read_json(out / "bound_report.json")
    assert doc["all_passed"] is True
    assert doc["negative_control"] is False
    assert doc["seed"] == 7
    assert doc["certificate"]["rho"] == 1.0
    names = {c["name"] for c in doc["checks"]}
    assert "residual_decay" in names
    assert "global_derivative_growth" in names
    assert all(c["passed"] for c in doc["checks"])
    assert doc["fitted_m"] >= 1.0


def test_extend_sample_trace_layout(extend_run):
    _, out = extend_run
    header, rows = read_csv(out / "extension_samples.csv")
    assert header == ["x", "alpha", "derivative"]
    alphas = {int(a) for _, a, _ in rows}
    assert alphas == set(range(9))
    for x, _, v in rows:
        assert math.isfinite(float(x)) and math.isfinite(float(v))


def test_csv_samples_take_rungs_on_each_side_of_each_component(tmp_path, readme_config):
    # run.csv_samples n gives max(n // (2 * components), 8) rungs on each
    # side of each component, and the trace keeps those inside the band:
    # the default 40 gives 40 points on {0} but 8 * 2 * 8 = 128 on the
    # eight cluster points, each point one line per order 0..8.
    from workloads import CLUSTER_POINTS

    lines = []
    for points in ([0.0], list(CLUSTER_POINTS)):
        cfg = json.loads(json.dumps(readme_config))
        cfg["jet"]["set"] = {"points": points}
        out = tmp_path / f"p{len(points)}"
        assert main(["extend", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        lines.append((out / "extension_samples.csv").read_text().count("\n"))
    assert lines == [1 + 9 * 40, 1 + 9 * 128]


def test_extend_boundary_trace_layout(extend_run):
    _, out = extend_run
    header, rows = read_csv(out / "boundary_limits.csv")
    assert header[:4] == ["index", "x", "distance", "decay"]
    assert header[4:] == [f"e{a}" for a in range(9)]
    indices = [int(r[0]) for r in rows]
    assert indices == sorted(indices)
    e0 = [float(r[4]) for r in rows]
    assert all(b <= a for a, b in zip(e0, e0[1:]))
    doc = read_json(out / "bound_report.json")
    assert doc["boundary"]["steps"] == len(rows)


def test_extend_interval_default_boundary_base(tmp_path):
    doc = dict(GEVREY_EXTEND)
    doc["jet"] = dict(doc["jet"], set={"intervals": [[-1.0, 0.0]]})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert read_json(out / "bound_report.json")["boundary"]["a"] == 0.0


def test_extend_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, dict(GEVREY_EXTEND))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["extend", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["extend", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    for name in ("bound_report.json", "extension_samples.csv", "boundary_limits.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_failed_write_leaves_old_products_untouched(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, dict(GEVREY_EXTEND))
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    old = {name: (out / name).read_bytes() for name in names}
    real = Path.write_text
    calls = []

    def second_write_fails(self, text, *args, **kwargs):
        calls.append(self)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return real(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", second_write_fails)
    # Another seed changes bound_report.json, the first product written.
    assert main(["extend", "--config", cfg, "--out", str(out), "--seed", "11"]) == EXIT_ERROR
    assert len(calls) == 2
    assert "error: OSError" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == old


def test_out_naming_a_regular_file_is_an_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    cfg = write_config(tmp_path, {"weight": SQRT_WEIGHT})
    assert main(["classify", "--config", cfg, "--out", str(taken)]) == EXIT_ERROR
    assert "error: FileExistsError" in capsys.readouterr().err
    assert taken.read_text() == "not a directory"


def test_extend_seed_changes_sample_trace_only(tmp_path):
    cfg1 = write_config(tmp_path, dict(GEVREY_EXTEND), "a.json")
    reseeded = dict(GEVREY_EXTEND, seed=11)
    cfg2 = write_config(tmp_path, reseeded, "b.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["extend", "--config", cfg1, "--out", str(out1)]) == EXIT_OK
    assert main(["extend", "--config", cfg2, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "extension_samples.csv").read_bytes() != (
        out2 / "extension_samples.csv"
    ).read_bytes()
    d1 = read_json(out1 / "bound_report.json")
    d2 = read_json(out2 / "bound_report.json")
    d1.pop("seed"), d2.pop("seed")
    assert d1 == d2


# The README extend config on two points, without --seed.  The digests pin
# the three products bit for bit: a change to any number the pipeline
# writes (partition, certificate pairs, audit, boundary) shows here.
GOLDEN_EXTEND = {
    "weight": SQRT_WEIGHT,
    "k": 64,
    "jet": {"kind": "gevrey", "set": {"points": [0.0, 0.23]}, "alpha_max": 32, "xi": 1.0},
    "run": {"samples": 240, "alpha_cap": 8},
    "seed": 7,
}
GOLDEN_SHA256 = {
    "bound_report.json": "c083226e6401ef764442fa1aa54db2c4912ffa01cc8451b6cfed7fbab33f45ee",
    "extension_samples.csv": "22091f51feeff28b0dc8f79ced532aaba75194d1fac3e64a60cbb685a21aa9ff",
    "boundary_limits.csv": "71cde6c82396ab160180a92bcd8095b14e2a2705a7539ac447736001b79926d7",
}
# The same config on the eight points of the extend_cluster benchmark
# workload.
CLUSTER_POINTS = [0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81]
CLUSTER_EXTEND = dict(GOLDEN_EXTEND, jet=dict(GOLDEN_EXTEND["jet"], set={"points": CLUSTER_POINTS}))
CLUSTER_SHA256 = {
    "bound_report.json": "40d7854e44aa790fe2948acf9401a9a2f76f58e8721d828d0a644add945ee2d6",
    "extension_samples.csv": "d8a34031c9bef044b58015912f0c2c40c6c4d9c075d366c1cb3569c7f64a6200",
    "boundary_limits.csv": "71cde6c82396ab160180a92bcd8095b14e2a2705a7539ac447736001b79926d7",
}
# The benchmark's audit_dense config: one point, a 2000-sample audit and
# a 400-point sample trace.
DENSE_EXTEND = dict(
    GOLDEN_EXTEND,
    jet=dict(GOLDEN_EXTEND["jet"], set={"points": [0.0]}),
    run={"samples": 2000, "alpha_cap": 8, "csv_samples": 400},
)
DENSE_SHA256 = {
    "bound_report.json": "55d04d0ac18c9495a63cae226885ea42a98061197eb55c4f6a29da225951629f",
    "extension_samples.csv": "e0c69d062153b7745902a13496e889b32628e09d3085c594c5ca71b11dd2cd73",
    "boundary_limits.csv": "6ca8ae156c53aa9d9206421ff1d795fa03d3dffc5253feb710dce6ab5f220963",
}


@pytest.mark.parametrize(
    "config, digests",
    [
        (GOLDEN_EXTEND, GOLDEN_SHA256),
        (CLUSTER_EXTEND, CLUSTER_SHA256),
        (DENSE_EXTEND, DENSE_SHA256),
    ],
    ids=["two_points", "cluster", "dense"],
)
def test_extend_products_match_golden_digests(tmp_path, config, digests):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("k3", ["NaN", "-3"])
def test_extend_plan_file_with_bad_constant_fails(tmp_path, capsys, k3):
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"dilation": 16, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 1.0,'
        f' "constants": {{"k3": {k3}}}}}'
    )
    cfg = write_config(tmp_path, dict(GOLDEN_EXTEND, plan={"path": str(plan)}))
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    assert "PlanInvalid" in capsys.readouterr().err


def test_extend_zero_jet_all_pass(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "weight": SQRT_WEIGHT,
            "jet": {"kind": "zero", "set": {"points": [0.0]}, "alpha_max": 32},
            "run": {"samples": 120, "csv_samples": 12, "alpha_cap": 6},
        },
    )
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = read_json(out / "bound_report.json")
    assert doc["all_passed"] is True
    assert doc["fitted_m"] == 1.0
    _, rows = read_csv(out / "extension_samples.csv")
    assert all(float(v) == 0.0 for _, _, v in rows)


def test_extend_negative_control_flagged(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "weight": SQRT_WEIGHT,
            "jet": {
                "kind": "gevrey",
                "set": {"points": [0.0]},
                "alpha_max": 32,
                "xi": 1.0,
            },
            "plan": {"dilation": 0.5},
            "run": {"samples": 160, "alpha_cap": 8, "csv_samples": 8},
        },
    )
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_INCONCLUSIVE
    doc = read_json(out / "bound_report.json")
    assert doc["negative_control"] is True
    assert doc["all_passed"] is False
    assert any(
        c["alpha_trend"] == "growing" for c in doc["checks"] if not c["passed"]
    )


def test_extend_polynomial_jet_from_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "weight": SQRT_WEIGHT,
            "jet": {
                "kind": "polynomial",
                "set": {"points": [0.0]},
                "coefficients": [1.0, 2.0, 0.0, 1.0],
                "alpha_max": 32,
            },
            "run": {"samples": 100, "csv_samples": 16, "alpha_cap": 6},
        },
    )
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "extension_samples.csv")
    for x, a, v in rows:
        x, a, v = float(x), int(a), float(v)
        exact = {
            0: 1.0 + 2.0 * x + x**3,
            1: 2.0 + 3.0 * x * x,
            2: 6.0 * x,
            3: 6.0,
        }.get(a, 0.0)
        assert v == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_extend_jet_file_round_trip(tmp_path):
    # A jet serialized by the library is a valid CLI input.
    from ultraext.ultrajets import polynomial_jet
    from ultraext.whitney_geometry import CompactSet1D

    jet = polynomial_jet(CompactSet1D.from_points([0.0]), (0.0,), (0.0, 1.0), 32)
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps(jet.to_json()))
    cfg = write_config(
        tmp_path,
        {
            "weight": SQRT_WEIGHT,
            "jet": {"kind": "file", "path": str(jet_path)},
            "run": {"samples": 80, "csv_samples": 8, "alpha_cap": 4},
        },
    )
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "extension_samples.csv")
    first_order = [float(v) for _, a, v in rows if int(a) == 1]
    assert first_order
    assert all(v == pytest.approx(1.0, rel=1e-9) for v in first_order)


@pytest.mark.parametrize(
    "weight, message",
    [
        # Both used to be ignored: the run passed with scale 1 and
        # normalization 1 recorded in the report.
        (
            {"family": "power", "parameters": {"exponent": 0.5, "scael": 3.0}},
            "config.weight.parameters of a power weight: unknown ['scael']",
        ),
        (
            {**SQRT_WEIGHT, "normalization": 123.0},
            "config.weight.normalization is 123.0",
        ),
        # This one used to end in a bare TypeError.
        (
            {"family": "power", "parameters": {"exponent": "0.5"}},
            "config.weight.parameters.exponent must be a number, got '0.5'",
        ),
    ],
)
def test_extend_bad_weight_block_is_config_error(tmp_path, capsys, weight, message):
    cfg = write_config(tmp_path, dict(GEVREY_EXTEND, weight=weight))
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    assert f"error: ConfigError: {message}" in capsys.readouterr().err


def test_extend_report_weight_block_reads_back(extend_run, tmp_path):
    # weight_to_json's block, normalization included, is a valid config weight.
    _, out = extend_run
    weight = read_json(out / "bound_report.json")["weight"]
    assert weight["normalization"] == 1.0
    cfg = write_config(tmp_path, dict(GEVREY_EXTEND, weight=weight))
    again = tmp_path / "again"
    assert main(["extend", "--config", cfg, "--out", str(again)]) == EXIT_OK
    assert (again / "bound_report.json").read_bytes() == (out / "bound_report.json").read_bytes()


def test_extend_duplicate_jet_file_entry_is_config_error(tmp_path, capsys):
    values = [[0.0, 0, 0.0], [0.0, 1, 1.0], [0.0, 1, 2.0]]
    doc = {"e": [[0.0, 0.0]], "alpha_max": 1, "values": values}
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, dict(GEVREY_EXTEND, jet={"kind": "file", "path": str(jet_path)}))
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    assert "error: ConfigError: jet values repeat order 1 at point 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["extend_readme", "extend_cluster", "audit_dense"])
def test_extend_fires_every_traced_layer(tmp_path, monkeypatch, workload):
    # The benchmark's tracer wraps named module bindings of each layer; a
    # refactor that moves one, or leaves its span silent in some job
    # (TaylorPolynomial.__call__ runs only in the boundary descent's
    # per-step glue), must fail here, not only in a traced run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing
    from workloads import WORKLOADS

    cfg = write_config(tmp_path, WORKLOADS[workload][0])
    with tracing.traced(tracing.Recorder()) as rec:
        code = main(["extend", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    tracing.check_fired(rec)
    # The bump and partition spans time one template and one partition
    # per assembly, so each fires once per build_partition.  The sample
    # trace is one eval_derivative call outside every other span.
    calls = rec.times()[3]
    assert calls["partition_of_unity.build_partition"] == 1
    assert calls["partition_of_unity.build_bump"] == 1
    assert calls["partition_of_unity.Partition.from_bumps"] == 1
    top_level = [name for name, _, _, parent in rec.spans if parent < 0]
    assert top_level.count("extension_engine.eval_derivative") == 1


def test_csv_text_matches_csv_writer():
    # The products' CSV is joined by hand from each cell's repr; csv.writer
    # is the reference, on every kind of value a product row holds (the
    # jobs build their rows with tolist, so Python float, int and bool),
    # in columns of one type and mixed ones.
    rows = [
        (math.nan, 0, True, -math.inf, -3),
        (math.inf, -3, False, 0, 0),
        (5e-324, 2**70, True, 1.0 / 3.0, True),
        (-0.0, 7, False, 9, 0.1),
        (-1.5e300, 1, True, False, 2),
    ]
    header = ("x", "alpha", "flag", "mixed", "more")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert _csv_text(header, map(_csv_line, rows)) == buf.getvalue()
    assert _csv_text(header, []) == "x,alpha,flag,mixed,more\n"
    # The rows a job builds: numpy columns through tolist.
    col = np.array([0.1, -0.0, 5e-324, 1e300])
    rows = list(zip(col.tolist(), np.arange(4).tolist(), (col > 0.0).tolist()))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("x", "a", "b")] + rows)
    assert _csv_text(("x", "a", "b"), map(_csv_line, rows)) == buf.getvalue()
    # The sample trace: each x with every order alpha and its value.
    xs = np.array([0.1, -0.0, 5e-324, -1.5e300])
    derivs = np.array(
        [[math.nan, -0.0, 1.0 / 3.0], [math.inf, -math.inf, 0.0], [1e-300, 2.0, -7.5], [3.0, -0.1, 1e300]]
    )
    rows = [(x, a, v) for x, row in zip(xs.tolist(), derivs.tolist()) for a, v in enumerate(row)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("x", "alpha", "derivative")] + rows)
    assert _csv_text(("x", "alpha", "derivative"), _trace_lines(xs, derivs)) == buf.getvalue()
    assert _trace_lines(xs[:0], derivs[:0]) == []


@pytest.mark.parametrize("seed", [0, 41, 2**128 + 5])
def test_trace_jitter_is_the_stdlib_generator(tmp_path, monkeypatch, seed):
    # The trace points rebuilt one by one from the ladder and the draws u
    # of random.Random(seed): a point moves to p + (x - p) * (1 + 0.04
    # (u - 0.5)), p its nearest set point, where that keeps it in the band.
    ladders = []

    def recorded(ext, n):
        xs = region_samples(ext, n)
        ladders.append((ext, xs))
        return xs

    monkeypatch.setattr(cli, "region_samples", recorded)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(GEVREY_EXTEND, seed=seed))
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_OK
    [(ext, ladder)] = ladders
    ds, nearest = distances_and_nearest(ext.jet.e, ladder)
    rng = random.Random(seed)
    want = []
    for x, d, p in zip(ladder.tolist(), ds.tolist(), nearest.tolist()):
        factor = 1.0 + 0.04 * (rng.random() - 0.5)
        moved = ext.cover.d_min_covered <= d * factor < ext.d_max
        want.append(p + (x - p) * factor if moved else x)
    _, rows = read_csv(out / "extension_samples.csv")
    got = [float(x) for x, alpha, _ in rows if alpha == "0"]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert sum(w != x for w, x in zip(want, ladder.tolist())) > len(want) // 2


@pytest.mark.parametrize("where", ["flag", "config"])
def test_extend_negative_seed_is_config_error(tmp_path, capsys, where):
    doc = dict(GEVREY_EXTEND, seed=-1) if where == "config" else dict(GEVREY_EXTEND)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    argv = ["extend", "--config", cfg, "--out", str(out)]
    if where == "flag":
        argv += ["--seed", "-3"]
    assert main(argv) == EXIT_ERROR
    assert not out.exists()
    assert "ConfigError: config.seed must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, count", [("samples", 0), ("samples", -5), ("csv_samples", 0), ("csv_samples", -3)]
)
def test_extend_sample_count_below_one_is_config_error(tmp_path, capsys, key, count):
    doc = dict(GEVREY_EXTEND, run=dict(GEVREY_EXTEND["run"], **{key: count}))
    out = tmp_path / "out"
    assert main(["extend", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"ConfigError: config.run.{key} must be at least 1, got {count}" in err


COVER_DUMP = {"set": {"intervals": [[-1.0, 0.0]], "points": [1.0]}, "cover": {}}


def with_key(doc, key, value):
    """A deep copy of doc with the dotted key set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, leaf = key.split(".")
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    node[leaf] = value
    return doc


def plan_file_with(tmp_path, **extra):
    plan = {"dilation": 16, "folds": 8, "xi": 1.0, "rho": 1.0, "jet_bound": 1.0, **extra}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return str(path)


CLASSIFY = {"weight": SQRT_WEIGHT}


# (command, dotted key, value, error) of values checked before any work.
BEFORE_WORK = [
    ("extend", "run.alpha_cap", -1, "ConfigError: config.run.alpha_cap must be at least 0, got -1"),
    ("extend", "run.boundary_max_index", -1,
     "ConfigError: config.run.boundary_max_index must be at least 0, got -1"),
    ("extend", "run.max_generation", -2, "ConfigError: config.run.max_generation must be at least 0, got -2"),
    ("cover-dump", "cover.max_generation", -1,
     "ConfigError: config.cover.max_generation must be at least 0, got -1"),
    ("cover-dump", "cover.check_points", 0, "ConfigError: config.cover.check_points must be at least 1, got 0"),
    ("cover-dump", "cover.check_points", -5, "ConfigError: config.cover.check_points must be at least 1, got -5"),
    # Every other constant floor of the README tables.
    ("extend", "k", 8, "ConfigError: config.k must be at least 16, got 8"),
    ("matrix", "k", 8, "ConfigError: config.k must be at least 16, got 8"),
    ("matrix", "xi", [-1], "ConfigError: config.xi entry must be finite and greater than 0, got -1.0"),
    ("matrix", "xi", [0], "ConfigError: config.xi entry must be finite and greater than 0, got 0.0"),
    ("matrix", "xi", [1.0, math.nan], "ConfigError: config.xi entry must be finite and greater than 0, got nan"),
    ("extend", "xi", [math.inf], "ConfigError: config.xi entry must be finite and greater than 0, got inf"),
    ("extend", "jet.alpha_max", -1, "ConfigError: config.jet.alpha_max must be at least 0, got -1"),
    ("extend", "run.r_cov", 0, "ConfigError: config.run.r_cov must be greater than 0, got 0.0"),
    ("extend", "run.r_cov", -1, "ConfigError: config.run.r_cov must be greater than 0, got -1.0"),
    ("cover-dump", "cover.r_cov", 0, "ConfigError: config.cover.r_cov must be greater than 0, got 0.0"),
    ("cover-dump", "cover.expansion", 1.0, "ConfigError: config.cover.expansion must be greater than 1, got 1.0"),
    ("cover-dump", "cover.expansion", 2.5, "ConfigError: config.cover.expansion must be less than 2, got 2.5"),
    ("extend", "plan.dilation", 0, "ConfigError: config.plan.dilation must be greater than 0, got 0.0"),
    ("extend", "plan.folds", 0, "ConfigError: config.plan.folds must be at least 1, got 0"),
    ("classify", "grid.t_min", 0, "ConfigError: config.grid.t_min must be greater than 0, got 0.0"),
    ("classify", "tolerances.growth_tol", 0.5,
     "ConfigError: config.tolerances.growth_tol must be at least 1, got 0.5"),
    ("classify", "tolerances.growth_tol", math.nan,
     "ConfigError: config.tolerances.growth_tol must be at least 1, got nan"),
    ("classify", "tolerances.little_o_eps", -1,
     "ConfigError: config.tolerances.little_o_eps must be greater than 0, got -1.0"),
    ("classify", "tolerances.rtol", 1.5, "ConfigError: config.tolerances.rtol must be less than 1, got 1.5"),
    # Floors between grid keys: classify needs six decades and 13 points.
    ("classify", "grid.t_max", 1e5, "ConfigError: config.grid.t_max / t_min must be finite and at least 1e6, got 100000"),
    ("classify", "grid.t_max", 0.5, "ConfigError: config.grid.t_max / t_min must be finite and at least 1e6, got 0.5"),
    # An overflowing ratio leaves geometric_grid no point count.
    ("classify", "grid", {"t_min": 1e-300, "t_max": 1e300},
     "ConfigError: config.grid.t_max / t_min must be finite and at least 1e6, got inf"),
    ("classify", "grid.per_decade", 1, "ConfigError: config.grid.per_decade must give 13 grid points or more, got 9"),
    ("classify", "grid.per_decade", 0, "ConfigError: config.grid.per_decade must give 13 grid points or more, got 1"),
    # Malformed jet and plan values, sets included.
    ("extend", "jet.kind", "mystery",
     "ConfigError: config.jet.kind must be one of file, zero, polynomial, gevrey; got 'mystery'"),
    ("extend", "jet.xi", "1.0", "ConfigError: config.jet.xi must be a number, got '1.0'"),
    ("extend", "plan.path", 5, "ConfigError: config.plan.path must be a file path string"),
    ("extend", "plan.path", lambda tmp: plan_file_with(tmp, bogus=1),
     "PlanInvalid: plan keys missing: [], unknown: ['bogus']"),
    # The plan carries h, k1, k2 and k3 only; the threshold multiples and
    # the fitted m1 are no plan constants.
    ("extend", "plan.path", lambda tmp: plan_file_with(tmp, constants={"c0": 2.0}),
     "PlanInvalid: plan.constants keys missing: [], unknown: ['c0']"),
    ("extend", "plan.path", lambda tmp: plan_file_with(tmp, constants={"k2": 12.0, "m1": None}),
     "PlanInvalid: plan.constants keys missing: [], unknown: ['m1']"),
    # Only extend reads a seed.
    ("classify", "seed", 7, "ConfigError: config keys missing: [], unknown: ['seed']"),
    ("matrix", "seed", 7, "ConfigError: config keys missing: [], unknown: ['seed']"),
    ("cover-dump", "seed", 7, "ConfigError: config keys missing: [], unknown: ['seed']"),
    ("extend", "jet.set", {"intervals": [[0.5, 2.0], [0.0, 1.0]]},
     "ConfigError: config.jet.set.intervals entry [0.5, 2.0] meets config.jet.set.intervals entry [0.0, 1.0]"),
    ("cover-dump", "set.intervals", [[-1.0, 0.0], [-0.5, 0.5]],
     "ConfigError: config.set.intervals entry [-0.5, 0.5] meets config.set.intervals entry [-1.0, 0.0]"),
    ("cover-dump", "set.intervals", [[0.0, -1.0]], "ConfigError: config.set.intervals entry [0.0, -1.0] is inverted"),
    ("cover-dump", "set.points", [1.0, math.inf], "ConfigError: config.set.points entry [inf, inf] is not finite"),
    # Rules between the xi grid, k and the jet that the matrices must meet.
    ("matrix", "xi", [1.0],
     "ConfigError: config.xi needs an xi with xi/b and b*xi in the grid, b = 2 or 4; got [1.0]"),
    ("extend", "xi", [1.0, 2.0],
     "ConfigError: config.xi needs an xi with xi/b and b*xi in the grid, b = 2 or 4; got [1.0, 2.0]"),
    ("extend", "xi", [0.25, 1.0, 4.0], "ConfigError: config.xi needs an xi with 2*xi in the grid; got [0.25, 1.0, 4.0]"),
    ("extend", "jet.xi", 8.0,
     "ConfigError: config.jet.xi 8 needs 2*xi = 16 in config.xi [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]"),
    ("extend", "jet.alpha_max", 129,
     "ConfigError: config.jet.alpha_max: jet order 129 exceeds 2*k = 128, the matrix order"),
]


@pytest.mark.parametrize(
    "command, key, value, error",
    BEFORE_WORK,
    ids=[
        f"{command}-{key.replace('.', '-')}-{value if isinstance(value, (int, float, str)) else index}"
        for index, (command, key, value, _) in enumerate(BEFORE_WORK)
    ],
)
def test_count_below_its_floor_is_config_error_before_any_work(
    tmp_path, capsys, monkeypatch, command, key, value, error
):
    # Each value is rejected by name before any matrix, cover or
    # classification grid is built.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(cli, "associated_matrix", no_work)
    monkeypatch.setattr(cli, "build_cover", no_work)
    monkeypatch.setattr(cli, "geometric_grid", no_work)
    base = {"extend": GEVREY_EXTEND, "matrix": CLASSIFY, "classify": CLASSIFY, "cover-dump": COVER_DUMP}[command]
    doc = with_key(base, key, value(tmp_path) if callable(value) else value)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    assert f"error: {error}\n" in capsys.readouterr().err


def test_jet_order_may_reach_twice_k(tmp_path, capsys):
    # At k = 16 the interleaved matrix has order 32: a jet of order 33 is
    # refused before any work, one of order 32 runs.
    codes = {}
    for alpha_max in (32, 33):
        cfg = with_key(dict(GEVREY_EXTEND, k=16), "jet.alpha_max", alpha_max)
        codes[alpha_max] = main(["extend", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    refused = "config.jet.alpha_max: jet order 33 exceeds 2*k = 32, the matrix order"
    assert codes[33] == EXIT_ERROR and f"error: ConfigError: {refused}\n" in err
    assert codes[32] != EXIT_ERROR and err.count("error:") == 1


def test_jet_file_components_are_sorted(tmp_path):
    # A jet file whose e lists its components out of order gives the
    # products of the sorted file; it once ended in a bare ValueError.
    from ultraext.ultrajets import polynomial_jet
    from ultraext.whitney_geometry import CompactSet1D

    jet = polynomial_jet(CompactSet1D.from_points([0.0, 1.0]), (0.0, 1.0), (1.0, -2.0, 0.5), 32)
    doc = jet.to_json()
    outs, codes = [], []
    for name, e in (("sorted", doc["e"]), ("unsorted", doc["e"][::-1])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(doc, e=e)))
        cfg = dict(GEVREY_EXTEND, jet={"kind": "file", "path": str(path)})
        outs.append(tmp_path / name)
        codes.append(main(["extend", "--config", write_config(tmp_path, cfg), "--out", str(outs[-1])]))
    assert doc["e"] == [[0.0, 0.0], [1.0, 1.0]]
    assert codes == [EXIT_OK, EXIT_OK]
    assert products(outs[0]) == products(outs[1])


def products(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize(
    "command, base, section, key, value",
    [
        ("extend", GEVREY_EXTEND, "run", "samples", 240),
        ("cover-dump", COVER_DUMP, "cover", "check_points", 4096),
        ("classify", {"weight": SQRT_WEIGHT}, "grid", "per_decade", 10),
    ],
)
def test_integral_float_count_gives_the_integer_products(tmp_path, command, base, section, key, value):
    # Plan and jet files took 8.0 for 8; a config count used to reject it.
    outs = []
    for form in (value, float(value)):
        doc = dict(base, **{section: dict(base.get(section, {}), **{key: form})})
        outs.append(tmp_path / f"out-{form!r}")
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(outs[-1])]) == EXIT_OK
    assert products(outs[0]) == products(outs[1])


POLYNOMIAL_JET = {"kind": "polynomial", "set": {"points": [0.0]}, "coefficients": [1.0, 2.0]}


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("extend", dict(GEVREY_EXTEND, jet=dict(GEVREY_EXTEND["jet"], set={"points": ["0.0"]})),
         "config.jet.set.points entry"),
        ("extend", dict(GEVREY_EXTEND, jet=dict(GEVREY_EXTEND["jet"], set={"points": [True]})),
         "config.jet.set.points entry"),
        ("extend", dict(GEVREY_EXTEND, jet=dict(GEVREY_EXTEND["jet"], set={"points": 0.0})),
         "config.jet.set.points"),
        ("extend", dict(GEVREY_EXTEND, jet=dict(GEVREY_EXTEND["jet"], set={"intervals": [["-1", 0.0]]})),
         "config.jet.set.intervals entry"),
        ("extend", dict(GEVREY_EXTEND, jet=dict(POLYNOMIAL_JET, coefficients=["1", "2"])),
         "config.jet.coefficients entry"),
        ("extend", dict(GEVREY_EXTEND, jet=dict(POLYNOMIAL_JET, coefficients=[1.0, False])),
         "config.jet.coefficients entry"),
        ("extend", dict(GEVREY_EXTEND, plan={"path": 5}), "config.plan.path"),
        ("cover-dump", dict(COVER_DUMP, set={"points": [False]}), "config.set.points entry"),
        ("cover-dump", dict(COVER_DUMP, set={"points": 1.0}), "config.set.points"),
        ("cover-dump", dict(COVER_DUMP, set={"intervals": [[-1.0, "0"]]}), "config.set.intervals entry"),
        ("cover-dump", dict(COVER_DUMP, set={"intervals": [[-1.0, True]]}), "config.set.intervals entry"),
        ("cover-dump", dict(COVER_DUMP, set={"intervals": [-1.0, 0.0]}), "config.set.intervals"),
    ],
)
def test_non_number_in_a_set_jet_or_plan_is_config_error(tmp_path, capsys, command, doc, key):
    # Strings and booleans used to pass through float() and run to exit 0;
    # a scalar list and a numeric plan path ended in bare TypeErrors.
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    assert f"error: ConfigError: {key} must be " in capsys.readouterr().err


def test_extend_bound_overflow_is_not_in_class(tmp_path, capsys):
    # At |b - a| = 1e100 a bound rho^k e^rest passes double range.
    doc = dict(GOLDEN_EXTEND, jet=dict(GOLDEN_EXTEND["jet"], set={"points": [0.0, 1e100]}))
    out = tmp_path / "out"
    assert main(["extend", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: NotInClass: ") and "xi=1.0" in err
    assert "Traceback" not in err


# The command line as `python -m ultraext.cli` runs it, in a fresh
# interpreter (the test session has every module loaded).  An atexit hook
# reports, once the entry point has returned, which of these modules were
# loaded and how many times the collector was frozen.
_ENTRY_PROBE = """
import atexit, gc, json, runpy, sys
unwanted = ("numpy.ma", "numpy.random", "numpy.polynomial", "dataclasses", "fractions", "decimal")
freezes, freeze = [], gc.freeze
gc.freeze = lambda: (freezes.append(None), freeze())
atexit.register(lambda: print(json.dumps({
    "loaded": [m for m in unwanted if m in sys.modules],
    "freezes": len(freezes),
})))
runpy.run_module("ultraext.cli", run_name="__main__", alter_sys=True)
"""


def run_entry(*args):
    """The process and its exit report, for the command line on args."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_PROBE, *args], env=env, capture_output=True, text=True
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


def readme_rows(command):
    """(key, default cell, floor cell) of each row of a command's README key table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"\n### {command}\n", 1)[1].split("\n#", 1)[0]
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.split("|")[1:-1]]
            yield cells[0].strip("`"), cells[2], cells[3]


def constant(cell):
    """The JSON value a README cell states, or None where it states a rule."""
    try:
        return json.loads(cell.strip("`"))
    except ValueError:
        return None


def floor_cell(read):
    """A reader's floor as the README's Floor column writes it."""
    if isinstance(read, cli._Numbers):
        read = read.entry  # a list's floor holds for each entry
    if not isinstance(read, cli._Number):
        return "—"
    parts = [
        f"{prefix}{bound:g}"
        for prefix, bound in (("", read.least), ("> ", read.above), ("< ", read.below))
        if bound is not None
    ]
    return ", ".join(parts) or "—"


def test_readme_tables_list_every_config_key():
    # The table under each command's README section lists exactly the keys
    # its config may hold, nested ones as dotted paths, and each Default
    # and Floor cell that states a constant is the one cli._SCHEMA reads.
    def leaves(obj, prefix=""):
        for key, (read, default) in obj.keys.items():
            yield prefix + key, (read, default)
            if isinstance(read, cli._Object):
                yield from leaves(read, prefix + key + ".")

    for command, schema in cli._SCHEMA.items():
        table = dict(leaves(schema))
        rows = list(readme_rows(command))
        assert sorted(key for key, _, _ in rows) == sorted(table), command
        for key, default_cell, floor in rows:
            read, default = table[key]
            if default_cell == "required":
                assert default is cli._REQUIRED, key
            elif constant(default_cell) is not None:
                assert constant(default_cell) == default, key
            else:  # a rule, such as "16 · rho": the table leaves it to the command
                assert default is None or default is cli._REQUIRED, key
            if "`" not in floor:  # not a rule, such as "1e6 · `t_min`"
                assert floor_cell(read) == floor, key


@pytest.fixture
def readme_config(monkeypatch):
    """The README extend config, as the benchmark's workloads hold it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import README_CONFIG
    return README_CONFIG


def test_extend_job_imports_no_masked_random_or_polynomial_numpy(tmp_path, readme_config):
    # Each of these imports costs an extend job milliseconds and MB of
    # RSS at every start; none is needed (dataclasses also generates the
    # code of every decorated class at import, and fractions brings in
    # decimal, where integers make the minorant's hull exact).
    # Only a jet of several points reaches certify's pair table.
    for name, doc in [("readme", readme_config), ("cluster", CLUSTER_EXTEND)]:
        cfg = write_config(tmp_path, doc, f"{name}.json")
        proc, report = run_entry("extend", "--config", cfg, "--out", str(tmp_path / name))
        assert (proc.returncode, report["loaded"]) == (EXIT_OK, []), name


def test_extend_with_every_default_written_out_gives_the_same_products(tmp_path, readme_config):
    # The README extend config, and the same config with every constant
    # Default of the README table written out: a read site with a default
    # of its own, other than the table's, shows here.
    explicit = json.loads(json.dumps(readme_config))
    written = []
    for key, default, _ in readme_rows("extend"):
        if constant(default) is not None:
            *parents, leaf = key.split(".")
            node = explicit
            for name in parents:
                node = node.setdefault(name, {})
            if leaf not in node:
                node[leaf] = constant(default)
                written.append(key)
    assert len(written) >= 8, written
    outs = [tmp_path / "plain", tmp_path / "explicit"]
    for doc, out in zip((readme_config, explicit), outs):
        cfg = write_config(tmp_path, doc)
        assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert products(outs[0]) == products(outs[1])


@pytest.mark.parametrize(
    "edit, code",
    [
        ({}, EXIT_OK),
        # ROADMAP item 1: residual_decay fails at exponent 0.9.
        ({"weight": {"family": "power", "parameters": {"exponent": 0.9}}}, EXIT_INCONCLUSIVE),
        ({"bogus": 1}, EXIT_ERROR),
    ],
    ids=["ok", "inconclusive", "config_error"],
)
def test_entry_point_freezes_after_main_returns_its_code(tmp_path, capsys, readme_config, edit, code):
    # The process freezes the collector before main, so the job's
    # collections skip the import heap, and again once main has written
    # the products, so shutdown does not walk the heap; main's exit code,
    # output and products pass through unchanged.
    cfg = write_config(tmp_path, dict(readme_config, **edit))
    entry, inproc = tmp_path / "entry", tmp_path / "main"
    proc, report = run_entry("extend", "--config", cfg, "--out", str(entry))
    assert (proc.returncode, report["freezes"]) == (code, 2)
    assert main(["extend", "--config", cfg, "--out", str(inproc)]) == code
    out, err = capsys.readouterr()
    stdout = "".join(proc.stdout.splitlines(keepends=True)[:-1])  # less the exit report
    assert stdout.replace(str(entry), str(inproc)) == out
    assert proc.stderr == err
    names = sorted(p.name for p in inproc.glob("*"))
    assert sorted(p.name for p in entry.glob("*")) == names
    for name in names:
        assert (entry / name).read_bytes() == (inproc / name).read_bytes(), name


def test_entry_point_usage_error_exits_before_the_freeze():
    proc, report = run_entry("extend")
    assert proc.returncode == 2
    assert "the following arguments are required: --config" in proc.stderr
    assert report["freezes"] == 1  # the one before main


def test_main_in_process_leaves_the_collector_unfrozen(tmp_path, readme_config):
    before = gc.get_freeze_count()
    cfg = write_config(tmp_path, readme_config)
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert gc.get_freeze_count() == before


def test_installed_command_is_the_entry_point():
    # The installed `ultraext` and `python -m ultraext.cli` take one path.
    # A plain text read, since tomllib is 3.11+.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["ultraext", "=", '"ultraext.cli:console_main"']


def count_libm(monkeypatch) -> dict:
    """Entries sent to libm by the next job, keyed "call site<its caller"."""
    sent = {}
    real_libm = _fitting.libm

    def counted(fn, values):
        site = sys._getframe(1)
        key = f"{site.f_code.co_name}<{site.f_back.f_code.co_name}"
        sent[key] = sent.get(key, 0) + values.size
        return real_libm(fn, values)

    for module in (_fitting, ultrajets, extension_engine):
        monkeypatch.setattr(module, "libm", counted)
    return sent


CERTIFY_SITES = {"_remainder_table<certify", "libm_log_maxima<certify", "_largest_ratio<certify"}


def test_cluster_certify_sends_few_remainder_entries_through_libm(tmp_path, monkeypatch):
    # The cluster jet has 27,776 nonzero remainder entries.  certify once
    # took math.log and math.exp of each; numpy now picks the few that
    # can decide C or rho, and only those reach libm.
    jets = []
    real_certify = cli.certify
    sent = count_libm(monkeypatch)
    monkeypatch.setattr(cli, "certify", lambda jet, *a, **kw: jets.append(jet) or real_certify(jet, *a, **kw))
    cfg = write_config(tmp_path, CLUSTER_EXTEND)
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert CERTIFY_SITES <= set(sent)
    through_libm = sum(sent[site] for site in CERTIFY_SITES)
    entries = ultrajets._remainder_table(jets[0])[0].size
    assert entries == 27776
    assert 0 < through_libm <= 0.01 * entries  # 56 pair gaps plus 66 entries


def test_dense_audit_sends_few_table_entries_through_libm(tmp_path, monkeypatch):
    # On the audit_dense config the per-entry audit took math.log and
    # math.exp of 109,952 entries of its ratio tables, besides four
    # per-sample logs (86 interval and 3 x 2000 sample entries), which
    # stay.  numpy now fills the tables; only the entries that can decide
    # a column or distance-bin maximum reach libm.  The boundary descent
    # takes log(scale * d), log d and exp of the decay at each of its 33
    # steps, which stay too.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import CONFIGS

    sent = count_libm(monkeypatch)
    cfg = write_config(tmp_path, CONFIGS["audit_dense"])
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert sent.pop("verify_bounds<cmd_extend") == 86 + 3 * 2000
    assert sent.pop("boundary_limits<cmd_extend") == 3 * 33
    for site in CERTIFY_SITES:
        sent.pop(site)
    through_libm = sum(sent.values())
    assert set(sent) == {"_bound_ratios<_ratio_check", "libm_log_maxima<_ratio_check"}
    assert 0 < through_libm <= 0.01 * 109_952  # 920 entries


def test_dense_audit_heap_peak_stays_under_its_bound(tmp_path, monkeypatch):
    # verify_bounds on the audit_dense config, traced from its entry.  Its
    # tracemalloc peak was 3.6 MB while every check's tables lived until
    # the audit returned; each check now drops its tables when it is done.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import CONFIGS

    peaks = []
    real = cli.verify_bounds

    def traced(f, **kwargs):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            report = real(f, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        finally:
            tracemalloc.stop()
        return report

    monkeypatch.setattr(cli, "verify_bounds", traced)
    cfg = write_config(tmp_path, CONFIGS["audit_dense"])
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(peaks) == 1 and peaks[0] <= 2.6e6  # 2.44 MB
