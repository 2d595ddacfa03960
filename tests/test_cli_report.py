"""End-to-end checks of the command line jobs through main()."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ultraext import cli, extension_engine, ultrajets
from ultraext.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    _csv_text,
    _uniform_stream,
    main,
)


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
    cfg = write_config(
        tmp_path, {"weight": SQRT_WEIGHT, "tolerances": tolerances, "out": str(tmp_path / "out")}
    )
    assert main(["classify", "--config", cfg]) == EXIT_ERROR
    assert not (tmp_path / "out").exists()
    assert "error: ValueError" in capsys.readouterr().err


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


def test_matrix_dump_round_trips(tmp_path):
    cfg = write_config(tmp_path, {"weight": SQRT_WEIGHT, "k": 48})
    out = tmp_path / "out"
    assert main(["matrix", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = read_json(out / "matrix.json")
    assert doc["k_max"] == 48
    assert doc["sandwich"]["upper_constant"] >= 1.0
    from ultraext.matrix_calculus import WeightMatrix

    reg = WeightMatrix.from_json(doc["regularized"])
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
    from ultraext.matrix_calculus import WeightMatrix

    mat = WeightMatrix.from_json(doc["associated"])
    assert sorted(mat.xi_values) == [0.5, 1.0, 2.0]


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
    "bound_report.json": "be14b65ad9f09a22498e481bd46370d456a5fc8a12e7e2f06e8271b2f96a4503",
    "extension_samples.csv": "35657076480824454ef25e912097962ccbe99bde06049c3a4add44561cc699ea",
    "boundary_limits.csv": "71cde6c82396ab160180a92bcd8095b14e2a2705a7539ac447736001b79926d7",
}
# The same config on the eight points of the extend_cluster benchmark
# workload.
CLUSTER_POINTS = [0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81]
CLUSTER_EXTEND = dict(GOLDEN_EXTEND, jet=dict(GOLDEN_EXTEND["jet"], set={"points": CLUSTER_POINTS}))
CLUSTER_SHA256 = {
    "bound_report.json": "c70127a9ecfc15c97717574eae40e3914a264190017414ea94a6fcc9f89daa7f",
    "extension_samples.csv": "53ba6a24fab07a570d101ed34b63fa14527c5c092b1624bf69c999be65260121",
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
    "bound_report.json": "b751d2f23b4b4d429826ff8a9451f911c11f265352a39763d1e054460f2dac7e",
    "extension_samples.csv": "81ba35613ef6a705afde53a71e9fc5f0eb56c7142b363bbab542b4a14df8bcfb",
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


def test_extend_bad_jet_kind_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "weight": SQRT_WEIGHT,
            "jet": {"kind": "mystery", "set": {"points": [0.0]}},
        },
    )
    out = tmp_path / "out"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    assert "mystery" in capsys.readouterr().err


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
    assert _csv_text(header, rows) == buf.getvalue()
    assert _csv_text(header, []) == "x,alpha,flag,mixed,more\n"
    # The rows a job builds: numpy columns through tolist.
    col = np.array([0.1, -0.0, 5e-324, 1e300])
    rows = list(zip(col.tolist(), np.arange(4).tolist(), (col > 0.0).tolist()))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("x", "a", "b")] + rows)
    assert _csv_text(("x", "a", "b"), rows) == buf.getvalue()


# 2**128 + 5 has five 32-bit words, one more than the seeding pool.
@pytest.mark.parametrize("seed", [0, 1, 41, 2**32 - 1, 2**32, 2**64 + 17, 2**128 + 5])
def test_jitter_stream_is_numpys_default_generator(seed):
    rng = np.random.default_rng(seed)
    draws = _uniform_stream(seed)
    want = [rng.uniform().hex() for _ in range(1000)]
    assert [next(draws).hex() for _ in range(1000)] == want


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


def test_extend_bound_overflow_is_not_in_class(tmp_path, capsys):
    # At |b - a| = 1e100 a bound rho^k e^rest passes double range.
    doc = dict(GOLDEN_EXTEND, jet=dict(GOLDEN_EXTEND["jet"], set={"points": [0.0, 1e100]}))
    out = tmp_path / "out"
    assert main(["extend", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: NotInClass: ") and "xi=1.0" in err
    assert "Traceback" not in err


_COLD_START_PROBE = """
import sys
from ultraext.cli import main
code = main(["extend", "--config", sys.argv[1], "--out", sys.argv[2]])
unwanted = ("numpy.ma", "numpy.random", "numpy.polynomial", "dataclasses")
print(code, [m for m in unwanted if m in sys.modules])
"""


def test_extend_job_imports_no_masked_random_or_polynomial_numpy(tmp_path, monkeypatch):
    # Each of these imports costs an extend job milliseconds and MB of
    # RSS at every start; none is needed (dataclasses also generates the
    # code of every decorated class at import).  A fresh interpreter,
    # since the test session itself has them loaded.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import README_CONFIG

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # Only a jet of several points reaches certify's pair table.
    for name, doc in [("readme", README_CONFIG), ("cluster", CLUSTER_EXTEND)]:
        cfg = write_config(tmp_path, doc, f"{name}.json")
        run = subprocess.run(
            [sys.executable, "-c", _COLD_START_PROBE, cfg, str(tmp_path / name)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.splitlines()[-1] == f"{EXIT_OK} []", name


def test_cluster_certify_sends_few_remainder_entries_through_libm(tmp_path, monkeypatch):
    # The cluster jet has 27,776 nonzero remainder entries.  certify once
    # took math.log and math.exp of each; numpy now picks the few that
    # can decide C, rho or a margin, and only those reach libm.
    sent, jets = [], []
    real_libm, real_certify = ultrajets.libm, cli.certify
    monkeypatch.setattr(ultrajets, "libm", lambda fn, v: sent.append(v.size) or real_libm(fn, v))
    monkeypatch.setattr(cli, "certify", lambda jet, *a, **kw: jets.append(jet) or real_certify(jet, *a, **kw))
    cfg = write_config(tmp_path, CLUSTER_EXTEND)
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    through_libm = sum(sent)
    entries = ultrajets._remainder_table(jets[0])[0].size
    assert entries == 27776
    assert 0 < through_libm <= 0.01 * entries  # 56 pair gaps plus 71 entries


def test_dense_audit_sends_few_table_entries_through_libm(tmp_path, monkeypatch):
    # On the audit_dense config the per-entry audit took math.log and
    # math.exp of 109,952 entries of its ratio tables, besides four
    # per-sample logs (86 interval and 3 x 2000 sample entries), which
    # stay.  numpy now fills the tables; only the entries that can decide
    # a column or distance-bin maximum reach libm.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import CONFIGS

    sent = {}
    real_libm = extension_engine.libm

    def counted(fn, values):
        caller = sys._getframe(1).f_code.co_name
        sent[caller] = sent.get(caller, 0) + values.size
        return real_libm(fn, values)

    monkeypatch.setattr(extension_engine, "libm", counted)
    cfg = write_config(tmp_path, CONFIGS["audit_dense"])
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert sent.pop("verify_bounds") == 86 + 3 * 2000
    through_libm = sum(sent.values())
    assert set(sent) == {"_bound_ratios", "_log_envelope"}
    assert 0 < through_libm <= 0.01 * 109_952  # 920 entries
