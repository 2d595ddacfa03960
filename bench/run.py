#!/usr/bin/env python3
"""Benchmark of the `ultraext extend` job.

Run from the repository root:

    python3 bench/run.py --workload extend_readme --seed 1 --seconds 35 --trace 0

--trace 0 times whole CLI processes, one at a time, in rounds until the
given seconds are spent (a round starts only if it is expected to end in
time).  Each job of a round is preceded by a fresh interpreter that only
imports ultraext.cli, and bracketed by two runs of reference.py, a fixed
piece of CPU work that imports nothing of ultraext and gauges how fast the
shared host runs at that moment.  It reports medians over the jobs of the
run:
  job_ref      wall time of one `ultraext extend` process, spawn to exit,
               over the mean wall time of the two reference runs around it
  cpu_ref      user + system CPU time of that process (wait4 rusage) over
               the mean CPU time of the same two reference runs
  peak_rss_mb  its peak resident memory, wait4 rusage
  setup_s      wall time of the import-only interpreter, in seconds
The raw seconds of every job and reference run go to stderr.
--trace 1 runs the job in this process through `cli.main`, alternating a
run with span wrappers at every layer boundary (see tracing.py) and one
without, and reports per-layer medians, the tracing overhead and a
1/2/4/8-point assembly sweep.  The spans of the first traced job and the
sweep go to .bench_work/traces/.

Outside every timing, the products of each job are checked (checks.py)
and each check is shown to reject a corrupted product.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One job process at a time on a small machine: keep every BLAS pool,
# here and in the children, at one thread.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import CONFIGS, SWEEP_SIZES, WORKLOADS  # noqa: E402

SETUP_ARGV = [sys.executable, "-c", "import ultraext.cli"]
REFERENCE_ARGV = [sys.executable, str(BENCH / "reference.py")]
IMPORT_ARGV = [
    sys.executable, "-c",
    "import time; t = time.perf_counter(); import ultraext.cli; "
    "print(time.perf_counter() - t)",
]
IMPORT_SAMPLES = 5


class Stop(BaseException):
    """Ends an in-process job once its extension is built.

    A BaseException, so the CLI's own error handling lets it through.
    """


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        _, self.jobs_per_round, self.probes = WORKLOADS[workload]
        self.dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # config name -> products of every completed job, in run order
        self.products: dict[str, list[dict[str, bytes]]] = {}
        self._jobs = 0

    # -- processes ------------------------------------------------------

    def config_path(self, name: str) -> Path:
        path = self.dir / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(CONFIGS[name], indent=2))
        return path

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int, str]:
        """(wall s, cpu s, peak rss MB, exit code, stderr) of one process."""
        err_path = self.dir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            err_path.read_text(errors="replace").strip(),
        )

    def job(self, name: str):
        """One `ultraext extend` process; its measurements, or None if it failed."""
        self._jobs += 1
        out = self.dir / f"out{self._jobs}"
        argv = [sys.executable, "-m", "ultraext.cli", "extend",
                "--config", str(self.config_path(name)), "--out", str(out),
                "--seed", str(self.seed)]
        wall, cpu, rss, code, err = self.spawn(argv)
        self.attempted += 1
        # 2 is the CLI's honest negative: a probe that ends so has written
        # its products.  The workload's own job must pass its audit.
        if code not in ((0, 2) if name in self.probes else (0,)):
            self.failed += 1
            last = err.splitlines()[-1] if err else ""
            print(f"{name}: exit {code}: {last}", file=sys.stderr)
            return None
        self.products.setdefault(name, []).append(take_products(out))
        return wall, cpu, rss

    def setup_time(self) -> float:
        wall, _, _, code, err = self.spawn(SETUP_ARGV)
        if code != 0:
            raise RuntimeError(f"importing ultraext.cli failed: {err}")
        return wall

    def rounds(self, round_fn) -> None:
        """Whole rounds until the next one would overrun the run length."""
        start = time.perf_counter()
        n = 0
        while True:
            round_fn()
            for probe in self.probes:
                self.job(probe)
            n += 1
            spent = time.perf_counter() - start
            if spent + spent / n > self.seconds:
                return

    # -- checks ---------------------------------------------------------

    def extension(self, name: str, cli, capture_only: bool = True):
        """The ExtensionFunction the CLI builds for a config, from `cli.main`."""
        built = []

        def keep(result):
            built.append(result)
            if capture_only:
                raise Stop
            return result

        original = cli.assemble
        cli.assemble = lambda *a, **k: keep(original(*a, **k))
        out = self.dir / f"oracle-{name}"
        try:
            self.main(cli, name, out)
        except Stop:
            pass
        finally:
            cli.assemble = original
        shutil.rmtree(out, ignore_errors=True)
        if not built:
            raise checks.CheckError(f"{name}: the job built no extension")
        return built[0]

    def main(self, cli, name: str, out: Path) -> int:
        """`cli.main` on a config in this process, its stdout dropped."""
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["extend", "--config", str(self.config_path(name)),
                             "--out", str(out), "--seed", str(self.seed)])

    def check_all(self, cli, extensions: dict | None = None) -> None:
        """(a)-(c) on each config's first products, (d) on the rest, self-test."""
        extensions = dict(extensions or {})
        for name, runs in self.products.items():
            try:
                if name not in extensions:
                    extensions[name] = self.extension(name, cli)
                ext = extensions[name]
                counts = checks.check_job(runs[0], ext, self.seed)
                if name == self.workload:
                    checks.check_verdict(runs[0])
                for other in runs[1:]:
                    checks.check_identical(runs[0], other)
                print(f"{name}: {len(runs)} job(s) pass; {counts}", file=sys.stderr)
                if name == self.workload:
                    missed = checks.self_test(runs[0], ext, self.seed)
                    if missed:
                        raise checks.CheckError(f"self-test: checks accepted {missed}")
            except checks.CheckError as err:
                self.problems.append(f"{name}: {err}")
        if self.workload not in self.products:
            self.problems.append(f"{self.workload}: no job completed")

    def sweep(self, cli) -> dict[int, dict]:
        """Traced assembly of the README job on the first 1/2/4/8 cluster points."""
        out = {}
        for n in SWEEP_SIZES:
            rec = tracing.Recorder()
            with tracing.traced(rec):
                self.extension(f"sweep_p{n}", cli)
            total, own, _, _ = rec.times()
            out[n] = {
                "assemble_s": total["extension_engine.assemble"],
                "assemble_self_s": own["extension_engine.assemble"],
                "cover_s": total["whitney_geometry.build_cover"],
                "bumps_s": total["partition_of_unity.build_bump"],
                "partition_s": total["partition_of_unity.Partition.from_bumps"],
                "coverage_check_s": own["partition_of_unity.build_partition"],
                "degree_rule_s": total["seq_calculus.counting_index"],
                "taylor_table_s": total["ultrajets.taylor_poly"],
                "intervals": rec.counts["intervals"],
                "pieces": rec.counts["pieces"],
            }
        return out

    def result(self, metrics: dict) -> dict:
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    # -- modes ----------------------------------------------------------

    def reference(self) -> tuple[float, float]:
        """(wall s, cpu s) of one reference.py process."""
        wall, cpu, _, code, err = self.spawn(REFERENCE_ARGV)
        if code != 0:
            raise RuntimeError(f"reference.py failed: {err}")
        return wall, cpu

    def timed(self) -> dict:
        samples = {k: [] for k in ("job_s", "cpu_s", "ref_s", "ref_cpu_s", "setup_s")}
        job_ref, cpu_ref, rss = [], [], []
        self.setup_time()  # compiles bytecode on a fresh checkout; not reported

        def round_fn():
            for _ in range(self.jobs_per_round):
                samples["setup_s"].append(self.setup_time())
                before = self.reference()
                done = self.job(self.workload)
                after = self.reference()
                if done:
                    # The gauge of this job: the reference just before and after it.
                    ref = [(b + a) / 2.0 for b, a in zip(before, after)]
                    job_ref.append(done[0] / ref[0])
                    cpu_ref.append(done[1] / ref[1])
                    rss.append(done[2])
                    samples["job_s"].append(done[0])
                    samples["cpu_s"].append(done[1])
                    samples["ref_s"].append(ref[0])
                    samples["ref_cpu_s"].append(ref[1])

        self.rounds(round_fn)
        for name, values in samples.items():
            if not values:
                continue
            print(f"{name} samples: {' '.join(f'{v:.4f}' for v in values)} "
                  f"(median {statistics.median(values):.4f})", file=sys.stderr)
        metrics = {}
        if job_ref:
            metrics = {
                "job_ref": {"value": statistics.median(job_ref), "unit": "ref"},
                "cpu_ref": {"value": statistics.median(cpu_ref), "unit": "ref"},
                "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
                "setup_s": {"value": statistics.median(samples["setup_s"]), "unit": "s"},
            }
        self.check_all(import_cli())
        return self.result(metrics)

    def traced(self) -> dict:
        imports = []
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run(IMPORT_ARGV, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, check=True)
            imports.append(float(proc.stdout.strip()))
        cli = import_cli()

        # Warm-up job: fills lazy state and yields the oracle's extension.
        ext = self.extension(self.workload, cli, capture_only=False)
        rows, first = [], []

        def collect(code: int, out: Path) -> bool:
            self.attempted += 1
            if code != 0:
                self.failed += 1
                return False
            self.products.setdefault(self.workload, []).append(take_products(out))
            return True

        def traced_job(rec):
            out = self.dir / "traced"
            with tracing.traced(rec):
                code = rec.call("cli.main", self.main, cli, self.workload, out)
            return collect(code, out)

        def plain_job():
            out = self.dir / "plain"
            start = time.perf_counter()
            code = self.main(cli, self.workload, out)
            plain = time.perf_counter() - start
            return plain if collect(code, out) else None

        def round_fn():
            # Alternate which of the pair runs first.
            rec = tracing.Recorder()
            if len(rows) % 2:
                plain = plain_job()
                traced_ok = traced_job(rec)
            else:
                traced_ok = traced_job(rec)
                plain = plain_job()
            if traced_ok and plain is not None:
                row = tracing.job_metrics(rec)
                row["cli.job_untraced_s"] = plain
                rows.append(row)
                if not first:
                    tracing.check_fired(rec)
                    first.append(rec)

        self.rounds(round_fn)
        metrics = {}
        if rows:
            med = tracing.medians(rows)
            med["cli.import_s"] = statistics.median(imports)
            med["tracing.overhead_pct"] = 100.0 * statistics.median(
                r["cli.job_s"] / r["cli.job_untraced_s"] - 1.0 for r in rows)
            sweep = self.sweep(cli)
            for n, row in sweep.items():
                for key in ("assemble_s", "intervals", "pieces"):
                    med[f"sweep.p{n}.{key}"] = row[key]
            if set(med) != set(PER_LAYER):
                raise RuntimeError(f"per-layer table and output differ: {set(med) ^ set(PER_LAYER)}")
            write_trace(self, first[0], med, sweep)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(med.items())}
        self.check_all(cli, {self.workload: ext})
        return self.result(metrics)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [
    "cli.import_s", "cli.job_s", "cli.job_untraced_s", "cli.job_self_s", "cli.write_s",
    "cli.output_bytes", "tracing.overhead_pct",
    "weight_functions.conjugate_s", "matrix_calculus.associated_s",
    "matrix_calculus.regularize_s", "matrix_calculus.interleave_s",
    "seq_calculus.degree_rule_s", "seq_calculus.degree_rule_calls",
    "ultrajets.certify_s", "ultrajets.certify_pairs", "ultrajets.taylor_table_s",
    "ultrajets.taylor_eval_s", "ultrajets.taylor_eval_calls",
    "whitney_geometry.cover_s", "whitney_geometry.intervals",
    "partition_of_unity.bumps_s", "partition_of_unity.partition_s",
    "partition_of_unity.coverage_check_s", "partition_of_unity.pieces",
    "partition_of_unity.bump_breakpoints", "partition_of_unity.live_bumps_max",
    "partition_of_unity.collapsed_bumps", "partition_of_unity.derivatives_s",
    "partition_of_unity.derivatives_calls",
    "extension_engine.plan_s", "extension_engine.assemble_s",
    "extension_engine.assemble_self_s", "extension_engine.verify_s",
    "extension_engine.verify_self_s", "extension_engine.audit_samples",
    "extension_engine.audit_skipped", "extension_engine.trace_s",
    "extension_engine.eval_calls", "extension_engine.boundary_s",
    "extension_engine.boundary_steps",
] + [f"sweep.p{n}.{k}" for n in SWEEP_SIZES for k in ("assemble_s", "intervals", "pieces")]
UNITS = {name: _unit(name) for name in PER_LAYER}


def take_products(out: Path) -> dict[str, bytes]:
    """The products a job wrote to `out`, which is then removed."""
    found = {p: (out / p).read_bytes() for p in checks.PRODUCTS if (out / p).exists()}
    shutil.rmtree(out, ignore_errors=True)
    return found


def import_cli():
    """ultraext.cli from this checkout's sources."""
    sys.path.insert(0, str(SRC))
    from ultraext import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def write_trace(bench: Bench, rec, metrics: dict, sweep: dict) -> None:
    path = WORK / "traces" / f"{bench.workload}-seed{bench.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": bench.workload, "seed": bench.seed, "metrics": metrics,
           "sweep": sweep, **rec.dump()}
    path.write_text(json.dumps(doc, separators=(",", ":")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ultraext" / "cli.py").is_file():
        print(f"no ultraext sources under {SRC}; run from a checkout", file=sys.stderr)
        return 1
    # A terminated run still kills its running job and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process and every child: the host slows its CPUs
    # separately, and a job and the reference runs that gauge it must see
    # the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(args.workload, args.seed, args.seconds)
    bench.dir.mkdir(parents=True)
    try:
        result = bench.traced() if args.trace else bench.timed()
    except tracing.MissingLayer as err:
        print(f"tracing table out of date: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
