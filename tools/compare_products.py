"""Compare the extend products of two checkouts, job by job.

    python tools/compare_products.py PARENT CHANGE

Each config of bench/workloads.CONFIGS (read from CHANGE) runs at seeds
41 and 5 as ``python -m ultraext.cli extend --config ... --out ...
--seed S`` against each checkout's src/, with a fresh output directory
per job.  The output path is masked in stdout and stderr.  One line per
job gives both exit codes and lists which of stdout, stderr and the
three products differ; the exit code is 1 on any difference, else 0.
The summary line also gives each checkout's src/ line count, the
lines of src/ultraext/*.py as ``wc -l`` counts them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (41, 5)
PRODUCTS = ("bound_report.json", "extension_samples.csv", "boundary_limits.csv")
MASK = "<out>"


def run_job(checkout: Path, config: Path, out: Path, seed: int) -> dict:
    """Exit code, masked stdout and stderr, and the product bytes (None if absent) of one job."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "ultraext.cli", "extend", "--config", str(config),
            "--out", str(out), "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    result = {
        "exit": proc.returncode,
        "stdout": proc.stdout.replace(str(out), MASK),
        "stderr": proc.stderr.replace(str(out), MASK),
    }
    for name in PRODUCTS:
        path = out / name
        result[name] = path.read_bytes() if path.exists() else None
    return result


def src_lines(checkout: Path) -> int:
    """Newlines in the checkout's src/ultraext/*.py, the total of ``wc -l``."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "ultraext").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare the extend products of two checkouts.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    sys.path.insert(0, str(change / "bench"))
    from workloads import CONFIGS

    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, cfg in CONFIGS.items():
            config = work / f"{name}.json"
            config.write_text(json.dumps(cfg))
            for seed in SEEDS:
                runs = [
                    run_job(checkout, config, work / f"{side}-{name}-{seed}", seed)
                    for side, checkout in (("parent", parent), ("change", change))
                ]
                diff = [key for key in runs[0] if runs[0][key] != runs[1][key]]
                differing += bool(diff)
                verdict = "differ: " + ", ".join(diff) if diff else "identical"
                print(f"{name} seed={seed} exit={runs[0]['exit']}/{runs[1]['exit']} {verdict}")
    jobs = len(CONFIGS) * len(SEEDS)
    print(
        f"{jobs - differing} of {jobs} jobs identical; "
        f"src/ lines {src_lines(parent)} -> {src_lines(change)}"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
