"""Job configs of the benchmark workloads, the known-fault probes and the sweep.

Every config is fixed here; the run seed reaches the program only through
the CLI's ``--seed`` flag, which moves the jitter of the sample trace.
"""

from __future__ import annotations

import copy

# The README `extend` config, verbatim.
README_CONFIG = {
    "weight": {"family": "power", "parameters": {"exponent": 0.5}},
    "k": 64,
    "jet": {"kind": "gevrey", "set": {"points": [0.0]}, "alpha_max": 32, "xi": 1.0},
    "run": {"samples": 240, "alpha_cap": 8},
    "seed": 7,
}

# Eight points with irregular, non-dyadic gaps over about [0, 1.8].
CLUSTER_POINTS = (0.0, 0.23, 0.51, 0.7, 1.04, 1.3, 1.62, 1.81)


def _variant(edit) -> dict:
    cfg = copy.deepcopy(README_CONFIG)
    edit(cfg)
    return cfg


def _points(points):
    def edit(cfg: dict) -> None:
        cfg["jet"]["set"] = {"points": list(points)}

    return edit


def _dense(cfg: dict) -> None:
    cfg["run"]["samples"] = 2000
    cfg["run"]["csv_samples"] = 400


def _interval(cfg: dict) -> None:
    cfg["jet"]["set"] = {"intervals": [[-1.0, 0.0]]}


def _sparse(cfg: dict) -> None:
    cfg["run"]["samples"] = 32


# name -> (config, timed jobs per round, probes per round).  Probes run
# untimed after the round's jobs, so every round attempts the same
# operations and the failed share is the same in every run.
WORKLOADS = {
    "extend_readme": (README_CONFIG, 2, ("interval_default_base", "sparse_audit")),
    "extend_cluster": (_variant(_points(CLUSTER_POINTS)), 1, ()),
    "audit_dense": (_variant(_dense), 1, ()),
}

# Known faults of the program, each one README config with one edit.
#   interval_default_base: the default boundary base is the interval's
#     left end, and the descent a + 2^-j walks into the set (exit 1,
#     PrecisionFloor).
#   sparse_audit: 32 audit samples leave too few points in the trend
#     window and decade_trend raises ValueError (exit 1) where an
#     inconclusive verdict with exit code 2 is documented.
PROBES = {
    "interval_default_base": _variant(_interval),
    "sparse_audit": _variant(_sparse),
}

# Set sizes of the scaling sweep: the README job on the first n cluster points.
SWEEP_SIZES = (1, 2, 4, 8)

# Every config a run writes, by name.
CONFIGS = {
    **{name: cfg for name, (cfg, _, _) in WORKLOADS.items()},
    **PROBES,
    **{f"sweep_p{n}": _variant(_points(CLUSTER_POINTS[:n])) for n in SWEEP_SIZES},
}
