"""Weight-sequence calculus and constructive ultradifferentiable extension in 1-D.

The modules follow the pipeline: sequence-level transforms
(``seq_calculus``), weight functions and their asymptotic classification
(``weight_functions``), one-parameter sequence families and their
regularization (``matrix_calculus``), proportional interval covers
(``whitney_geometry``), exact piecewise-polynomial partitions of unity
(``partition_of_unity``), jets with growth certificates (``ultrajets``),
and the assembled extension operator with its bound audit
(``extension_engine``).  ``cli`` drives one-shot jobs from JSON configs.
"""

from __future__ import annotations

from .extension_engine import (
    ExtensionPlan,
    assemble,
    boundary_limits,
    eval_derivative,
    make_plan,
    verify_bounds,
)
from .matrix_calculus import (
    WeightMatrix,
    associated_matrix,
    interleave_matrix,
    lemma8_regularize,
    sandwich_H,
    strong_regularization,
)
from .partition_of_unity import Partition, build_partition
from .seq_calculus import (
    WeightSequence,
    associated_weight,
    counting_index,
    h_function,
    log_convex_minorant,
)
from .ultrajets import TaylorPolynomial, UltraJet, certify, polynomial_jet
from .weight_functions import WeightFunction, classify, equivalent
from .whitney_geometry import CompactSet1D, WhitneyCover, build_cover, verify_eq14

__version__ = "0.1.0"

__all__ = [
    "CompactSet1D",
    "ExtensionPlan",
    "Partition",
    "TaylorPolynomial",
    "UltraJet",
    "WeightFunction",
    "WeightMatrix",
    "WeightSequence",
    "WhitneyCover",
    "assemble",
    "associated_matrix",
    "associated_weight",
    "boundary_limits",
    "build_cover",
    "build_partition",
    "certify",
    "classify",
    "counting_index",
    "equivalent",
    "eval_derivative",
    "h_function",
    "interleave_matrix",
    "lemma8_regularize",
    "log_convex_minorant",
    "make_plan",
    "polynomial_jet",
    "sandwich_H",
    "strong_regularization",
    "verify_bounds",
    "verify_eq14",
]
