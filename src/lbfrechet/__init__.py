"""Frechet-type distances between uncertain 1D polygonal curves.

Curves live on the real line, vertices may be precise points, closed
intervals, or finite sets of candidate positions.  All arithmetic is exact
rational arithmetic; nothing in here touches floating point.
"""

from .model import (
    CurveFormatError,
    FiniteSet,
    Interval,
    Precise,
    Scalar,
    UncertainCurve,
    curve_from_json,
    curve_to_json,
    format_scalar,
    growing_curve,
    image,
    is_realisation,
    parse_scalar,
    reverse,
)
from .regions import ClipBox, Cone, Region
from .lower_bound import LbDecision, clip_box_for, compute_lb, decide_lb, extract_witness
from .precise import (
    discrete_frechet,
    discrete_weak,
    frechet_decide,
    frechet_value,
    r_dp,
    rm_dp,
    weak_frechet_1d,
)
from .oracle import CapExceeded, EnumerationSpec, bound_oracle, enumerate_realisations
from .weak_uncertain import candidate_deltas, candidate_positions, wfr_min_decide, wfr_min_value
from .reductions import (
    CnfFormula,
    GadgetCheck,
    ReductionError,
    ReductionInstance,
    VerifyReport,
    build_ub_sat,
    build_weak_discrete_imprecise,
    build_weak_discrete_indecisive,
    check_ub_gadgets,
    lift_to_2d,
    parse_dimacs,
    satisfiable,
    verify_reduction,
)

__all__ = [
    "CapExceeded",
    "ClipBox",
    "CnfFormula",
    "Cone",
    "CurveFormatError",
    "EnumerationSpec",
    "FiniteSet",
    "GadgetCheck",
    "Interval",
    "LbDecision",
    "Precise",
    "Region",
    "ReductionError",
    "ReductionInstance",
    "Scalar",
    "UncertainCurve",
    "VerifyReport",
    "bound_oracle",
    "build_ub_sat",
    "build_weak_discrete_imprecise",
    "build_weak_discrete_indecisive",
    "candidate_deltas",
    "candidate_positions",
    "check_ub_gadgets",
    "clip_box_for",
    "compute_lb",
    "curve_from_json",
    "curve_to_json",
    "decide_lb",
    "discrete_frechet",
    "discrete_weak",
    "enumerate_realisations",
    "extract_witness",
    "format_scalar",
    "frechet_decide",
    "frechet_value",
    "growing_curve",
    "image",
    "is_realisation",
    "lift_to_2d",
    "parse_dimacs",
    "parse_scalar",
    "r_dp",
    "reverse",
    "rm_dp",
    "satisfiable",
    "verify_reduction",
    "wfr_min_decide",
    "wfr_min_value",
    "weak_frechet_1d",
]
