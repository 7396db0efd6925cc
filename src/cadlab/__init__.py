"""cadlab: cylindrical algebraic decomposition with pluggable choice heuristics."""

from .cadbuild import CADTree, build_cad, evaluate_formula_on_cells, open_cad_fulldim
from .formulas import Atom, BoolOp, Const, Formula
from .groebner import MonomialOrder, buchberger, normal_form
from .heuristics import (
    brown_order,
    gb_precondition_decision,
    ml_features,
    order_by_fulldim,
    order_by_ndrr,
    order_by_sotd,
    tnoi,
)
from .ordering import QuantifierBlock, VarOrdering, admissible_orderings
from .polys import Poly, degree_stats, discriminant, resultant, squarefree_primitive_basis
from .probjson import emit_json, parse_json
from .problem import Problem
from .projection import mccallum_project, projection_levels, reduced_ec_project, sotd_value
from .randgen import RandomProfile, random_problems
from .realroots import AlgebraicNumber, compare, count_distinct_real_roots, isolate_real_roots
from .smtlib import parse_smtlib

__all__ = [
    "CADTree", "build_cad", "evaluate_formula_on_cells", "open_cad_fulldim",
    "Atom", "BoolOp", "Const", "Formula",
    "MonomialOrder", "buchberger", "normal_form",
    "brown_order", "gb_precondition_decision", "ml_features", "order_by_fulldim",
    "order_by_ndrr", "order_by_sotd", "sotd_value", "tnoi",
    "QuantifierBlock", "VarOrdering", "admissible_orderings",
    "Poly", "degree_stats", "discriminant", "resultant", "squarefree_primitive_basis",
    "emit_json", "parse_json",
    "Problem",
    "mccallum_project", "projection_levels", "reduced_ec_project",
    "RandomProfile", "random_problems",
    "AlgebraicNumber", "compare", "count_distinct_real_roots", "isolate_real_roots",
    "parse_smtlib",
]

__version__ = "0.1.0"
