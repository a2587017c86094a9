"""Exact computer algebra for the Lazard ring.

Computes Chern-number packages of standard varieties, polynomial
generator coordinates, Landweber-ideal membership and reduction, and the
fixed-point / fixed-locus-dimension verdicts for actions of finite
diagonalizable p-groups, all in exact integer arithmetic; only generator
coordinates are ever reduced mod p.
"""

from ._backend import KERNEL_IMPL
from .actions import (
    ActionWitness,
    GroupDescriptor,
    filtration_family,
    generator_action,
    landweber_variety,
    milnor_fixed_dim,
)
from .bounds import (
    BoundReport,
    chern_bound,
    d_alpha,
    fixed_dim_lower_bound,
    has_forced_fixed_point,
)
from .fgl import FglContext, context
from .geometry import (
    CobordismClass,
    CompInt,
    DisjointUnion,
    Hyp,
    Milnor,
    Point,
    Product,
    Proj,
    Scaled,
    TruncationError,
    VarietyExpr,
    evaluate,
    parse_expr,
)
from .lazard import (
    NEG_INF,
    GeneratorBasis,
    GenPoly,
    NotInLazardImage,
    adapted_basis,
    base_basis,
    c_alpha_image_gcd,
    in_landweber_ideal,
    is_indecomposable_mod_p,
    reduce_mod_landweber,
)
from .partitions import (
    Partition,
    in_admissible_class,
    partitions_of,
    pi_q,
    refines,
    union,
)
from .series import BPoly, DEFAULT_TRUNCATION, TruncSeries

__version__ = "0.1.0"

__all__ = [
    "ActionWitness",
    "BPoly",
    "BoundReport",
    "CobordismClass",
    "CompInt",
    "DEFAULT_TRUNCATION",
    "DisjointUnion",
    "FglContext",
    "GenPoly",
    "GeneratorBasis",
    "GroupDescriptor",
    "Hyp",
    "KERNEL_IMPL",
    "Milnor",
    "NEG_INF",
    "NotInLazardImage",
    "Partition",
    "Point",
    "Product",
    "Proj",
    "Scaled",
    "TruncSeries",
    "TruncationError",
    "VarietyExpr",
    "adapted_basis",
    "base_basis",
    "c_alpha_image_gcd",
    "chern_bound",
    "context",
    "d_alpha",
    "evaluate",
    "filtration_family",
    "fixed_dim_lower_bound",
    "generator_action",
    "has_forced_fixed_point",
    "in_admissible_class",
    "in_landweber_ideal",
    "is_indecomposable_mod_p",
    "landweber_variety",
    "milnor_fixed_dim",
    "parse_expr",
    "partitions_of",
    "pi_q",
    "reduce_mod_landweber",
    "refines",
    "union",
]
