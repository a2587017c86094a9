"""The public API: the names ``cobord`` exports, and the README tour that uses them."""

import ast
from pathlib import Path

import cobord

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = (
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
)


def test_all_is_the_pinned_public_api():
    assert tuple(cobord.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(cobord, name) is not None, name


def _quick_tour() -> str:
    text = README.read_text()
    after = text.split("A quick tour:", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_prints_what_its_comments_say():
    # each bare expression's trailing comment is its expected repr
    tour = _quick_tour()
    lines = tour.splitlines()
    env, results = {}, []
    for node in ast.parse(tour).body:
        code = ast.get_source_segment(tour, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            results.append((repr(eval(code, env)), comment))
        else:
            exec(code, env)
    assert results == [("True", "True"), ("2", "2")]
