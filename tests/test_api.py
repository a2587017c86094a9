"""The public API: the names ``cobord`` exports, the README tour that uses them,
and the module layering that keeps every import at module level."""

import ast
from pathlib import Path

import cobord

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(cobord.__file__).resolve().parent

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


def _function_imports(tree):
    """(function name, line) of every import inside a function body."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    out.append((fn.name, node.lineno))
    return out


def test_no_module_imports_inside_a_function():
    # cmd_verify's import keeps the check registry out of cold queries
    allowed = {("cli.py", "cmd_verify")}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 13
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, name, line) for name, line in _function_imports(tree)
                  if (path.name, name) not in allowed]
    assert found == []


def test_the_function_import_scan_sees_nested_imports():
    tree = ast.parse("def f():\n    if x:\n        from . import y\n"
                     "class C:\n    def g(self):\n        import z\nimport w\n")
    assert _function_imports(tree) == [("f", 3), ("g", 6)]
