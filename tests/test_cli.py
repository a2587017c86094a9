import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cobord import actions, cli, fgl, geometry, lazard


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_class_json_round_trip(capsys):
    code, out, _ = run(["class", '{"hyp":[3,2]}'], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2
    chern = {tuple(t["partition"]): int(t["value"]) for t in obj["chern_numbers"]}
    assert chern[(2,)] == 15
    # re-parsing the emitted expression yields an equal class
    expr = geometry.parse_expr(obj["expr"])
    cl = geometry.evaluate(expr, 12)
    assert {tuple(k): v for k, v in cl.image.terms.items()} == chern


def test_class_deterministic_output(capsys):
    code1, out1, _ = run(["class", '{"prod":[{"proj":2},{"hyp":[3,4]}]}'], capsys)
    code2, out2, _ = run(["class", '{"prod":[{"proj":2},{"hyp":[3,4]}]}'], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_class_table_format(capsys):
    code, out, _ = run(["class", '{"proj":1}', "--format", "table"], capsys)
    assert code == 0
    assert "c_[1] = -2" in out


def test_bound_command(capsys):
    code, out, _ = run(["bound", '{"hyp":[3,4]}', "--p", "2", "--group", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["lower_bound"] == 2
    assert obj["in_ideal"] is False

    code, out, _ = run(["bound", '{"proj":1}', "--p", "2", "--group", "1,1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["lower_bound"] is None
    assert obj["in_ideal"] is True


def test_fixedpoint_command(capsys):
    code, out, _ = run(
        ["fixedpoint", '{"proj":2}', "--p", "2", "--group", "1,1"], capsys
    )
    assert code == 0
    assert json.loads(out)["forced_fixed_point"] is True

    code, out, _ = run(
        ["fixedpoint", '{"hyp":[2,1]}', "--p", "2", "--group", "1,1"], capsys
    )
    assert json.loads(out)["forced_fixed_point"] is False


def test_chern_bound_command(capsys):
    code, out, _ = run(
        ["chern-bound", '{"hyp":[3,4]}', "--alpha", "4", "--p", "2", "--group", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["bound"] == 2


def test_actions_command(capsys):
    code, out, _ = run(
        ["actions", "--generator", "3", "--p", "2", "--group", "1"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["witnesses"]) == 2

    code, out, _ = run(
        ["actions", "--landweber", "1", "--p", "2", "--group", "1,1"], capsys
    )
    assert code == 0
    assert json.loads(out)["witnesses"][0]["fixed_dim"] is None

    code, out, _ = run(
        ["actions", "--family", "0", "--max-dim", "2", "--p", "2", "--group", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["witnesses"]


def test_actions_requires_mode(capsys):
    code, out, err = run(["actions", "--p", "2", "--group", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: pick one of --generator, --landweber, --family\n"


@pytest.mark.parametrize("modes", [
    ["--generator", "3", "--landweber", "1"],
    ["--landweber", "1", "--family", "0"],
    ["--generator", "3", "--family", "0"],
    ["--generator", "3", "--landweber", "1", "--family", "0"],
])
def test_actions_refuses_a_second_mode(modes, capsys):
    code, out, err = run(["actions", *modes, "--p", "2", "--group", "1,1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: pick one of --generator, --landweber, --family\n"


@pytest.mark.parametrize("depth", [300, 5000])
def test_a_deeply_nested_expression_is_a_one_line_error(depth, capsys):
    # the JSON decoder, the parser or evaluate runs out of stack: at 5,000
    # the decoder on every supported Python, at 300 it depends on the stack
    text = '{"prod":[' * depth + '"point"' + ']}' * depth
    code, out, err = run(["bound", text, "--p", "2", "--group", "1"], capsys)
    if depth == 5000 or code:
        assert (code, out, err) == (1, "", "error: expression nested too deeply\n")
    else:
        point = run(["bound", "point", "--p", "2", "--group", "1"], capsys)
        assert (code, out, err) == (0, point[1].replace('"point"', text, 1), "")
    # the failed query leaves this process answering like a fresh one
    argv = ["bound", '{"prod":[{"hyp":[3,4]},{"proj":2}]}', "--p", "2", "--group", "1"]
    fresh = subprocess.run([sys.executable, "-m", "cobord.cli", *argv], capture_output=True,
                           text=True, env=dict(os.environ,
                                               PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert run(argv, capsys) == (0, fresh.stdout, "") and fresh.returncode == 0


def test_invalid_json_is_an_error(capsys):
    code, out, err = run(["class", "{broken"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid JSON expression: ")
    assert err.count("\n") == 1


def test_unknown_constructor_is_an_error(capsys):
    code, out, err = run(["class", '{"sphere": 2}'], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: unknown constructor 'sphere'\n"


def test_truncation_violation_is_hard_error(capsys):
    code, _, err = run(["class", '{"proj":9}', "--trunc", "8"], capsys)
    assert code == 1
    assert "truncation" in err


def test_a_mixed_dimension_product_beyond_the_truncation_is_an_error(capsys):
    # the components of dimension 3 and 4: 4 exceeds --trunc 3
    argv = ["bound", '{"prod":[{"disj":[{"proj":1},{"proj":2}]},{"proj":2}]}',
            "--p", "2", "--group", "1"]
    code, out, err = run(argv + ["--trunc", "3"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: dimension 4 exceeds truncation 3; raise the truncation\n"
    code, out, _ = run(argv + ["--trunc", "4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["lower_bound"] == 2
    assert obj["certificate"]["partition"] == [2, 2]


def test_trunc_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COBORD_TRUNC", "6")
    code, _, err = run(["class", '{"proj":7}'], capsys)
    assert code == 1
    assert "truncation" in err
    monkeypatch.delenv("COBORD_TRUNC")


def test_verify_fgl_suite(capsys):
    code, out, _ = run(["verify", "fgl", "--p", "2", "--trunc", "8"], capsys)
    assert code == 0
    assert "verify: OK" in out
    assert "FAIL" not in out


def test_verify_presentation_suite(capsys):
    code, out, _ = run(["verify", "presentation", "--p", "3", "--trunc", "10"], capsys)
    assert code == 0
    assert "verify: OK" in out


@pytest.mark.parametrize(
    "expr",
    ['{"prod":5}', '{"hyp":[true,2]}', '{"scale":[2.5,"point"]}', '{"proj":"3"}',
     '{"point":5}', '{"point":null}'],
)
def test_malformed_expression_is_a_one_line_error(expr, capsys):
    code, out, err = run(["class", expr], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "expr", ['{"hyp":[3,-1]}', '{"ci":[[2],-1]}', '{"ci":[[2,3],-2]}']
)
def test_negative_dimension_is_a_one_line_error(expr, capsys):
    # well-formed JSON, rejected when evaluated rather than when parsed
    code, out, err = run(["class", expr], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "n >= 0" in err
    assert err.count("\n") == 1


def test_negative_truncation_is_an_error(capsys):
    code, out, err = run(["verify", "fgl", "--trunc", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "truncation" in err


def test_trunc_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("COBORD_TRUNC", "abc")
    code, _, err = run(["class", "point"], capsys)
    assert code == 1
    assert err.startswith("error:") and "COBORD_TRUNC" in err


def test_bound_accepts_rank_beyond_truncation(capsys):
    # rank 5 adds v_4 in degree 15 > 12, which no class of degree <= 12 sees
    argv = ["bound", '{"hyp":[3,4]}', "--p", "2", "--group"]
    code, out, _ = run(argv + ["1,1,1,1,1"], capsys)
    assert code == 0
    rank5 = json.loads(out)
    code, out, _ = run(argv + ["1,1,1,1"], capsys)
    rank4 = json.loads(out)
    assert rank5["lower_bound"] == rank4["lower_bound"] == 0
    assert rank5["in_ideal"] == rank4["in_ideal"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "presentation", "--p", "2", "--trunc", "2"],
        ["verify", "all", "--p", "2", "--trunc", "0"],
        ["verify", "all", "--p", "3", "--trunc", "1"],
    ],
)
def test_verify_skips_presentation_cases_beyond_the_truncation(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "FAIL" not in out
    assert out.endswith("verify: OK\n")


def test_chern_bound_rejects_a_partition_beyond_the_truncation(capsys):
    argv = ["chern-bound", '{"hyp":[3,4]}', "--alpha", "13", "--p", "2", "--group", "1"]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "raise the truncation" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["soundness", "--p", "0"], ["fgl", "--p", "4"], ["fgl", "--p", "9"]]
)
def test_verify_rejects_a_non_prime_before_any_suite(argv, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {argv[2]} is not prime\n"


def test_actions_rejects_a_negative_landweber_index(capsys):
    code, out, err = run(["actions", "--landweber", "-1", "--p", "2", "--group", "1"],
                         capsys)
    assert code == 1
    assert out == ""
    assert err == "error: the Landweber index s must be >= 0, got -1\n"


@pytest.mark.parametrize("argv, dim", [
    (["--generator", "13", "--group", "1"], 13),
    (["--family", "1", "--max-dim", "20", "--group", "1"], 20),
    (["--landweber", "4", "--group", "1,1,1,1,1"], 15),
])
def test_actions_beyond_the_truncation_names_the_dimension(argv, dim, capsys):
    code, out, err = run(["actions", *argv, "--p", "2", "--trunc", "12"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: dimension {dim} exceeds truncation 12; raise the truncation\n"


def test_verify_rejects_a_negative_max_n_before_any_suite(capsys):
    code, out, err = run(["verify", "ideals", "--max-n", "-5"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --max-n must be >= 0, got -5\n"


@pytest.mark.parametrize(
    "flags", [["--family", "-1"], ["--family", "1", "--max-dim", "-1"]]
)
def test_actions_rejects_a_negative_level_or_budget(flags, capsys):
    code, out, err = run(["actions", *flags, "--p", "2", "--group", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_fgl_cross_checks_the_formal_inverse_route(capsys):
    code, out, _ = run(["verify", "fgl", "--p", "3", "--trunc", "8"], capsys)
    assert code == 0
    assert "[OK ] fgl: [-n](t) = i([n](t)) for 1 <= n <= 4\n" in out


@pytest.mark.parametrize("flag", [["--group", "1"], ["--format", "table"]])
def test_verify_rejects_the_flags_it_would_ignore(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", *flag])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""


def test_verify_suite_choices_are_the_registry_names():
    from cobord import checks

    assert cli.SUITE_NAMES == tuple(checks.SUITES)


def test_verify_all_passes_max_n_to_the_ideals_suite(capsys):
    code, out, _ = run(["verify", "all", "--max-n", "1", "--trunc", "4"], capsys)
    assert code == 0
    assert "[OK ] ideals: v_1 not in I_2(1)\n" in out
    assert "ideals: v_2" not in out  # max_n 2 or more would check v_2


@pytest.mark.parametrize("suite", ["fgl", "presentation", "soundness"])
def test_verify_rejects_max_n_for_a_suite_that_ignores_it(suite, capsys):
    code, out, err = run(["verify", suite, "--max-n", "9"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: --max-n applies only to the ideals suite, not {suite}\n"


def test_only_verify_imports_the_check_registry():
    # a fresh interpreter: this process has imported checks already
    def loaded(argv):
        code = (
            f"import sys; from cobord import cli; cli.main({argv!r}); "
            "print(sorted({'cobord.checks', 'cobord.equivariant'} & set(sys.modules)))"
        )
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return out.splitlines()[-1]

    assert loaded(["bound", '{"hyp":[3,4]}', "--p", "2", "--group", "1"]) == "[]"
    # the presentation suite lives in checks: verify loads no bundle algebra
    assert loaded(["verify", "presentation"]) == "['cobord.checks']"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["bound", '{"proj":2}', "--p", "2", "--group", "a"], "a"),
        (["fixedpoint", '{"proj":2}', "--group", "1,x"], "1,x"),
        (["actions", "--generator", "2", "--group", "1.5"], "1.5"),
        (["chern-bound", '{"proj":2}', "--alpha", "2", "--group", "1,,b"], "1,,b"),
    ],
)
def test_a_non_integer_group_field_names_the_flag(argv, text, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: --group needs comma-separated integers, got {text!r}\n"


@pytest.mark.parametrize("text", ["x", "2,1.0", "2,-"])
def test_a_non_integer_alpha_field_names_the_flag(text, capsys):
    code, out, err = run(["chern-bound", '{"hyp":[3,4]}', "--alpha", text, "--p", "2",
                          "--group", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: --alpha needs comma-separated integers, got {text!r}\n"


def test_group_and_alpha_fields_may_be_padded_or_empty(capsys):
    padded = run(["chern-bound", '{"hyp":[3,4]}', "--alpha", " 2, 2,", "--p", "2",
                  "--group", " 1, 1,"], capsys)
    plain = run(["chern-bound", '{"hyp":[3,4]}', "--alpha", "2,2", "--p", "2",
                 "--group", "1,1"], capsys)
    assert padded == plain
    assert plain[0] == 0 and json.loads(plain[1])["alpha"] == [2, 2]


# -- a query computes at its own weight -------------------------------------

CAPPED = """
import resource, sys
cap = 256 << 20  # a regression raises MemoryError here instead of swapping
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from cobord import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["class", '{"proj":12}'],
    ["bound", '{"disj":[{"proj":3},{"hyp":[3,6]}]}', "--p", "3", "--group", "1,1"],
    ["fixedpoint", '{"prod":[{"proj":2},{"milnor":[2,4]}]}', "--group", "1,1,1"],
    ["chern-bound", '{"proj":4}', "--alpha", "3,2", "--p", "2", "--group", "1"],
])
def test_a_huge_truncation_prints_the_answer_at_12(argv, capsys):
    # before, codec(10^6) alone needed memory quadratic in the truncation
    code, out, err = run(argv + ["--trunc", "12"], capsys)
    assert code == 0 and out and not err
    src = str(Path(cli.__file__).parents[1])
    res = subprocess.run([sys.executable, "-c", CAPPED, *argv, "--trunc", "1000000"],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (0, out, "")


@pytest.mark.parametrize("argv", [
    ["--generator", "3", "--p", "2", "--group", "1"],
    ["--family", "1", "--max-dim", "3", "--p", "3", "--group", "1"],
    ["--landweber", "1", "--p", "2", "--group", "1,1", "--format", "table"],
])
def test_actions_build_no_basis_at_any_truncation(argv, capsys, monkeypatch):
    # the witnesses are closed forms of their degrees; with the caches empty,
    # any basis would have to be built, and one at 10^6 would take hours
    caches = (lazard.base_basis, lazard.adapted_basis, fgl.context)
    for cache in caches:
        cache.cache_clear()

    def refuse(self, trunc, *args):
        raise AssertionError(f"a basis at truncation {trunc}")

    monkeypatch.setattr(lazard.GeneratorBasis, "__init__", refuse)
    try:
        small = run(["actions", *argv, "--trunc", "3"], capsys)
        huge = run(["actions", *argv, "--trunc", "1000000"], capsys)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert small[0] == 0 and small[1] and not small[2]
    assert huge == small


def test_chern_bound_computes_at_least_at_the_partition_weight(capsys):
    # the class has weight 4, the partition 6: c_alpha is 0, no bound
    code, out, _ = run(["chern-bound", '{"proj":4}', "--alpha", "3,3",
                        "--group", "1", "--trunc", "40"], capsys)
    assert code == 0 and json.loads(out)["bound"] is None
    code, _, err = run(["chern-bound", '{"proj":4}', "--alpha", "3,3",
                        "--group", "1", "--trunc", "5"], capsys)
    assert code == 1
    assert err == "error: partition weight 6 exceeds truncation 5; raise the truncation\n"


def test_a_bad_alpha_is_reported_after_the_class_as_before(capsys):
    code, _, err = run(["chern-bound", '{"proj":4}', "--alpha", "2,x", "--trunc", "3"],
                       capsys)
    assert (code, err) == (1, "error: dimension 4 exceeds truncation 3; raise the truncation\n")
    code, _, err = run(["chern-bound", '{"proj":4}', "--alpha", "2,x"], capsys)
    assert (code, err) == (1, "error: --alpha needs comma-separated integers, got '2,x'\n")


# -- primes of any size below the Miller-Rabin limit ------------------------


def test_a_19_digit_prime_answers_at_once(capsys):
    p = 10 ** 18 + 3
    start = time.perf_counter()
    code, out, _ = run(["bound", '{"proj":4}', "--p", str(p), "--group", "1"], capsys)
    assert time.perf_counter() - start < 1.0  # trial division took minutes
    assert code == 0
    assert json.loads(out)["certificate"] == {"coeff": p - 1, "partition": [4]}


def test_a_prime_candidate_above_the_limit_is_a_one_line_error(capsys):
    code, out, err = run(["fixedpoint", '{"proj":2}', "--p", str(2 ** 89 - 1),
                          "--group", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: cannot decide whether {2 ** 89 - 1} is prime: primality "
                   "is exact only below 3317044064679887385961981\n")
    code, _, err = run(["fixedpoint", '{"proj":2}', "--p", str(10 ** 30),
                        "--group", "1"], capsys)
    assert (code, err) == (1, f"error: {10 ** 30} is not prime\n")


def test_a_strong_pseudoprime_to_the_first_twelve_prime_bases_is_not_a_prime(capsys):
    psi_12 = 318665857834031151167461  # below the limit, witnessed only by base 41
    code, out, err = run(["fixedpoint", '{"proj":2}', "--p", str(psi_12),
                          "--group", "1"], capsys)
    assert (code, out, err) == (1, "", f"error: {psi_12} is not prime\n")


# -- the installed script ------------------------------------------------------


def test_the_cobord_script_prints_what_the_module_prints(capsys, monkeypatch):
    # pyproject.toml read by a regex: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^\[project\.scripts\]\s*^cobord\s*=\s*"([\w.]+):(\w+)"\s*$',
                      text, re.M)
    assert found, "no cobord entry under [project.scripts]"
    module, name = found.groups()
    argv = ["bound", '{"hyp":[3,4]}', "--p", "2", "--group", "1"]
    monkeypatch.setattr(sys, "argv", ["cobord", *argv])
    code = getattr(importlib.import_module(module), name)()  # as the script calls it
    out = capsys.readouterr()
    src = str(Path(cli.__file__).parents[1])
    res = subprocess.run([sys.executable, "-m", "cobord.cli", *argv],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    assert (code, out.out.encode(), out.err) == (0, res.stdout, "")
    assert res.returncode == 0 and b'"lower_bound":2' in res.stdout


HUGE = "99999999999999999999"  # 2^HUGE has about 3 * 10^19 digits


@pytest.fixture
def unbuildable_order(monkeypatch):
    """Make reading ``GroupDescriptor.order`` fail, as building 2^HUGE would."""
    def refuse(group):
        raise AssertionError(f"built the order of {group!r}")

    monkeypatch.setattr(actions.GroupDescriptor, "order", property(refuse))


def test_a_huge_group_exponent_answers_as_any_exponent_above_the_weight(
        unbuildable_order, capsys):
    # pi_q and milnor_fixed_dim read q only through x // q and x % q
    for argv in (["bound", '{"proj":2}'], ["chern-bound", '{"proj":2}', "--alpha", "2"],
                 ["actions", "--generator", "2"], ["actions", "--family", "1"]):
        huge = run([*argv, "--p", "2", "--group", HUGE], capsys)
        assert huge[0] == 0 and huge[2] == "", argv
        small = run([*argv, "--p", "2", "--group", "3"], capsys)
        assert huge[1] == small[1].replace('"exponents":[3]', f'"exponents":[{HUGE}]'), argv
    assert '"lower_bound":0' in run(["bound", '{"proj":2}', "--group", HUGE], capsys)[1]


@pytest.mark.parametrize("exponent", ["20000", HUGE])
def test_an_order_too_long_to_print_is_a_one_line_error(exponent, unbuildable_order, capsys):
    code, out, err = run(["bound", '{"proj":2}', "--group", exponent, "--format", "table"],
                         capsys)
    assert (code, out) == (1, "")
    assert err == f"error: the group order has more than {sys.get_int_max_str_digits()} digits\n"
