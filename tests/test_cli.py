import json

import pytest

from cobord import cli, geometry


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
    with pytest.raises(SystemExit):
        cli.main(["actions", "--p", "2", "--group", "1"])


def test_invalid_json_is_an_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["class", "{broken"])


def test_unknown_constructor_is_an_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["class", '{"sphere": 2}'])


def test_truncation_violation_is_hard_error(capsys):
    code, _, err = run(["class", '{"proj":9}', "--trunc", "8"], capsys)
    assert code == 1
    assert "truncation" in err


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
    ['{"prod":5}', '{"hyp":[true,2]}', '{"scale":[2.5,"point"]}', '{"proj":"3"}'],
)
def test_malformed_expression_is_a_one_line_error(expr):
    with pytest.raises(SystemExit) as exc:
        cli.main(["class", expr])
    msg = exc.value.code
    assert isinstance(msg, str) and msg.startswith("error:")
    assert "\n" not in msg


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


def test_actions_rejects_a_negative_landweber_index():
    with pytest.raises(SystemExit) as exc:
        cli.main(["actions", "--landweber", "-1", "--p", "2", "--group", "1"])
    msg = exc.value.code
    assert isinstance(msg, str) and msg.startswith("error:") and "\n" not in msg


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
