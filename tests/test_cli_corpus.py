"""Byte-identity corpus for the JSON subcommands.

Each JSON command has one recorded (exit code, sha256 of stdout) and runs
in-process against it at ``--trunc`` 12, 14, 16, 20, 24 and 30 and at its
own weight, recorded beside it: the least truncation that holds its answer,
the dimension of the variety or of the witnesses it asks for.  One below
that weight it must exit 1 with empty stdout and a one-line ``error:``.  So
a truncation at or above a command's weight only guards the query, and an
answer is recorded once, not once per truncation.  ``verify all`` at p in
{2, 3} and ``--trunc`` 0, 2 and 12 keeps one entry per run: its suites grow
with the truncation.  The corpus covers every constructor, a product, a
disjoint union, a scaled class, and p in {2, 3} at ranks 1-3.  A refactor
must leave every entry unchanged; an intended output change re-records the
table and says which entries moved and why.

    PYTHONPATH=src python tests/test_cli_corpus.py

prints the table for the current tree.  A command whose truncations
disagree prints one entry per truncation instead of one, so a re-record
shows where the independence broke.
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout

import pytest

from cobord import cli

HYP = '{"hyp":[3,4]}'
PROD = '{"prod":[{"proj":2},{"hyp":[3,4]}]}'

# (own weight, argv without --trunc)
COMMANDS = [
    (0, ("class", "point")),
    (3, ("class", '{"proj":3}')),
    (4, ("class", HYP)),
    (7, ("class", '{"milnor":[3,5]}')),
    (4, ("class", '{"ci":[[2,3],4]}')),
    (6, ("class", PROD)),
    (4, ("class", '{"disj":[{"proj":2},{"milnor":[2,3]}]}')),
    (4, ("class", '{"scale":[-3,{"ci":[[2,2],4]}]}')),
    (4, ("bound", HYP, "--p", "2", "--group", "1")),
    (7, ("bound", '{"milnor":[3,5]}', "--p", "2", "--group", "1,1")),
    (6, ("bound", PROD, "--p", "2", "--group", "2,1")),
    (7, ("bound", '{"hyp":[2,7]}', "--p", "2", "--group", "1,1,1")),
    (4, ("bound", '{"ci":[[2,3],4]}', "--p", "3", "--group", "1")),
    (8, ("bound", '{"proj":8}', "--p", "3", "--group", "1,1")),
    (8, ("bound", '{"disj":[{"hyp":[2,8]},{"proj":8}]}', "--p", "3",
         "--group", "1,1,1")),
    (2, ("fixedpoint", '{"proj":2}', "--p", "2", "--group", "1,1")),
    (1, ("fixedpoint", '{"hyp":[2,1]}', "--p", "2", "--group", "1,1")),
    (2, ("fixedpoint", '{"scale":[3,{"proj":2}]}', "--p", "3", "--group", "1")),
    (4, ("chern-bound", HYP, "--alpha", "4", "--p", "2", "--group", "1")),
    (4, ("chern-bound", '{"proj":4}', "--alpha", "4", "--p", "3", "--group", "1")),
    (3, ("actions", "--generator", "3", "--p", "2", "--group", "1")),
    (4, ("actions", "--generator", "4", "--p", "3", "--group", "1,1")),
    (1, ("actions", "--landweber", "1", "--p", "2", "--group", "1,1")),
    (5, ("actions", "--family", "1", "--max-dim", "5", "--p", "2", "--group", "1")),
]
TRUNCS = (12, 14, 16, 20, 24, 30)
VERIFY = [("verify", "all", "--p", str(p), "--trunc", str(t))
          for p in (2, 3) for t in (0, 2, 12)]


def with_trunc(cmd, trunc):
    return cmd + ("--trunc", str(trunc))


def truncs(weight):
    return sorted({weight, *TRUNCS})


# a JSON command's " ".join(argv) without --trunc, or a verify run's whole
# argv -> (exit code, sha256 of stdout)
EXPECTED = {
    'class point':
        (0, '6d1b2ca2608a7a80f7fad0c2ba172b307fab66dbb7d656f4b7b585e02f59f9c2'),
    'class {"proj":3}':
        (0, '83fffffa40456eb4569c4799c3ca2da7d444c9e1157ea93239803be36c7c7eff'),
    'class {"hyp":[3,4]}':
        (0, '484b031b8294ea4767a7d6852b0d83038383f9f39aff95d48f061dcb8469557a'),
    'class {"milnor":[3,5]}':
        (0, '305a2912b7cec94828e2e97a89c5b7dd1125fe7c84453a804d3432e2c63bef32'),
    'class {"ci":[[2,3],4]}':
        (0, 'ce33472e4cfd544c4d5fd89f455fbabb0d3f8293dcff276474c9bf75db4308b5'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]}':
        (0, 'd20ed1bd34ebf7a2c07d189d794e1e231106a262278b70e173e46ef63005ea8f'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]}':
        (0, '360409b3a4b6c6a5f18ca11819f3663db4f2c30883d51ccd888473dbbf284917'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]}':
        (0, 'b34c91fa25917e975cbdcee5910cd890102c6a6731e5f94cbfef7d710ce2f3b9'),
    'bound {"hyp":[3,4]} --p 2 --group 1':
        (0, 'c1afd9134fb2f688043693b10ec95353ba3a86f483decf36071209ccba2ae2b1'),
    'bound {"milnor":[3,5]} --p 2 --group 1,1':
        (0, '26a1d104e044593a5bd0ac3831b20427981a57f7a5c60941fe2befc5fd071f31'),
    'bound {"prod":[{"proj":2},{"hyp":[3,4]}]} --p 2 --group 2,1':
        (0, 'c8a014025b349f59872ebe33bfb632d947afca68d9ee4d775937903651370cf2'),
    'bound {"hyp":[2,7]} --p 2 --group 1,1,1':
        (0, '7ecfc79b2c98a3eeee6af28880f2d1c0d74ddd8fd43ad35c4ad22238b51ae3e9'),
    'bound {"ci":[[2,3],4]} --p 3 --group 1':
        (0, 'badbd546813b91612ab09150f5bf81bf21a266f42e577ab1f15f22fd04c07713'),
    'bound {"proj":8} --p 3 --group 1,1':
        (0, 'ce5ad934c52c99441b5ee793001471166f6f2417b4d168cef2077101a2412f1f'),
    'bound {"disj":[{"hyp":[2,8]},{"proj":8}]} --p 3 --group 1,1,1':
        (0, '8b65914bfbf51bc638a4db07b79124c6cea2f5da9ec18545a3a0848550edd639'),
    'fixedpoint {"proj":2} --p 2 --group 1,1':
        (0, '7c0f831cd534babd2e30cf5dc61eb4b3f09be85803961d1c8b3896fd2671171c'),
    'fixedpoint {"hyp":[2,1]} --p 2 --group 1,1':
        (0, '7165ee6ea3c412ff6e80c3ed1d14637bcd0140ce78ca062970e8c11c713230e4'),
    'fixedpoint {"scale":[3,{"proj":2}]} --p 3 --group 1':
        (0, '93a78ddb4634f994b21fa94dec1894b2329de282ccb7653ec4caad38e0f03694'),
    'chern-bound {"hyp":[3,4]} --alpha 4 --p 2 --group 1':
        (0, '2a895f43d36f3484bc2146897a29a234e0561806dacbc90f7f99ffc12e98c568'),
    'chern-bound {"proj":4} --alpha 4 --p 3 --group 1':
        (0, '082baf20731c53f70aeb61414c3c7fd418cb0ff52e665e730a2bc7ffab9388c4'),
    'actions --generator 3 --p 2 --group 1':
        (0, '6cadee1a0e84d1d0b3357d891dad80051bda06edb7bb307acac154cd68e41b43'),
    'actions --generator 4 --p 3 --group 1,1':
        (0, '19b9d38c47a19363ace1869d17877cf1d4668ade0bce2cf7db78ee587a9f645b'),
    'actions --landweber 1 --p 2 --group 1,1':
        (0, '523afddff75017115c22e1a7be6fdc7a1f81b712ebebcbeff3a4cb9181df352a'),
    'actions --family 1 --max-dim 5 --p 2 --group 1':
        (0, '1765c14cc05984b4917336b833bd990d08b3d667cd052309978b37f563474851'),
    'verify all --p 2 --trunc 0':
        (0, 'b009c341bf1dc59562307b234f3fe737fbe071e3123dec85d91e3a1a459f9ad0'),
    'verify all --p 2 --trunc 2':
        (0, 'c8fdcc62cd0f3cb1ac1199941f30208c3f46d2009d711cd2f7e637e99e474b66'),
    'verify all --p 2 --trunc 12':
        (0, '663cfc1dd1a2e91fa5f04d186bfeb38a8d72612b13962a2585ee79334352f008'),
    'verify all --p 3 --trunc 0':
        (0, '235446bc944aba11d71b897002342f4c21c2e3970f63ab47e719621f01a6f19c'),
    'verify all --p 3 --trunc 2':
        (0, '84b98ea585f0dcd22c2465656f51d152155207ae7e4fd9c5c622ccd141f1d263'),
    'verify all --p 3 --trunc 12':
        (0, '6f6d26b62f72a0ce98ea50697d474bd88311047dccfb830b03959907c5acb1ba'),
}

CASES = [
    pytest.param(" ".join(cmd), with_trunc(cmd, t), id=" ".join(with_trunc(cmd, t)))
    for weight, cmd in COMMANDS for t in truncs(weight)
] + [pytest.param(" ".join(argv), argv, id=" ".join(argv)) for argv in VERIFY]


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("key, argv", CASES)
def test_stdout_and_exit_code_unchanged(key, argv):
    assert _run(argv) == EXPECTED[key]


@pytest.mark.parametrize("weight, cmd", [
    pytest.param(weight, cmd, id=" ".join(with_trunc(cmd, weight - 1)))
    for weight, cmd in COMMANDS
])
def test_one_below_its_own_weight_is_a_one_line_error(weight, cmd, capsys):
    code = cli.main(list(with_trunc(cmd, weight - 1)))
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_table_matches_corpus():
    keys = [" ".join(cmd) for _, cmd in COMMANDS] + [" ".join(argv) for argv in VERIFY]
    assert len(set(keys)) == len(keys) == 30
    assert set(EXPECTED) == set(keys)


def _entry(key, result):
    sys.stdout.write(f"    {key!r}:\n        ({result[0]}, {result[1]!r}),\n")


if __name__ == "__main__":
    for weight, cmd in COMMANDS:
        runs = {t: _run(with_trunc(cmd, t)) for t in truncs(weight)}
        if len(set(runs.values())) == 1:
            _entry(" ".join(cmd), runs[weight])
        else:
            for t, result in runs.items():
                _entry(" ".join(with_trunc(cmd, t)), result)
    for argv in VERIFY:
        _entry(" ".join(argv), _run(argv))
