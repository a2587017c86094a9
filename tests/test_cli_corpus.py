"""Byte-identity corpus for the JSON subcommands.

Each command runs in-process at ``--trunc`` 12, 14, 20, 24 and 30; the
sha256 of its stdout and its exit code must match the recorded table.  The corpus
covers every constructor, a product, a disjoint union, a scaled class, and
p in {2, 3} at ranks 1-3, plus ``verify all`` at p in {2, 3} and
``--trunc`` 0, 2 and 12.  A refactor must leave every entry unchanged;
an intended output change re-records the table and says which entries
moved and why.

    PYTHONPATH=src python tests/test_cli_corpus.py

prints the table for the current tree.
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout

import pytest

from cobord import cli

HYP = '{"hyp":[3,4]}'
PROD = '{"prod":[{"proj":2},{"hyp":[3,4]}]}'

COMMANDS = [
    ("class", "point"),
    ("class", '{"proj":3}'),
    ("class", HYP),
    ("class", '{"milnor":[3,5]}'),
    ("class", '{"ci":[[2,3],4]}'),
    ("class", PROD),
    ("class", '{"disj":[{"proj":2},{"milnor":[2,3]}]}'),
    ("class", '{"scale":[-3,{"ci":[[2,2],4]}]}'),
    ("bound", HYP, "--p", "2", "--group", "1"),
    ("bound", '{"milnor":[3,5]}', "--p", "2", "--group", "1,1"),
    ("bound", PROD, "--p", "2", "--group", "2,1"),
    ("bound", '{"hyp":[2,7]}', "--p", "2", "--group", "1,1,1"),
    ("bound", '{"ci":[[2,3],4]}', "--p", "3", "--group", "1"),
    ("bound", '{"proj":8}', "--p", "3", "--group", "1,1"),
    ("bound", '{"disj":[{"hyp":[2,8]},{"proj":8}]}', "--p", "3",
     "--group", "1,1,1"),
    ("fixedpoint", '{"proj":2}', "--p", "2", "--group", "1,1"),
    ("fixedpoint", '{"hyp":[2,1]}', "--p", "2", "--group", "1,1"),
    ("fixedpoint", '{"scale":[3,{"proj":2}]}', "--p", "3", "--group", "1"),
    ("chern-bound", HYP, "--alpha", "4", "--p", "2", "--group", "1"),
    ("chern-bound", '{"proj":4}', "--alpha", "4", "--p", "3", "--group", "1"),
    ("actions", "--generator", "3", "--p", "2", "--group", "1"),
    ("actions", "--generator", "4", "--p", "3", "--group", "1,1"),
    ("actions", "--landweber", "1", "--p", "2", "--group", "1,1"),
    ("actions", "--family", "1", "--max-dim", "5", "--p", "2", "--group", "1"),
]

CASES = [cmd + ("--trunc", str(t)) for t in (12, 14, 20, 24, 30) for cmd in COMMANDS] + [
    ("verify", "all", "--p", str(p), "--trunc", str(t))
    for p in (2, 3) for t in (0, 2, 12)
]

# " ".join(argv) -> (exit code, sha256 of stdout)
EXPECTED = {
    'class point --trunc 12':
        (0, '6d1b2ca2608a7a80f7fad0c2ba172b307fab66dbb7d656f4b7b585e02f59f9c2'),
    'class {"proj":3} --trunc 12':
        (0, '83fffffa40456eb4569c4799c3ca2da7d444c9e1157ea93239803be36c7c7eff'),
    'class {"hyp":[3,4]} --trunc 12':
        (0, '484b031b8294ea4767a7d6852b0d83038383f9f39aff95d48f061dcb8469557a'),
    'class {"milnor":[3,5]} --trunc 12':
        (0, '305a2912b7cec94828e2e97a89c5b7dd1125fe7c84453a804d3432e2c63bef32'),
    'class {"ci":[[2,3],4]} --trunc 12':
        (0, 'ce33472e4cfd544c4d5fd89f455fbabb0d3f8293dcff276474c9bf75db4308b5'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 12':
        (0, 'd20ed1bd34ebf7a2c07d189d794e1e231106a262278b70e173e46ef63005ea8f'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 12':
        (0, '360409b3a4b6c6a5f18ca11819f3663db4f2c30883d51ccd888473dbbf284917'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 12':
        (0, 'b34c91fa25917e975cbdcee5910cd890102c6a6731e5f94cbfef7d710ce2f3b9'),
    'bound {"hyp":[3,4]} --p 2 --group 1 --trunc 12':
        (0, 'c1afd9134fb2f688043693b10ec95353ba3a86f483decf36071209ccba2ae2b1'),
    'bound {"milnor":[3,5]} --p 2 --group 1,1 --trunc 12':
        (0, '26a1d104e044593a5bd0ac3831b20427981a57f7a5c60941fe2befc5fd071f31'),
    'bound {"prod":[{"proj":2},{"hyp":[3,4]}]} --p 2 --group 2,1 --trunc 12':
        (0, 'c8a014025b349f59872ebe33bfb632d947afca68d9ee4d775937903651370cf2'),
    'bound {"hyp":[2,7]} --p 2 --group 1,1,1 --trunc 12':
        (0, '7ecfc79b2c98a3eeee6af28880f2d1c0d74ddd8fd43ad35c4ad22238b51ae3e9'),
    'bound {"ci":[[2,3],4]} --p 3 --group 1 --trunc 12':
        (0, 'badbd546813b91612ab09150f5bf81bf21a266f42e577ab1f15f22fd04c07713'),
    'bound {"proj":8} --p 3 --group 1,1 --trunc 12':
        (0, 'ce5ad934c52c99441b5ee793001471166f6f2417b4d168cef2077101a2412f1f'),
    'bound {"disj":[{"hyp":[2,8]},{"proj":8}]} --p 3 --group 1,1,1 --trunc 12':
        (0, '8b65914bfbf51bc638a4db07b79124c6cea2f5da9ec18545a3a0848550edd639'),
    'fixedpoint {"proj":2} --p 2 --group 1,1 --trunc 12':
        (0, '7c0f831cd534babd2e30cf5dc61eb4b3f09be85803961d1c8b3896fd2671171c'),
    'fixedpoint {"hyp":[2,1]} --p 2 --group 1,1 --trunc 12':
        (0, '7165ee6ea3c412ff6e80c3ed1d14637bcd0140ce78ca062970e8c11c713230e4'),
    'fixedpoint {"scale":[3,{"proj":2}]} --p 3 --group 1 --trunc 12':
        (0, '93a78ddb4634f994b21fa94dec1894b2329de282ccb7653ec4caad38e0f03694'),
    'chern-bound {"hyp":[3,4]} --alpha 4 --p 2 --group 1 --trunc 12':
        (0, '2a895f43d36f3484bc2146897a29a234e0561806dacbc90f7f99ffc12e98c568'),
    'chern-bound {"proj":4} --alpha 4 --p 3 --group 1 --trunc 12':
        (0, '082baf20731c53f70aeb61414c3c7fd418cb0ff52e665e730a2bc7ffab9388c4'),
    'actions --generator 3 --p 2 --group 1 --trunc 12':
        (0, '6cadee1a0e84d1d0b3357d891dad80051bda06edb7bb307acac154cd68e41b43'),
    'actions --generator 4 --p 3 --group 1,1 --trunc 12':
        (0, '19b9d38c47a19363ace1869d17877cf1d4668ade0bce2cf7db78ee587a9f645b'),
    'actions --landweber 1 --p 2 --group 1,1 --trunc 12':
        (0, '523afddff75017115c22e1a7be6fdc7a1f81b712ebebcbeff3a4cb9181df352a'),
    'actions --family 1 --max-dim 5 --p 2 --group 1 --trunc 12':
        (0, '1765c14cc05984b4917336b833bd990d08b3d667cd052309978b37f563474851'),
    'class point --trunc 14':
        (0, '6d1b2ca2608a7a80f7fad0c2ba172b307fab66dbb7d656f4b7b585e02f59f9c2'),
    'class {"proj":3} --trunc 14':
        (0, '83fffffa40456eb4569c4799c3ca2da7d444c9e1157ea93239803be36c7c7eff'),
    'class {"hyp":[3,4]} --trunc 14':
        (0, '484b031b8294ea4767a7d6852b0d83038383f9f39aff95d48f061dcb8469557a'),
    'class {"milnor":[3,5]} --trunc 14':
        (0, '305a2912b7cec94828e2e97a89c5b7dd1125fe7c84453a804d3432e2c63bef32'),
    'class {"ci":[[2,3],4]} --trunc 14':
        (0, 'ce33472e4cfd544c4d5fd89f455fbabb0d3f8293dcff276474c9bf75db4308b5'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 14':
        (0, 'd20ed1bd34ebf7a2c07d189d794e1e231106a262278b70e173e46ef63005ea8f'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 14':
        (0, '360409b3a4b6c6a5f18ca11819f3663db4f2c30883d51ccd888473dbbf284917'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 14':
        (0, 'b34c91fa25917e975cbdcee5910cd890102c6a6731e5f94cbfef7d710ce2f3b9'),
    'bound {"hyp":[3,4]} --p 2 --group 1 --trunc 14':
        (0, 'c1afd9134fb2f688043693b10ec95353ba3a86f483decf36071209ccba2ae2b1'),
    'bound {"milnor":[3,5]} --p 2 --group 1,1 --trunc 14':
        (0, '26a1d104e044593a5bd0ac3831b20427981a57f7a5c60941fe2befc5fd071f31'),
    'bound {"prod":[{"proj":2},{"hyp":[3,4]}]} --p 2 --group 2,1 --trunc 14':
        (0, 'c8a014025b349f59872ebe33bfb632d947afca68d9ee4d775937903651370cf2'),
    'bound {"hyp":[2,7]} --p 2 --group 1,1,1 --trunc 14':
        (0, '7ecfc79b2c98a3eeee6af28880f2d1c0d74ddd8fd43ad35c4ad22238b51ae3e9'),
    'bound {"ci":[[2,3],4]} --p 3 --group 1 --trunc 14':
        (0, 'badbd546813b91612ab09150f5bf81bf21a266f42e577ab1f15f22fd04c07713'),
    'bound {"proj":8} --p 3 --group 1,1 --trunc 14':
        (0, 'ce5ad934c52c99441b5ee793001471166f6f2417b4d168cef2077101a2412f1f'),
    'bound {"disj":[{"hyp":[2,8]},{"proj":8}]} --p 3 --group 1,1,1 --trunc 14':
        (0, '8b65914bfbf51bc638a4db07b79124c6cea2f5da9ec18545a3a0848550edd639'),
    'fixedpoint {"proj":2} --p 2 --group 1,1 --trunc 14':
        (0, '7c0f831cd534babd2e30cf5dc61eb4b3f09be85803961d1c8b3896fd2671171c'),
    'fixedpoint {"hyp":[2,1]} --p 2 --group 1,1 --trunc 14':
        (0, '7165ee6ea3c412ff6e80c3ed1d14637bcd0140ce78ca062970e8c11c713230e4'),
    'fixedpoint {"scale":[3,{"proj":2}]} --p 3 --group 1 --trunc 14':
        (0, '93a78ddb4634f994b21fa94dec1894b2329de282ccb7653ec4caad38e0f03694'),
    'chern-bound {"hyp":[3,4]} --alpha 4 --p 2 --group 1 --trunc 14':
        (0, '2a895f43d36f3484bc2146897a29a234e0561806dacbc90f7f99ffc12e98c568'),
    'chern-bound {"proj":4} --alpha 4 --p 3 --group 1 --trunc 14':
        (0, '082baf20731c53f70aeb61414c3c7fd418cb0ff52e665e730a2bc7ffab9388c4'),
    'actions --generator 3 --p 2 --group 1 --trunc 14':
        (0, '6cadee1a0e84d1d0b3357d891dad80051bda06edb7bb307acac154cd68e41b43'),
    'actions --generator 4 --p 3 --group 1,1 --trunc 14':
        (0, '19b9d38c47a19363ace1869d17877cf1d4668ade0bce2cf7db78ee587a9f645b'),
    'actions --landweber 1 --p 2 --group 1,1 --trunc 14':
        (0, '523afddff75017115c22e1a7be6fdc7a1f81b712ebebcbeff3a4cb9181df352a'),
    'actions --family 1 --max-dim 5 --p 2 --group 1 --trunc 14':
        (0, '1765c14cc05984b4917336b833bd990d08b3d667cd052309978b37f563474851'),
    'class point --trunc 20':
        (0, '6d1b2ca2608a7a80f7fad0c2ba172b307fab66dbb7d656f4b7b585e02f59f9c2'),
    'class {"proj":3} --trunc 20':
        (0, '83fffffa40456eb4569c4799c3ca2da7d444c9e1157ea93239803be36c7c7eff'),
    'class {"hyp":[3,4]} --trunc 20':
        (0, '484b031b8294ea4767a7d6852b0d83038383f9f39aff95d48f061dcb8469557a'),
    'class {"milnor":[3,5]} --trunc 20':
        (0, '305a2912b7cec94828e2e97a89c5b7dd1125fe7c84453a804d3432e2c63bef32'),
    'class {"ci":[[2,3],4]} --trunc 20':
        (0, 'ce33472e4cfd544c4d5fd89f455fbabb0d3f8293dcff276474c9bf75db4308b5'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 20':
        (0, 'd20ed1bd34ebf7a2c07d189d794e1e231106a262278b70e173e46ef63005ea8f'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 20':
        (0, '360409b3a4b6c6a5f18ca11819f3663db4f2c30883d51ccd888473dbbf284917'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 20':
        (0, 'b34c91fa25917e975cbdcee5910cd890102c6a6731e5f94cbfef7d710ce2f3b9'),
    'bound {"hyp":[3,4]} --p 2 --group 1 --trunc 20':
        (0, 'c1afd9134fb2f688043693b10ec95353ba3a86f483decf36071209ccba2ae2b1'),
    'bound {"milnor":[3,5]} --p 2 --group 1,1 --trunc 20':
        (0, '26a1d104e044593a5bd0ac3831b20427981a57f7a5c60941fe2befc5fd071f31'),
    'bound {"prod":[{"proj":2},{"hyp":[3,4]}]} --p 2 --group 2,1 --trunc 20':
        (0, 'c8a014025b349f59872ebe33bfb632d947afca68d9ee4d775937903651370cf2'),
    'bound {"hyp":[2,7]} --p 2 --group 1,1,1 --trunc 20':
        (0, '7ecfc79b2c98a3eeee6af28880f2d1c0d74ddd8fd43ad35c4ad22238b51ae3e9'),
    'bound {"ci":[[2,3],4]} --p 3 --group 1 --trunc 20':
        (0, 'badbd546813b91612ab09150f5bf81bf21a266f42e577ab1f15f22fd04c07713'),
    'bound {"proj":8} --p 3 --group 1,1 --trunc 20':
        (0, 'ce5ad934c52c99441b5ee793001471166f6f2417b4d168cef2077101a2412f1f'),
    'bound {"disj":[{"hyp":[2,8]},{"proj":8}]} --p 3 --group 1,1,1 --trunc 20':
        (0, '8b65914bfbf51bc638a4db07b79124c6cea2f5da9ec18545a3a0848550edd639'),
    'fixedpoint {"proj":2} --p 2 --group 1,1 --trunc 20':
        (0, '7c0f831cd534babd2e30cf5dc61eb4b3f09be85803961d1c8b3896fd2671171c'),
    'fixedpoint {"hyp":[2,1]} --p 2 --group 1,1 --trunc 20':
        (0, '7165ee6ea3c412ff6e80c3ed1d14637bcd0140ce78ca062970e8c11c713230e4'),
    'fixedpoint {"scale":[3,{"proj":2}]} --p 3 --group 1 --trunc 20':
        (0, '93a78ddb4634f994b21fa94dec1894b2329de282ccb7653ec4caad38e0f03694'),
    'chern-bound {"hyp":[3,4]} --alpha 4 --p 2 --group 1 --trunc 20':
        (0, '2a895f43d36f3484bc2146897a29a234e0561806dacbc90f7f99ffc12e98c568'),
    'chern-bound {"proj":4} --alpha 4 --p 3 --group 1 --trunc 20':
        (0, '082baf20731c53f70aeb61414c3c7fd418cb0ff52e665e730a2bc7ffab9388c4'),
    'actions --generator 3 --p 2 --group 1 --trunc 20':
        (0, '6cadee1a0e84d1d0b3357d891dad80051bda06edb7bb307acac154cd68e41b43'),
    'actions --generator 4 --p 3 --group 1,1 --trunc 20':
        (0, '19b9d38c47a19363ace1869d17877cf1d4668ade0bce2cf7db78ee587a9f645b'),
    'actions --landweber 1 --p 2 --group 1,1 --trunc 20':
        (0, '523afddff75017115c22e1a7be6fdc7a1f81b712ebebcbeff3a4cb9181df352a'),
    'actions --family 1 --max-dim 5 --p 2 --group 1 --trunc 20':
        (0, '1765c14cc05984b4917336b833bd990d08b3d667cd052309978b37f563474851'),
    'class point --trunc 24':
        (0, '6d1b2ca2608a7a80f7fad0c2ba172b307fab66dbb7d656f4b7b585e02f59f9c2'),
    'class {"proj":3} --trunc 24':
        (0, '83fffffa40456eb4569c4799c3ca2da7d444c9e1157ea93239803be36c7c7eff'),
    'class {"hyp":[3,4]} --trunc 24':
        (0, '484b031b8294ea4767a7d6852b0d83038383f9f39aff95d48f061dcb8469557a'),
    'class {"milnor":[3,5]} --trunc 24':
        (0, '305a2912b7cec94828e2e97a89c5b7dd1125fe7c84453a804d3432e2c63bef32'),
    'class {"ci":[[2,3],4]} --trunc 24':
        (0, 'ce33472e4cfd544c4d5fd89f455fbabb0d3f8293dcff276474c9bf75db4308b5'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 24':
        (0, 'd20ed1bd34ebf7a2c07d189d794e1e231106a262278b70e173e46ef63005ea8f'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 24':
        (0, '360409b3a4b6c6a5f18ca11819f3663db4f2c30883d51ccd888473dbbf284917'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 24':
        (0, 'b34c91fa25917e975cbdcee5910cd890102c6a6731e5f94cbfef7d710ce2f3b9'),
    'bound {"hyp":[3,4]} --p 2 --group 1 --trunc 24':
        (0, 'c1afd9134fb2f688043693b10ec95353ba3a86f483decf36071209ccba2ae2b1'),
    'bound {"milnor":[3,5]} --p 2 --group 1,1 --trunc 24':
        (0, '26a1d104e044593a5bd0ac3831b20427981a57f7a5c60941fe2befc5fd071f31'),
    'bound {"prod":[{"proj":2},{"hyp":[3,4]}]} --p 2 --group 2,1 --trunc 24':
        (0, 'c8a014025b349f59872ebe33bfb632d947afca68d9ee4d775937903651370cf2'),
    'bound {"hyp":[2,7]} --p 2 --group 1,1,1 --trunc 24':
        (0, '7ecfc79b2c98a3eeee6af28880f2d1c0d74ddd8fd43ad35c4ad22238b51ae3e9'),
    'bound {"ci":[[2,3],4]} --p 3 --group 1 --trunc 24':
        (0, 'badbd546813b91612ab09150f5bf81bf21a266f42e577ab1f15f22fd04c07713'),
    'bound {"proj":8} --p 3 --group 1,1 --trunc 24':
        (0, 'ce5ad934c52c99441b5ee793001471166f6f2417b4d168cef2077101a2412f1f'),
    'bound {"disj":[{"hyp":[2,8]},{"proj":8}]} --p 3 --group 1,1,1 --trunc 24':
        (0, '8b65914bfbf51bc638a4db07b79124c6cea2f5da9ec18545a3a0848550edd639'),
    'fixedpoint {"proj":2} --p 2 --group 1,1 --trunc 24':
        (0, '7c0f831cd534babd2e30cf5dc61eb4b3f09be85803961d1c8b3896fd2671171c'),
    'fixedpoint {"hyp":[2,1]} --p 2 --group 1,1 --trunc 24':
        (0, '7165ee6ea3c412ff6e80c3ed1d14637bcd0140ce78ca062970e8c11c713230e4'),
    'fixedpoint {"scale":[3,{"proj":2}]} --p 3 --group 1 --trunc 24':
        (0, '93a78ddb4634f994b21fa94dec1894b2329de282ccb7653ec4caad38e0f03694'),
    'chern-bound {"hyp":[3,4]} --alpha 4 --p 2 --group 1 --trunc 24':
        (0, '2a895f43d36f3484bc2146897a29a234e0561806dacbc90f7f99ffc12e98c568'),
    'chern-bound {"proj":4} --alpha 4 --p 3 --group 1 --trunc 24':
        (0, '082baf20731c53f70aeb61414c3c7fd418cb0ff52e665e730a2bc7ffab9388c4'),
    'actions --generator 3 --p 2 --group 1 --trunc 24':
        (0, '6cadee1a0e84d1d0b3357d891dad80051bda06edb7bb307acac154cd68e41b43'),
    'actions --generator 4 --p 3 --group 1,1 --trunc 24':
        (0, '19b9d38c47a19363ace1869d17877cf1d4668ade0bce2cf7db78ee587a9f645b'),
    'actions --landweber 1 --p 2 --group 1,1 --trunc 24':
        (0, '523afddff75017115c22e1a7be6fdc7a1f81b712ebebcbeff3a4cb9181df352a'),
    'actions --family 1 --max-dim 5 --p 2 --group 1 --trunc 24':
        (0, '1765c14cc05984b4917336b833bd990d08b3d667cd052309978b37f563474851'),
    'class point --trunc 30':
        (0, '6d1b2ca2608a7a80f7fad0c2ba172b307fab66dbb7d656f4b7b585e02f59f9c2'),
    'class {"proj":3} --trunc 30':
        (0, '83fffffa40456eb4569c4799c3ca2da7d444c9e1157ea93239803be36c7c7eff'),
    'class {"hyp":[3,4]} --trunc 30':
        (0, '484b031b8294ea4767a7d6852b0d83038383f9f39aff95d48f061dcb8469557a'),
    'class {"milnor":[3,5]} --trunc 30':
        (0, '305a2912b7cec94828e2e97a89c5b7dd1125fe7c84453a804d3432e2c63bef32'),
    'class {"ci":[[2,3],4]} --trunc 30':
        (0, 'ce33472e4cfd544c4d5fd89f455fbabb0d3f8293dcff276474c9bf75db4308b5'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 30':
        (0, 'd20ed1bd34ebf7a2c07d189d794e1e231106a262278b70e173e46ef63005ea8f'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 30':
        (0, '360409b3a4b6c6a5f18ca11819f3663db4f2c30883d51ccd888473dbbf284917'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 30':
        (0, 'b34c91fa25917e975cbdcee5910cd890102c6a6731e5f94cbfef7d710ce2f3b9'),
    'bound {"hyp":[3,4]} --p 2 --group 1 --trunc 30':
        (0, 'c1afd9134fb2f688043693b10ec95353ba3a86f483decf36071209ccba2ae2b1'),
    'bound {"milnor":[3,5]} --p 2 --group 1,1 --trunc 30':
        (0, '26a1d104e044593a5bd0ac3831b20427981a57f7a5c60941fe2befc5fd071f31'),
    'bound {"prod":[{"proj":2},{"hyp":[3,4]}]} --p 2 --group 2,1 --trunc 30':
        (0, 'c8a014025b349f59872ebe33bfb632d947afca68d9ee4d775937903651370cf2'),
    'bound {"hyp":[2,7]} --p 2 --group 1,1,1 --trunc 30':
        (0, '7ecfc79b2c98a3eeee6af28880f2d1c0d74ddd8fd43ad35c4ad22238b51ae3e9'),
    'bound {"ci":[[2,3],4]} --p 3 --group 1 --trunc 30':
        (0, 'badbd546813b91612ab09150f5bf81bf21a266f42e577ab1f15f22fd04c07713'),
    'bound {"proj":8} --p 3 --group 1,1 --trunc 30':
        (0, 'ce5ad934c52c99441b5ee793001471166f6f2417b4d168cef2077101a2412f1f'),
    'bound {"disj":[{"hyp":[2,8]},{"proj":8}]} --p 3 --group 1,1,1 --trunc 30':
        (0, '8b65914bfbf51bc638a4db07b79124c6cea2f5da9ec18545a3a0848550edd639'),
    'fixedpoint {"proj":2} --p 2 --group 1,1 --trunc 30':
        (0, '7c0f831cd534babd2e30cf5dc61eb4b3f09be85803961d1c8b3896fd2671171c'),
    'fixedpoint {"hyp":[2,1]} --p 2 --group 1,1 --trunc 30':
        (0, '7165ee6ea3c412ff6e80c3ed1d14637bcd0140ce78ca062970e8c11c713230e4'),
    'fixedpoint {"scale":[3,{"proj":2}]} --p 3 --group 1 --trunc 30':
        (0, '93a78ddb4634f994b21fa94dec1894b2329de282ccb7653ec4caad38e0f03694'),
    'chern-bound {"hyp":[3,4]} --alpha 4 --p 2 --group 1 --trunc 30':
        (0, '2a895f43d36f3484bc2146897a29a234e0561806dacbc90f7f99ffc12e98c568'),
    'chern-bound {"proj":4} --alpha 4 --p 3 --group 1 --trunc 30':
        (0, '082baf20731c53f70aeb61414c3c7fd418cb0ff52e665e730a2bc7ffab9388c4'),
    'actions --generator 3 --p 2 --group 1 --trunc 30':
        (0, '6cadee1a0e84d1d0b3357d891dad80051bda06edb7bb307acac154cd68e41b43'),
    'actions --generator 4 --p 3 --group 1,1 --trunc 30':
        (0, '19b9d38c47a19363ace1869d17877cf1d4668ade0bce2cf7db78ee587a9f645b'),
    'actions --landweber 1 --p 2 --group 1,1 --trunc 30':
        (0, '523afddff75017115c22e1a7be6fdc7a1f81b712ebebcbeff3a4cb9181df352a'),
    'actions --family 1 --max-dim 5 --p 2 --group 1 --trunc 30':
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


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_and_exit_code_unchanged(argv):
    assert _run(argv) == EXPECTED[" ".join(argv)]


def test_table_matches_corpus():
    assert set(EXPECTED) == {" ".join(argv) for argv in CASES}


if __name__ == "__main__":
    for argv in CASES:
        code, digest = _run(argv)
        sys.stdout.write(f"    {' '.join(argv)!r}:\n        ({code}, {digest!r}),\n")
