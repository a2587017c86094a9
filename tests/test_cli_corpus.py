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
        (0, '44a9989363dde406b5bc96dd1ea0e8579285a42292057e05d5c7f3b738fb864c'),
    'class {"proj":3} --trunc 12':
        (0, '9fe60a4f200352a8b571011785882f2f2d96c05199410dd31aa6e38a8f68041c'),
    'class {"hyp":[3,4]} --trunc 12':
        (0, 'ea8c6b3e117f1c6abbdd8709758c248dbc328c002d8911baf4ad1ca7c0004399'),
    'class {"milnor":[3,5]} --trunc 12':
        (0, 'fbf50afe8bbf64cc2afe9fff199f0392c00d4b9f474d65b2e43b2a0af797c700'),
    'class {"ci":[[2,3],4]} --trunc 12':
        (0, '1bd5a65594d3cb21b0d7f9c8e2f5c08588a53c11a5b7c6269cc2d4a3f1dae415'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 12':
        (0, '031768362532a19a1f09f077c9d522c0de9f83447628bac16fc0d39ba418a9e5'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 12':
        (0, '1b7604625a08eaac770327509cae4fb8523dd24f7446bbb43b544ecee450121e'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 12':
        (0, 'b6c109125721d2f9a30f11803cb1d42dc72bfde308925cb6f9fa76eff52cca9c'),
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
        (0, '1106cb506c8c3f7fcbcb3eab4742c00b19c047f829a7d5132028e195907a2c51'),
    'class {"proj":3} --trunc 14':
        (0, '5c616a00d3fb518d4cb586de9be2979978a6123a8028a114f70122f0d29180f1'),
    'class {"hyp":[3,4]} --trunc 14':
        (0, '559c86e2fc5a35e7615ad068ae4909071443213655f380a89a4beac2140a87be'),
    'class {"milnor":[3,5]} --trunc 14':
        (0, '69d477f67aa37b4b601699da55c1bec7611698129f36bb8af2fb0dd0da36a8ec'),
    'class {"ci":[[2,3],4]} --trunc 14':
        (0, '38be4d42fbf33db30d8db607307d989f29bb8e50f42d580a6167903c58341f76'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 14':
        (0, 'cdd4a320aad89be57a88d0bde0b5dccc8265a5c2209df91837892ea6dda54d72'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 14':
        (0, '7f225a82155d0ed973efd6d9cae8152a128cfe2f944728906029cece360ab462'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 14':
        (0, '22c546b0af14ab8108a0da0e9182749348affc27fc8d0c9131fecc6877dc1602'),
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
        (0, '1da7a40e5cb20ba7304f41f337ad1c4519c952fde99572dfe3567c6b750e1182'),
    'class {"proj":3} --trunc 20':
        (0, '245eb1966f651c20b2075e45aa7db1efbddfb7456f2ef998ddb39abb81efdbbb'),
    'class {"hyp":[3,4]} --trunc 20':
        (0, '060761ac56c7fec8cc03af1c1b348ee3815f643d714756cd4aeb4414ee473c67'),
    'class {"milnor":[3,5]} --trunc 20':
        (0, 'c171399fd189b6d9c51cb1996e4120b6f800f37bfa94c11859b04f27b5eee41f'),
    'class {"ci":[[2,3],4]} --trunc 20':
        (0, '2b9777e53e256c771b9fcd91bbd1a7f88a2dc9948e48af4a58c90273430a80cb'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 20':
        (0, '930767d17ac55ab65e11b70b11cf5517d2b2d43d222fedf78c4a4501eaf5aaea'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 20':
        (0, '7e4af02abfb95a4d4becd6af07c36446567a81ac933104d42d1b26bdedd022b2'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 20':
        (0, '1e5fd60f535997a1ad1ae7f1c1df5e61606d6ab6f6536c37f7fd69bd49b1406f'),
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
        (0, '355922416d02fdd0b2f4db22b8c94654a2e8d256842ea238f77bedd16c367232'),
    'class {"proj":3} --trunc 24':
        (0, '37e6eb78db1d1dadcdf96ed884369c70442512363dc169f50fc40e2a40c0cf3d'),
    'class {"hyp":[3,4]} --trunc 24':
        (0, '954d270cc55d9293100cf749c1b189913d1d4dad6760619f1d512977f87bd53d'),
    'class {"milnor":[3,5]} --trunc 24':
        (0, 'ed3e83559f5e4e9778931b919f20373de96a756bfe982181e5a2ca965b528de2'),
    'class {"ci":[[2,3],4]} --trunc 24':
        (0, 'd4d94dc70b39b2765bb3267de3572a0c30b6d0fc9c885c8c55b2e9d11fda4524'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 24':
        (0, 'fa23eab30f1c8b9eb68a7bc44830bd9dda363dbfc2655d3713cf7181c0a15489'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 24':
        (0, '81ee59bfc9d2d2a0de086a36597e3f3a2f769bb462d5f0931f451f0fab027e8e'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 24':
        (0, 'fcc7cc2e4e128f0ae21a0f7ef1f4174b4e9b6e137f1e883892d3518ec6207610'),
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
        (0, 'abc801d92fd91ce357723c560308baa8b5d3a7e18c394c5aa051e9a61fc87e6f'),
    'class {"proj":3} --trunc 30':
        (0, '4f801d8728e4ade47f60f40a8a1c4dfb8ba0c2f5bc158d1f100b88f6d4b88216'),
    'class {"hyp":[3,4]} --trunc 30':
        (0, 'ad80e7f4f688e56fdfc61804e745e60770c678088a88d1a3f92140a248274de0'),
    'class {"milnor":[3,5]} --trunc 30':
        (0, 'c246b70d1c0db32731de5f428d0854d2e613fc25de1c3d77c42e255a8ceee20d'),
    'class {"ci":[[2,3],4]} --trunc 30':
        (0, 'd3bb6534e4c8e0c29fd33142c015005c017db2b15e663d18b87a446bf214b7a6'),
    'class {"prod":[{"proj":2},{"hyp":[3,4]}]} --trunc 30':
        (0, '78b7a0ccd7aa8d7f8da717a6b3ace09fc8dc5a4ffa1575857c91956d604b6463'),
    'class {"disj":[{"proj":2},{"milnor":[2,3]}]} --trunc 30':
        (0, 'f8daccb86aae8fd1136cd93d1992033fcb15748fb2ee43028930f24c73acdbd5'),
    'class {"scale":[-3,{"ci":[[2,2],4]}]} --trunc 30':
        (0, '38e6e1c59e272fed28f3787a3f96998b2b1917c867fe0272762c14407378ab29'),
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
