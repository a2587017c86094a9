"""Every suite of the check registry can fail.

Each case perturbs one input of one suite with ``monkeypatch`` and asserts
that the named checks report FAIL, so a check that always holds is caught.
The [n]-series and formal-sum perturbations act on a fresh context, never
on the shared one.
"""

import pytest

from cobord import actions, checks, fgl, lazard
from cobord.geometry import Proj
from cobord.lazard import NEG_INF
from cobord.series import BPoly

TRUNC = 12


def fresh_context(monkeypatch):
    """A fresh context in place of the shared one.  No other cache reads
    the context, so no perturbed series outlives the test."""
    ctx = fgl.FglContext(TRUNC)
    monkeypatch.setattr(fgl, "context", lambda trunc: ctx)
    return ctx


def add_term(monkeypatch, n, k):
    """[n](t) gains the term t^k."""
    ctx = fresh_context(monkeypatch)
    n_series = ctx.n_series

    def perturbed(m):
        s = n_series(m)
        return s + s._shell({(k,): BPoly.one(trunc=TRUNC)}) if m == n else s

    monkeypatch.setattr(ctx, "n_series", perturbed)


def add_to_sum(monkeypatch, exps):
    """F(x, y) gains the term x^i y^j."""
    ctx = fresh_context(monkeypatch)
    ctx._sum = ctx.fgl_sum + ctx.fgl_sum._shell({exps: BPoly.one(trunc=TRUNC)})


def milnor_one_lower(monkeypatch):
    fixed_dim = actions.milnor_fixed_dim
    monkeypatch.setattr(actions, "milnor_fixed_dim", lambda m, n, q: fixed_dim(m, n, q) - 1)


def point_as_fixed_point_free(monkeypatch):
    """The fixed-point-free witnesses become projective spaces; P^0, the
    point, always has a fixed point."""
    def witness(s, group, trunc):
        return actions.ActionWitness(Proj(group.p ** s - 1), group, NEG_INF, "perturbed")
    monkeypatch.setattr(actions, "landweber_variety", witness)


def never_indecomposable(monkeypatch):
    monkeypatch.setattr(lazard, "is_indecomposable_mod_p", lambda z, p: False)


def every_class_in_ideal(monkeypatch):
    monkeypatch.setattr(lazard, "in_landweber_ideal", lambda z, p, n: True)


def no_class_in_ideal(monkeypatch):
    monkeypatch.setattr(lazard, "in_landweber_ideal", lambda z, p, n: False)


SOUNDNESS_P2 = [
    f"{kind} for p=2, exponents={exps}"
    for exps in ([1], [2], [1, 1])
    for kind in ("witness soundness", "filtration family levels")
]
Y = "Chern numbers divisible"

CASES = [
    ("fgl", add_to_sum, {"exps": (2, 0)},
     ["unit law F(x,0)=x", "symmetry", "associativity to degree 6"]),
    ("fgl", add_to_sum, {"exps": (1, 1)}, ["associativity to degree 6"]),
    ("fgl", add_term, {"n": 2, "k": 2},
     ["F(t,t) = [2](t)", "[a]([b](t)) = [ab](t) for |a|,|b| <= 4", "u_m vanish mod 2"]),
    ("fgl", add_term, {"n": -3, "k": 5},
     ["[a]([b](t)) = [ab](t) for |a|,|b| <= 4", "[-n](t) = i([n](t)) for 1 <= n <= 4"]),
    ("fgl", add_term, {"n": -1, "k": 3}, ["F(t, [-1](t)) = 0"]),
    ("ideals", add_term, {"n": 2, "k": 1}, ["u_m in I_2(1) for m < 1"]),
    ("ideals", never_indecomposable, {},
     [f"v_{n} indecomposable mod 2" for n in (1, 2, 3)]),
    ("ideals", every_class_in_ideal, {},
     [f"v_{n} not in I_2({n})" for n in (0, 1, 2, 3)]
     + [f"Y_{s} in I_2({s + 1}) minus I_2({s}), {Y}" for s in range(4)]),
    ("ideals", no_class_in_ideal, {},
     [f"u_m in I_2({n}) for m < {2 ** n - 1}" for n in (1, 2, 3)]
     + [f"Y_{s} in I_2({s + 1}) minus I_2({s}), {Y}" for s in range(4)]),
    ("presentation", add_term, {"n": 2, "k": 1},
     ["q=2,n=1: vanishing below t^2", "q=2,n=1: u_m membership below v_1"]),
    ("presentation", add_term, {"n": 4, "k": 4}, ["q=4,n=1: t^4 coefficient is v_1^3"]),
    ("soundness", milnor_one_lower, {}, SOUNDNESS_P2),
    ("soundness", point_as_fixed_point_free, {},
     ["witness soundness for p=2, exponents=[1, 1]"]),
]


@pytest.mark.parametrize(
    "suite, perturb, params, failing", CASES,
    ids=[f"{case[0]}-{case[1].__name__}-{i}" for i, case in enumerate(CASES)],
)
def test_each_check_reports_failure(suite, perturb, params, failing, monkeypatch):
    perturb(monkeypatch, **params)
    report = checks.SUITES[suite](2, TRUNC)
    status = {name: ok for name, ok, _ in report.entries}
    assert not report.ok
    assert all(status[name] is False for name in failing), status
