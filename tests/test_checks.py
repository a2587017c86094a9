"""Every suite of the check registry can fail.

Each case perturbs one input of one suite with ``monkeypatch`` and asserts
that the named checks report FAIL, so a check that always holds is caught.
The [n]-series and formal-sum perturbations act on a fresh context, never
on the shared one.  The packed composition behind the [a]([b](t)) and
i([n](t)) checks is also unpacked slot by slot against one composition at
a time, and a failure is named by the slot that differs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cobord import actions, checks, fgl, lazard
from cobord.geometry import Proj
from cobord.lazard import NEG_INF
from cobord.series import BPoly, TruncSeries

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


def add_to_inverse(monkeypatch, k):
    """i(t) gains the term t^k."""
    inverse = checks.formal_inverse

    def perturbed(ctx):
        i = inverse(ctx)
        return i + i._shell({(k,): BPoly.one(trunc=TRUNC)})

    fresh_context(monkeypatch)
    monkeypatch.setattr(checks, "formal_inverse", perturbed)


def add_to_exp(monkeypatch, k):
    """exp(t), the compositional inverse of log that i(t) = exp(-log t)
    is read from, gains the term t^k."""
    comp_inverse = TruncSeries.comp_inverse

    def perturbed(f):
        g = comp_inverse(f)
        return g + g._shell({(k,): BPoly.one(trunc=f.trunc)})

    fresh_context(monkeypatch)
    monkeypatch.setattr(TruncSeries, "comp_inverse", perturbed)


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
    # the packed [a]([b](t)) check: the all-zero slot [0], the top slot [4]
    # at the top degree t^13, and [-16], a series only the expected side packs
    ("fgl", add_term, {"n": 0, "k": 3}, ["[a]([b](t)) = [ab](t) for |a|,|b| <= 4"]),
    ("fgl", add_term, {"n": 4, "k": 13}, ["[a]([b](t)) = [ab](t) for |a|,|b| <= 4"]),
    ("fgl", add_term, {"n": -16, "k": 13}, ["[a]([b](t)) = [ab](t) for |a|,|b| <= 4"]),
    # the formal inverse shares the packed composition as its tenth slot
    ("fgl", add_to_inverse, {"k": 5}, ["[-n](t) = i([n](t)) for 1 <= n <= 4"]),
    # for q = p the leading term is compared with v_n of the formal sum,
    # which a perturbed [p](t) does not move
    ("presentation", add_term, {"n": 2, "k": 2}, ["q=2,n=1: t^2 coefficient is v_1^1"]),
    ("presentation", add_term, {"n": 2, "k": 4}, ["q=2,n=2: t^4 coefficient is v_2^1"]),
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


COMP = "[a]([b](t)) = [ab](t) for |a|,|b| <= 4"
INV = "[-n](t) = i([n](t)) for 1 <= n <= 4"


@pytest.mark.parametrize("perturb, params, failing", [
    (add_to_inverse, {"k": 5}, [INV]),
    # i(t) = exp(-log t) is read from comp_inverse, so a wrong exp(t) must
    # fail the inverse check and no other
    (add_to_exp, {"k": 5}, [INV]),
    (add_term, {"n": 0, "k": 3}, [COMP]),
    (add_term, {"n": -16, "k": 13}, [COMP]),
], ids=["inverse", "exp", "zero-series", "expected-only"])
def test_the_slot_split_fails_only_the_check_of_the_differing_slot(
        perturb, params, failing, monkeypatch):
    perturb(monkeypatch, **params)
    report = checks.fgl_laws(2, TRUNC)
    assert [name for name, ok, _ in report.entries if not ok] == failing


# -- the packed composition of ``fgl_laws`` ---------------------------------


def unpack(series, width, count):
    """The ``count`` series that ``checks._packed`` packed at ``width``:
    each coefficient split into balanced digits, lowest slot first."""
    slots = [{} for _ in range(count)]
    half, full = 1 << (width - 1), 1 << width
    for e, c in series.terms.items():
        for k, v in c._terms.items():
            for slot in slots:
                d = v & (full - 1)
                d = d - full if d >= half else d
                if d:
                    slot.setdefault(e, {})[k] = d
                v = (v - d) >> width
            assert v == 0, "a value beyond the last slot"
    return [series._shell({e: BPoly._raw(t, series.trunc) for e, t in slot.items()})
            for slot in slots]


def max_bits(series):
    return max((abs(v).bit_length() for s in series for c in s.terms.values()
                for v in c._terms.values()), default=0)


def assert_packed_compose_is_exact(fs, g):
    # the outer series themselves need not fit the width: only the linear
    # combination of them is composed, never unpacked
    own = max_bits(fs) + 1
    assert unpack(checks._packed(fs, own), own, len(fs)) == fs
    expected = [f.compose(g) for f in fs]
    # the l1 bound alone fits every slot value of the compositions as a
    # signed (width - 1)-bit number, with a bit to spare
    width = checks._slot_width(fs, [g], [])
    assert width >= max_bits(expected) + 2
    got = checks._packed(fs, width).compose(g)
    assert unpack(got, width, len(fs)) == expected
    assert checks._slot_width(fs, [g], expected) == width
    assert checks._mismatched_slots(got - checks._packed(expected, width), width) == set()
    for j in range(len(fs)):  # one slot off by one term: only that slot differs
        off = expected[:j] + [expected[j] + 1] + expected[j + 1:]
        assert checks._mismatched_slots(got - checks._packed(off, width), width) == {j}


@pytest.mark.parametrize("trunc", [0, 1, 2, 6, 12])
def test_packed_compose_of_the_n_series_unpacks_to_each_composition(trunc):
    ctx = fgl.FglContext(trunc)
    ks = range(-4, 5)
    fs = [ctx.n_series(a) for a in ks] + [checks.formal_inverse(ctx)]  # i(t) tenth
    for b in ks:
        assert_packed_compose_is_exact(fs, ctx.n_series(b))
        assert ([f.compose(ctx.n_series(b)) for f in fs]
                == [ctx.n_series(a * b) for a in ks] + [ctx.n_series(-b)])


def test_one_slot_width_for_many_inner_series_is_the_widest_of_each_alone():
    ctx = fgl.FglContext(12)
    fs = [ctx.n_series(a) for a in range(-4, 5)] + [checks.formal_inverse(ctx)]
    gs = [ctx.n_series(b) for b in range(-4, 5)]
    expected = [ctx.n_series(n) for n in range(-16, 17)]
    assert checks._slot_width(fs, gs, expected) == max(
        [checks._slot_width(fs, [g], []) for g in gs]
        + [checks._slot_width([], [], expected)])


def test_the_slot_width_fits_the_expected_side_too():
    ctx = fgl.FglContext(6)
    far = [ctx.n_series(3).scaled(1 << 100)]
    assert checks._slot_width([ctx.n_series(1)], [ctx.n_series(2)], far) >= max_bits(far) + 2


N = 6
POOL = [(), (1,), (2,), (1, 1), (3,), (2, 1), (4,)]
bpolys = st.builds(
    lambda d: BPoly(d, trunc=N),
    st.dictionaries(st.sampled_from(POOL), st.integers(-10 ** 6, 10 ** 6), max_size=4),
)


def one_variable(coeffs, start):
    cap = N + 1
    return TruncSeries(("t",), cap,
                       {(start + k,): c for k, c in enumerate(coeffs)}, trunc=N)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(bpolys, max_size=8), min_size=1, max_size=9),
       st.lists(bpolys, min_size=1, max_size=7))
def test_packed_compose_of_random_series_unpacks_to_each_composition(fss, gs):
    # outer series may have a constant term; the inner one has none
    fs = [one_variable(coeffs, 0) for coeffs in fss]
    assert_packed_compose_is_exact(fs, one_variable(gs, 1))


def test_presentation_cases():
    rep = checks.verify_presentation(2, [(1, 1), (2, 1), (1, 2)], TRUNC)
    assert rep.ok, rep.to_obj()
    rep3 = checks.verify_presentation(3, [(1, 1)], TRUNC)
    assert rep3.ok, rep3.to_obj()


def test_presentation_out_of_range_reports_failure():
    rep = checks.verify_presentation(2, [(3, 2)], TRUNC)  # t^64 is far beyond N=12
    assert not rep.ok
