import pytest

from cobord import actions as ac
from cobord import bounds as bd
from cobord import geometry as geo
from cobord import lazard as lz
from cobord.lazard import NEG_INF

TRUNC = 12


def test_group_descriptor():
    g = ac.GroupDescriptor(2, (1, 1))
    assert g.rank == 2 and g.order == 4
    assert ac.GroupDescriptor(3, ()).order == 1
    assert ac.GroupDescriptor(3, (2,)).order == 9
    with pytest.raises(ValueError):
        ac.GroupDescriptor(4, (1,))
    with pytest.raises(ValueError):
        ac.GroupDescriptor(2, (0,))


def test_milnor_fixed_dim_cases():
    assert ac.milnor_fixed_dim(2, 3, 2) == 2
    assert ac.milnor_fixed_dim(2, 2, 2) == 1
    assert ac.milnor_fixed_dim(0, 5, 1) == 4  # trivial group fixes everything
    assert ac.milnor_fixed_dim(0, 4, 2) == 1  # both divisible by 2
    assert ac.milnor_fixed_dim(0, 5, 2) == 2
    assert ac.milnor_fixed_dim(4, 4, 4) == 1
    with pytest.raises(ValueError):
        ac.milnor_fixed_dim(3, 2, 2)


def test_milnor_fixed_dim_never_exceeds_floor():
    for q in (1, 2, 3, 4):
        for m in range(0, 7):
            for n in range(max(m, 1), 7):
                assert ac.milnor_fixed_dim(m, n, q) <= (m + n - 1) // q


def test_generator_action_bounds_and_difference():
    for p, exps in [(2, (1,)), (2, (2,)), (2, (1, 1)), (3, (1,))]:
        group = ac.GroupDescriptor(p, exps)
        q = group.order
        for i in range(1, 9):
            plus, minus = ac.generator_action(i, group, TRUNC)
            for w in (plus, minus):
                assert w.fixed_dim <= i // q
                for comp in w.variety.parts:
                    assert comp.dimension() == i
            diff = plus.cobordism_class(TRUNC) - minus.cobordism_class(TRUNC)
            expected = lz.base_basis(TRUNC).gen(i)
            assert diff.image == expected.image


def test_generator_action_i1_single_milnor():
    group = ac.GroupDescriptor(2, (1,))
    plus, minus = ac.generator_action(1, group, TRUNC)
    witnesses = [w for w in (plus, minus) if w.variety.parts]
    assert len(witnesses) == 1
    (w,) = witnesses
    assert w.variety.parts == (geo.Milnor(0, 2),)
    assert w.fixed_dim == 1 // group.order


def test_landweber_variety():
    group2 = ac.GroupDescriptor(2, (1, 1))
    y0 = ac.landweber_variety(0, group2, TRUNC)
    assert y0.variety == geo.Hyp(2, 0)
    assert y0.fixed_dim == NEG_INF
    assert y0.cobordism_class(TRUNC).c_alpha(()) == 2

    y1 = ac.landweber_variety(1, group2, TRUNC)
    assert lz.is_indecomposable_mod_p(y1.cobordism_class(TRUNC), 2)

    with pytest.raises(ValueError):
        ac.landweber_variety(1, ac.GroupDescriptor(2, (1,)), TRUNC)
    with pytest.raises(ValueError):
        ac.landweber_variety(0, ac.GroupDescriptor(2, ()), TRUNC)
    with pytest.raises(ValueError):
        ac.landweber_variety(-1, ac.GroupDescriptor(2, (1,)), TRUNC)


def test_y_chain_membership():
    for (p, s) in [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]:
        group = ac.GroupDescriptor(p, (1,) * (s + 1))
        w = ac.landweber_variety(s, group, TRUNC)
        z = w.cobordism_class(TRUNC)
        assert lz.in_landweber_ideal(z, p, s + 1), (p, s)
        assert not lz.in_landweber_ideal(z, p, s), (p, s)


def test_filtration_family_level_zero():
    group = ac.GroupDescriptor(2, (1,))
    fam = ac.filtration_family(0, group, 2, TRUNC)
    # only degree-1 factors fit in level 0 when q = 2
    assert fam
    for w in fam:
        for factor in w.variety.factors:
            for comp in factor.parts:
                assert comp.dimension() == 1


def test_filtration_family_trivial_group():
    group = ac.GroupDescriptor(2, ())
    assert group.order == 1
    fam = ac.filtration_family(3, group, 3, TRUNC)
    dims = {w.variety.dimension() for w in fam}
    assert dims <= {1, 2, 3}
    for w in fam:
        # floor(i/1) = i: the level budget equals total dimension
        assert w.variety.dimension() <= 3
        assert w.fixed_dim == w.variety.dimension()


def test_filtration_family_budgets():
    group = ac.GroupDescriptor(2, (1,))
    q = group.order
    for d in (0, 1, 2):
        for w in ac.filtration_family(d, group, 6, TRUNC):
            levels = sum(f.dimension() // q for f in w.variety.factors)
            assert levels <= d
            assert w.variety.dimension() <= 6
            assert w.fixed_dim <= d


def test_witness_serialization():
    group = ac.GroupDescriptor(2, (1, 1))
    w = ac.landweber_variety(1, group, TRUNC)
    obj = w.to_obj()
    assert obj["fixed_dim"] is None
    assert obj["group"] == {"p": 2, "exponents": [1, 1]}
    assert obj["provenance"] == "fixed-point-free-family"


def test_soundness_of_all_witnesses():
    groups = [
        ac.GroupDescriptor(2, (1,)),
        ac.GroupDescriptor(2, (2,)),
        ac.GroupDescriptor(2, (1, 1)),
        ac.GroupDescriptor(3, (1,)),
    ]
    for group in groups:
        witnesses = []
        for i in range(1, 7):
            witnesses.extend(ac.generator_action(i, group, TRUNC))
        s = 0
        while s < group.rank and group.p ** s - 1 <= 6:
            witnesses.append(ac.landweber_variety(s, group, TRUNC))
            s += 1
        witnesses.extend(ac.filtration_family(1, group, 5, TRUNC))
        for w in witnesses:
            z = w.cobordism_class(TRUNC)
            rep = bd.fixed_dim_lower_bound(z, group)
            assert rep.lower_bound <= w.fixed_dim, w.to_obj()
