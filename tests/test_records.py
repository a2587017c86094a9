"""The value classes built on ``geometry.Record``: equality by type and
fields, hashing, immutability, the dataclass-style repr, keyword
construction, defaults and the normalizing ``__post_init__`` hooks."""

import pytest

from cobord import actions as ac
from cobord import bounds as bd
from cobord import equivariant as eq
from cobord import geometry as geo
from cobord.lazard import NEG_INF

TRUNC = 12
G2 = ac.GroupDescriptor(2, (1,))

# name -> (a factory of equal fresh instances, its repr)
SAMPLES = {
    "Point": (lambda: geo.Point(), "Point()"),
    "Proj": (lambda: geo.Proj(3), "Proj(n=3)"),
    "Hyp": (lambda: geo.Hyp(3, 4), "Hyp(d=3, n=4)"),
    "CompInt": (lambda: geo.CompInt((2, 3), 4), "CompInt(degrees=(2, 3), n=4)"),
    "Milnor": (lambda: geo.Milnor(3, 4), "Milnor(m=3, n=4)"),
    "Product": (lambda: geo.Product((geo.Proj(1), geo.Hyp(2, 2))),
                "Product(factors=(Proj(n=1), Hyp(d=2, n=2)))"),
    "DisjointUnion": (lambda: geo.DisjointUnion((geo.Proj(2), geo.Point())),
                      "DisjointUnion(parts=(Proj(n=2), Point()))"),
    "Scaled": (lambda: geo.Scaled(-2, geo.Proj(2)), "Scaled(k=-2, expr=Proj(n=2))"),
    "GroupDescriptor": (lambda: ac.GroupDescriptor(3, (1, 2)),
                        "GroupDescriptor(p=3, exponents=(1, 2))"),
    "ActionWitness": (lambda: ac.ActionWitness(geo.Proj(1), G2, NEG_INF, "linear"),
                      "ActionWitness(variety=Proj(n=1), group=GroupDescriptor(p=2, "
                      "exponents=(1,)), fixed_dim=-inf, provenance='linear')"),
    "BoundReport": (lambda: bd.BoundReport(4, G2, False, None, 2, ((4,), 1)),
                    "BoundReport(class_dim=4, group=GroupDescriptor(p=2, exponents=(1,)), "
                    "in_ideal=False, reduced=None, lower_bound=2, certificate=((4,), 1))"),
    "SplitBundleDescriptor": (lambda: eq.SplitBundleDescriptor((1,), (((1,), (1, 0)),)),
                              "SplitBundleDescriptor(base=(1,), "
                              "summands=(((1,), (1, 0)),))"),
}


def test_every_converted_class_is_a_record():
    classes = {cls.__name__ for cls in (
        geo.Point, geo.Proj, geo.Hyp, geo.CompInt, geo.Milnor, geo.Product,
        geo.DisjointUnion, geo.Scaled, ac.GroupDescriptor, ac.ActionWitness,
        bd.BoundReport, eq.SplitBundleDescriptor,
    ) if issubclass(cls, geo.Record)}
    assert classes == set(SAMPLES)


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_values_are_equal_and_hash_alike(name):
    make, _ = SAMPLES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _ = SAMPLES[name]
    record = make()
    for field in type(record).__slots__:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_keeps_the_dataclass_text(name):
    make, text = SAMPLES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", SAMPLES)
def test_keyword_construction_matches_positional(name):
    make, _ = SAMPLES[name]
    record = make()
    cls, fields = type(record), type(record).__slots__
    values = [getattr(record, f) for f in fields]
    assert cls(**dict(zip(fields, values))) == record
    if fields:
        assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == record
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})  # a field given twice
        if fields[-1] not in cls._defaults:
            with pytest.raises(TypeError):
                cls(*values[:-1])  # a field missing
    with pytest.raises(TypeError):
        cls(*values, 0)  # one field too many
    with pytest.raises(TypeError):
        cls(*values, nonsense=0)


def test_same_fields_of_different_types_differ():
    assert geo.Hyp(3, 4) != geo.Milnor(3, 4)
    assert geo.Hyp(3, 4) != (3, 4) and geo.Proj(3) != (3,)
    assert geo.Proj(0) != geo.Point()
    assert len({geo.Hyp(3, 4), geo.Milnor(3, 4)}) == 2


def test_evaluate_keeps_same_field_classes_apart():
    # evaluate's cache must not hand Hyp(3, 4)'s class to Milnor(3, 4)
    hyp = geo.evaluate(geo.Hyp(3, 4), TRUNC)
    milnor = geo.evaluate(geo.Milnor(3, 4), TRUNC)
    assert hyp.dim == 4 and milnor.dim == 6
    assert hyp != milnor
    assert geo.evaluate(geo.Hyp(3, 4), TRUNC) is hyp
    assert geo.evaluate(geo.Milnor(3, 4), TRUNC) is milnor


def test_group_descriptor_default_and_validation():
    assert ac.GroupDescriptor(5).exponents == ()
    assert ac.GroupDescriptor(p=5) == ac.GroupDescriptor(5, ())
    assert ac.GroupDescriptor(5).rank == 0
    with pytest.raises(ValueError, match="^4 is not prime$"):
        ac.GroupDescriptor(4, (1,))
    with pytest.raises(ValueError, match="^1 is not prime$"):
        ac.GroupDescriptor(1)
    with pytest.raises(ValueError, match=r"^exponents must be >= 1$"):
        ac.GroupDescriptor(2, (1, 0))
    with pytest.raises(TypeError):
        ac.GroupDescriptor()


def test_list_arguments_become_tuples():
    assert geo.CompInt([2, 3], 4) == geo.CompInt((2, 3), 4)
    assert geo.CompInt(degrees=[2, 3], n=4).degrees == (2, 3)
    assert geo.Product([geo.Proj(1)]).factors == (geo.Proj(1),)
    assert geo.DisjointUnion([geo.Point()]).parts == (geo.Point(),)
    assert ac.GroupDescriptor(2, [1, 1]).exponents == (1, 1)
    bundle = eq.SplitBundleDescriptor([1], [([1], [1, 0])])
    assert bundle.base == (1,)
    assert bundle.summands == (((1,), (1, 0)),)
    assert bundle == SAMPLES["SplitBundleDescriptor"][0]()
    assert hash(geo.CompInt([2, 3], 4)) == hash(geo.CompInt((2, 3), 4))


def test_a_computed_bound_report_is_a_frozen_value():
    z = geo.evaluate(geo.Hyp(3, 4), TRUNC)
    report = bd.fixed_dim_lower_bound(z, G2)
    assert report == bd.fixed_dim_lower_bound(z, G2)
    assert report.lower_bound == 2
    assert repr(report).startswith("BoundReport(class_dim=4, group=GroupDescriptor(")
    with pytest.raises(AttributeError):
        report.lower_bound = 3


def test_check_report_stays_a_mutable_unhashable_holder():
    report = geo.CheckReport([("a", True, "")])
    assert report and report.ok
    report.entries.append(("b", False, "why"))
    assert not report
    assert report == geo.CheckReport([("a", True, ""), ("b", False, "why")])
    assert repr(report) == "CheckReport(entries=[('a', True, ''), ('b', False, 'why')])"
    with pytest.raises(TypeError):
        hash(report)
