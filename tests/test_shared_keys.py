"""Each retained monomial key exists once per process and truncation.

Object identities stand in for peak RSS here: they are deterministic, and
a copy of a key or of a monomial image is what the memory would pay for.
"""

import itertools

import pytest

from cobord import _backend, actions, bounds, geometry, lazard
from cobord.partitions import partitions_of


def test_two_independent_products_share_their_key_objects():
    x = geometry.evaluate(geometry.Proj(5), 12).image._terms
    y = geometry.evaluate(geometry.Hyp(3, 4), 12).image._terms
    first, second = _backend.mul_terms(x, y, 12), _backend.mul_terms(y, x, 12)
    assert first == second and len(first) > 20
    objects = {key: key for key in first}  # the value -> the stored object
    assert all(objects[key] is key for key in second)
    # a key that only the accumulate path touches keeps its first object
    out = dict(first)
    _backend.mul_into(out, x, y, 12)
    assert all(objects[key] is key for key in out)


@pytest.fixture
def sweep_bases():
    """A lib-sweep set-up at truncation 14, on caches emptied before and after."""
    caches = (lazard.base_basis, lazard.adapted_basis, geometry.evaluate)
    for cache in caches:
        cache.cache_clear()
    trunc = 14
    bases = [lazard.base_basis(trunc)]
    for p, r in itertools.product((2, 3), (1, 2, 3)):
        bases.append(lazard.adapted_basis(p, r, trunc))
        group = actions.GroupDescriptor(p, (1,) * r)
        for n in range(1, trunc + 1):
            bounds.fixed_dim_lower_bound(geometry.evaluate(geometry.Proj(n), trunc), group)
    yield bases
    for cache in caches:
        cache.cache_clear()


def test_a_sweep_set_up_holds_one_object_per_key_value(sweep_bases):
    keys = [key for basis in sweep_bases for image in basis._mono_images.values()
            for key in image._terms]
    values = set(keys)
    assert len(values) == sum(len(partitions_of(w)) for w in range(15)) == 508
    assert len({id(key) for key in keys}) == len(values)


def test_a_sweep_set_up_holds_each_adapted_image_in_its_owner_only(sweep_bases):
    # rank r caches only monomials with its one killed degree p^(r-1) - 1;
    # rank 1 kills nothing and caches nothing
    for basis in sweep_bases[1:]:
        own = basis.p ** (basis.r - 1) - 1 if basis.r > 1 else None
        assert sorted(basis._built) == ([own] if own else [])
        assert all(own in beta for beta in basis._mono_images), basis
        assert bool(basis._mono_images) == (own is not None)
    held = [image for basis in sweep_bases for image in basis._mono_images.values()]
    assert len({id(image) for image in held}) == len(held)
