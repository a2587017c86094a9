"""Each retained monomial key exists once per process and truncation.

Object identities stand in for peak RSS here: they are deterministic, and
a copy of a key or of a monomial image is what the memory would pay for.
"""

import itertools

import pytest

from cobord import _backend, actions, bounds, geometry, lazard
from cobord.partitions import codec, partitions_of
from cobord.series import BPoly


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


def test_polynomials_built_from_partitions_hold_the_kernel_s_key_objects():
    # ``packed_terms`` stores each key through the kernel's canonical table
    trunc = 14
    canonical = codec(trunc).canonical
    alphas = [alpha for n in (12, 13, 14) for alpha in partitions_of(n)]
    terms = {alpha: 5 for alpha in alphas}
    for poly in (BPoly(terms, trunc), lazard.GenPoly(terms, 3, lazard.base_basis(trunc))):
        keys = list(poly._terms)
        assert len(keys) == len(alphas) and min(keys) > 256  # above the small-int cache
        assert all(canonical.get(key) is key for key in keys), type(poly)


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
    # the set-up's only monomial images are ``base_basis(14)``'s
    assert all(type(basis) is lazard.LandweberQuotient for basis in sweep_bases[1:])
    keys = [key for image in sweep_bases[0]._mono_images.values() for key in image._terms]
    values = set(keys)
    assert len(values) == sum(len(partitions_of(w)) for w in range(15)) == 508
    assert len({id(key) for key in keys}) == len(values)


def test_a_sweep_set_up_holds_no_adapted_monomial_image(sweep_bases):
    # a quotient builds only killed degrees, each with its residue mod
    # I_p(r) that the reduction reads; rank 1 kills nothing.  The reduction
    # works on base coordinates, so no quotient holds a monomial image
    for basis in sweep_bases[1:]:
        assert set(basis._built) <= basis.killed, basis
        assert set(basis._residues) == set(basis._built), basis
        assert not hasattr(basis, "_mono_images"), basis
    # mod p the coordinates of P^n meet degree 1 (p = 2) and 2 (p = 3), not 3 or 8
    assert [(b.p, b.r, sorted(b._built)) for b in sweep_bases[1:] if b._built] == [
        (2, 2, [1]), (2, 3, [1]), (3, 2, [2]), (3, 3, [2])]


def test_the_cached_chow_rows_hold_the_kernel_s_key_objects():
    # a key sum is a new int; ``_merged`` stores each key of the rows that
    # ``_power_rows`` keeps through the kernel's canonical table
    trunc = 11
    geometry._power_rows.cache_clear()
    try:
        rows = [row for k in range(2, 14) for row in geometry._power_rows(k, trunc)[1:]]
        canonical = codec(trunc).canonical
        keys = [key for row in rows for key in row]
        assert len(keys) > 500
        assert all(canonical.get(key) is key for key in keys)
    finally:
        geometry._power_rows.cache_clear()


def test_a_complete_intersection_image_holds_the_kernel_s_key_objects():
    # ``_ci_image`` is one ``_merged`` pass, which stores canonical keys as
    # the kernel's products do
    trunc = 13
    canonical = codec(trunc).canonical
    for degrees in ((3,), (2, 5), (2, 2, 3)):
        keys = list(geometry._ci_image(degrees, trunc, trunc)._terms)
        assert len(keys) > 50
        assert all(canonical.get(key) is key for key in keys), degrees


def test_reduction_keys_are_the_kernel_s_canonical_ints(sweep_bases):
    # solve, the reduction and GenPoly arithmetic store the objects of
    # ``codec(trunc).canonical``, the keys of every BPoly image
    canonical = codec(14).canonical
    expr = geometry.Product((geometry.Hyp(3, 4), geometry.Milnor(2, 5)))
    cl = geometry.evaluate(expr, 14)
    polys = [cl.gen_coords(lazard.base_basis(14))]
    for p, r in itertools.product((2, 3), (1, 2, 3)):
        polys.append(bounds.fixed_dim_lower_bound(
            cl, actions.GroupDescriptor(p, (1,) * r)).reduced)
    keys = [key for poly in polys for key in poly._terms]
    assert len(keys) > 50
    assert all(canonical.get(key) is key for key in keys)
