"""Partial permutation semigroup: product, action, counting."""
import random

import pytest

from oracles import (
    act, canonical_partial_representative, partial_from_json, pp_multiply,
    pp_type, pp_unity, proj, psi)
from wreath_centers.partial import (
    GPartialPermutation, class_size_partial, enumerate_partial_class,
    semigroup_order,
)
from wreath_centers.wreath import (
    PartitionFamily, WreathElement, families_up_to, type_of, w_inverse,
    w_multiply,
)


def rand_pp(rng, n, order):
    k = rng.randrange(0, n)
    sup = rng.sample(range(1, n + 1), k)
    omega = dict(zip(sorted(sup), rng.sample(sorted(sup), k)))
    return GPartialPermutation(sup, omega, {i: rng.randrange(order) for i in sup})


def test_product_worked_example(s4):
    """x on {2,4,5,6} with omega (2,5)(4,6) times y on {1,3,5,6,8,9} with
    sigma (1,5,8)(3,9)(6): the product permutes the union by
    (1,5,2,8)(3,9)(4,6) and mixes labels only where the supports meet."""
    g = {2: 7, 4: 11, 5: 3, 6: 19}
    f = {1: 5, 3: 2, 5: 23, 6: 13, 8: 17, 9: 6}
    x = GPartialPermutation((2, 4, 5, 6), {2: 5, 5: 2, 4: 6, 6: 4}, g)
    y = GPartialPermutation((1, 3, 5, 6, 8, 9),
                            {1: 5, 5: 8, 8: 1, 3: 9, 9: 3, 6: 6}, f)
    p = pp_multiply(x, y, s4)
    assert p.support == (1, 2, 3, 4, 5, 6, 8, 9)
    assert p.omega == {1: 5, 5: 2, 2: 8, 8: 1, 3: 9, 9: 3, 4: 6, 6: 4}
    mul = s4.mul
    assert p.labels == {
        1: f[1], 2: g[2], 3: f[3], 4: g[4], 5: f[5],
        6: mul[g[6]][f[6]], 8: mul[g[5]][f[8]], 9: f[9],
    }
    # embedding is a homomorphism on this pair
    assert psi(p, 9) == w_multiply(psi(x, 9), psi(y, 9), s4)


def test_action_worked_example(s4):
    """sigma = (2,3,6)(1,4)(5,7,9)(8) with labels a_i moves the support
    {2,4,5,6} of omega = (2,5)(4,6) to {1,3,6,9} and conjugates each
    label by the a's at the endpoints."""
    perm = [0] * 9
    for src, dst in ((2, 3), (3, 6), (6, 2), (1, 4), (4, 1),
                     (5, 7), (7, 9), (9, 5), (8, 8)):
        perm[src - 1] = dst - 1
    ga = [4, 21, 9, 2, 15, 8, 0, 17, 12]
    a = WreathElement(ga, perm)
    h = {2: 6, 4: 10, 5: 1, 6: 22}
    x = GPartialPermutation((2, 4, 5, 6), {2: 5, 5: 2, 4: 6, 6: 4}, h)
    res = act(a, x, s4)
    assert res.support == (1, 3, 6, 9)
    assert res.omega == {1: 3, 3: 1, 6: 9, 9: 6}
    mul, inv = s4.mul, s4.inv
    a6, a4, a5, a2 = ga[5], ga[3], ga[4], ga[1]
    assert res.labels == {
        1: mul[mul[a6][h[4]]][inv[a4]],
        3: mul[mul[a4][h[6]]][inv[a6]],
        6: mul[mul[a5][h[2]]][inv[a2]],
        9: mul[mul[a2][h[5]]][inv[a5]],
    }
    assert pp_type(res, s4) == pp_type(x, s4)
    assert psi(res, 9) == w_multiply(w_multiply(a, psi(x, 9), s4),
                                     w_inverse(a, s4), s4)


def test_semigroup_properties_random(z3):
    rng = random.Random(7)
    n = 5
    for _ in range(150):
        u, v, w = (rand_pp(rng, n, 3) for _ in range(3))
        assert pp_multiply(pp_multiply(u, v, z3), w, z3) \
            == pp_multiply(u, pp_multiply(v, w, z3), z3)
        assert pp_multiply(u, pp_unity(), z3) == u == pp_multiply(pp_unity(), u, z3)
        assert set(pp_multiply(u, v, z3).support) == set(u.support) | set(v.support)
        assert psi(pp_multiply(u, v, z3), n) == w_multiply(psi(u, n), psi(v, n), z3)


def test_action_properties_random(z3):
    rng = random.Random(8)
    n = 5
    for _ in range(150):
        u = rand_pp(rng, n, 3)
        def rand_w():
            return WreathElement([rng.randrange(3) for _ in range(n)],
                                 rng.sample(range(n), n))
        a, b = rand_w(), rand_w()
        assert pp_type(act(a, u, z3), z3) == pp_type(u, z3)
        assert psi(act(a, u, z3), n) == w_multiply(
            w_multiply(a, psi(u, n), z3), w_inverse(a, z3), z3)
        assert act(w_multiply(a, b, z3), u, z3) == act(a, act(b, u, z3), z3)


def test_type_pads_under_embedding(z3):
    rng = random.Random(9)
    for _ in range(40):
        u = rand_pp(rng, 5, 3)
        assert type_of(psi(u, 5), z3) == pp_type(u, z3).pad(5)


def test_counting_all_small_families(triv, z2, z3):
    for G in (triv, z2, z3):
        for n in range(5):
            total = 0
            for fam in families_up_to(n, G.num_classes):
                cnt = sum(1 for _ in enumerate_partial_class(fam, n, G))
                assert cnt == class_size_partial(fam, n, G), (G.order, n, fam)
                total += cnt
            assert total == semigroup_order(n, G)
    assert semigroup_order(2, z2) == 13


def test_class_size_examples(z2):
    assert class_size_partial(PartitionFamily({0: (2,)}), 3, z2) == 6
    assert class_size_partial(PartitionFamily({0: (1,)}), 2, z2) == 2
    from wreath_centers.errors import SizeMismatch
    with pytest.raises(SizeMismatch):
        class_size_partial(PartitionFamily({0: (4,)}), 3, z2)


def test_enumeration_members_have_the_type(z3):
    for fam in families_up_to(3, 3):
        for e in enumerate_partial_class(fam, 4, z3):
            assert pp_type(e, z3) == fam
            assert max(e.support, default=0) <= 4


def test_canonical_partial_representative(z3):
    for fam in families_up_to(4, 3):
        z = canonical_partial_representative(fam, z3)
        assert z.support == tuple(range(1, fam.size + 1))
        assert pp_type(z, z3) == fam


def test_proj():
    x = GPartialPermutation((2, 9), {2: 9, 9: 2}, {2: 0, 9: 0})
    d = {x: 1, pp_unity(): 2}
    assert proj(d, 9) == d
    assert proj(d, 6) == {pp_unity(): 2}


def test_derived_elements_match_validated(z3):
    """The class stream, products and canonical representatives build
    their elements without re-validating them; each equals the element
    the validating constructor builds from the same data."""
    def check(x):
        ref = GPartialPermutation(x.support, x.omega, x.labels)
        assert x == ref and hash(x) == hash(ref) and x._key == ref._key
        assert type(x.support) is tuple
        assert x.omega == ref.omega and x.labels == ref.labels

    fams = [f for f in families_up_to(3, 3) if f.size]
    x0 = canonical_partial_representative(PartitionFamily({1: (2,)}), z3)
    check(x0)
    for fam in fams:
        check(canonical_partial_representative(fam, z3))
        for y in enumerate_partial_class(fam, 4, z3):
            check(y)
            check(pp_multiply(x0, y, z3))
            check(pp_multiply(y, x0, z3))


def test_construction_validation():
    with pytest.raises(ValueError):
        GPartialPermutation((1, 2), {1: 1, 2: 3}, {1: 0, 2: 0})
    with pytest.raises(ValueError):
        GPartialPermutation((1, 2), {1: 2, 2: 1}, {1: 0})
    with pytest.raises(ValueError):
        GPartialPermutation((0, 1), {0: 1, 1: 0}, {0: 0, 1: 0})
    with pytest.raises(ValueError):
        GPartialPermutation((1, 1), {1: 1}, {1: 0})


def test_json_round_trip():
    x = GPartialPermutation((2, 4), {2: 4, 4: 2}, {2: 1, 4: 0})
    j = x.to_json()
    assert j["support"] == [2, 4]
    assert partial_from_json(j) == x
    # omitted omega / labels entries mean fixed point, identity label
    y = partial_from_json({"support": [3]})
    assert y == GPartialPermutation((3,), {3: 3}, {3: 0})
