"""Wreath product elements, conjugacy types, class enumeration."""
import math
import random

import pytest

from oracles import buckets, elements, num_cycles, pp_type
from wreath_centers.errors import PadTooSmall, SizeMismatch
from wreath_centers.groups import builtin_group
from wreath_centers.kernels import decode_type_key, type_histogram
from wreath_centers.partial import GPartialPermutation
from wreath_centers.wreath import (
    PartitionFamily, WreathElement, canonical_representative, class_order,
    families_of_size, families_up_to, family_count, family_order, type_of,
    w_inverse, w_multiply,
)


def test_composition_order(z3):
    # pure permutations compose left to right: (xy)(i) = y(x(i))
    x = WreathElement((0, 0, 0), (1, 0, 2))
    y = WreathElement((0, 0, 0), (0, 2, 1))
    assert w_multiply(x, y, z3).perm == (2, 0, 1)
    assert w_multiply(y, x, z3).perm == (1, 2, 0)


def test_group_axioms_random(z3):
    rng = random.Random(11)
    n = 5
    e = WreathElement.identity(n)
    for _ in range(40):
        def rand():
            perm = list(range(n))
            rng.shuffle(perm)
            return WreathElement([rng.randrange(3) for _ in range(n)], perm)
        x, y, z = rand(), rand(), rand()
        assert w_multiply(w_multiply(x, y, z3), z, z3) \
            == w_multiply(x, w_multiply(y, z, z3), z3)
        assert w_multiply(x, e, z3) == x
        assert w_multiply(e, x, z3) == x
        assert w_multiply(x, w_inverse(x, z3), z3) == e
        assert w_multiply(w_inverse(x, z3), x, z3) == e


def test_multiply_size_mismatch(z2):
    with pytest.raises(SizeMismatch):
        w_multiply(WreathElement.identity(2), WreathElement.identity(3), z2)


def test_type_worked_example(z3):
    """A ten-point element with known cycle-product classes.

    perm = (1,4)(2,5)(3)(6)(7,8,9,10) in 1-based cycle notation,
    labels g = (1,0,2,0,0,1,1,2,1,0) over the cyclic group of order 3.
    """
    x = WreathElement((1, 0, 2, 0, 0, 1, 1, 2, 1, 0),
                      (3, 4, 2, 0, 1, 5, 7, 8, 9, 6))
    fam = type_of(x, z3)
    assert fam == PartitionFamily({0: (2,), 1: (4, 2, 1), 2: (1,)})


def test_type_is_conjugation_invariant(s3):
    rng = random.Random(3)
    n = 3
    elts = list(elements(s3, n))
    for _ in range(25):
        x = rng.choice(elts)
        h = rng.choice(elts)
        conj = w_multiply(w_multiply(h, x, s3), w_inverse(h, s3), s3)
        assert type_of(conj, s3) == type_of(x, s3)


def test_types_classify_conjugacy_nonabelian():
    """Type buckets are exactly the conjugation orbits in S3 wr S3.

    Nonabelian labels with 3-cycles distinguish the two walk
    orientations of the cycle product; only one of them is a class
    function of this multiplication.
    """
    from wreath_centers.groups import builtin_group
    s3 = builtin_group("sym:3")
    elts = list(elements(s3, 3))
    covered = 0
    for fam, bucket in buckets(s3, 3).items():
        z, size = class_order(fam, s3)
        assert len(bucket) == size
        rep = next(iter(bucket))
        orbit = {w_multiply(w_multiply(h, rep, s3), w_inverse(h, s3), s3)
                 for h in elts}
        # invariance makes each bucket a union of orbits; matching sizes
        # over a partition of the group forces orbit == bucket
        assert len(orbit) == size
        assert type_of(next(iter(orbit)), s3) == fam
        covered += size
    assert covered == len(elts) == 6 ** 3 * 6


def test_class_order_matches_enumeration(z2, s3):
    for G, n in ((z2, 3), (s3, 2)):
        by_type = buckets(G, n)
        total = 0
        for fam in families_of_size(n, G.num_classes):
            _, size = class_order(fam, G)
            members = by_type[fam]
            assert len(members) == size
            assert all(type_of(x, G) == fam for x in members)
            total += size
        assert total == G.order ** n * math.factorial(n)


def test_class_order_z_value(z3):
    # Z = prod z_lam(c) * xi_c^{len}; xi is the centralizer order
    fam = PartitionFamily({0: (1, 1), 1: (2,)})
    z, size = class_order(fam, z3)
    assert z == 2 * 3 ** 2 * 2 * 3
    assert size == 3 ** 4 * 24 // z


def test_class_order_rejects_foreign_index(z2):
    with pytest.raises(SizeMismatch):
        class_order(PartitionFamily({5: (1,)}), z2)


def test_family_normalization():
    assert PartitionFamily({0: (), 1: (2, 1)}) == PartitionFamily({1: (2, 1)})
    assert PartitionFamily({1: [1, 2]}).get(1) == (2, 1)
    f = PartitionFamily({0: (2,), 2: (1,)})
    assert f.indices() == (0, 2)
    assert f.get(1) == ()
    assert f.size == 3
    assert num_cycles(f) == 2
    with pytest.raises(ValueError):
        PartitionFamily({-1: (1,)})
    with pytest.raises(ValueError):
        PartitionFamily([(0, (1,)), (0, (2,))])
    with pytest.raises(ValueError):
        PartitionFamily({}, kind="weird")


def test_family_pad_and_strip():
    f = PartitionFamily({0: (3,), 1: (2,)})
    g = f.pad(8)
    assert g.get(0) == (3, 1, 1, 1)
    assert g.size == 8
    assert f.pad(5) is f
    with pytest.raises(PadTooSmall):
        f.pad(4)
    back, ones = g.strip_ones()
    assert back == f and ones == 3
    assert f.strip_ones() == (f, 0)


def test_family_properness():
    assert PartitionFamily({0: (2,), 1: (1,)}).is_proper()
    assert not PartitionFamily({0: (2, 1)}).is_proper()
    assert PartitionFamily().is_proper()
    with pytest.raises(ValueError):
        PartitionFamily({0: (1,)}, kind="char").is_proper()
    with pytest.raises(ValueError):
        PartitionFamily({0: (1,)}, kind="char").pad(3)


def test_family_json_round_trip():
    f = PartitionFamily({0: (2, 1), 2: (3,)})
    assert f.to_json() == {"0": [2, 1], "2": [3]}
    assert PartitionFamily.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        PartitionFamily.from_json([1, 2])


def test_families_of_size_counts():
    assert len(list(families_of_size(2, 2))) == 5
    # one index reduces to ordinary partitions
    for n, count in ((0, 1), (1, 1), (4, 5), (6, 11)):
        assert len(list(families_of_size(n, 1))) == count
    fams = list(families_up_to(2, 2))
    assert len(fams) == 1 + 2 + 5
    assert all(f.size <= 2 for f in fams)
    # no duplicates across the sweep
    assert len(set(fams)) == len(fams)
    # the closed-form count, without enumerating
    for num_indices in range(5):
        for n in range(-1, 7):
            assert family_count(n, num_indices) == len(
                list(families_of_size(n, num_indices))), (n, num_indices)


def assert_canonical(fam):
    """fam, built by a derivation that skips validation, is the family
    the validating constructor builds from the same entries."""
    ref = PartitionFamily(fam.entries, fam.kind)
    assert fam.entries == ref.entries and type(fam.entries) is tuple
    assert fam.size == ref.size == sum(map(sum, ref.to_json().values()))
    assert hash(fam) == hash(ref) and fam == ref and ref == fam


@pytest.mark.parametrize("num_indices", [1, 2, 3, 4])
def test_derived_families_are_canonical(num_indices):
    """families_of_size, pad, strip_ones, decode_type_key and pp_type
    build their families without re-validating them; the decoded keys
    are the kernel's, one per family against the identity (on an abelian
    group with as many classes, where each key is cheap to reach)."""
    H = {1: "trivial", 2: "cyclic:2", 3: "cyclic:3", 4: "dihedral:2"}[num_indices]
    H = builtin_group(H)
    assert H.num_classes == num_indices
    for n in range(7):
        for fam in families_of_size(n, num_indices, kind="char"):
            assert_canonical(fam)
        for fam in families_of_size(n, num_indices):
            assert_canonical(fam)
            for m in (n, n + 1, n + 3):
                padded = fam.pad(m)
                assert_canonical(padded)
                assert_canonical(padded.strip_ones()[0])
            assert_canonical(fam.strip_ones()[0])
            (key,) = type_histogram(H, fam, WreathElement.identity(n))
            assert_canonical(decode_type_key(key, n, num_indices))
    G = {1: "trivial", 2: "cyclic:2", 3: "sym:3", 4: "dihedral:2"}[num_indices]
    G = builtin_group(G)
    assert G.num_classes == num_indices
    rng = random.Random(num_indices)
    for _ in range(200):
        k = rng.randrange(0, 7)
        sup = sorted(rng.sample(range(1, 9), k))
        omega = dict(zip(sup, rng.sample(sup, k)))
        x = GPartialPermutation(sup, omega,
                                {i: rng.randrange(G.order) for i in sup})
        assert_canonical(pp_type(x, G))


@pytest.mark.parametrize("num_indices,n", [(1, 8), (2, 6), (3, 5), (4, 4), (5, 4)])
def test_family_order_matches_families_up_to(num_indices, n):
    fams = list(families_up_to(n, num_indices))
    shuffled = fams[:]
    random.Random(num_indices).shuffle(shuffled)
    assert sorted(shuffled, key=family_order(num_indices)) == fams


def test_canonical_representative(z3):
    for fam in families_of_size(3, 3):
        for n in (3, 5):
            x = canonical_representative(fam, n, z3)
            assert type_of(x, z3) == fam.pad(n)
    with pytest.raises(PadTooSmall):
        canonical_representative(PartitionFamily({0: (4,)}), 3, z3)


def test_element_basics():
    x = WreathElement((1, 0), (1, 0))
    assert x.n == 2
    assert x.to_json() == {"labels": [1, 0], "perm": [2, 1]}
    with pytest.raises(SizeMismatch):
        WreathElement((0,), (0, 1))
    assert WreathElement.identity(3).perm == (0, 1, 2)
