"""The histogram kernel: brute force, mass and commutativity identities,
key packing, limits."""
import pytest

from wreath_centers.errors import Overflow, SizeMismatch
from wreath_centers.groups import builtin_group
from wreath_centers.kernels import (
    available_backends, decode_type_key, encode_type_key, type_histogram,
)
from wreath_centers.wreath import (
    PartitionFamily, WreathElement, canonical_representative, class_order,
    enumerate_class, families_of_size, type_of, w_multiply,
)


def brute_histogram(G, fam, z, side):
    """Types of z w (side 2) or w z (side 3) over w in C_fam."""
    n = fam.size
    hist = {}
    for w in enumerate_class(fam, n, G):
        if side == 2:
            u = w_multiply(z, w, G)
        else:
            u = w_multiply(w, z, G)
        key = encode_type_key(type_of(u, G), n, G.num_classes)
        hist[key] = hist.get(key, 0) + 1
    return hist


def test_key_round_trip():
    for fam in families_of_size(4, 3):
        key = encode_type_key(fam, 4, 3)
        assert decode_type_key(key, 4, 3) == fam
    assert decode_type_key(encode_type_key(PartitionFamily(), 3, 2), 3, 2) \
        == PartitionFamily()


def test_pure_kernel_matches_brute_force(z3, s3):
    cases = [
        (z3, PartitionFamily({1: (2, 1)}), PartitionFamily({0: (2,), 2: (1,)})),
        (s3, PartitionFamily({2: (2,), 0: (1,)}), PartitionFamily({1: (3,)})),
    ]
    for G, fam, zfam in cases:
        z = canonical_representative(zfam, fam.size, G)
        # one histogram for both orders: z w and w z are conjugate
        got = type_histogram(G, fam, z)
        for side in (2, 3):
            assert got == brute_histogram(G, fam, z, side)


IDENTITY_CASES = [("cyclic:2", 4), ("cyclic:3", 3), ("sym:3", 3),
                  ("dihedral:4", 3), ("trivial", 7)]


@pytest.mark.parametrize("spec, n", IDENTITY_CASES,
                         ids=["%s-%d" % case for case in IDENTITY_CASES])
def test_histograms_satisfy_mass_and_commutativity(spec, n):
    """Over every ordered pair (a, b) of families, with h(a, b) the
    histogram of C_b against z_a = canonical_representative(a): it has
    mass |C_b|, and |C_a| h(a, b) = |C_b| h(b, a) key by key, since both
    count the pairs of C_a x C_b whose product has that type."""
    G = builtin_group(spec)
    fams = list(families_of_size(n, G.num_classes))
    size = {f: class_order(f, G)[1] for f in fams}
    hist = {}
    for a in fams:
        z = canonical_representative(a, n, G)
        for b in fams:
            hist[a, b] = type_histogram(G, b, z)
            assert sum(hist[a, b].values()) == size[b], (a, b)
    for a in fams:
        for b in fams:
            ab, ba = hist[a, b], hist[b, a]
            for key in ab.keys() | ba.keys():
                assert size[a] * ab.get(key, 0) == size[b] * ba.get(key, 0), \
                    (a, b, key)


def test_histogram_mass(z2):
    fam = PartitionFamily({0: (2,), 1: (1, 1)})
    z = WreathElement.identity(4)
    hist = type_histogram(z2, fam, z)
    assert sum(hist.values()) == class_order(fam, z2)[1]
    # multiplying by the identity just histograms the class itself
    assert hist == {encode_type_key(fam, 4, 2): class_order(fam, z2)[1]}


def test_size_mismatch(z2):
    with pytest.raises(SizeMismatch):
        type_histogram(z2, PartitionFamily({0: (2,)}),
                       WreathElement.identity(3))


def test_overflow_guard(z2):
    fam = PartitionFamily({0: (1,) * 256})
    z = WreathElement.identity(256)
    with pytest.raises(Overflow):
        type_histogram(z2, fam, z)


def test_available_backends():
    assert available_backends() == ("python",)
