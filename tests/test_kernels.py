"""The histogram kernel: brute force, mass and commutativity identities,
key packing, limits."""
import pytest

from conftest import brute_histogram, decoded
from oracles import canonical_partial_representative, expand_product_semigroup
from wreath_centers.errors import Overflow, SizeMismatch
from wreath_centers.groups import builtin_group
from wreath_centers.kernels import (
    available_backends, decode_type_key, type_histogram,
)
from wreath_centers.universal import k_vector
from wreath_centers.wreath import (
    PartitionFamily, WreathElement, canonical_representative, class_order,
    families_of_size, families_up_to,
)


def test_key_round_trip(s3):
    # against the identity, the histogram of C_fam is the one key of fam
    for fam in families_of_size(4, 3):
        (key,) = type_histogram(s3, fam, WreathElement.identity(4))
        assert decode_type_key(key, 4, 3) == fam
    assert decode_type_key(bytes(8), 3, 2) == PartitionFamily()


def test_pure_kernel_matches_brute_force(z3, s3):
    cases = [
        (z3, PartitionFamily({1: (2, 1)}), PartitionFamily({0: (2,), 2: (1,)})),
        (s3, PartitionFamily({2: (2,), 0: (1,)}), PartitionFamily({1: (3,)})),
    ]
    for G, fam, zfam in cases:
        z = canonical_representative(zfam, fam.size, G)
        # one histogram for both orders: z w and w z are conjugate
        got = decoded(type_histogram(G, fam, z), fam.size, G)
        for side in (2, 3):
            assert got == brute_histogram(G, fam, z, side)


# the last step leaves the fixed points of one non-identity central class,
# alone or after a 2-cycle: class 1 of cyclic:3, and the central
# involution of dihedral:4 (class 1 too)
TAIL_CASES = [("cyclic:3", {1: (1, 1, 1)}), ("cyclic:3", {1: (2, 1, 1)}),
              ("dihedral:4", {1: (1, 1, 1)}), ("dihedral:4", {1: (2, 1, 1)})]


@pytest.mark.parametrize("spec, entries", TAIL_CASES,
                         ids=["%s-%s" % (s, e[1]) for s, e in TAIL_CASES])
def test_one_central_label_tail_matches_brute_force(spec, entries):
    """The closed-form tail, where each tau-cycle takes one copy of the
    central label per position, against the listed class, for z of
    every type of the same size: z's cycles longer than 1 are the
    tau-cycles that take more than one copy."""
    G = builtin_group(spec)
    fam = PartitionFamily(entries)
    assert len(G.classes[1]) == 1
    for zfam in families_of_size(fam.size, G.num_classes):
        z = canonical_representative(zfam, fam.size, G)
        got = decoded(type_histogram(G, fam, z), fam.size, G)
        assert got == brute_histogram(G, fam, z, 3), zfam


@pytest.mark.parametrize("lam, delta", [({1: (2,)}, {2: (2,)}),
                                        ({1: (3,)}, {2: (2,)})])
def test_k_vector_with_an_absent_tail_matches_oracle(z3, lam, delta):
    """Neither family has a fixed point, so after the streamed cycles
    the kernel is left with the absent points alone, which the tail
    closes; every k of the window against the semigroup expansion, read
    as k_coeff_oracle reads it."""
    lam, delta = PartitionFamily(lam), PartitionFamily(delta)
    kvec = k_vector.__wrapped__(lam, delta, z3)  # uncached: the kernel runs
    top = lam.size + delta.size
    product = expand_product_semigroup(lam, delta, top, z3)
    gammas = [g for g in families_up_to(top, z3.num_classes)
              if g.size >= max(lam.size, delta.size)]
    for gamma in gammas:
        want = product.get(canonical_partial_representative(gamma, z3), 0)
        assert kvec.get(gamma, 0) == want, gamma
    assert set(kvec) <= set(gammas)


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
    assert decoded(hist, 4, z2) == {fam: class_order(fam, z2)[1]}


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
