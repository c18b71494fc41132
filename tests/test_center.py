"""Center of the wreath group algebra: structure constants."""
import json
import math
import random
from pathlib import Path

import pytest

from wreath_centers import center
from wreath_centers.center import AlgebraVector, product_classes
from wreath_centers.errors import CapExceeded, SizeMismatch
from wreath_centers.groups import builtin_group
from wreath_centers.wreath import (
    PartitionFamily, class_order, families_of_size, family_count,
)

from conftest import brute_expand, q8_group
from oracles import certify


def check_group_scale(G, n):
    """product_classes against the double-enumeration oracle, all pairs."""
    fams = list(families_of_size(n, G.num_classes))
    for lam in fams:
        for delta in fams:
            vec = product_classes(lam, delta, n, G)
            brute = brute_expand(lam, delta, n, G)
            # brute counts elements; vector counts class multiples
            expanded = {}
            for gam, c in vec.terms.items():
                expanded[gam] = c * class_order(gam, G)[1]
            assert expanded == brute, (lam, delta)


def test_product_matches_brute_trivial(triv):
    for n in (2, 3, 4):
        check_group_scale(triv, n)


def test_product_matches_brute_z2(z2):
    for n in (2, 3):
        check_group_scale(z2, n)


def test_product_matches_brute_z3(z3):
    check_group_scale(z3, 2)


def test_product_matches_brute_s3(s3):
    check_group_scale(s3, 2)


@pytest.mark.parametrize("spec,n", [("trivial", 8), ("cyclic:2", 5),
                                    ("cyclic:3", 4), ("sym:3", 4),
                                    ("dihedral:4", 3), ("q8", 3)])
def test_routes_agree(spec, n):
    """The kernel and the Frobenius sum over the characters of G wr S_n
    give the same vector on every pair of families, complex and
    non-abelian G included."""
    G = q8_group() if spec == "q8" else builtin_group(spec)
    fams = [(f, class_order(f, G)[1])
            for f in families_of_size(n, G.num_classes)]
    for i, (lam, size_l) in enumerate(fams):
        for delta, size_d in fams[i:]:
            assert (center._by_kernel(lam, delta, n, G, size_l, size_d)
                    == center._by_characters(lam, delta, n, G)), (lam, delta)


def test_route_choice(monkeypatch, triv, z2):
    """(9) x (6,3) streams 20160 elements against a 30 x 30 table and goes
    to the characters; at cyclic:2, n = 6, the largest pair of a
    verify-poly sweep up to size 3 streams 160 elements against a 65 x 65
    table and stays on the kernel; (6) x (6) at n = 16 streams 960960
    elements, more than VALUE_COST times its 231 x 231 table, which is
    above MAX_TABLE_VALUES, so it stays on the kernel too."""
    monkeypatch.setattr(center, "_TABLES", center.BoundedCache(4))
    monkeypatch.setattr(center, "_by_kernel", lambda *args: "kernel")
    monkeypatch.setattr(center, "_by_characters", lambda *args: "characters")

    def route(lam, delta, n, G):
        return product_classes(PartitionFamily(lam).pad(n),
                               PartitionFamily(delta).pad(n), n, G)

    assert route({0: (9,)}, {0: (6, 3)}, 9, triv) == "characters"
    assert route({0: (3,)}, {1: (3,)}, 6, z2) == "kernel"
    assert route({0: (6,)}, {0: (6,)}, 16, triv) == "kernel"


def test_route_choice_with_no_table_held(monkeypatch):
    """With no table held the rule is the one that charges every call the
    whole build: each of the 66 products of the route grid in
    BENCH_22.json takes the route recorded there, and no table is
    built."""
    grid = json.loads((Path(__file__).resolve().parents[1]
                       / "BENCH_22.json").read_text())["route_grid"]
    monkeypatch.setattr(center, "_TABLES", center.BoundedCache(4))
    monkeypatch.setattr(center, "_by_kernel", lambda *args: "kernel")
    monkeypatch.setattr(center, "_by_characters", lambda *args: "characters")
    assert len(grid) == 66
    for row in grid:
        G, n = builtin_group(row["group"]), row["n"]
        lam = PartitionFamily.from_json(row["lam"]).pad(n)
        delta = PartitionFamily.from_json(row["del"]).pad(n)
        assert product_classes(lam, delta, n, G) == row["chosen"], row
    assert not center._TABLES


def test_held_table_is_read(monkeypatch, triv):
    """(6,2) x (3,2,2,2) at n = 9 streams 2,520 elements, below the 7,200
    that a 30 x 30 table costs to build: with no table held it goes to
    the kernel.  Once (4,2) x (3,2,2), which streams 7,560, has built the
    table, reading it weighs 900 * READ_COST, and the same pair is
    answered from the table with the kernel's vector."""
    monkeypatch.setattr(center, "_TABLES", center.BoundedCache(4))
    routes = []
    for name in ("_by_kernel", "_by_characters"):
        def spy(*args, route=getattr(center, name), name=name):
            routes.append(name)
            return route(*args)
        monkeypatch.setattr(center, name, spy)

    def fam(parts):
        return PartitionFamily({0: parts}).pad(9)

    lam, delta = fam((6, 2)), fam((3, 2, 2, 2))
    size_l, size_d = class_order(lam, triv)[1], class_order(delta, triv)[1]
    assert min(size_l, size_d) == 2520
    by_kernel = product_classes(lam, delta, 9, triv)
    product_classes(fam((4, 2)), fam((3, 2, 2)), 9, triv)
    assert list(center._TABLES) == [(triv, 9)]
    read = product_classes(lam, delta, 9, triv)
    assert read == by_kernel
    assert read.mass(triv) == by_kernel.mass(triv) == size_l * size_d
    assert routes == ["_by_kernel", "_by_characters", "_by_characters"]


def test_fifth_table_evicts_the_oldest(monkeypatch, triv):
    """The process holds at most four tables: a fifth (G, n) evicts the
    one built first, whose products are then charged the build again."""
    monkeypatch.setattr(center, "_TABLES",
                        center.BoundedCache(center._TABLES.maxsize))
    for n in range(2, 7):
        center._wreath_characters(triv, n)
    assert list(center._TABLES) == [(triv, n) for n in range(3, 7)]
    monkeypatch.setattr(center, "_by_kernel", lambda *args: "kernel")
    monkeypatch.setattr(center, "_by_characters", lambda *args: "characters")
    # (2) x (2) at n = 2 streams 1 element against a 2 x 2 table
    two = PartitionFamily({0: (2,)})
    assert product_classes(two, two, 2, triv) == "kernel"


def assert_certified(lam, delta, n, G):
    """The kernel's C_lam C_delta passes the certificate, and fails it
    with one coefficient moved by +1, and with a count moved between two
    classes so that the mass stays the same."""
    size_l, size_d = class_order(lam, G)[1], class_order(delta, G)[1]
    vec = center._by_kernel(lam, delta, n, G, size_l, size_d)
    assert certify(vec, lam, delta, n, G), (lam, delta)
    (g1, c1), *rest = vec.items()
    plus_one = AlgebraVector(n, {**vec.terms, g1: c1 + 1})
    assert not certify(plus_one, lam, delta, n, G), (lam, delta)
    if rest:
        g2, c2 = rest[0]
        s1, s2 = class_order(g1, G)[1], class_order(g2, G)[1]
        g = math.gcd(s1, s2)
        moved = AlgebraVector(n, {**vec.terms, g1: c1 - s2 // g,
                                  g2: c2 + s1 // g})
        assert moved.mass(G) == vec.mass(G)
        assert not certify(moved, lam, delta, n, G), (lam, delta)


@pytest.mark.parametrize("spec,n", [("sym:3", 3), ("dihedral:4", 3),
                                    ("cyclic:3", 3), ("q8", 2)])
def test_certificate_every_pair(spec, n):
    """Every kernel expansion at small (G, n) against the central
    characters of G wr S_n, exactly."""
    G = q8_group() if spec == "q8" else builtin_group(spec)
    fams = list(families_of_size(n, G.num_classes))
    for i, lam in enumerate(fams):
        for delta in fams[i:]:
            assert_certified(lam, delta, n, G)


@pytest.mark.parametrize("spec,n", [("cyclic:2", 9), ("trivial", 17)])
def test_certificate_beyond_the_table_bound(spec, n):
    """Three seeded pairs each where |Irr|^2 is above MAX_TABLE_VALUES,
    so the kernel is the only route; one factor's class has at most
    10^4 elements."""
    G = builtin_group(spec)
    assert family_count(n, G.num_classes) ** 2 > center.MAX_TABLE_VALUES
    fams = list(families_of_size(n, G.num_classes))
    small = [f for f in fams if class_order(f, G)[1] <= 10 ** 4]
    rng = random.Random(23)
    for _ in range(3):
        assert_certified(rng.choice(small), rng.choice(fams), n, G)


def test_mass_and_commutativity(z2, z3):
    for G, n in ((z2, 3), (z3, 3)):
        fams = list(families_of_size(n, G.num_classes))
        for i, lam in enumerate(fams):
            for delta in fams[i:]:
                ab = product_classes(lam, delta, n, G)
                ba = product_classes(delta, lam, n, G)
                assert ab == ba
                assert ab.mass(G) == (class_order(lam, G)[1]
                                      * class_order(delta, G)[1])


def test_identity_acts_trivially(z3):
    n = 3
    e = PartitionFamily({0: (1, 1, 1)})
    for lam in families_of_size(n, 3):
        vec = product_classes(e, lam, n, z3)
        assert vec == AlgebraVector(n, {lam: 1})


def test_associativity_spots(z2):
    # (C_a C_b) C_c == C_a (C_b C_c) for a few triples at n = 3
    n = 3
    a = PartitionFamily({0: (3,)})
    b = PartitionFamily({1: (2,), 0: (1,)})
    c = PartitionFamily({1: (1, 1, 1)})

    def times_vec(vec, fam):
        acc = {}
        for gam, coeff in vec.terms.items():
            for ngam, c2 in product_classes(gam, fam, n, z2).terms.items():
                acc[ngam] = acc.get(ngam, 0) + coeff * c2
        return AlgebraVector(n, acc)

    left = times_vec(product_classes(a, b, n, z2), c)
    rhs_vec = product_classes(b, c, n, z2)
    right = {}
    for gam, coeff in rhs_vec.terms.items():
        for ngam, c2 in product_classes(a, gam, n, z2).terms.items():
            right[ngam] = right.get(ngam, 0) + coeff * c2
    assert left == AlgebraVector(n, right)


def test_cap_exceeded(z2):
    lam = PartitionFamily({0: (4, 3, 2)})
    delta = PartitionFamily({1: (9,)})
    with pytest.raises(CapExceeded):
        product_classes(lam, delta, 9, z2, cap=10)


def test_size_mismatch(z2):
    with pytest.raises(SizeMismatch):
        product_classes(PartitionFamily({0: (2,)}),
                        PartitionFamily({0: (3,)}), 3, z2)
    with pytest.raises(SizeMismatch):
        AlgebraVector(3, {PartitionFamily({0: (2,)}): 1})


def test_vector_behaviors():
    f2 = PartitionFamily({0: (2,)})
    f11 = PartitionFamily({0: (1, 1)})
    v = AlgebraVector(2, {f2: 2, f11: 0})
    assert v.coeff(f2) == 2
    assert v.coeff(f11) == 0
    assert f11 not in v.terms
    assert v.items() == [(f2, 2)]
    assert v.to_json() == [{"gamma": {"0": [2]}, "coeff": 2}]
    assert v != AlgebraVector(2, {f2: 1})
