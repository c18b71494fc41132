"""The class stream and the kernel against an oracle that shares none
of their code.

The oracle, oracles.buckets, lists all of G wr S_n with itertools.product
over labels and itertools.permutations over positions, then buckets the
elements by type_of.  The stream order is pinned by digests of small
listings, so a reordering fails here even when every class is still right.
"""
import hashlib
import json
import random

import pytest

from conftest import brute_expand, brute_histogram, decoded
from oracles import buckets, psi
from wreath_centers import wreath
from wreath_centers.groups import builtin_group
from wreath_centers.kernels import type_histogram
from wreath_centers.partial import enumerate_partial_class
from wreath_centers.wreath import (
    PartitionFamily, WreathElement, canonical_representative, class_order,
    w_inverse, w_multiply,
)

ORACLE_CASES = [("trivial", 4), ("cyclic:2", 3), ("cyclic:3", 3),
                ("sym:3", 3), ("dihedral:4", 2)]


@pytest.mark.parametrize("spec, n", ORACLE_CASES,
                         ids=["%s-%d" % case for case in ORACLE_CASES])
def test_enumerate_class_yields_each_bucket(spec, n):
    # one support of n points: the stream of one whole class of G wr S_n
    G = builtin_group(spec)
    for fam, members in buckets(G, n).items():
        streamed = [psi(x, n) for x in enumerate_partial_class(fam, n, G)]
        assert len(streamed) == len(members), fam
        assert set(streamed) == members, fam


@pytest.mark.parametrize("spec, n", ORACLE_CASES,
                         ids=["%s-%d" % case for case in ORACLE_CASES])
def test_python_kernel_matches_listed_group(spec, n):
    G = builtin_group(spec)
    types = list(buckets(G, n))
    for zfam in types:
        z = canonical_representative(zfam, n, G)
        for fam in types:
            # one histogram for both orders: z w and w z are conjugate
            got = decoded(type_histogram(G, fam, z), n, G)
            for side in (2, 3):
                assert got == brute_histogram(G, fam, z, side), (zfam, fam, side)


@pytest.mark.parametrize("spec, n, draws, fams", [
    ("sym:3", 4, 3, None), ("dihedral:4", 4, 3, 12), ("trivial", 6, 11, None)])
def test_kernels_match_listed_group_at_conjugated_z(spec, n, draws, fams):
    # z = x z0 x^-1 for a random x: its labels sit anywhere on its cycles,
    # not only at the last position as canonical_representative puts them
    # fams: how many streamed families each z meets (None: every one)
    G = builtin_group(spec)
    rng = random.Random(n * G.order)
    types = sorted(buckets(G, n), key=PartitionFamily.sort_key)
    for zfam in rng.sample(types, draws):
        perm = list(range(n))
        rng.shuffle(perm)
        x = WreathElement([rng.randrange(G.order) for _ in range(n)], perm)
        z = w_multiply(w_multiply(x, canonical_representative(zfam, n, G), G),
                       w_inverse(x, G), G)
        for fam in rng.sample(types, fams or len(types)):
            got = decoded(type_histogram(G, fam, z), n, G)
            assert got == brute_histogram(G, fam, z, 3), (z, fam)


def test_brute_force_runs_without_the_class_stream(monkeypatch):
    """brute_expand and brute_histogram, on sym:3, list their classes
    with the class stream, its cycle layouts and its label rows refused,
    so a fault there cannot pass on both sides of a check."""
    def refuse(*args, **kwargs):
        raise AssertionError("the class stream ran")

    for name in ("iter_class", "structures", "label_tables"):
        monkeypatch.setattr(wreath, name, refuse)
    buckets.cache_clear()  # list the group under the patch
    G = builtin_group("sym:3")
    size = lambda fam: class_order(fam, G)[1]
    lam, delta = PartitionFamily({1: (2,)}), PartitionFamily({2: (1, 1)})
    assert sum(brute_expand(lam, delta, 2, G).values()) == size(lam) * size(delta)
    fam, zfam = PartitionFamily({2: (2,), 0: (1,)}), PartitionFamily({1: (3,)})
    z = canonical_representative(zfam, 3, G)
    assert sum(brute_histogram(G, fam, z, 3).values()) == size(fam)


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("spec, fam, digest", [
    ("trivial", {0: [3, 2, 1, 1]},
     "fe8ea9e6d487a1b0987930a7d24754eedeac9ccac0fb14902a0d6b8259c3c1d9"),
    ("cyclic:2", {0: [2, 1], 1: [1, 1]},
     "34e65df4a3930dc5fa876f2a34d3d6d5cbac85287c4ddc2b08dbae54b7123952"),
    ("cyclic:3", {1: [1, 1], 2: [2]},
     "28ede18fdcff78e92196205f1a69a54d632423582fe29baa2ce896afe7cb38f6"),
    ("sym:3", {1: [2], 2: [1]},
     "6389a5696bcde597ac27e5b72c149b22598447ccd2592cb51bb9e55b5d751ab3"),
    ("dihedral:4", {0: [1], 3: [2]},
     "b806ed8db8e979170bb9c6a8e6939cd39cc09a54b3b2ee679f8ec3dc04f284ba"),
    # fixed points of one class with two members, placed in one step
    ("sym:3", {0: [2], 2: [1, 1]},
     "063856fd5a110c77652d7178bbe81b299caa97fe888f4c6cad20969e526737c0"),
    ("dihedral:4", {3: [1, 1], 4: [1]},
     "9acd7820d4bf605ff997d2f5fe82ed70e669929e157acabac96fdc831920a19a"),
])
def test_enumerate_class_order_is_pinned(spec, fam, digest):
    # one support of |fam| points: the stream of one whole class, each
    # element written as the labels and 0-based one-line permutation of
    # the member of G wr S_|fam| it stands for
    G = builtin_group(spec)
    fam = PartitionFamily(fam)
    lines = ("%r %r" % (x.labels, x.perm) for x in
             (psi(y, fam.size) for y in enumerate_partial_class(fam, fam.size, G)))
    assert _digest(lines) == digest


@pytest.mark.parametrize("spec, fam, n, digest", [
    ("trivial", {0: [2, 1]}, 4,
     "4b82b10bee4f6cb3eb3acf0e0bfd1f9dab8ea23f0dfd013da842a9a07eb53bcc"),
    ("cyclic:2", {0: [1], 1: [2]}, 4,
     "277d937c85dc96827b16ac00617d03f82299f1115be4841d81b5008d01253bc3"),
    ("sym:3", {2: [2]}, 3,
     "e4dbbd7a8c483e19ede789133dba5e4251ee08110053f8b3605ea9672f5c6d5c"),
    ("cyclic:3", {1: [1], 2: [1, 1]}, 4,
     "295d0d0f6086484ed5d668decd55f5143cee26ab1abe14f9b6bbbd9db8c032a7"),
    ("sym:3", {0: [2], 1: [1, 1]}, 4,
     "b4b58a28e6fbc70ca63c57b76440e7a9377efec1979550ffda687789e08d3568"),
])
def test_enumerate_partial_class_order_is_pinned(spec, fam, n, digest):
    # one line per element, as enumerate-partial lists them
    G = builtin_group(spec)
    lines = (json.dumps(x.to_json(), separators=(",", ":"))
             for x in enumerate_partial_class(PartitionFamily(fam), n, G))
    assert _digest(lines) == digest
