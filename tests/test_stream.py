"""The class stream against an oracle that shares none of its code.

The oracle lists all of G wr S_n with itertools.product over labels and
itertools.permutations over positions, then buckets the elements by
type_of.  The stream order is pinned by digests of small listings, so a
reordering fails here even when every class is still right.
"""
import hashlib
import itertools
import json
import random

import pytest

from wreath_centers.groups import builtin_group
from wreath_centers.kernels import encode_type_key, type_histogram
from wreath_centers.partial import enumerate_partial_class
from wreath_centers.wreath import (
    PartitionFamily, WreathElement, canonical_representative,
    enumerate_class, type_of, w_inverse, w_multiply,
)

ORACLE_CASES = [("trivial", 4), ("cyclic:2", 3), ("cyclic:3", 3),
                ("sym:3", 3), ("dihedral:4", 2)]


def buckets(G, n):
    """{type: set of elements} over the whole of G wr S_n."""
    out = {}
    for labels in itertools.product(range(G.order), repeat=n):
        for perm in itertools.permutations(range(n)):
            x = WreathElement(labels, perm)
            out.setdefault(type_of(x, G), set()).add(x)
    return out


@pytest.fixture(scope="module", params=ORACLE_CASES,
                ids=["%s-%d" % case for case in ORACLE_CASES])
def listed(request):
    spec, n = request.param
    G = builtin_group(spec)
    return G, n, buckets(G, n)


def test_enumerate_class_yields_each_bucket(listed):
    G, n, by_type = listed
    for fam, members in by_type.items():
        streamed = list(enumerate_class(fam, n, G))
        assert len(streamed) == len(members), fam
        assert set(streamed) == members, fam


def test_python_kernel_matches_listed_group(listed):
    G, n, by_type = listed
    for zfam in by_type:
        z = canonical_representative(zfam, n, G)
        for fam, members in by_type.items():
            # one histogram for both orders: z w and w z are conjugate
            got = type_histogram(G, fam, z)
            for side in (2, 3):
                want = {}
                for w in members:
                    u = w_multiply(z, w, G) if side == 2 else w_multiply(w, z, G)
                    key = encode_type_key(type_of(u, G), n, G.num_classes)
                    want[key] = want.get(key, 0) + 1
                assert got == want, (zfam, fam, side)


@pytest.mark.parametrize("spec, n, draws, fams", [
    ("sym:3", 4, 3, None), ("dihedral:4", 4, 3, 12), ("trivial", 6, 11, None)])
def test_kernels_match_listed_group_at_conjugated_z(spec, n, draws, fams):
    # z = x z0 x^-1 for a random x: its labels sit anywhere on its cycles,
    # not only at the last position as canonical_representative puts them
    # fams: how many streamed families each z meets (None: every one)
    G = builtin_group(spec)
    rng = random.Random(n * G.order)
    by_type = buckets(G, n)
    types = sorted(by_type, key=PartitionFamily.sort_key)
    for zfam in rng.sample(types, draws):
        perm = list(range(n))
        rng.shuffle(perm)
        x = WreathElement([rng.randrange(G.order) for _ in range(n)], perm)
        z = w_multiply(w_multiply(x, canonical_representative(zfam, n, G), G),
                       w_inverse(x, G), G)
        for fam in rng.sample(types, fams or len(types)):
            want = {}
            for w in by_type[fam]:
                key = encode_type_key(type_of(w_multiply(w, z, G), G), n,
                                      G.num_classes)
                want[key] = want.get(key, 0) + 1
            assert type_histogram(G, fam, z) == want, (z, fam)


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
    G = builtin_group(spec)
    fam = PartitionFamily(fam)
    lines = ("%r %r" % (w.labels, w.perm)
             for w in enumerate_class(fam, fam.size, G))
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
