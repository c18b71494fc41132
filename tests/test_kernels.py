"""Histogram kernels: compiled vs pure parity, key packing, limits."""
import os
import subprocess
import sys

import pytest

from wreath_centers.errors import Overflow, SizeMismatch
from wreath_centers.kernels import (
    BACKEND, available_backends, decode_type_key, encode_type_key,
    type_histogram,
)
from wreath_centers.wreath import (
    PartitionFamily, WreathElement, canonical_representative,
    enumerate_class, families_of_size, type_of, w_multiply,
)

needs_cython = pytest.mark.skipif(
    BACKEND != "cython", reason="compiled backend not built")


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
        got = type_histogram(G, fam, z, backend="python")
        for side in (2, 3):
            assert got == brute_histogram(G, fam, z, side)


@needs_cython
def test_backend_parity(z2, z3, s3):
    for G, n in ((z2, 4), (z3, 3), (s3, 3)):
        zf = next(f for f in families_of_size(n, G.num_classes)
                  if f.num_cycles > 1)
        z = canonical_representative(zf, n, G)
        for fam in families_of_size(n, G.num_classes):
            assert type_histogram(G, fam, z, backend="cython") \
                == type_histogram(G, fam, z, backend="python"), \
                (G.order, fam)


def test_histogram_mass(z2):
    from wreath_centers.wreath import class_order
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
    names = available_backends()
    assert "python" in names
    if BACKEND == "cython":
        assert names[0] == "cython"


def test_pure_env_override():
    code = ("import wreath_centers.kernels as k; print(k.BACKEND)")
    env = dict(os.environ, WREATH_CENTERS_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "python"
