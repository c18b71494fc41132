"""Backend dispatch for the class-stream type histograms.

The compiled kernel (_speedups, Cython) is used when it imported
cleanly and WREATH_CENTERS_PURE is unset; otherwise the pure-Python
twin (_fallback) takes over.  Both return {packed key: count} with the
same byte layout, so results are interchangeable and cross-checkable.
"""

import os
from functools import lru_cache

from . import _fallback
from .errors import Overflow, SizeMismatch
from .wreath import PartitionFamily, cycle_kinds

try:
    from . import _speedups
except ImportError:
    _speedups = None

__all__ = [
    "BACKEND",
    "available_backends",
    "type_histogram",
    "encode_type_key",
    "decode_type_key",
]

_FORCE_PURE = os.environ.get("WREATH_CENTERS_PURE", "") not in ("", "0")
BACKEND = "python" if (_speedups is None or _FORCE_PURE) else "cython"

# counts are packed one byte per (class, cycle length) slot
_MAX_N = 255
_MAX_ORDER = 32767


def available_backends():
    out = ["python"]
    if _speedups is not None:
        out.insert(0, "cython")
    return tuple(out)


def encode_type_key(fam, n, ncls):
    """Pack a class-indexed family of total size n into the byte key
    the kernels emit: counts[class * (n+1) + length] = multiplicity."""
    width = n + 1
    counts = bytearray(ncls * width)
    for c, parts in fam.entries:
        for p in parts:
            counts[c * width + p] += 1
    return bytes(counts)


def decode_type_key(key, n, ncls):
    """The family of total size n that encode_type_key packed into key."""
    width = n + 1
    entries = []
    for c in range(ncls):
        parts = []
        for length in range(n, 0, -1):
            parts.extend([length] * key[c * width + length])
        if parts:
            entries.append((c, tuple(parts)))
    return PartitionFamily._of(tuple(entries), "class", n)


@lru_cache(maxsize=32)
def _group_tables(G):
    flat = [v for row in G.mul for v in row]
    members = []
    offsets = [0]
    for cls in G.classes:
        members.extend(cls)
        offsets.append(len(members))
    return flat, list(G.inv), list(G.class_of), members, offsets


def _kinds(fam):
    kinds = cycle_kinds(fam)
    lens = [length for (length, _), _ in kinds]
    clss = [c for (_, c), _ in kinds]
    cnts = [count for _, count in kinds]
    return lens, clss, cnts


def type_histogram(G, fam, z, backend=None):
    """Stream C_fam in G wr S_n and histogram the types of u = w z for
    the fixed element z.  z w = z (w z) z^-1 has the same type, so the
    histogram serves both orders of the product."""
    n = fam.size
    if n != z.n:
        raise SizeMismatch("family size %d vs element size %d" % (n, z.n))
    if n > _MAX_N:
        raise Overflow("n=%d exceeds the packed-key limit %d" % (n, _MAX_N))
    if G.order > _MAX_ORDER:
        raise Overflow("|G|=%d exceeds kernel limit %d" % (G.order, _MAX_ORDER))
    name = backend or BACKEND
    if name == "cython":
        if _speedups is None:
            raise ValueError("compiled backend unavailable")
        flat, inv, cls_of, members, offsets = _group_tables(G)
        lens, clss, cnts = _kinds(fam)
        # side 3 of the compiled kernel: u = w z
        return _speedups.type_histogram(
            n, G.order, G.num_classes, 3, flat, inv, cls_of,
            members, offsets, lens, clss, cnts, list(z.labels), list(z.perm))
    if name == "python":
        return _fallback.type_histogram(G, fam, z)
    raise ValueError("unknown backend %r" % (name,))
