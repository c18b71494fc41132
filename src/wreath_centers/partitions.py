"""Exact integer-partition combinatorics used by every other module.

Partitions are plain tuples of weakly decreasing positive ints; () is the
empty partition. Character values and dimensions are exact Python ints.
Permutations are one-line tuples with 0-based images (perm[i] = image of
i), the package-internal convention.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import lt

from .errors import SizeMismatch

__all__ = [
    "as_partition", "z_of", "union", "partitions_of", "conjugate",
    "dim_partition", "mn_character",
]


def as_partition(parts) -> tuple:
    """Normalize an iterable of positive ints into a canonical partition tuple."""
    lam = tuple(map(int, parts))
    if lam and min(lam) <= 0:
        raise ValueError(f"partition parts must be positive ints, got {lam!r}")
    if any(map(lt, lam, lam[1:])):
        lam = tuple(sorted(lam, reverse=True))
    return lam


def z_of(lam) -> int:
    """Centralizer order of a permutation of cycle type lam: prod i^m_i m_i!."""
    out = 1
    for part in set(lam):
        m = lam.count(part)
        out *= part ** m * math.factorial(m)
    return out


def union(lam, mu) -> tuple:
    """Multiset union of two partitions."""
    return tuple(sorted(tuple(lam) + tuple(mu), reverse=True))


@lru_cache(maxsize=4096)
def partitions_of(n: int) -> tuple:
    """All partitions of n in descending lexicographic order."""
    def gen(rem, cap):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, cap), 0, -1):
            for rest in gen(rem - p, p):
                yield (p,) + rest
    return tuple(gen(n, n))


def conjugate(lam) -> tuple:
    if not lam:
        return ()
    out = [0] * lam[0]
    for part in lam:
        for j in range(part):
            out[j] += 1
    return tuple(out)


def dim_partition(lam) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(n) // hooks


@lru_cache(maxsize=4096)
def mn_character(lam, rho) -> int:
    """Symmetric group character chi^lam at cycle type rho.

    Border strips are removed through the beta-number form of the
    Murnaghan-Nakayama rule: subtracting rho_1 from a first-column hook
    length must keep all hook lengths distinct, and the strip height is
    the number of hook lengths jumped over.
    """
    lam = as_partition(lam)
    rho = as_partition(rho)
    if sum(lam) != sum(rho):
        raise SizeMismatch(f"|{lam}| != |{rho}|")
    l = len(lam)
    beads = 0
    for i, p in enumerate(lam):
        beads |= 1 << (p + l - 1 - i)
    return _mn_beads(beads, rho)


@lru_cache(maxsize=8192)
def _mn_beads(beads, rho):
    """mn_character at the partition whose first-column hook lengths
    (beta numbers) are the set bits of beads, bit 0 clear."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    between = (1 << (r - 1)) - 1
    total = 0
    free = beads >> r  # bit b: a bead at b + r
    while free:
        b = free.bit_length() - 1
        free ^= 1 << b
        if beads >> b & 1:
            continue
        new = beads ^ (1 << (b + r)) ^ (1 << b)
        # rows emptied by the strip leave beads at 0, 1, ...: drop them
        new >>= (new ^ (new + 1)).bit_length() - 1
        v = _mn_beads(new, rest)
        total += -v if (beads >> (b + 1) & between).bit_count() % 2 else v
    return total
