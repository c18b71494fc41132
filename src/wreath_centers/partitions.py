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
    "dim_partition", "mn_character", "mn_column",
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


def mn_character(lam, rho) -> int:
    """Symmetric group character chi^lam at cycle type rho, read from
    the column of rho."""
    lam = as_partition(lam)
    rho = as_partition(rho)
    if sum(lam) != sum(rho):
        raise SizeMismatch(f"|{lam}| != |{rho}|")
    return mn_column(rho)[lam]


@lru_cache(maxsize=1024)
def mn_column(rho) -> dict:
    """{lam: chi^lam(rho)} over every partition lam of |rho|, for rho a
    partition tuple.

    The Murnaghan-Nakayama rule run forwards: starting from the empty
    partition, border strips of the parts of rho, smallest first, are
    added to every shape reached so far.  Shapes are beta-number sets of
    n = |rho| beads, the set bits of an int; a strip of length r moves a
    bead from b to an empty b + r, with sign -1 per bead it jumps over.
    """
    n = sum(rho)
    states = {(1 << n) - 1: 1}
    for r in reversed(rho):
        between = (1 << (r - 1)) - 1
        nxt = {}
        for beads, v in states.items():
            free = beads & ~(beads >> r)  # bit b: a bead at b, none at b + r
            while free:
                low = free & -free
                free ^= low
                new = beads ^ low ^ (low << r)
                if (beads >> low.bit_length() & between).bit_count() & 1:
                    nxt[new] = nxt.get(new, 0) - v
                else:
                    nxt[new] = nxt.get(new, 0) + v
        states = nxt
    return {lam: states.get(beads, 0) for beads, lam in _bead_sets(n)}


@lru_cache(maxsize=64)
def _bead_sets(n):
    """(beads, lam) over the partitions lam of n, beads the set of the n
    beta numbers lam_i + n - 1 - i (lam padded with zeros)."""
    out = []
    for lam in partitions_of(n):
        beads = (1 << (n - len(lam))) - 1
        for i, p in enumerate(lam):
            beads |= 1 << (p + n - 1 - i)
        out.append((beads, lam))
    return tuple(out)
