"""Exact integer-partition combinatorics used by every other module.

Partitions are plain tuples of weakly decreasing positive ints; () is the
empty partition. Character values, dimensions and skew tableau counts are
exact Python ints. Permutations are one-line tuples with 0-based images
(perm[i] = image of i), the package-internal convention.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import SizeMismatch

__all__ = [
    "as_partition", "z_of", "union", "partitions_of", "conjugate",
    "dim_partition", "mn_character", "skew_count", "contains",
]


def as_partition(parts) -> tuple:
    """Normalize an iterable of positive ints into a canonical partition tuple."""
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive ints, got {lam!r}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
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


def _beta_to_partition(beta) -> tuple:
    # beta strictly decreasing; invert lam_i = beta_i - (l - 1 - i)
    l = len(beta)
    lam = tuple(b - (l - 1 - i) for i, b in enumerate(beta))
    return tuple(p for p in lam if p > 0)


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
    if not lam:
        return 1
    r = rho[0]
    rest = rho[1:]
    l = len(lam)
    beta = [lam[i] + l - 1 - i for i in range(l)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        mu = _beta_to_partition(new_beta)
        total += (-1) ** height * mn_character(mu, rest)
    return total


def contains(rho, lam) -> bool:
    """Whether the diagram of rho sits inside the diagram of lam."""
    rho = tuple(rho)
    lam = tuple(lam)
    if len(rho) > len(lam):
        return False
    return all(rho[i] <= lam[i] for i in range(len(rho)))


@lru_cache(maxsize=4096)
def skew_count(lam, rho) -> int:
    """Number of standard Young tableaux of skew shape lam/rho.

    Corner-removal recursion on the outer shape; 0 whenever rho is not
    contained in lam.
    """
    lam = as_partition(lam)
    rho = as_partition(rho)
    if not contains(rho, lam):
        return 0
    if sum(lam) == sum(rho):
        return 1
    total = 0
    for i in range(len(lam)):
        if i + 1 < len(lam) and lam[i] == lam[i + 1]:
            continue  # not a removable corner
        shorter = lam[:i] + (lam[i] - 1,) + lam[i + 1:]
        shorter = tuple(p for p in shorter if p > 0)
        if contains(rho, shorter):
            total += skew_count(shorter, rho)
    return total
