"""G-labeled partial permutations and their conjugacy classes.

A G-partial permutation is a bijection omega of a finite support set
d of positive integers together with one group label per support
point.  They form a semigroup: the product extends both factors
trivially (identity permutation, identity label) to the union of the
supports and multiplies there.  Positions are 1-based throughout.
"""

from itertools import combinations
from math import comb, factorial

from .errors import SizeMismatch
from .wreath import class_order, iter_class

__all__ = [
    "GPartialPermutation",
    "class_size_partial",
    "enumerate_partial_class",
    "semigroup_order",
]


class GPartialPermutation:
    """Immutable G-partial permutation (support, omega, labels).

    support is a sorted tuple of distinct positive integers; omega and
    labels are dicts whose key set is exactly the support.  Positions
    outside the support are absent, never stored as sentinels.
    """

    __slots__ = ("support", "omega", "labels", "_key")

    def __init__(self, support, omega, labels):
        support = tuple(sorted(support))
        if len(set(support)) != len(support):
            raise ValueError("support has repeated positions")
        if support and support[0] < 1:
            raise ValueError("support positions must be >= 1")
        omega = dict(omega)
        labels = dict(labels)
        if set(omega) != set(support) or set(omega.values()) != set(support):
            raise ValueError("omega is not a bijection of the support")
        if set(labels) != set(support):
            raise ValueError("labels must be defined exactly on the support")
        self._set(support, omega, labels)

    @classmethod
    def _of(cls, support, omega, labels):
        """Trusted constructor for elements the package builds itself:
        support a sorted tuple of distinct positive ints, omega a
        bijection of it and labels defined exactly on it.  The dicts are
        kept, not copied; nothing may change them afterwards."""
        x = cls.__new__(cls)
        x._set(support, omega, labels)
        return x

    def _set(self, support, omega, labels):
        self.support = support
        self.omega = omega
        self.labels = labels
        self._key = (support, tuple(map(omega.__getitem__, support)),
                     tuple(map(labels.__getitem__, support)))

    def __eq__(self, other):
        if not isinstance(other, GPartialPermutation):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        pairs = ", ".join(
            "%d->%d:%d" % (i, self.omega[i], self.labels[i]) for i in self.support
        )
        return "GPartialPermutation({%s})" % pairs

    def to_json(self):
        return {
            "support": list(self.support),
            "omega": {str(i): self.omega[i] for i in self.support},
            "labels": {str(i): self.labels[i] for i in self.support},
        }


def class_size_partial(lam, n, G):
    """|C_{Lambda;n}|: number of partial permutations of [n] with type
    lam.  Counted as padded-class size times the number of ways the
    padding fixed points hide among n - |lam| free positions."""
    k = lam.size
    if k > n:
        raise SizeMismatch("|Lambda|=%d exceeds n=%d" % (k, n))
    lam0 = lam.get(0)
    m1 = sum(1 for p in lam0 if p == 1)
    return comb(n - k + m1, m1) * class_order(lam.pad(n), G)[1]


def enumerate_partial_class(lam, n, G):
    """Stream C_{Lambda;n}, each element exactly once.

    Supports of size |lam| are chosen from [n], then permutation
    structures and admissible labelings are filled in per cycle.
    """
    k = lam.size
    if k > n:
        raise SizeMismatch("|Lambda|=%d exceeds n=%d" % (k, n))
    for sup, omega, labels in iter_class(lam, combinations(range(1, n + 1), k), G):
        yield GPartialPermutation._of(sup, omega, labels)


def semigroup_order(n, G):
    """|P^G_n| = sum_k binom(n,k) k! |G|^k."""
    return sum(comb(n, k) * factorial(k) * G.order ** k for k in range(n + 1))
