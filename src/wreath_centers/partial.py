"""G-labeled partial permutations and their conjugacy classes.

A G-partial permutation is a bijection omega of a finite support set
d of positive integers together with one group label per support
point.  They form a semigroup: the product extends both factors
trivially (identity permutation, identity label) to the union of the
supports and multiplies there.  Positions are 1-based throughout.
"""

from itertools import combinations
from math import comb

from .errors import SizeMismatch, SupportExceedsN
from .wreath import (
    PartitionFamily,
    WreathElement,
    _perm_inverse,
    canonical_representative,
    class_order,
    iter_class,
)

__all__ = [
    "GPartialPermutation",
    "pp_unity",
    "pp_multiply",
    "pp_type",
    "psi",
    "act",
    "class_size_partial",
    "enumerate_partial_class",
    "canonical_partial_representative",
    "proj",
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

    @classmethod
    def from_json(cls, data):
        support = [int(i) for i in data.get("support", ())]
        omega = {int(k): int(v) for k, v in data.get("omega", {}).items()}
        labels = {int(k): int(v) for k, v in data.get("labels", {}).items()}
        # omitted entries default to fixed points / identity labels
        for i in support:
            omega.setdefault(i, i)
            labels.setdefault(i, 0)
        return cls(support, omega, labels)


def pp_unity():
    """The unity: empty support."""
    return GPartialPermutation((), {}, {})


def pp_multiply(x, y, G):
    """Product in the partial-permutation semigroup.

    Both factors are extended trivially to the support union u; there
    the product is the one of G wr S_u: apply x's permutation first,
    label_i = xlab(omega_y^{-1}(i)) * ylab(i).
    """
    mul = G.mul
    union = tuple(sorted(set(x.support) | set(y.support)))
    xo, yo = x.omega, y.omega
    xl, yl = x.labels, y.labels
    yo_inv = {v: k for k, v in yo.items()}
    omega = {}
    labels = {}
    for i in union:
        t = xo.get(i, i)
        omega[i] = yo.get(t, t)
        j = yo_inv.get(i, i)
        labels[i] = mul[xl.get(j, 0)][yl.get(i, 0)]
    return GPartialPermutation._of(union, omega, labels)


def pp_type(x, G):
    """Type of a partial permutation: one partition per conjugacy class
    of G, collecting cycle lengths by the class of the cycle product."""
    mul = G.mul
    omega, labels = x.omega, x.labels
    seen = set()
    buckets = {}
    for start in x.support:
        if start in seen:
            continue
        seen.add(start)
        acc = labels[start]
        length = 1
        j = omega[start]
        while j != start:
            seen.add(j)
            acc = mul[acc][labels[j]]
            length += 1
            j = omega[j]
        buckets.setdefault(G.class_of[acc], []).append(length)
    return PartitionFamily._of(
        tuple(sorted((c, tuple(sorted(parts, reverse=True)))
                     for c, parts in buckets.items())),
        "class",
        len(x.support),
    )


def psi(x, n):
    """Embed into G wr S_n by extending with fixed points / identity labels."""
    if x.support and x.support[-1] > n:
        raise SupportExceedsN("support %r exceeds n=%d" % (x.support, n))
    labels = [0] * n
    perm = list(range(n))
    for i in x.support:
        perm[i - 1] = x.omega[i] - 1
        labels[i - 1] = x.labels[i]
    return WreathElement(labels, perm)


def act(a, x, G):
    """Conjugation action of a in G wr S_n on a partial permutation.

    The support moves to sigma^{-1}(d); through psi this is ordinary
    conjugation: psi(act(a, x)) = a * psi(x) * a^{-1}.
    """
    n = a.n
    if x.support and x.support[-1] > n:
        raise SupportExceedsN("support %r exceeds n=%d" % (x.support, n))
    mul, inv = G.mul, G.inv
    pinv = _perm_inverse(a.perm)
    # 1-based wrappers around the 0-based one-line form
    sigma = lambda i: a.perm[i - 1] + 1
    sigma_inv = lambda i: pinv[i - 1] + 1
    glab = lambda i: a.labels[i - 1]
    omega_inv = {v: k for k, v in x.omega.items()}
    support = sorted(sigma_inv(i) for i in x.support)
    omega = {}
    labels = {}
    for i in support:
        si = sigma(i)
        omega[i] = sigma_inv(x.omega[si])
        g_pre = glab(omega_inv[si])
        labels[i] = mul[mul[g_pre][x.labels[si]]][inv[glab(si)]]
    return GPartialPermutation(support, omega, labels)


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


def canonical_partial_representative(fam, G):
    """Deterministic element of C_{fam;|fam|} with support {1..|fam|}."""
    k = fam.size
    w = canonical_representative(fam, k, G)
    support = tuple(range(1, k + 1))
    omega = {i + 1: w.perm[i] + 1 for i in range(k)}
    labels = {i + 1: w.labels[i] for i in range(k)}
    return GPartialPermutation._of(support, omega, labels)


def proj(comb_map, n):
    """Projection onto the span of partial permutations of [n]: terms
    whose support sticks out are dropped."""
    out = {}
    for x, c in comb_map.items():
        if c and (not x.support or x.support[-1] <= n):
            out[x] = c
    return out


def semigroup_order(n, G):
    """|P^G_n| = sum_k binom(n,k) k! |G|^k."""
    from math import factorial

    return sum(comb(n, k) * factorial(k) * G.order ** k for k in range(n + 1))
