"""Wreath products of a finite group with symmetric groups.

An element is a tuple of labels (one group element per position) plus a
permutation stored as a 0-based one-line tuple. Products compose
left-to-right: (x y).perm sends i to y.perm[x.perm[i]], and the label at i
is x.labels[y.perm^-1(i)] * y.labels[i].

Conjugacy classes are indexed by families of partitions: the partition at
class c collects the lengths of the cycles whose cycle product (labels
multiplied from the last position of the cycle back to the first) lies in
conjugacy class c of the label group.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from .errors import NotACycle, PadTooSmall, SizeMismatch
from .groups import FiniteGroup
from .partitions import as_partition, partitions_of, union, z_of

__all__ = [
    "PartitionFamily", "WreathElement", "families_of_size", "family_count",
    "families_up_to", "family_order",
    "w_multiply", "w_inverse", "cycle_product", "type_of", "class_order",
    "enumerate_class", "canonical_representative", "iter_class",
]


class PartitionFamily:
    """Finitely supported map from class (or character) indices to partitions.

    Indices holding the empty partition are dropped, so equal families
    compare equal regardless of how they were written down. kind is
    "class" for conjugacy-class indexing, "char" for character indexing.
    """

    __slots__ = ("kind", "entries", "_hash")

    def __init__(self, entries=(), kind: str = "class"):
        if isinstance(entries, dict):
            entries = entries.items()
        items = []
        for idx, parts in entries:
            idx = int(idx)
            if idx < 0:
                raise ValueError(f"negative index {idx}")
            lam = as_partition(parts)
            if lam:
                items.append((idx, lam))
        items.sort()
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise ValueError(f"duplicate index {a}")
        if kind not in ("class", "char"):
            raise ValueError(f"unknown family kind {kind!r}")
        self.kind = kind
        self.entries = tuple(items)
        self._hash = hash((self.kind, self.entries))

    @property
    def size(self) -> int:
        return sum(sum(lam) for _, lam in self.entries)

    @property
    def num_cycles(self) -> int:
        return sum(len(lam) for _, lam in self.entries)

    def get(self, idx: int) -> tuple:
        for i, lam in self.entries:
            if i == idx:
                return lam
        return ()

    def indices(self) -> tuple:
        return tuple(i for i, _ in self.entries)

    def is_proper(self) -> bool:
        """No parts equal to 1 at the identity class (class-indexed only)."""
        if self.kind != "class":
            raise ValueError("properness is defined for class-indexed families")
        return 1 not in self.get(0)

    def pad(self, n: int) -> "PartitionFamily":
        """Add 1-parts at class 0 up to total size n."""
        if self.kind != "class":
            raise ValueError("padding is defined for class-indexed families")
        extra = n - self.size
        if extra < 0:
            raise PadTooSmall(f"cannot pad size-{self.size} family to {n}")
        if extra == 0:
            return self
        items = dict(self.entries)
        items[0] = union(items.get(0, ()), (1,) * extra)
        return PartitionFamily(items, self.kind)

    def strip_ones(self):
        """Remove 1-parts at class 0; returns (proper family, count removed)."""
        lam0 = self.get(0)
        ones = lam0.count(1)
        if ones == 0:
            return self, 0
        items = dict(self.entries)
        items[0] = tuple(p for p in lam0 if p != 1)
        return PartitionFamily(items, self.kind), ones

    def sort_key(self):
        return (self.size, self.entries)

    def to_json(self) -> dict:
        return {str(i): list(lam) for i, lam in self.entries}

    @classmethod
    def from_json(cls, obj, kind: str = "class") -> "PartitionFamily":
        if not isinstance(obj, dict):
            raise ValueError("family JSON must be an object of index -> parts")
        return cls({int(k): v for k, v in obj.items()}, kind)

    def __eq__(self, other):
        return (isinstance(other, PartitionFamily)
                and self.kind == other.kind and self.entries == other.entries)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{i}: {list(lam)}" for i, lam in self.entries)
        return f"PartitionFamily({{{body}}}, kind={self.kind!r})"


def families_of_size(n: int, num_indices: int, kind: str = "class"):
    """All partition families of total size n over the given index range."""
    def gen(idx, rem):
        if idx == num_indices:
            if rem == 0:
                yield ()
            return
        for k in range(rem, -1, -1):
            for lam in partitions_of(k):
                head = ((idx, lam),) if lam else ()
                for rest in gen(idx + 1, rem - k):
                    yield head + rest
    for items in gen(0, n):
        yield PartitionFamily(items, kind)


def family_count(n: int, num_indices: int) -> int:
    """How many families families_of_size(n, num_indices) yields, without
    listing them: the num_indices-fold convolution of the partition
    numbers p(0), ..., p(n)."""
    if n < 0:
        return 0
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    out = [1] + [0] * n
    for _ in range(num_indices):
        out = [sum(out[j] * p[m - j] for j in range(m + 1))
               for m in range(n + 1)]
    return out[n]


def families_up_to(n: int, num_indices: int, kind: str = "class"):
    for size in range(n + 1):
        yield from families_of_size(size, num_indices, kind)


def family_order(num_indices: int):
    """Sort key that puts families in the order families_up_to yields
    them: by size, then index by index, larger partitions first and
    partitions of equal size in descending lexicographic order."""
    def key(fam):
        return (fam.size, tuple((-sum(lam), tuple(-p for p in lam))
                                for lam in map(fam.get, range(num_indices))))
    return key


class WreathElement:
    """Labels plus permutation; immutable and hashable."""

    __slots__ = ("labels", "perm", "_hash")

    def __init__(self, labels, perm):
        self.labels = tuple(labels)
        self.perm = tuple(perm)
        if len(self.labels) != len(self.perm):
            raise SizeMismatch(f"{len(self.labels)} labels vs {len(self.perm)} positions")
        self._hash = hash((self.labels, self.perm))

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "WreathElement":
        return cls((0,) * n, tuple(range(n)))

    def to_json(self) -> dict:
        return {"labels": list(self.labels),
                "perm": [p + 1 for p in self.perm]}

    def __eq__(self, other):
        return (isinstance(other, WreathElement)
                and self.labels == other.labels and self.perm == other.perm)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WreathElement(labels={self.labels}, perm={self.perm})"


def _perm_inverse(perm):
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


def w_multiply(x: WreathElement, y: WreathElement, G: FiniteGroup) -> WreathElement:
    if x.n != y.n:
        raise SizeMismatch(f"sizes {x.n} and {y.n} differ")
    qinv = _perm_inverse(y.perm)
    mul = G.mul
    labels = tuple(mul[x.labels[qinv[i]]][y.labels[i]] for i in range(x.n))
    perm = tuple(y.perm[p] for p in x.perm)
    return WreathElement(labels, perm)


def w_inverse(x: WreathElement, G: FiniteGroup) -> WreathElement:
    inv = G.inv
    labels = tuple(inv[x.labels[x.perm[i]]] for i in range(x.n))
    return WreathElement(labels, _perm_inverse(x.perm))


def cycle_product(x: WreathElement, cycle, G: FiniteGroup) -> int:
    """Conjugacy class of g_{i_1} g_{i_2} ... g_{i_r} along a cycle given 1-based.

    The labels are multiplied in walk order.  With the product used here
    (labels of x first, then labels of y at the arrival spots) this is
    the orientation that conjugation actually preserves; the reverse
    reading is only invariant when G is abelian or the cycle is short.
    """
    cyc = [i - 1 for i in cycle]
    if len(set(cyc)) != len(cyc) or not cyc:
        raise NotACycle(f"{cycle} has repeats or is empty")
    for j, i in enumerate(cyc):
        if not 0 <= i < x.n:
            raise NotACycle(f"position {i + 1} outside [1, {x.n}]")
        if x.perm[i] != cyc[(j + 1) % len(cyc)]:
            raise NotACycle(f"{cycle} is not a cycle of the permutation")
    acc = x.labels[cyc[0]]
    for i in cyc[1:]:
        acc = G.mul[acc][x.labels[i]]
    return G.class_of[acc]


def type_of(x: WreathElement, G: FiniteGroup) -> PartitionFamily:
    """Conjugacy invariant: cycle lengths bucketed by cycle-product class."""
    seen = [False] * x.n
    buckets: dict[int, list] = {}
    mul = G.mul
    for start in range(x.n):
        if seen[start]:
            continue
        acc = x.labels[start]
        length = 1
        seen[start] = True
        j = x.perm[start]
        while j != start:
            seen[j] = True
            acc = mul[acc][x.labels[j]]
            length += 1
            j = x.perm[j]
        buckets.setdefault(G.class_of[acc], []).append(length)
    return PartitionFamily({c: tuple(sorted(ls, reverse=True))
                            for c, ls in buckets.items()})


def class_order(fam: PartitionFamily, G: FiniteGroup):
    """(Z_fam, |C_fam|) for a size-n family: |C| = |G|^n n! / Z."""
    n = fam.size
    if any(i >= G.num_classes for i in fam.indices()):
        raise SizeMismatch(f"family indexes class {max(fam.indices())} "
                           f"but the group has {G.num_classes} classes")
    z = 1
    for c, lam in fam.entries:
        z *= z_of(lam) * G.xi[c] ** len(lam)
    total = G.order ** n * math.factorial(n)
    assert total % z == 0
    return z, total // z


def _iter_structures(positions, specs):
    """Cycle layouts: specs is a multiset of (length, class_id) covering positions."""
    if not positions:
        yield ()
        return
    leader = positions[0]
    rest = positions[1:]
    seen = set()
    for i, spec in enumerate(specs):
        if spec in seen:
            continue
        seen.add(spec)
        length, cls = spec
        remaining = specs[:i] + specs[i + 1:]
        for tail in itertools.permutations(rest, length - 1):
            cycle = (leader,) + tail
            left = tuple(p for p in rest if p not in tail)
            for more in _iter_structures(left, remaining):
                yield ((cycle, cls),) + more


def _iter_labelings(cycles, G: FiniteGroup):
    """Label assignments making each cycle product land in its class."""
    mul, inv = G.mul, G.inv
    order = G.order

    def gen(k, acc):
        if k == len(cycles):
            yield dict(acc)
            return
        positions, cls = cycles[k]
        r = len(positions)
        members = G.classes[cls]
        for frees in itertools.product(range(order), repeat=r - 1):
            q = 0
            for g in frees:
                q = mul[q][g]
            iq = inv[q]
            base = acc + list(zip(positions, frees))
            for t in members:
                yield from gen(k + 1, base + [(positions[r - 1], mul[iq][t])])

    yield from gen(0, [])


def iter_class(fam: PartitionFamily, positions, G: FiniteGroup):
    """Yield (omega, labels) dicts over abstract positions, type = fam.

    The same generator drives full wreath classes (positions = range(n))
    and partial-permutation classes (positions = a support set).
    """
    positions = tuple(sorted(positions))
    if fam.size != len(positions):
        raise SizeMismatch(f"family size {fam.size} != {len(positions)} positions")
    specs = tuple(sorted(((p, c) for c, lam in fam.entries for p in lam),
                         key=lambda s: (-s[0], s[1])))
    for cycles in _iter_structures(positions, specs):
        omega = {}
        for cyc, _ in cycles:
            for j, p in enumerate(cyc):
                omega[p] = cyc[(j + 1) % len(cyc)]
        for labels in _iter_labelings(cycles, G):
            yield omega, labels


def _iter_class_raw(fam: PartitionFamily, n: int, G: FiniteGroup):
    """(labels, perm) tuples of the size-n class; fam must already be padded."""
    for omega, labmap in iter_class(fam, range(n), G):
        perm = tuple(omega[i] for i in range(n))
        labels = tuple(labmap[i] for i in range(n))
        yield labels, perm


def enumerate_class(fam: PartitionFamily, n: int, G: FiniteGroup) -> Iterator[WreathElement]:
    """Stream the conjugacy class C_fam inside the size-n wreath product."""
    if fam.size != n:
        raise SizeMismatch(f"family size {fam.size} != n = {n}; pad first")
    for labels, perm in _iter_class_raw(fam, n, G):
        yield WreathElement(labels, perm)


def canonical_representative(fam: PartitionFamily, n: int, G: FiniteGroup) -> WreathElement:
    """Deterministic member of C_{fam padded to n}.

    The family's cycles are laid on consecutive positions, classes in
    ascending order and parts in descending order within a class; padding
    fixed points with identity labels fill the tail. Each cycle carries
    identity labels except its last position, which holds the minimal
    member of the class.
    """
    if fam.size > n:
        raise PadTooSmall(f"family size {fam.size} exceeds n = {n}")
    labels = [0] * n
    perm = list(range(n))
    pos = 0
    for cls, lam in fam.entries:
        for part in lam:
            for j in range(part - 1):
                perm[pos + j] = pos + j + 1
            perm[pos + part - 1] = pos
            labels[pos + part - 1] = G.classes[cls][0]
            pos += part
    return WreathElement(labels, perm)
