"""Wreath products of a finite group with symmetric groups.

An element is a tuple of labels (one group element per position) plus a
permutation stored as a 0-based one-line tuple. Products compose
left-to-right: (x y).perm sends i to y.perm[x.perm[i]], and the label at i
is x.labels[y.perm^-1(i)] * y.labels[i].

Conjugacy classes are indexed by families of partitions: the partition at
class c collects the lengths of the cycles whose cycle product (the labels
multiplied in walk order: a position's label, then its image's, and so on
round the cycle) lies in conjugacy class c of the label group.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import PadTooSmall, SizeMismatch
from .groups import FiniteGroup
from .partitions import as_partition, partitions_of, z_of

__all__ = [
    "PartitionFamily", "WreathElement", "families_of_size", "family_count",
    "families_up_to", "family_order",
    "w_multiply", "w_inverse", "type_of", "class_order",
    "canonical_representative", "iter_class",
    "cycle_kinds", "structures", "label_tables",
]


class PartitionFamily:
    """Finitely supported map from class (or character) indices to partitions.

    Indices holding the empty partition are dropped, so equal families
    compare equal regardless of how they were written down. kind is
    "class" for conjugacy-class indexing, "char" for character indexing.
    """

    __slots__ = ("kind", "entries", "size", "_hash")

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
        self._set(tuple(items), kind, sum([sum(lam) for _, lam in items]))

    @classmethod
    def _of(cls, entries: tuple, kind: str, size: int) -> "PartitionFamily":
        """Trusted constructor for families the package derives itself:
        entries must already be canonical (a tuple sorted by index, each
        partition a non-empty non-increasing tuple), kind valid and size
        their total."""
        fam = cls.__new__(cls)
        fam._set(entries, kind, size)
        return fam

    def _set(self, entries, kind, size):
        self.kind = kind
        self.entries = entries
        self.size = size
        self._hash = hash((kind, entries))

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
        ones = (1,) * extra
        entries = self.entries
        if entries and entries[0][0] == 0:
            head, entries = entries[0][1] + ones, entries[1:]
        else:
            head = ones
        return PartitionFamily._of(((0, head),) + entries, self.kind, n)

    def strip_ones(self):
        """Remove 1-parts at class 0; returns (proper family, count removed)."""
        lam0 = self.get(0)
        ones = lam0.count(1)
        if ones == 0:
            return self, 0
        rest = self.entries[1:]
        if len(lam0) > ones:
            rest = ((0, lam0[:-ones]),) + rest
        return PartitionFamily._of(rest, self.kind, self.size - ones), ones

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
    if kind not in ("class", "char"):
        raise ValueError(f"unknown family kind {kind!r}")
    for items in gen(0, n):
        yield PartitionFamily._of(items, kind, n)


@lru_cache(maxsize=1024)
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


def type_of(x: WreathElement, G: FiniteGroup) -> PartitionFamily:
    """Conjugacy invariant: cycle lengths bucketed by cycle-product class.

    Along each cycle the labels are multiplied in walk order, g_i g_{p(i)}
    g_{p(p(i))} ..., with p = x.perm.  With the product used here (labels
    of x first, then labels of y at the arrival spots) this is the
    orientation that conjugation preserves; the reverse reading is only
    invariant when G is abelian or the cycle is short.
    """
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


def cycle_kinds(fam: PartitionFamily):
    """[((length, class), count)] over the distinct cycles of fam, longest
    first, then by class: the order in which the class stream offers
    cycles to each leader."""
    counts = {}
    for c, lam in fam.entries:
        for p in lam:
            counts[p, c] = counts.get((p, c), 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[0][0], kv[0][1]))


def structures(kinds, k: int):
    """Every cycle layout of the local positions 0..k-1 whose cycles carry
    the (length, class) specs of cycle_kinds, each layout once.

    A depth-first search: the smallest unused position leads the next
    cycle, each distinct spec left is tried in turn, and the rest of the
    cycle runs over the unused positions in lexicographic order. Once only
    1-cycles of a single class are left, they are placed in one step.

    Yields (perm, walk, placed) on shared state: perm[i] is the image of
    i, walk lists the positions cycle by cycle in placement order and
    placed the spec of each cycle. The lists change after each step, so
    copy what must outlive it.
    """
    kinds = [list(kind) for kind in kinds]
    perm = list(range(k))  # perm[q] == q while q is unplaced
    walk = []
    placed = []
    state = (perm, walk, placed)

    def settled():
        """The specs of the fixed points left, if nothing else is left."""
        live = [kind for kind in kinds if kind[1]]
        if not live:
            return []
        if len(live) == 1 and live[0][0][0] == 1:
            return [live[0][0]] * live[0][1]
        return None

    def place(rest):
        # rest: the unplaced positions, ascending; rest[0] leads
        leader, free = rest[0], rest[1:]
        mark, pmark = len(walk), len(placed)
        for kind in kinds:
            if not kind[1]:
                continue
            spec = kind[0]
            kind[1] -= 1
            placed.append(spec)
            ones = settled()
            placed.extend(ones or ())
            for tail in itertools.permutations(free, spec[0] - 1):
                cycle = (leader,) + tail
                for a, b in zip(cycle, tail + cycle[:1]):
                    perm[a] = b
                walk.extend(cycle)
                left = [q for q in free if q not in tail]
                if ones is None:
                    yield from place(left)
                else:
                    walk.extend(left)
                    yield state
                del walk[mark:]
                for q in cycle:
                    perm[q] = q
            del placed[pmark:]
            kind[1] += 1

    ones = settled()
    if ones is None:
        return place(range(k))
    walk.extend(range(k))
    placed.extend(ones)
    return iter((state,))


def label_tables(kinds, G: FiniteGroup):
    """{(length, class): every label tuple, in walk order, of a cycle of
    that length whose walk-order product lies in that class}.

    The first length - 1 labels run over G in product order; for each,
    the last label is solved once per member of the class, in the order
    of G.classes.
    """
    mul, inv = G.mul, G.inv
    tables = {}
    for (length, cls), _ in kinds:
        rows = []
        for frees in itertools.product(range(G.order), repeat=length - 1):
            q = 0
            for g in frees:
                q = mul[q][g]
            iq = inv[q]
            rows.extend(frees + (mul[iq][t],) for t in G.classes[cls])
        tables[length, cls] = rows
    return tables


def iter_class(fam: PartitionFamily, supports, G: FiniteGroup):
    """Yield (support, omega, labels) for every element of type fam on
    each support in turn; omega and labels are dicts over the support.

    It streams partial-permutation classes (every support of size
    |fam|; one support of size n is a whole class of G wr S_n): per
    support, every cycle layout from structures, and within it every
    choice of one row per cycle from label_tables. omega is shared by
    all labelings of one layout.
    """
    kinds = cycle_kinds(fam)
    tables = label_tables(kinds, G)
    for support in supports:
        support = tuple(sorted(support))
        if fam.size != len(support):
            raise SizeMismatch(f"family size {fam.size} != {len(support)} positions")
        for perm, walk, placed in structures(kinds, len(support)):
            order = [support[i] for i in walk]
            omega = {support[i]: support[perm[i]] for i in walk}
            for rows in itertools.product(*map(tables.__getitem__, placed)):
                yield support, omega, dict(zip(order, itertools.chain.from_iterable(rows)))


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
