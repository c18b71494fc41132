"""The type-histogram kernel: {packed key: count} over the types of u = w z.

w runs over one class C_fam and z is a fixed element; a key packs the
type of u one byte per slot, byte c * (n + 1) + l counting u's cycles of
length l and class c (decode_type_key reads it back).
The kernel places w's cycles one at a time and contracts the known part
of u away, so it never lists the class.

Read at j = z^-1(i), u steps j -> w(z(j)) and multiplies w_j z_{z(j)}.  A
state on the unplaced positions R holds tau, g and L: from r, u multiplies
w_r g_r, takes L_r steps and goes on at w(tau(r)); z itself is tau = z.perm,
g_r = z_{z(r)}, L_r = 1.  A step places one cycle C of the shortest spec
left, fixed points aside, anywhere on R, or every fixed point of one class
on a subset C; it counts the u-cycles that close in C and folds each chain
through C into R - C.  Once only central fixed points are left, their
labels are spread over the tau-cycles; once only one central label a is
left, each tau-cycle (ls, c) takes |ls| copies of it in one way and
closes one u-cycle of length sum(ls) and class cls(a^|ls| rep_c), so the
state is one key.  Relabeling R and conjugating by G^R keep every type,
so a state is keyed by the specs left and, per tau-cycle, its least
L-rotation and label-product class; it is rebuilt as
canonical_representative lays cycles out and solved once per call.
The cycles of a spec longer than 1 go in every order, so counts are
divided by the product of their count!.  Packed types add as integers.
G's tables and each spec's label rows depend on nothing else, so they
are built once per group and kept.

A label may also be absent (index G.order, class G.num_classes): an
identity adjoined to G for a point outside a partial permutation's
support.  It sits on fixed points of w and z only, so an absent tau-cycle
is one position; u is absent only where w and z are, and keys leave it out.
partial_type_histogram writes such elements.
"""

from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, perm, prod

from .errors import Overflow, SizeMismatch
from .wreath import (
    PartitionFamily, WreathElement, canonical_representative, cycle_kinds,
    label_tables)

__all__ = [
    "BACKEND",
    "available_backends",
    "type_histogram",
    "partial_type_histogram",
    "decode_type_key",
]

# the kernel's name, which group-info and the benchmark record
BACKEND = "python"

# counts are packed one byte per (class, cycle length) slot
_MAX_N = 255


def available_backends():
    return (BACKEND,)


def decode_type_key(key, n, ncls):
    """The family packed in a kernel key for n points and ncls classes:
    byte c * (n + 1) + l of key is its number of parts l at class c."""
    width = n + 1
    entries = []
    for c in range(ncls):
        parts = []
        for length in range(n, 0, -1):
            parts.extend([length] * key[c * width + length])
        if parts:
            entries.append((c, tuple(parts)))
    return PartitionFamily._of(tuple(entries), "class",
                               sum([sum(parts) for _, parts in entries]))


def type_histogram(G, fam, z):
    """Histogram the types of u = w z over w in C_fam in G wr S_n, for
    the fixed element z.  z w = z (w z) z^-1 has the same type, so the
    histogram serves both orders of the product."""
    n = fam.size
    if n != z.n:
        raise SizeMismatch("family size %d vs element size %d" % (n, z.n))
    if n > _MAX_N:
        raise Overflow("n=%d exceeds the packed-key limit %d" % (n, _MAX_N))
    return _histogram(G, fam, z)


def partial_type_histogram(G, streamed, fixed):
    """type_histogram in P^G_N, N = |fixed| + |streamed|: the class of
    `streamed` times the canonical element of `fixed` on {1..f}.  A point
    outside a support is absent (label G.order, class G.num_classes): z
    gets absent labels after its f points and the family f absent fixed
    points, and the product's absent points are left out of the keys.
    The kernel is called directly, so no caller of type_histogram meets
    the absent class."""
    f, k = fixed.size, streamed.size
    if f + k > _MAX_N:
        raise Overflow("N=%d exceeds the packed-key limit %d" % (f + k, _MAX_N))
    z = canonical_representative(fixed, f + k, G)
    z = WreathElement(z.labels[:f] + (G.order,) * k, z.perm)
    absent = ((G.num_classes, (1,) * f),) if f else ()
    fam = PartitionFamily._of(streamed.entries + absent, "class", f + k)
    return _histogram(G, fam, z)


@lru_cache(maxsize=16)
def _group_tables(G):
    """(mul, cls_of, reps, cols) of G with the absent identity adjoined as
    label G.order, class G.num_classes; cols[h][a] = a h."""
    absent = G.order
    mul = tuple(row + (a,) for a, row in enumerate(G.mul)) + (tuple(range(absent + 1)),)
    return (mul, G.class_of + (G.num_classes,),
            tuple(members[0] for members in G.classes) + (absent,),
            tuple(zip(*mul)))


@lru_cache(maxsize=256)
def _label_rows(G, spec):
    """The label rows of one (length, class) spec; row[-1], the absent
    identity, is read at the positions off the placed cycle."""
    if spec[1] == G.num_classes:
        return ((G.order, G.order),)
    return tuple(row + (G.order,) for row in label_tables([(spec, 1)], G)[spec])


def _histogram(G, fam, z):
    ncls = G.num_classes
    absent = G.order
    mul, cls_of, reps, cols = _group_tables(G)
    width = fam.size + 1
    kinds = cycle_kinds(fam)
    specs = [spec for spec, _ in kinds]
    tables = {spec: _label_rows(G, spec) for spec in specs}
    # the labels of each fixed-point spec; a central class has one
    fixed = {k: [row[0] for row in tables[spec]]
             for k, spec in enumerate(specs) if spec[0] == 1}
    central = {k: labels[0] for k, labels in fixed.items() if len(labels) == 1}
    memo = {}

    def solve(key):
        if key in memo:
            return memo[key]
        left, cycles = key
        live = [k for k, count in enumerate(left) if count]
        if not live:
            return {0: 1}
        if len(live) == 1 and live[0] in central:
            # one central label a is left: each tau-cycle (ls, c) takes
            # |ls| copies of it, in one way, and closes one u-cycle of
            # length sum(ls) and class cls(a^|ls| rep_c)
            a, closed = central[live[0]], 0
            for ls, c in cycles:
                acc = reps[c]
                for _ in ls:
                    acc = mul[a][acc]
                closed += 1 << 8 * (cls_of[acc] * width + sum(ls))
            out = memo[key] = {closed: 1}
            return out
        step = spread if all(k in central for k in live) else place
        out = memo[key] = {}
        for (closed, child), count in step(left, cycles, live).items():
            for k, v in solve(child).items():
                out[k + closed] = out.get(k + closed, 0) + count * v
        return out

    def spread(left, cycles, live):
        """w is the identity permutation with central labels: place them
        on the first tau-cycle every way; the other cycles are the child.
        They commute with every label, so the cycle's class is that of its
        representative times the labels it gets."""
        (ls, c), more = cycles[0], cycles[1:]
        tally = {}
        for pick in product(*[range(min(left[k], len(ls)) + 1) for k in live]):
            if sum(pick) == len(ls):
                acc, rest, ways = reps[c], list(left), factorial(len(ls))
                for k, count in zip(live, pick):
                    rest[k] -= count
                    ways //= factorial(count)
                    for _ in range(count):
                        acc = mul[central[k]][acc]
                slot = 1 << 8 * (cls_of[acc] * width + sum(ls))
                tally[slot, (tuple(rest), more)] = ways
        return tally

    def place(left, cycles, live):
        """{(u-cycles closed, child key): count} over the placements of one
        cycle of the shortest spec left that is not a fixed point, or of
        all fixed points of one class."""
        tau, g, L, firsts = [], [], [], []
        for ls, c in cycles:
            p, k = len(tau), len(ls)
            firsts.append(p)
            tau += [*range(p + 1, p + k), p]
            g += [0] * (k - 1) + [reps[c]]
            L += ls
        m = len(tau)
        back = [0] * m
        for r, q in enumerate(tau):
            back[q] = r
        # the fixed points of class j go first when nothing else is left,
        # or when they and the spec-i cycle after them take fewer
        # placements (times labelings of the fixed points) than that cycle
        i = max((k for k in live if k not in fixed), default=None)
        j = next((k for k in live if k in fixed), None)
        length = specs[i][0] if i is not None else 1
        if i is None or (j is not None and (
                comb(m, left[j]) * len(fixed[j]) ** left[j]
                + perm(m - left[j], length) // length < perm(m, length) // length)):
            rows = [labels + (0,) for labels in product(fixed[j], repeat=left[j])]
            places = ((cyc, cyc) for cyc in combinations(range(m), left[j]))
            rest = left[:j] + (0,) + left[j + 1:]
        else:
            rows = tables[specs[i]]
            places = (((lead,) + tail, tail + (lead,))
                      for lead in range(m - length + 1)
                      for tail in permutations(range(lead + 1, m), length - 1))
            rest = left[:i] + (left[i] - 1,) + left[i + 1:]
        tally = {}
        for cyc, image in places:
            # at[q], q's index in cyc or -1, reads row[-1] off cyc; w[q]
            # is w(q) on cyc
            at, w, seen = [-1] * m, [0] * m, [False] * m
            for s, q in enumerate(cyc):
                at[q], w[q] = s, image[s]
            # walk u from each chain into cyc first, so the open words come
            # before the closed ones, then inside cyc
            words, shapes, lens = [], [], []
            for y in [back[q] for q in cyc if at[back[q]] < 0] + list(cyc):
                word, ls, total = [], [], 0
                while not seen[y]:
                    seen[y] = True
                    if at[y] >= 0 or g[y]:
                        word.append((at[y], cols[g[y]]))
                    total += L[y]
                    if at[tau[y]] >= 0:
                        y = w[tau[y]]
                    else:
                        ls.append(total)
                        total, y = 0, tau[y]
                if word:  # empty if y was seen before the walk
                    words.append(word)
                    if ls:
                        shapes.append(min(tuple(ls[k:] + ls[:k]) for k in range(len(ls))))
                    else:
                        lens.append(total)
            per = {}
            for row in rows:
                classes = []
                for word in words:
                    acc = absent
                    for s, col in word:
                        acc = mul[acc][col[row[s]]]
                    classes.append(cls_of[acc])
                classes = tuple(classes)
                per[classes] = per.get(classes, 0) + 1
            # the walks visit every position of the tau-cycles that meet cyc
            kept = [cycle for cycle, p in zip(cycles, firsts) if not seen[p]]
            opened = len(shapes)
            # with no word left open, every labeling has one child
            child = None if opened else (rest, tuple(sorted(kept)))
            for classes, count in per.items():
                closed = sum([1 << 8 * (cl * width + ln)
                              for cl, ln in zip(classes[opened:], lens)])
                key = closed, child or (
                    rest, tuple(sorted(kept + list(zip(shapes, classes)))))
                tally[key] = tally.get(key, 0) + count
        return tally

    left = tuple(count for _, count in kinds)
    # z's cycles, each with the class of its label product
    cycles, seen = [], set()
    for j in range(fam.size):
        acc, ls = absent, ()
        while j not in seen:
            seen.add(j)
            acc, ls, j = mul[acc][z.labels[j]], ls + (1,), z.perm[j]
        if ls:
            cycles.append((ls, cls_of[acc]))
    over = prod(factorial(count) for k, count in enumerate(left) if k not in fixed)
    # the slots past the last class hold the absent fixed points of u
    size = ncls * width
    return {k.to_bytes(size + width, "little")[:size]: v // over
            for k, v in solve((left, tuple(sorted(cycles)))).items()}
