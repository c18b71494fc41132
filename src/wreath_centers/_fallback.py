"""Pure-Python type-histogram kernel: the compiled kernel's {packed key:
count} (kernels.encode_type_key) by another algorithm.  It places w's
cycles one at a time and contracts the known part of u = w z away.

Read at j = z^-1(i), u steps j -> w(z(j)) and multiplies w_j z_{z(j)}.  A
state on the unplaced positions R holds tau, g and L: from r, u multiplies
w_r g_r, takes L_r steps and goes on at w(tau(r)); z itself is tau = z.perm,
g_r = z_{z(r)}, L_r = 1.  A step places one cycle C of the shortest spec
left, fixed points aside, anywhere on R, or every fixed point of one class
on a subset C; it counts the u-cycles that close in C and folds each chain
through C into R - C.  Once only central fixed points are left, their labels are spread
over the tau-cycles.  Relabeling R and conjugating by G^R keep every type,
so a state is keyed by the specs left and, per tau-cycle, its least
L-rotation and label-product class; it is rebuilt as canonical_representative
lays cycles out and solved once per call.  The cycles of a spec longer
than 1 go in every order, so counts are divided by the product of their
count!.  Types add as integers, one byte per (class, length) slot.

A label may also be absent (index G.order, class G.num_classes): an
identity adjoined to G for a point outside a partial permutation's
support.  It sits on fixed points of w and z only, so an absent tau-cycle
is one position; u is absent only where w and z are, and keys leave it out.
"""

from itertools import combinations, permutations, product
from math import comb, factorial, perm, prod

from .wreath import cycle_kinds, label_tables

__all__ = ["type_histogram"]


def type_histogram(G, fam, z):
    ncls = G.num_classes
    # G with the absent identity adjoined as label G.order, class ncls
    absent = G.order
    mul = [row + (a,) for a, row in enumerate(G.mul)] + [tuple(range(absent + 1))]
    cls_of = G.class_of + (ncls,)
    reps = [members[0] for members in G.classes] + [absent]
    cols = list(zip(*mul))  # cols[h][a] = a h
    width = fam.size + 1
    kinds = cycle_kinds(fam)
    specs = [spec for spec, _ in kinds]
    # row[-1], the absent identity, is read at the positions off the placed cycle
    tables = {spec: [row + (absent,) for row in rows] for spec, rows in
              label_tables([kind for kind in kinds if kind[0][1] < ncls], G).items()}
    tables[1, ncls] = [(absent, absent)]
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
        back = {q: r for r, q in enumerate(tau)}
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
            at = dict(zip(cyc, range(len(cyc))))
            w = dict(zip(cyc, image))
            # walk u from each chain into cyc first, so the open words come
            # before the closed ones, then inside cyc
            words, shapes, lens, seen = [], [], [], set()
            for y in [back[q] for q in cyc if back[q] not in at] + list(cyc):
                word, ls, total = [], [], 0
                while y not in seen:
                    seen.add(y)
                    if y in at or g[y]:
                        word.append((at.get(y, -1), cols[g[y]]))
                    total += L[y]
                    if tau[y] in at:
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
            kept = [cycle for cycle, p in zip(cycles, firsts) if p not in seen]
            opened = len(shapes)
            for classes, count in per.items():
                closed = sum([1 << 8 * (cl * width + ln)
                              for cl, ln in zip(classes[opened:], lens)])
                child = rest, tuple(sorted(kept + list(zip(shapes, classes))))
                tally[closed, child] = tally.get((closed, child), 0) + count
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
