"""Pure-Python enumeration kernel.

Streams a full conjugacy class of G wr S_n and histograms the types of
u = w z for a fixed element z.  This is the reference twin of the
compiled kernel in _speedups; both produce the same packed byte keys
(see kernels.encode_type_key).

The stream is structure first, as in _speedups: wreath.structures lays
out each permutation structure of w once, and with it the walk of every
cycle of u.  Per labeling (one row of wreath.label_tables per w-cycle)
only the labels are folded along those walks.  The class tuples are
counted per structure, and each distinct tuple is packed into a byte key
once.  When every table has a single row, as for |G| = 1, a structure
has one labeling, and its labels are folded during the walk itself.
"""

from itertools import chain, product

from .wreath import cycle_kinds, label_tables, structures

__all__ = ["type_histogram"]


def type_histogram(G, fam, z):
    n = fam.size
    mul = G.mul
    cls_of = G.class_of
    width = n + 1
    size = G.num_classes * width
    zperm = z.perm
    # Read at j = z^-1(i), a cycle of u = w z steps j -> w(z(j)) and
    # multiplies the u-labels w_j z_{z(j)} = zcol[j][w_j] in walk order.
    cols = list(zip(*mul))
    zcol = [cols[z.labels[zperm[j]]] for j in range(n)]
    kinds = cycle_kinds(fam)
    tables = label_tables(kinds, G)
    only = {spec: rows[0] for spec, rows in tables.items() if len(rows) == 1}
    if len(only) < len(tables):
        only = None
    hist = {}
    rng = range(n)
    at = [0] * n
    for wperm, walk, placed in structures(kinds, n):
        seen = [False] * n
        if only is not None:
            # at[j]: w's label at j
            for j, g in zip(walk, chain.from_iterable(map(only.__getitem__, placed))):
                at[j] = g
            counts = bytearray(size)
            for start in rng:
                if seen[start]:
                    continue
                acc = 0
                length = 0
                j = start
                while not seen[j]:
                    seen[j] = True
                    acc = mul[acc][zcol[j][at[j]]]
                    length += 1
                    j = wperm[zperm[j]]
                counts[cls_of[acc] * width + length] += 1
            key = bytes(counts)
            hist[key] = hist.get(key, 0) + 1
            continue
        # at[j]: where w's label at j sits in a flattened labeling
        for s, j in enumerate(walk):
            at[j] = s
        walks = []
        lens = []
        for start in rng:
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append((zcol[j], at[j]))
                j = wperm[zperm[j]]
            walks.append(cyc)
            lens.append(len(cyc))
        tally = {}
        for choice in product(*map(tables.__getitem__, placed)):
            lab = tuple(chain.from_iterable(choice))
            classes = []
            for cyc in walks:
                acc = 0
                for col, s in cyc:
                    acc = mul[acc][col[lab[s]]]
                classes.append(cls_of[acc])
            classes = tuple(classes)
            tally[classes] = tally.get(classes, 0) + 1
        for classes, count in tally.items():
            counts = bytearray(size)
            for c, length in zip(classes, lens):
                counts[c * width + length] += 1
            key = bytes(counts)
            hist[key] = hist.get(key, 0) + count
    return hist
