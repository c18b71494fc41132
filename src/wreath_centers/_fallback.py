"""Pure-Python enumeration kernel.

Streams a full conjugacy class of G wr S_n and histograms the types of
u = z w or w z for a fixed element z.  This is the
reference twin of the compiled kernel in _speedups; both produce the
same packed byte keys (see kernels.encode_type_key).
"""

from .wreath import _iter_class_raw, _perm_inverse

__all__ = ["type_histogram"]

# side codes
Z_TIMES_W = 2      # u = z w
W_TIMES_Z = 3      # u = w z


def type_histogram(G, fam, z, side):
    n = fam.size
    mul = G.mul
    cls_of = G.class_of
    m = G.num_classes
    width = n + 1
    zlab, zperm = z.labels, z.perm
    zpinv = _perm_inverse(zperm)
    hist = {}
    rng = range(n)
    for wlab, wperm in _iter_class_raw(fam, n, G):
        if side == Z_TIMES_W:
            wpinv = _perm_inverse(wperm)
            ulab = [mul[zlab[wpinv[i]]][wlab[i]] for i in rng]
            uperm = [wperm[zperm[i]] for i in rng]
        else:
            ulab = [mul[wlab[zpinv[i]]][zlab[i]] for i in rng]
            uperm = [zperm[wperm[i]] for i in rng]
        counts = bytearray(m * width)
        seen = [False] * n
        for start in rng:
            if seen[start]:
                continue
            seen[start] = True
            acc = ulab[start]
            length = 1
            j = uperm[start]
            while j != start:
                seen[j] = True
                acc = mul[acc][ulab[j]]
                length += 1
                j = uperm[j]
            counts[cls_of[acc] * width + length] += 1
        key = bytes(counts)
        hist[key] = hist.get(key, 0) + 1
    return hist
