"""Class sums of Z(C[G wr S_n]) and their structure coefficients.

c_{Lambda Delta}^Gamma counts pairs (x, y) in C_Lambda x C_Delta with
xy equal to a fixed element of C_Gamma.  The count is independent of
the chosen representative, so one streamed class plus one type
histogram recovers a whole product expansion at once:

    #{(x,y) : xy in C_Gamma} = |C_Lambda| * #{y : x0 y in C_Gamma}

for any fixed x0 in C_Lambda, and the coefficient is that divided by
|C_Gamma| (the division is exact, asserted).
"""

from .errors import CapExceeded, SizeMismatch
from .kernels import decode_type_key, type_histogram
from .wreath import canonical_representative, class_order

__all__ = ["AlgebraVector", "product_classes", "divide_histogram", "DEFAULT_CLASS_CAP"]

DEFAULT_CLASS_CAP = 5_000_000


class AlgebraVector:
    """Sparse integer combination of class sums, all keys the same size."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        clean = {}
        for fam, c in terms.items():
            if fam.size != n:
                raise SizeMismatch("key of size %d in a size-%d vector" % (fam.size, n))
            if c:
                clean[fam] = c
        self.terms = clean

    def coeff(self, fam):
        return self.terms.get(fam, 0)

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def mass(self, G):
        """sum of coeff * |C_Gamma|; the product of two class sums has
        mass |C_Lambda| * |C_Delta|."""
        return sum(c * class_order(fam, G)[1] for fam, c in self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, AlgebraVector):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        inner = ", ".join("%r: %d" % kv for kv in self.items())
        return "AlgebraVector(n=%d, {%s})" % (self.n, inner)

    def to_json(self):
        return [
            {"gamma": fam.to_json(), "coeff": c} for fam, c in self.items()
        ]


def _check_sizes(n, *fams):
    for fam in fams:
        if fam.size != n:
            raise SizeMismatch("family %r has size %d, expected %d" % (fam, fam.size, n))


def product_classes(lam, delta, n, G, cap=DEFAULT_CLASS_CAP):
    """Full expansion C_lam * C_delta = sum_gamma c * C_gamma."""
    _check_sizes(n, lam, delta)
    size_l = class_order(lam, G)[1]
    size_d = class_order(delta, G)[1]
    if min(size_l, size_d) > cap:
        raise CapExceeded(
            "smallest streamable class has %d elements, cap is %d"
            % (min(size_l, size_d), cap))
    # x0 y and y x0 are conjugate, so either factor can be the fixed one
    if size_d <= size_l:
        fixed, streamed, factor = lam, delta, size_l
    else:
        fixed, streamed, factor = delta, lam, size_d
    hist = type_histogram(G, streamed, canonical_representative(fixed, n, G))
    return AlgebraVector(n, divide_histogram(
        hist, n, G, factor, lambda gam: class_order(gam, G)[1]))


def divide_histogram(hist, n, G, factor, class_size):
    """{Gamma: factor * count / class_size(Gamma)} over a type histogram
    keyed with width n + 1; each division is exact (asserted)."""
    terms = {}
    for key, cnt in hist.items():
        gam = decode_type_key(key, n, G.num_classes)
        total = factor * cnt
        csize = class_size(gam)
        assert total % csize == 0, "class-constancy violated"
        terms[gam] = total // csize
    return terms
