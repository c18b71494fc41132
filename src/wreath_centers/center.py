"""Class sums of Z(C[G wr S_n]) and their structure coefficients.

c_{Lambda Delta}^Gamma counts pairs (x, y) in C_Lambda x C_Delta with
xy equal to a fixed element of C_Gamma.  The count is independent of
the chosen representative, so one streamed class plus one type
histogram recovers a whole product expansion at once:

    #{(x,y) : xy in C_Gamma} = |C_Lambda| * #{y : x0 y in C_Gamma}

for any fixed x0 in C_Lambda, and the coefficient is that divided by
|C_Gamma| (the division is exact, asserted).  The characters of
G wr S_n give the same coefficients by the Frobenius formula, which is
cheaper where the streamed class is large against the character table,
and cheaper still once the process holds that table: product_classes
then weighs reading it, not building it.  Which route runs depends on
the tables held; the coefficients do not.
"""

from collections import OrderedDict
from math import factorial

from .errors import CapExceeded, SizeMismatch
from .groups import columns, inner
from .kernels import decode_type_key, type_histogram
from .wreath import (canonical_representative, class_order, families_of_size,
                     family_count)

__all__ = ["AlgebraVector", "product_classes", "divide_histogram", "DEFAULT_CLASS_CAP"]

DEFAULT_CLASS_CAP = 5_000_000
# The route choice of product_classes charges a call the whole character
# table of G wr S_n, as a lone call pays it, unless this process already
# holds that table.  When 8 was fitted a table value took 6-17 us to
# build, the kernel 0.1-20 us per streamed element on classes above 10^4.
# On a grid of 66 products timed cold, 8 gives the chosen route the least
# geometric-mean slowdown (1.05x) and the fewest slower choices (4).
# Tables above MAX_TABLE_VALUES, beyond the grid's largest (48,841
# values), are never built.
VALUE_COST = 8
MAX_TABLE_VALUES = 50_000
# Reading a held table takes 0.35-8 ms on the grid, 0.11-0.81 us per
# value.  Timed warm, every cost above 0.061 and up to 0.166 streamed
# elements per value picks the faster route on 65 of the 66 products (the
# other is 2% slower, a tie) and the least geometric-mean slowdown.
READ_COST = 0.125


class BoundedCache(OrderedDict):
    """A dict that forgets its oldest entry, in O(1), once it holds
    maxsize."""

    def __init__(self, maxsize):
        super().__init__()
        self.maxsize = maxsize

    def __setitem__(self, key, value):
        if key not in self and len(self) >= self.maxsize:
            self.popitem(last=False)
        super().__setitem__(key, value)


# the character tables of G wr S_n this process holds, keyed by (G, n)
_TABLES = BoundedCache(4)


class AlgebraVector:
    """Sparse integer combination of class sums, all keys the same size.
    sizes maps keys to their class sizes |C_Gamma| where the route that
    built the vector knew them, so mass() computes only the others."""

    __slots__ = ("n", "terms", "sizes")

    def __init__(self, n, terms, sizes=None):
        self.n = n
        self.sizes = {} if sizes is None else sizes
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
        sizes = self.sizes
        return sum(c * (sizes.get(fam) or class_order(fam, G)[1])
                   for fam, c in self.terms.items())

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
    """Full expansion C_lam * C_delta = sum_gamma c * C_gamma.

    Two exact routes give the same vector, and a closed form over the
    input picks one.  The kernel streams the smaller class, so its work
    is at most that class's size.  The characters read a table of
    |Irr|^2 values, |Irr| = family_count(n, number of classes of G),
    built once per (G, n) and held for later calls there (four tables at
    most).  The characters run when |Irr|^2 <= MAX_TABLE_VALUES and
    |Irr|^2 * cost < the streamed size, the kernel otherwise: cost is
    READ_COST when this process holds the table, else VALUE_COST, which
    charges the call the whole build.  The cap weighs the route chosen:
    |Irr|^2 * cost for the characters, the streamed size for the kernel.
    Both routes are exact, so the vector never depends on which tables
    are held.
    """
    _check_sizes(n, lam, delta)
    size_l = class_order(lam, G)[1]
    size_d = class_order(delta, G)[1]
    streamed = min(size_l, size_d)
    values = family_count(n, G.num_classes) ** 2
    cost = READ_COST if (G, n) in _TABLES else VALUE_COST
    if values <= MAX_TABLE_VALUES and values * cost < streamed:
        if values * cost > cap:
            raise CapExceeded(
                "the character table of G wr S_%d has %d values, weight "
                "%d, cap is %d" % (n, values, values * cost, cap))
        return _by_characters(lam, delta, n, G)
    if streamed > cap:
        raise CapExceeded(
            "smallest streamable class has %d elements, cap is %d"
            % (streamed, cap))
    return _by_kernel(lam, delta, n, G, size_l, size_d)


def _by_kernel(lam, delta, n, G, size_l, size_d):
    """C_lam * C_delta from one type histogram of the smaller class."""
    # x0 y and y x0 are conjugate, so either factor can be the fixed one
    if size_d <= size_l:
        fixed, streamed, factor = lam, delta, size_l
    else:
        fixed, streamed, factor = delta, lam, size_d
    hist = type_histogram(G, streamed, canonical_representative(fixed, n, G))
    sizes = {}
    return AlgebraVector(n, divide_histogram(
        hist, n, G, factor,
        lambda gam: sizes.setdefault(gam, class_order(gam, G)[1])), sizes)


def _by_characters(lam, delta, n, G):
    """C_lam * C_delta by the Frobenius formula over Irr(H), H = G wr S_n:
    c^gamma = |C_lam| |C_delta| / |H| sum_Lambda X(lam) X(delta)
    conj(X(gamma)) / dim Lambda, that is the sum of (|H| / dim Lambda)
    X(lam) X(delta) conj(X(gamma)) over Z_lam Z_delta (exact, asserted)."""
    weights, table, sizes = _wreath_characters(G, n)
    w = columns([x * y * c for x, y, c in zip(table[lam][0], table[delta][0],
                                             weights)])
    over = class_order(lam, G)[0] * class_order(delta, G)[0]
    e = G.character_table().exponent
    terms = {}
    for gam, (_, conj) in table.items():
        c = inner(w, conj, e).rational() / over
        assert c.denominator == 1, "a structure constant is not an integer"
        terms[gam] = c.numerator
    return AlgebraVector(n, terms, sizes)


def _wreath_characters(G, n):
    """The character table of H = G wr S_n as (weights, table, sizes):
    weights[i] is |H| / dim Lambda_i over the irreducibles Lambda_i, table
    maps each class gamma to its values X^{Lambda_i}(gamma) and the
    columns() of their conjugates, and sizes maps it to |C_gamma|.  Built
    on the first call for (G, n), then held in _TABLES."""
    hit = _TABLES.get((G, n))
    if hit is not None:
        return hit
    # shifted imports this module through universal
    from .shifted import get_calculator
    calc = get_calculator(G)
    irr = list(families_of_size(n, len(calc.chars.values), "char"))
    order = G.order ** n * factorial(n)
    classes = list(families_of_size(n, G.num_classes))
    table = {}
    for gam, values in zip(classes, calc.x_table(classes, irr)):
        table[gam] = values, columns([v.conjugate() for v in values])
    hit = _TABLES[G, n] = ([order // calc.dim(lam) for lam in irr], table,
                           {gam: class_order(gam, G)[1] for gam in classes})
    return hit


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
