"""Shifted symmetric functions on |G^*| alphabets and the pointwise
verification of the isomorphism with the invariant algebra.

Power sums live on one alphabet per conjugacy class of G; the basis
change P_r(c) = sum_gamma conj(gamma(c)) P_r(gamma) moves them to one
alphabet per irreducible character.  Irreducible character values of
G wr S_n come out of Hall inner products, which reduce per alphabet to
ordinary symmetric-group characters (Murnaghan-Nakayama); shifted
evaluations use the falling-factorial formulas.  No symmetric function
is ever materialized as a polynomial.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, perm, prod
from operator import getitem, le, mul

from .center import BoundedCache
from .groups import Cyclotomic, columns, dot
from .partitions import dim_partition, mn_character, mn_column
from .partitions import union as part_union
from .universal import k_vector
from .wreath import class_order, families_up_to, family_count

__all__ = [
    "CharacterCalculator",
    "image_eval",
    "verify_theorem71",
]


class CharacterCalculator:
    """Irreducible character values X^Lambda_Delta of G wr S_n.

    X^Lambda_Delta = <S_Lambda, P_Delta>: P_Delta is pushed through the
    character-alphabet basis change, and each gamma-alphabet contracts
    against s_{Lambda(gamma)} giving a symmetric-group character.
    """

    def __init__(self, G):
        self.chars = G.character_table()
        self._terms = BoundedCache(4096)
        self._within = BoundedCache(4096)
        self._points = BoundedCache(4096)

    def conjugate_terms(self, fam):
        """P_fam in the character-alphabet basis, P_r(c) = sum_gamma
        conj(gamma(c)) P_r(gamma), as {boxes per alphabet: [(entries of
        the char family, conjugate coefficient)]}, spreading one part at a
        time; unconjugated weights give the conjugate coefficients."""
        hit = self._terms.get(fam)
        if hit is None:
            values = self.chars.values
            states = {((),) * len(values): Cyclotomic(self.chars.exponent, 1)}
            for src, parts in fam.entries:
                w = [(d, row[src]) for d, row in enumerate(values)
                     if row[src] != 0]
                for r in parts:
                    nxt = {}
                    for state, c in states.items():
                        for d, wd in w:
                            key = (state[:d] + (part_union(state[d], (r,)),)
                                   + state[d + 1:])
                            prev = nxt.get(key)
                            nxt[key] = c * wd if prev is None else prev + c * wd
                    states = nxt
            hit = self._terms[fam] = {}
            for state, cc in states.items():
                if cc != 0:  # the paths into one state may cancel
                    hit.setdefault(tuple(map(sum, state)), []).append(
                        (tuple((d, p) for d, p in enumerate(state) if p), cc))
        return hit

    def terms_within(self, fam, sizes):
        """The terms of conjugate_terms(fam) with at most sizes[gamma] boxes
        on each alphabet gamma: p# vanishes on the others at a point of
        those sizes."""
        hit = self._within.get((fam, sizes))
        if hit is None:
            hit = self._within[fam, sizes] = [
                t for own, terms in self.conjugate_terms(fam).items()
                if all(map(le, own, sizes)) for t in terms]
        return hit

    def point_data(self, point):
        """(den, sizes, values) at a char family point: den, the product of
        dim point(g) (dim g)^|point(g)|, makes each term value whole;
        sizes[g] = |point(g)|; values[entries] = _term_value(entries, ...)."""
        hit = self._points.get(point)
        if hit is None:
            degrees = self.chars.degrees
            sizes = tuple(sum(point.get(g)) for g in range(len(degrees)))
            den = prod(dim_partition(parts) * degrees[g] ** sum(parts)
                       for g, parts in point.entries)
            hit = self._points[point] = (den, sizes, _Memo(
                lambda key: _term_value(key, point, degrees, den)))
        return hit

    def x_table(self, deltas, lams):
        """[[X^lam_delta for lam in lams] for delta in deltas] exactly,
        lams char-indexed and deltas types of one size, uncached: callers
        keep the table (the character table of G wr S_n) or read each
        value once (the chain rows of verify_theorem71).  Each delta's
        terms of one size are split once, into the Murnaghan-Nakayama
        columns of their parts and coordinate columns."""
        e = self.chars.exponent
        zero = Cyclotomic(e).num
        own = [(self.point_data(lam)[1], [parts for _, parts in lam.entries])
               for lam in lams]
        table = []
        for delta in deltas:
            terms, split, values = self.conjugate_terms(delta), {}, []
            for sizes, lparts in own:
                hit = split.get(sizes)
                if hit is None:
                    # a term contracts to zero unless its sizes are lam's
                    same = terms.get(sizes, ())
                    hit = split[sizes] = (
                        [[mn_column(parts) for _, parts in entries]
                         for entries, _ in same],
                        *columns([cc for _, cc in same]))
                tcols, den, cols = hit
                ints = [prod(map(getitem, mn, lparts)) for mn in tcols]
                num = list(zero)
                for k, col in cols:
                    num[k] = sum(map(mul, ints, col))
                values.append(Cyclotomic(e, tuple(num), den))
            table.append(values)
        return table

    def dim(self, lam):
        """Degree of the irreducible indexed by lam:
        |lam|! prod_gamma dim(lam(gamma)) (dim gamma)^{|lam(gamma)|}
        / |lam(gamma)|!."""
        degrees = self.chars.degrees
        num, den = factorial(lam.size), 1
        for g, parts in lam.entries:
            size = sum(parts)
            num *= dim_partition(parts) * degrees[g] ** size
            den *= factorial(size)
        return num // den


@lru_cache(maxsize=8)
def get_calculator(G):
    return CharacterCalculator(G)


@lru_cache(maxsize=4096)
def _p_sharp_scaled(delta, lam):
    """(p#_delta(lam) dim lam, dim lam), two integers: the first is
    (|lam| falling |delta|) * chi^lam at delta padded with 1-parts, and
    0 when |lam| < |delta|."""
    ntop = sum(lam)
    nlow = sum(delta)
    if ntop < nlow:
        return 0, dim_partition(lam)
    padded = tuple(sorted(delta + (1,) * (ntop - nlow), reverse=True))
    return perm(ntop, nlow) * mn_character(lam, padded), dim_partition(lam)


def image_eval(delta, point, G, calc=None, order=None):
    """Image of C_{delta;inf} under the isomorphism at a character-indexed
    family of partitions, (|G|^{|delta|} / Z_delta) P#_delta(point), as a
    Cyclotomic over n! den (n = |point|, den from point_data) unless it is
    0; order, when given, is |C_delta| = class_order(delta, G)[1]."""
    calc = calc or get_calculator(G)
    n = point.size
    if n < delta.size:
        # no term fits a point smaller than delta
        return Cyclotomic(calc.chars.exponent)
    if order is None:
        order = class_order(delta, G)[1]
    # P_delta expanded into character alphabets, p# per alphabet.
    # Conjugate coefficients keep the alphabet labeled gamma aligned with
    # the irreducibles labeled gamma (the twisted representation on the
    # full gamma row has character values gamma(c), not their
    # conjugates).  dim Lambda carries (dim gamma)^|Lambda(gamma)|, so
    # each term is divided by (dim gamma)^|mu(gamma)|, once per box.
    den, sizes, known = calc.point_data(point)
    # |G|^|delta| / Z_delta = |C_delta| / |delta|!, written over n!
    scale = order * perm(n, n - delta.size)
    ints, coeffs = [], []
    for key, cc in calc.terms_within(delta, sizes):
        val = known[key]
        if val:
            ints.append(val * scale)
            coeffs.append(cc)
    return dot(ints, coeffs, calc.chars.exponent, factorial(n) * den)


def _term_value(entries, point, degrees, den):
    """p#_mu(point) den / prod_gamma (dim gamma)^{|mu(gamma)|}, for mu the
    char family of entries and den that of point_data(point): each
    alphabet divides by a factor den holds, so the result is an integer."""
    num = den
    for g, parts in entries:
        top, dim = _p_sharp_scaled(parts, point.get(g))
        if not top:
            return 0
        num = num // (dim * degrees[g] ** sum(parts)) * top
    return num


def verify_theorem71(G, size_cap=2, samples=None, point_size=7,
                     point_cap=200):
    """Pointwise checks of the isomorphism; yields one row
    {"check", "input", "lhs", "rhs", "pass"} per check, as the sweep
    makes it, so no row outlives its reader.

    (a) chain: the image of C_{delta;inf} evaluated at a character
        index Lambda equals the normalized central character
        (|G|^|delta| / Z_delta) (|Lambda| falling |delta|) / dim *
        X^Lambda at padded delta.
    (b) homomorphism: expanding C_{d1;inf} C_{d2;inf} through the
        universal coefficients and applying the map term-wise matches
        the product of the images at character-indexed points.

    Each image is evaluated once per point per sweep, and is 0 without a
    term read when its family is larger than the point; a homomorphism
    sum skips those.  Each expansion term is evaluated once per point
    per calculator, and each value printed is formatted once per sweep.
    Both sides are exact values of Q(zeta_e), e the exponent of G, so
    each check is ==.
    """
    calc = get_calculator(G)
    nchars = len(calc.chars.rows)
    e = calc.chars.exponent
    orders = _Memo(lambda fam: class_order(fam, G)[1])
    # one dict per family, shared by every row that names it
    jsons = _Memo(lambda fam: fam.to_json())
    # one string per value, keyed by its coordinates over Q(zeta_e)
    texts = _Memo(lambda key: _fmt(Cyclotomic(e, *key)))

    def row(check, inp, lhs, rhs):
        # equal values print equal strings, so a passing row formats once
        ok = lhs == rhs
        text = texts[lhs.num, lhs.den]
        return {"check": check, "input": inp, "lhs": text,
                "rhs": text if ok else texts[rhs.num, rhs.den], "pass": ok}

    families = list(families_up_to(size_cap, G.num_classes))
    deltas = families if samples is None else families[:samples]
    points = list(families_up_to(point_size, nchars, kind="char"))
    # points[:ends[s]] are the points of size <= s
    ends = list(accumulate(family_count(s, nchars)
                           for s in range(point_size + 1)))
    images = {pt: _Memo(lambda fam, pt=pt: image_eval(
        fam, pt, G, calc, orders[fam])) for pt in points}
    dims = [calc.dim(lam) for lam in points]
    for delta in deltas:
        order = orders[delta]
        for s in range(point_size + 1):
            lo, hi = ends[s - 1] if s else 0, ends[s]
            # the reference side, central characters: |G|^|delta| / Z_delta
            # (|lam| falling |delta|) = order binomial(|lam|, |delta|),
            # one x_table for all the points of size s
            if s < delta.size:
                rhss = [Cyclotomic(e)] * (hi - lo)
            else:
                scale = [order * comb(s, delta.size)]
                rhss = [dot(scale, [x], e, dim) for x, dim in zip(
                    calc.x_table([delta.pad(s)], points[lo:hi])[0],
                    dims[lo:hi])]
            for lam, rhs in zip(points[lo:hi], rhss):
                yield row("chain", {"delta": jsons[delta], "lam": jsons[lam]},
                          images[lam][delta], rhs)

    proper = [f for f in families if f.is_proper()]
    pairs = [(a, b) for i, a in enumerate(proper) for b in proper[i:]]
    if samples is not None:
        pairs = pairs[:samples]
    for d1, d2 in pairs:
        gams, ks = zip(*k_vector(d1, d2, G).items())
        sizes = [gam.size for gam in gams]
        top = min(d1.size + d2.size + 1, point_size)
        for pt in points[:min(ends[top], point_cap)]:
            known = images[pt]
            # gams is in families_up_to order, and the image of a gam
            # larger than pt is 0: only a prefix of the terms is read
            cut = bisect_right(sizes, pt.size)
            yield row("homomorphism", {"delta1": jsons[d1], "delta2": jsons[d2],
                                       "point": jsons[pt]},
                      dot(ks[:cut], [known[g] for g in gams[:cut]], e),
                      known[d1] * known[d2])


class _Memo(dict):
    """A dict that fills a missing key from fn(key)."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _fmt(v):
    """A value as a row prints it: the fraction over Q = Q(zeta_1), the
    trivial group's field; else 12 digits of the complex, +0j if real."""
    if v.e == 1:
        return str(v.rational())
    c = complex(v)
    return "%.12g%+.12gj" % (c.real, c.imag)
