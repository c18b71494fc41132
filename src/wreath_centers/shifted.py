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

from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, perm

from .errors import SizeMismatch
from .partitions import dim_partition, mn_character, skew_count
from .partitions import union as part_union
from .universal import k_vector
from .wreath import PartitionFamily, class_order, families_up_to, family_count

__all__ = [
    "CharacterCalculator",
    "p_sharp_eval",
    "s_sharp_eval",
    "p_sharp_family_eval",
    "image_eval",
    "verify_theorem71",
]


def _compositions(m, k):
    # ordered k-tuples of non-negative ints summing to m
    if k == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _compositions(m - first, k - 1):
            yield (first,) + rest


def _multinomial(m, comp):
    out = factorial(m)
    for a in comp:
        out //= factorial(a)
    return out


def _convolve(terms, nidx, blocks, weight):
    """Distribute each (src, r, mult) block over nidx destination
    alphabets; weight(src, dst) multiplies per moved part."""
    states = dict(terms)
    for src, r, mult in blocks:
        w = [weight(src, d) for d in range(nidx)]
        nxt = {}
        for comp in _compositions(mult, nidx):
            cw = complex(_multinomial(mult, comp))
            for d, a in enumerate(comp):
                if a:
                    cw *= w[d] ** a
            if cw == 0:
                continue
            add = tuple((r,) * a for a in comp)
            for state, c in states.items():
                merged = tuple(
                    part_union(state[d], add[d]) if comp[d] else state[d]
                    for d in range(nidx)
                )
                nxt[merged] = nxt.get(merged, 0) + c * cw
        states = nxt
    return states


def _expand(fam, nidx, weight):
    blocks = []
    for idx, parts in fam.entries:
        mults = {}
        for p in parts:
            mults[p] = mults.get(p, 0) + 1
        for r, m in sorted(mults.items()):
            blocks.append((idx, r, m))
    start = {tuple(() for _ in range(nidx)): 1.0 + 0.0j}
    states = _convolve(start, nidx, blocks, weight)
    return states


def _states_to_terms(states, kind):
    out = {}
    for state, c in states.items():
        if abs(c) < 1e-14:
            continue
        fam = PartitionFamily(
            ((d, parts) for d, parts in enumerate(state) if parts), kind=kind)
        out[fam] = out.get(fam, 0) + c
    return out


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


class CharacterCalculator:
    """Irreducible character values X^Lambda_Delta of G wr S_n.

    X^Lambda_Delta = <S_Lambda, P_Delta>: P_Delta is pushed through the
    character-alphabet basis change, and each gamma-alphabet contracts
    against s_{Lambda(gamma)} giving a symmetric-group character.
    """

    def __init__(self, G):
        self.G = G
        self.chars = G.character_table()
        self._terms = BoundedCache(4096)
        self._x_cache = BoundedCache(4096)

    def expand_class_family(self, fam):
        """P_fam in the character-alphabet basis: {char family: coeff}."""
        rows = self.chars.rows
        states = _expand(fam, len(rows), lambda c, g: rows[g][c].conjugate())
        return _states_to_terms(states, "char")

    def conjugate_terms(self, fam):
        """The terms of expand_class_family(fam) in its order, as (char
        family, conjugate coefficient) pairs, and the same terms grouped
        by _sizes of their family, as (partitions of the non-empty
        alphabets, conjugate coefficient) pairs."""
        hit = self._terms.get(fam)
        if hit is None:
            terms = [(m, complex(c).conjugate())
                     for m, c in self.expand_class_family(fam).items()]
            by_size = {}
            for m, cc in terms:
                by_size.setdefault(_sizes(m), []).append(
                    (tuple(parts for _, parts in m.entries), cc))
            hit = self._terms[fam] = (terms, by_size)
        return hit

    def x_value(self, lam, delta):
        """X^lam_delta for |lam| = |delta|; lam char-indexed, delta a type."""
        if lam.size != delta.size:
            raise SizeMismatch(
                "|lam|=%d vs |delta|=%d" % (lam.size, delta.size))
        key = (lam, delta)
        hit = self._x_cache.get(key)
        if hit is not None:
            return hit
        # a term contracts to zero unless each alphabet holds as many
        # boxes as lam holds there, so only terms of lam's sizes are read
        _, by_size = self.conjugate_terms(delta)
        lparts = tuple(parts for _, parts in lam.entries)
        total = 0j
        for parts, cc in by_size.get(_sizes(lam), ()):
            prod = 1
            for lpart, mpart in zip(lparts, parts):
                prod *= mn_character(lpart, mpart)
            if prod:
                total += cc * prod
        self._x_cache[key] = total
        return total

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


def _sizes(fam):
    """((alphabet, size), ...) over the non-empty alphabets of fam."""
    return tuple((i, sum(parts)) for i, parts in fam.entries)


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


@lru_cache(maxsize=4096)
def p_sharp_eval(delta, lam):
    """p#_delta(lam) = (|lam| falling |delta|) / dim lam * chi^lam at
    delta padded with 1-parts; 0 when |lam| < |delta|.  Exact."""
    return Fraction(*_p_sharp_scaled(delta, lam))


@lru_cache(maxsize=4096)
def s_sharp_eval(rho, lam):
    """s#_rho(lam) = (|lam| falling |rho|) / dim lam * f^{lam/rho};
    0 unless rho fits inside lam.  Exact."""
    cnt = skew_count(lam, rho)
    if not cnt:
        return Fraction(0)
    return Fraction(perm(sum(lam), sum(rho)) * cnt, dim_partition(lam))


def p_sharp_family_eval(delta, point):
    """Product over alphabets of p#_{delta(i)}(point(i)); both families
    must be indexed the same way."""
    out = Fraction(1)
    for i, parts in delta.entries:
        out *= p_sharp_eval(parts, point.get(i))
        if not out:
            return out
    return out


def _image_factor(delta, G):
    """|G|^{|delta|} / Z_delta: a Fraction for |G| = 1, otherwise the
    correctly rounded int / int quotient, the float of that Fraction."""
    num, den = G.order ** delta.size, class_order(delta, G)[0]
    return Fraction(num, den) if G.order == 1 else num / den


def image_eval(delta, point, G, calc=None, terms=None, factor=None):
    """Image of C_{delta;inf} under the isomorphism, evaluated at a
    character-indexed family of partitions: (|G|^{|delta|} / Z_delta)
    times P#_delta at the point.  Exact for |G| = 1, where the one class
    alphabet is the one character alphabet.  terms, a dict of point ->
    {entries of a char family: value}, memoizes the value of each
    expansion term at each point across calls; the images of different
    delta share many terms.  factor, when given, is |G|^{|delta|} /
    Z_delta, which callers evaluating one delta at many points compute
    once."""
    if factor is None:
        factor = _image_factor(delta, G)
    if G.order == 1:
        return factor * p_sharp_family_eval(delta, point)
    if calc is None:
        calc = get_calculator(G)
    # P#_delta at a character-indexed point: expand P_delta into
    # character alphabets, substitute p# per alphabet, evaluate.
    # Conjugate coefficients keep the alphabet labeled gamma aligned
    # with the irreducibles labeled gamma (the twisted representation
    # on the full gamma row has character values gamma(c), not their
    # conjugates).  dim Lambda carries (dim gamma)^|Lambda(gamma)|, so
    # each term is divided by (dim gamma)^|mu(gamma)|, once per box.
    degrees = calc.chars.degrees
    if terms is None:
        terms = {}
    known = terms.get(point)
    if known is None:
        known = terms[point] = {}
    total = 0j
    expansion, _ = calc.conjugate_terms(delta)
    for mfam, cc in expansion:
        # keyed by entries: every term is a char family, and tuples hash
        # and compare without a call into PartitionFamily
        val = known.get(mfam.entries)
        if val is None:
            val = known[mfam.entries] = _term_value(mfam, point, degrees)
        if val:
            total += cc * val
    return float(factor) * total


def _term_value(mfam, point, degrees):
    """p#_mfam(point) / prod_gamma (dim gamma)^{|mfam(gamma)|} as a float.

    The value is one integer numerator over one integer denominator,
    divided once.  int / int rounds correctly, as float(Fraction) does,
    so the float is that of the exact quotient."""
    num = den = 1
    for g, parts in mfam.entries:
        top, dim = _p_sharp_scaled(parts, point.get(g))
        if not top:
            return 0.0
        num *= top
        den *= dim * degrees[g] ** sum(parts)
    return num / den


def verify_theorem71(G, size_cap=2, samples=None, point_size=7,
                     point_cap=200, tol=1e-6):
    """Pointwise checks of the isomorphism; yields one row
    {"check", "input", "lhs", "rhs", "pass", "abs_err"} per check, as
    the sweep makes it, so no row outlives its reader.

    (a) chain: the image of C_{delta;inf} evaluated at a character
        index Lambda equals the normalized central character
        (|G|^|delta| / Z_delta) (|Lambda| falling |delta|) / dim *
        X^Lambda at padded delta.
    (b) homomorphism: expanding C_{d1;inf} C_{d2;inf} through the
        universal coefficients and applying the map term-wise matches
        the product of the images at character-indexed points.

    Each (delta, point) image, and each term of the character-alphabet
    expansions at each point, is evaluated once per sweep.  Values are
    exact Fractions for |G| = 1 and complex floats, compared within
    tol, otherwise.
    """
    calc = get_calculator(G)
    ncls = G.num_classes
    nchars = len(calc.chars.rows)
    exact = G.order == 1
    factors = {}
    jsons = {}

    def factor_of(fam):
        hit = factors.get(fam)
        if hit is None:
            hit = factors[fam] = _image_factor(fam, G)
        return hit

    def image(fam, pt, known):
        # known: the images already evaluated at pt, by family
        hit = known.get(fam)
        if hit is None:
            hit = known[fam] = image_eval(
                fam, pt, G, calc, terms, factor_of(fam))
        return hit

    def js(fam):
        # one dict per family, shared by every row that names it
        hit = jsons.get(fam)
        if hit is None:
            hit = jsons[fam] = fam.to_json()
        return hit

    def row(check, inp, lhs, rhs):
        if exact:
            ok = lhs == rhs
            err = abs(float(lhs - rhs))
        else:
            err = abs(lhs - rhs)
            ok = err <= tol * max(1.0, abs(rhs))
        return {"check": check, "input": inp, "lhs": _fmt(lhs),
                "rhs": _fmt(rhs), "pass": bool(ok), "abs_err": float(err)}

    families = list(families_up_to(size_cap, ncls))
    deltas = families if samples is None else families[:samples]
    points = list(families_up_to(point_size, nchars, kind="char"))
    # points[:ends[s]] are the points of size <= s
    ends = list(accumulate(family_count(s, nchars)
                           for s in range(point_size + 1)))
    images = {pt: {} for pt in points}
    terms = {}
    dims = [calc.dim(lam) for lam in points]
    for delta in deltas:
        factor = factor_of(delta)
        padded = [delta.pad(s) if s >= delta.size else None
                  for s in range(point_size + 1)]
        for lam, dim in zip(points, dims):
            # the reference side: central characters, not the image route
            if lam.size < delta.size:
                rhs = Fraction(0) if exact else 0j
            elif exact:
                chi = mn_character(lam.get(0), padded[lam.size].get(0))
                rhs = factor * Fraction(
                    perm(lam.size, delta.size) * chi, dim)
            else:
                x = calc.x_value(lam, padded[lam.size])
                rhs = (factor * perm(lam.size, delta.size) / dim) * x
            yield row("chain", {"delta": js(delta), "lam": js(lam)},
                      image(delta, lam, images[lam]), rhs)

    proper = [f for f in families if f.is_proper()]
    pairs = [(a, b) for i, a in enumerate(proper) for b in proper[i:]]
    if samples is not None:
        pairs = pairs[:samples]
    for d1, d2 in pairs:
        kvec = k_vector(d1, d2, G).items()
        top = min(d1.size + d2.size + 1, point_size)
        for pt in points[:min(ends[top], point_cap)]:
            known = images[pt]
            rhs = image(d1, pt, known) * image(d2, pt, known)
            lhs = Fraction(0) if exact else 0j
            for g, k in kvec:
                lhs += k * image(g, pt, known)
            yield row("homomorphism",
                      {"delta1": js(d1), "delta2": js(d2), "point": js(pt)},
                      lhs, rhs)


def _fmt(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return "%.12g%+.12gj" % (v.real, v.imag)
    return str(v)
