"""The invariant partial-permutation algebra and its n-free coefficients.

k_{Lambda Delta}^Gamma counts pairs (x, y) of G-partial permutations of
types Lambda, Delta whose product is one fixed element z of type Gamma
with support {1..|Gamma|}.  The count does not depend on the ambient n,
and the finite-n structure coefficients are recovered from them as

    c_{Lambda Delta}^Gamma(n) = sum_j k_{Lambda Delta}^{Gamma^j} binom(n - |Gamma|, j)

for proper families, where Gamma^j adds j extra 1-parts at the identity
class.  structure_polynomials reads that right-hand side off the keys
of k_vector, and polynomiality_checks compares it with
center.product_classes.

k_vector computes every k of a pair as center.product_classes does a
center product, through kernels.partial_type_histogram and
center.divide_histogram; k_stream_size weighs it for the command line.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType

from .center import divide_histogram, product_classes
from .errors import NotProper
from .kernels import partial_type_histogram
from .partial import class_size_partial
from .wreath import class_order, family_order

__all__ = [
    "k_stream_size",
    "k_vector",
    "k_coeff",
    "PolynomialInN",
    "structure_polynomial",
    "structure_polynomials",
    "polynomiality_checks",
]


def k_stream_size(streamed, fixed, G):
    """The closed-form weight of k_vector fixing `fixed` and streaming
    `streamed`, which the command line caps: class_order(streamed) times
    sum_{i <= min(f, k)} binom(f, i), the supports of size k = |streamed|
    in [f + k] up to the permutations that fix {1..f}, f = |fixed|."""
    f, k = fixed.size, streamed.size
    return class_order(streamed, G)[1] * sum(
        comb(f, i) for i in range(min(f, k) + 1))


@lru_cache(maxsize=1024)
def k_vector(lam, delta, G):
    """Every nonzero k_{lam delta}^Gamma at once, as a read-only
    {Gamma: k} mapping in families_up_to order.

    Inside P^G_N with N = |lam|+|delta| every product type fits, and
    C_{lam;N} C_{delta;N} = sum_Gamma k^Gamma C_{Gamma;N}.  As in
    center.product_classes, one factor is fixed, the product types with
    the other class are histogrammed, and
    k^Gamma = |C_fixed;N| * h[Gamma] / |C_{Gamma;N}|.  The side streamed
    is the one with the smaller k_stream_size (delta on a tie).
    """
    if k_stream_size(delta, lam, G) <= k_stream_size(lam, delta, G):
        fixed, streamed = lam, delta
    else:
        fixed, streamed = delta, lam
    N = lam.size + delta.size
    terms = divide_histogram(
        partial_type_histogram(G, streamed, fixed), N, G,
        class_size_partial(fixed, N, G),
        lambda gam: class_size_partial(gam, N, G))
    return MappingProxyType(
        {gam: terms[gam] for gam in sorted(terms, key=family_order(G.num_classes))})


def k_coeff(lam, delta, gamma, G):
    """Universal coefficient k_{lam delta}^gamma (n-independent)."""
    return k_vector(lam, delta, G).get(gamma, 0)


class PolynomialInN:
    """c_{lam delta}^gamma as a function of n, in binomial form
    sum_j k_j binom(n - base, j) with exact integer k_j."""

    __slots__ = ("gamma", "base_size", "binom_coeffs", "min_n")

    def __init__(self, gamma, base_size, binom_coeffs, min_n):
        self.gamma = gamma
        self.base_size = base_size
        self.binom_coeffs = {j: k for j, k in sorted(binom_coeffs.items()) if k}
        self.min_n = min_n

    @property
    def degree(self):
        return max(self.binom_coeffs, default=-1)

    def evaluate(self, n):
        if n < self.min_n:
            raise ValueError("polynomial only defined for n >= %d" % self.min_n)
        g = self.base_size
        return sum(k * comb(n - g, j) for j, k in self.binom_coeffs.items())

    def monomial(self):
        """Exact rational coefficients (c_0, c_1, ...) with
        c(n) = sum_i c_i n^i."""
        deg = self.degree
        if deg < 0:
            return (Fraction(0),)
        out = [Fraction(0)] * (deg + 1)
        g = self.base_size
        for j, k in self.binom_coeffs.items():
            # binom(n-g, j) = prod_{i=0..j-1} (n - g - i) / j!
            poly = [Fraction(1)]
            for i in range(j):
                shift = Fraction(-(g + i))
                nxt = [Fraction(0)] * (len(poly) + 1)
                for d, cf in enumerate(poly):
                    nxt[d] += cf * shift
                    nxt[d + 1] += cf
                poly = nxt
            scale = Fraction(k, factorial(j))
            for d, cf in enumerate(poly):
                out[d] += cf * scale
        return tuple(out)

    def latex(self):
        if not self.binom_coeffs:
            return "0"
        parts = []
        for j, k in self.binom_coeffs.items():
            if j == 0:
                parts.append(str(k))
            else:
                coef = "" if k == 1 else "%d " % k
                parts.append(r"%s\binom{n-%d}{%d}" % (coef, self.base_size, j))
        return " + ".join(parts)

    def to_json(self):
        return {
            "gamma": self.gamma.to_json(),
            "binomial": {str(j): k for j, k in self.binom_coeffs.items()},
            "monomial": [[str(c.numerator), str(c.denominator)] for c in self.monomial()],
            "degree": self.degree,
            "latex": self.latex(),
        }

    def __repr__(self):
        return "PolynomialInN(%s)" % self.latex()


def _require_proper(**fams):
    for name, fam in fams.items():
        if not fam.is_proper():
            raise NotProper("%s=%r has 1-parts at the identity class" % (name, fam))


def structure_polynomials(lam, delta, G):
    """{gamma: polynomial for c_{lam delta}^gamma(n)} for every proper
    gamma with a nonzero polynomial, in families_up_to order.  Each key
    Gamma of the k-vector is gamma^j for gamma = Gamma with its
    identity 1-parts stripped, and contributes k^Gamma binom(n-|gamma|, j).
    lam and delta must be proper (no 1-parts at the identity class)."""
    _require_proper(lam=lam, delta=delta)
    coeffs = {}
    for gam, k in k_vector(lam, delta, G).items():
        base, j = gam.strip_ones()
        coeffs.setdefault(base, {})[j] = k
    low = max(lam.size, delta.size)
    return {base: PolynomialInN(base, base.size, coeffs[base],
                                max(low, base.size))
            for base in sorted(coeffs, key=family_order(G.num_classes))}


def structure_polynomial(lam, delta, gamma, G):
    """Theorem-form polynomial for c_{lam delta}^gamma(n), zero when
    gamma never appears; all three families must be proper."""
    _require_proper(lam=lam, delta=delta, gamma=gamma)
    poly = structure_polynomials(lam, delta, G).get(gamma)
    if poly is None:
        poly = PolynomialInN(gamma, gamma.size, {},
                             max(lam.size, delta.size, gamma.size))
    return poly


def polynomiality_checks(lam, delta, G, n_range, cap):
    """Yield (n, predicted, direct) for each n of n_range, two sparse
    maps over proper families: predicted sends each gamma with
    |gamma| <= n to its nonzero c_{lam delta}^gamma(n) from
    structure_polynomials, and direct sends each key of the one
    product_classes of that n, stripped of its identity 1-parts, to its
    coefficient.  A size-n key is its stripped family padded back to n,
    so direct.get(gamma, 0) is the coefficient of gamma padded to n.
    Every n must be at least max(|lam|, |delta|)."""
    polys = structure_polynomials(lam, delta, G)
    for n in n_range:
        vec = product_classes(lam.pad(n), delta.pad(n), n, G, cap)
        predicted = {}
        for gam, poly in polys.items():
            if gam.size <= n:
                value = poly.evaluate(n)
                if value:
                    predicted[gam] = value
        yield (n, predicted,
               {fam.strip_ones()[0]: c for fam, c in vec.terms.items()})

