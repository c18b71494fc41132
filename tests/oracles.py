"""Reference implementations the tests compare the package against and
the package itself never calls: the listing of G wr S_n, the cycle count
of a family, the certificate of a center expansion, the partial-permutation
semigroup and its JSON reader, the brute-force k coefficient, p#, s#
and skew tableau counts on one alphabet, and one character value of
G wr S_n at a time."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import perm

from wreath_centers.groups import dot
from wreath_centers.partial import GPartialPermutation, enumerate_partial_class
from wreath_centers.partitions import as_partition, dim_partition
from wreath_centers.shifted import _p_sharp_scaled, get_calculator
from wreath_centers.wreath import (
    PartitionFamily, WreathElement, _perm_inverse, canonical_representative,
    class_order, families_of_size, type_of)

ORACLE_MAX_TOTAL_SIZE = 5
ORACLE_MAX_GROUP_ORDER = 3


class GuardrailExceeded(Exception):
    """Brute-force oracle invoked beyond its hard size guardrail."""


class SupportExceedsN(Exception):
    """Partial permutation support does not fit inside the ambient [n]."""


def elements(G, n):
    """Every element of G wr S_n, labels outermost."""
    for labels in product(range(G.order), repeat=n):
        for p in permutations(range(n)):
            yield WreathElement(labels, p)


def buckets(G, n):
    """{type: set of elements} over the whole of G wr S_n."""
    out = {}
    for x in elements(G, n):
        out.setdefault(type_of(x, G), set()).add(x)
    return out


def num_cycles(fam):
    """The number of cycles of a family: its parts over every index."""
    return sum(len(lam) for _, lam in fam.entries)


def x_value(calc, lam, delta):
    """X^lam_delta, lam char-indexed and delta a type of the same size:
    the one entry of calc.x_table, with no cache of its own."""
    return calc.x_table([delta], [lam])[0][0]


@lru_cache(maxsize=8)
def _characters(G, n):
    """(calculator, irreducibles of G wr S_n, their degrees, and a dict
    that certify fills with each class's values over them)."""
    calc = get_calculator(G)
    irr = list(families_of_size(n, len(calc.chars.values), "char"))
    return calc, irr, [calc.dim(chi) for chi in irr], {}


def certify(vec, lam, delta, n, G):
    """Whether vec is C_lam C_delta in Z(C[G wr S_n]), checked exactly in
    Q(zeta_e) on every central character: for each irreducible Lambda,
    |C_lam| |C_delta| X(lam) X(delta) == dim Lambda sum_gamma c^gamma
    |C_gamma| X(gamma), with X = X^Lambda.  The central characters
    separate the center, so no other vector passes."""
    calc, irr, dims, known = _characters(G, n)
    missing = list({lam, delta, *vec.terms} - known.keys())
    known.update(zip(missing, calc.x_table(missing, irr)))
    size = lambda fam: class_order(fam, G)[1]
    left = size(lam) * size(delta)
    weights = [c * size(gam) for gam, c in vec.items()]
    cols = [known[gam] for gam, _ in vec.items()]
    e = calc.chars.exponent
    return all(
        known[lam][i] * known[delta][i] * left
        == dot(weights, [col[i] for col in cols], e) * dim
        for i, dim in enumerate(dims))


def pp_unity():
    """The unity: empty support."""
    return GPartialPermutation((), {}, {})


def partial_from_json(data):
    """The GPartialPermutation that to_json() wrote as data; omitted
    omega and labels entries default to fixed points and identity
    labels."""
    support = [int(i) for i in data.get("support", ())]
    omega = {int(k): int(v) for k, v in data.get("omega", {}).items()}
    labels = {int(k): int(v) for k, v in data.get("labels", {}).items()}
    for i in support:
        omega.setdefault(i, i)
        labels.setdefault(i, 0)
    return GPartialPermutation(support, omega, labels)


def pp_multiply(x, y, G):
    """Product in the partial-permutation semigroup.

    Both factors are extended trivially to the support union u; there
    the product is the one of G wr S_u: apply x's permutation first,
    label_i = xlab(omega_y^{-1}(i)) * ylab(i).
    """
    mul = G.mul
    union = tuple(sorted(set(x.support) | set(y.support)))
    xo, yo = x.omega, y.omega
    xl, yl = x.labels, y.labels
    yo_inv = {v: k for k, v in yo.items()}
    omega = {}
    labels = {}
    for i in union:
        t = xo.get(i, i)
        omega[i] = yo.get(t, t)
        j = yo_inv.get(i, i)
        labels[i] = mul[xl.get(j, 0)][yl.get(i, 0)]
    return GPartialPermutation._of(union, omega, labels)


def pp_type(x, G):
    """Type of a partial permutation: one partition per conjugacy class
    of G, collecting cycle lengths by the class of the cycle product."""
    mul = G.mul
    omega, labels = x.omega, x.labels
    seen = set()
    buckets = {}
    for start in x.support:
        if start in seen:
            continue
        seen.add(start)
        acc = labels[start]
        length = 1
        j = omega[start]
        while j != start:
            seen.add(j)
            acc = mul[acc][labels[j]]
            length += 1
            j = omega[j]
        buckets.setdefault(G.class_of[acc], []).append(length)
    return PartitionFamily._of(
        tuple(sorted((c, tuple(sorted(parts, reverse=True)))
                     for c, parts in buckets.items())),
        "class",
        len(x.support),
    )


def psi(x, n):
    """Embed into G wr S_n by extending with fixed points / identity labels."""
    if x.support and x.support[-1] > n:
        raise SupportExceedsN("support %r exceeds n=%d" % (x.support, n))
    labels = [0] * n
    perm = list(range(n))
    for i in x.support:
        perm[i - 1] = x.omega[i] - 1
        labels[i - 1] = x.labels[i]
    return WreathElement(labels, perm)


def act(a, x, G):
    """Conjugation action of a in G wr S_n on a partial permutation.

    The support moves to sigma^{-1}(d); through psi this is ordinary
    conjugation: psi(act(a, x)) = a * psi(x) * a^{-1}.
    """
    n = a.n
    if x.support and x.support[-1] > n:
        raise SupportExceedsN("support %r exceeds n=%d" % (x.support, n))
    mul, inv = G.mul, G.inv
    pinv = _perm_inverse(a.perm)
    # 1-based wrappers around the 0-based one-line form
    sigma = lambda i: a.perm[i - 1] + 1
    sigma_inv = lambda i: pinv[i - 1] + 1
    glab = lambda i: a.labels[i - 1]
    omega_inv = {v: k for k, v in x.omega.items()}
    support = sorted(sigma_inv(i) for i in x.support)
    omega = {}
    labels = {}
    for i in support:
        si = sigma(i)
        omega[i] = sigma_inv(x.omega[si])
        g_pre = glab(omega_inv[si])
        labels[i] = mul[mul[g_pre][x.labels[si]]][inv[glab(si)]]
    return GPartialPermutation(support, omega, labels)


def canonical_partial_representative(fam, G):
    """Deterministic element of C_{fam;|fam|} with support {1..|fam|}."""
    k = fam.size
    w = canonical_representative(fam, k, G)
    support = tuple(range(1, k + 1))
    omega = {i + 1: w.perm[i] + 1 for i in range(k)}
    labels = {i + 1: w.labels[i] for i in range(k)}
    return GPartialPermutation._of(support, omega, labels)


def proj(comb_map, n):
    """Projection onto the span of partial permutations of [n]: terms
    whose support sticks out are dropped."""
    out = {}
    for x, c in comb_map.items():
        if c and (not x.support or x.support[-1] <= n):
            out[x] = c
    return out


def expand_product_semigroup(lam, delta, n, G):
    """Brute-force product of the two class sums inside P^G_n: a dict
    {partial permutation: coefficient} over all |C_lam| * |C_delta| pairs."""
    if lam.size + delta.size > ORACLE_MAX_TOTAL_SIZE:
        raise GuardrailExceeded(
            "|lam|+|delta|=%d exceeds oracle guardrail %d"
            % (lam.size + delta.size, ORACLE_MAX_TOTAL_SIZE))
    if G.order > ORACLE_MAX_GROUP_ORDER:
        raise GuardrailExceeded(
            "|G|=%d exceeds oracle guardrail %d" % (G.order, ORACLE_MAX_GROUP_ORDER))
    ys = list(enumerate_partial_class(delta, n, G))
    acc = {}
    for x in enumerate_partial_class(lam, n, G):
        for y in ys:
            p = pp_multiply(x, y, G)
            acc[p] = acc.get(p, 0) + 1
    return acc


def k_coeff_oracle(lam, delta, gamma, G, n=None):
    """Independent brute-force value of k_{lam delta}^gamma: expand the
    full product in P^G_n and read the coefficient of the canonical
    element of C_{gamma;n}.  Any n >= |lam|+|delta| gives the same
    answer; that stability is itself a testable claim."""
    if n is None:
        n = lam.size + delta.size
    acc = expand_product_semigroup(lam, delta, n, G)
    if gamma.size > n:
        return 0
    z = canonical_partial_representative(gamma, G)
    return acc.get(z, 0)


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


def contains(rho, lam) -> bool:
    """Whether the diagram of rho sits inside the diagram of lam."""
    rho = tuple(rho)
    lam = tuple(lam)
    if len(rho) > len(lam):
        return False
    return all(rho[i] <= lam[i] for i in range(len(rho)))


@lru_cache(maxsize=4096)
def skew_count(lam, rho) -> int:
    """Number of standard Young tableaux of skew shape lam/rho.

    Corner-removal recursion on the outer shape; 0 whenever rho is not
    contained in lam.
    """
    lam = as_partition(lam)
    rho = as_partition(rho)
    if not contains(rho, lam):
        return 0
    if sum(lam) == sum(rho):
        return 1
    total = 0
    for i in range(len(lam)):
        if i + 1 < len(lam) and lam[i] == lam[i + 1]:
            continue  # not a removable corner
        shorter = lam[:i] + (lam[i] - 1,) + lam[i + 1:]
        shorter = tuple(p for p in shorter if p > 0)
        if contains(rho, shorter):
            total += skew_count(shorter, rho)
    return total
