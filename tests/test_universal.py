"""Universal (n-independent) structure coefficients and polynomiality."""
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from conftest import class_map, q8_group
from oracles import (
    GuardrailExceeded, canonical_partial_representative, k_coeff_oracle,
    pp_multiply, pp_type)
from wreath_centers.cli import main
from wreath_centers.errors import NotProper
from wreath_centers.groups import builtin_group
from wreath_centers.partial import class_size_partial, enumerate_partial_class
from wreath_centers.universal import (
    PolynomialInN, k_coeff, k_stream_size, k_vector,
    structure_polynomial, structure_polynomials,
)
from wreath_centers.wreath import PartitionFamily, families_up_to, family_order


def test_k_matches_oracle_small(z2, z3, triv):
    """k_coeff's one-pass class-sum product vs the full semigroup
    expansion, every (lam, delta, gamma) window triple with
    |lam| + |delta| <= 3."""
    for G in (triv, z2, z3):
        k = G.num_classes
        fams = [f for f in families_up_to(3, k)]
        for lam in fams:
            for delta in fams:
                if lam.size + delta.size > 3 or not lam.size or not delta.size:
                    continue
                lo = max(lam.size, delta.size)
                hi = lam.size + delta.size
                for gamma in families_up_to(hi, k):
                    if gamma.size < lo:
                        continue
                    assert k_coeff(lam, delta, gamma, G) \
                        == k_coeff_oracle(lam, delta, gamma, G), \
                        (G.order, lam, delta, gamma)


def test_k_vector_is_read_only(z3):
    one = PartitionFamily({1: (1,)})
    kvec = k_vector(one, one, z3)
    assert dict(kvec) == {PartitionFamily({2: (1,)}): 1,
                          PartitionFamily({1: (1, 1)}): 2}
    with pytest.raises(TypeError):
        kvec[PartitionFamily({2: (1,)})] = 5
    assert k_vector(one, one, z3) is kvec
    assert k_coeff(one, one, PartitionFamily({2: (1,)}), z3) == 1


def test_oracle_stability_in_n(z2):
    # the oracle value must not depend on the ambient n
    lam = PartitionFamily({1: (2,)})
    delta = PartitionFamily({0: (2,)})
    gamma = PartitionFamily({1: (2,), 0: (2,)})
    base = k_coeff_oracle(lam, delta, gamma, z2)
    assert base == k_coeff_oracle(lam, delta, gamma, z2, n=5)


def test_frozen_z3_values(z3):
    """Universal coefficients for the cyclic group of order 3.

    k on ((1)^i, (1)^i -> (1,1)^i) counts unordered merges: 2; the
    target (1)^i u (1)^i at distinct labels i != t has coefficient 1
    (each factor supplies its own labeled point; the reversed
    assignment is a different product), and (1)^{2i} has 1.
    """
    one_at = lambda c: PartitionFamily({c: (1,)})
    # same class twice
    assert k_coeff(one_at(1), one_at(1), PartitionFamily({2: (1,)}), z3) == 1
    assert k_coeff(one_at(1), one_at(1), PartitionFamily({1: (1, 1)}), z3) == 2
    # distinct classes
    mixed = PartitionFamily({1: (1,), 2: (1,)})
    assert k_coeff(one_at(1), one_at(2), mixed, z3) == 1
    assert k_coeff_oracle(one_at(1), one_at(2), mixed, z3) == 1
    # mass conservation at n = 2: |C_(1)^1| = 2, so the product carries
    # 2 * 2 = 4 elements = 1 * |C_(1)^2| + 2 * |C_(1,1)^1| = 2 + 2
    from wreath_centers.partial import class_size_partial
    assert class_size_partial(one_at(1), 2, z3) == 2
    assert (k_coeff(one_at(1), one_at(1), PartitionFamily({2: (1,)}), z3)
            * class_size_partial(PartitionFamily({2: (1,)}), 2, z3)
            + k_coeff(one_at(1), one_at(1),
                      PartitionFamily({1: (1, 1)}), z3)
            * class_size_partial(PartitionFamily({1: (1, 1)}), 2, z3)) == 4


def test_filtration_window(z2):
    # k vanishes outside max(|lam|,|delta|) <= |gamma| <= |lam|+|delta|
    lam = PartitionFamily({0: (2,)})
    delta = PartitionFamily({1: (1,)})
    for gamma in families_up_to(5, 2):
        if not (2 <= gamma.size <= 3):
            assert k_coeff(lam, delta, gamma, z2) == 0, gamma


def test_k_symmetric_for_commuting_semigroup(z3, s3):
    """The class-sum product is commutative on non-abelian G too: every
    k-vector of a pair of nonempty families of size <= 2 equals the
    k-vector of the swapped pair."""
    for G in (z3, s3, builtin_group("dihedral:4")):
        fams = [f for f in families_up_to(2, G.num_classes) if f.size]
        for lam in fams:
            for delta in fams:
                assert dict(k_vector(lam, delta, G)) \
                    == dict(k_vector(delta, lam, G)), (G, lam, delta)


def _k_product(u, v, G):
    """(sum_a u[a] C_a)(sum_b v[b] C_b) as {Gamma: coefficient}, every
    product of two class sums read from k_vector."""
    out = Counter()
    for a, x in u.items():
        for b, y in v.items():
            for gam, k in k_vector(a, b, G).items():
                out[gam] += x * y * k
    return dict(out)


@pytest.mark.parametrize("spec", ["cyclic:2", "sym:3", "dihedral:4"])
def test_k_product_associative(spec):
    """(C_a C_b) C_c = C_a (C_b C_c) exactly, on 40 seeded triples of
    nonempty families of size <= 2."""
    G = builtin_group(spec)
    fams = [f for f in families_up_to(2, G.num_classes) if f.size]
    rng = random.Random(0)
    for _ in range(40):
        a, b, c = ({rng.choice(fams): 1} for _ in range(3))
        assert _k_product(_k_product(a, b, G), c, G) \
            == _k_product(a, _k_product(b, c, G), G), (a, b, c)


def test_structure_polynomial_shape(triv):
    # C_(1) * C_(1) at the identity target: coefficient is n itself
    lam = PartitionFamily({0: (2,)})
    ident = PartitionFamily()
    poly = structure_polynomial(lam, lam, ident, triv)
    # pairs of equal transpositions: binom(n, 2) of them
    assert poly.binom_coeffs == {2: 1}
    assert poly.evaluate(4) == comb(4, 2)
    # binom form: the j-th coefficient sits on binom(n - |gamma|, j)
    assert poly.binom_coeffs == {
        j: k_coeff(lam, lam, ident.pad(j), triv)
        for j in range(5) if k_coeff(lam, lam, ident.pad(j), triv)
    }
    assert poly.latex().count("binom") == len(poly.binom_coeffs) - (0 in poly.binom_coeffs)


def test_polynomial_n_monomial_and_latex(triv):
    # the coefficient of C_gamma in C_gamma * C_id-ish pattern: pick a
    # case whose polynomial is exactly n
    poly = PolynomialInN(PartitionFamily(), 0, {1: 1}, 1)
    assert [str(c) for c in poly.monomial()] == ["0", "1"]
    assert poly.latex() == r"\binom{n-0}{1}"
    assert poly.evaluate(7) == 7
    assert poly.degree == 1
    zero = PolynomialInN(PartitionFamily(), 0, {}, 1)
    assert zero.latex() == "0"
    assert zero.degree == -1
    assert zero.monomial() == (Fraction(0),)


def test_monomial_agrees_with_binomial(z2):
    lam = PartitionFamily({1: (2,)})
    delta = PartitionFamily({1: (1, 1)})
    for gamma in families_up_to(4, 2):
        if not gamma.is_proper() or gamma.size < 2:
            continue
        poly = structure_polynomial(lam, delta, gamma, z2)
        mono = poly.monomial()
        for n in range(poly.min_n, poly.min_n + 5):
            val = sum(c * n ** i for i, c in enumerate(mono))
            assert val == poly.evaluate(n)


def test_not_proper_rejected(z2):
    good = PartitionFamily({1: (2,)})
    bad = PartitionFamily({0: (1,), 1: (1,)})
    with pytest.raises(NotProper):
        structure_polynomial(bad, good, good, z2)
    with pytest.raises(NotProper):
        structure_polynomial(good, good, bad, z2)
    with pytest.raises(NotProper):
        structure_polynomials(good, bad, z2)


def test_structure_polynomials_read_the_k_vector(z2):
    """One polynomial per stripped k-vector key, and structure_polynomial
    is a lookup into them that gives zero for an absent target."""
    lam = PartitionFamily({1: (2,)})
    delta = PartitionFamily({1: (1, 1)})
    kvec = k_vector(lam, delta, z2)
    assert list(kvec) == [g for g in families_up_to(4, 2) if g in kvec]
    polys = structure_polynomials(lam, delta, z2)
    assert list(polys) == [g for g in families_up_to(4, 2) if g in polys]
    assert set(polys) == {g.strip_ones()[0] for g in kvec}
    for gamma, poly in polys.items():
        assert poly.binom_coeffs
        assert structure_polynomial(lam, delta, gamma, z2).to_json() \
            == poly.to_json()
    absent = PartitionFamily({1: (4,)})
    assert absent not in polys
    zero = structure_polynomial(lam, delta, absent, z2)
    assert zero.binom_coeffs == {} and zero.min_n == 4


def test_evaluate_below_min_n(z2):
    poly = structure_polynomial(PartitionFamily({1: (2,)}),
                                PartitionFamily({1: (2,)}),
                                PartitionFamily({1: (2, 2)}), z2)
    assert poly.min_n == 4
    with pytest.raises(ValueError):
        poly.evaluate(3)


def _verify_single(capsys, spec, lam, delta, gamma, n):
    """(exit code, payload) of single-mode verify-poly."""
    rc = main(["--group", spec, "verify-poly", "--lam", json.dumps(lam),
               "--del", json.dumps(delta), "--gam", json.dumps(gamma),
               "--n", str(n)])
    return rc, json.loads(capsys.readouterr().out)


def test_verify_polynomiality(capsys):
    rc, out = _verify_single(capsys, "cyclic:2", {"1": [2]}, {"0": [2]},
                             {"1": [2], "0": [2]}, 6)
    assert rc == 0 and out["pass"] is True
    assert [r["n"] for r in out["rows"]] == [4, 5, 6]
    assert all(r["predicted"] == r["direct"] for r in out["rows"])


def test_verify_polynomiality_small_gamma(capsys):
    """Targets smaller than max(|lam|, |delta|) after stripping appear
    via their padded forms; the window bound constrains the padded
    family, not the proper base."""
    rc, out = _verify_single(capsys, "trivial", {"0": [2]}, {"0": [3]},
                             {"0": [2]}, 6)
    assert rc == 0 and out["pass"] is True
    assert [r["n"] for r in out["rows"]] == [3, 4, 5, 6]
    assert any(r["direct"] for r in out["rows"])


def test_oracle_guardrails(z2, s4):
    big_l = PartitionFamily({0: (4, 3)})
    big_d = PartitionFamily({0: (3, 3)})
    with pytest.raises(GuardrailExceeded):
        k_coeff_oracle(big_l, big_d, big_l, z2)
    with pytest.raises(GuardrailExceeded):
        k_coeff_oracle(PartitionFamily({0: (2,)}),
                       PartitionFamily({0: (2,)}),
                       PartitionFamily({0: (2, 2)}), s4)


def test_polynomial_json(z2):
    poly = structure_polynomial(PartitionFamily({1: (1,)}),
                                PartitionFamily({1: (1,)}),
                                PartitionFamily(), z2)
    j = poly.to_json()
    assert set(j) == {"gamma", "binomial", "monomial", "degree", "latex"}
    assert j["gamma"] == {}
    assert all(isinstance(k, str) for k in j["binomial"])


def _k_by_every_support(lam, delta, G):
    """The k-vector by an independent route: lam fixed at its canonical
    partial permutation, every element of C_{delta;N} on every support
    of [N] multiplied by it with pp_multiply, product types
    histogrammed with pp_type and divided."""
    N = lam.size + delta.size
    x0 = canonical_partial_representative(lam, G)
    hist = Counter(pp_type(pp_multiply(x0, y, G), G)
                   for y in enumerate_partial_class(delta, N, G))
    factor = class_size_partial(lam, N, G)
    out = {}
    for gam in sorted(hist, key=family_order(G.num_classes)):
        total, csize = factor * hist[gam], class_size_partial(gam, N, G)
        assert total % csize == 0
        out[gam] = total // csize
    return out


@pytest.mark.parametrize("spec", ["cyclic:3", "sym:3", "dihedral:4"])
def test_k_vector_equals_every_support_listing(spec):
    """The contraction kernel over G and the absent points gives the
    k-vector of the full listing, values and key order: every ordered
    pair of families of size <= 2, non-proper ones and the empty family
    included, on non-abelian G and on cyclic:3, where absent labels and
    central labels are spread together."""
    G = builtin_group(spec)
    fams = list(families_up_to(2, G.num_classes))
    assert any(not f.is_proper() for f in fams)
    for lam in fams:
        for delta in fams:
            assert list(k_vector(lam, delta, G).items()) \
                == list(_k_by_every_support(lam, delta, G).items()), \
                (lam, delta)


def test_k_stream_size_counts_the_streamed_elements():
    """k_stream_size, the weight the command line caps k_vector by, in
    closed form: |lam| = 4 against |delta| = 1 on the trivial group
    weighs delta's one element on each of 1 + 4 supports, lam its six
    4-cycles on each of 2 supports."""
    lam, delta = PartitionFamily({0: (4,)}), PartitionFamily({0: (1,)})
    triv = builtin_group("trivial")
    assert k_stream_size(delta, lam, triv) == 5
    assert k_stream_size(lam, delta, triv) == 6 * 2


def test_q8_k_vectors_equal_dihedral_4():
    """Q8 and dihedral:4 have isomorphic class algebras; under the class
    map that carries one set of structure constants to the other, their
    k-vectors agree on every ordered pair of nonempty families of size
    <= 2.  Every value compared is an exact integer."""
    q8, d4 = q8_group(), builtin_group("dihedral:4")
    assert any(q8.mul[a][b] != q8.mul[b][a]
               for a in range(8) for b in range(8))
    pi = class_map(q8, d4)
    move = lambda fam: PartitionFamily({pi[c]: parts
                                        for c, parts in fam.entries})
    fams = [f for f in families_up_to(2, q8.num_classes) if f.size]
    for lam in fams:
        for delta in fams:
            moved = {move(g): v for g, v in k_vector(lam, delta, q8).items()}
            assert moved == dict(k_vector(move(lam), move(delta), d4)), \
                (lam, delta)
    assert len(fams) ** 2 == 625
