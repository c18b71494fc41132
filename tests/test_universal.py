"""Universal (n-independent) structure coefficients and polynomiality."""
from fractions import Fraction
from math import comb

import pytest

from wreath_centers.errors import GuardrailExceeded, NotProper
from wreath_centers.universal import (
    PolynomialInN, k_coeff, k_coeff_oracle, k_vector,
    structure_polynomial, structure_polynomials, verify_polynomiality,
)
from wreath_centers.wreath import PartitionFamily, families_up_to


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


def test_k_symmetric_for_commuting_semigroup(z3):
    fams = [f for f in families_up_to(2, 3) if f.size]
    for lam in fams:
        for delta in fams:
            for gamma in families_up_to(lam.size + delta.size, 3):
                if gamma.size < max(lam.size, delta.size):
                    continue
                assert k_coeff(lam, delta, gamma, z3) \
                    == k_coeff(delta, lam, gamma, z3)


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


def test_verify_polynomiality(z2):
    lam = PartitionFamily({1: (2,)})
    delta = PartitionFamily({0: (2,)})
    gamma = PartitionFamily({1: (2,), 0: (2,)})
    out = verify_polynomiality(lam, delta, gamma, z2, range(4, 7))
    assert out["all_match"] is True
    assert [r["n"] for r in out["rows"]] == [4, 5, 6]
    assert all(r["predicted"] == r["direct"] for r in out["rows"])


def test_verify_polynomiality_small_gamma(triv):
    """Targets smaller than max(|lam|, |delta|) after stripping appear
    via their padded forms; the window bound constrains the padded
    family, not the proper base."""
    lam = PartitionFamily({0: (2,)})
    delta = PartitionFamily({0: (3,)})
    gamma = PartitionFamily({0: (2,)})
    out = verify_polynomiality(lam, delta, gamma, triv, range(3, 7))
    assert out["all_match"] is True
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
