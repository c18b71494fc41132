"""Shifted-symmetric layer: characters, sharp functions, the iso checks."""
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import class_map, q8_group
from oracles import elements, p_sharp_eval, s_sharp_eval, skew_count, x_value
from wreath_centers.groups import Cyclotomic, FiniteGroup, builtin_group
from wreath_centers.partitions import mn_character, partitions_of
from wreath_centers import shifted
from wreath_centers.shifted import (
    CharacterCalculator, get_calculator, image_eval, verify_theorem71,
)
from wreath_centers.wreath import (
    PartitionFamily, class_order, families_of_size,
    families_up_to, type_of, w_multiply,
)


def wreath_group(G, n):
    """Explicit multiplication table of G wr S_n, as an oracle."""
    elems = list(elements(G, n))
    idx = {w: i for i, w in enumerate(elems)}
    mul = [[idx[w_multiply(a, b, G)] for b in elems] for a in elems]
    return FiniteGroup(mul), elems


@pytest.mark.parametrize("gname,n", [
    ("cyclic:2", 2), ("cyclic:3", 2), ("sym:3", 2), ("cyclic:2", 3)])
def test_x_value_matches_burnside_table(gname, n):
    """The character values built from MN data match an independent
    diagonalization of the explicit wreath product group, row for row."""
    G = builtin_group(gname)
    calc = CharacterCalculator(G)
    W, elems = wreath_group(G, n)
    types = [type_of(elems[c[0]], G) for c in W.classes]
    lams = list(families_of_size(n, G.num_classes, kind="char"))
    assert len(lams) == W.num_classes
    mine = [tuple(complex(x_value(calc, lam, t)) for t in types)
            for lam in lams]
    key = lambda row: (round(row[0].real),
                       tuple((round(v.real, 6), round(v.imag, 6)) for v in row))
    for r1, r2 in zip(sorted(W.character_table().rows, key=key),
                      sorted(mine, key=key)):
        assert all(abs(a - b) < 1e-6 for a, b in zip(r1, r2))
    for c, t in zip(W.classes, types):
        assert class_order(t, G)[1] == len(c)


def test_x_value_orthogonality_nonabelian_n3(s3):
    """Row orthogonality over the full S3 wr S3 class data, exactly;
    cycle products of length 3 with nonabelian labels are only covered
    here."""
    calc = get_calculator(s3)
    classes = list(families_of_size(3, 3))
    sizes = [class_order(f, s3)[1] for f in classes]
    order = 6 ** 3 * 6
    rows = [[x_value(calc, lam, d) for d in classes]
            for lam in families_of_size(3, 3, kind="char")]
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            ip = sum(s * a * b.conjugate() for s, a, b in zip(sizes, ri, rj))
            assert ip == (order if i == j else 0)
    ident = PartitionFamily({0: (1, 1, 1)})
    degs = [x_value(calc, lam, ident).rational()
            for lam in families_of_size(3, 3, kind="char")]
    assert all(d.denominator == 1 for d in degs)
    assert sum(d * d for d in degs) == order


@pytest.mark.parametrize("group", [
    lambda: builtin_group("sym:3"), lambda: builtin_group("dihedral:4"),
    q8_group, lambda: builtin_group("cyclic:3")],
    ids=["sym:3", "dihedral:4", "Q8", "cyclic:3"])
def test_x_table_across_padding_is_the_branching_rule(group):
    """X^Lam at delta padded by r fixed points is sum_M X^M(delta)
    dim(Lam/M) over the M inside Lam alphabet by alphabet with
    |M| = |delta|, exactly: restricted to G wr S_|delta| x G wr S_r, Lam
    holds M times every N of size r with multiplicity the
    Littlewood-Richardson coefficients, and summing dim N over them gives
    dim(Lam/M) = r! prod_gamma f^{Lam(gamma)/M(gamma)} (dim gamma)^r_gamma
    / r_gamma!, with r_gamma = |Lam(gamma)| - |M(gamma)| and f the skew
    tableau count of skew_count.  Every delta with |delta| <= 2 against
    every Lam with |delta| <= |Lam| <= 4: under 1 s for the four groups
    (0.4 s measured)."""
    G = group()
    calc = CharacterCalculator(G)
    degrees = calc.chars.degrees

    def skew_dim(lam, mu):
        num, den = math.factorial(lam.size - mu.size), 1
        for g, d in enumerate(degrees):
            lparts, mparts = lam.get(g), mu.get(g)
            f = skew_count(lparts, mparts)  # 0 unless mu(g) is inside lam(g)
            if not f:
                return 0
            r = sum(lparts) - sum(mparts)
            num *= f * d ** r
            den *= math.factorial(r)
        assert num % den == 0
        return num // den

    chars = [list(families_of_size(m, len(degrees), kind="char"))
             for m in range(5)]
    for k in range(3):
        ms = chars[k]
        for m in range(k, 5):
            dims = [[skew_dim(lam, mu) for mu in ms] for lam in chars[m]]
            for delta in families_of_size(k, G.num_classes):
                below = calc.x_table([delta], ms)[0]
                top = calc.x_table([delta.pad(m)], chars[m])[0]
                for lam, value, row in zip(chars[m], top, dims):
                    want = 0
                    for x, dim in zip(below, row):
                        if dim:
                            want = x * dim + want
                    assert value == want, (delta, lam)


def test_degrees_z2_s2(z2):
    calc = CharacterCalculator(z2)
    degs = sorted(calc.dim(l) for l in families_of_size(2, 2, kind="char"))
    assert degs == [1, 1, 1, 1, 2]
    assert sum(d * d for d in degs) == 8


def test_dim_validates_no_family(monkeypatch, s3):
    """dim builds the identity class through the trusted constructor, so
    once the character values are cached it validates no family."""
    calc = CharacterCalculator(s3)
    lams = list(families_up_to(3, 3, kind="char"))
    first = [calc.dim(l) for l in lams]

    def refuse(self, *args, **kwargs):
        raise AssertionError("dim validated a family")

    monkeypatch.setattr(PartitionFamily, "__init__", refuse)
    assert [calc.dim(l) for l in lams] == first


def test_dim_square_sum(z3, s3):
    for G in (z3, s3):
        calc = CharacterCalculator(G)
        for n in range(4):
            tot = sum(calc.dim(l) ** 2
                      for l in families_of_size(n, G.num_classes, kind="char"))
            assert tot == G.order ** n * math.factorial(n)


def test_s_orthonormality(z3):
    """S_lam = sum_sig X^lam_sig / Z_sig P_sig is orthonormal for the
    Hall inner product <P_sig, P_tau> = Z_sig [sig == tau]: with L the
    lcm of the Z_sig, sum_sig X^l1_sig conj(X^l2_sig) L / Z_sig is L
    [l1 == l2], exactly."""
    calc = CharacterCalculator(z3)
    for n in (2, 3):
        fams = list(families_of_size(n, 3))
        zs = [class_order(sig, z3)[0] for sig in fams]
        top = math.lcm(*zs)
        chfams = list(families_of_size(n, 3, kind="char"))
        for l1 in chfams:
            for l2 in chfams:
                ip = sum(x_value(calc, l1, sig)
                         * x_value(calc, l2, sig).conjugate() * (top // z)
                         for sig, z in zip(fams, zs))
                assert ip == (top if l1 == l2 else 0)


def test_p_sharp_values():
    # p#_delta(lam) = (|lam|)_{|delta|} chi^lam_{delta u 1s} / dim
    assert p_sharp_eval((1,), (3,)) == 3
    assert p_sharp_eval((2,), (1,)) == 0
    assert p_sharp_eval((), (4, 1)) == 1
    assert p_sharp_eval((2,), (2,)) == 2
    assert p_sharp_eval((2,), (1, 1)) == -2
    assert isinstance(p_sharp_eval((2, 1), (3, 2)), Fraction)


def test_p_sharp_is_s_sharp_combination():
    for nd in range(4):
        for delta in partitions_of(nd):
            for nl in range(6):
                for lam in partitions_of(nl):
                    lhs = p_sharp_eval(delta, lam)
                    rhs = sum((mn_character(rho, delta) * s_sharp_eval(rho, lam)
                               for rho in partitions_of(nd)), Fraction(0))
                    assert lhs == rhs


def test_image_eval_exact_trivial(triv):
    delta = PartitionFamily({0: (2,)})
    pt = PartitionFamily({0: (2,)}, kind="char")
    assert image_eval(delta, pt, triv) == 1
    assert isinstance(image_eval(delta, pt, triv), Cyclotomic)
    assert image_eval(delta, pt, triv).rational() == 1
    # below the support size the sharp functions vanish
    assert image_eval(delta, PartitionFamily({0: (1,)}, kind="char"), triv) == 0


def test_hom_example_trivial(triv):
    """F_(2) * F_(2) = sum_gamma k F_gamma on a spread of sample points."""
    delta = PartitionFamily({0: (2,)})
    from wreath_centers.universal import k_coeff
    points = [(2,), (2, 1), (3, 1), (2, 2), (4,)]
    for lam in points:
        pt = PartitionFamily({0: lam}, kind="char")
        lhs = 0
        for gamma in families_up_to(4, 1):
            if gamma.size < 2:
                continue
            k = k_coeff(delta, delta, gamma, triv)
            if k:
                lhs = k * image_eval(gamma, pt, triv) + lhs
        image = image_eval(delta, pt, triv)
        assert lhs == image * image, lam


@pytest.mark.parametrize("gname,n", [
    ("cyclic:3", 2), ("sym:3", 2), ("dihedral:4", 2), ("cyclic:2", 3),
    ("trivial", 4)])
def test_image_eval_matches_central_characters(gname, n):
    """At |Lambda| = |delta| = n the image of C_delta is the central
    character |C_delta| chi(g) / chi(1) of G wr S_n.  The reference side
    reads the character table of the explicit group G wr S_n, which
    shares no code with the image route; rows are compared as a multiset."""
    G = builtin_group(gname)
    W, elems = wreath_group(G, n)
    types = [type_of(elems[c[0]], G) for c in W.classes]
    central = [[len(c) * row[t] / row[0] for t, c in enumerate(W.classes)]
               for row in W.character_table().rows]
    images = [[complex(image_eval(t, lam, G)) for t in types]
              for lam in families_of_size(n, G.num_classes, kind="char")]
    key = lambda row: tuple((round(v.real, 6), round(v.imag, 6)) for v in row)
    assert len(images) == len(central)
    for r1, r2 in zip(sorted(central, key=key), sorted(images, key=key)):
        assert all(abs(a - b) < 1e-9 * max(1.0, abs(a)) for a, b in zip(r1, r2))


@pytest.mark.parametrize("gname,size_cap,point_size", [
    ("sym:3", 2, 4), ("dihedral:4", 2, 3)])
def test_verify_theorem71_non_abelian(gname, size_cap, point_size):
    """Every chain and homomorphism check passes on non-abelian G."""
    rows = list(verify_theorem71(builtin_group(gname), size_cap=size_cap,
                                 point_size=point_size))
    assert {r["check"] for r in rows} == {"chain", "homomorphism"}
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("group, size_cap", [
    (lambda: builtin_group("sym:3"), 2),
    (lambda: builtin_group("dihedral:4"), 1), (q8_group, 1)],
    ids=["sym:3", "dihedral:4", "Q8"])
def test_chain_rhs_is_the_per_row_formula(monkeypatch, group, size_cap):
    """Each chain row's rhs, which the sweep reads from one x_table per
    (delta, point size), is |C_delta| binom(|lam|, |delta|) X^lam at
    delta padded / dim lam, with the character value read one at a time
    through x_value of a calculator of its own, and 0 when |lam| < |delta|.
    The rows keep their exact values, as _fmt is the identity here.
    Every delta pads to each point size from |delta| to 4; size_cap is
    1 on the two groups of order 8 to keep within the budget: under 1 s
    for the three groups (0.5 s measured)."""
    G = group()
    monkeypatch.setattr(shifted, "_fmt", lambda v: v)
    calc = CharacterCalculator(G)
    e = calc.chars.exponent
    deltas = list(families_up_to(size_cap, G.num_classes))
    points = list(families_up_to(4, len(calc.chars.rows), kind="char"))
    rows = itertools.takewhile(
        lambda r: r["check"] == "chain",
        verify_theorem71(G, size_cap=size_cap, point_size=4))
    checked = 0
    for r, (delta, lam) in zip(rows, itertools.product(deltas, points)):
        assert r["input"] == {"delta": delta.to_json(), "lam": lam.to_json()}
        want = Cyclotomic(e)
        if lam.size >= delta.size:
            scale = class_order(delta, G)[1] * math.comb(lam.size, delta.size)
            want = (x_value(calc, lam, delta.pad(lam.size)) * scale
                    * Cyclotomic(e, 1, calc.dim(lam)))
        assert r["rhs"] == want and r["pass"], (delta, lam)
        checked += 1
    assert checked == len(deltas) * len(points)


@pytest.mark.parametrize("gname", [
    "trivial", "cyclic:2", "cyclic:3", "dihedral:2", "sym:3", "dihedral:4"])
def test_rows_are_exact(gname):
    """Every row passes, and as both sides are exact values, compared
    with ==, every row prints its two sides as one string."""
    rows = list(verify_theorem71(builtin_group(gname), size_cap=2,
                                 point_size=4))
    assert rows and all(r["pass"] for r in rows)
    assert all(r["lhs"] == r["rhs"] for r in rows)


def test_q8_rows_are_dihedral_4_rows():
    """Q8, built from its table, and dihedral:4 share their character
    table and class algebra.  Once Q8's classes and characters are
    relabeled onto dihedral:4's, the two sweeps give the same rows, the
    printed values included; every point is read, as a point cap would
    keep a prefix that relabeling moves."""
    q8, d4 = q8_group(), builtin_group("dihedral:4")
    pi = class_map(q8, d4)
    k = range(q8.num_classes)
    vq, vd = q8.character_table().values, d4.character_table().values
    sigma = [next(j for j, rd in enumerate(vd)
                  if all(rq[c] == rd[pi[c]] for c in k)) for rq in vq]
    assert sorted(sigma) == list(k)

    def moved(fam, labels):
        return json.dumps({str(labels[int(i)]): parts
                           for i, parts in fam.items()}, sort_keys=True)

    def rows(G, cls, chars):
        out = Counter()
        for r in verify_theorem71(G, size_cap=2, point_size=4,
                                  point_cap=10 ** 9):
            inp = r["input"]
            if r["check"] == "chain":
                key = (moved(inp["delta"], cls), moved(inp["lam"], chars))
            else:
                key = (tuple(sorted([moved(inp["delta1"], cls),
                                     moved(inp["delta2"], cls)])),
                       moved(inp["point"], chars))
            out[r["check"], key, r["lhs"], r["rhs"], r["pass"]] += 1
        return out

    ident = list(k)
    assert rows(q8, pi, sigma) == rows(d4, ident, ident)


def test_verify_theorem71_small(z2, triv):
    rows = list(verify_theorem71(triv, size_cap=2, point_size=4))
    assert rows and all(r["pass"] for r in rows)
    assert set(rows[0]) == {"check", "input", "lhs", "rhs", "pass"}
    assert {r["check"] for r in rows} == {"chain", "homomorphism"}
    rows2 = list(verify_theorem71(z2, size_cap=2, point_size=4, samples=40))
    assert rows2 and all(r["pass"] for r in rows2)


@pytest.mark.parametrize("gname", ["trivial", "cyclic:2"])
def test_verify_theorem71_evaluates_each_image_once(monkeypatch, gname):
    """One call reads each (delta, point) image once, for the chain lhs,
    both homomorphism factors and every k-term alike."""
    G = builtin_group(gname)
    calls = Counter()
    real = shifted.image_eval

    def counting(delta, point, *args):
        calls[(delta, point)] += 1
        return real(delta, point, *args)

    monkeypatch.setattr(shifted, "image_eval", counting)
    rows = list(verify_theorem71(G, size_cap=2, point_size=4))
    assert rows and all(r["pass"] for r in rows)
    assert {r["check"] for r in rows} == {"chain", "homomorphism"}
    assert calls and set(calls.values()) == {1}
    # an image of a family larger than the point is 0: only the chain
    # rows, one per (delta, lam), read it, and no homomorphism sum does
    points = families_up_to(4, len(G.character_table().rows), kind="char")
    assert {key for key in calls if key[0].size > key[1].size} == {
        (delta, lam) for delta, lam in itertools.product(
            families_up_to(2, G.num_classes), points)
        if delta.size > lam.size}


@pytest.mark.parametrize("gname", ["cyclic:2", "sym:3"])
def test_image_of_a_larger_family_is_exact_zero(monkeypatch, gname):
    """image_eval of a family larger than the point is the exact 0 of
    Q(zeta_e), returned before any term is read."""
    G = builtin_group(gname)
    calc = CharacterCalculator(G)
    e = calc.chars.exponent

    def refuse(*args):
        raise AssertionError("a term was read")

    monkeypatch.setattr(calc, "terms_within", refuse)
    points = list(families_up_to(2, len(calc.chars.rows), kind="char"))
    for delta in families_of_size(3, G.num_classes):
        for point in points:
            value = image_eval(delta, point, G, calc)
            assert (value.e, value.num, value.den) == (e, Cyclotomic(e).num, 1)


@pytest.mark.parametrize("gname", ["trivial", "cyclic:2", "sym:3"])
def test_verify_theorem71_shares_factors_and_families(monkeypatch, gname):
    """One call computes |G|^|delta| / Z_delta once per delta, and its
    rows share one JSON dict per family."""
    G = builtin_group(gname)
    calls = Counter()
    real = shifted.class_order

    def counting(fam, group):
        calls[fam] += 1
        return real(fam, group)

    monkeypatch.setattr(shifted, "class_order", counting)
    rows = list(verify_theorem71(G, size_cap=2, point_size=4))
    assert rows and all(r["pass"] for r in rows)
    assert calls and set(calls.values()) == {1}
    dicts = {}
    for r in rows:
        for key, obj in r["input"].items():
            kind = "char" if key in ("lam", "point") else "class"
            dicts.setdefault((kind, repr(obj)), set()).add(id(obj))
    assert dicts and all(len(ids) == 1 for ids in dicts.values())


@pytest.mark.parametrize("gname", ["cyclic:2", "sym:3"])
def test_verify_theorem71_evaluates_each_term_once(monkeypatch, gname):
    """The character-alphabet expansions of different delta share terms;
    one calculator computes each (character family, point) term once."""
    G = builtin_group(gname)
    shifted.get_calculator.cache_clear()  # no term values from other tests
    calls = Counter()
    real = shifted._term_value

    def counting(entries, point, degrees, den):
        calls[(entries, point)] += 1
        return real(entries, point, degrees, den)

    monkeypatch.setattr(shifted, "_term_value", counting)
    rows = list(verify_theorem71(G, size_cap=2, point_size=4))
    assert rows and all(r["pass"] for r in rows)
    assert calls and set(calls.values()) == {1}
    assert {PartitionFamily(entries, kind="char").entries
            for entries, _ in calls} == {entries for entries, _ in calls}


@pytest.mark.parametrize("gname", ["sym:3", "cyclic:3"])
def test_term_value_is_the_exact_term(monkeypatch, gname):
    """Each term of a sweep, an integer over the point's denominator, is
    the exact p#_mu(point) / prod (dim gamma)^|mu(gamma)|, with p# read
    alphabet by alphabet from p_sharp_eval."""
    G = builtin_group(gname)
    degrees = G.character_table().degrees
    shifted.get_calculator.cache_clear()  # no term values from other tests
    seen = {}
    real = shifted._term_value

    def recording(entries, point, degs, den):
        seen[entries, point, den] = val = real(entries, point, degs, den)
        return val

    monkeypatch.setattr(shifted, "_term_value", recording)
    list(verify_theorem71(G, size_cap=2, point_size=4))
    assert any(seen.values()) and not all(seen.values())
    for (entries, point, den), val in seen.items():
        exact = Fraction(1)
        for g, parts in entries:
            exact *= p_sharp_eval(parts, point.get(g)) / degrees[g] ** sum(parts)
        assert Fraction(val, den) == exact, (entries, point)


def test_term_value_divides_once():
    """p#_(1)((1)) p#_(1)((11)) / (3 * 3) = 11/9, as an integer over the
    point's denominator 3 * 3^11: each alphabet divides that denominator
    by a factor it holds, so every quotient is exact."""
    entries = ((3, (1,)), (4, (1,)))
    point = PartitionFamily({3: (1,), 4: (11,)}, kind="char")
    calc = CharacterCalculator(builtin_group("sym:4"))
    degrees = calc.chars.degrees
    assert degrees == (1, 1, 2, 3, 3)
    den = calc.point_data(point)[0]
    assert den == 3 ** 12
    assert Fraction(shifted._term_value(entries, point, degrees, den),
                    den) == Fraction(11, 9)


@pytest.mark.parametrize("gname", ["cyclic:3", "sym:3", "dihedral:4"])
def test_dim_closed_form_is_the_identity_character_value(gname):
    """The closed-form degree is X^Lambda at the identity class for every
    Lambda of size <= 4."""
    G = builtin_group(gname)
    calc = CharacterCalculator(G)
    for lam in families_up_to(4, G.num_classes, kind="char"):
        ident = PartitionFamily({0: (1,) * lam.size})
        val = x_value(calc, lam, ident)
        dim = calc.dim(lam)
        assert isinstance(dim, int) and dim > 0
        assert val == dim, (lam, val, dim)


@pytest.mark.parametrize("gname", ["sym:3", "dihedral:4"])
def test_x_value_is_the_full_expansion_sum(gname):
    """Reading only the terms within lam's per-alphabet sizes gives the
    sum over every term of the expansion of delta, exactly."""
    G = builtin_group(gname)
    calc = CharacterCalculator(G)
    for n in range(4):
        for delta in families_of_size(n, G.num_classes):
            expansion = [term for terms in calc.conjugate_terms(delta).values()
                         for term in terms]
            for lam in families_of_size(n, G.num_classes, kind="char"):
                total = 0
                for entries, cc in expansion:
                    mfam = PartitionFamily(entries, kind="char")
                    prod = 1
                    for g in set(lam.indices()) | set(mfam.indices()):
                        lpart, mpart = lam.get(g), mfam.get(g)
                        if sum(lpart) != sum(mpart):
                            prod = 0
                            break
                        prod *= mn_character(lpart, mpart)
                    if prod:
                        total = cc * prod + total
                assert x_value(calc, lam, delta) == total, (lam, delta)
