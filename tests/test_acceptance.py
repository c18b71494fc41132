"""Acceptance gate: ten criteria, one test each, one PASS/FAIL line each.

Run with -s to see the lines as they happen; without -s pytest shows the
captured output of any failing criterion.
"""
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

from wreath_centers.center import product_classes
from wreath_centers.groups import builtin_group
from wreath_centers.partial import (
    GPartialPermutation,
    act,
    class_size_partial,
    pp_multiply,
    pp_type,
    semigroup_order,
)
from wreath_centers.partitions import (
    mn_character,
    partitions_of,
    skew_count,
    z_of,
)
from wreath_centers.shifted import (
    get_calculator,
    image_eval,
    p_sharp_eval,
    s_sharp_eval,
    verify_theorem71,
)
from wreath_centers.universal import (
    expand_product_semigroup,
    k_coeff,
    k_coeff_oracle,
    structure_polynomial,
)
from wreath_centers.wreath import (
    PartitionFamily,
    WreathElement,
    class_order,
    families_of_size,
    families_up_to,
    type_of,
)

from math import comb, factorial

GROUPS = {
    "trivial": builtin_group("trivial"),
    "cyclic:2": builtin_group("cyclic:2"),
    "cyclic:3": builtin_group("cyclic:3"),
}

F = PartitionFamily


def report(num, ok, t0, note=""):
    elapsed = time.perf_counter() - t0
    line = "CRITERION %d: %s (%.2fs)" % (num, "PASS" if ok else "FAIL", elapsed)
    if note:
        line += " " + note
    print(line)
    return elapsed


def test_criterion_01_worked_examples():
    """Ten-point type, the eight-point product, the conjugation action."""
    t0 = time.perf_counter()
    z3 = GROUPS["cyclic:3"]
    s4 = builtin_group("sym:4")
    failures = []

    # type of ((1,0,2,0,0,1,1,2,1,0); (1,4)(2,5)(3)(6)(7,8,9,10))
    x = WreathElement((1, 0, 2, 0, 0, 1, 1, 2, 1, 0),
                      (3, 4, 2, 0, 1, 5, 7, 8, 9, 6))
    want = F({0: (2,), 1: (4, 2, 1), 2: (1,)})
    if type_of(x, z3) != want:
        failures.append("ten-point type: got %r" % (type_of(x, z3),))

    # product of x on {2,4,5,6}, omega (2,5)(4,6) with y on {1,3,5,6,8,9},
    # sigma (1,5,8)(3,9)(6); labels chosen in S4 so every stated product
    # is distinguishable
    g = {2: 7, 4: 11, 5: 3, 6: 19}
    f = {1: 5, 3: 2, 5: 23, 6: 13, 8: 17, 9: 6}
    px = GPartialPermutation((2, 4, 5, 6), {2: 5, 5: 2, 4: 6, 6: 4}, g)
    py = GPartialPermutation((1, 3, 5, 6, 8, 9),
                             {1: 5, 5: 8, 8: 1, 3: 9, 9: 3, 6: 6}, f)
    prod = pp_multiply(px, py, s4)
    mul, inv = s4.mul, s4.inv
    if prod.support != (1, 2, 3, 4, 5, 6, 8, 9):
        failures.append("product support: %r" % (prod.support,))
    if prod.omega != {1: 5, 5: 2, 2: 8, 8: 1, 3: 9, 9: 3, 4: 6, 6: 4}:
        failures.append("product permutation: %r" % (prod.omega,))
    want_labels = {1: f[1], 2: g[2], 3: f[3], 4: g[4], 5: f[5],
                   6: mul[g[6]][f[6]], 8: mul[g[5]][f[8]], 9: f[9]}
    if prod.labels != want_labels:
        failures.append("product labels: %r vs %r" % (prod.labels, want_labels))

    # action of (a; (2,3,6)(1,4)(5,7,9)(8)) on (h; ({2,4,5,6}, (2,5)(4,6)))
    perm = [0] * 9
    for src, dst in ((2, 3), (3, 6), (6, 2), (1, 4), (4, 1),
                     (5, 7), (7, 9), (9, 5), (8, 8)):
        perm[src - 1] = dst - 1
    ga = [4, 21, 9, 2, 15, 8, 0, 17, 12]
    a = WreathElement(ga, perm)
    h = {2: 6, 4: 10, 5: 1, 6: 22}
    hx = GPartialPermutation((2, 4, 5, 6), {2: 5, 5: 2, 4: 6, 6: 4}, h)
    res = act(a, hx, s4)
    if res.support != (1, 3, 6, 9):
        failures.append("action support: %r" % (res.support,))
    if res.omega != {1: 3, 3: 1, 6: 9, 9: 6}:
        failures.append("action permutation: %r" % (res.omega,))
    want_act = {
        1: mul[mul[ga[5]][h[4]]][inv[ga[3]]],  # a6 h4 a4^-1
        3: mul[mul[ga[3]][h[6]]][inv[ga[5]]],  # a4 h6 a6^-1
        6: mul[mul[ga[4]][h[2]]][inv[ga[1]]],  # a5 h2 a2^-1
        9: mul[mul[ga[1]][h[5]]][inv[ga[4]]],  # a2 h5 a5^-1
    }
    if res.labels != want_act:
        failures.append("action labels: %r vs %r" % (res.labels, want_act))
    if pp_type(res, s4) != pp_type(hx, s4):
        failures.append("action changed the type")

    elapsed = report(1, not failures, t0)
    assert not failures, "\n".join(failures)
    assert elapsed < 1.0, "took %.2fs, budget 1s" % elapsed


def test_criterion_02_counting_formulas():
    """Class orders and semigroup counts against exhaustive enumeration."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for gname, G in GROUPS.items():
        ncls = G.num_classes
        for n in range(1, 5):
            total = G.order ** n * factorial(n)
            buckets = Counter()
            for labels in product(range(G.order), repeat=n):
                for p in permutations(range(n)):
                    buckets[type_of(WreathElement(labels, p), G)] += 1
            if sum(buckets.values()) != total:
                failures.append("%s n=%d: enumeration incomplete" % (gname, n))
            for fam in families_of_size(n, ncls):
                zval, size = class_order(fam, G)
                checked += 1
                if size != buckets.get(fam, 0):
                    failures.append("%s n=%d %r: formula %d, enumerated %d"
                                    % (gname, n, fam, size, buckets.get(fam, 0)))
                if zval * size != total:
                    failures.append("%s n=%d %r: Z * |C| != |G|^n n!" % (gname, n, fam))

            pbuckets = Counter()
            seen = 0
            for k in range(n + 1):
                for sup in combinations(range(1, n + 1), k):
                    for images in permutations(sup):
                        omega = dict(zip(sup, images))
                        for labs in product(range(G.order), repeat=k):
                            pp = GPartialPermutation(sup, omega, dict(zip(sup, labs)))
                            pbuckets[pp_type(pp, G)] += 1
                            seen += 1
            formula = sum(comb(n, k) * factorial(k) * G.order ** k
                          for k in range(n + 1))
            if seen != formula or semigroup_order(n, G) != formula:
                failures.append("%s n=%d: semigroup order %d vs formula %d (order() = %d)"
                                % (gname, n, seen, formula, semigroup_order(n, G)))
            for fam in families_up_to(n, ncls):
                checked += 1
                if class_size_partial(fam, n, G) != pbuckets.get(fam, 0):
                    failures.append("%s n=%d partial %r: formula %d, enumerated %d"
                                    % (gname, n, fam, class_size_partial(fam, n, G),
                                       pbuckets.get(fam, 0)))
    if semigroup_order(2, GROUPS["cyclic:2"]) != 13:
        failures.append("order-2 group, n=2: semigroup order != 13")

    elapsed = report(2, not failures, t0, "(%d families)" % checked)
    assert not failures, "\n".join(failures)
    assert elapsed < 30.0, "took %.2fs, budget 30s" % elapsed


def test_criterion_03_cyclic3_projected_identity():
    """The quoted k-values and the projected identity over Z_3.

    With g a generator, C_lam (g in one coordinate) times C_del (g^2 in one
    coordinate) is  binom(n,1) C_id + 1 C_mixed  for every n >= 2.  The
    mixed coefficient is 1: of the n^2 products, the n(n-1) with distinct
    coordinates are pairwise distinct and are exactly the elements of
    C_mixed.  A coefficient 2 arises only when both factors carry the same
    label, as in k_{(1)^1 (1)^1}^{(1^2)^1}.  The value is tied to the
    brute-force oracle and to mass conservation, neither of which shares
    code with k_coeff or product_classes.
    """
    t0 = time.perf_counter()
    z3 = GROUPS["cyclic:3"]
    lam = F({1: (1,)})
    la2 = F({2: (1,)})
    mixed = F({1: (1,), 2: (1,)})
    failures = []

    quoted = [
        ("k_{(1)^1 (1)^1}^{(1)^2}", k_coeff(lam, lam, F({2: (1,)}), z3), 1),
        ("k_{(1)^1 (1)^1}^{(1^2)^1}", k_coeff(lam, lam, F({1: (1, 1)}), z3), 2),
        ("k_{(1)^1 (1)^2}^{(1)^1 u (1)^2}", k_coeff(lam, la2, mixed, z3), 1),
        ("oracle k_{(1)^1 (1)^2}^{(1)^1 u (1)^2}",
         k_coeff_oracle(lam, la2, mixed, z3), 1),
    ]
    for name, got, want in quoted:
        if got != want:
            failures.append("%s: computed %d, stated %d" % (name, got, want))

    # projected identity, i + t = 0 (mod 3): C.C = binom(n,1) C_id + 1 C_mixed
    for n in (2, 3, 4, 5):
        vec = product_classes(lam.pad(n), la2.pad(n), n, z3)
        terms = dict(vec.items())
        cid = terms.pop(F({}).pad(n), 0)
        cmix = terms.pop(mixed.pad(n), 0)
        if cid != comb(n, 1):
            failures.append("n=%d: identity-class coefficient %d, stated binom(n,1)=%d"
                            % (n, cid, comb(n, 1)))
        if cmix != 1:
            failures.append("n=%d: mixed-class coefficient %d, stated 1" % (n, cmix))
        if terms:
            failures.append("n=%d: unexpected classes %r" % (n, sorted(map(repr, terms))))
        # mass conservation: |C_lam| |C_del| = cid |C_id| + cmix |C_mixed|
        sl = class_order(lam.pad(n), z3)[1]
        sd = class_order(la2.pad(n), z3)[1]
        sid = class_order(F({}).pad(n), z3)[1]
        sm = class_order(mixed.pad(n), z3)[1]
        if sl * sd != cid * sid + cmix * sm:
            failures.append("n=%d: mass %d * %d = %d, right side weighs %d * %d + %d * %d = %d"
                            % (n, sl, sd, sl * sd, cid, sid, cmix, sm,
                               cid * sid + cmix * sm))

    elapsed = report(3, not failures, t0)
    assert not failures, "\n".join(failures)
    assert elapsed < 60.0, "took %.2fs, budget 60s" % elapsed


def test_criterion_04_polynomiality_sweep():
    """Polynomials in binomial form against direct center products."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    slowest = 0.0
    for gname, G in GROUPS.items():
        ncls = G.num_classes
        props = [fam for fam in families_up_to(3, ncls) if fam.is_proper()]
        for lam in props:
            for delta in props:
                total = lam.size + delta.size
                cands = [fam for fam in families_up_to(total, ncls)
                         if fam.is_proper()]
                polys = {fam: structure_polynomial(lam, delta, fam, G)
                         for fam in cands}
                for n in range(max(lam.size, delta.size, 1), 7):
                    t1 = time.perf_counter()
                    vec = product_classes(lam.pad(n), delta.pad(n), n, G)
                    direct = {}
                    for fam, cf in vec.items():
                        prop, _ = fam.strip_ones()
                        direct[prop] = cf
                    stray = set(direct) - set(cands)
                    if stray:
                        failures.append("%s %r * %r at n=%d: classes outside the"
                                        " window: %r" % (gname, lam, delta, n,
                                                         sorted(map(repr, stray))))
                    for fam in cands:
                        if fam.size > n:
                            continue
                        want = polys[fam].evaluate(n)
                        got = direct.get(fam, 0)
                        cases += 1
                        if want != got:
                            failures.append(
                                "%s %r * %r -> %r at n=%d: polynomial %s = %d,"
                                " direct %d" % (gname, lam, delta, fam, n,
                                                polys[fam].latex(), want, got))
                    slowest = max(slowest, time.perf_counter() - t1)

    elapsed = report(4, not failures, t0,
                     "(%d evaluations, slowest case %.2fs)" % (cases, slowest))
    assert not failures, "\n".join(failures[:20])
    assert elapsed < 600.0, "took %.2fs, budget 600s" % elapsed
    assert slowest < 30.0, "slowest single case %.2fs, budget 30s" % slowest


def test_criterion_05_oracle_equivalence():
    """k_coeff against the brute-force oracle on every guarded triple."""
    t0 = time.perf_counter()
    failures = []
    triples = 0
    for gname, G in GROUPS.items():
        ncls = G.num_classes
        props = [fam for fam in families_up_to(4, ncls) if fam.is_proper()]
        for lam in props:
            for delta in props:
                if lam.size + delta.size > 4:
                    continue
                for gamma in families_up_to(lam.size + delta.size, ncls):
                    got = k_coeff(lam, delta, gamma, G)
                    want = k_coeff_oracle(lam, delta, gamma, G)
                    triples += 1
                    if got != want:
                        failures.append("%s k(%r, %r -> %r) = %d, oracle %d"
                                        % (gname, lam, delta, gamma, got, want))

    elapsed = report(5, not failures, t0, "(%d triples)" % triples)
    assert not failures, "\n".join(failures[:20])
    assert elapsed < 300.0, "took %.2fs, budget 300s" % elapsed


def test_criterion_06_filtration_window():
    """Every product term in the brute expansion sits inside the window."""
    t0 = time.perf_counter()
    failures = []
    terms = 0
    for gname, G in GROUPS.items():
        ncls = G.num_classes
        props = [fam for fam in families_up_to(4, ncls) if fam.is_proper()]
        for lam in props:
            for delta in props:
                total = lam.size + delta.size
                if total > 4:
                    continue
                lo = max(lam.size, delta.size)
                acc = expand_product_semigroup(lam, delta, total, G)
                for pp, cnt in acc.items():
                    if not cnt:
                        continue
                    terms += 1
                    size = pp_type(pp, G).size
                    if not lo <= size <= total:
                        failures.append("%s %r * %r: product of size %d outside"
                                        " [%d, %d]" % (gname, lam, delta, size,
                                                       lo, total))

    elapsed = report(6, not failures, t0, "(%d product terms)" % terms)
    assert not failures, "\n".join(failures[:20])


def test_criterion_07_character_layer():
    """Orthogonality, branching, the p#/s# expansion, the order-8 table."""
    t0 = time.perf_counter()
    failures = []

    # first orthogonality, exact, n <= 6
    for n in range(7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                s = sum(Fraction(mn_character(lam, rho) * mn_character(mu, rho),
                                 z_of(rho)) for rho in parts)
                if s != (1 if lam == mu else 0):
                    failures.append("orthogonality <%r, %r> = %s" % (lam, mu, s))

    # branching: chi^lam at rho padded by 1s expands through skew counts
    for m in range(7):
        for lam in partitions_of(m):
            for r in range(m + 1):
                for rho in partitions_of(r):
                    padded = tuple(sorted(rho + (1,) * (m - r), reverse=True))
                    lhs = mn_character(lam, padded)
                    rhs = sum(skew_count(lam, nu) * mn_character(nu, rho)
                              for nu in partitions_of(r))
                    if lhs != rhs:
                        failures.append("branching chi^%r_(%r + 1s): %d vs %d"
                                        % (lam, rho, lhs, rhs))

    # p#_delta = sum_rho chi^rho_delta s#_rho, evaluated at all points
    for d in range(5):
        for delta in partitions_of(d):
            for m in range(7):
                for lam in partitions_of(m):
                    lhs = p_sharp_eval(delta, lam)
                    rhs = sum(mn_character(rho, delta) * s_sharp_eval(rho, lam)
                              for rho in partitions_of(d))
                    if lhs != rhs:
                        failures.append("p#_%r(%r) = %s vs %s" % (delta, lam, lhs, rhs))

    # degrees of the ten-element table: order-2 group wreath S_2
    z2 = GROUPS["cyclic:2"]
    calc = get_calculator(z2)
    fams = list(families_of_size(2, 2, kind="char"))
    degs = sorted(calc.dim(fam) for fam in fams)
    if degs != [1, 1, 1, 1, 2]:
        failures.append("degrees %r, expected [1, 1, 1, 1, 2]" % degs)
    ident = F({0: (1, 1)})
    sq = sum(abs(calc.x_value(fam, ident)) ** 2 for fam in fams)
    if abs(sq - 8.0) > 1e-9:
        failures.append("sum of squared degrees %r, expected 8 within 1e-9" % sq)

    report(7, not failures, t0)
    assert not failures, "\n".join(failures[:20])


def test_criterion_08_isomorphism_pointwise():
    """Chain and homomorphism checks at every point of size <= 7."""
    t0 = time.perf_counter()
    failures = []
    counts = Counter()
    for gname, G in GROUPS.items():
        # shipped verifier: full chain sweep, homomorphism pairs at the
        # points that pin the functions
        for row in verify_theorem71(G, size_cap=3, point_size=7, point_cap=10 ** 9):
            counts[row["check"]] += 1
            if not row["pass"]:
                failures.append("%s %s %r" % (gname, row["check"], row["input"]))

        # homomorphism at every point of size <= 7, not just the pinning
        # prefix; images are memoized per (class, point)
        ncls = G.num_classes
        nchars = len(G.character_table().rows)
        calc = get_calculator(G)
        props = [fam for fam in families_up_to(3, ncls) if fam.is_proper()]
        points = list(families_up_to(7, nchars, kind="char"))
        cache = {}

        def img(fam, pt):
            key = (fam, pt)
            hit = cache.get(key)
            if hit is None:
                hit = image_eval(fam, pt, G, calc)
                cache[key] = hit
            return hit

        exact = G.order == 1
        for i, d1 in enumerate(props):
            for d2 in props[i:]:
                window = [fam for fam in families_up_to(d1.size + d2.size, ncls)
                          if fam.size >= max(d1.size, d2.size)]
                kvec = [(fam, k_coeff(d1, d2, fam, G)) for fam in window]
                kvec = [(fam, k) for fam, k in kvec if k]
                for pt in points:
                    rhs = img(d1, pt) * img(d2, pt)
                    lhs = sum(k * img(fam, pt) for fam, k in kvec)
                    counts["homomorphism"] += 1
                    if exact:
                        bad = lhs != rhs
                    else:
                        bad = abs(lhs - rhs) > 1e-6 * max(1.0, abs(rhs))
                    if bad:
                        failures.append("%s hom %r * %r at %r: %r vs %r"
                                        % (gname, d1, d2, pt, lhs, rhs))

    elapsed = report(8, not failures, t0,
                     "(%d chain, %d homomorphism checks)"
                     % (counts["chain"], counts["homomorphism"]))
    assert not failures, "\n".join(failures[:20])
    assert elapsed < 300.0, "took %.2fs, budget 300s" % elapsed


def spp_mul(a, b):
    # partial permutations as sorted (i, image) tuples; apply a, then b,
    # each extended by fixed points over the union of the supports
    da, db = dict(a), dict(b)
    sup = sorted(set(da) | set(db))
    out = []
    for i in sup:
        j = da.get(i, i)
        out.append((i, db.get(j, j)))
    return tuple(out)


def spp_cycle_type(pp):
    d = dict(pp)
    seen = set()
    parts = []
    for i in d:
        if i in seen:
            continue
        ln, j = 0, i
        while j not in seen:
            seen.add(j)
            j = d[j]
            ln += 1
        parts.append(ln)
    return tuple(sorted(parts, reverse=True))


def spp_class(lam, N):
    k = sum(lam)
    out = []
    for sup in combinations(range(1, N + 1), k):
        for images in permutations(sup):
            pp = tuple(zip(sup, images))
            if spp_cycle_type(pp) == lam:
                out.append(pp)
    return out


def spp_k(lam, delta, gamma):
    # pairs (x, y) with x of type lam, y of type delta, x y equal to the
    # fixed element with the cycles of gamma laid out consecutively
    N = sum(gamma)
    z0 = []
    pos = 1
    for part in gamma:
        cyc = list(range(pos, pos + part))
        for idx, i in enumerate(cyc):
            z0.append((i, cyc[(idx + 1) % part]))
        pos += part
    z0 = tuple(sorted(z0))
    ys = spp_class(delta, N)
    return sum(1 for x in spp_class(lam, N) for y in ys if spp_mul(x, y) == z0)


def test_criterion_09_trivial_group_regression():
    """k-coefficients against a from-scratch one-group implementation."""
    t0 = time.perf_counter()
    triv = GROUPS["trivial"]
    failures = []
    checked = 0
    propers = [lam for m in range(6) for lam in partitions_of(m) if 1 not in lam]
    for lam in propers:
        for delta in propers:
            if sum(lam) + sum(delta) > 5:
                continue
            for g in range(sum(lam) + sum(delta) + 1):
                for gamma in partitions_of(g):
                    got = k_coeff(F({0: lam}), F({0: delta}), F({0: gamma}), triv)
                    want = spp_k(lam, delta, gamma)
                    checked += 1
                    if got != want:
                        failures.append("k(%r, %r -> %r) = %d, from scratch %d"
                                        % (lam, delta, gamma, got, want))

    elapsed = report(9, not failures, t0, "(%d triples)" % checked)
    assert not failures, "\n".join(failures[:20])


def run_cli(*args):
    env = {k: v for k, v in os.environ.items()
           if k != "WREATH_CENTERS_CONFIG"}
    return subprocess.run([sys.executable, "-m", "wreath_centers", *args],
                          capture_output=True, env=env)


def test_criterion_10_determinism():
    """Byte-identical output across repeated CLI runs."""
    t0 = time.perf_counter()
    failures = []
    commands = [
        ("--group", "cyclic:3", "--seed", "5", "verify-iso",
         "--size-cap", "2", "--point-size", "3", "--samples", "12"),
        ("--group", "cyclic:2", "classes", "--n", "4"),
        ("--group", "cyclic:3", "kcoeff", "--lam", '{"1": [1]}',
         "--del", '{"2": [1]}'),
        ("--group", "trivial", "poly", "--lam", '{"0": [2]}',
         "--del", '{"0": [2]}', "--gam", '{"0": [3]}'),
    ]
    for args in commands:
        first = run_cli(*args)
        second = run_cli(*args)
        if first.returncode != 0 or second.returncode != 0:
            failures.append("%r exited %d / %d: %s"
                            % (args, first.returncode, second.returncode,
                               first.stderr.decode()[:200]))
        elif first.stdout != second.stdout:
            failures.append("%r: outputs differ between runs" % (args,))
        else:
            json.loads(first.stdout)

    report(10, not failures, t0, "(%d commands, 2 runs each)" % len(commands))
    assert not failures, "\n".join(failures)
