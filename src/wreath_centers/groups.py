"""Finite groups presented by multiplication tables.

Elements are ints 0..order-1 with 0 the identity; ingestion relabels the
identity to 0 when the table puts it elsewhere. Conjugacy classes are
sorted by (size ascending, minimal member ascending), which pins class 0
to {0}. Character tables are exact, by Dixon's modular method over a
prime field; each value is a Cyclotomic, and its complex float, derived
from it, serves display and row order.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .errors import (DiagonalizationFailed, NoIdentity, NotAssociative,
                     NotBijectiveRow, UnsupportedSpec)

MAX_GROUP_ORDER = 24
# entrywise tolerance for a "characters" matrix given in a group file
_ORTHO_TOL = 1e-9


class FiniteGroup:
    """Immutable finite group with precomputed class data.

    The constructor assumes a valid table with identity 0; build instances
    through group_from_table / builtin_group, which validate and relabel.
    """

    __slots__ = ("order", "mul", "inv", "classes", "class_of", "xi",
                 "_char_table", "_hash")

    def __init__(self, table):
        self.order = len(table)
        self.mul = tuple(tuple(row) for row in table)
        self.inv = tuple(self.mul[a].index(0) for a in range(self.order))
        orbits = self._conjugacy_classes()
        self.classes = tuple(orbits)
        class_of = [0] * self.order
        for ci, members in enumerate(self.classes):
            for x in members:
                class_of[x] = ci
        self.class_of = tuple(class_of)
        # xi[c] = |G| / |c|, the centralizer order of any member
        self.xi = tuple(self.order // len(c) for c in self.classes)
        self._char_table = None
        self._hash = hash(self.mul)

    def _conjugacy_classes(self):
        seen = [False] * self.order
        orbits = []
        for x in range(self.order):
            if seen[x]:
                continue
            orbit = {self.mul[self.mul[g][x]][self.inv[g]] for g in range(self.order)}
            for y in orbit:
                seen[y] = True
            orbits.append(tuple(sorted(orbit)))
        orbits.sort(key=lambda c: (len(c), c[0]))
        return orbits

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def character_table(self) -> "CharacterTable":
        if self._char_table is None:
            self._char_table = CharacterTable(self, *_dixon_rows(self))
        return self._char_table

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.mul == other.mul

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class CharacterTable:
    """Irreducible characters over the canonical class order: values[i][c]
    is chi_i(c), a Cyclotomic of Q(zeta_exponent), and rows[i][c] its
    complex float.  Rows are sorted by (degree, entrywise rounded values),
    making the row index a stable label for the irreducible characters."""

    __slots__ = ("group", "exponent", "values", "rows", "degrees")

    def __init__(self, group: FiniteGroup, values, e):
        # values[i][c]: chi_i at class c, a Cyclotomic
        pairs = sorted(((tuple(row), tuple(map(complex, row))) for row in values),
                       key=lambda pair: _row_sort_key(pair[1]))
        self.group = group
        self.exponent = e
        self.values = tuple(row for row, _ in pairs)
        self.rows = tuple(row for _, row in pairs)
        self.degrees = tuple(row[0].num[0] for row in self.values)
        self._check_orthogonality()

    def _check_orthogonality(self):
        """sum_c |c| chi_i(c) chi_j(c^-1) = |G| delta_ij, exactly; the
        form is symmetric in i and j, so j >= i suffices."""
        g = self.group
        inverse = [g.class_of[g.inv[c[0]]] for c in g.classes]
        weighted = [columns([len(c) * x for c, x in zip(g.classes, row)])
                    for row in self.values]
        at_inverse = [columns([row[c] for c in inverse]) for row in self.values]
        for i, ri in enumerate(weighted):
            for j in range(i, len(weighted)):
                val = inner(ri, at_inverse[j], self.exponent)
                if val != (g.order if i == j else 0):
                    raise DiagonalizationFailed(
                        f"row orthogonality fails at ({i},{j}): {complex(val)}")


def _row_sort_key(row):
    return (round(row[0].real), tuple((round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0)
                                      for v in row))


def _class_sum_matrices(G: FiniteGroup):
    """mats[c][j][t]: the coefficient of class sum t in C_c C_j."""
    k = G.num_classes
    mats = [[None] * k for _ in range(k)]
    for c in range(k):
        for j in range(k):
            bucket = [0] * k
            for x in G.classes[c]:
                row = G.mul[x]
                for y in G.classes[j]:
                    bucket[G.class_of[row[y]]] += 1
            # pair counts are constant on the target class
            mats[c][j] = [bucket[t] // len(G.classes[t]) for t in range(k)]
    return mats


def _nullspace(rows, ncols, p):
    """A basis of {x in F_p^ncols : rows x = 0}, by Gauss-Jordan."""
    m, pivots = [list(r) for r in rows], []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # the pivot row is zero left of c, so only columns c.. change
        s = pow(m[r][c], -1, p)
        m[r][c:] = tail = [v * s % p for v in m[r][c:]]
        for row in m:
            if row is not m[r] and row[c]:
                row[c:] = [(a - row[c] * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
    # one basis vector per free column f: 1 at f, minus column f at pivots
    return [[-m[pivots.index(c)][f] % p if c in pivots else int(c == f)
             for c in range(ncols)] for f in range(ncols) if f not in pivots]


def _dixon_rows(G: FiniteGroup):
    """The irreducible characters of G by Dixon's modular method (Dixon
    1967; Schneider 1990).  Mod a prime p = 1 (mod e), e the exponent of
    G, with p^2 > 4|G|, the common eigenvectors of the class matrices are
    the central characters omega; the degree d in [1, sqrt|G|] has d^2 =
    |G| / sum_t omega_t omega_t* / |C_t|, and chi_t = d omega_t / |C_t|.
    Returns the rows, of exact values, and e."""
    k = G.num_classes
    reps = [c[0] for c in G.classes]
    powers = []  # powers[t][l]: the class of reps[t]^l, l below its order
    for x in reps:
        elems = [0]
        while G.mul[elems[-1]][x] != 0:
            elems.append(G.mul[elems[-1]][x])
        powers.append([G.class_of[y] for y in elems])
    e = math.lcm(*(len(seq) for seq in powers))
    p = e + 1
    while p * p <= 4 * G.order or any(p % q == 0 for q in range(2, p)):
        p += e
    # z: an element of multiplicative order e, the image of exp(2 pi i/e)
    z = next(w for w in range(1, p) if pow(w, e, p) == 1
             and all(pow(w, j, p) != 1 for j in range(1, e)))

    # split F_p^k into common eigenspaces, one class matrix at a time
    spaces = [[[int(i == j) for j in range(k)] for i in range(k)]]
    for mat in _class_sum_matrices(G)[1:]:
        split = []
        for space in spaces:
            if len(space) == 1:
                split.append(space)
                continue
            images = [[sum(a * b for a, b in zip(row, v)) % p for row in mat]
                      for v in space]
            found = 0
            for lam in range(p):
                coeffs = _nullspace(
                    [[(img[t] - lam * v[t]) % p for img, v in zip(images, space)]
                     for t in range(k)], len(space), p)
                if coeffs:
                    split.append([[sum(a * v[t] for a, v in zip(cf, space)) % p
                                   for t in range(k)] for cf in coeffs])
                    found += len(coeffs)
                    if found == len(space):
                        break
        spaces = split
    if len(spaces) != k:
        raise DiagonalizationFailed(f"class matrices split into "
                                    f"{len(spaces)} eigenspaces mod {p}, not {k}")

    # fourier[t][j][l] = w^(-jl) / o for w = z^(e/o), o the order of reps[t]
    fourier = [[[pow(z, -(e // len(seq)) * j * l % e, p) * pow(len(seq), -1, p) % p
                 for l in range(len(seq))] for j in range(len(seq))]
               for seq in powers]
    inv_sizes = [pow(len(c), -1, p) for c in G.classes]
    rows = []
    for (v,) in spaces:
        omega = [a * pow(v[0], -1, p) % p for a in v]
        norm = sum(omega[t] * omega[G.class_of[G.inv[x]]] * inv_sizes[t]
                   for t, x in enumerate(reps))
        d = next(d for d in range(1, math.isqrt(G.order) + 1)
                 if d * d * norm % p == G.order % p)
        chi = [d * omega[t] * inv_sizes[t] % p for t in range(k)]
        rows.append([_lift([chi[c] for c in seq], f, p, e)
                     for seq, f in zip(powers, fourier)])
    return rows, e


def _lift(vals, fourier, p, e):
    """chi(g), exactly, from vals[l] = chi(g^l) mod p: row j of fourier
    gives the multiplicity of exp(2 pi i j/o), in [0, chi(1)]."""
    mults = [sum(map(mul, vals, row)) % p for row in fourier]
    coeffs = [0] * e
    coeffs[::e // len(mults)] = mults
    return Cyclotomic(e, _divmod(coeffs, _cyclotomic(e))[1])


def _divmod(poly, low):
    """Quotient and remainder of poly (a list, lowest degree first, of at
    least n ints; consumed) by the monic x^n + sum_i low[i] x^i."""
    n = len(low)
    quot = [0] * (len(poly) - n)
    for t in range(len(poly) - 1, n - 1, -1):
        c = quot[t - n] = poly[t]
        for i, a in enumerate(low):
            poly[t - n + i] -= c * a
    return quot, tuple(poly[:n])


@lru_cache(maxsize=32)
def _cyclotomic(e):
    """Phi_e below its leading 1, lowest first: x^e - 1 over Phi_d, d|e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = _divmod(poly, _cyclotomic(d))[0]
    return tuple(poly[:-1])


class Cyclotomic:
    """sum_k num[k] zeta^k / den, zeta = exp(2 pi i / e), k < deg Phi_e,
    den > 0: num is reduced mod Phi_e, so == is exact.  Cyclotomic(e, n)
    is the integer n."""

    __slots__ = ("e", "num", "den")

    def __init__(self, e, num=0, den=1):
        if type(num) is int:
            num = (num,) + (0,) * (len(_cyclotomic(e)) - 1)
        self.e, self.num, self.den = e, num, den

    def __add__(self, other):
        num, da = self.num, self.den
        if type(other) is int:  # sum() starts from 0
            return self if not other else Cyclotomic(
                self.e, (num[0] + other * da, *num[1:]), da)
        if da == other.den:
            return Cyclotomic(self.e, tuple(map(add, num, other.num)), da)
        return dot((1, 1), (self, other), self.e)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            return Cyclotomic(self.e, tuple([x * other for x in self.num]),
                              self.den)
        a, b = self.num, other.num
        if any(b[1:]):
            prod = [0] * (2 * len(a) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            num = _divmod(prod, _cyclotomic(self.e))[1]
        else:  # a rational factor
            num = tuple([x * b[0] for x in a])
        return Cyclotomic(self.e, num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is int:
            other = Cyclotomic(self.e, other)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        da, db = self.den, other.den
        return self.e == other.e and (
            self.num == other.num if da == db else
            [x * db for x in self.num] == [y * da for y in other.num])

    def __hash__(self):
        # equal values have equal num[k] / den, each rounded the same way
        return hash((self.e, *[x / self.den for x in self.num]))

    def conjugate(self):
        if not any(self.num[1:]):  # a rational value
            return self
        # zeta^k to zeta^-k, a fixed integer map of the coordinates
        return Cyclotomic(self.e, tuple([sum(map(mul, self.num, row))
                                         for row in _zeta_powers(self.e)[0]]),
                          self.den)

    def __complex__(self):
        num, den = self.num, self.den
        if not any(num[1:]):  # a rational value
            return complex(num[0] / den)
        # twice the real part and 2i times the imaginary part, exactly: a
        # rational part, zero included, is one int / int quotient
        _, real, cos, imag, sin = _zeta_powers(self.e)
        d, parts = 2 * den, []
        for rows, trig in ((real, cos), (imag, sin)):
            c = [sum(map(mul, num, row)) for row in rows]
            parts.append(math.fsum([x / d * t for x, t in zip(c, trig) if x])
                         if any(c[1:]) else c[0] / d)
        return complex(*parts)

    def rational(self):
        """The value as a Fraction; ValueError unless it is rational."""
        if any(self.num[1:]):
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)


def dot(ints, values, e, over=1):
    """sum(n * v for n, v in zip(ints, values)) / over for Cyclotomics of
    Q(zeta_e), over > 0: one integer dot product per coordinate."""
    if not values:
        return Cyclotomic(e)
    dens = [v.den for v in values]
    den = dens[0]
    if dens.count(den) == len(dens):
        weights = ints
    else:
        den = math.lcm(*dens)
        weights = [n * (den // d) for n, d in zip(ints, dens)]
    return Cyclotomic(e, tuple([sum(map(mul, weights, col)) for col
                                in zip(*[v.num for v in values])]),
                      den * over)


def columns(values):
    """(den, cols) with values[i] = sum_k cols[k][i] zeta^k / den for
    Cyclotomics of one field, cols listing (k, column) only at the
    coordinates k where some value is not zero."""
    den = math.lcm(*[v.den for v in values])
    rows = [v.num if v.den == den else [x * (den // v.den) for x in v.num]
            for v in values]
    return den, [(k, col) for k, col in enumerate(zip(*rows)) if any(col)]


def inner(xs, ys, e):
    """sum(x * y for x, y in zip(...)) for two lists of Cyclotomics of
    Q(zeta_e) given as columns(...): one integer dot product per pair of
    coordinates, reduced once."""
    (dx, xcols), (dy, ycols) = xs, ys
    low = _cyclotomic(e)
    poly = [0] * (2 * len(low) - 1)
    for a, xc in xcols:
        for b, yc in ycols:
            poly[a + b] += sum(map(mul, xc, yc))
    return Cyclotomic(e, _divmod(poly, low)[1], dx * dy)


@lru_cache(maxsize=32)
def _zeta_powers(e):
    """(conj, real, cos, imag, sin) for Q(zeta_e), integer matrices acting
    on coordinates and the float parts of zeta^k: conj[j][k], coordinate j
    of zeta^-k, is complex conjugation, real = 1 + conj and imag = 1 - conj
    give twice the real part and 2i times the imaginary part, and cos[k]
    and sin[k] are the parts of zeta^k."""
    low = _cyclotomic(e)
    deg = len(low)
    cols = [_divmod([0] * (e - k) + [1] + [0] * (k - 1), low)[1] if k else
            (1,) + (0,) * (deg - 1) for k in range(deg)]
    conj = tuple(zip(*cols))
    angles = [2 * math.pi * k / e for k in range(deg)]
    return (conj,
            tuple(tuple(int(j == k) + c for k, c in enumerate(row))
                  for j, row in enumerate(conj)),
            tuple(map(math.cos, angles)),
            tuple(tuple(int(j == k) - c for k, c in enumerate(row))
                  for j, row in enumerate(conj)),
            tuple(map(math.sin, angles)))


def group_from_table(rows) -> FiniteGroup:
    """Validate a multiplication table and build the group.

    Checks shape, row/column bijectivity, existence of a two-sided
    identity and associativity, each with a witness in the error message.
    The identity is relabeled to 0 if needed.
    """
    n = len(rows)
    if n == 0:
        raise NoIdentity("empty table")
    if n > MAX_GROUP_ORDER:
        raise UnsupportedSpec(f"order {n} exceeds the cap {MAX_GROUP_ORDER}")
    table = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or not all(type(v) is int for v in row):
            raise NotBijectiveRow(f"row {i} is not a list of integers: {row}")
        row = list(row)
        if len(row) != n:
            raise NotBijectiveRow(f"row {i} has length {len(row)}, expected {n}")
        if any(v < 0 or v >= n for v in row):
            raise NotBijectiveRow(f"row {i} has out-of-range entries: {row}")
        table.append(row)
    full = set(range(n))
    for i in range(n):
        if set(table[i]) != full:
            raise NotBijectiveRow(f"row {i} is not a permutation: {table[i]}")
        col = {table[a][i] for a in range(n)}
        if col != full:
            raise NotBijectiveRow(f"column {i} is not a permutation")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("table has no two-sided identity")
    if identity != 0:
        swap = list(range(n))
        swap[0], swap[identity] = identity, 0
        table = [[swap[table[swap[a]][swap[b]]] for b in range(n)]
                 for a in range(n)]
    for a in range(n):
        for b in range(n):
            tab = table[a][b]
            for c in range(n):
                if table[tab][c] != table[a][table[b][c]]:
                    raise NotAssociative(f"(a,b,c)=({a},{b},{c}): "
                                         f"(ab)c={table[tab][c]} a(bc)={table[a][table[b][c]]}")
    return FiniteGroup(table)


def _sym_table(k: int):
    import itertools
    elems = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(elems)}
    # composition convention: (pq)(i) = q(p(i)), apply p first
    return [[index[tuple(q[p[i]] for i in range(k))] for q in elems] for p in elems]


def _dihedral_table(k: int):
    # elements (t, a) = s^t r^a with id t*k + a; s r s = r^-1
    def mul(x, y):
        t1, a1 = divmod(x, k)
        t2, a2 = divmod(y, k)
        a = (a1 * (-1) ** t2 + a2) % k
        return ((t1 + t2) % 2) * k + a
    return [[mul(x, y) for y in range(2 * k)] for x in range(2 * k)]


def builtin_group(spec: str) -> FiniteGroup:
    """Build one of the named groups: trivial, cyclic:k, sym:k, dihedral:k."""
    spec = spec.strip()
    if spec == "trivial":
        return group_from_table([[0]])
    m = re.fullmatch(r"(cyclic|sym|dihedral):(\d+)", spec)
    if not m:
        raise UnsupportedSpec(f"unknown group spec {spec!r}")
    kind, k = m.group(1), int(m.group(2))
    if k < 1:
        raise UnsupportedSpec(f"{kind} parameter must be >= 1")
    if kind == "cyclic":
        if k > MAX_GROUP_ORDER:
            raise UnsupportedSpec(f"cyclic:{k} exceeds the order cap {MAX_GROUP_ORDER}")
        return group_from_table([[(a + b) % k for b in range(k)] for a in range(k)])
    if kind == "sym":
        if math.factorial(k) > MAX_GROUP_ORDER:
            raise UnsupportedSpec(f"sym:{k} has order {math.factorial(k)} > cap {MAX_GROUP_ORDER}")
        return group_from_table(_sym_table(k))
    if 2 * k > MAX_GROUP_ORDER:
        raise UnsupportedSpec(f"dihedral:{k} has order {2 * k} > cap {MAX_GROUP_ORDER}")
    return group_from_table(_dihedral_table(k))


@lru_cache(maxsize=32)
def _cached_builtin_group(spec: str) -> FiniteGroup:
    return builtin_group(spec)


def group_from_json(obj) -> FiniteGroup:
    """Build a group from the file format {"order", "table", ["characters"]};
    a "characters" matrix must equal the computed table up to row order."""
    if not isinstance(obj, dict) or not isinstance(obj.get("table"), list):
        raise UnsupportedSpec("group JSON must be an object with a 'table' list")
    table = obj["table"]
    order = obj.get("order", len(table))
    if type(order) is not int or order != len(table):
        raise UnsupportedSpec(f"declared order {order!r} is not the table size {len(table)}")
    G = group_from_table(table)
    if "characters" in obj:
        try:
            given = sorted(([complex(a, b) for a, b in row]
                            for row in obj["characters"]), key=_row_sort_key)
        except (TypeError, ValueError):
            raise UnsupportedSpec("each entry of 'characters' must be an [re, im] pair")
        rows = G.character_table().rows
        if [len(r) for r in given] != [len(r) for r in rows] or any(
                abs(a - b) > _ORTHO_TOL for r1, r2 in zip(given, rows)
                for a, b in zip(r1, r2)):
            raise DiagonalizationFailed("the given characters are not G's table")
    return G


def resolve_group(spec: str) -> FiniteGroup:
    """Resolve a CLI group argument: builtin spec string or JSON file path.

    A builtin spec resolves to the same group object each time, with the
    character table it has computed; a file is read again each time."""
    if spec == "trivial" or re.fullmatch(r"(cyclic|sym|dihedral):\d+", spec.strip()):
        return _cached_builtin_group(spec.strip())
    try:
        with open(spec) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UnsupportedSpec(f"not a builtin spec and not a readable file: {spec} ({exc})")
    return group_from_json(obj)
