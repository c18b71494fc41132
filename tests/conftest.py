"""Shared fixtures and the brute-force oracles used across test modules."""

from itertools import permutations

import pytest

from oracles import buckets
from wreath_centers.groups import builtin_group, group_from_table
from wreath_centers.kernels import decode_type_key
from wreath_centers.wreath import type_of, w_multiply


@pytest.fixture(scope="session")
def triv():
    return builtin_group("trivial")


@pytest.fixture(scope="session")
def z2():
    return builtin_group("cyclic:2")


@pytest.fixture(scope="session")
def z3():
    return builtin_group("cyclic:3")


@pytest.fixture(scope="session")
def s3():
    return builtin_group("sym:3")


@pytest.fixture(scope="session")
def s4():
    return builtin_group("sym:4")


def brute_expand(lam, delta, n, G):
    """Full double enumeration of C_lam * C_delta, as {type: count}.

    The classes are buckets of the listed group, and only element-level
    multiplication and typing run, so it shares no code with the class
    stream or the kernel: an independent oracle for the center layer.
    """
    by_type = buckets(G, n)
    out = {}
    for x in by_type[lam]:
        for y in by_type[delta]:
            t = type_of(w_multiply(x, y, G), G)
            out[t] = out.get(t, 0) + 1
    return out


def brute_histogram(G, fam, z, side):
    """Types of z w (side 2) or w z (side 3) over w in C_fam, as
    {type: count}, with C_fam a bucket of the listed group."""
    hist = {}
    for w in buckets(G, fam.size)[fam]:
        u = w_multiply(z, w, G) if side == 2 else w_multiply(w, z, G)
        t = type_of(u, G)
        hist[t] = hist.get(t, 0) + 1
    return hist


def decoded(hist, n, G):
    """A kernel histogram over n points keyed by type, as the brute
    force keys its own."""
    return {decode_type_key(key, n, G.num_classes): count
            for key, count in hist.items()}


def q8_group():
    """Q8 from its multiplication table: element 4s + u stands for
    (-1)^s times the unit u of (1, i, j, k)."""
    # units[u][v] = (s, w) with unit_u * unit_v = (-1)^s unit_w
    units = [[(0, 0), (0, 1), (0, 2), (0, 3)],
             [(0, 1), (1, 0), (0, 3), (1, 2)],
             [(0, 2), (1, 3), (1, 0), (0, 1)],
             [(0, 3), (0, 2), (1, 1), (1, 0)]]
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            s, w = units[a % 4][b % 4]
            table[a][b] = 4 * ((a // 4 + b // 4 + s) % 2) + w
    return group_from_table(table)


def _class_constants(G):
    """c[a][b][c]: pairs (x, y) in C_a x C_b with x y equal to the first
    member of C_c, the structure constants of Z(C[G])."""
    k = range(G.num_classes)
    return [[[sum(G.mul[x][y] == G.classes[c][0]
                  for x in G.classes[a] for y in G.classes[b])
              for c in k] for b in k] for a in k]


def class_map(G, H):
    """A relabeling pi of G's classes onto H's that carries the structure
    constants of Z(C[G]) to those of Z(C[H])."""
    cg, ch = _class_constants(G), _class_constants(H)
    k = range(G.num_classes)
    return next(p for p in permutations(k)
                if all(cg[a][b][c] == ch[p[a]][p[b]][p[c]]
                       for a in k for b in k for c in k))
