from fractions import Fraction
from math import factorial

import pytest

from oracles import contains, skew_count
from wreath_centers.partitions import (
    as_partition, conjugate, dim_partition, mn_character, mn_column,
    partitions_of, union, z_of)


def test_as_partition_sorts_and_validates():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition([2, 0])
    with pytest.raises(ValueError):
        as_partition([2, -1])


def test_union_subtract():
    assert union((3, 1), (2, 1)) == (3, 2, 1, 1)


def test_z_of():
    # z = prod i^{m_i} m_i!
    assert z_of(()) == 1
    assert z_of((1, 1, 1)) == 6
    assert z_of((2, 1, 1)) == 4
    assert z_of((3, 2, 2, 1)) == 3 * 2 ** 2 * 2 * 1


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, p in enumerate(expected):
        assert len(list(partitions_of(n))) == p


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for n in range(7):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_dim_known_values():
    known = {(): 1, (1,): 1, (2,): 1, (1, 1): 1, (2, 1): 2,
             (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (3, 2): 5,
             (4, 3, 2, 1): 768}
    for lam, d in known.items():
        assert dim_partition(lam) == d
    for n in range(7):
        assert sum(dim_partition(l) ** 2
                   for l in partitions_of(n)) == factorial(n)


def test_mn_character_table_s4():
    mus = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    table = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for lam, row in table.items():
        assert [mn_character(lam, mu) for mu in mus] == row


def test_mn_orthogonality_small():
    for n in range(6):
        parts = list(partitions_of(n))
        for a in parts:
            for b in parts:
                s = sum(Fraction(mn_character(a, mu) * mn_character(b, mu),
                                 z_of(mu)) for mu in parts)
                assert s == (1 if a == b else 0)


def test_mn_empty():
    assert mn_character((), ()) == 1


def test_mn_columns_are_orthogonal():
    """Whole columns at n = 9 and 10, where the table of G wr S_n for
    trivial G is read: sum_lam chi^lam(rho) chi^lam(sigma) = z_rho when
    rho = sigma, else 0."""
    for n in (9, 10):
        parts = partitions_of(n)
        cols = [mn_column(rho) for rho in parts]
        assert all(list(col) == list(parts) for col in cols)
        for i, rho in enumerate(parts):
            for j in range(i, len(parts)):
                s = sum(cols[i][lam] * cols[j][lam] for lam in parts)
                assert s == (z_of(rho) if i == j else 0), (rho, parts[j])


def test_skew_count():
    assert skew_count((3, 2), (3, 2)) == 1
    assert skew_count((3, 2), ()) == dim_partition((3, 2))
    assert skew_count((2,), (1, 1)) == 0  # not contained
    # counting tableaux pairs: f^lam = sum_nu f^{lam/nu} f^nu
    for n in range(2, 7):
        for lam in partitions_of(n):
            for k in range(n + 1):
                total = sum(skew_count(lam, nu) * dim_partition(nu)
                            for nu in partitions_of(k))
                assert total == dim_partition(lam)


def test_contains():
    assert contains((2, 2), (3, 2))
    assert not contains((2, 2, 1), (3, 2))
    assert contains((), (1,))
    assert not contains((1,), ())
