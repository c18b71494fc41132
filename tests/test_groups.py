import cmath
import subprocess
import sys

import pytest

from wreath_centers.errors import (
    DiagonalizationFailed, NoIdentity, NotAssociative, NotBijectiveRow,
    UnsupportedSpec)
from wreath_centers.groups import (
    CharacterTable, Cyclotomic, builtin_group, group_from_json,
    group_from_table, resolve_group)


def test_trivial():
    G = builtin_group("trivial")
    assert G.order == 1 and G.num_classes == 1
    assert G.character_table().rows == ((1 + 0j,),)


def test_cyclic_structure():
    G = builtin_group("cyclic:5")
    assert G.order == 5
    assert all(G.mul[i][j] == (i + j) % 5 for i in range(5) for j in range(5))
    assert G.inv[2] == 3
    assert G.num_classes == 5
    assert G.xi == (5,) * 5


def test_sym3():
    G = builtin_group("sym:3")
    assert G.order == 6
    sizes = sorted(len(c) for c in G.classes)
    assert sizes == [1, 2, 3]
    # identity-first canonical order: ascending size
    assert [len(c) for c in G.classes] == [1, 2, 3]
    assert 0 in G.classes[0]
    assert sorted(G.character_table().degrees) == [1, 1, 2]


def test_sym4_dihedral():
    S4 = builtin_group("sym:4")
    assert S4.order == 24
    assert sorted(len(c) for c in S4.classes) == [1, 3, 6, 6, 8]
    assert sorted(S4.character_table().degrees) == [1, 1, 2, 3, 3]
    D4 = builtin_group("dihedral:4")
    assert D4.order == 8
    assert sorted(len(c) for c in D4.classes) == [1, 1, 2, 2, 2]
    assert sorted(D4.character_table().degrees) == [1, 1, 1, 1, 2]


def test_bad_specs():
    for bad in ("cyclic:0", "sym:5", "frobnicate:3", "sym:x"):
        with pytest.raises(UnsupportedSpec):
            builtin_group(bad)


def test_character_orthogonality_residual():
    for spec in ("trivial", "cyclic:2", "cyclic:3", "cyclic:6",
                 "sym:3", "sym:4", "dihedral:4", "dihedral:5"):
        G = builtin_group(spec)
        rows = G.character_table().rows
        k = G.num_classes
        for i in range(k):
            for j in range(k):
                ip = sum(len(G.classes[c]) * rows[i][c] * rows[j][c].conjugate()
                         for c in range(k)) / G.order
                assert abs(ip - (1 if i == j else 0)) < 1e-9


def test_perturbed_table_is_refused():
    """The exact orthogonality check refuses a table with any one value
    moved by 1 or by zeta, and accepts the table as Dixon's method gives
    it."""
    for spec in ("sym:3", "cyclic:3", "dihedral:4"):
        chars = builtin_group(spec).character_table()
        e = chars.exponent
        zeta = Cyclotomic(e, (0, 1) + (0,) * (len(chars.values[0][0].num) - 2))
        rebuilt = CharacterTable(chars.group, chars.values, e)
        assert rebuilt.values == chars.values and rebuilt.rows == chars.rows
        for i, row in enumerate(chars.values):
            for c in range(len(row)):
                for step in (1, zeta):
                    values = [list(r) for r in chars.values]
                    values[i][c] = values[i][c] + step
                    with pytest.raises(DiagonalizationFailed):
                        CharacterTable(chars.group, values, e)


def test_z2_z3_tables():
    Z2 = builtin_group("cyclic:2")
    # rows sort by entrywise value, so the sign character comes first
    assert sorted([round(v.real) for v in row]
                  for row in Z2.character_table().rows) == [[1, -1], [1, 1]]
    assert all(round(row[0].real) == 1 for row in Z2.character_table().rows)
    Z3 = builtin_group("cyclic:3")
    w = cmath.exp(2j * cmath.pi / 3)
    vals = {complex(round(v.real, 6), round(v.imag, 6))
            for row in Z3.character_table().rows for v in row}
    for v in (1, w, w ** 2):
        assert complex(round(v.real, 6), round(v.imag, 6)) in vals


def test_table_matches_closed_form_for_cyclic():
    """The modular route reproduces the exponential table of Z_k, chi_i(x)
    = exp(2 pi i i x / k), up to row order, entrywise within 1e-9."""
    key = lambda r: tuple((round(v.real, 6), round(v.imag, 6)) for v in r)
    for k in (2, 3, 4, 5, 6, 24):
        G = builtin_group(f"cyclic:{k}")
        # builtin Z_k: element x is the residue x, and class c is {c}
        assert G.classes == tuple((x,) for x in range(k))
        closed = sorted(([cmath.exp(2j * cmath.pi * i * x / k) for x in range(k)]
                         for i in range(k)), key=key)
        table = sorted(G.character_table().rows, key=key)
        assert len(table) == k
        for r1, r2 in zip(closed, table):
            assert all(abs(a - b) < 1e-9 for a, b in zip(r1, r2))


def test_tables_need_no_numpy():
    """The package imports and builds character tables with numpy blocked."""
    code = ("import sys; sys.modules['numpy'] = None\n"
            "import wreath_centers\n"
            "from wreath_centers.groups import builtin_group\n"
            "for spec in ('sym:3', 'dihedral:4', 'cyclic:5'):\n"
            "    print(builtin_group(spec).character_table().degrees)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:3] == [
        "(1, 1, 2)", "(1, 1, 1, 1, 2)", "(1, 1, 1, 1, 1)"]


def test_table_validation():
    with pytest.raises(NotBijectiveRow):
        group_from_table([[0, 0], [1, 0]])
    with pytest.raises(NotAssociative):
        # rows and columns are latin but (1*1)*2 != 1*(1*2)
        group_from_table([[0, 1, 2, 3, 4],
                          [1, 0, 3, 4, 2],
                          [2, 4, 0, 1, 3],
                          [3, 2, 4, 0, 1],
                          [4, 3, 1, 2, 0]])
    with pytest.raises(NoIdentity):
        group_from_table([])
    with pytest.raises(NotBijectiveRow):
        group_from_table([[0, 1], [1]])


def test_identity_relabeling():
    # identity sits at index 1; constructor must move it to 0
    G = group_from_table([[1, 0], [0, 1]])
    assert G.mul[0][0] == 0
    assert G.mul[1][1] == 0
    assert G.order == 2


def test_group_from_json_with_characters():
    obj = {"order": 2, "table": [[0, 1], [1, 0]],
           "characters": [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]}
    G = group_from_json(obj)
    assert set(G.character_table().rows) == {(1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j)}
    with pytest.raises(UnsupportedSpec):
        group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})
    bad = {"table": [[0, 1], [1, 0]],
           "characters": [[[1, 0], [1, 0]], [[2, 0], [0, 0]]]}
    with pytest.raises(DiagonalizationFailed):
        group_from_json(bad)
    # orthonormal with integral degrees, but not the table of the Klein
    # group, whose values are all +-1
    klein = {"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2],
                                   [2, 3, 0, 1], [3, 2, 1, 0]],
             "characters": [[[1, 0], [1, 0], [1, 0], [1, 0]],
                            [[1, 0], [-1, 0], [0, 1], [0, -1]],
                            [[1, 0], [-1, 0], [0, -1], [0, 1]],
                            [[1, 0], [1, 0], [-1, 0], [-1, 0]]]}
    with pytest.raises(DiagonalizationFailed):
        group_from_json(klein)


def test_resolve_group_builtin_and_file(tmp_path):
    assert resolve_group("cyclic:3").order == 3
    path = tmp_path / "klein.json"
    path.write_text('{"order": 4, "table": [[0,1,2,3],[1,0,3,2],'
                    '[2,3,0,1],[3,2,1,0]]}')
    G = resolve_group(str(path))
    assert G.order == 4 and G.num_classes == G.order
    with pytest.raises(UnsupportedSpec):
        resolve_group("no-such-file.json")


def test_resolve_group_builds_each_builtin_once(tmp_path):
    """A builtin spec resolves to one object, character table included,
    however it is padded; a file spec is read again on every call."""
    G = resolve_group("dihedral:4")
    table = G.character_table()
    again = resolve_group(" dihedral:4 ")
    assert again is G and again.character_table() is table
    assert resolve_group("cyclic:2") is not G
    path = tmp_path / "z2.json"
    path.write_text('{"table": [[0, 1], [1, 0]]}')
    assert resolve_group(str(path)) is not resolve_group(str(path))


def test_class_machinery():
    G = builtin_group("sym:3")
    for c, members in enumerate(G.classes):
        for x in members:
            assert G.class_of[x] == c
    for x in range(G.order):
        assert G.mul[x][G.inv[x]] == 0
    assert G.num_classes != G.order
    cyc = builtin_group("cyclic:4")
    assert cyc.num_classes == cyc.order
