"""Command line interface, exercised through subprocesses."""
import argparse
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from wreath_centers import cli, universal
from wreath_centers.center import product_classes
from wreath_centers.cli import main
from wreath_centers.groups import builtin_group
from wreath_centers.wreath import PartitionFamily, families_up_to

CMD = [sys.executable, "-m", "wreath_centers"]


def run(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=env, cwd=cwd)


def test_group_info_json():
    r = run("--group", "cyclic:3", "group-info")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["order"] == 3
    assert len(payload["classes"]) == 3
    assert payload["characters"]["degrees"] == [1, 1, 1]
    assert payload["backend"] == "python"


def test_byte_identical_repeats():
    args = ("--group", "cyclic:3", "--seed", "5", "verify-iso",
            "--size-cap", "2", "--point-size", "3", "--samples", "12")
    a, b = run(*args), run(*args)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    c = run("--group", "cyclic:2", "classes", "--n", "3")
    d = run("--group", "cyclic:2", "classes", "--n", "3")
    assert c.returncode == 0 and c.stdout == d.stdout


L2 = '{"1": [2]}'
JSON_COMMANDS = [
    ("cyclic:3", "group-info"),
    ("sym:3", "group-info"),
    ("cyclic:2", "classes", "--n", "3"),
    ("cyclic:2", "ccoeff", "--n", "3", "--lam", L2, "--del", L2,
     "--gam", '{"0": [3]}'),
    ("cyclic:2", "kcoeff", "--lam", L2, "--del", L2),
    ("cyclic:2", "kcoeff", "--lam", L2, "--del", L2, "--gam", '{"0": [3]}'),
    ("sym:3", "poly", "--lam", L2, "--del", L2),
    ("cyclic:2", "verify-poly", "--lam", L2, "--del", L2, "--gam", L2,
     "--n", "4"),
    ("cyclic:2", "verify-poly", "--size-cap", "1", "--n", "3"),
    ("cyclic:2", "verify-iso", "--size-cap", "2", "--point-size", "3"),
    ("sym:3", "verify-iso", "--size-cap", "1", "--point-size", "3"),
    ("cyclic:2", "enumerate-partial", "--n", "2"),
    ("cyclic:2", "enumerate-partial", "--n", "2", "--lam", L2),
]


@pytest.mark.parametrize("spec, argv", [(c[0], c[1:]) for c in JSON_COMMANDS])
def test_json_output_is_json_dumps_indent_2(capsys, spec, argv):
    """Every JSON-emitting subcommand prints exactly
    json.dumps(payload, indent=2) and a newline."""
    assert main(["--group", spec, *argv]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_global_flags_after_subcommand():
    a = run("--group", "cyclic:2", "classes", "--n", "2")
    b = run("classes", "--group", "cyclic:2", "--n", "2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_classes_checksum():
    r = run("--group", "cyclic:2", "classes", "--n", "3")
    data = json.loads(r.stdout)
    assert data["checksum"] == {"sum": 48, "expected": 48, "ok": True}
    assert sum(row["size"] for row in data["classes"]) == 48


def test_ccoeff_pads_and_masses():
    r = run("--group", "cyclic:3", "ccoeff", "--n", "3",
            "--lam", '{"1": [1]}', "--del", '{"2": [1]}')
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["mass"]["ok"] is True
    assert data["mass"]["sum"] == data["mass"]["product"]
    # requesting one coefficient
    r2 = run("--group", "cyclic:3", "ccoeff", "--n", "2",
             "--lam", '{"1": [1]}', "--del", '{"1": [1]}',
             "--gam", '{"1": [1, 1]}')
    data2 = json.loads(r2.stdout)
    assert data2["coeff"] == 2


def test_kcoeff_value_and_window():
    r = run("--group", "cyclic:3", "kcoeff",
            "--lam", '{"1": [1]}', "--del", '{"2": [1]}',
            "--gam", '{"1": [1], "2": [1]}')
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["k"] == 1
    r2 = run("--group", "cyclic:2", "kcoeff",
             "--lam", '{"1": [1]}', "--del", '{"1": [1]}')
    vec = json.loads(r2.stdout)
    got = {json.dumps(row["gamma"], sort_keys=True): row["k"] for row in vec["kvec"]}
    # the two points either collide (labels multiply to the identity)
    # or sit apart; no 2-cycle can appear from identity permutations
    assert got == {'{"0": [1]}': 1, '{"1": [1, 1]}': 2}


def test_poly_sym3_lists_nonzero_in_family_order(capsys):
    """Without --gam, poly lists exactly the nonzero polynomials, in
    families_up_to order, and each matches product_classes at
    n = |lam|+|del|-1 and n = |lam|+|del| on a non-abelian G."""
    G = builtin_group("sym:3")
    lam = PartitionFamily({2: (2,)})
    delta = PartitionFamily({1: (1,), 2: (1,)})
    rc = main(["--group", "sym:3", "poly",
               "--lam", '{"2": [2]}', "--del", '{"1": [1], "2": [1]}'])
    polys = json.loads(capsys.readouterr().out)["polynomials"]
    assert rc == 0
    gammas = [PartitionFamily.from_json(p["gamma"]) for p in polys]
    assert gammas == [g for g in families_up_to(4, G.num_classes)
                      if g in gammas]
    assert all(p["binomial"] for p in polys)
    for n in (3, 4):
        vec = product_classes(lam.pad(n), delta.pad(n), n, G)
        assert {g.strip_ones()[0] for g in vec.terms} <= set(gammas)
        for g, p in zip(gammas, polys):
            if g.size <= n:
                predicted = sum(k * comb(n - g.size, int(j))
                                for j, k in p["binomial"].items())
                assert predicted == vec.coeff(g.pad(n)), (g, n)


def test_poly_latex_format():
    r = run("--group", "trivial", "--format", "latex", "poly",
            "--lam", '{"0": [2]}', "--del", '{"0": [2]}')
    assert r.returncode == 0, r.stderr
    assert "\\binom" in r.stdout


def test_verify_poly_and_workers():
    """The sweep passes in-process; --workers is no longer an option."""
    args = ("--group", "cyclic:2", "verify-poly", "--size-cap", "2", "--n", "5")
    r = run(*args)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["pass"] is True
    assert payload["mismatches"] == []
    assert run(*args, "--workers", "2").returncode == 2


def test_cli_import_starts_no_process_machinery():
    code = ("import sys, wreath_centers.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
            " if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_verify_poly_single_triple():
    r = run("--group", "cyclic:2", "verify-poly",
            "--lam", '{"1": [2]}', "--del", '{"0": [2]}',
            "--gam", '{"0": [2], "1": [2]}', "--n", "6")
    payload = json.loads(r.stdout)
    assert r.returncode == 0
    assert payload["mode"] == "single"
    assert payload["pass"] is True
    assert all(row["match"] for row in payload["rows"])


def test_enumerate_partial_counts():
    r = run("--group", "cyclic:2", "enumerate-partial", "--n", "2")
    data = json.loads(r.stdout)
    assert data["total"] == 13
    r2 = run("--group", "cyclic:2", "enumerate-partial", "--n", "3",
             "--lam", '{"0": [2]}')
    data2 = json.loads(r2.stdout)
    assert data2["count"] == 6
    assert len(data2["elements"]) == 6


def test_csv_format():
    r = run("--group", "cyclic:2", "--format", "csv", "classes", "--n", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) >= 5
    assert "," in lines[0]


def test_exit_usage_errors():
    assert run("no-such-command").returncode == 2
    assert run("--group", "cyclic:0", "group-info").returncode == 2
    assert run("--group", "cyclic:2", "ccoeff", "--n", "2",
               "--lam", "not json", "--del", "{}").returncode == 2
    assert run("--group", "cyclic:2", "--tolerance", "-1",
               "verify-iso").returncode == 2
    assert run("--group", "cyclic:2", "kcoeff",
               "--lam", '{"9": [1]}', "--del", "{}").returncode == 2


@pytest.mark.parametrize("parts", ["[true]", "[2, false]", "[1.0]", "[0]", "1"])
def test_family_parts_must_be_positive_integers(capsys, parts):
    """A part that is not a positive int, a JSON boolean included, is a
    usage error, not read as the part 1 or 0."""
    assert main(["--group", "cyclic:2", "kcoeff", "--lam", '{"1": %s}' % parts,
                 "--del", '{"1": [1]}']) == 2
    assert "must be a list of positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--group", "cyclic:2", "classes", "--n", "-1"],
    ["--group", "cyclic:2", "enumerate-partial", "--n", "-2"],
    ["--group", "cyclic:2", "verify-poly", "--size-cap", "2", "--n", "4",
     "--samples", "-3"],
    ["--group", "cyclic:2", "verify-iso", "--point-cap", "-1"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    """A negative count is refused by the parser, not run with a wrong
    checksum or silently fewer checks."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_exit_not_proper():
    r = run("--group", "cyclic:2", "poly",
            "--lam", '{"0": [1]}', "--del", '{"1": [1]}')
    assert r.returncode == 3


def test_exit_size_errors():
    # family larger than n
    r = run("--group", "cyclic:2", "ccoeff", "--n", "2",
            "--lam", '{"0": [3]}', "--del", '{"0": [2]}')
    assert r.returncode == 4


def test_exit_cap_exceeded():
    r = run("--group", "cyclic:2", "--cap-class-size", "10",
            "ccoeff", "--n", "8", "--lam", '{"1": [8]}', "--del", '{"1": [8]}')
    assert r.returncode == 5


def test_listing_cap_checked_before_listing():
    # classes lists every family of size n: 1,165 at n = 12 on Z_2
    r = run("--group", "cyclic:2", "--cap-class-size", "1000",
            "classes", "--n", "12")
    assert r.returncode == 5, r.stderr
    assert "1165" in r.stderr
    # p(255) families, far above the default cap: refused at once
    r = run("--group", "trivial", "classes", "--n", "255")
    assert r.returncode == 5, r.stderr
    # enumerate-partial lists every family of size <= n
    r = run("--group", "cyclic:2", "--cap-class-size", "1000",
            "enumerate-partial", "--n", "12")
    assert r.returncode == 5, r.stderr


def test_listing_cap_weighs_each_family_by_n(monkeypatch, capsys):
    """trivial classes --n 70 would list 4,087,968 families, under the
    default cap by count; weighed by n per family it is refused before
    any family is listed."""
    def refuse(*args, **kw):
        raise AssertionError("the listing started")

    monkeypatch.setattr(cli, "families_of_size", refuse)
    assert main(["--group", "trivial", "classes", "--n", "70"]) == 5
    assert "4087968" in capsys.readouterr().err


def test_verify_iso_cap_weighs_each_check_by_point_size(monkeypatch, capsys):
    """cyclic:3 verify-iso --size-cap 1 --point-size 16 would make 584,515
    checks, each at points of size up to 16: weight 9,352,240, above the
    default cap, so it is refused before any check runs."""
    def refuse(*args, **kw):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "verify_theorem71", refuse)
    assert main(["--group", "cyclic:3", "verify-iso", "--size-cap", "1",
                 "--point-size", "16"]) == 5
    assert "9352240" in capsys.readouterr().err


def test_k_path_cap_checked_before_streaming(monkeypatch, capsys):
    """kcoeff and poly weigh the pair by k_stream_size: sym:3
    (6)^1 x (6)^1 weighs 119,439,360, above the default cap, and
    cyclic:3 (6)^1 x (6)^1 weighs 1,866,240, above a cap of 1,000,000;
    each is refused before anything streams."""
    def refuse(*args, **kw):
        raise AssertionError("the k stream started")

    for name in ("k_vector", "structure_polynomial", "structure_polynomials"):
        monkeypatch.setattr(cli, name, refuse)
    for cmd in ("kcoeff", "poly"):
        assert main(["--group", "sym:3", cmd, "--lam", '{"1": [6]}',
                     "--del", '{"1": [6]}']) == 5, cmd
        assert "119439360" in capsys.readouterr().err
        assert main(["--group", "cyclic:3", "--cap-class-size", "1000000",
                     cmd, "--lam", '{"1": [6]}', "--del", '{"1": [6]}']) == 5
        assert "1866240" in capsys.readouterr().err


def test_verify_poly_single_cap_checked_before_streaming(monkeypatch, capsys):
    """Single-mode verify-poly weighs the pair as kcoeff does:
    cyclic:3 (5)^1 x (5)^1 weighs 62,208, above a cap of 1,000,
    so it is refused before the polynomial or any product is computed."""
    def refuse(*args, **kw):
        raise AssertionError("the k stream started")

    monkeypatch.setattr(cli, "verify_polynomiality", refuse)
    assert main(["--group", "cyclic:3", "--cap-class-size", "1000",
                 "verify-poly", "--lam", '{"1": [5]}', "--del", '{"1": [5]}',
                 "--gam", '{"1": [5, 5]}', "--n", "10"]) == 5
    assert "62208" in capsys.readouterr().err


def test_verify_poly_sweep_cap_checked_before_sweeping(monkeypatch, capsys):
    """cyclic:3 verify-poly --size-cap 4 --n 8 would make 1,482,871
    checks at n up to 8: weight 11,862,968, above the default cap, so it
    is refused before any product is computed."""
    def refuse(*args, **kw):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(universal, "product_classes", refuse)
    monkeypatch.setattr(universal, "structure_polynomials", refuse)
    assert main(["--group", "cyclic:3", "verify-poly", "--size-cap", "4",
                 "--n", "8"]) == 5
    assert "11862968" in capsys.readouterr().err


class _Zeros:
    def coeff(self, fam):
        return 0


@pytest.mark.parametrize("spec", ["trivial", "cyclic:2", "cyclic:3", "sym:3",
                                  "dihedral:4"])
def test_verify_poly_checks_counted_in_closed_form(monkeypatch, capsys, spec):
    """The closed-form count behind the verify-poly work check equals the
    sweep's own `checked`, with and without --samples.  The products and
    polynomials are stubbed to zero, so only the sweep's counting runs."""
    monkeypatch.setattr(universal, "product_classes", lambda *a, **kw: _Zeros())
    monkeypatch.setattr(universal, "structure_polynomials", lambda *a: {})
    G = builtin_group(spec)
    for size_cap, n, samples in itertools.product(
            (0, 1, 2), (0, 2, 4), (None, 0, 1, 5)):
        argv = ["--group", spec, "verify-poly", "--size-cap", str(size_cap),
                "--n", str(n)]
        if samples is not None:
            argv += ["--samples", str(samples)]
        assert main(argv) == 0, argv
        checked = json.loads(capsys.readouterr().out)["checked"]
        args = argparse.Namespace(size_cap=size_cap, n=n, samples=samples)
        assert cli._poly_checks(G, args) == checked, argv


@pytest.mark.parametrize("spec, n", [("sym:3", "4"), ("dihedral:4", "3")])
def test_verify_poly_non_abelian(capsys, spec, n):
    """Polynomials from k against product_classes on non-abelian G, where
    the brute-force oracle refuses (|G| > 3).  On sym:3, n_max =
    2 * size_cap reaches every k of every pair; dihedral:4 stops at
    n = 3 to stay fast."""
    rc = main(["--group", spec, "verify-poly", "--n", n, "--size-cap", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["mismatches"] == []
    assert payload["checked"] > 0


def test_group_file_and_malformed(tmp_path):
    good = tmp_path / "klein.json"
    good.write_text(json.dumps({
        "order": 4,
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    }))
    r = run("--group", str(good), "group-info")
    assert r.returncode == 0
    assert json.loads(r.stdout)["order"] == 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "table": [[0, 0], [1, 1]]}))
    assert run("--group", str(bad), "group-info").returncode == 2
    assert run("--group", str(tmp_path / "missing.json"),
               "group-info").returncode == 2


def test_env_config_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "cyclic:3", "format": "json"}))
    r = run("group-info", env_extra={"WREATH_CENTERS_CONFIG": str(cfg)})
    assert r.returncode == 0
    assert json.loads(r.stdout)["order"] == 3
    # explicit flag wins over the config file
    r2 = run("--group", "cyclic:2", "group-info",
             env_extra={"WREATH_CENTERS_CONFIG": str(cfg)})
    assert json.loads(r2.stdout)["order"] == 2
    bad = tmp_path / "bad.json"
    for obj in ({"grup": "cyclic:3"}, {"tolerance": "1e-6"}, {"workers": 2},
                {"group": 5}, {"group": ["x"]}, {"cap_class_size": True},
                {"max_n": True}, {"max_total_size": True}):
        bad.write_text(json.dumps(obj))
        r = run("group-info", env_extra={"WREATH_CENTERS_CONFIG": str(bad)})
        assert r.returncode == 2, obj
        assert r.stderr.startswith("error: "), obj


def test_parser_built_once_and_reused(monkeypatch, capsys, tmp_path):
    """Repeated in-process calls reuse the one parser and answer as a
    fresh process does, whether global options come before or after the
    subcommand, a config file is set or not, or a call is a usage error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "cyclic:3", "format": "csv"}))
    calls = [
        (["--group", "cyclic:2", "classes", "--n", "2"], None),
        (["classes", "--n", "2", "--group", "cyclic:2"], None),
        (["group-info"], cfg),
        (["--format", "json", "group-info"], cfg),
        (["--group", "cyclic:2", "classes", "--n", "-1"], None),
        (["kcoeff", "--group", "cyclic:2", "--format", "latex",
          "--lam", '{"1": [1]}', "--del", '{"1": [1]}'], cfg),
        (["--group", "cyclic:2", "enumerate-partial", "--n", "2"], None),
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for i, (argv, config) in enumerate(calls):
        if config is None:
            monkeypatch.delenv("WREATH_CENTERS_CONFIG", raising=False)
        else:
            monkeypatch.setenv("WREATH_CENTERS_CONFIG", str(config))
        before = len(built)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr().out
        fresh = run(*argv)
        assert (out, rc) == (fresh.stdout, fresh.returncode), argv
        assert (len(built) > before) == (i == 0), argv


def test_verify_iso_output_shape():
    r = run("--group", "trivial", "verify-iso", "--size-cap", "2",
            "--point-size", "3")
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)
    assert isinstance(rows, list)
    assert all(row["pass"] for row in rows)
    assert "checks passed" in r.stderr


def test_verify_iso_non_abelian(capsys):
    """The image route weighs each character alphabet by its degree, so
    every check passes on a non-abelian G too."""
    rc = main(["--group", "sym:3", "verify-iso", "--size-cap", "2",
               "--point-size", "4"])
    err = capsys.readouterr().err
    assert rc == 0, err
    assert "4301/4301 checks passed" in err


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line", 1)[1].split("\n## ", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith("wreath-centers ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_example_runs(capsys, line):
    """Every command of the README's command-line block exits 0."""
    rc = main(shlex.split(line, comments=True)[1:])
    capsys.readouterr()
    assert rc == 0, line


# The argv after --group and --format of each pinned command.
PINNED_ARGV = {
    "group-info": ("group-info",),
    "verify-iso": ("verify-iso", "--size-cap", "2", "--point-size", "4"),
    "classes": ("classes", "--n", "3"),
    "ccoeff": ("ccoeff", "--n", "3", "--lam", L2, "--del", L2),
    "ccoeff-gam": ("ccoeff", "--n", "3", "--lam", L2, "--del", L2,
                   "--gam", '{"0": [3]}'),
    "kcoeff": ("kcoeff", "--lam", L2, "--del", L2),
    "kcoeff-gam": ("kcoeff", "--lam", L2, "--del", L2, "--gam", '{"0": [3]}'),
    "poly": ("poly", "--lam", L2, "--del", L2),
    "poly-gam": ("poly", "--lam", L2, "--del", L2, "--gam", '{"0": [3]}'),
    "verify-poly-single": ("verify-poly", "--lam", L2, "--del", '{"0": [2]}',
                           "--gam", '{"0": [2], "1": [2]}', "--n", "4"),
    "verify-poly-sweep": ("verify-poly", "--size-cap", "1", "--n", "3"),
    "enumerate-partial": ("enumerate-partial", "--n", "2"),
    "enumerate-partial-lam": ("enumerate-partial", "--n", "3", "--lam", L2),
}

# sha256 of stdout, keyed by (group, format, PINNED_ARGV name).  The JSON
# and CSV writers print each payload as its command built it, so these pin
# the rounding each command does itself; the rest pin every command's
# bytes in all three formats.
PINNED_STDOUT = {
    ("sym:3", "json", "group-info"):
        "2a4d88263ecd31c9344805c1e0b2b09da9406b2b867d758e265288942bef7fd6",
    ("sym:3", "csv", "group-info"):
        "414e061d186266cebc159c56958d62ab3d2c0fcc4b2c99092a118b896fcebde5",
    ("dihedral:4", "json", "group-info"):
        "ca26939fae1f72f18690cfb189336166af75fcdb3b03fa91e10a0a86ed74ac6e",
    ("dihedral:4", "csv", "group-info"):
        "70b308308b9f2605fe4dd1037353c658d67cf606794f56bd30380f01c9c52d1e",
    ("cyclic:5", "json", "group-info"):
        "00758686f7e9dc3b3a52c751894b11b5fc1fa0f46e7dec110a8be3e9d6011743",
    ("cyclic:5", "csv", "group-info"):
        "76ab7e7f051514feba1c013123ccb47cb45c546b07338726c1717593a612dccc",
    ("cyclic:2", "json", "verify-iso"):
        "8fd169c8d8a1ea45f74a6d4c3c760d790f07de9ee38e31769da0db5c6a5e38b3",
    ("cyclic:2", "csv", "verify-iso"):
        "0bfa723722eb86624f393b06c6ff8a7e4ce352ea13c2f8a797c025b57fb57f94",
    ("sym:3", "json", "verify-iso"):
        "d9237f03252cc76e4e74c304f9970b0f00815f0d2c9162491f91af78fa777bd8",
    ("sym:3", "csv", "verify-iso"):
        "d356e37ebf234ec50114bae872e1de240bbb3fd85af64917dc7f3145be5b4ec6",
    ("cyclic:2", "json", "classes"):
        "a42a8738a4870ede1403a2ef885e06a041ca1f71a92899422909db56cc87cfdc",
    ("cyclic:2", "csv", "classes"):
        "2843815509de321a52a63c4dc2d92c5aac4af1427b75eba730b77d9cc152c9b4",
    ("cyclic:2", "latex", "classes"):
        "0a69dc9299b79e1e2b9a2b7cad65588460f3d92188595570f92a8244fa0e3d9e",
    ("cyclic:2", "json", "ccoeff"):
        "384493b247d5f82233175135129e96cd17ebb4f6b7512599fab7267ef68a263a",
    ("cyclic:2", "csv", "ccoeff"):
        "8edc2ec8f673ba2813466c0f3374137fde9cbb4c7f21a3313064844e46ee86be",
    ("cyclic:2", "latex", "ccoeff"):
        "6ed0dfd038f0ebd943e9b4cea1066671fb193bbdc7b32efe7af28f8e0c84f3df",
    ("cyclic:2", "json", "ccoeff-gam"):
        "01a879de3549bf19441b3d679bfe20de43b26b84b833818f5004a3f3372d5141",
    ("cyclic:2", "csv", "ccoeff-gam"):
        "8edc2ec8f673ba2813466c0f3374137fde9cbb4c7f21a3313064844e46ee86be",
    ("cyclic:2", "latex", "ccoeff-gam"):
        "6ed0dfd038f0ebd943e9b4cea1066671fb193bbdc7b32efe7af28f8e0c84f3df",
    ("cyclic:2", "json", "kcoeff"):
        "7478e3f15067a973ac1c4b9afd01d20c75223debe37f4eb0249ffdba821490f8",
    ("cyclic:2", "csv", "kcoeff"):
        "9a5c3da80107adbe39b707f9eb28f9b21800e16c72eeac6c8a4bb48879ad7137",
    ("cyclic:2", "latex", "kcoeff"):
        "d01c8d44fa28e7c5d28c70c67641255d14a621fcc1bed05f36ace4ec6ebe102d",
    ("cyclic:2", "json", "kcoeff-gam"):
        "c60371b6f4fa3f1a35d5ea7193640751edd7c943cc9a702aaecaea1ecf081cb7",
    ("cyclic:2", "csv", "kcoeff-gam"):
        "d6e19c8c1b9f639ddabc7f4ace5a6c0129b846b9cb503ad21ab3bbd804881015",
    ("cyclic:2", "latex", "kcoeff-gam"):
        "d0027b29a51f5824042d2e0f80aacd6f5aad705c60a7312d4a3cbc66183b90b2",
    ("cyclic:2", "json", "poly"):
        "fc0cb592baf191f9549ab6cacd1f16fc4767ab069b0ed41f48695a2154839c13",
    ("cyclic:2", "csv", "poly"):
        "8adb35d9bd47d4e47a28f2c2059da89aef25602174ebb7389a3c34c5f12809bd",
    ("cyclic:2", "latex", "poly"):
        "76599873a249acd5ecc1f85bf1327e27e97d2535e808a4f1c50425c2a2f3dc32",
    ("cyclic:2", "json", "poly-gam"):
        "39c3cbad5d8e520bc05b76f6fff6a49e8aae33b268693862fb5aed78ccd172da",
    ("cyclic:2", "csv", "poly-gam"):
        "0012d86b4a476dc7d8b62be08fdf5fcc93c1e2e413c6189d11c040d19756ef9d",
    ("cyclic:2", "latex", "poly-gam"):
        "3d221a406af6fc1453d4e27d0374450facc135c0213679281c6bcb23d962e617",
    ("cyclic:2", "json", "verify-poly-single"):
        "c836175339c7e1fdd42666c613c43ef142dd3ce509189fedd734b569c8dbb8a7",
    ("cyclic:2", "csv", "verify-poly-single"):
        "f4105d0683aa2863ba393c36c59c826bba10d38173263a0f83da6e31feaece15",
    ("cyclic:2", "latex", "verify-poly-single"):
        "b68537efd35bb0bf3e49f4a6eca2906e4629d84fe4ef260c7db6ec911a1c1cd0",
    ("cyclic:2", "json", "verify-poly-sweep"):
        "1dd618782a515eb66db6c0d523a787dc18a788cb82c62e1865bfb303f23f5c59",
    ("cyclic:2", "csv", "verify-poly-sweep"):
        "dc7db71c87902b0db8958fb4bc94b3de41ed5537c6463cdb5c2bf2974c1cf2ec",
    ("cyclic:2", "latex", "verify-poly-sweep"):
        "b68537efd35bb0bf3e49f4a6eca2906e4629d84fe4ef260c7db6ec911a1c1cd0",
    ("cyclic:2", "json", "enumerate-partial"):
        "7574a2510325aff8a1558c707e624e0f4df4977a031020b09432c2da8acd4dd6",
    ("cyclic:2", "csv", "enumerate-partial"):
        "0eaf0a6905ba38ad9d05f5a82d6e6558bce0d33f7e10273086f517a0a81871e4",
    ("cyclic:2", "latex", "enumerate-partial"):
        "b74420f6921d7557ead5383428b954faf5efbdfcf26c9f30f347deecc26a337d",
    ("cyclic:2", "json", "enumerate-partial-lam"):
        "fba0b8e8c49d04d3b822035952f1e8bb14078eaa3ba0ba2bd3869af2ce10c085",
    ("cyclic:2", "csv", "enumerate-partial-lam"):
        "cf880b164e3b5c36cb378a0216200b3c96fe3b00da2bc91a22d5160121e065fa",
    ("cyclic:2", "latex", "enumerate-partial-lam"):
        "4c6cfb1158c3d0d82fb31f486faca776a19a9dbe314beb53b9791cf1bf557ece",
    ("sym:3", "json", "classes"):
        "e6b23d584f0693ff0a7726066e6b3e7141caa24b625fe779c338cb0f8888e5bf",
    ("sym:3", "csv", "classes"):
        "06edbb880e77d734ae5f9c44e80f0139b2ca386e1aa703a043e9a1325a35eb6b",
    ("sym:3", "latex", "classes"):
        "1b16bdd7ed9192fa77d585a1648724ee04bfb85950866cd9a0801fac29c0342b",
    ("sym:3", "json", "ccoeff"):
        "33de82ba081e39cc5a312a733ae9af15de6883fb74bb8eed74be5b09e050438b",
    ("sym:3", "csv", "ccoeff"):
        "b654376442be0ebc545749cb4e7a0c9f5bb59d75dd705b47f709910ac1498e0f",
    ("sym:3", "latex", "ccoeff"):
        "78be6f57b18d72561587df05a993058ff6fa88d0328a346519b48c898e66d2f8",
    ("sym:3", "json", "ccoeff-gam"):
        "8a114c192c584cb656238a3995114e7bee02cc79ed8335d1c4a86dd2857b4e1f",
    ("sym:3", "csv", "ccoeff-gam"):
        "b654376442be0ebc545749cb4e7a0c9f5bb59d75dd705b47f709910ac1498e0f",
    ("sym:3", "latex", "ccoeff-gam"):
        "78be6f57b18d72561587df05a993058ff6fa88d0328a346519b48c898e66d2f8",
    ("sym:3", "json", "kcoeff"):
        "5561175da142608e2aa786e84d8029b563ca045cf66c2e347d14e1db1e6c9610",
    ("sym:3", "csv", "kcoeff"):
        "c4e09a2eee24cf78469a91af00b56d967f53a4003057d533ad8c59ffb1b0204a",
    ("sym:3", "latex", "kcoeff"):
        "2de87a453c2b45f176932af8059780f44b43e48b3c38a6fb30eac50bef23d543",
    ("sym:3", "json", "kcoeff-gam"):
        "90dd36cf313364d28bff09007785bc553578542b37d4be5ff98f2113ea473c9e",
    ("sym:3", "csv", "kcoeff-gam"):
        "eaeae152db275817e24b1960fb89a5557a51e332666654cd932a4c26ff8a4b52",
    ("sym:3", "latex", "kcoeff-gam"):
        "b0e2c94bc8d082fddfd21fbf99745e8a4095d32116d6b622f2d2d332535b936f",
    ("sym:3", "json", "poly"):
        "be8bbda7b88cbc8232a119a83d0fc9fbfeb0f60bf9c6f1028ba80aef78a3cdbd",
    ("sym:3", "csv", "poly"):
        "f939f454f1926d37ea4df04018cfb601a6769d827fd68fbb76e7e594a8294d92",
    ("sym:3", "latex", "poly"):
        "9b8d135f98f7c30ca692da8597b72836666274ffdfb47a302758fda7f7c3133e",
    ("sym:3", "json", "poly-gam"):
        "419a76945ed26d082d3e2cc4e247d74eb95a179045ef3da3cdf5d7b62d07e1b7",
    ("sym:3", "csv", "poly-gam"):
        "1e4eff81e63b8af3a9e1a6810133444496d0f05009fb47199572d3d9c7e7675e",
    ("sym:3", "latex", "poly-gam"):
        "dac78d00e2a5b05063ca7a0dfee8044190c52803f6ce1e30effd485636142f7f",
    ("sym:3", "json", "verify-poly-single"):
        "01e7b015397d14156c96faf893bc93939ac359d1f2874c8c455b476ad5c9186e",
    ("sym:3", "csv", "verify-poly-single"):
        "f4105d0683aa2863ba393c36c59c826bba10d38173263a0f83da6e31feaece15",
    ("sym:3", "latex", "verify-poly-single"):
        "b68537efd35bb0bf3e49f4a6eca2906e4629d84fe4ef260c7db6ec911a1c1cd0",
    ("sym:3", "json", "verify-poly-sweep"):
        "6b99ab882a3b497434a452827c5d86bdab86887ac19e14facc9ff660f5b84de2",
    ("sym:3", "csv", "verify-poly-sweep"):
        "dc7db71c87902b0db8958fb4bc94b3de41ed5537c6463cdb5c2bf2974c1cf2ec",
    ("sym:3", "latex", "verify-poly-sweep"):
        "b68537efd35bb0bf3e49f4a6eca2906e4629d84fe4ef260c7db6ec911a1c1cd0",
    ("sym:3", "json", "enumerate-partial"):
        "4322ac39bd32c1c5b9fda7e4c94baccf589d80ca9e3c89436b83812587c0e953",
    ("sym:3", "csv", "enumerate-partial"):
        "b0193fba0594729eaf500205abe2d3fbdd1642501f7eca6e9c4588ee676f8839",
    ("sym:3", "latex", "enumerate-partial"):
        "ba149cf6f89d78d62953b4c0152c69bacfbff5f0c6c8c011e1c98fa33e3e88fe",
    ("sym:3", "json", "enumerate-partial-lam"):
        "afabb47986d1e461f4d950e88aa309509b2ee8c8454f87db2749754ca2d4ce87",
    ("sym:3", "csv", "enumerate-partial-lam"):
        "f79d5b0e0b4d07633ad56c1442a49af42412ec0ee0eb84182ad6e33c6d03ce36",
    ("sym:3", "latex", "enumerate-partial-lam"):
        "61df42e7b30bc5e3db159d4bcf225115fe18e7e476fd664514ea5e9e088cb9bf",
}


@pytest.mark.parametrize("spec, fmt, cmd", sorted(PINNED_STDOUT))
def test_stdout_pinned(capsys, spec, fmt, cmd):
    """Floats rounded to 12 significant digits, complex character values
    as [re, im], abs_err unrounded in CSV, and every command's JSON, CSV
    and LaTeX: the bytes are pinned."""
    assert main(["--group", spec, "--format", fmt, *PINNED_ARGV[cmd]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[
        spec, fmt, cmd]


# The benchmark's three verify-iso sweeps: complex values, two, three and
# four character alphabets, and the largest point sizes any pin reaches.
# sha256 of stdout, keyed by (group, format); the argv follows the group.
SWEEP_ARGV = {
    "cyclic:2": ("verify-iso", "--size-cap", "3", "--point-size", "4"),
    "cyclic:3": ("verify-iso", "--size-cap", "2", "--point-size", "4"),
    "dihedral:2": ("verify-iso", "--size-cap", "1", "--point-size", "5"),
}
SWEEP_STDOUT = {
    ("cyclic:2", "json"):
        "c1ad84b277a0e2714026b66b1ee5cadbc78e7bd50703b11143ca6c7449e1219d",
    ("cyclic:2", "csv"):
        "71185fb9509d337a5ae850f19d97304f0e365ad61a3198f8e884e243d28f7122",
    ("cyclic:3", "json"):
        "23b35e7c4ff79134a9cbdeebeca34f1923c6147f49c6b8051a9a97d6f7fe02a7",
    ("cyclic:3", "csv"):
        "e80a2fdc863b452305969dffc25459319993e03f11ddf2ba7e2a33d06209df26",
    ("dihedral:2", "json"):
        "aa86624e7158ffcbd9237baad53860ad193ee63bdc4699b79f1c89b9343162dd",
    ("dihedral:2", "csv"):
        "f8721f0c12f664d9d56a71ed54b4d2e10d8bad3638bfaaa3e86d26afade9b24a",
}


@pytest.mark.parametrize("spec, fmt", sorted(SWEEP_STDOUT))
def test_verify_iso_sweep_pinned(capsys, spec, fmt):
    """Every lhs, rhs and (in CSV, unrounded) abs_err of the benchmark's
    verify-iso sweeps is pinned."""
    assert main(["--group", spec, "--format", fmt, *SWEEP_ARGV[spec]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_STDOUT[spec, fmt]
