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

from wreath_centers import cli
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
    assert payload["backend"] in ("cython", "python")


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
    args = ("--group", "cyclic:2", "verify-poly", "--size-cap", "2", "--n", "5")
    one = run(*args, "--workers", "1")
    two = run(*args, "--workers", "2")
    assert one.returncode == 0, one.stderr
    assert one.stdout == two.stdout
    payload = json.loads(one.stdout)
    assert payload["pass"] is True
    assert payload["mismatches"] == []


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
    """kcoeff and poly weigh the k stream by k_stream_size, one support
    per orbit: sym:3 (6)^1 x (6)^1 streams 119,439,360 elements, above
    the default cap, and cyclic:3 (6)^1 x (6)^1 streams 1,866,240, above
    a cap of 1,000,000; each is refused before anything streams."""
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


def test_verify_poly_sweep_cap_checked_before_sweeping(monkeypatch, capsys):
    """cyclic:3 verify-poly --size-cap 4 --n 8 would make 1,482,871
    checks at n up to 8: weight 11,862,968, above the default cap, so it
    is refused before any product is computed."""
    def refuse(*args, **kw):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "product_classes", refuse)
    monkeypatch.setattr(cli, "structure_polynomials", refuse)
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
    monkeypatch.setattr(cli, "product_classes", lambda *a, **kw: _Zeros())
    monkeypatch.setattr(cli, "structure_polynomials", lambda *a: {})
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
    for obj in ({"grup": "cyclic:3"}, {"tolerance": "1e-6"}):
        bad.write_text(json.dumps(obj))
        assert run("group-info",
                   env_extra={"WREATH_CENTERS_CONFIG": str(bad)}).returncode == 2


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


# sha256 of stdout.  The JSON and CSV writers print each payload as its
# command built it, so these pin the rounding each command does itself.
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
}


@pytest.mark.parametrize("spec, fmt, cmd", sorted(PINNED_STDOUT))
def test_stdout_pinned(capsys, spec, fmt, cmd):
    """Floats rounded to 12 significant digits, complex character values
    as [re, im], abs_err unrounded in CSV: the bytes are pinned."""
    argv = ["--group", spec, "--format", fmt, cmd]
    if cmd == "verify-iso":
        argv += ["--size-cap", "2", "--point-size", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[
        spec, fmt, cmd]
