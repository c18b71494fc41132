"""Command line front end.

Every computation is reachable as a subcommand with machine-readable
output; JSON output is deterministic byte-for-byte for identical
inputs (fixed key order, floats rounded to 12 significant digits).
Families are passed as JSON objects keyed by class id, e.g.
'{"0": [2], "1": [1, 1]}'; run group-info to see the class ids.
"""

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import errors as err
from .center import DEFAULT_CLASS_CAP, product_classes
from .groups import group_from_json, group_from_table, resolve_group
from .kernels import BACKEND
from .partial import class_size_partial, enumerate_partial_class, semigroup_order
from .shifted import verify_theorem71
from .universal import (
    k_vector, structure_polynomial, structure_polynomials, verify_polynomiality)
from .wreath import (
    PartitionFamily, class_order, families_of_size, families_up_to, family_count)

_FORMATS = ("json", "csv", "latex")
_DEFAULTS = {
    "group": "trivial",
    "format": "json",
    "seed": 0,
    "workers": 1,
    "cap_class_size": DEFAULT_CLASS_CAP,
    "max_n": 255,
    "max_total_size": 12,
    "tolerance": 1e-6,
}


class UsageError(Exception):
    pass


class RunConfig:
    __slots__ = tuple(_DEFAULTS)

    def __init__(self, **kw):
        merged = dict(_DEFAULTS)
        merged.update({k: v for k, v in kw.items() if v is not None})
        for k, v in merged.items():
            setattr(self, k, v)
        if self.format not in _FORMATS:
            raise UsageError(f"format must be one of {_FORMATS}")
        for k in ("workers", "cap_class_size", "max_n", "max_total_size"):
            if not isinstance(getattr(self, k), int) or getattr(self, k) < 1:
                raise UsageError(f"{k} must be a positive integer")
        if not 0 < self.tolerance <= 1e-3:
            raise UsageError("tolerance must lie in (0, 1e-3]")


def _load_env_config():
    path = os.environ.get("WREATH_CENTERS_CONFIG")
    if not path:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(obj) - set(_DEFAULTS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return obj


def _resolve(cfg):
    spec = cfg.group
    try:
        if isinstance(spec, dict):
            return group_from_json(spec)
        return resolve_group(spec)
    except json.JSONDecodeError as exc:
        raise UsageError(f"group file is not valid JSON: {exc}")
    except (err.UnsupportedSpec, err.NotAssociative, err.NoIdentity,
            err.NotBijectiveRow, err.DiagonalizationFailed,
            ValueError, TypeError) as exc:
        raise UsageError(f"bad group spec: {exc}")


def _parse_family(text, G, what):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--{what}: not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise UsageError(f"--{what}: family must be a JSON object")
    items = {}
    for key, parts in obj.items():
        try:
            idx = int(key)
        except ValueError:
            raise UsageError(f"--{what}: class id {key!r} is not an integer")
        if not 0 <= idx < G.num_classes:
            raise UsageError(
                f"--{what}: class id {idx} out of range "
                f"(group has {G.num_classes} classes)")
        if not isinstance(parts, list) or not all(
                isinstance(p, int) and p >= 1 for p in parts):
            raise UsageError(f"--{what}: parts for class {idx} must be "
                             "a list of positive integers")
        items[idx] = tuple(parts)
    return PartitionFamily(items)


def _clean(obj):
    # fixed-precision floats and stringified rationals keep repeated
    # runs byte-identical
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [float(f"{obj.real:.12g}"), float(f"{obj.imag:.12g}")]
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _emit_json(payload):
    sys.stdout.write(json.dumps(_clean(payload), indent=2) + "\n")


def _emit_csv(rows, header):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([json.dumps(_clean(v), separators=(",", ":"))
                    if isinstance(v, (dict, list)) else v for v in row])
    sys.stdout.write(buf.getvalue())


def _fam_latex(fam):
    if not fam.entries:
        return r"\emptyset"
    bits = []
    for i, parts in fam.entries:
        body = ",".join(str(p) for p in parts)
        bits.append("(%s)^{%d}" % (body, i))
    return r" \cup ".join(bits)


# ---------------------------------------------------------------- commands

def cmd_group_info(G, cfg, args):
    chars = G.character_table()
    k = len(chars.rows)
    payload = {
        "group": args.group_label,
        "order": G.order,
        "classes": [
            {"id": c, "size": len(G.classes[c]), "centralizer": G.xi[c],
             "members": list(G.classes[c])}
            for c in range(G.num_classes)
        ],
        "characters": {
            "degrees": list(chars.degrees),
            "rows": [[v for v in row] for row in chars.rows],
            "orthogonality_residual": chars.residual,
        },
        "backend": BACKEND,
    }
    if cfg.format == "csv":
        _emit_csv([(c["id"], c["size"], c["centralizer"],
                    " ".join(map(str, c["members"])))
                   for c in payload["classes"]],
                  ["class", "size", "centralizer", "members"])
    elif cfg.format == "latex":
        lines = [r"\begin{array}{c|%s}" % ("c" * k)]
        lines.append(" & ".join(
            [r"\chi"] + [f"c_{c}" for c in range(k)]) + r" \\ \hline")
        for i, row in enumerate(chars.rows):
            vals = " & ".join(_cx_latex(v) for v in row)
            lines.append(f"\\gamma_{i} & {vals} \\\\")
        lines.append(r"\end{array}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit_json(payload)
    return 0


def _cx_latex(v):
    if abs(v.imag) < 1e-9:
        r = v.real
        return str(round(r)) if abs(r - round(r)) < 1e-9 else f"{r:.6g}"
    return f"{v.real:.4g}{v.imag:+.4g}i"


def _cap_listing(count, n, cfg):
    """classes and enumerate-partial list every family, each row weighing
    n; refuse a listing heavier than --cap-class-size before it starts."""
    if count * max(n, 1) > cfg.cap_class_size:
        raise err.CapExceeded(
            f"the listing reaches {count} families of size up to {n}, "
            f"weight {count * max(n, 1)}, above the cap "
            f"{cfg.cap_class_size}; raise --cap-class-size")


def cmd_classes(G, cfg, args):
    n = args.n
    if n > cfg.max_n:
        raise err.CapExceeded(f"n={n} exceeds the configured max_n={cfg.max_n}")
    _cap_listing(family_count(n, G.num_classes), n, cfg)
    rows = []
    total = 0
    for fam in families_of_size(n, G.num_classes):
        z, size = class_order(fam, G)
        rows.append({"family": fam.to_json(), "Z": z, "size": size})
        total += size
    expected = G.order ** n
    for i in range(2, n + 1):
        expected *= i
    payload = {"group": args.group_label, "n": n, "count": len(rows),
               "classes": rows,
               "checksum": {"sum": total, "expected": expected,
                            "ok": total == expected}}
    if cfg.format == "csv":
        _emit_csv([(r["family"], r["Z"], r["size"]) for r in rows],
                  ["family", "Z", "class_size"])
    elif cfg.format == "latex":
        lines = [r"\begin{array}{l|r|r}",
                 r"\Lambda & Z_\Lambda & |C_\Lambda| \\ \hline"]
        for r in rows:
            fam = PartitionFamily.from_json(r["family"])
            lines.append(f"{_fam_latex(fam)} & {r['Z']} & {r['size']} \\\\")
        lines.append(r"\end{array}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit_json(payload)
    return 0 if payload["checksum"]["ok"] else 1


def cmd_ccoeff(G, cfg, args):
    n = args.n
    if n > cfg.max_n:
        raise err.CapExceeded(f"n={n} exceeds the configured max_n={cfg.max_n}")
    # families below size n are padded with fixed identity-labeled
    # points, matching how class sums are written for stable n
    lam = _parse_family(args.lam, G, "lam").pad(n)
    delta = _parse_family(args.delta, G, "del").pad(n)
    vec = product_classes(lam, delta, n, G, cap=cfg.cap_class_size)
    mass = 0
    terms = []
    for gam, c in vec.items():
        size = class_order(gam, G)[1]
        mass += c * size
        terms.append({"gamma": gam.to_json(), "coeff": c})
    product = class_order(lam, G)[1] * class_order(delta, G)[1]
    payload = {"group": args.group_label, "n": n,
               "lam": lam.to_json(), "del": delta.to_json(),
               "expansion": terms,
               "mass": {"sum": mass, "product": product,
                        "ok": mass == product}}
    if args.gam is not None:
        gam = _parse_family(args.gam, G, "gam").pad(n)
        payload["coeff"] = vec.coeff(gam)
    if cfg.format == "csv":
        _emit_csv([(t["gamma"], t["coeff"]) for t in terms],
                  ["gamma", "coeff"])
    elif cfg.format == "latex":
        bits = [("%d \\, C_{%s}" % (t["coeff"],
                 _fam_latex(PartitionFamily.from_json(t["gamma"]))))
                for t in terms]
        sys.stdout.write(
            "C_{%s} \\cdot C_{%s} = %s\n"
            % (_fam_latex(lam), _fam_latex(delta),
               " + ".join(bits) if bits else "0"))
    else:
        _emit_json(payload)
    return 0 if payload["mass"]["ok"] else 1


def _k_pair(G, cfg, args):
    """--lam/--del of kcoeff and poly, refused before anything streams:
    k_vector streams the smaller class at N = |lam|+|del|."""
    lam = _parse_family(args.lam, G, "lam")
    delta = _parse_family(args.delta, G, "del")
    top = lam.size + delta.size
    if top > cfg.max_total_size:
        raise err.CapExceeded(
            f"|lam|+|del|={top} exceeds max_total_size={cfg.max_total_size}")
    streamed = min(class_size_partial(lam, top, G),
                   class_size_partial(delta, top, G))
    if streamed > cfg.cap_class_size:
        raise err.CapExceeded(
            f"streamed class has {streamed} elements, above the cap "
            f"{cfg.cap_class_size}; raise --cap-class-size")
    return lam, delta


def cmd_kcoeff(G, cfg, args):
    lam, delta = _k_pair(G, cfg, args)
    gam = None if args.gam is None else _parse_family(args.gam, G, "gam")
    kvec = k_vector(lam, delta, G)
    payload = {"group": args.group_label,
               "lam": lam.to_json(), "del": delta.to_json()}
    if gam is not None:
        payload["gamma"] = gam.to_json()
        payload["k"] = kvec.get(gam, 0)
    else:
        payload["kvec"] = [{"gamma": g.to_json(), "k": k}
                           for g, k in kvec.items()]
    if cfg.format == "csv":
        rows = ([(payload["gamma"], payload["k"])] if args.gam is not None
                else [(t["gamma"], t["k"]) for t in payload["kvec"]])
        _emit_csv(rows, ["gamma", "k"])
    elif cfg.format == "latex":
        if args.gam is not None:
            sys.stdout.write(
                "k_{%s, %s}^{%s} = %d\n"
                % (_fam_latex(lam), _fam_latex(delta),
                   _fam_latex(PartitionFamily.from_json(payload["gamma"])),
                   payload["k"]))
        else:
            for t in payload["kvec"]:
                sys.stdout.write(
                    "k^{%s} = %d\n"
                    % (_fam_latex(PartitionFamily.from_json(t["gamma"])),
                       t["k"]))
    else:
        _emit_json(payload)
    return 0


def cmd_poly(G, cfg, args):
    lam, delta = _k_pair(G, cfg, args)
    if args.gam is not None:
        polys = [structure_polynomial(
            lam, delta, _parse_family(args.gam, G, "gam"), G)]
    else:
        polys = list(structure_polynomials(lam, delta, G).values())
    payload = {"group": args.group_label,
               "lam": lam.to_json(), "del": delta.to_json(),
               "polynomials": [p.to_json() for p in polys]}
    if cfg.format == "csv":
        _emit_csv([(p.gamma.to_json(), p.degree,
                    json.dumps({str(j): k for j, k in
                                sorted(p.binom_coeffs.items())},
                               separators=(",", ":")),
                    p.latex()) for p in polys],
                  ["gamma", "degree", "binomial", "latex"])
    elif cfg.format == "latex":
        for p in polys:
            sys.stdout.write("c_{%s,%s}^{%s}(n) = %s\n"
                             % (_fam_latex(lam), _fam_latex(delta),
                                _fam_latex(p.gamma), p.latex()))
    else:
        _emit_json(payload)
    return 0


def _verify_pair(job):
    # worker-side: rebuild the group from its table, sweep one pair
    mul, lam_json, del_json, n_max, cap = job
    G = group_from_table(mul)
    lam = PartitionFamily.from_json(lam_json)
    delta = PartitionFamily.from_json(del_json)
    # every proper target, zeros included, so a polynomial missing
    # from structure_polynomials shows up as a mismatch
    gams = [g for g in families_up_to(lam.size + delta.size, G.num_classes)
            if g.is_proper()]
    polys = structure_polynomials(lam, delta, G)
    checked = 0
    bad = []
    for n in range(max(lam.size, delta.size), n_max + 1):
        vec = product_classes(lam.pad(n), delta.pad(n), n, G, cap=cap)
        for g in gams:
            if g.size > n:
                continue
            predicted = polys[g].evaluate(n) if g in polys else 0
            direct = vec.coeff(g.pad(n))
            checked += 1
            if predicted != direct:
                bad.append({"lam": lam.to_json(), "del": delta.to_json(),
                            "gamma": g.to_json(), "n": n,
                            "predicted": predicted, "direct": direct})
    return checked, bad


def cmd_verify_poly(G, cfg, args):
    n_max = args.n if args.n is not None else 6
    if n_max > cfg.max_n:
        raise err.CapExceeded(f"n={n_max} exceeds max_n={cfg.max_n}")
    if args.lam is not None or args.delta is not None or args.gam is not None:
        if not (args.lam and args.delta and args.gam):
            raise UsageError(
                "verify-poly takes either no families or all of "
                "--lam/--del/--gam")
        lam = _parse_family(args.lam, G, "lam")
        delta = _parse_family(args.delta, G, "del")
        gam = _parse_family(args.gam, G, "gam")
        lo = max(lam.size, delta.size, gam.size)
        report = verify_polynomiality(lam, delta, gam, G,
                                      range(lo, max(lo, n_max) + 1),
                                      cap=cfg.cap_class_size)
        payload = {"group": args.group_label, "mode": "single",
                   "polynomial": report["polynomial"],
                   "rows": report["rows"], "pass": report["all_match"]}
        ok = report["all_match"]
    else:
        size_cap = args.size_cap
        if 2 * size_cap > cfg.max_total_size:
            raise err.CapExceeded(
                f"2*size_cap={2 * size_cap} exceeds "
                f"max_total_size={cfg.max_total_size}")
        proper = [f for f in families_up_to(size_cap, G.num_classes)
                  if f.is_proper()]
        pairs = [(a, b) for i, a in enumerate(proper) for b in proper[i:]]
        if args.samples is not None:
            pairs = pairs[:args.samples]
        jobs = [(G.mul, a.to_json(), b.to_json(), n_max, cfg.cap_class_size)
                for a, b in pairs]
        checked = 0
        mismatches = []
        if cfg.workers > 1:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                for c, bad in pool.map(_verify_pair, jobs):
                    checked += c
                    mismatches.extend(bad)
        else:
            for job in jobs:
                c, bad = _verify_pair(job)
                checked += c
                mismatches.extend(bad)
        ok = not mismatches
        payload = {"group": args.group_label, "mode": "sweep",
                   "size_cap": size_cap, "n_max": n_max,
                   "pairs": len(pairs), "checked": checked,
                   "mismatches": mismatches, "pass": ok}
    if cfg.format == "csv":
        if payload["mode"] == "single":
            _emit_csv([(r["n"], r["predicted"], r["direct"], r["match"])
                       for r in payload["rows"]],
                      ["n", "predicted", "direct", "match"])
        else:
            _emit_csv([(m["lam"], m["del"], m["gamma"], m["n"],
                        m["predicted"], m["direct"])
                       for m in payload["mismatches"]],
                      ["lam", "del", "gamma", "n", "predicted", "direct"])
    elif cfg.format == "latex":
        sys.stdout.write("\\text{%s}\n"
                         % ("all checks passed" if ok else "MISMATCH"))
    else:
        _emit_json(payload)
    return 0 if ok else 1


def cmd_verify_iso(G, cfg, args):
    if 2 * args.size_cap > cfg.max_total_size:
        raise err.CapExceeded(
            f"2*size_cap={2 * args.size_cap} exceeds "
            f"max_total_size={cfg.max_total_size}")
    rows = verify_theorem71(G, size_cap=args.size_cap, samples=args.samples,
                            point_size=args.point_size,
                            point_cap=args.point_cap, tol=cfg.tolerance)
    ok = all(r["pass"] for r in rows)
    npass = sum(1 for r in rows if r["pass"])
    sys.stderr.write(f"{npass}/{len(rows)} checks passed\n")
    if cfg.format == "csv":
        _emit_csv([(r["check"], r["input"], r["lhs"], r["rhs"],
                    r["pass"], r["abs_err"]) for r in rows],
                  ["check", "input", "lhs", "rhs", "pass", "abs_err"])
    elif cfg.format == "latex":
        sys.stdout.write("\\text{%d/%d evaluation checks passed}\n"
                         % (npass, len(rows)))
    else:
        _emit_json(rows)
    return 0 if ok else 1


def cmd_enumerate_partial(G, cfg, args):
    n = args.n
    if n > cfg.max_n:
        raise err.CapExceeded(f"n={n} exceeds max_n={cfg.max_n}")
    if args.lam is not None:
        lam = _parse_family(args.lam, G, "lam")
        expected = class_size_partial(lam, n, G)
        if expected > cfg.cap_class_size:
            raise err.CapExceeded(
                f"class has {expected} elements, above the cap "
                f"{cfg.cap_class_size}; raise --cap-class-size")
        elems = list(enumerate_partial_class(lam, n, G))
        payload = {"group": args.group_label, "n": n,
                   "family": lam.to_json(),
                   "count": len(elems), "count_formula": expected,
                   "ok": len(elems) == expected,
                   "elements": [e.to_json() for e in elems]}
        rows = [(json.dumps(e["support"], separators=(",", ":")),
                 json.dumps(e["omega"], separators=(",", ":")),
                 json.dumps(e["labels"], separators=(",", ":")))
                for e in payload["elements"]]
        header = ["support", "omega", "labels"]
    else:
        # size by size, so a large n stops as soon as the cap is passed
        count = 0
        for size in range(n + 1):
            count += family_count(size, G.num_classes)
            _cap_listing(count, n, cfg)
        fams = []
        total = 0
        for fam in families_up_to(n, G.num_classes):
            cnt = class_size_partial(fam, n, G)
            fams.append({"family": fam.to_json(), "count": cnt})
            total += cnt
        formula = semigroup_order(n, G)
        payload = {"group": args.group_label, "n": n,
                   "total": total, "total_formula": formula,
                   "ok": total == formula, "families": fams}
        rows = [(f["family"], f["count"]) for f in fams]
        header = ["family", "count"]
    if cfg.format == "csv":
        _emit_csv(rows, header)
    elif cfg.format == "latex":
        sys.stdout.write("|\\mathfrak{P}^G_{%d}| = %d\n"
                         % (n, payload.get("total",
                                           payload.get("count", 0))))
    else:
        _emit_json(payload)
    return 0 if payload["ok"] else 1


# ---------------------------------------------------------------- driver

def _add_common(parser, suppress):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--group", default=d,
                        help="builtin spec (trivial, cyclic:k, sym:k, "
                             "dihedral:k) or path to a JSON table file")
    parser.add_argument("--format", default=d, choices=_FORMATS)
    parser.add_argument("--seed", type=int, default=d)
    parser.add_argument("--workers", type=int, default=d)
    parser.add_argument("--cap-class-size", type=int, default=d,
                        dest="cap_class_size")
    parser.add_argument("--tolerance", type=float, default=d)


def build_parser():
    p = argparse.ArgumentParser(
        prog="wreath-centers",
        description="Exact structure constants for centers of wreath "
                    "product group algebras.")
    _add_common(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        _add_common(sp, suppress=True)
        sp.set_defaults(fn=fn)
        return sp

    add("group-info", cmd_group_info,
        help="order, classes, character table")

    sp = add("classes", cmd_classes, help="conjugacy classes of G wr S_n")
    sp.add_argument("--n", type=int, required=True)

    sp = add("ccoeff", cmd_ccoeff,
             help="expand a product of class sums in Z(C[G wr S_n])")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lam", required=True)
    sp.add_argument("--del", dest="delta", required=True)
    sp.add_argument("--gam")

    sp = add("kcoeff", cmd_kcoeff,
             help="n-independent structure constants of the partial "
                  "permutation algebra")
    sp.add_argument("--lam", required=True)
    sp.add_argument("--del", dest="delta", required=True)
    sp.add_argument("--gam")

    sp = add("poly", cmd_poly,
             help="structure coefficients as polynomials in n")
    sp.add_argument("--lam", required=True)
    sp.add_argument("--del", dest="delta", required=True)
    sp.add_argument("--gam")

    sp = add("verify-poly", cmd_verify_poly,
             help="check predicted polynomials against direct center "
                  "computations")
    sp.add_argument("--lam")
    sp.add_argument("--del", dest="delta")
    sp.add_argument("--gam")
    sp.add_argument("--n", type=int, help="largest n to check (default 6)")
    sp.add_argument("--size-cap", type=int, default=3, dest="size_cap")
    sp.add_argument("--samples", type=int)

    sp = add("verify-iso", cmd_verify_iso,
             help="pointwise checks of the shifted symmetric function "
                  "isomorphism")
    sp.add_argument("--size-cap", type=int, default=2, dest="size_cap")
    sp.add_argument("--point-size", type=int, default=7, dest="point_size")
    sp.add_argument("--point-cap", type=int, default=200, dest="point_cap")
    sp.add_argument("--samples", type=int)

    sp = add("enumerate-partial", cmd_enumerate_partial,
             help="G-labeled partial permutations of [n] by type")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lam")

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        env = _load_env_config()
        flags = {k: getattr(args, k, None) for k in _DEFAULTS}
        merged = dict(env)
        merged.update({k: v for k, v in flags.items() if v is not None})
        cfg = RunConfig(**merged)
        args.group_label = cfg.group if isinstance(cfg.group, str) else "file"
        args.group = cfg.group
        G = _resolve(cfg)
        return args.fn(G, cfg, args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except err.NotProper as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (err.SizeMismatch, err.PadTooSmall, err.SupportExceedsN) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (err.CapExceeded, err.GuardrailExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 5
    except err.WreathCentersError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 6


if __name__ == "__main__":
    sys.exit(main())
