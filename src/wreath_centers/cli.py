"""Command line front end.

Every computation is reachable as a subcommand.  Each cmd_* returns its
payload, and main emits it once, in JSON, CSV or LaTeX, through the
views build_parser declares beside the subcommand; a list payload may be
an iterator, written as its items come.  JSON output is
json.dumps(payload, indent=2), deterministic byte-for-byte for identical
inputs: fixed key order, and floats rounded to 12 significant digits by
the code that builds each payload, which holds only JSON-native values.
Families are passed as JSON objects keyed by class id, e.g.
'{"0": [2], "1": [1, 1]}'; run group-info to see the class ids.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections import Counter
from itertools import accumulate, islice
from json.encoder import encode_basestring_ascii

from . import errors as err
from .center import DEFAULT_CLASS_CAP, product_classes
from .groups import group_from_json, resolve_group
from .kernels import _MAX_N, BACKEND
from .partial import class_size_partial, enumerate_partial_class, semigroup_order
from .shifted import verify_theorem71
from .universal import (
    k_stream_size, k_vector, polynomiality_checks, structure_polynomial,
    structure_polynomials)
from .wreath import (
    PartitionFamily, class_order, families_of_size, families_up_to, family_count)

_FORMATS = ("json", "csv", "latex")
_DEFAULTS = {
    "group": "trivial",
    "format": "json",
    "cap_class_size": DEFAULT_CLASS_CAP,
}
# the largest |lam|+|del| of a pair, and 2 * --size-cap of a sweep
_MAX_TOTAL_SIZE = 12


class UsageError(Exception):
    pass


def _count(text):
    """type= of the count options: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, not {value}")
    return value


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


def _fill_settings(args):
    """Fill each setting the command line left out into args, first from
    the WREATH_CENTERS_CONFIG file (where null means the default), then
    from _DEFAULTS, and validate the settings once."""
    env = _load_env_config()
    for key, default in _DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, default if env.get(key) is None else env[key])
    if args.format not in _FORMATS:
        raise UsageError(f"format must be one of {_FORMATS}")
    if type(args.cap_class_size) is not int or args.cap_class_size < 1:
        raise UsageError("cap_class_size must be a positive integer")
    if not isinstance(args.group, (str, dict)):
        raise UsageError("group must be a spec string or a table object")
    args.group_label = args.group if isinstance(args.group, str) else "file"


def _resolve(spec):
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
        # an object loads as its (key, value) pairs: no repeat is lost
        obj = json.loads(text, object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--{what}: not valid JSON: {exc}")
    if not isinstance(obj, tuple):
        raise UsageError(f"--{what}: family must be a JSON object")
    items = {}
    for key, parts in obj:
        try:
            idx = int(key)
        except ValueError:
            raise UsageError(f"--{what}: class id {key!r} is not an integer")
        if not 0 <= idx < G.num_classes:
            raise UsageError(
                f"--{what}: class id {idx} out of range "
                f"(group has {G.num_classes} classes)")
        if idx in items:
            raise UsageError(f"--{what}: class id {idx} given twice")
        if not isinstance(parts, list) or not all(
                type(p) is int and p >= 1 for p in parts):
            raise UsageError(f"--{what}: parts for class {idx} must be "
                             "a list of positive integers")
        items[idx] = tuple(parts)
    return PartitionFamily(items)


def _g12(x):
    """x rounded to 12 significant digits, so that float noise below
    them does not reach the output."""
    return float(f"{x:.12g}")


def _json_float(x):
    # the standard library's spellings, allow_nan being on
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# the builtin encoder of each leaf type, looked up by exact type
_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_key(key):
    """A dict key as json.dumps writes it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    for cls in (float, bool, type(None), int):
        if isinstance(key, cls):
            return '"' + _JSON_LEAVES[cls](key) + '"'
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_text(payload):
    """json.dumps(payload, indent=2), byte for byte.

    The standard library encodes an indented payload in pure Python; here
    each leaf goes through a builtin routine, and a dict or list met again
    at the same indent level reuses its encoding: payloads share
    sub-objects (a sweep's rows share their family dicts), and the payload
    keeps every object alive, so (id, indent) names one encoding for the
    length of the call.  The first meeting only marks the key, and the
    second keeps the string, so containers met once (the rows themselves)
    are freed as soon as their parent has joined them.
    A value that is not JSON-native raises TypeError, as json.dumps does.
    """
    return _json_value(payload, 0, {})


def _json_value(o, ind, memo):
    leaf = _JSON_LEAVES.get(type(o))
    if leaf is not None:
        return leaf(o)
    if isinstance(o, (dict, list, tuple)):
        # (id, indent) packed in one int, as indent < 2**32: a tuple key
        # per container adds a fifth of the output to the verify-iso peak
        key = id(o) << 32 | ind
        hit = memo.get(key)
        if hit:
            return hit[0]
        text = _json_container(o, ind, memo)
        # "" marks a first meeting; the second keeps the string with the
        # container itself, whose id then stays its own while the memo
        # holds it
        memo[key] = "" if hit is None else (text, o)
        return text
    # subclasses of the leaf types, in the order json.dumps tests them
    for cls in (str, int, float):
        if isinstance(o, cls):
            return _JSON_LEAVES[cls](o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    "is not JSON serializable")


def _json_container(o, ind, memo):
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = ind + 2
    leaves = _JSON_LEAVES
    comma = ",\n" + " " * inner
    # one flat join: the pieces and the result are the only copies held
    pieces = []
    if isinstance(o, dict):
        for k, v in o.items():
            leaf = leaves.get(type(v))
            pieces += (comma,
                       encode_basestring_ascii(k) if type(k) is str
                       else _json_key(k),
                       ": ",
                       leaf(v) if leaf is not None
                       else _json_value(v, inner, memo))
        opening, closing = "{", "}"
    else:
        for v in o:
            leaf = leaves.get(type(v))
            pieces += (comma,
                       leaf(v) if leaf is not None
                       else _json_value(v, inner, memo))
        opening, closing = "[", "]"
    pieces[0] = opening + comma[1:]
    pieces.append("\n" + " " * ind + closing)
    return "".join(pieces)


# items of a streamed list encoded and written at a time
_CHUNK = 256


def _emit_json(payload):
    """Write json.dumps(payload, indent=2) and a newline.  A dict is
    encoded whole.  A list, or an iterator of a list's items, is written
    _CHUNK items at a time, and the items already written can be freed.
    A freed item's id, and those of its parts, may come back on a later
    item, so the memo forgets its first-meeting marks before each chunk
    goes; what it keeps holds its container, whose id stays its own."""
    write = sys.stdout.write
    if isinstance(payload, dict):
        write(_json_text(payload))
        write("\n")
        return
    items = iter(payload)
    memo = {}
    sep = "[\n  "
    while True:
        chunk = list(islice(items, _CHUNK))
        if not chunk:
            break
        write(sep)
        write(",\n  ".join([_json_value(o, 2, memo) for o in chunk]))
        sep = ",\n  "
        memo = {key: hit for key, hit in memo.items() if hit}
        # gone before the next chunk is drawn, so only one is ever held
        del chunk
    write("[]\n" if sep == "[\n  " else "\n]\n")


def _emit(payload, args):
    """Write a command's payload to stdout in args.format: JSON as it is,
    CSV and LaTeX through the views build_parser declared for the command."""
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        header, rows = args.views["csv"](payload)
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows([json.dumps(v, separators=(",", ":"))
                     if isinstance(v, (dict, list)) else v for v in row]
                    for row in rows)
    else:
        sys.stdout.write("".join(line + "\n"
                                 for line in args.views["latex"](payload)))


def _columns(*tables):
    """A CSV view declared as columns.  Each table is (key, *fields), and
    the first whose key the payload holds gives one row per entry of
    payload[key]; key None lists the payload itself, a list of entries
    or one entry.  A field is an entry key, or a (header, entry key) pair."""
    def view(payload):
        for key, *fields in tables:
            if key is None or key in payload:
                break
        if key is not None:
            entries = payload[key]
        else:
            entries = [payload] if isinstance(payload, dict) else payload
        names = [f if isinstance(f, str) else f[1] for f in fields]
        return ([f if isinstance(f, str) else f[0] for f in fields],
                ([e[name] for name in names] for e in entries))
    return view


def _fam_latex(fam):
    """A family's JSON object, {class id: parts}, in LaTeX."""
    if not fam:
        return r"\emptyset"
    return r" \cup ".join("(%s)^{%s}" % (",".join(map(str, parts)), i)
                           for i, parts in fam.items())


def _cx_latex(value):
    real, imag = value
    if abs(imag) < 1e-9:
        return (str(round(real)) if abs(real - round(real)) < 1e-9
                else f"{real:.6g}")
    return f"{real:.4g}{imag:+.4g}i"


def _group_info_latex(payload):
    rows = payload["characters"]["rows"]
    k = len(rows)
    return ([r"\begin{array}{c|%s}" % ("c" * k),
             " & ".join([r"\chi"] + [f"c_{c}" for c in range(k)])
             + r" \\ \hline"]
            + [f"\\gamma_{i} & {' & '.join(map(_cx_latex, row))} \\\\"
               for i, row in enumerate(rows)]
            + [r"\end{array}"])


def _iso_latex(rows):
    passed = Counter(r["pass"] for r in rows)
    return ["\\text{%d/%d evaluation checks passed}" % (
        passed[True], passed.total())]


# ---------------------------------------------------------------- commands
#
# Each cmd_* returns (payload, ok): the payload holds only JSON-native
# values, and ok False makes the exit code 1.  A command whose payload
# streams gives ok as a function, which main calls once the payload is
# written.

def cmd_group_info(G, args):
    chars = G.character_table()
    return {
        "group": args.group_label,
        "order": G.order,
        "classes": [
            {"id": c, "size": len(G.classes[c]), "centralizer": G.xi[c],
             "members": list(G.classes[c])}
            for c in range(G.num_classes)
        ],
        "characters": {
            "degrees": list(chars.degrees),
            "rows": [[[_g12(v.real), _g12(v.imag)] for v in row]
                     for row in chars.rows],
            # the table is checked exactly, so nothing is left over
            "orthogonality_residual": 0.0,
        },
        "backend": BACKEND,
    }, True


def _cap(weight, what, args):
    """Refuse, before it starts, work that weighs more than
    --cap-class-size; what says what weighs weight."""
    if weight > args.cap_class_size:
        raise err.CapExceeded(f"{what}, above the cap {args.cap_class_size}; "
                              "raise --cap-class-size")


def _cap_total(what, total):
    """Refuse a pair of families of total size above _MAX_TOTAL_SIZE."""
    if total > _MAX_TOTAL_SIZE:
        raise err.CapExceeded(
            f"{what}={total} exceeds the limit {_MAX_TOTAL_SIZE}")


def _cap_listing(count, n, args):
    """classes and enumerate-partial list every family, each row weighing
    n; refuse a listing heavier than --cap-class-size before it starts."""
    weight = count * max(n, 1)
    _cap(weight, f"the listing reaches {count} families of size up to {n}, "
                 f"weight {weight}", args)


def cmd_classes(G, args):
    n = args.n
    _cap_listing(family_count(n, G.num_classes), n, args)
    rows = []
    total = 0
    for fam in families_of_size(n, G.num_classes):
        z, size = class_order(fam, G)
        rows.append({"family": fam.to_json(), "Z": z, "size": size})
        total += size
    expected = G.order ** n
    for i in range(2, n + 1):
        expected *= i
    return {"group": args.group_label, "n": n, "count": len(rows),
            "classes": rows,
            "checksum": {"sum": total, "expected": expected,
                         "ok": total == expected}}, total == expected


def cmd_ccoeff(G, args):
    n = args.n
    # families below size n are padded with fixed identity-labeled
    # points, matching how class sums are written for stable n
    lam = _parse_family(args.lam, G, "lam").pad(n)
    delta = _parse_family(args.delta, G, "del").pad(n)
    vec = product_classes(lam, delta, n, G, cap=args.cap_class_size)
    mass = vec.mass(G)
    product = class_order(lam, G)[1] * class_order(delta, G)[1]
    payload = {"group": args.group_label, "n": n,
               "lam": lam.to_json(), "del": delta.to_json(),
               "expansion": vec.to_json(),
               "mass": {"sum": mass, "product": product,
                        "ok": mass == product}}
    if args.gam is not None:
        gam = _parse_family(args.gam, G, "gam").pad(n)
        payload["coeff"] = vec.coeff(gam)
    return payload, mass == product


def _k_pair(G, args):
    """--lam/--del of kcoeff, poly and single-mode verify-poly, refused
    before anything streams when the smaller k_stream_size of the two
    sides is above the cap."""
    lam = _parse_family(args.lam, G, "lam")
    delta = _parse_family(args.delta, G, "del")
    _cap_total("|lam|+|del|", lam.size + delta.size)
    weight = min(k_stream_size(lam, delta, G), k_stream_size(delta, lam, G))
    _cap(weight, f"the pair weighs {weight} by k_stream_size", args)
    return lam, delta


def cmd_kcoeff(G, args):
    lam, delta = _k_pair(G, args)
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
    return payload, True


def cmd_poly(G, args):
    lam, delta = _k_pair(G, args)
    if args.gam is not None:
        polys = [structure_polynomial(
            lam, delta, _parse_family(args.gam, G, "gam"), G)]
    else:
        polys = list(structure_polynomials(lam, delta, G).values())
    return {"group": args.group_label,
            "lam": lam.to_json(), "del": delta.to_json(),
            "polynomials": [p.to_json() for p in polys]}, True


@functools.lru_cache(maxsize=16)
def _proper_targets(top, ncls):
    """Every proper family of size up to top over ncls classes, in
    families_up_to order, and ends[s], how many of them have size <= s;
    the pairs of a sweep share them by total size."""
    return (tuple(g for g in families_up_to(top, ncls) if g.is_proper()),
            list(accumulate(_proper_counts(ncls, top))))


def cmd_verify_poly(G, args):
    n_max = args.n
    if args.lam is not None or args.delta is not None or args.gam is not None:
        if not (args.lam and args.delta and args.gam):
            raise UsageError(
                "verify-poly takes either no families or all of "
                "--lam/--del/--gam")
        lam, delta = _k_pair(G, args)
        gam = _parse_family(args.gam, G, "gam")
        poly = structure_polynomial(lam, delta, gam, G)
        rows = []  # n from poly.min_n = max(|lam|, |del|, |gam|)
        for n, predicted, direct in polynomiality_checks(
                lam, delta, G, range(poly.min_n, max(poly.min_n, n_max) + 1),
                args.cap_class_size):
            p, d = predicted.get(gam, 0), direct.get(gam, 0)
            rows.append({"n": n, "predicted": p, "direct": d, "match": p == d})
        payload = {"group": args.group_label, "mode": "single",
                   "polynomial": poly.to_json(), "rows": rows,
                   "pass": all(r["match"] for r in rows)}
    else:
        size_cap = args.size_cap
        _cap_total("2*size_cap", 2 * size_cap)
        checks = _poly_checks(G, args)
        weight = checks * max(n_max, 1)
        _cap(weight, f"verify-poly makes {checks} checks at n up to "
                     f"{n_max}, weight {weight}", args)
        proper = [f for f in families_up_to(size_cap, G.num_classes)
                  if f.is_proper()]
        pairs = [(a, b) for i, a in enumerate(proper) for b in proper[i:]]
        if args.samples is not None:
            pairs = pairs[:args.samples]
        checked = 0
        mismatches = []
        for a, b in pairs:
            # every proper target, zeros included, so a polynomial missing
            # from structure_polynomials shows up as a mismatch
            top = a.size + b.size
            gams, ends = _proper_targets(top, G.num_classes)
            ns = range(max(a.size, b.size), n_max + 1)
            for n, predicted, direct in polynomiality_checks(
                    a, b, G, ns, args.cap_class_size):
                within = ends[min(n, top)]
                checked += within
                if predicted == direct:
                    continue
                # only the targets name a check, so a key of direct that
                # none of them names makes no row
                for g in gams[:within]:
                    p, d = predicted.get(g, 0), direct.get(g, 0)
                    if p != d:
                        mismatches.append({
                            "lam": a.to_json(), "del": b.to_json(),
                            "gamma": g.to_json(), "n": n,
                            "predicted": p, "direct": d})
        payload = {"group": args.group_label, "mode": "sweep",
                   "size_cap": size_cap, "n_max": n_max,
                   "pairs": len(pairs), "checked": checked,
                   "mismatches": mismatches, "pass": not mismatches}
    return payload, payload["pass"]


def _proper_counts(k, size_cap):
    """How many proper families (no 1-parts at the identity class) of
    each size 0..size_cap there are over k classes."""
    return [sum((family_count(j, 1) - family_count(j - 1, 1))
                * family_count(m - j, k - 1) for j in range(m + 1))
            for m in range(size_cap + 1)]


def _sweep_checks(proper, samples, weight):
    """Sum of weight(|a|, |b|) over the pairs (a, b) of proper families
    a sweep visits, b at or after a, with --samples applied; proper
    holds the family counts of _proper_counts.  In sweep order a runs
    through size m, and b through the rest of size m and then every
    larger size."""
    left = math.inf if samples is None else samples
    checks = 0
    for m, c in enumerate(proper):
        runs = [(proper[m2], weight(m, m2))
                for m2 in range(m + 1, len(proper))]
        same = c * (c + 1) // 2
        block = same + c * sum(n for n, _ in runs)
        if block <= left:
            checks += same * weight(m, m) + c * sum(n * w for n, w in runs)
            left -= block
        else:
            # --samples ends among these pairs: count them a by a
            for r in range(c):
                for n, w in [(c - r, weight(m, m))] + runs:
                    take = min(n, left)
                    checks += take * w
                    left -= take
                if not left:
                    break
            break
    return checks


def _poly_checks(G, args):
    """How many checks a verify-poly sweep makes, counted in closed
    form: a pair of sizes m <= m2 checks, at each n from m2 to --n,
    every proper family of size up to min(n, m + m2)."""
    k = G.num_classes
    proper = _proper_counts(k, 2 * args.size_cap)
    upto = list(accumulate(proper))

    def weight(m, m2):
        return sum(upto[min(n, m + m2)] for n in range(m2, args.n + 1))

    return _sweep_checks(proper[:args.size_cap + 1], args.samples, weight)


def _iso_checks(G, args):
    """How many checks verify_theorem71 makes, counted in closed form
    with --samples applied: one chain check per (delta, point) and one
    homomorphism check per (pair of proper families, point), a pair of
    total size s taking at most --point-cap points of size up to
    min(s + 1, --point-size)."""
    k = G.num_classes

    def upto(size):
        return sum(family_count(m, k) for m in range(size + 1))

    def points(m, m2):
        return min(args.point_cap, upto(min(m + m2 + 1, args.point_size)))

    chain = upto(args.size_cap)
    if args.samples is not None:
        chain = min(chain, args.samples)
    return (chain * upto(args.point_size)
            + _sweep_checks(_proper_counts(k, args.size_cap), args.samples,
                            points))


def cmd_verify_iso(G, args):
    _cap_total("2*size_cap", 2 * args.size_cap)
    checks = _iso_checks(G, args)
    weight = checks * max(args.point_size, 1)
    _cap(weight, f"verify-iso makes {checks} checks at points of size up "
                 f"to {args.point_size}, weight {weight}", args)
    rows = verify_theorem71(G, size_cap=args.size_cap, samples=args.samples,
                            point_size=args.point_size,
                            point_cap=args.point_cap)
    passed = Counter()

    def tallied():
        for r in rows:
            passed[r["pass"]] += 1
            yield r

    def ok():
        npass, total = passed[True], passed.total()
        sys.stderr.write(f"{npass}/{total} checks passed\n")
        return npass == total

    return tallied(), ok


def cmd_enumerate_partial(G, args):
    n = args.n
    if args.lam is not None:
        lam = _parse_family(args.lam, G, "lam")
        expected = class_size_partial(lam, n, G)
        _cap(expected, f"class has {expected} elements", args)
        elems = list(enumerate_partial_class(lam, n, G))
        payload = {"group": args.group_label, "n": n,
                   "family": lam.to_json(),
                   "count": len(elems), "count_formula": expected,
                   "ok": len(elems) == expected,
                   "elements": [e.to_json() for e in elems]}
    else:
        # size by size, so a large n stops as soon as the cap is passed
        count = 0
        for size in range(n + 1):
            count += family_count(size, G.num_classes)
            _cap_listing(count, n, args)
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
    return payload, payload["ok"]


# ---------------------------------------------------------------- driver

_EXIT_CODES = (
    (UsageError, 2),
    (err.NotProper, 3),
    ((err.SizeMismatch, err.PadTooSmall), 4),
    (err.CapExceeded, 5),
    (err.WreathCentersError, 6),
)


@functools.lru_cache(maxsize=1)
def build_parser():
    """The parser, built on the first call and then reused.  The global
    options are declared once, on a parent every parser shares, and
    default to absent, so they are accepted before and after the
    subcommand and _fill_settings sees which ones the command line set."""
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--group",
                        help="builtin spec (trivial, cyclic:k, sym:k, "
                             "dihedral:k) or path to a JSON table file")
    common.add_argument("--format", choices=_FORMATS)
    common.add_argument("--cap-class-size", type=int)

    p = argparse.ArgumentParser(
        prog="wreath-centers",
        description="Exact structure constants for centers of wreath "
                    "product group algebras.",
        parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help, csv, latex):
        """A subcommand, with CSV (header, rows) and LaTeX (lines) views."""
        sp = sub.add_parser(name, parents=[common], help=help)
        sp.set_defaults(fn=fn, views={"csv": csv, "latex": latex})
        return sp

    def add_families(sp, required):
        sp.add_argument("--lam", required=required)
        sp.add_argument("--del", dest="delta", required=required)
        sp.add_argument("--gam")

    add("group-info", cmd_group_info, "order, classes, character table",
        csv=lambda p: (["class", "size", "centralizer", "members"],
                       [(c["id"], c["size"], c["centralizer"],
                         " ".join(map(str, c["members"])))
                        for c in p["classes"]]),
        latex=_group_info_latex)

    sp = add("classes", cmd_classes, "conjugacy classes of G wr S_n",
             csv=_columns(("classes", "family", "Z", ("class_size", "size"))),
             latex=lambda p: (
                 [r"\begin{array}{l|r|r}",
                  r"\Lambda & Z_\Lambda & |C_\Lambda| \\ \hline"]
                 + [f"{_fam_latex(r['family'])} & {r['Z']} & {r['size']} \\\\"
                    for r in p["classes"]]
                 + [r"\end{array}"]))
    sp.add_argument("--n", type=_count, required=True)

    sp = add("ccoeff", cmd_ccoeff,
             "expand a product of class sums in Z(C[G wr S_n])",
             csv=_columns(("expansion", "gamma", "coeff")),
             latex=lambda p: ["C_{%s} \\cdot C_{%s} = %s" % (
                 _fam_latex(p["lam"]), _fam_latex(p["del"]),
                 " + ".join("%d \\, C_{%s}" % (t["coeff"],
                                               _fam_latex(t["gamma"]))
                            for t in p["expansion"]) or "0")])
    sp.add_argument("--n", type=_count, required=True)
    add_families(sp, required=True)

    add_families(add("kcoeff", cmd_kcoeff,
                     "n-independent structure constants of the partial "
                     "permutation algebra",
                     csv=_columns(("kvec", "gamma", "k"), (None, "gamma", "k")),
                     latex=lambda p: (
                         ["k_{%s, %s}^{%s} = %d" % (
                             _fam_latex(p["lam"]), _fam_latex(p["del"]),
                             _fam_latex(p["gamma"]), p["k"])]
                         if "k" in p else
                         ["k^{%s} = %d" % (_fam_latex(t["gamma"]), t["k"])
                          for t in p["kvec"]])),
                 required=True)

    add_families(add("poly", cmd_poly,
                     "structure coefficients as polynomials in n",
                     csv=_columns(("polynomials", "gamma", "degree",
                                   "binomial", "latex")),
                     latex=lambda p: [
                         "c_{%s,%s}^{%s}(n) = %s" % (
                             _fam_latex(p["lam"]), _fam_latex(p["del"]),
                             _fam_latex(q["gamma"]), q["latex"])
                         for q in p["polynomials"]]),
                 required=True)

    sp = add("verify-poly", cmd_verify_poly,
             "check predicted polynomials against direct center "
             "computations",
             csv=_columns(("rows", "n", "predicted", "direct", "match"),
                          ("mismatches", "lam", "del", "gamma", "n",
                           "predicted", "direct")),
             latex=lambda p: ["\\text{%s}" % ("all checks passed"
                                              if p["pass"] else "MISMATCH")])
    add_families(sp, required=False)
    sp.add_argument("--n", type=_count, default=6,
                    help="largest n to check (default 6)")
    sp.add_argument("--size-cap", type=_count, default=3)
    sp.add_argument("--samples", type=_count)

    sp = add("verify-iso", cmd_verify_iso,
             "pointwise checks of the shifted symmetric function "
             "isomorphism",
             csv=_columns((None, "check", "input", "lhs", "rhs", "pass")),
             latex=_iso_latex)
    sp.add_argument("--size-cap", type=_count, default=2)
    sp.add_argument("--point-size", type=_count, default=7)
    sp.add_argument("--point-cap", type=_count, default=200)
    sp.add_argument("--samples", type=_count)

    sp = add("enumerate-partial", cmd_enumerate_partial,
             "G-labeled partial permutations of [n] by type",
             csv=_columns(("elements", "support", "omega", "labels"),
                          ("families", "family", "count")),
             latex=lambda p: ["|\\mathfrak{P}^G_{%d}| = %d" % (
                 p["n"], p.get("total", p.get("count", 0)))])
    sp.add_argument("--n", type=_count, required=True)
    sp.add_argument("--lam")

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _fill_settings(args)
        G = _resolve(args.group)
        n = getattr(args, "n", None)
        if n is not None and n > _MAX_N:
            raise err.CapExceeded(
                f"n={n} exceeds the packed-key limit {_MAX_N}")
        payload, ok = args.fn(G, args)
        # inside the try: streamed rows and the last buffer's flush
        _emit(payload, args)
        sys.stdout.flush()
        if callable(ok):
            ok = ok()
    except (UsageError, err.WreathCentersError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kinds, code in _EXIT_CODES
                    if isinstance(exc, kinds))
    except BrokenPipeError:
        # the rest of stdout and the flush at exit go to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # as for a process killed by SIGPIPE
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
