"""Seeded request lists for the three workloads.

A workload is a list of CLI requests (argv lists for ``cli.main``).  Every
choice is made from closed-form sizes (``class_order``,
``class_size_partial``) and a ``random.Random(seed)``, never from timings,
so the same seed gives the same requests on every machine.  Each request
is checked against the class-size cap it is sent with before it runs.

Draws are stratified: a group's candidate pool is sorted by its
closed-form size, cut into equal-count strata, and one candidate is drawn
from the middle fifth of each stratum.  Every seed therefore gets a
different request list with the same spread of sizes, which keeps
run-to-run totals steady.  ``verify`` is the exception: its few long
sweeps are the same for every seed (see ``VERIFY_SWEEPS``).
"""

import json
import random

# --cap-class-size sent with every request; generation refuses anything
# whose closed-form streamed class is larger
CAP_CLASS_SIZE = 200_000

# share of each stratum, around its middle, that a draw may come from
STRATUM_WIDTH = 0.2

# expand: ccoeff at one fixed n per group; the streamed (smaller) class
# holds 10^3 to 3*10^4 elements; larger ones are few, slow and make a
# pass depend on which of them a seed draws
EXPAND_N = {"trivial": 9, "cyclic:2": 7, "cyclic:3": 6, "sym:3": 5,
            "dihedral:4": 4}
EXPAND_STREAMED = (10 ** 3, 3 * 10 ** 4)
EXPAND_PER_GROUP = 8

# stable: pairs of proper families up to this size each, sized by the
# elements a per-target k computation streams: one copy of C_{lam;s} for
# every family of each size s in [max(|lam|,|del|), |lam|+|del|].  Pairs
# above the limit take seconds each, and one draw more or less of them
# would swamp the rest of a pass.
#
# stable and verify use abelian groups only.  The k layer and the image
# route of shifted give wrong results for non-abelian G (ROADMAP item 1,
# bugs A and B), so sym:3 or dihedral:4 there would make requests fail;
# dihedral:2 (the Klein group) and cyclic:4, four classes each, stand in.
# expand keeps sym:3 and dihedral:4: product_classes is right for them.
STABLE_MAX_SIZE = {"trivial": 5, "cyclic:2": 4, "cyclic:3": 3, "dihedral:2": 3,
                   "cyclic:4": 2}
STABLE_MAX_WORK = 120_000
STABLE_PAIRS_PER_GROUP = 12

# verify: the same sweeps in the same order for every seed.  A sweep's
# cost moves with its parameters and, through the caches earlier sweeps
# leave behind, with its place in the run (a seeded order moved the wall
# time of one pass by half), so a seeded draw would measure the draw.
VERIFY_SWEEPS = (
    ("cyclic:2", ["verify-poly", "--n", "6", "--size-cap", "3"]),
    ("cyclic:3", ["verify-poly", "--n", "5", "--size-cap", "2"]),
    ("dihedral:2", ["verify-poly", "--n", "4", "--size-cap", "2"]),
    ("cyclic:2", ["verify-iso", "--size-cap", "3", "--point-size", "4"]),
    ("cyclic:3", ["verify-iso", "--size-cap", "2", "--point-size", "4"]),
    ("dihedral:2", ["verify-iso", "--size-cap", "1", "--point-size", "5"]),
)

WORKLOADS = ("expand", "stable", "verify")


def fam_arg(fam):
    return json.dumps(fam.to_json(), separators=(",", ":"))


def _argv(spec, *rest):
    return ["--group", spec, "--cap-class-size", str(CAP_CLASS_SIZE)] + list(rest)


def _request(spec, kind, argv, streamed, work, shares):
    """streamed: closed-form size of the largest class the request
    streams; work: the closed-form size it is drawn by; shares: keys of
    the work it has in common with other requests."""
    if streamed > CAP_CLASS_SIZE:
        raise ValueError("request %r exceeds the class-size cap" % (argv,))
    return {"group": spec, "kind": kind, "argv": argv, "work": work,
            "shares": sorted(shares)}


def _stratified(rng, pool, strata):
    """One draw from the middle STRATUM_WIDTH of each of `strata`
    equal-count slices of a pool already sorted by size."""
    picks = []
    for i in range(strata):
        lo = int((i + (1 - STRATUM_WIDTH) / 2) * len(pool) / strata)
        hi = max(lo + 1, int((i + (1 + STRATUM_WIDTH) / 2) * len(pool) / strata))
        if hi <= len(pool):
            picks.append(pool[rng.randrange(lo, hi)])
    return picks


def _expand(rng, wc):
    out = []
    lo, hi = EXPAND_STREAMED
    for spec, n in EXPAND_N.items():
        G = wc.resolve_group(spec)
        fams = [(f, wc.class_order(f, G)[1])
                for f in wc.families_of_size(n, G.num_classes)]
        pool = []
        for i, (a, sa) in enumerate(fams):
            for b, sb in fams[i:]:
                streamed = min(sa, sb)
                if lo <= streamed <= hi:
                    pool.append((streamed, i, a, b))
        pool.sort(key=lambda t: (t[0], t[1]))
        for streamed, _, a, b in _stratified(rng, pool, EXPAND_PER_GROUP):
            lam, delta = a.strip_ones()[0], b.strip_ones()[0]
            argv = _argv(spec, "ccoeff", "--n", str(n),
                         "--lam", fam_arg(lam), "--del", fam_arg(delta))
            out.append(_request(spec, "ccoeff", argv, streamed, streamed,
                                [(spec, n, fam_arg(a), fam_arg(b))]))
    rng.shuffle(out)
    return out


def _stable(rng, wc):
    pairs = []
    for spec, limit in STABLE_MAX_SIZE.items():
        G = wc.resolve_group(spec)
        proper = [f for f in wc.families_up_to(limit, G.num_classes)
                  if f.size and f.is_proper()]
        nfam = [sum(1 for _ in wc.families_of_size(s, G.num_classes))
                for s in range(2 * limit + 1)]
        pool = []
        for i, a in enumerate(proper):
            for b in proper[i:]:
                top = a.size + b.size
                work = sum(nfam[s] * wc.class_size_partial(a, s, G)
                           for s in range(max(a.size, b.size), top + 1))
                streamed = max(wc.class_size_partial(a, top, G),
                               wc.class_size_partial(b, top, G))
                if work <= STABLE_MAX_WORK:
                    pool.append((work, len(pool), streamed, a, b))
        pool.sort(key=lambda t: (t[0], t[1]))
        for work, _, streamed, a, b in _stratified(
                rng, pool, STABLE_PAIRS_PER_GROUP):
            pairs.append((spec, a, b, streamed, work))
    rng.shuffle(pairs)
    out = []
    for spec, a, b, streamed, work in pairs:
        key = [(spec, fam_arg(a), fam_arg(b))]
        for kind in ("kcoeff", "poly"):
            argv = _argv(spec, kind, "--lam", fam_arg(a), "--del", fam_arg(b))
            out.append(_request(spec, kind, argv, streamed, work, key))
    return out


def _verify(rng, wc):
    out = []
    for spec, rest in VERIFY_SWEEPS:
        G = wc.resolve_group(spec)
        cap = int(rest[rest.index("--size-cap") + 1])
        proper = [f for f in wc.families_up_to(cap, G.num_classes)
                  if f.is_proper()]
        pairs = [(fam_arg(a), fam_arg(b))
                 for i, a in enumerate(proper) for b in proper[i:]]
        streamed = 0
        if rest[0] == "verify-poly":
            # the largest class the sweep can stream, padded to its top n
            n_max = int(rest[rest.index("--n") + 1])
            for f in proper:
                if f.size <= n_max:
                    streamed = max(streamed, wc.class_order(f.pad(n_max), G)[1])
        out.append(_request(spec, rest[0], _argv(spec, *rest), streamed,
                            len(pairs), [(spec,) + p for p in pairs]))
    return out


def generate(name, seed, wc):
    """The request list of workload `name` for `seed`; wc is the
    imported wreath_centers package."""
    build = {"expand": _expand, "stable": _stable, "verify": _verify}[name]
    requests = build(random.Random("%s:%d" % (name, seed)), wc)
    seen = set()
    for req in requests:
        req["reuses"] = any(tuple(k) in seen for k in req["shares"])
        seen.update(tuple(k) for k in req["shares"])
    return requests


def groups_of(requests):
    return sorted({r["group"] for r in requests})
