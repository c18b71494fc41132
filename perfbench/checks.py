"""Output checks, run after the timed loop in a process that shares no
cache with the timed one, through names in ``wreath_centers.__all__``.

* ``ccoeff``: the mass identity sum_Gamma c * |C_Gamma| = |C_Lam| * |C_Del|,
  recomputed from the closed-form ``class_order`` (and the payload's own
  mass flag must agree).
* ``kcoeff``: the mass identity
  sum_Gamma k^Gamma * |C_{Gamma;N}| = |C_{Lam;N}| * |C_{Del;N}| at
  N = |Lam| + |Del|, with the closed-form ``class_size_partial``.
* ``poly``: every returned polynomial evaluated at two values of n against
  ``product_classes``, and every coefficient ``product_classes`` finds
  must have a polynomial.
* ``verify-poly`` / ``verify-iso``: exit code 0.

``mutations`` corrupts a passing output of each kind (one coefficient or
k entry off by one, a non-zero exit code) so that ``self_test`` can
prove the checks reject it.
"""

import json
from math import comb

VERIFY_KINDS = ("verify-poly", "verify-iso")
KEPT_KINDS = ("ccoeff", "kcoeff", "poly")


class Checker:
    def __init__(self, wc):
        self.wc = wc
        self.groups = {}

    def group(self, spec):
        if spec not in self.groups:
            self.groups[spec] = self.wc.resolve_group(spec)
        return self.groups[spec]

    def fam(self, obj):
        return self.wc.PartitionFamily.from_json(obj)

    def check(self, req, rc, out):
        """None when the output is right, else the reason it is not."""
        if rc != 0:
            return "exit code %r" % (rc,)
        if req["kind"] in VERIFY_KINDS:
            return None
        try:
            payload = json.loads(out)
        except (TypeError, ValueError) as exc:
            return "stdout is not JSON: %s" % exc
        G = self.group(req["group"])
        try:
            return getattr(self, "_" + req["kind"])(payload, G)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return "malformed payload: %r" % (exc,)

    def _ccoeff(self, payload, G):
        size = lambda f: self.wc.class_order(self.fam(f), G)[1]
        mass = sum(t["coeff"] * size(t["gamma"]) for t in payload["expansion"])
        want = size(payload["lam"]) * size(payload["del"])
        if mass != want:
            return "mass %d != |C_lam||C_del| = %d" % (mass, want)
        if not payload["mass"]["ok"]:
            return "payload reports a failed mass check"
        return None

    def _kcoeff(self, payload, G):
        lam, delta = self.fam(payload["lam"]), self.fam(payload["del"])
        top = lam.size + delta.size
        size = lambda f: self.wc.class_size_partial(f, top, G)
        mass = sum(t["k"] * size(self.fam(t["gamma"])) for t in payload["kvec"])
        want = size(lam) * size(delta)
        if mass != want:
            return "k mass %d != |C_lam;N||C_del;N| = %d at N=%d" % (mass, want, top)
        return None

    def _poly(self, payload, G):
        lam, delta = self.fam(payload["lam"]), self.fam(payload["del"])
        polys = {}
        for p in payload["polynomials"]:
            polys[self.fam(p["gamma"])] = {int(j): k for j, k in p["binomial"].items()}
        top = lam.size + delta.size
        for n in (top - 1, top):
            vec = self.wc.product_classes(lam.pad(n), delta.pad(n), n, G)
            direct = {g.strip_ones()[0]: c for g, c in vec.items()}
            for gam in set(direct) | {g for g in polys if g.size <= n}:
                coeffs = polys.get(gam, {})
                value = sum(k * comb(n - gam.size, j) for j, k in coeffs.items())
                if value != direct.get(gam, 0):
                    return "gamma %s at n=%d: polynomial %d, product_classes %d" % (
                        json.dumps(gam.to_json()), n, value, direct.get(gam, 0))
        return None


def mutations(req, rc, out):
    """Corrupted copies (description, rc, out) of one passing output."""
    if req["kind"] in VERIFY_KINDS:
        return [("non-zero exit code", 1, out)]
    payload = json.loads(out)
    if req["kind"] == "ccoeff":
        terms = payload["expansion"]
        if terms:
            terms[0]["coeff"] += 1
            return [("one coefficient off by one", rc, json.dumps(payload))]
    elif req["kind"] == "kcoeff":
        if payload["kvec"]:
            payload["kvec"][0]["k"] += 1
            return [("one k entry off by one", rc, json.dumps(payload))]
    elif req["kind"] == "poly":
        if payload["polynomials"]:
            binom = payload["polynomials"][0]["binomial"]
            j = sorted(binom)[0]
            binom[j] += 1
            return [("one binomial coefficient off by one", rc,
                     json.dumps(payload))]
    return []


def self_test(checker, samples):
    """samples: (req, rc, out) of outputs the checks accepted.  Returns
    how many corruptions were tried and those the checks accepted."""
    tried, missed = 0, []
    for req, rc, out in samples:
        for what, bad_rc, bad_out in mutations(req, rc, out):
            tried += 1
            if checker.check(req, bad_rc, bad_out) is None:
                missed.append("%s: %s accepted" % (" ".join(req["argv"]), what))
    return tried, missed
