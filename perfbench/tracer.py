"""Per-layer spans and counters, installed from outside the package.

``Tracer(wreath_centers)`` wraps the probed public functions of each
module.  The package binds names directly (``from .kernels import
type_histogram``), so a wrapper replaces the function object in every
``wreath_centers`` module that binds it.  Each call records a span
(name, start, duration, parent span, request id) in flat arrays kept in
memory; ``write_spans`` writes them when the pass ends.  Self time is a
span's duration minus the durations of its direct children, which never
overlap because the package runs on one thread.

A probe whose name a later version removes or renames is reported as
absent; nothing here fails because a probed name is missing.  Cache
counters are read from the unwrapped function.
"""

import functools
import gzip
import importlib
import sys
import time
from array import array

# (module, attribute path) of every probed callable
PROBES = (
    ("groups", "resolve_group"),
    ("groups", "FiniteGroup.character_table"),
    ("kernels", "type_histogram"),
    ("center", "product_classes"),
    ("universal", "k_coeff"),
    ("universal", "structure_polynomial"),
    ("partial", "enumerate_partial_class"),
    ("wreath", "class_order"),
    ("shifted", "verify_theorem71"),
    ("shifted", "image_eval"),
    ("shifted", "p_sharp_family_eval"),
    ("shifted", "CharacterCalculator.x_value"),
)
GENERATORS = {"partial.enumerate_partial_class"}
# probes whose argument tuples are counted for a distinct-call ratio,
# with the number of leading positional arguments that form the key
DISTINCT = {"shifted.image_eval": 3, "shifted.p_sharp_family_eval": 2}
REQUEST = "cli.main"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = [REQUEST]
        self.name_of = {REQUEST: 0}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.span_child = array("d")
        self.span_parent = array("i")
        self.span_req = array("i")
        self.stack = []
        self.req = -1
        self.counts = {}
        self.distinct = {}
        self.absent = []
        self.originals = {}
        self._main = importlib.import_module(package.__name__ + ".cli").main
        for module, path in PROBES:
            self._install(module, path)
        self._k_misses = self._k_cache_misses()

    # ---------------------------------------------------------- installing

    def _install(self, module, path):
        name = "%s.%s" % (module, path)
        mod = sys.modules.get("%s.%s" % (self.package.__name__, module))
        owner = mod
        head, _, attr = path.rpartition(".")
        if head and owner is not None:
            owner = getattr(owner, head, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None or not callable(orig):
            self.absent.append(name)
            return
        self.originals[name] = orig
        self.name_of[name] = len(self.names)
        self.names.append(name)
        self.counts[name] = {}
        if name in GENERATORS:
            wrapper = self._wrap_generator(name, orig)
        else:
            wrapper = self._wrap(name, orig)
        if head:
            setattr(owner, attr, wrapper)
            return
        for m in self._modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name + ".").startswith(prefix)]

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_dur.append(0.0)
        self.span_child.append(0.0)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_req.append(self.req)
        return idx

    def _close(self, idx, start, dur):
        self.span_start[idx] = start
        self.span_dur[idx] = dur
        parent = self.span_parent[idx]
        if parent >= 0:
            self.span_child[parent] += dur

    def _wrap(self, name, fn):
        tracer = self
        name_id = self.name_of[name]
        counts = self.counts[name]
        nkey = DISTINCT.get(name)
        keys = self.distinct.setdefault(name, set()) if nkey else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            tracer.stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer._close(idx, t0, t1 - t0)
            if keys is not None:
                keys.add(args[:nkey])
            tracer._count(name, counts, args, result)
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self
        name_id = self.name_of[name]
        counts = self.counts[name]

        # the span covers the time spent inside the generator, summed
        # over its resumptions, and is parented where it was created
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            gen = fn(*args, **kwargs)
            first = None
            spent = 0.0
            try:
                while True:
                    t0 = time.perf_counter()
                    first = t0 if first is None else first
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        spent += time.perf_counter() - t0
                    counts["elements"] = counts.get("elements", 0) + 1
                    yield item
            finally:
                tracer._close(idx, first or 0.0, spent)
        return wrapper

    def _count(self, name, counts, args, result):
        if name == "kernels.type_histogram":
            class_order = self.originals.get("wreath.class_order")
            if class_order is not None:
                counts["elements"] = (counts.get("elements", 0)
                                      + class_order(args[1], args[0])[1])
            counts["keys"] = counts.get("keys", 0) + len(result)
        elif name == "universal.k_coeff" and result:
            counts["nonzero"] = counts.get("nonzero", 0) + 1

    # ------------------------------------------------------------ requests

    def request(self, argv):
        """cli.main(argv) inside one request span."""
        self.req += 1
        idx = self._open(0)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return self._main(argv)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self._close(idx, t0, t1 - t0)

    # ------------------------------------------------------------- reading

    def summary(self):
        """Per-probe calls, inclusive and self seconds and counters, plus
        cache sizes and the probes found absent."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            total[nid] += self.span_dur[i]
            self_s[nid] += self.span_dur[i] - self.span_child[i]
        layers = {}
        for nid, name in enumerate(self.names):
            entry = {"calls": calls[nid], "s": total[nid], "self_s": self_s[nid]}
            entry.update(self.counts.get(name, {}))
            if name in self.distinct:
                entry["distinct"] = len(self.distinct[name])
            layers[name] = entry
        misses = self._k_cache_misses()
        if misses is not None:
            layers["universal.k_coeff"]["misses"] = misses - self._k_misses
        return {"layers": layers, "caches": self.cache_entries(),
                "absent": self.absent}

    def _k_cache_misses(self):
        info = getattr(self.originals.get("universal.k_coeff"), "cache_info", None)
        return info().misses if callable(info) else None

    def cache_entries(self):
        """Entries of every functools cache on a public function, keyed
        by module and function name."""
        out = {}
        for mod in self._modules():
            module = mod.__name__.rpartition(".")[2]
            for key, value in sorted(vars(mod).items()):
                name = "%s.%s" % (module, key)
                value = self.originals.get(name, value)
                info = getattr(value, "cache_info", None)
                if (not key.startswith("_") and callable(info)
                        and getattr(value, "__module__", None) == mod.__name__):
                    out[name] = info().currsize
        return out

    def write_spans(self, path):
        """Spans as gzip'd tab-separated rows:
        name, start_s, dur_s, self_s, parent, request."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tdur_s\tself_s\tparent\trequest\n")
            for i, nid in enumerate(self.span_name):
                fh.write("%s\t%.9f\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[nid], self.span_start[i], self.span_dur[i],
                    self.span_dur[i] - self.span_child[i],
                    self.span_parent[i], self.span_req[i]))
