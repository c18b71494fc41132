"""Seeded, self-checking end-to-end benchmark of the wreath-centers CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload expand --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

A run generates the workload's requests from the seed (``workloads.py``)
and sends them through ``wreath_centers.cli.main`` as a closed loop: one
client, the next request only after the previous one returned,
``--workers`` left at 1.  Each pass of the request list runs in a fresh
process (``worker.py``), so every pass starts with cold caches; passes
repeat until ``--seconds`` have gone by.  After the timed loop every output
is checked in this process by a route independent of the timed one
(``checks.py``), and the checks are shown to reject a corrupted copy of
one output of each kind.  A request fails when its check fails, when its
stdout digest differs between passes, or when it differs from the digest
an earlier run of the same sources and seed recorded.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones: it alternates plain passes with passes under the probes of
``tracer.py``, whose difference is ``trace.overhead_frac``.  Every metric
is printed by name and unit; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The request list, digests,
check verdicts, machine record and metrics are written to
``perfbench/results/<workload>-seed<seed>.json`` so that a run can be
replayed; a traced run also writes its spans next to it.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 15
P90_MIN_REQUESTS = 100
# a run lasts at most --seconds plus one pass, so a 60 s run still ends
# within 180 s
PASS_TIMEOUT_S = 100.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("req_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


# the fields reported for each probe of tracer.py
LAYER_FIELDS = (
    ("groups.resolve_group", ("calls", "s")),
    ("groups.FiniteGroup.character_table", ("s",)),
    ("kernels.type_histogram", ("calls", "s", "elements", "elements_per_s", "keys")),
    ("center.product_classes", ("calls", "self_s")),
    ("universal.k_coeff", ("calls", "misses", "nonzero_ratio", "s")),
    ("universal.structure_polynomial", ("calls", "self_s")),
    ("partial.enumerate_partial_class", ("calls", "elements", "s")),
    ("wreath.class_order", ("calls", "s")),
    ("shifted.verify_theorem71", ("calls", "self_s")),
    ("shifted.image_eval", ("calls", "distinct_ratio", "s")),
    ("shifted.p_sharp_family_eval", ("calls", "distinct_ratio", "s")),
    ("shifted.CharacterCalculator.x_value", ("calls", "s")),
    ("cli.main", ("self_s", "out_bytes")),
)
FIELD_UNITS = {
    "calls": ("count", "lower"), "elements": ("count", "lower"),
    "keys": ("count", "lower"), "misses": ("count", "lower"),
    "s": ("s", "lower"), "self_s": ("s", "lower"),
    "out_bytes": ("bytes", "lower"), "elements_per_s": ("1/s", "higher"),
    "nonzero_ratio": ("ratio", "higher"), "distinct_ratio": ("ratio", "higher"),
}
# derived fields: numerator and denominator among the counted ones
RATIOS = {"elements_per_s": ("elements", "s"), "nonzero_ratio": ("nonzero", "calls"),
          "distinct_ratio": ("distinct", "calls")}
# the functools caches on public functions at the seed
CACHES = ("universal.k_coeff", "partial.canonical_partial_representative",
          "shifted.get_calculator", "shifted.p_sharp_eval", "shifted.s_sharp_eval",
          "shifted.f_image_eval", "partitions.partitions_of",
          "partitions.mn_character", "partitions.skew_count")
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")
PER_LAYER = tuple(
    ("%s.%s" % (probe, f),) + FIELD_UNITS[f]
    for probe, fields in LAYER_FIELDS for f in fields
) + tuple(("cache.%s.entries" % c, "count", "lower") for c in CACHES) + (OVERHEAD,)


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


def import_package():
    if not (SRC / "wreath_centers" / "__init__.py").is_file():
        raise BenchError("no wreath_centers package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import wreath_centers
    return wreath_centers


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_record():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "host": platform.node(), "machine": platform.machine(),
            "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "WREATH_CENTERS_PURE": os.environ.get("WREATH_CENTERS_PURE", "")}


# ------------------------------------------------------------------ passes

def _child_env():
    env = dict(os.environ)
    # every flag a request needs is on its argv
    env.pop("WREATH_CENTERS_CONFIG", None)
    return env


def run_pass(requests, groups, trace=False, setup_only=False, keep=(), spans=None):
    job = {"src": str(SRC), "groups": groups, "trace": trace,
           "setup_only": setup_only, "keep": list(keep), "spans": spans,
           "requests": [{"argv": r["argv"], "kind": r["kind"]} for r in requests]}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=str(ROOT), env=_child_env(),
            timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran longer than %.0f s" % PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def run_passes(requests, groups, seconds, trace, spans_path):
    """Plain passes (alternating with traced ones under trace) until
    `seconds` have gone by; the first plain pass keeps its outputs."""
    start = time.perf_counter()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        first_traced = traced and not any(p["traced"] for p in passes)
        res = run_pass(requests, groups, trace=traced,
                       keep=checks.KEPT_KINDS if not passes else (),
                       spans=str(spans_path) if first_traced else None)
        res["traced"] = traced
        passes.append(res)
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            return passes


# ------------------------------------------------------------------ checks

def check_outputs(wc, requests, passes, recorded):
    """Verdicts per request of the first pass, and the failure count over
    every pass.  A digest that differs from the first pass's, or from a
    record of the same sources and seed, is a failure."""
    checker = checks.Checker(wc)
    first = passes[0]["requests"]
    verdicts = []
    for i, (req, row) in enumerate(zip(requests, first)):
        reason = checker.check(req, row["rc"], row["out"])
        if reason is None and recorded is not None and recorded[i] != row["sha256"]:
            reason = "stdout digest differs from the recorded run of this seed"
        verdicts.append(reason)
    failed = 0
    for res in passes:
        for i, row in enumerate(res["requests"]):
            same = (row["sha256"] == first[i]["sha256"] and row["rc"] == first[i]["rc"])
            if not same or verdicts[i] is not None:
                failed += 1
    samples = {}
    for req, row, reason in zip(requests, first, verdicts):
        if reason is None and req["kind"] not in samples:
            samples[req["kind"]] = (req, row["rc"], row["out"])
    _, missed = checks.self_test(checker, samples.values())
    if missed:
        raise BenchError("the output checks accepted corrupted outputs:\n"
                         + "\n".join(missed))
    return verdicts, failed, sorted(samples)


def kernel_parity(wc, requests):
    """Histograms of every available backend on the expand inputs."""
    backends = list(wc.available_backends())
    if len(backends) < 2:
        return "only %s available; nothing to compare" % backends[0]
    kernels = sys.modules.get("wreath_centers.kernels")
    wreath = sys.modules.get("wreath_centers.wreath")
    hist = getattr(kernels, "type_histogram", None)
    rep = getattr(wreath, "canonical_representative", None)
    if hist is None or rep is None:
        return "absent"
    bad = 0
    for req in requests:
        argv = req["argv"]
        G = wc.resolve_group(req["group"])
        n = int(argv[argv.index("--n") + 1])
        lam = wc.PartitionFamily.from_json(json.loads(argv[argv.index("--lam") + 1])).pad(n)
        delta = wc.PartitionFamily.from_json(json.loads(argv[argv.index("--del") + 1])).pad(n)
        if wc.class_order(delta, G)[1] <= wc.class_order(lam, G)[1]:
            fam, z, side = delta, rep(lam, n, G), 2
        else:
            fam, z, side = lam, rep(delta, n, G), 3
        results = [hist(G, fam, z, side, backend=b) for b in backends]
        bad += any(r != results[0] for r in results[1:])
    return "%d of %d inputs differ across %s" % (bad, len(requests), ", ".join(backends))


# ----------------------------------------------------------------- metrics

def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes, setups):
    plain = [p for p in passes if not p["traced"]]
    lat = [r["s"] for p in plain for r in p["requests"]]
    out = {
        "setup_s": (statistics.median(setups), "s", "median of %d set-ups" % len(setups)),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s",
                   "median of %d passes" % len(plain)),
        "req_p50_ms": (1e3 * statistics.median(lat), "ms", "n=%d" % len(lat)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB",
                        "median of %d passes" % len(plain)),
    }
    if len(lat) >= P90_MIN_REQUESTS:
        out["req_p90_ms"] = (1e3 * percentile(lat, 90), "ms", "n=%d" % len(lat))
    return out


def layer_values(trace):
    """Every per-layer metric but the overhead, from one traced pass."""
    out = {}
    for probe, fields in LAYER_FIELDS:
        entry = trace["layers"].get(probe, {})
        for f in fields:
            if f in RATIOS:
                num, den = RATIOS[f]
                value = entry.get(num, 0) / entry[den] if entry.get(den) else 0.0
            else:
                value = entry.get(f, 0)
            out["%s.%s" % (probe, f)] = value
    for c in CACHES:
        out["cache.%s.entries" % c] = trace["caches"].get(c, 0)
    return out


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = []
    for p in traced:
        p["trace"]["layers"]["cli.main"]["out_bytes"] = sum(r["bytes"] for r in p["requests"])
        values.append(layer_values(p["trace"]))
    out = {}
    for name, unit, _ in PER_LAYER[:-1]:
        column = [v[name] for v in values]
        # counts repeat exactly from pass to pass; keep them whole
        median = (statistics.median_low if all(isinstance(x, int) for x in column)
                  else statistics.median)
        out[name] = (median(column), unit, "median of %d traced passes" % len(traced))
    t_wall = statistics.median(p["wall_s"] for p in traced)
    u_wall = statistics.median(p["wall_s"] for p in plain)
    out[OVERHEAD[0]] = ((t_wall - u_wall) / u_wall, OVERHEAD[1],
                        "traced %.3f s vs plain %.3f s" % (t_wall, u_wall))
    return out


def first_traced(passes):
    return next(p for p in passes if p["traced"])


def self_time_shares(passes):
    """Share of request time spent in each probe's own code, from the
    first traced pass."""
    layers = first_traced(passes)["trace"]["layers"]
    total = layers["cli.main"]["s"]
    shares = {name: entry["self_s"] / total for name, entry in layers.items()
              if entry["calls"] and total}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# -------------------------------------------------------------------- main

def bench(args):
    wc = import_package()
    requests = workloads.generate(args.workload, args.seed, wc)
    groups = workloads.groups_of(requests)
    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    record_path = RESULTS / (stem + ".json")
    spans_path = RESULTS / (stem + ".spans.tsv.gz")
    src_digest = source_digest()
    recorded = None
    if record_path.is_file():
        old = json.loads(record_path.read_text())
        if old.get("source_sha256") == src_digest and old.get("argv") == [
                r["argv"] for r in requests]:
            recorded = old["digests"]

    passes = run_passes(requests, groups, args.seconds, bool(args.trace), spans_path)
    setups = [p["setup_s"] for p in passes if not p["traced"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass([], groups, setup_only=True)["setup_s"])

    verdicts, failed, self_tested = check_outputs(wc, requests, passes, recorded)
    attempted = sum(len(p["requests"]) for p in passes)
    parity = kernel_parity(wc, requests) if args.workload == "expand" else "not run"
    metrics = end_to_end(passes, setups)
    metrics["fail_frac"] = (failed / attempted, "ratio", "%d/%d" % (failed, attempted))
    reuse = sum(r["reuses"] for r in requests)
    metrics["reuse_share"] = (reuse / len(requests), "ratio",
                              "%d/%d requests reuse work of an earlier one"
                              % (reuse, len(requests)))
    layers = per_layer(passes) if args.trace else {}

    first = passes[0]
    print("workload %s  seed %d  passes %d  requests/pass %d  backend %s %s"
          % (args.workload, args.seed, len(passes), len(requests),
             first["backend"], first["available_backends"]))
    for name, (value, unit, note) in list(metrics.items()) + list(layers.items()):
        shown = "%d" % value if isinstance(value, int) else "%.6g" % value
        print("%-52s %12s %-6s %s" % (name, shown, unit, note))
    if args.trace:
        absent = first_traced(passes)["trace"]["absent"]
        print("absent probes: %s" % (", ".join(absent) or "none"))
        print("self-time share of request time:")
        for name, share in self_time_shares(passes).items():
            print("  %-46s %6.1f%%" % (name, 100 * share))
    machine = machine_record()
    print("machine: %s" % ", ".join("%s %s" % kv for kv in machine.items()))
    print("kernel parity: %s" % parity)
    print("checks shown to reject corrupted %s outputs" % ", ".join(self_tested))
    for req, reason in zip(requests, verdicts):
        if reason is not None:
            print("FAILED %s: %s" % (" ".join(req["argv"]), reason))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source_sha256": src_digest,
        "machine": machine, "backend": first["backend"],
        "available_backends": first["available_backends"],
        "argv": [r["argv"] for r in requests],
        "digests": [row["sha256"] for row in first["requests"]],
        "exit_codes": [row["rc"] for row in first["requests"]],
        "checks": verdicts, "kernel_parity": parity,
        "latency_s": [[row["s"] for row in p["requests"]] for p in passes
                      if not p["traced"]],
        "metrics": {k: {"value": v, "unit": u, "note": n}
                    for k, (v, u, n) in list(metrics.items()) + list(layers.items())},
    }
    if args.trace:
        record["absent"] = first_traced(passes)["trace"]["absent"]
        record["caches"] = first_traced(passes)["trace"]["caches"]
        record["self_time_share"] = self_time_shares(passes)
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1))
    os.replace(tmp, record_path)

    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    source = layers if args.trace else metrics
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": source[k][0], "unit": source[k][1]} for k in names}}
    print(json.dumps(result))


def self_test():
    """Runs a few seed-0 requests on abelian groups in this process, then
    shows the checks accept them and reject a corrupted copy of each, and
    that BENCHMARK.json names exactly the metrics this file reports."""
    wc = import_package()
    import worker
    from wreath_centers import cli
    checker = checks.Checker(wc)
    problems = []
    accepted = []
    for name in workloads.WORKLOADS:
        reqs = [r for r in workloads.generate(name, 0, wc)
                if r["group"] in ("trivial", "cyclic:2", "cyclic:3")]
        by_kind = {}
        for r in sorted(reqs, key=lambda r: r["work"]):
            by_kind.setdefault(r["kind"], r)
        for req in by_kind.values():
            rc, _, out = worker._send(req["argv"], cli.main)
            reason = checker.check(req, rc, out)
            if reason is not None:
                problems.append("rejected %s: %s" % (" ".join(req["argv"]), reason))
            else:
                accepted.append((req, rc, out))
    tried, missed = checks.self_test(checker, accepted)
    problems += missed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != [m[0] for m in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [m["name"] for m in spec["per_layer"]] != [m[0] for m in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    print("self-test: %d abelian outputs accepted, %d of %d corruptions rejected"
          % (len(accepted), tried - len(missed), tried))
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        bench(args)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
