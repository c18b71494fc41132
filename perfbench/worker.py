"""One pass of a workload in a fresh process.

Reads a job as JSON on stdin, imports ``wreath_centers`` from the
checkout's ``src``, ingests every group the workload uses (that is the
set-up that ``setup_s`` times), then sends the requests one after another
through ``cli.main`` with stdout and stderr captured: one client, the next
request only after the previous one returned.  Writes one JSON object on
stdout: set-up time, per-request latency, exit code, sha256 and size of
stdout, the kept outputs and peak RSS.  With ``"trace": true`` the
probes of ``tracer.py`` are installed after the import and their
per-layer figures are added.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def _send(argv, main):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed request, not a dead pass
            rc = "%s: %s" % (type(exc).__name__, exc)
    return rc, time.perf_counter() - t0, out.getvalue()


def run(job):
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    import wreath_centers
    from wreath_centers import cli

    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer(wreath_centers)
    for spec in job["groups"]:
        wreath_centers.resolve_group(spec).character_table()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s,
              "backend": wreath_centers.BACKEND,
              "available_backends": list(wreath_centers.available_backends())}
    if job["setup_only"]:
        return result

    main = cli.main if tracer is None else tracer.request
    rows = []
    t_start = time.perf_counter()
    for req in job["requests"]:
        rc, dt, text = _send(req["argv"], main)
        data = text.encode()
        rows.append({"rc": rc, "s": dt, "bytes": len(data),
                     "sha256": hashlib.sha256(data).hexdigest(),
                     "out": text if req["kind"] in job["keep"] else None})
    result["wall_s"] = time.perf_counter() - t_start
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["requests"] = rows
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    return result


if __name__ == "__main__":
    job = json.load(sys.stdin)
    sys.stdout.write(json.dumps(run(job)))
