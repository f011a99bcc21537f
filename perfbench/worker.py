"""One pass of one workload in a fresh interpreter.

Run by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``, so
every pass starts with svlie's caches cold, as a CLI user's process does.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import refclock
import workloads


def _cache_info():
    import svlie.algebra

    info = getattr(getattr(svlie.algebra, "bracket_basis", None), "cache_info", None)
    return info() if info is not None else None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed)
    if args.tiny:
        ops = ops[:6]
    refs = workloads.load_refs()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install((workloads,))

    records = []
    cache_start = _cache_info()
    before = refclock.sample()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = value = None
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # an op that raises counts as failed; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        after = refclock.sample()
        # compare in JSON form, where tuples read as lists
        ok = error is None and op.id in refs and json.loads(json.dumps(value)) == refs[op.id]
        if error is None and not ok:
            error = f"got {json.dumps(value)}, pinned {json.dumps(refs.get(op.id))}"
        records.append(
            {"id": op.id, "raw_s": raw, "factor": refclock.factor(before, after), "ok": ok, "error": error}
        )
        before = after

    cache_end = _cache_info()
    out = {
        "ops": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache": None
        if cache_start is None
        else {
            "hits": cache_end.hits - cache_start.hits,
            "misses": cache_end.misses - cache_start.misses,
            "entries": cache_end.currsize,
        },
    }
    if tracer is not None:
        factors = [r["factor"] for r in records]
        out["trace"] = tracer.summary(factors, sum(factors) / len(factors))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
