"""One benchmark process: set up, then send one workload's requests.

Started by run.py in a fresh interpreter from the root of a checkout.  It
imports heatrect from ``src/``, sends one warm-up request, and reports
the set-up time counted from when run.py started it.  Unless
``--setup-only`` is given it then runs a closed loop with a single client
and one request in flight until ``--seconds`` have passed, checks every
row against its reference, and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads


def _machine_facts(root: Path) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
    }


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started-at", type=float, required=True,
                        help="time.time() at which the parent started this process")
    args = parser.parse_args(argv)

    root = Path.cwd()
    out_dir = root / ".bench_out" / "work" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads.import_heatrect(root)
    requests = workloads.Requests(args.workload, out_dir)
    requests.warm_up()
    setup_s = time.time() - args.started_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = workloads.load_references(args.workload)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies: list[float] = []
    sent: list[int] = []
    problems: list[str] = []
    failed = 0
    order = workloads.request_order(args.workload, [e["point"] for e in refs], args.seed)
    started = time.perf_counter()
    deadline = started + args.seconds
    for index in order:
        entry = refs[index]
        sent.append(index)
        if tracer is not None:
            tracer.request = len(latencies)
            span = tracer.begin("request")
        t0 = time.perf_counter()
        try:
            row = requests.send(entry["point"])
            error = None
        except Exception:  # a failed request is counted and the loop goes on
            row, error = None, traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(span)
            tracer.finish_request()
        found = [error] if error else workloads.row_problems(row, entry["row"])
        if found:
            failed += 1
            problems.append(f"{entry['point']}: {'; '.join(found)}")
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - started

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setup_s,
        "attempted": len(latencies),
        "failed": failed,
        "problems": problems[:20],
        "elapsed_s": elapsed,
        "points_per_s": len(latencies) / elapsed,
        "point_s_p50": statistics.median(latencies),
        "point_s_p90": _percentile(latencies, 0.9) if len(latencies) >= 100 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_s": latencies,
        "candidates_sent": sent,
    }
    if tracer is not None:
        import tracing

        result["per_layer"] = tracing.layer_metrics(tracer, len(latencies))
        result["per_layer"]["traced.points_per_s"] = result["points_per_s"]
        spans_path = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(root))
    result["machine"] = _machine_facts(root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
