"""heatrect benchmark: one workload per fresh process, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bridge-driven --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all      # every workload, untraced and traced
    python3 perfbench/run.py --smoke    # every workload at minimal size

With ``--workload`` the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Full results, machine facts and spans are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# BENCHMARK.json lists the first two.  sweep-small and bridge-static are
# parked: they run with --workload, --all and --smoke, but their timings
# follow this machine's speed too closely to be gated (see README.md).
WORKLOADS = ("bridge-driven", "bridge-static-dense", "sweep-small", "bridge-static")
# A run may last its measured seconds plus this margin, which covers the
# request in flight at the end, the warm-up and the extra set-up processes.
TIME_MARGIN_S = 60.0
# Fresh processes that only set up, half before and half after the
# measured one, so that the set-up median spans the whole run.
SETUP_EXTRA = 6


class BenchError(RuntimeError):
    pass


def _spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def _worker(root: Path, deadline: float, workload: str, seed: int, seconds: float,
            trace: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--started-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 setup_extra: int = SETUP_EXTRA) -> dict:
    """Run one workload in a fresh process; with trace 0, also set up
    ``setup_extra`` more fresh processes for the set-up median."""
    deadline = time.monotonic() + seconds + TIME_MARGIN_S
    extra = setup_extra if not trace else 0

    def setup_only() -> float:
        return _worker(root, deadline, workload, seed, 0.0, 0, setup_only=True)["setup_s"]

    setups = [setup_only() for _ in range(extra // 2)]
    result = _worker(root, deadline, workload, seed, seconds, trace)
    setups.append(result["setup_s"])
    setups += [setup_only() for _ in range(extra - extra // 2)]
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def contract_metrics(spec: dict, result: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    values = result["per_layer"] if result["trace"] else result
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def report(spec: dict, result: dict) -> dict:
    """Print a readable report and return the contract's result object."""
    metrics = contract_metrics(spec, result)
    n, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']:g}  "
          f"trace {result['trace']}  requests {n}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        print(f"  {'setup samples':24s} " + " ".join(f"{s:.4g}" for s in result["setup_samples_s"]) + " s")
        print(f"  {'point_s_p50 samples':24s} {n}")
        if result["point_s_p90"] is not None:
            print(f"  {'point_s_p90':24s} {result['point_s_p90']:.6g} s  ({n} samples)")
        else:
            print(f"  {'point_s_p90':24s} not reported: {n} < 100 samples")
    print(f"  {'error_rate':24s} {failed / n:.6g}  ({failed} of {n} failed)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def _save(root: Path, result: dict):
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    (out / name).write_text(json.dumps(result, indent=1) + "\n")


def run_all(root: Path, spec: dict, seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; tracing overhead per workload."""
    ok = True
    for workload in WORKLOADS:
        plain = run_workload(root, workload, seed, seconds, 0)
        traced = run_workload(root, workload, seed, seconds, 1)
        for result in (plain, traced):
            _save(root, result)
            ok &= report(spec, result)["correct"]
        overhead = plain["points_per_s"] / traced["points_per_s"] - 1.0
        print(f"  tracing overhead: points_per_s {plain['points_per_s']:.6g} untraced, "
              f"{traced['points_per_s']:.6g} traced ({overhead:+.1%} time per point)\n")
    return 0 if ok else 1


def smoke(root: Path, spec: dict, seed: int) -> int:
    """Every workload with one request, untraced and traced: every named
    metric emitted with its unit and a finite value, and no failed point."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(root, workload, seed, 0.0, trace, setup_extra=0)
            _save(root, result)
            try:
                metrics = report(spec, result)["metrics"]
            except KeyError as err:
                problems.append(f"{workload} trace {trace}: metric {err} not emitted")
                continue
            problems += [f"{workload} trace {trace}: {name} is {m['value']!r}"
                         for name, m in metrics.items() if not math.isfinite(m["value"])]
            if result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed points")
    print("smoke: " + ("PASS" if not problems else "FAIL\n  " + "\n  ".join(problems)))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    mode.add_argument("--smoke", action="store_true", help="every workload at minimal size")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heatrect" / "__init__.py").is_file():
        print(f"error: {root} holds no heatrect sources (src/heatrect); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = _spec(root)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.smoke:
            return smoke(root, spec, args.seed)
        if args.all:
            return run_all(root, spec, args.seed, seconds)
        result = run_workload(root, args.workload, args.seed, seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    _save(root, result)
    print(json.dumps(report(spec, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
