"""Compute the reference row of every candidate point of a workload.

Run from the root of a checkout:

    python3 perfbench/make_refs.py bridge-driven bridge-static-dense sweep-small bridge-static

and commit the files written to perfbench/refs/.  The references are
taken at one commit and define what every later commit must reproduce
within the tolerance rule in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="+", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    workloads.import_heatrect(root)
    workloads.REFS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as out_dir:
        for name in args.workload:
            requests = workloads.Requests(name, Path(out_dir))
            entries = []
            started = time.perf_counter()
            for point in workloads.candidate_points(name):
                row = workloads.plain_row(requests.send(point))
                if row.get("converged") is False:
                    raise RuntimeError(f"{name}: reference point {point} did not converge")
                entries.append({"point": point, "row": row})
            payload = {
                "workload": name,
                "tolerance": {"rtol": workloads.RTOL, "atol": workloads.ATOL},
                "points": entries,
            }
            path = workloads.REFS_DIR / f"{name}.json"
            path.write_text(json.dumps(payload, indent=1) + "\n")
            print(f"{name}: {len(entries)} points in {time.perf_counter() - started:.1f} s -> {path}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
