"""Smoke test: every workload at six ops per pass, untraced and traced.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Exits 1 unless every run reports
``ops_failed == 0`` and prints every metric named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().with_name("run.py")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{tag}: ops_failed {result['failed']} of {result['attempted']}")
            got = set(result["metrics"])
            if got != wanted[trace]:
                problems.append(
                    f"{tag}: missing {sorted(wanted[trace] - got)}, "
                    f"not in BENCHMARK.json {sorted(got - wanted[trace])}"
                )
            print(f"{tag}: {result['attempted']} ops, {result['failed']} failed, "
                  f"{len(result['metrics'])} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
