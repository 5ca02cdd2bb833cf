"""Record perfbench/reference.json: op output summaries for the reference seed.

    python3 perfbench/record_reference.py

Runs the op list every workload runs at the run_seconds of BENCHMARK.json
with seed workloads.REFERENCE_SEED and stores each op's summary.  The benchmark then fails any op whose output drifts from it.
Re-record only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    recorded = {}
    for name, wl in workloads.WORKLOADS.items():
        count = workloads.op_count(wl, seconds)
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            _, *ops = wl.generate(workloads.REFERENCE_SEED, count + 1, workdir)
            summaries = []
            for i, op in enumerate(ops):
                raw = wl.run(op)
                problems = wl.invariant_problems(op, raw)
                if problems:
                    raise SystemExit(f"{name} op {i}: {problems}")
                summaries.append(wl.summary(raw))
        recorded[name] = summaries
        print(f"{name}: {len(summaries)} ops", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {"seed": workloads.REFERENCE_SEED, "seconds": seconds, "workloads": recorded},
            fh, separators=(",", ":"),
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
