"""Run one gauss-share benchmark workload and print its result.

    python3 perfbench/run.py --workload mc-reconcile --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src, nothing is installed.  Every process started here is a fresh
interpreter running perfbench/worker.py: SETUP_SAMPLES - 1 of them only set
the workload up (to sample set-up time), the last one also runs the timed
op list.  --trace 0 reports the end-to-end metrics; --trace 1 runs every
op untraced and traced, and reports the per-layer metrics.  The
second-to-last line of output is a JSON detail record (environment, tail
percentile, Monte Carlo trials per second, errors); the last line is the
result object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-reconcile", "mc-long-block", "exact-leakage", "capacity-cli")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0  # the whole run, set-up samples included


def _run_worker(args, role: str, workdir: str, deadline: float) -> dict:
    os.makedirs(workdir)
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--workdir", workdir,
        "--t0", repr(t0), "--deadline", repr(deadline - 5.0),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "gauss_share", "__init__.py")):
        print(f"perfbench: no gauss_share sources under {ROOT}/src", file=sys.stderr)
        return 2
    if "GAUSS_SHARE_THREADS" in os.environ:
        # the benchmark measures the thread default users get
        print("perfbench: unset GAUSS_SHARE_THREADS before running", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            probe = _run_worker(args, "probe", os.path.join(workdir, f"probe{i}"), deadline)
            setups.append(probe["setup_s"])
        res = _run_worker(args, "run", os.path.join(workdir, "run"), deadline)
        setups.append(res["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = res["plain"]
    passes = [plain] + ([res["traced"]] if args.trace else [])
    attempted = res["ops"] * len(passes)
    failed = sum(p["failed"] for p in passes)
    ok_ops = res["ops"] - plain["failed"]
    wall = plain["wall_s"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": res["ops"],
        "op_tail": {"percentile": res["op_tail_percentile"], "ops": res["ops"]},
        "trials_per_s": plain["trials"] / wall if plain["trials"] else None,
        "fail_ratio": failed / attempted,
        "setup_samples_s": setups,
        "env": res["env"],
        "errors": [e for p in passes for e in p["errors"]][:10],
    }
    if args.trace:
        detail["computed"] = res["computed"]
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": ok_ops / wall, "unit": "1/s"},
            "op_p50_s": {"value": res["op_p50_s"], "unit": "s"},
            "op_tail_s": {"value": res["op_tail_s"], "unit": "s"},
            "cpu_s": {"value": plain["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
