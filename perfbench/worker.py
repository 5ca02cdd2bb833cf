"""One benchmark process: set up a workload in a fresh interpreter and run its ops.

run.py starts this script and reads the JSON object it prints last.  With
--role probe it stops after set-up and reports only the set-up time; with
--role run it goes on to the timed op list (and, with --trace 1, runs the
same list a second time with spans on).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gauss_share

    if os.path.commonpath([os.path.abspath(gauss_share.__file__), src]) != src:
        raise SystemExit(f"perfbench: imported gauss_share from {gauss_share.__file__}, not {src}")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "GAUSS_SHARE_THREADS": os.environ.get("GAUSS_SHARE_THREADS"),
    }


def run_pass(workload, ops, reference, deadline, probe=None, first=0) -> dict:
    """Run every op once, closed loop; time each op and check its output.

    ops[j] is op number first + j of the list, and reference (None for a
    seed without one) is indexed by that number.  Reaching the deadline
    ends the process without a result: a slow commit is not an incorrect one.
    """
    from workloads import check

    latencies: list[float] = []
    cpu_s = 0.0
    failed = 0
    trials = 0
    errors: list[str] = []
    for i, op in enumerate(ops, first):
        if time.monotonic() > deadline:
            raise SystemExit(f"perfbench: time limit reached before op {i}; no result")
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            raw = workload.run(op)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            raw = exc
        t1 = time.perf_counter()
        cpu_s += time.process_time() - c0
        latencies.append(t1 - t0)
        if isinstance(raw, Exception):
            problems = [f"raised {type(raw).__name__}: {raw}"]
        else:
            try:
                problems = check(workload, op, raw, None if reference is None else reference[i])
            except Exception as exc:  # unparsable output fails the op
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            errors.append(f"op {i}: " + "; ".join(problems[:3]))
        else:
            trials += workload.trials(op)
        if probe is not None:
            probe.end_op(0 if isinstance(raw, Exception) else workload.output_bytes(raw))
    return {
        "latencies": latencies,
        "wall_s": sum(latencies),
        "cpu_s": cpu_s,
        "failed": failed,
        "trials": trials,
        "errors": errors,
    }


def run_paired(workload, ops, reference, deadline) -> tuple[dict, dict, dict]:
    """Each op untraced and traced back to back, alternating which runs first.

    Pairing gives both passes the same process state (heap, caches) and the
    same machine speed, so their difference is the tracing overhead.
    Returns the untraced pass, the traced pass and the per-layer metrics.
    """
    from layers import LayerProbe

    probe = LayerProbe()
    passes: dict[bool, list[dict]] = {False: [], True: []}
    for i, op in enumerate(ops):
        for with_spans in (False, True) if i % 2 == 0 else (True, False):
            if not with_spans:
                passes[False].append(run_pass(workload, [op], reference, deadline, first=i))
                continue
            probe.install()
            try:
                passes[True].append(run_pass(workload, [op], reference, deadline, probe, first=i))
            finally:
                probe.uninstall()
    plain, traced = (
        {
            "latencies": [x for r in runs for x in r["latencies"]],
            "errors": [e for r in runs for e in r["errors"]],
            **{key: sum(r[key] for r in runs) for key in ("wall_s", "cpu_s", "failed", "trials")},
        }
        for runs in (passes[False], passes[True])
    )
    return plain, traced, probe.metrics(traced["wall_s"] - plain["wall_s"])


def tail(latencies: list[float], beyond: int) -> tuple[float, float]:
    """Nearest-rank percentile with `beyond` samples above it: (value, percentile)."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - beyond)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("probe", "run"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--deadline", type=float, required=True, help="time.monotonic() limit")
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    count = workloads.op_count(workload, args.seconds)
    warmup, *ops = workload.generate(args.seed, count + 1, args.workdir)
    problems = workloads.check(workload, warmup, workload.run(warmup), None)
    if problems:
        raise SystemExit(f"perfbench: warm-up op failed: {problems}")
    setup_s = time.monotonic() - args.t0
    if args.role == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = workloads.load_reference(args.workload, args.seed)
    if reference is not None and len(reference) < len(ops):
        raise SystemExit(
            f"perfbench: reference.json covers {len(reference)} ops of {args.workload}, "
            f"this run has {len(ops)}; seed {args.seed} needs --seconds at most "
            "the run_seconds it was recorded at"
        )
    if args.trace:
        from layers import COMPUTED

        plain, traced, layer_metrics = run_paired(workload, ops, reference, args.deadline)
        result = {"plain": plain, "traced": traced, "layers": layer_metrics, "computed": COMPUTED}
    else:
        result = {"plain": run_pass(workload, ops, reference, args.deadline)}
    result.update(setup_s=setup_s, ops=len(ops))
    lat = result["plain"]["latencies"]
    value, pct = tail(lat, workloads.TAIL_BEYOND)
    result.update({
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "op_tail_percentile": pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    for key in ("plain", "traced"):
        if key in result:
            del result[key]["latencies"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
