"""The benchmark's workloads: generated inputs, one op, and output checks.

Each workload is a closed loop run by one client: the next op starts when
the previous one returns.  An op is one call into the public API
(`protocol.run_protocol`) or, for capacity-cli, one source studied through
four `cli.main` calls.  The op list is a pure function of the workload seed
and the op count, and the op count depends only on --seconds, so every
commit runs the same list; a slower commit takes longer, it does not run
fewer ops.  Why each workload exists is written next to its definition.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

from gauss_share import SourceSpec, cli, monotone_closure, protocol, threshold_structure
from gauss_share.protocol import ProtocolConfig

MIN_OPS = 20  # leaves a tail percentile with 10 ops beyond it at any --seconds
TAIL_BEYOND = 10
REFERENCE_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def compare(got, want, path: str = "") -> list[str]:
    """Differences between an op summary and its reference.

    Integers, strings and labels must match exactly; floats to 1e-9
    relative (1e-12 absolute, for values that are zero up to rounding).
    """
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path or 'summary'}: keys {sorted(got)} != {sorted(want)}"]
        return [p for key in want for p in compare(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        ok = isinstance(got, (int, float)) and isinstance(want, (int, float)) and _isclose(got, want)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{path}: {got!r} != reference {want!r}"]


def _op_seeds(rng: random.Random, count: int) -> list[int]:
    seeds: list[int] = []
    seen: set[int] = set()
    while len(seeds) < count:
        s = rng.getrandbits(63)
        if s not in seen:
            seen.add(s)
            seeds.append(s)
    return seeds


class ProtocolWorkload:
    """run_protocol on a fixed source; each op has its own seed."""

    def __init__(self, name, sigma2_x, gains, access, knobs, expected_mode, ops_per_s):
        self.name = name
        self.sigma2_x = sigma2_x
        self.gains = gains
        self.access = access  # ("minimal_sets", [[..]]) or ("threshold", t)
        self.knobs = knobs
        self.expected_mode = expected_mode
        self.ops_per_s = ops_per_s

    def generate(self, seed: int, count: int, workdir: str) -> list[tuple]:
        spec = SourceSpec.from_gains(self.sigma2_x, self.gains)
        kind, value = self.access
        if kind == "threshold":
            structure = threshold_structure(len(self.gains), value)
        else:
            structure = monotone_closure(len(self.gains), value)
        rng = random.Random(f"{self.name}/{seed}")
        return [
            (spec, structure, ProtocolConfig(seed=s, **self.knobs))
            for s in _op_seeds(rng, count)
        ]

    def run(self, op):
        return protocol.run_protocol(*op)

    def trials(self, op) -> int:
        return op[2].trials

    def output_bytes(self, raw) -> int:
        return 0

    def summary(self, report) -> dict:
        return {
            "m_omega": report.m_omega,
            "m_nu": report.m_nu,
            "per_authorized": [
                [list(st.subset), st.trials, st.blocks, st.secret_errors,
                 st.block_errors, st.trial_block_errors]
                for st in report.per_authorized
            ],
            "leakage_mode": report.leakage_mode,
            "leakage": None if report.leakage is None
            else [[list(u), v] for u, v in report.leakage],
            "message_leakage": report.message_leakage,
            "secret_entropy": report.secret_entropy,
            "uniformity_gap": report.uniformity_gap,
            "message_bits_per_symbol": report.message_bits_per_symbol,
            "seed_bits_per_symbol": report.seed_bits_per_symbol,
            "public_rate_used": report.public_rate_used,
            "reconciliation_bound": report.reconciliation_bound.total,
            "rs_lower": report.rate_bound.rs_lower,
            "rp_upper": report.rate_bound.rp_upper,
        }

    def invariant_problems(self, op, report) -> list[str]:
        _, structure, cfg = op
        out = []
        if len(report.per_authorized) != len(structure.authorized):
            out.append("one ErrorStats per authorized set expected")
        for st in report.per_authorized:
            tag = f"authorized {st.subset}"
            if st.trials != cfg.trials or st.blocks != cfg.trials * cfg.q:
                out.append(f"{tag}: blocks {st.blocks} != trials*q {cfg.trials * cfg.q}")
            for label, count, top in (
                ("secret_errors", st.secret_errors, st.trials),
                ("trial_block_errors", st.trial_block_errors, st.trials),
                ("block_errors", st.block_errors, st.blocks),
            ):
                if not 0 <= count <= top:
                    out.append(f"{tag}: {label} {count} outside [0, {top}]")
        if report.leakage_mode != self.expected_mode:
            out.append(f"leakage mode {report.leakage_mode!r}, expected {self.expected_mode!r}")
        if report.leakage is not None:
            k = cfg.k
            for u, v in report.leakage:
                if not 0.0 <= v <= k:
                    out.append(f"leakage {v} for {u} outside [0, {k}]")
            if not 0.0 <= report.message_leakage <= k:
                out.append(f"message leakage {report.message_leakage} outside [0, {k}]")
            if report.uniformity_gap < 0.0:
                out.append(f"uniformity gap {report.uniformity_gap} below 0")
        used = report.message_bits_per_symbol + report.seed_bits_per_symbol
        if not math.isclose(report.public_rate_used, used, rel_tol=1e-12, abs_tol=0.0):
            out.append(f"public_rate_used {report.public_rate_used} != message + seed bits {used}")
        return out


def _pairs(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if line)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


class CapacityCliWorkload:
    """In-process cli.main on generated gains-mode sources at threshold l/2.

    Why: the work is in extremal_sets (2^l subsets, rerun for every (t, rp)
    pair of the threshold sweep), saddle_check (|A|*|U|*G), the rate_region
    thread pool (a 256-point grid is the smallest that starts it) and CSV
    formatting; the protocol layer does nothing.  l=10 keeps an op near
    0.75 s, so a run holds enough ops for a median and a tail.
    """

    name = "capacity-cli"
    l = 10
    region_points = 256
    sweep_points = 3
    oracle_grid = 1000
    ops_per_s = 1.3

    def generate(self, seed: int, count: int, workdir: str) -> list[dict]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for i in range(count):
            # near-equal gains keep the l/2 threshold capacity positive: the
            # 5 weakest out-gain the 4 strongest, so no output is trivially 0
            gains = [round(rng.uniform(0.97, 1.03), 6) for _ in range(self.l)]
            rp = round(rng.uniform(0.25, 3.0), 6)
            base = {"version": 1, "source": {"sigma2_x": 2.0, "gains": gains}}
            threshold = {"threshold": self.l // 2}
            configs = {
                "point": dict(base, access=threshold, rp={"value": rp},
                              oracle={"grid_size": self.oracle_grid}),
                "region": dict(base, access=threshold, rp={"grid": {
                    "min": 0.0, "max": 4.0, "points": self.region_points}}),
                "sweep": dict(base, access={"threshold_sweep": True}, rp={"grid": {
                    "min": 0.5, "max": 2.0, "points": self.sweep_points}}),
            }
            paths = {}
            for key, cfg in configs.items():
                paths[key] = os.path.join(workdir, f"op{i}-{key}.json")
                with open(paths[key], "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh, indent=1)
            ops.append({
                "argvs": [
                    ["capacity", "--config", paths["point"]],
                    ["region", "--config", paths["region"]],
                    ["threshold", "--config", paths["sweep"]],
                    ["oracle", "--config", paths["point"]],
                ],
            })
        return ops

    def run(self, op) -> list[tuple[int, str]]:
        outputs = []
        for argv in op["argvs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def trials(self, op) -> int:
        return 0

    def output_bytes(self, raw) -> int:
        return sum(len(text.encode("utf-8")) for _, text in raw)

    def _parse(self, raw) -> dict:
        (_, cap_txt), (_, region_txt), (_, sweep_txt), (_, oracle_txt) = raw
        cap = _pairs(cap_txt)
        rows = _csv_rows(region_txt)
        body, inf_row = rows[1:-1], rows[-1]
        cs_table, verdict_table = sweep_txt.strip("\n").split("\n\n")
        oracle = _pairs(oracle_txt)
        return {
            "capacity": {
                "cs": float(cap["secret capacity"]),
                "sigma2_star": float(cap["optimal conditional variance"]),
                "a_star": cap["weakest authorized set"],
                "u_star": cap["strongest unauthorized set"],
            },
            "region_cs": [float(r[1]) for r in body],
            "region_inf": (inf_row[0], float(inf_row[1]), inf_row[3], inf_row[4]),
            "sweep_cs": [(int(t), float(rp), float(cs)) for t, rp, cs in _csv_rows(cs_table)[1:]],
            "verdicts": [r[4] for r in _csv_rows(verdict_table)[1:]],
            "oracle": {
                key: (float(oracle[key]) if key not in ("a_star", "u_star") else oracle[key])
                for key in ("min_min_max", "max_min_min", "closed_form",
                            "saddle_gap", "oracle_gap", "a_star", "u_star")
            },
        }

    def summary(self, raw) -> dict:
        p = self._parse(raw)
        return {
            "exit_codes": [code for code, _ in raw],
            "capacity": p["capacity"],
            "region": {
                "points": len(p["region_cs"]),
                "cs_first": p["region_cs"][0],
                "cs_last": p["region_cs"][-1],
                "cs_sum": math.fsum(p["region_cs"]),
                "cs_infinity": p["region_inf"][1],
                "a_star": p["region_inf"][2],
                "u_star": p["region_inf"][3],
            },
            "threshold": {
                "cs": [cs for _, _, cs in p["sweep_cs"]],
                "verdicts": p["verdicts"],
            },
            "oracle": p["oracle"],
        }

    def invariant_problems(self, op, raw) -> list[str]:
        codes = [code for code, _ in raw]
        if codes != [0, 0, 0, 0]:
            return [f"exit codes {codes} for {[a[0] for a in op['argvs']]}"]
        p = self._parse(raw)
        out = []
        cs, cs_inf = p["region_cs"], p["region_inf"][1]
        if p["region_inf"][0] != "infinity" or len(cs) != self.region_points:
            out.append("region: expected 256 grid rows and an infinity row")
        if any(b < a for a, b in zip(cs, cs[1:])):
            out.append("region: cs decreases along the rp grid")
        if any(c > cs_inf for c in cs) or min(cs) < 0.0:
            out.append(f"region: cs outside [0, infinity row {cs_inf}]")
        if not 0.0 <= p["capacity"]["cs"] <= cs_inf:
            out.append(f"capacity: cs {p['capacity']['cs']} outside [0, {cs_inf}]")
        sweep = p["sweep_cs"]
        if len(sweep) != self.l * self.sweep_points:
            out.append(f"threshold: {len(sweep)} capacity rows")
        for t in range(1, self.l + 1):
            row = [cs_t for tt, _, cs_t in sweep if tt == t]
            if any(b < a for a, b in zip(row, row[1:])) or min(row, default=0.0) < 0.0:
                out.append(f"threshold: cs for t={t} not nonnegative and nondecreasing in rp")
        if len(p["verdicts"]) != self.l * (self.l - 1) // 2 or not set(p["verdicts"]) <= {"at_least", "at_most"}:
            out.append("threshold: malformed verdict table")
        oracle = p["oracle"]
        for key in ("saddle_gap", "oracle_gap"):
            if not oracle[key] <= 1e-6:
                out.append(f"oracle: {key} {oracle[key]} above 1e-6")
        if not _isclose(oracle["closed_form"], p["capacity"]["cs"]):
            out.append("oracle: closed form differs from the capacity command")
        return out


WORKLOADS = {
    w.name: w
    for w in (
        ProtocolWorkload(
            # README 3-party source at n=6 (a 64x64 codebook).  wz_encode and
            # wz_decode do most of the work, and only 64 x-blocks exist, so
            # encoder inputs repeat heavily: the workload a reuse change helps.
            name="mc-reconcile",
            sigma2_x=2.0,
            gains=[0.5, 1.0, 0.8],
            access=("minimal_sets", [[1, 2], [2, 3]]),
            knobs=dict(l_quant=2, n=6, q=2, epsilon=0.2, rv=1.0, rv_prime=1.0,
                       k=2, trials=50, exact_leakage=False),
            expected_mode="unavailable",
            ops_per_s=5.4,
        ),
        ProtocolWorkload(
            # Same source at n=8 (a 256x256 codebook, 65,536 codewords searched
            # per encode) with few trials per op: encoder arithmetic dominates
            # and most of the 256 x-blocks are seen at most once per op, so a
            # reuse change that wins on mc-reconcile can lose here.
            name="mc-long-block",
            sigma2_x=2.0,
            gains=[0.5, 1.0, 0.8],
            access=("minimal_sets", [[1, 2], [2, 3]]),
            knobs=dict(l_quant=2, n=8, q=2, epsilon=0.2, rv=1.0, rv_prime=1.0,
                       k=2, trials=8, exact_leakage=False),
            expected_mode="unavailable",
            ops_per_s=2.2,
        ),
        ProtocolWorkload(
            # 2-party 2-of-2 source with exact leakage at k=8: security
            # accounting dominates (hash matrices, the pure-Python GF(2)
            # image_distribution, the kron and table fill, info.entropy).
            name="exact-leakage",
            sigma2_x=2.0,
            gains=[1.0, 0.6],
            access=("threshold", 2),
            knobs=dict(l_quant=2, n=4, q=2, epsilon=0.5, rv=1.0, rv_prime=1.0,
                       k=8, trials=20, exact_leakage=True),
            expected_mode="exact",
            ops_per_s=4.6,
        ),
        CapacityCliWorkload(),
    )
}


def op_count(workload, seconds: int) -> int:
    """Fixed op count for a run of about `seconds` at the commit that set ops_per_s."""
    return max(MIN_OPS, round(seconds * workload.ops_per_s))


def load_reference(name: str, seed: int) -> list[dict] | None:
    """Recorded op summaries for the reference seed; None for any other seed."""
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]


def check(workload, op, raw, reference: dict | None) -> list[str]:
    """Problems with one op's output; an empty list means the op succeeded."""
    problems = workload.invariant_problems(op, raw)
    if not problems and reference is not None:
        problems = compare(workload.summary(raw), reference)
    return problems
