"""Command-line front end: config ingestion, dispatch, and data emission.

Configs are JSON documents with a required "version": 1 field.  Blocks:

  source: {"sigma2_x": float, "gains": [..]} or {"covariance": [[..]]}
  access: exactly one of {"minimal_sets": [[1-based ids]]},
          {"threshold": t}, {"threshold_sweep": true}
  rp:     {"value": r}, "infinity", or {"grid": {"min", "max", "points"}}
  sim:    protocol knobs (see ProtocolConfig), for the simulate command
  oracle: {"grid_size": int}, optional, for the oracle command

Numeric fields must be JSON numbers, and integers where a count is meant;
true/false, strings and fractions in integer fields are rejected, never
coerced.

Commands: capacity, region, threshold, simulate, oracle.  Exit codes: 0 on
success, 2 on validation problems (anchored to a config line when one is
known), 3 on internal numeric cross-check failures.  CSV output uses 12
significant digits, '.' decimals, ',' delimiters, and a mandatory header.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from .access_structure import AccessStructure, monotone_closure, threshold_structure
from .capacity import (
    UNLIMITED,
    is_unlimited,
    rate_region,
    saddle_check,
    secret_capacity,
    threshold_compare,
)
from .errors import (
    BudgetExceeded,
    DomainError,
    GaussShareError,
    InvalidConfig,
    NumericError,
    ValidationError,
)
from .protocol import ProtocolConfig, run_protocol
from .protocol.simulate import _fmt_subset
from .source_model import SourceSpec

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class _Config:
    """Parsed config plus enough raw text to anchor messages to lines."""

    def __init__(self, path: str, data: dict, raw: str):
        self.path = path
        self.data = data
        self.raw = raw

    def line_of(self, key: str) -> int:
        needle = f'"{key}"'
        for lineno, line in enumerate(self.raw.splitlines(), start=1):
            if needle in line:
                return lineno
        return 1

    def fail(self, key: str, message: str) -> "InvalidConfig":
        return InvalidConfig(f"{self.path}:{self.line_of(key)}: {message}")


def _is_number(value: Any, integer: bool = False) -> bool:
    """True for a JSON number (an integer if asked for).  JSON true/false are
    not numbers here, although Python counts bools as ints."""
    return not isinstance(value, bool) and isinstance(value, int if integer else (int, float))


def _number(cfg: _Config, key: str, value: Any, integer: bool = False):
    """value unchanged when _is_number, else a failure on the key's line."""
    if not _is_number(value, integer):
        kind = "an integer" if integer else "a number"
        raise cfg.fail(key, f"{key} must be {kind}, got {json.dumps(value)}")
    return value


def load_config(path: str) -> _Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidConfig(f"{path}:1: cannot read config ({exc})") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    cfg = _Config(path, data, raw)
    if not isinstance(data, dict):
        raise cfg.fail("version", "config must be a JSON object")
    if data.get("version") != 1:
        raise cfg.fail("version", 'config must declare "version": 1')
    return cfg


def parse_source(cfg: _Config) -> SourceSpec:
    block = cfg.data.get("source")
    if not isinstance(block, dict):
        raise cfg.fail("source", "missing or malformed source block")
    has_gains = "gains" in block
    has_cov = "covariance" in block
    if has_gains == has_cov:
        raise cfg.fail("source", "source needs exactly one of gains, covariance")
    if has_gains:
        if "sigma2_x" not in block:
            raise cfg.fail("source", "gains form needs sigma2_x")
        _number(cfg, "sigma2_x", block["sigma2_x"])
        if not isinstance(block["gains"], list) or not all(map(_is_number, block["gains"])):
            raise cfg.fail("gains", "gains must be a list of numbers")
    else:
        rows = block["covariance"]
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(_is_number, row)) for row in rows
        ):
            raise cfg.fail("covariance", "covariance must be a list of rows of numbers")
    try:
        if has_gains:
            return SourceSpec.from_gains(block["sigma2_x"], block["gains"])
        return SourceSpec.from_covariance(block["covariance"])
    except ValidationError as exc:
        raise cfg.fail("source", str(exc)) from exc


def _participant_sets(sets: Any, cfg: _Config) -> list[list[int]]:
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise cfg.fail("minimal_sets", "minimal_sets must be a list of lists")
    for s in sets:
        for v in s:
            if not isinstance(v, int) or v < 1:
                raise cfg.fail("minimal_sets", "participant ids are 1-based integers")
    return sets


def parse_access(cfg: _Config, spec: SourceSpec) -> AccessStructure | str:
    """Returns a structure, or the string "sweep" for threshold sweeps."""
    block = cfg.data.get("access")
    if not isinstance(block, dict):
        raise cfg.fail("access", "missing or malformed access block")
    forms = [k for k in ("minimal_sets", "threshold", "threshold_sweep") if k in block]
    if len(forms) != 1:
        raise cfg.fail(
            "access",
            "access needs exactly one of minimal_sets, threshold, threshold_sweep",
        )
    if forms[0] == "threshold":
        _number(cfg, "threshold", block["threshold"], integer=True)
    try:
        if forms[0] == "minimal_sets":
            return monotone_closure(spec.l, _participant_sets(block["minimal_sets"], cfg))
        if forms[0] == "threshold":
            return threshold_structure(spec.l, block["threshold"])
    except ValidationError as exc:
        raise cfg.fail("access", str(exc)) from exc
    if block["threshold_sweep"] is not True:
        raise cfg.fail("threshold_sweep", "threshold_sweep must be true when present")
    return "sweep"


def parse_rp(cfg: _Config):
    """Returns ("value", r) | ("infinity", None) | ("grid", ndarray)."""
    block = cfg.data.get("rp")
    if block == "infinity" or block == {"infinity": True}:
        return "infinity", None
    if not isinstance(block, dict):
        raise cfg.fail("rp", "missing or malformed rp block")
    if "value" in block:
        value = _number(cfg, "value", block["value"])
        if value < 0 or not math.isfinite(value):
            raise cfg.fail("value", "rp value must be a finite nonnegative number")
        return "value", float(value)
    if "grid" in block:
        grid = block["grid"]
        if not isinstance(grid, dict):
            raise cfg.fail("grid", "rp grid must be an object")
        if not {"min", "max", "points"} <= set(grid):
            raise cfg.fail("grid", "rp grid needs numeric min, max, points")
        lo = float(_number(cfg, "min", grid["min"]))
        hi = float(_number(cfg, "max", grid["max"]))
        points = _number(cfg, "points", grid["points"], integer=True)
        if lo < 0 or points < 1 or (points > 1 and hi <= lo):
            raise cfg.fail("grid", "need min >= 0, points >= 1, max > min")
        return "grid", np.linspace(lo, hi, points)
    raise cfg.fail("rp", "rp must be a value, a grid, or infinity")


def parse_sim(cfg: _Config, seed_override: int | None) -> ProtocolConfig:
    block = cfg.data.get("sim")
    if not isinstance(block, dict):
        raise cfg.fail("sim", "missing or malformed sim block")
    known = {
        "l_quant", "n", "q", "epsilon", "rv", "rv_prime", "k", "seed",
        "trials", "rp_target", "exact_leakage",
    }
    unknown = set(block) - known
    if unknown:
        raise cfg.fail("sim", f"unknown sim keys: {sorted(unknown)}")
    merged = dict(block)
    if seed_override is not None:
        merged["seed"] = seed_override
    missing = {"l_quant", "n", "q", "epsilon", "rv", "rv_prime", "k", "seed", "trials"} - set(merged)
    if missing:
        raise cfg.fail("sim", f"sim block is missing keys: {sorted(missing)}")
    for key in ("l_quant", "n", "q", "k", "seed", "trials"):
        _number(cfg, key, merged[key], integer=True)
    for key in ("epsilon", "rv", "rv_prime"):
        _number(cfg, key, merged[key])
    if merged.get("rp_target") is not None:
        _number(cfg, "rp_target", merged["rp_target"])
    if not isinstance(merged.get("exact_leakage", False), (bool, type(None))):
        raise cfg.fail("exact_leakage", "exact_leakage must be true, false or null")
    try:
        return ProtocolConfig(**merged)
    except (InvalidConfig, TypeError) as exc:
        raise cfg.fail("sim", str(exc)) from exc


def _emit(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _point_rows(point) -> list[str]:
    rp_txt = "infinity" if is_unlimited(point.rp) else _fmt(point.rp)
    sigma_txt = "" if point.sigma2_star is None else _fmt(point.sigma2_star)
    return [
        ",".join(
            [
                rp_txt,
                _fmt(point.cs),
                sigma_txt,
                f'"{_fmt_subset(point.extremal.min_authorized)}"',
                f'"{_fmt_subset(point.extremal.max_unauthorized)}"',
            ]
        )
    ]


def cmd_capacity(cfg: _Config, fmt: str, out: str | None) -> int:
    spec = parse_source(cfg)
    structure = parse_access(cfg, spec)
    if structure == "sweep":
        raise cfg.fail("access", "capacity needs a concrete access structure")
    kind, value = parse_rp(cfg)
    if kind == "grid":
        raise cfg.fail("rp", "capacity needs a single rp value or infinity")
    rp = UNLIMITED if kind == "infinity" else value
    point = secret_capacity(spec, structure, rp)
    if fmt == "csv":
        lines = ["rp,cs,sigma2_star,a_star,u_star"] + _point_rows(point)
        _emit(out, "\n".join(lines))
    else:
        rp_txt = "infinity" if is_unlimited(point.rp) else _fmt(point.rp)
        sigma_txt = "unattained" if point.sigma2_star is None else _fmt(point.sigma2_star)
        _emit(
            out,
            "\n".join(
                [
                    f"public rate: {rp_txt}",
                    f"secret capacity: {_fmt(point.cs)}",
                    f"optimal conditional variance: {sigma_txt}",
                    f"weakest authorized set: {_fmt_subset(point.extremal.min_authorized)}",
                    f"strongest unauthorized set: {_fmt_subset(point.extremal.max_unauthorized)}",
                ]
            ),
        )
    return EXIT_OK


def cmd_region(cfg: _Config, fmt: str, out: str | None) -> int:
    spec = parse_source(cfg)
    structure = parse_access(cfg, spec)
    if structure == "sweep":
        raise cfg.fail("access", "region needs a concrete access structure")
    kind, value = parse_rp(cfg)
    if kind != "grid":
        raise cfg.fail("rp", "region needs an rp grid")
    region = rate_region(spec, structure, value)
    ext = region.points[0].extremal
    rows = ["rp,cs,sigma2_star,a_star,u_star"]
    for point in region.points:
        rows.extend(_point_rows(point))
    rows.append(
        ",".join(
            [
                "infinity",
                _fmt(region.cs_infinity),
                "",
                f'"{_fmt_subset(ext.min_authorized)}"',
                f'"{_fmt_subset(ext.max_unauthorized)}"',
            ]
        )
    )
    # the sweep is tabular data either way, so text and csv coincide here
    _emit(out, "\n".join(rows))
    return EXIT_OK


def cmd_threshold(cfg: _Config, fmt: str, out: str | None) -> int:
    spec = parse_source(cfg)
    if spec.mode != "gains":
        raise cfg.fail("source", "threshold sweeps need a gains-form source")
    access = parse_access(cfg, spec)
    if access != "sweep":
        raise cfg.fail("access", "threshold command needs threshold_sweep: true")
    kind, value = parse_rp(cfg)
    if kind == "infinity":
        rp_values = [UNLIMITED]
    elif kind == "value":
        rp_values = [value]
    else:
        rp_values = list(value)
    l = spec.l
    rows = ["t,rp,cs"]
    for t in range(1, l + 1):
        structure = threshold_structure(l, t)
        for rp in rp_values:
            point = secret_capacity(spec, structure, rp)
            rp_txt = "infinity" if is_unlimited(rp) else _fmt(rp)
            rows.append(f"{t},{rp_txt},{_fmt(point.cs)}")
    compare_rp = rp_values[-1]
    rows.append("")
    rows.append("t,i,lhs,rhs,verdict")
    for t in range(1, l):
        for i in range(1, l - t + 1):
            comp = threshold_compare(spec, l, t, i, compare_rp)
            lhs_txt = "" if comp.lhs is None else _fmt(comp.lhs)
            rows.append(f"{t},{i},{lhs_txt},{_fmt(comp.rhs)},{comp.verdict}")
    _emit(out, "\n".join(rows))
    return EXIT_OK


def cmd_simulate(cfg: _Config, fmt: str, out: str | None, seed: int | None) -> int:
    spec = parse_source(cfg)
    structure = parse_access(cfg, spec)
    if structure == "sweep":
        raise cfg.fail("access", "simulate needs a concrete access structure")
    sim = parse_sim(cfg, seed)
    report = run_protocol(spec, structure, sim)
    if fmt == "csv":
        rows = [
            "set,trials,secret_errors,secret_error_rate,secret_ci_lo,secret_ci_hi,"
            "block_errors,block_error_rate"
        ]
        for st in report.per_authorized:
            lo, hi = st.secret_ci
            rows.append(
                ",".join(
                    [
                        f'"{_fmt_subset(st.subset)}"',
                        str(st.trials),
                        str(st.secret_errors),
                        _fmt(st.secret_error_rate),
                        _fmt(lo),
                        _fmt(hi),
                        str(st.block_errors),
                        _fmt(st.block_error_rate),
                    ]
                )
            )
        rows.append("")
        rows.append("metric,value")
        rows.append(f"leakage_mode,{report.leakage_mode}")
        if report.leakage is not None:
            for subset, value in report.leakage:
                rows.append(f'"leakage{_fmt_subset(subset)}",{_fmt(value)}')
            rows.append(f"message_leakage,{_fmt(report.message_leakage)}")
            rows.append(f"uniformity_gap,{_fmt(report.uniformity_gap)}")
        rows.append(f"message_bits_per_symbol,{_fmt(report.message_bits_per_symbol)}")
        rows.append(f"seed_bits_per_symbol,{_fmt(report.seed_bits_per_symbol)}")
        rows.append(f"public_rate_used,{_fmt(report.public_rate_used)}")
        rows.append(f"reconciliation_bound,{_fmt(report.reconciliation_bound.total)}")
        rows.append(f"rs_lower,{_fmt(report.rate_bound.rs_lower)}")
        rows.append(f"rp_upper,{_fmt(report.rate_bound.rp_upper)}")
        _emit(out, "\n".join(rows))
    else:
        _emit(out, report.to_text())
    return EXIT_OK


def cmd_oracle(cfg: _Config, fmt: str, out: str | None) -> int:
    spec = parse_source(cfg)
    structure = parse_access(cfg, spec)
    if structure == "sweep":
        raise cfg.fail("access", "oracle needs a concrete access structure")
    kind, value = parse_rp(cfg)
    if kind == "grid":
        raise cfg.fail("rp", "oracle needs a single rp value or infinity")
    rp = UNLIMITED if kind == "infinity" else value
    oracle_block = cfg.data.get("oracle", {})
    grid_size = 10_000
    if isinstance(oracle_block, dict) and "grid_size" in oracle_block:
        grid_size = _number(cfg, "grid_size", oracle_block["grid_size"], integer=True)
    try:
        check = saddle_check(spec, structure, rp, grid_size)
    except (BudgetExceeded, DomainError) as exc:  # the grid_size floor or cell budget
        raise cfg.fail("grid_size", str(exc)) from exc
    if check.saddle_gap > 1e-9 * max(1.0, abs(check.min_min_max)):
        raise NumericError(
            f"saddle orders disagree: {check.min_min_max!r} vs {check.max_min_min!r}"
        )
    rp_txt = "infinity" if is_unlimited(check.rp) else _fmt(check.rp)
    pairs = [
        ("rp", rp_txt),
        ("grid_size", str(check.grid_size)),
        ("min_min_max", _fmt(check.min_min_max)),
        ("max_min_min", _fmt(check.max_min_min)),
        ("closed_form", _fmt(check.closed_form)),
        ("saddle_gap", _fmt(check.saddle_gap)),
        ("oracle_gap", _fmt(check.oracle_gap)),
        ("a_star", _fmt_subset(check.extremal.min_authorized)),
        ("u_star", _fmt_subset(check.extremal.max_unauthorized)),
    ]
    if fmt == "csv":
        rows = ["key,value"] + [f'{k},"{v}"' if "," in v else f"{k},{v}" for k, v in pairs]
        _emit(out, "\n".join(rows))
    else:
        _emit(out, "\n".join(f"{k}: {v}" for k, v in pairs))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-share",
        description="Secret-sharing capacity and protocol tools for Gaussian sources",
    )
    parser.add_argument("command", choices=["capacity", "region", "threshold", "simulate", "oracle"])
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="write output to this path")
    parser.add_argument("--seed", type=int, default=None, help="override the sim seed")
    parser.add_argument("--format", choices=["csv", "text"], default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    default_fmt = "csv" if args.command in ("region", "threshold") else "text"
    fmt = args.format or default_fmt
    try:
        cfg = load_config(args.config)
        if args.command == "capacity":
            return cmd_capacity(cfg, fmt, args.out)
        if args.command == "region":
            return cmd_region(cfg, fmt, args.out)
        if args.command == "threshold":
            return cmd_threshold(cfg, fmt, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, fmt, args.out, args.seed)
        return cmd_oracle(cfg, fmt, args.out)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, GaussShareError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
