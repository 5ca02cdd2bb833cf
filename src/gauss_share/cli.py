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
coerced.  That includes participant ids in minimal_sets.  Grid min and max
must be finite (json.loads accepts NaN and Infinity, and an integer too
large for a float counts as infinite, as it does for an rp value), grid
points may not pass 100,000, sim trials may not pass 100,000, and an
oracle block, when present, must be an object.  The source, access, rp, rp
grid, oracle and sim blocks refuse any key they do not read, and no object
may repeat a key; top-level blocks a command does not read are allowed, so
one file can serve several commands.

Commands: capacity, region, threshold, simulate, oracle.  Exit codes: 0 on
success, 2 on validation problems (anchored to a config line when one is
known), 3 on internal numeric cross-check failures.  CSV output uses 12
significant digits, '.' decimals, ',' delimiters, and a mandatory header.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Any

import numpy as np

from .access_structure import (
    AccessStructure,
    ExtremalSets,
    _fmt_subset,
    monotone_closure,
    threshold_structure,
)
from .capacity import (
    UNLIMITED,
    CapacityPoint,
    is_unlimited,
    rate_region,
    saddle_check,
    secret_capacity,
    threshold_compare,
)
from .errors import GaussShareError, InvalidConfig, NumericError, ValidationError
from .protocol import ProtocolConfig, run_protocol
from .source_model import SourceSpec

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_SIM_FIELDS = dataclasses.fields(ProtocolConfig)
_MAX_RP_POINTS = 100_000  # rp grid points, checked before the grid is allocated
_MAX_TRIALS = 100_000  # sim trials, checked before run_protocol starts
_POINT_HEADER = "rp,cs,sigma2_star,a_star,u_star"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_rp(rp) -> str:
    return "infinity" if is_unlimited(rp) else _fmt(rp)


class _Config:
    """Parsed config plus enough raw text to anchor messages to lines."""

    def __init__(self, path: str, data: dict, raw: str):
        self.path = path
        self.data = data
        self.raw = raw

    def line_of(self, key: str, occurrence: int = 1) -> int:
        """Line of the occurrence-th "key" in the text, or 1 when there is none."""
        needle = f'"{key}"'
        for lineno, line in enumerate(self.raw.splitlines(), start=1):
            occurrence -= line.count(needle)
            if occurrence <= 0:
                return lineno
        return 1

    def fail(self, key: str, message: str, occurrence: int = 1) -> "InvalidConfig":
        return InvalidConfig(f"{self.path}:{self.line_of(key, occurrence)}: {message}")


class _DuplicateKey(Exception):
    """A JSON object repeats a key; json.loads would keep only the last value."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """object_pairs_hook for json.loads: the object, or _DuplicateKey."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise _DuplicateKey(key)
        seen.add(key)
    return dict(pairs)


def _refuse_extra_keys(cfg: _Config, block: dict, name: str, reads: tuple[str, ...]) -> None:
    """A failure on the line of block's first key that is not in reads."""
    for key in block:
        if key not in reads:
            raise cfg.fail(key, f'unexpected key "{key}" in {name} (it reads {", ".join(reads)})')


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


def _real(cfg: _Config, key: str, value: Any) -> None:
    """_number's check, plus a failure on the key's line for an integer too
    large for a float.  The value itself is left as it is, so 1 prints as 1."""
    _number(cfg, key, value)
    if isinstance(value, int) and math.isinf(_as_float(value)):
        raise cfg.fail(key, f"{key} does not fit in a float")


def _as_float(value: int | float) -> float:
    """float(value), reading a JSON integer too large for a float as +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def load_config(path: str) -> _Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"{path}:1: cannot read config ({exc})") from exc
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise InvalidConfig(f"{path}:1: invalid JSON: nested too deeply") from None
    except _DuplicateKey as exc:
        # the key's second occurrence is the repeat, unless another object
        # uses the same key earlier in the file
        key = exc.args[0]
        raise _Config(path, {}, raw).fail(key, f'duplicate key "{key}"', occurrence=2) from None
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
        _refuse_extra_keys(cfg, block, "source", ("sigma2_x", "gains"))
        _number(cfg, "sigma2_x", block["sigma2_x"])
        if not isinstance(block["gains"], list) or not all(map(_is_number, block["gains"])):
            raise cfg.fail("gains", "gains must be a list of numbers")
    else:
        _refuse_extra_keys(cfg, block, "source", ("covariance",))
        rows = block["covariance"]
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(_is_number, row)) for row in rows
        ):
            raise cfg.fail("covariance", "covariance must be a list of rows of numbers")
    try:
        if has_gains:
            return SourceSpec.from_gains(
                _as_float(block["sigma2_x"]), [_as_float(g) for g in block["gains"]]
            )
        return SourceSpec.from_covariance(
            [[_as_float(v) for v in row] for row in block["covariance"]]
        )
    except ValidationError as exc:
        raise cfg.fail("source", str(exc)) from exc


def _participant_sets(sets: Any, cfg: _Config) -> list[list[int]]:
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise cfg.fail("minimal_sets", "minimal_sets must be a list of lists")
    if not all(_is_number(v, integer=True) and v >= 1 for s in sets for v in s):
        raise cfg.fail("minimal_sets", "participant ids are 1-based integers")
    return sets


# commands that read per-participant gains -> the start of their refusal
_GAINS_ONLY = {"threshold": "threshold sweeps need", "simulate": "the protocol model needs"}


def parse_access(cfg: _Config, spec: SourceSpec, command: str) -> AccessStructure | None:
    """The structure the command needs: None for the threshold command's
    sweep, a concrete structure for every other command.  The sweep and the
    simulate command's protocol model also need a gains-form source."""
    if command in _GAINS_ONLY and spec.mode != "gains":
        raise cfg.fail("source", f"{_GAINS_ONLY[command]} a gains-form source")
    block = cfg.data.get("access")
    if not isinstance(block, dict):
        raise cfg.fail("access", "missing or malformed access block")
    forms = [k for k in ("minimal_sets", "threshold", "threshold_sweep") if k in block]
    if len(forms) != 1:
        raise cfg.fail(
            "access",
            "access needs exactly one of minimal_sets, threshold, threshold_sweep",
        )
    form = forms[0]
    _refuse_extra_keys(cfg, block, "access", (form,))
    if form == "threshold_sweep":
        if block[form] is not True:
            raise cfg.fail(form, "threshold_sweep must be true when present")
        if command != "threshold":
            raise cfg.fail("access", f"{command} needs a concrete access structure")
        return None
    # shape checks raise their own line-anchored messages, outside the try
    if form == "threshold":
        build, arg = threshold_structure, _number(cfg, form, block[form], integer=True)
    else:
        build, arg = monotone_closure, _participant_sets(block[form], cfg)
    try:
        structure = build(spec.l, arg)
    except ValidationError as exc:
        raise cfg.fail("access", str(exc)) from exc
    if command == "threshold":
        raise cfg.fail("access", "threshold command needs threshold_sweep: true")
    return structure


def parse_rp(cfg: _Config):
    """UNLIMITED, a finite rate as a float, or an rp grid as an array."""
    block = cfg.data.get("rp")
    if block == "infinity":
        return UNLIMITED
    if not isinstance(block, dict):
        raise cfg.fail("rp", "missing or malformed rp block")
    forms = [k for k in ("value", "grid") if k in block]
    if not forms:
        raise cfg.fail("rp", "rp must be a value, a grid, or infinity")
    if len(forms) > 1:
        raise cfg.fail("rp", "rp needs exactly one of value, grid")
    _refuse_extra_keys(cfg, block, "rp", (forms[0],))
    if forms[0] == "value":
        value = _as_float(_number(cfg, "value", block["value"])) + 0.0  # -0.0 reads as 0.0
        if value < 0 or not math.isfinite(value):
            raise cfg.fail("value", "rp value must be a finite nonnegative number")
        return value
    grid = block["grid"]
    if not isinstance(grid, dict):
        raise cfg.fail("grid", "rp grid must be an object")
    if not {"min", "max", "points"} <= set(grid):
        raise cfg.fail("grid", "rp grid needs numeric min, max, points")
    _refuse_extra_keys(cfg, grid, "rp grid", ("min", "max", "points"))
    lo = _as_float(_number(cfg, "min", grid["min"]))
    hi = _as_float(_number(cfg, "max", grid["max"]))
    points = _number(cfg, "points", grid["points"], integer=True)
    if lo < 0 or points < 1 or (points > 1 and hi <= lo):
        raise cfg.fail("grid", "need min >= 0, points >= 1, max > min")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise cfg.fail("grid", "rp grid min and max must be finite")
    if points > _MAX_RP_POINTS:
        raise cfg.fail("points", f"rp grid points must be at most {_MAX_RP_POINTS}")
    return np.linspace(lo, hi, points)


def _single_rp(cfg: _Config, command: str):
    """parse_rp for a command that evaluates one rate: UNLIMITED or a float."""
    rp = parse_rp(cfg)
    if isinstance(rp, np.ndarray):
        raise cfg.fail("rp", f"{command} needs a single rp value or infinity")
    return rp


def parse_sim(cfg: _Config, seed_override: int | None) -> ProtocolConfig:
    block = cfg.data.get("sim")
    if not isinstance(block, dict):
        raise cfg.fail("sim", "missing or malformed sim block")
    unknown = set(block) - {f.name for f in _SIM_FIELDS}
    if unknown:
        raise cfg.fail("sim", f"unknown sim keys: {sorted(unknown)}")
    merged = dict(block)
    if seed_override is not None:
        merged["seed"] = seed_override
    missing = {f.name for f in _SIM_FIELDS if f.default is dataclasses.MISSING} - set(merged)
    if missing:
        raise cfg.fail("sim", f"sim block is missing keys: {sorted(missing)}")
    for key in ("l_quant", "n", "q", "k", "seed", "trials"):
        _number(cfg, key, merged[key], integer=True)
    if merged["trials"] > _MAX_TRIALS:
        raise cfg.fail("trials", f"trials must be at most {_MAX_TRIALS}")
    for key in ("epsilon", "rv", "rv_prime"):
        _real(cfg, key, merged[key])
    if merged.get("rp_target") is not None:
        _real(cfg, "rp_target", merged["rp_target"])
    if not isinstance(merged.get("exact_leakage", False), (bool, type(None))):
        raise cfg.fail("exact_leakage", "exact_leakage must be true, false or null")
    try:
        return ProtocolConfig(**merged)
    except (InvalidConfig, TypeError) as exc:
        raise cfg.fail("sim", str(exc)) from exc


def _extremal_cells(ext: ExtremalSets) -> str:
    """The a_star and u_star cells of a point row."""
    return f'"{_fmt_subset(ext.min_authorized)}","{_fmt_subset(ext.max_unauthorized)}"'


def _point_row(point: CapacityPoint, extremal_cells: str) -> str:
    sigma_txt = "" if point.sigma2_star is None else _fmt(point.sigma2_star)
    return ",".join([_fmt_rp(point.rp), _fmt(point.cs), sigma_txt, extremal_cells])


def _capacity_points(cfg: _Config, spec: SourceSpec, structure, rp) -> tuple[CapacityPoint, ...]:
    """secret_capacity's point at one rate, or rate_region's at a grid (refused on its line)."""
    if not isinstance(rp, np.ndarray):
        return (secret_capacity(spec, structure, rp),)
    try:
        return rate_region(spec, structure, rp)
    except ValidationError as exc:
        raise cfg.fail("grid", str(exc)) from exc


def cmd_capacity(cfg: _Config, spec: SourceSpec, structure, fmt: str, seed: int | None) -> str:
    point = secret_capacity(spec, structure, _single_rp(cfg, "capacity"))
    if fmt == "csv":
        return f"{_POINT_HEADER}\n{_point_row(point, _extremal_cells(point.extremal))}"
    sigma_txt = "unattained" if point.sigma2_star is None else _fmt(point.sigma2_star)
    return "\n".join(
        [
            f"public rate: {_fmt_rp(point.rp)}",
            f"secret capacity: {_fmt(point.cs)}",
            f"optimal conditional variance: {sigma_txt}",
            f"weakest authorized set: {_fmt_subset(point.extremal.min_authorized)}",
            f"strongest unauthorized set: {_fmt_subset(point.extremal.max_unauthorized)}",
        ]
    )


def cmd_region(cfg: _Config, spec: SourceSpec, structure, fmt: str, seed: int | None) -> str:
    grid = parse_rp(cfg)
    if not isinstance(grid, np.ndarray):
        raise cfg.fail("rp", "region needs an rp grid")
    points = _capacity_points(cfg, spec, structure, grid)
    points += (secret_capacity(spec, structure, UNLIMITED),)
    cells = _extremal_cells(points[0].extremal)
    # the sweep is tabular data either way, so text and csv coincide here
    return "\n".join([_POINT_HEADER, *(_point_row(p, cells) for p in points)])


def cmd_threshold(cfg: _Config, spec: SourceSpec, structure, fmt: str, seed: int | None) -> str:
    """Every threshold's capacity at every rp (_capacity_points, one
    extremal_sets search per t), then every (t, i) pair's ratio-test verdict
    at the last rp from one threshold_compare call, which shares no search
    with the table: it checks each verdict against its sorted-gain chain."""
    rp = parse_rp(cfg)
    rows = ["t,rp,cs"]
    for t in range(1, spec.l + 1):
        points = _capacity_points(cfg, spec, threshold_structure(spec.l, t), rp)
        rows.extend(f"{t},{_fmt_rp(p.rp)},{_fmt(p.cs)}" for p in points)
    rows += ["", "t,i,lhs,rhs,verdict"]
    for comp in threshold_compare(spec, points[-1].rp):
        lhs_txt = "" if comp.lhs is None else _fmt(comp.lhs)
        rows.append(f"{comp.t},{comp.i},{lhs_txt},{_fmt(comp.rhs)},{comp.verdict}")
    return "\n".join(rows)


def cmd_simulate(cfg: _Config, spec: SourceSpec, structure, fmt: str, seed: int | None) -> str:
    sim = parse_sim(cfg, seed)
    try:
        report = run_protocol(spec, structure, sim)
    except ValidationError as exc:
        raise cfg.fail("sim", str(exc)) from exc  # refusals of the sim knobs
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
            rows.append(f"secret_entropy,{_fmt(report.secret_entropy)}")
            rows.append(f"uniformity_gap,{_fmt(report.uniformity_gap)}")
        rows.append(f"message_bits_per_symbol,{_fmt(report.message_bits_per_symbol)}")
        rows.append(f"seed_bits_per_symbol,{_fmt(report.seed_bits_per_symbol)}")
        rows.append(f"public_rate_used,{_fmt(report.public_rate_used)}")
        rows.append(f"reconciliation_bound,{_fmt(report.reconciliation_bound.total)}")
        rows.append(f"rs_lower,{_fmt(report.rate_bound.rs_lower)}")
        rows.append(f"rp_upper,{_fmt(report.rate_bound.rp_upper)}")
        return "\n".join(rows)
    return report.to_text()


def cmd_oracle(cfg: _Config, spec: SourceSpec, structure, fmt: str, seed: int | None) -> str:
    rp = _single_rp(cfg, "oracle")
    block = cfg.data.get("oracle", {})
    if not isinstance(block, dict):
        raise cfg.fail("oracle", "oracle must be an object")
    _refuse_extra_keys(cfg, block, "oracle", ("grid_size",))
    grid_size = _number(cfg, "grid_size", block.get("grid_size", 10_000), integer=True)
    try:
        check = saddle_check(spec, structure, rp, grid_size)
    except ValidationError as exc:  # the grid_size floor or cell budget
        raise cfg.fail("grid_size", str(exc)) from exc
    pairs = [
        ("rp", _fmt_rp(check.rp)),
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
        return "\n".join(rows)
    return "\n".join(f"{k}: {v}" for k, v in pairs)


# command name -> (handler returning the output text, default --format)
_COMMANDS = {
    "capacity": (cmd_capacity, "text"),
    "region": (cmd_region, "csv"),
    "threshold": (cmd_threshold, "csv"),
    "simulate": (cmd_simulate, "text"),
    "oracle": (cmd_oracle, "text"),
}


_PARSER = argparse.ArgumentParser(
    prog="gauss-share",
    description="Secret-sharing capacity and protocol tools for Gaussian sources",
)
_PARSER.add_argument("command", choices=list(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", default=None, help="write output to this path")
_PARSER.add_argument("--seed", type=int, default=None, help="simulate: override the sim seed")
_PARSER.add_argument("--format", choices=["csv", "text"], default=None)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed is not None and args.command != "simulate":
        _PARSER.error(f"--seed applies to the simulate command only, not {args.command}")
    handler, default_fmt = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        spec = parse_source(cfg)
        structure = parse_access(cfg, spec, args.command)
        text = handler(cfg, spec, structure, args.format or default_fmt, args.seed)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GaussShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # every handler's text lacks the final newline
    if args.out is None:
        print(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                print(text, file=fh)
        except OSError as exc:
            print(f"error: cannot write output to {args.out} ({exc.strerror or exc})",
                  file=sys.stderr)
            return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
