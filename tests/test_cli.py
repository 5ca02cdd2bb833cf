"""Command-line interface tests, run in-process through main(argv)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gauss_share
from gauss_share import access_structure, capacity, cli
from gauss_share.access_structure import monotone_closure
from gauss_share.capacity import rate_region
from gauss_share.errors import NumericError
from gauss_share.source_model import SourceSpec

EXAMPLE_SOURCE = {"sigma2_x": 2.0, "gains": [0.5, 1.0, 0.8]}
EXAMPLE_ACCESS = {"minimal_sets": [[1, 2], [2, 3]]}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return str(path)


def suite_env():
    """Environment whose PYTHONPATH starts where this suite imported gauss_share."""
    src_dir = str(Path(gauss_share.__file__).resolve().parents[1])
    pythonpath = [src_dir, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


def line_of(path, key):
    """1-based line of the first occurrence of "key" in a written config."""
    lines = Path(path).read_text().splitlines()
    return next(i for i, line in enumerate(lines, start=1) if f'"{key}"' in line)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, access, rp", [
    ("capacity", EXAMPLE_ACCESS, {"value": -0.0}),
    ("oracle", EXAMPLE_ACCESS, {"value": -0.0}),
    ("threshold", {"threshold_sweep": True}, {"value": -0.0}),
])
def test_negative_zero_rate_prints_as_zero(tmp_path, capsys, command, access, rp):
    path = write_config(tmp_path, {
        "version": 1, "source": EXAMPLE_SOURCE, "access": access, "rp": rp,
    })
    for fmt in ("text", "csv"):
        code, out, err = run_cli(capsys, command, "--config", path, "--format", fmt)
        assert (code, err) == (0, "")
        assert "-0" not in out


class TestCapacityCommand:
    def test_unlimited_rate_text_output(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": EXAMPLE_ACCESS, "rp": "infinity",
        })
        code, out, err = run_cli(capsys, "capacity", "--config", path)
        assert code == 0
        assert err == ""
        assert "public rate: infinity" in out
        assert "secret capacity: 0.111196210668" in out
        assert "optimal conditional variance: unattained" in out
        assert "weakest authorized set: {1,2}" in out
        assert "strongest unauthorized set: {2}" in out

    def test_zero_rate_gives_zero_capacity(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": EXAMPLE_ACCESS, "rp": {"value": 0.0},
        })
        code, out, _ = run_cli(capsys, "capacity", "--config", path)
        assert code == 0
        assert "secret capacity: 0\n" in out

    def test_csv_row_is_pinned(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": EXAMPLE_ACCESS, "rp": {"value": 1.0},
        })
        code, out, _ = run_cli(
            capsys, "capacity", "--config", path, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rp,cs,sigma2_star,a_star,u_star"
        assert lines[1] == '1,0.0849625007212,0.173913043478,"{1,2}","{2}"'

    def test_grid_is_rejected_here(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"grid": {"min": 0, "max": 1, "points": 3}},
        })
        code, _, err = run_cli(capsys, "capacity", "--config", path)
        assert code == 2
        assert "single rp value" in err


class TestRegionCommand:
    def config(self, tmp_path):
        return write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"grid": {"min": 0.0, "max": 2.0, "points": 5}},
        })

    def test_table_shape_and_final_row(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "region", "--config", self.config(tmp_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rp,cs,sigma2_star,a_star,u_star"
        assert len(lines) == 7  # header + 5 grid rows + infinity row
        assert lines[-1].startswith('infinity,0.111196210668,,"{1,2}","{2}"')
        cs_column = [float(line.split(",")[1]) for line in lines[1:6]]
        assert cs_column == sorted(cs_column)
        assert lines[1].split(",")[0] == "0"

    def test_round_trip_is_a_fixed_point(self, tmp_path, capsys):
        """Parsing an emitted number and re-formatting it must reproduce the
        emitted text, and the parsed value must match the in-memory one."""
        _, out, _ = run_cli(capsys, "region", "--config", self.config(tmp_path))
        spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
        structure = monotone_closure(3, [[1, 2], [2, 3]])
        region = rate_region(spec, structure, np.linspace(0.0, 2.0, 5))
        rows = out.splitlines()[1:6]
        for row, point in zip(rows, region.points):
            for cell, value in zip(row.split(",")[:3],
                                   (point.rp, point.cs, point.sigma2_star)):
                assert format(float(cell), ".12g") == cell
                assert float(cell) == pytest.approx(value, rel=1e-11)

    def test_single_value_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": EXAMPLE_ACCESS, "rp": {"value": 1.0},
        })
        code, _, err = run_cli(capsys, "region", "--config", path)
        assert code == 2
        assert "rp grid" in err


class TestThresholdCommand:
    def config(self, tmp_path, gains, rp):
        return write_config(tmp_path, {
            "version": 1,
            "source": {"sigma2_x": 2.0, "gains": gains},
            "access": {"threshold_sweep": True},
            "rp": rp,
        })

    def test_sweep_blocks_and_pinned_verdict(self, tmp_path, capsys):
        path = self.config(
            tmp_path, [1.0, 0.85, 0.9, 0.95, 0.75],
            {"grid": {"min": 0.0, "max": 10.0, "points": 3}},
        )
        code, out, _ = run_cli(capsys, "threshold", "--config", path)
        assert code == 0
        lines = out.splitlines()
        split = lines.index("")
        table, verdicts = lines[:split], lines[split + 1:]
        assert table[0] == "t,rp,cs"
        assert len(table) == 1 + 5 * 3
        assert verdicts[0] == "t,i,lhs,rhs,verdict"
        assert len(verdicts) == 1 + 10  # all (t, i) with t + i <= 5
        assert "4,1,0.7225,0.918513223731,at_most" in verdicts
        for row in verdicts[1:]:
            if row.startswith("1,"):
                assert row.endswith(",at_least")

    @pytest.mark.parametrize("rp", [
        {"value": 1.0}, "infinity", {"grid": {"min": 0.0, "max": 3.0, "points": 7}},
    ])
    def test_one_chain_and_one_search_per_threshold(self, tmp_path, capsys, monkeypatch, rp):
        # no count may grow with the 45 (t, i) pairs or the rp points
        calls = {"extremal_sets": 0, "threshold_extremal_chain": 0, "threshold_compare": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            real = getattr(capacity, name)
            for module in (access_structure, capacity, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, real))
        path = self.config(tmp_path, GOLDEN_SOURCE["gains"], rp)
        code, _, err = run_cli(capsys, "threshold", "--config", path)
        assert (code, err) == (0, "")
        assert calls == {"extremal_sets": 10, "threshold_extremal_chain": 1,
                         "threshold_compare": 1}

    def test_single_participant_has_no_comparisons(self, tmp_path, capsys):
        path = self.config(tmp_path, [1.0], {"value": 1.0})
        code, out, _ = run_cli(capsys, "threshold", "--config", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["t,rp,cs", lines[1], ""]
        assert lines[3] == "t,i,lhs,rhs,verdict"
        assert len(lines) == 4

    def test_zero_gain_prints_empty_lhs(self, tmp_path, capsys):
        path = self.config(tmp_path, [0.0, 0.0, 1.0], {"value": 0.7})
        code, out, _ = run_cli(capsys, "threshold", "--config", path)
        assert code == 0
        fallback_rows = [
            line for line in out.splitlines() if line.startswith("1,1,,")
        ]
        assert len(fallback_rows) == 1

    def test_needs_the_sweep_form(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": EXAMPLE_ACCESS, "rp": {"value": 1.0},
        })
        code, _, err = run_cli(capsys, "threshold", "--config", path)
        assert code == 2
        assert "threshold_sweep" in err

    def test_needs_gains(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1,
            "source": {"covariance": [[2.0, 1.0], [1.0, 2.0]]},
            "access": {"threshold_sweep": True},
            "rp": {"value": 1.0},
        })
        code, _, err = run_cli(capsys, "threshold", "--config", path)
        assert code == 2
        assert "gains-form" in err


class TestSimulateCommand:
    def config(self, tmp_path, sim, name="sim.json"):
        return write_config(tmp_path, {
            "version": 1,
            "source": {"sigma2_x": 2.0, "gains": [1000.0]},
            "access": {"threshold": 1},
            "rp": {"value": 1.0},
            "sim": sim,
        }, name=name)

    SIM = {"l_quant": 2, "n": 2, "q": 1, "epsilon": 0.2, "rv": 1.0,
           "rv_prime": 1.0, "k": 1, "seed": 0, "trials": 1}

    def test_covariance_source_is_refused_on_the_source_line(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1,
            "source": {"covariance": [[2.0, 1.0], [1.0, 2.0]]},
            "access": {"threshold": 1},
            "rp": {"value": 1.0},
            "sim": self.SIM,
        })
        code, out, err = run_cli(capsys, "simulate", "--config", path)
        assert (code, out) == (2, "")
        assert err == (f"error: {path}:{line_of(path, 'source')}: "
                       "the protocol model needs a gains-form source\n")

    def test_text_report(self, tmp_path, capsys):
        path = self.config(tmp_path, dict(self.SIM, q=2, k=2, trials=10))
        code, out, _ = run_cli(capsys, "simulate", "--config", path)
        assert code == 0
        assert "protocol metrics" in out
        assert "authorized {1}:" in out

    def test_seed_override_reaches_the_run(self, tmp_path, capsys):
        path = self.config(tmp_path, self.SIM)
        _, out0, _ = run_cli(
            capsys, "simulate", "--config", path, "--format", "csv"
        )
        assert "uniformity_gap,0\n" in out0
        _, out9, _ = run_cli(
            capsys, "simulate", "--config", path, "--format", "csv", "--seed", "9"
        )
        assert "uniformity_gap,0.188721875541" in out9

    def test_long_blocks_print_a_vacuous_rate_bound(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"value": 1.0},
            "sim": {"l_quant": 2, "n": 400, "q": 1, "epsilon": 0.2, "rv": 0.0,
                    "rv_prime": 0.0, "k": 2, "seed": 0, "trials": 2},
        })
        code, out, err = run_cli(capsys, "simulate", "--config", path)
        assert (code, err) == (0, "")
        assert "rate bound: rs_lower=-inf" in out

    def test_csv_blocks(self, tmp_path, capsys):
        path = self.config(tmp_path, self.SIM)
        code, out, _ = run_cli(
            capsys, "simulate", "--config", path, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("set,trials,secret_errors,")
        assert lines[1].startswith('"{1}",1,')
        split = lines.index("")
        assert lines[split + 1] == "metric,value"
        metrics = dict(
            line.split(",", 1) for line in lines[split + 2:] if line
        )
        assert metrics["leakage_mode"] == "exact"
        assert "message_bits_per_symbol" in metrics
        assert "rs_lower" in metrics

    def test_out_writes_a_file(self, tmp_path, capsys):
        path = self.config(tmp_path, self.SIM)
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "simulate", "--config", path, "--out", str(target)
        )
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("protocol metrics")
        assert content.endswith("\n")

    @pytest.mark.parametrize("where, reason", [
        ("missing/dir/report.txt", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where, reason):
        path = self.config(tmp_path, self.SIM)
        target = str(tmp_path / where)
        code, out, err = run_cli(capsys, "simulate", "--config", path, "--out", target)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write output to {target} ({reason})\n"

    @pytest.mark.parametrize("knob, value, message", [
        ("l_quant", 4096, "above the model budget of 20000000"),
        ("q", 10**12, "exceed the sample budget of 20000000"),
    ])
    def test_oversized_runs_exit_2_without_a_traceback(self, tmp_path, capsys,
                                                       knob, value, message):
        path = self.config(tmp_path, dict(self.SIM, **{knob: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("knobs, message", [
        (dict(q=10**12), "n*q = 2000000000000 symbols of 2 values each exceed "
                         "the sample budget of 20000000"),
        (dict(l_quant=4096), "l_quant 4096 with 1 observers needs 68719476736 "
                             "cells, above the model budget of 20000000"),
        (dict(k=3), "cannot extract 3 bits from 2 input bits"),
        (dict(l_quant=3), "hashing needs a power-of-two alphabet, got size 3"),
        (dict(n=4, q=4, k=12, exact_leakage=True),
         "exact leakage enumeration exceeds the state budget for this instance"),
        (dict(rp_target=1e-17),
         "rp_target too small: the auxiliary would be independent of the source"),
        (dict(rp_target=600.0), "rp_target too large: the auxiliary would equal the "
                                "source (rp_target null gives V = X)"),
    ])
    def test_run_refusals_are_anchored_to_the_sim_block(self, tmp_path, capsys,
                                                         knobs, message):
        path = self.config(tmp_path, dict(self.SIM, **knobs))
        code, out, err = run_cli(capsys, "simulate", "--config", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{line_of(path, 'sim')}: {message}\n"

    @pytest.mark.parametrize("knob", ["epsilon", "rv", "rv_prime", "rp_target"])
    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, knob, value):
        path = self.config(tmp_path, dict(self.SIM, **{knob: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{line_of(path, knob)}: {knob} does not fit in a float\n"

    def test_integer_rates_print_as_written(self, tmp_path, capsys):
        path = self.config(tmp_path, dict(self.SIM, rv=1, rv_prime=1))
        code, out, _ = run_cli(capsys, "simulate", "--config", path)
        assert code == 0
        assert "(rv=1, rv_prime=1)" in out

    def test_unknown_sim_key(self, tmp_path, capsys):
        path = self.config(tmp_path, dict(self.SIM, bogus=3))
        code, _, err = run_cli(capsys, "simulate", "--config", path)
        assert code == 2
        assert "unknown sim keys" in err
        assert "bogus" in err

    def test_missing_sim_key(self, tmp_path, capsys):
        sim = dict(self.SIM)
        del sim["epsilon"]
        path = self.config(tmp_path, sim)
        code, _, err = run_cli(capsys, "simulate", "--config", path)
        assert code == 2
        assert "missing keys" in err and "epsilon" in err


class TestOracleCommand:
    def config(self, tmp_path):
        return write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"value": 1.0}, "oracle": {"grid_size": 2000},
        })

    def test_text_fields(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--config", self.config(tmp_path))
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert fields["rp"] == "1"
        assert fields["grid_size"] == "2000"
        assert fields["closed_form"] == "0.0849625007212"
        assert fields["a_star"] == "{1,2}"
        assert fields["u_star"] == "{2}"
        assert float(fields["saddle_gap"]) <= 1e-12
        assert float(fields["oracle_gap"]) <= 1e-5

    def test_sigma2_x_near_the_largest_float(self, tmp_path, capsys):
        # sigma2_x * snr_a * (2^(2 rp) - 1) overflows in the closed form's
        # denominator; the variance is the one sigma2_x = 1e307 gives
        path = write_config(tmp_path, {
            "version": 1, "source": {"sigma2_x": 5e307, "gains": [0.5, 1.0, 0.8]},
            "access": EXAMPLE_ACCESS, "rp": {"value": 1.0},
        })
        code, out, _ = run_cli(capsys, "capacity", "--config", path)
        assert code == 0
        assert "optimal conditional variance: 0.266666666667\n" in out
        code, out, _ = run_cli(capsys, "oracle", "--config", path)
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert float(fields["oracle_gap"]) <= 1e-6

    def test_csv_form(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--config", self.config(tmp_path), "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "closed_form,0.0849625007212" in lines

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericError("disagreement")

        monkeypatch.setattr(cli, "saddle_check", explode)
        code, _, err = run_cli(capsys, "oracle", "--config", self.config(tmp_path))
        assert code == 3
        assert "numeric failure" in err

    # a NaN order fails a "gap > tol" test, so the check must read "gap <= tol"
    @pytest.mark.parametrize("max_min_min", [0.5, float("nan")])
    def test_saddle_disagreement_exit_code(self, tmp_path, capsys, monkeypatch,
                                           max_min_min):
        real_check = cli.saddle_check

        def skewed(*args, **kwargs):
            return dataclasses.replace(real_check(*args, **kwargs),
                                       max_min_min=max_min_min)

        monkeypatch.setattr(cli, "saddle_check", skewed)
        code, out, err = run_cli(capsys, "oracle", "--config", self.config(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: saddle orders disagree: ")


@pytest.mark.parametrize("command, access, rp", [
    ("capacity", EXAMPLE_ACCESS, {"value": 600}),
    ("oracle", EXAMPLE_ACCESS, {"value": 600}),
    ("region", EXAMPLE_ACCESS, {"grid": {"min": 0, "max": 1000, "points": 5}}),
    ("threshold", {"threshold_sweep": True}, {"value": 600}),
])
def test_public_rate_past_the_largest_power_of_two(tmp_path, capsys, command, access, rp):
    # 2^(2 rp) passes the largest float from rp = 512 on; the capacity there
    # is the rp = infinity value to the printed digits
    path = write_config(tmp_path, {
        "version": 1, "source": EXAMPLE_SOURCE, "access": access, "rp": rp,
    })
    code, out, err = run_cli(capsys, command, "--config", path)
    assert (code, err) == (0, "")
    if command != "threshold":
        assert "0.111196210668" in out


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SOURCE = {"sigma2_x": 2.0, "gains": [
    1.018678, 0.999161, 0.986091, 0.97514, 0.992476,
    1.028655, 0.98063, 0.97867, 1.019405, 0.978587,
]}
GOLDEN_POINT = {"access": {"threshold": 5}, "rp": {"value": 2.589892},
                "oracle": {"grid_size": 1000}}


class TestGoldenCapacityOutput:
    """stdout of the capacity commands on an l=10 source at threshold 5,
    pinned byte for byte to output recorded before extremal_sets gained its
    SNR table and saddle_check its hoisted unauthorized maximum.  Only the
    oracle's oracle_gap line was re-recorded since, when subset_snr became
    a pinned left-to-right sum: before that it was a BLAS dot, and the line
    changed with the CPU kernel OpenBLAS picked at run time."""

    @pytest.mark.parametrize("command, block", [
        ("capacity", GOLDEN_POINT),
        ("region", {"access": {"threshold": 5},
                    "rp": {"grid": {"min": 0.0, "max": 4.0, "points": 256}}}),
        ("threshold", {"access": {"threshold_sweep": True},
                       "rp": {"grid": {"min": 0.5, "max": 2.0, "points": 3}}}),
        ("oracle", GOLDEN_POINT),
    ])
    def test_stdout_is_byte_identical(self, tmp_path, capsys, command, block):
        path = write_config(tmp_path, dict({"version": 1, "source": GOLDEN_SOURCE}, **block))
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, err) == (0, "")
        golden = (GOLDEN_DIR / f"capacity_cli_l10_{command}.txt").read_bytes()
        assert out.encode("utf-8") == golden


README_SIM_CONFIG = {
    "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS, "rp": {"value": 1.0},
    "sim": {"l_quant": 2, "n": 2, "q": 2, "epsilon": 0.2, "rv": 1.0, "rv_prime": 1.0,
            "k": 2, "seed": 7, "trials": 200, "exact_leakage": True},
}


class TestGoldenOutput:
    """stdout of output forms the capacity goldens above leave out (CSV,
    "infinity", and simulate on the README source with exact leakage),
    pinned byte for byte to output recorded before the command-line front
    end was rewritten; the simulate CSV was recorded again when it gained
    its secret_entropy row, every other row unchanged."""

    @pytest.mark.parametrize("golden, argv, block", [
        ("capacity_cli_l10_capacity_csv", ["capacity", "--format", "csv"],
         dict(GOLDEN_POINT, source=GOLDEN_SOURCE)),
        ("capacity_cli_l10_capacity_infinity", ["capacity"],
         dict(GOLDEN_POINT, source=GOLDEN_SOURCE, rp="infinity")),
        ("capacity_cli_l10_oracle_csv", ["oracle", "--format", "csv"],
         dict(GOLDEN_POINT, source=GOLDEN_SOURCE)),
        ("simulate_3party_text", ["simulate"], README_SIM_CONFIG),
        ("simulate_3party_csv", ["simulate", "--format", "csv"], README_SIM_CONFIG),
    ])
    def test_stdout_is_byte_identical(self, tmp_path, capsys, golden, argv, block):
        path = write_config(tmp_path, dict({"version": 1}, **block))
        code, out, err = run_cli(capsys, *argv, "--config", path)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN_DIR / f"{golden}.txt").read_bytes()


class TestConfigErrors:
    def test_wrong_version_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{\n "version": 2,\n "source": {},\n "access": {},\n "rp": "infinity"\n}\n'
        )
        code, _, err = run_cli(capsys, "capacity", "--config", str(path))
        assert code == 2
        assert f"{path}:2:" in err
        assert '"version": 1' in err

    def test_two_access_forms_are_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{\n "version": 1,\n "source": {"sigma2_x": 2.0, "gains": [1.0]},\n'
            ' "access": {"threshold": 1, "minimal_sets": [[1]]},\n'
            ' "rp": "infinity"\n}\n'
        )
        code, _, err = run_cli(capsys, "capacity", "--config", str(path))
        assert code == 2
        assert f"{path}:4:" in err
        assert "exactly one of" in err

    def test_invalid_json_uses_parser_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n "version": 1,\n oops\n}\n')
        code, _, err = run_cli(capsys, "capacity", "--config", str(path))
        assert code == 2
        assert f"{path}:3:" in err
        assert "invalid JSON" in err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code, _, err = run_cli(capsys, "capacity", "--config", missing)
        assert code == 2
        assert f"{missing}:1:" in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"version": 1, "note": "d\u00e9j\u00e0"}'.encode("latin-1"))
        code, _, err = run_cli(capsys, "capacity", "--config", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}:1: cannot read config (")
        assert "can't decode byte 0xe9" in err

    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        depth = 10 * sys.getrecursionlimit()
        path.write_text('{"version": 1, "source": ' + "[" * depth + "]" * depth + "}")
        code, _, err = run_cli(capsys, "capacity", "--config", str(path))
        assert code == 2
        assert err == f"error: {path}:1: invalid JSON: nested too deeply\n"

    def test_source_validation_is_wrapped(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1,
            "source": {"sigma2_x": -1.0, "gains": [1.0]},
            "access": {"threshold": 1}, "rp": "infinity",
        })
        code, _, err = run_cli(capsys, "capacity", "--config", path)
        assert code == 2
        assert f"{path}:" in err

    def test_non_numeric_grid_size(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"value": 1.0}, "oracle": {"grid_size": "abc"},
        })
        code, out, err = run_cli(capsys, "oracle", "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "grid_size")
        assert f"{path}:{line}: grid_size must be an integer, got \"abc\"" in err

    @pytest.mark.parametrize("grid_size, message", [
        (50, "grid_size must be at least 100"),
        (10**9, "grid_size 1000000000 times 5 coalitions exceeds the oracle budget"),
    ])
    def test_grid_size_out_of_range(self, tmp_path, capsys, grid_size, message):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"value": 1.0}, "oracle": {"grid_size": grid_size},
        })
        code, out, err = run_cli(capsys, "oracle", "--config", path)
        assert (code, out) == (2, "")
        assert f"{path}:{line_of(path, 'grid_size')}: {message}" in err

    def test_edge_cells_over_the_oracle_budget(self, tmp_path, capsys):
        # 9908 x 100 grid cells fit the budget; 9908 x 6476 edge cells do not
        gains = [1.0 + 0.01 * i for i in range(14)]
        path = write_config(tmp_path, {
            "version": 1, "source": {"sigma2_x": 2.0, "gains": gains},
            "access": {"threshold": 7}, "rp": {"value": 1.0}, "oracle": {"grid_size": 100},
        })
        code, out, err = run_cli(capsys, "oracle", "--config", path)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}:{line_of(path, 'grid_size')}: 9908 authorized times 6476 unauthorized "
            "coalitions exceeds the oracle budget of 20000000 cells\n"
        )

    def test_fractional_threshold(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": {"threshold": 2.7}, "rp": "infinity",
        })
        code, out, err = run_cli(capsys, "capacity", "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "threshold")
        assert f"{path}:{line}: threshold must be an integer, got 2.7" in err

    def test_boolean_rp_value(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"value": True},
        })
        code, out, err = run_cli(capsys, "capacity", "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "value")
        assert f"{path}:{line}: value must be a number, got true" in err

    def test_booleans_and_strings_are_not_numbers_anywhere(self, tmp_path, capsys):
        sim = {"l_quant": 2, "n": 2, "q": 2, "epsilon": 0.2, "rv": 1.0,
               "rv_prime": 1.0, "k": 2, "seed": 7, "trials": 2}
        cases = [
            ("capacity", {"source": {"sigma2_x": True, "gains": [1.0]}}, "sigma2_x"),
            ("capacity", {"source": {"sigma2_x": 2.0, "gains": [1.0, "2"]}}, "gains"),
            ("capacity", {"source": {"covariance": [[2.0, 1.0], [1.0, False]]}},
             "covariance"),
            ("region", {"rp": {"grid": {"min": 0.0, "max": "4", "points": 3}}}, "max"),
            ("region", {"rp": {"grid": {"min": 0.0, "max": 4.0, "points": 2.5}}},
             "points"),
            ("simulate", {"sim": dict(sim, trials=True)}, "trials"),
            ("simulate", {"sim": dict(sim, epsilon=False)}, "epsilon"),
            ("simulate", {"sim": dict(sim, rp_target="1")}, "rp_target"),
            ("simulate", {"sim": dict(sim, exact_leakage=1)}, "exact_leakage"),
        ]
        for command, override, field in cases:
            data = {"version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
                    "rp": {"value": 1.0}}
            data.update(override)
            path = write_config(tmp_path, data)
            code, out, err = run_cli(capsys, command, "--config", path)
            assert (code, out) == (2, ""), (field, err)
            line = line_of(path, field)
            assert err.startswith(f"error: {path}:{line}: {field} must be"), err

    @pytest.mark.parametrize("command, override, key, message", [
        *[(command, {"access": {"threshold_sweep": True}}, "access",
           f"{command} needs a concrete access structure")
          for command in ("capacity", "region", "simulate", "oracle")],
        *[(command, {"rp": {"grid": {"min": 0.0, "max": 1.0, "points": 3}}}, "rp",
           f"{command} needs a single rp value or infinity")
          for command in ("capacity", "oracle")],
        *[(command, {"access": {"threshold_sweep": False}}, "threshold_sweep",
           "threshold_sweep must be true when present")
          for command in ("capacity", "region", "threshold", "simulate", "oracle")],
    ])
    def test_command_shape_errors(self, tmp_path, capsys, command, override, key, message):
        data = {"version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
                "rp": {"value": 1.0}}
        path = write_config(tmp_path, dict(data, **override))
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{line_of(path, key)}: {message}\n"

    def test_boolean_participant_ids(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": {"minimal_sets": [[True, 2]]}, "rp": "infinity",
        })
        code, out, err = run_cli(capsys, "capacity", "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "minimal_sets")
        assert f"{path}:{line}: participant ids are 1-based integers" in err

    @pytest.mark.parametrize("sets, message", [
        ([[0]], "participant ids are 1-based integers"),
        ([[True, 2]], "participant ids are 1-based integers"),
        (7, "minimal_sets must be a list of lists"),
    ])
    def test_minimal_sets_shape_errors_are_anchored_once(self, tmp_path, capsys,
                                                          sets, message):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": {"minimal_sets": sets}, "rp": "infinity",
        })
        code, out, err = run_cli(capsys, "capacity", "--config", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{line_of(path, 'minimal_sets')}: {message}\n"

    def test_rp_value_too_large_for_a_float(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"value": 10**400},
        })
        code, out, err = run_cli(capsys, "capacity", "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "value")
        assert err == (
            f"error: {path}:{line}: rp value must be a finite nonnegative number\n"
        )

    @pytest.mark.parametrize("command", ["capacity", "oracle"])
    @pytest.mark.parametrize("source, message", [
        ({"sigma2_x": 10**400, "gains": [0.5, 1.0, 0.8]}, "sigma2_x must be finite"),
        ({"sigma2_x": float("inf"), "gains": [0.5, 1.0, 0.8]}, "sigma2_x must be finite"),
        ({"sigma2_x": -(10**400), "gains": [0.5, 1.0, 0.8]}, "sigma2_x must be positive"),
        ({"sigma2_x": 2.0, "gains": [0.5, 10**400, 0.8]}, "gains must be finite"),
        ({"covariance": [[10**400, 1.0], [1.0, 2.0]]}, "matrix is numerically singular"),
        ({"covariance": [[2.0, 1.0], [1.0]]}, "covariance must be a square matrix"),
        # finite numbers whose capacity formulas would overflow
        ({"sigma2_x": 1e308, "gains": [0.5, 1.0, 0.8]},
         "sigma2_x times the sum of squared gains must be finite"),
        ({"sigma2_x": 2.0, "gains": [0.5, 1e160, 0.8]},
         "sigma2_x times the sum of squared gains must be finite"),
        # below the smallest normal float, saddle_check's grid start is 0
        ({"sigma2_x": 5e-324, "gains": [0.5, 1.0, 0.8]},
         "sigma2_x must be at least 2.2250738585072014e-308, the smallest normal float"),
        ({"covariance": [[1e-310, 0.0], [0.0, 1e-310]]},
         "sigma2_x must be at least 2.2250738585072014e-308, the smallest normal float"),
    ])
    def test_source_numbers_a_float_cannot_carry(self, tmp_path, capsys, command,
                                                 source, message):
        access = {"threshold": 1} if "covariance" in source else EXAMPLE_ACCESS
        path = write_config(tmp_path, {
            "version": 1, "source": source, "access": access, "rp": {"value": 1.0},
        })
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{line_of(path, 'source')}: {message}\n"

    @pytest.mark.parametrize("bounds", [
        {"min": 10**400, "max": 1.0},
        {"min": -(10**400), "max": 1.0},
    ])
    def test_grid_min_too_large_for_a_float(self, tmp_path, capsys, bounds):
        # read as +-Infinity, so the message matches that for an Infinity min
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"grid": dict(bounds, points=3)},
        })
        code, out, err = run_cli(capsys, "region", "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "grid")
        assert err == f"error: {path}:{line}: need min >= 0, points >= 1, max > min\n"

    @pytest.mark.parametrize("command", ["region", "threshold"])
    @pytest.mark.parametrize("points", [100_001, 10**9, 10**30])
    def test_grid_points_bound(self, tmp_path, capsys, monkeypatch, command, points):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the grid was allocated before the bound check")

        monkeypatch.setattr(cli.np, "linspace", no_allocation)
        access = {"threshold_sweep": True} if command == "threshold" else EXAMPLE_ACCESS
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": access,
            "rp": {"grid": {"min": 0.0, "max": 1.0, "points": points}},
        })
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "points")
        assert err == (
            f"error: {path}:{line}: rp grid points must be at most 100000\n"
        )

    def test_grid_at_the_points_bound_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"grid": {"min": 0.0, "max": 1.0, "points": 100_000}},
        })
        code, out, err = run_cli(capsys, "region", "--config", path)
        assert (code, err) == (0, "")
        # header, one row per grid point, and the saturation row
        assert len(out.splitlines()) == 100_000 + 2

    def test_trials_bound(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run_protocol started before the bound check")

        monkeypatch.setattr(cli, "run_protocol", no_run)
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "sim": {"l_quant": 2, "n": 2, "q": 2, "epsilon": 0.2, "rv": 1.0,
                    "rv_prime": 1.0, "k": 2, "seed": 7, "trials": 100_001},
        })
        code, out, err = run_cli(capsys, "simulate", "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "trials")
        assert err == f"error: {path}:{line}: trials must be at most 100000\n"

    @pytest.mark.parametrize("command", ["capacity", "region", "oracle"])
    @pytest.mark.parametrize("bounds", [
        {"min": 0.0, "max": float("inf")},
        {"min": float("nan"), "max": 1.0},
        {"min": 0.0, "max": float("nan")},
        {"min": 0.0, "max": 10**400},  # too large for a float
    ])
    def test_non_finite_grid_bounds(self, tmp_path, capsys, command, bounds):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"grid": dict(bounds, points=3)},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "grid")
        assert err == f"error: {path}:{line}: rp grid min and max must be finite\n"

    @pytest.mark.parametrize("block", [7, None, [{"grid_size": 200}], "grid_size"])
    def test_non_object_oracle_block(self, tmp_path, capsys, block):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"value": 1.0}, "oracle": block,
        })
        code, out, err = run_cli(capsys, "oracle", "--config", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{line_of(path, 'oracle')}: oracle must be an object\n"

    @pytest.mark.parametrize("command, access", [
        ("region", EXAMPLE_ACCESS), ("threshold", {"threshold_sweep": True}),
    ])
    def test_grid_points_that_repeat_after_spacing(self, tmp_path, capsys, command, access):
        # np.linspace gives 1.0 twice here; rate_region refuses the grid
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": access,
            "rp": {"grid": {"min": 1.0, "max": 1.0000000000000002, "points": 3}},
        })
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, "")
        line = line_of(path, "grid")
        assert err == f"error: {path}:{line}: rp grid must be strictly increasing\n"

    def test_bad_grid_bounds(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
            "rp": {"grid": {"min": 2.0, "max": 1.0, "points": 5}},
        })
        code, _, err = run_cli(capsys, "region", "--config", path)
        assert code == 2
        assert "max > min" in err


_BASE = {"version": 1, "source": EXAMPLE_SOURCE, "access": EXAMPLE_ACCESS,
         "rp": {"value": 1.0}}
_GRID = {"min": 0.0, "max": 2.0, "points": 3}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("command, doc, key, message", [
    ("capacity", [_BASE], "version", "config must be a JSON object"),
    *[("capacity", _without(_BASE, block), None, f"missing or malformed {block} block")
      for block in ("source", "access", "rp")],
    ("simulate", _BASE, None, "missing or malformed sim block"),
    ("capacity", dict(_BASE, source=dict(EXAMPLE_SOURCE, covariance=[[1.0]])), "source",
     "source needs exactly one of gains, covariance"),
    ("capacity", dict(_BASE, source={"gains": [0.5, 1.0, 0.8]}), "source",
     "gains form needs sigma2_x"),
    ("capacity", dict(_BASE, access={"threshold": 4}), "access", "t=4 outside 1..3"),
    ("capacity", dict(_BASE, access={"minimal_sets": [[1, 4]]}), "access",
     "generator members must lie in 1..3"),
    ("capacity", dict(_BASE, access={"minimal_sets": [[1], []]}), "access",
     "generator sets must be nonempty"),
    ("capacity", dict(_BASE, access={"minimal_sets": []}), "access",
     "at least one generator set is required"),
    ("region", dict(_BASE, rp={"grid": 7}), "grid", "rp grid must be an object"),
    ("region", dict(_BASE, rp={"grid": {"min": 0.0, "max": 1.0}}), "grid",
     "rp grid needs numeric min, max, points"),
    ("capacity", dict(_BASE, rp={"values": [1.0]}), "rp",
     "rp must be a value, a grid, or infinity"),
    ("capacity", dict(_BASE, rp={"infinity": True}), "rp",
     "rp must be a value, a grid, or infinity"),
    ("simulate", dict(_BASE, sim=dict(TestSimulateCommand.SIM, epsilon=1.5)), "sim",
     "epsilon must lie in (0, 1)"),
    ("capacity", dict(_BASE, rp={"value": 1.0, "grid": _GRID}), "rp",
     "rp needs exactly one of value, grid"),
    ("region", dict(_BASE, rp={"value": 1.0, "grid": _GRID}), "rp",
     "rp needs exactly one of value, grid"),
    ("capacity", dict(_BASE, rp={"value": 1.0, "unit": "bits"}), "unit",
     'unexpected key "unit" in rp (it reads value)'),
    ("region", dict(_BASE, rp={"grid": dict(_GRID, spacing="log")}), "spacing",
     'unexpected key "spacing" in rp grid (it reads min, max, points)'),
    ("oracle", dict(_BASE, oracle={"gridsize": 100}), "gridsize",
     'unexpected key "gridsize" in oracle (it reads grid_size)'),
    ("oracle", dict(_BASE, oracle={"grid_size": 100, "seed": 1}), "seed",
     'unexpected key "seed" in oracle (it reads grid_size)'),
    ("capacity", dict(_BASE, source={"sigma2_x": 5.0, "covariance": [[2, 1], [1, 2]]},
                      access={"threshold": 1}), "sigma2_x",
     'unexpected key "sigma2_x" in source (it reads covariance)'),
    ("capacity", dict(_BASE, source=dict(EXAMPLE_SOURCE, noise=1.0)), "noise",
     'unexpected key "noise" in source (it reads sigma2_x, gains)'),
    ("capacity", dict(_BASE, access={"threshold": 2, "minimal_set": [[1]]}), "minimal_set",
     'unexpected key "minimal_set" in access (it reads threshold)'),
    ("threshold", dict(_BASE, access={"threshold_sweep": True, "t": 2}), "t",
     'unexpected key "t" in access (it reads threshold_sweep)'),
])
def test_config_refusals_name_their_line(tmp_path, capsys, command, doc, key, message):
    # a key the config lacks anchors the message to line 1
    path = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, command, "--config", path)
    line = 1 if key is None else line_of(path, key)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{line}: {message}\n"


@pytest.mark.parametrize("text, key, line", [
    ('{\n "version": 1,\n "rp": {"value": 1.0},\n "rp": {"value": 2.0}\n}\n', "rp", 4),
    ('{\n "version": 1,\n "rp": {\n  "value": 1.0,\n  "value": 2.0\n }\n}\n', "value", 5),
    ('{\n "version": 1,\n "version": 1\n}\n', "version", 3),
], ids=["block", "block-key", "top-level-key"])
def test_duplicate_keys_are_refused(tmp_path, capsys, text, key, line):
    # json.loads alone would keep the last value without a word
    path = tmp_path / "dup.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "capacity", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f'error: {path}:{line}: duplicate key "{key}"\n'


# the capacity-layer commands, each with access and rp blocks it accepts
CAPACITY_COMMANDS = [
    ("capacity", EXAMPLE_ACCESS, {"value": 1.0}),
    ("region", EXAMPLE_ACCESS, {"grid": _GRID}),
    ("threshold", {"threshold_sweep": True}, {"value": 1.0}),
    ("oracle", EXAMPLE_ACCESS, {"value": 1.0}),
]


class TestArgumentParsing:
    def test_unknown_command_exits_via_argparse(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["explode", "--config", "x.json"])
        capsys.readouterr()

    def test_config_is_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["capacity"])
        capsys.readouterr()

    @pytest.mark.parametrize("command, access, rp", CAPACITY_COMMANDS)
    def test_seed_is_refused_outside_simulate(self, tmp_path, capsys, command, access, rp):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE, "access": access, "rp": rp,
            "oracle": {"grid_size": 100},
        })
        assert run_cli(capsys, command, "--config", path)[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", path, "--seed", "5"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.startswith("usage: ")
        assert captured.err.endswith(f"error: --seed applies to the simulate command only, "
                            f"not {command}\n")

    def test_console_script_is_installed(self, tmp_path):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": EXAMPLE_ACCESS, "rp": "infinity",
        })
        argv = ["capacity", "--config", path]
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["gauss-share"]
        module, attr = (part.strip() for part in target.split(":"))
        # Run the declared target in its own process the way the wrapper that
        # pip generates for a console script does, so the entry point is
        # checked from a checkout as well as from an install.
        wrapper = (
            f"import sys; from {module} import {attr.split('.')[0]}; "
            f"sys.argv[0] = 'gauss-share'; sys.exit({attr}())"
        )
        result = subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, env=suite_env(), cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "secret capacity: 0.111196210668" in result.stdout
        if shutil.which("gauss-share"):
            script = subprocess.run(
                ["gauss-share", *argv], capture_output=True, text=True,
            )
            assert (script.returncode, script.stdout) == (result.returncode, result.stdout)

    def test_module_entry_point(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "version": 1, "source": EXAMPLE_SOURCE,
            "access": EXAMPLE_ACCESS, "rp": "infinity",
        })
        argv = ["capacity", "--config", path]
        result = subprocess.run(
            [sys.executable, "-m", "gauss_share", *argv],
            capture_output=True, text=True, env=suite_env(), cwd=tmp_path,
        )
        code, out, _ = run_cli(capsys, *argv)
        assert result.returncode == code == 0, result.stderr
        assert result.stdout == out
        assert "secret capacity: 0.111196210668" in out

    def test_package_runs_without_scipy(self, tmp_path):
        # A fresh interpreter in which importing scipy raises runs the four
        # capacity-layer commands and the README simulate config; the
        # simulate output must still match its golden byte for byte, so no
        # command needs scipy, the protocol model's normal CDF and quantile
        # included, and none loads it.
        configs = [
            (command, write_config(tmp_path, {
                "version": 1, "source": EXAMPLE_SOURCE, "access": access, "rp": rp,
                "oracle": {"grid_size": 100},
            }, name=f"{command}.json"))
            for command, access, rp in CAPACITY_COMMANDS
        ]
        simulate = write_config(tmp_path, dict({"version": 1}, **README_SIM_CONFIG),
                                name="simulate.json")
        script = (
            "import contextlib, io, sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from gauss_share import cli\n"
            f"for command, path in {configs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main([command, '--config', path]) == 0, command\n"
            f"assert cli.main(['simulate', '--config', {simulate!r}]) == 0\n"
            "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, env=suite_env(), cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout == (GOLDEN_DIR / "simulate_3party_text.txt").read_bytes()
