from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from leakpricer import (
    LN2,
    AttributeSpec,
    BinRule,
    InfoQuantity,
    ParseError,
    ProfileSchema,
    ValidationError,
    discretize,
    intersection_leakage_report,
    load_policy,
    load_samples,
    load_schema,
    open_session,
    read_joint_table,
    read_ledger,
    record_event,
    write_ledger,
)
from leakpricer.audit import decide
from leakpricer.cli import _SPOOL_BATCH, main

import oracles

GAUSS_SCHEMA_YAML = """\
attributes:
  - name: trait
    kind: continuous
    range: [-10.0, 10.0]
observable:
  name: signal
  kind: continuous
  range: [-10.0, 10.0]
"""


@pytest.fixture()
def runner() -> CliRunner:
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def ok(runner, *args) -> str:
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output + result.stderr
    return result.output


def write_gaussian_csv(path, seed: int, n: int, rho: float) -> None:
    rng = np.random.default_rng(seed)
    pairs = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=n)
    lines = ["trait,signal"] + [f"{float(s)!r},{float(x)!r}" for s, x in pairs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestInfoCommands:
    def test_entropy_golden_line(self, runner, data_dir):
        out = ok(runner, "entropy", "--table", data_dir / "timeofday_sex.csv",
                 "--unit", "bits")
        assert out == "H(S) = 1.000000 bits\n"

    def test_entropy_machine(self, runner, data_dir):
        out = ok(runner, "entropy", "--table", data_dir / "timeofday_sex.csv",
                 "--format", "machine")
        doc = json.loads(out)
        assert doc["quantity"] == "profile_entropy"
        assert doc["unit"] == "nats"
        assert doc["value"] == pytest.approx(LN2, rel=1e-12)

    def test_mi_golden_line(self, runner, data_dir):
        out = ok(runner, "mi", "--table", data_dir / "timeofday_sex.csv",
                 "--unit", "bits")
        assert out == "I(X;S) = 0.124511 bits\n"

    def test_mi_unit_relation(self, runner, data_dir):
        table = data_dir / "timeofday_sex.csv"
        in_nats = json.loads(ok(runner, "mi", "--table", table, "--format", "machine"))
        in_bits = json.loads(ok(runner, "mi", "--table", table, "--unit", "bits",
                                "--format", "machine"))
        assert in_bits["value"] == pytest.approx(in_nats["value"] / LN2, rel=1e-12)
        assert in_nats["value"] == pytest.approx(
            oracles.mi_nats(oracles.SINGLE_TABLE), rel=1e-12
        )

    def test_calibrate_golden_line(self, runner):
        out = ok(runner, "calibrate", "--pi-max", "500000", "--entropy", "5.3")
        assert out == "lambda = 94339.6226 USD per nat\n"

    def test_calibrate_machine_accepts_bits(self, runner):
        doc = json.loads(
            ok(runner, "calibrate", "--pi-max", "100", "--entropy", "1.0",
               "--unit", "bits", "--format", "machine")
        )
        assert doc["lambda_per_nat"] == pytest.approx(100.0 / LN2, rel=1e-12)

    @pytest.mark.parametrize("currency", ["", " "])
    def test_calibrate_blank_currency_exits_3(self, runner, currency):
        result = invoke(runner, "calibrate", "--pi-max", "500000", "--entropy", "1",
                        "--currency", currency)
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert result.stderr == (
            f"error: currency must be a non-blank string, got {currency!r}\n"
        )


class TestEstimateCommand:
    def test_keystroke_demo_text(self, runner, data_dir):
        out = ok(runner, "estimate", "--schema", data_dir / "keystroke_schema.yaml",
                 "--samples", data_dir / "keystrokes.csv", "--seed", "7")
        lines = out.splitlines()
        assert lines[0] == "method = kde-monte-carlo"
        assert lines[1] == "n = 300"
        assert lines[2] == "seed = 7"
        assert lines[3].startswith("bandwidth[impairment] = ")
        assert lines[4].startswith("bandwidth[keystroke_interval] = ")
        assert lines[5].startswith("I(X;S) = ")
        assert lines[5].endswith(" nats")

    def test_repeated_runs_are_identical(self, runner, data_dir):
        args = ("estimate", "--schema", data_dir / "keystroke_schema.yaml",
                "--samples", data_dir / "keystrokes.csv", "--format", "machine")
        assert ok(runner, *args) == ok(runner, *args)

    def test_gaussian_estimate_near_analytic(self, runner, tmp_path):
        schema = tmp_path / "schema.yaml"
        schema.write_text(GAUSS_SCHEMA_YAML)
        samples = tmp_path / "samples.csv"
        write_gaussian_csv(samples, seed=0, n=2000, rho=0.8)
        doc = json.loads(
            ok(runner, "estimate", "--schema", schema, "--samples", samples,
               "--format", "machine")
        )
        assert doc["method"] == "kde-monte-carlo"
        assert abs(doc["value_nats"] - oracles.gaussian_mi_nats(0.8)) <= 0.08
        assert set(doc["bandwidths"]) == {"trait", "signal"}

    def test_plugin_route_on_categorical(self, runner, data_dir, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text(
            "sex,disability,timeofday\n"
            + "male,abled,morning\n" * 3
            + "female,disabled,evening\n" * 2
        )
        out = ok(runner, "estimate", "--schema", data_dir / "profile_schema.yaml",
                 "--samples", samples)
        assert "method = plug-in-counts" in out
        assert "seed =" not in out
        assert "bandwidth" not in out

    def test_explicit_bandwidth_respected(self, runner, tmp_path):
        schema = tmp_path / "schema.yaml"
        schema.write_text(GAUSS_SCHEMA_YAML)
        samples = tmp_path / "samples.csv"
        write_gaussian_csv(samples, seed=3, n=100, rho=0.5)
        doc = json.loads(
            ok(runner, "estimate", "--schema", schema, "--samples", samples,
               "--bandwidth", "trait=0.5", "--bandwidth", "signal=0.25",
               "--format", "machine")
        )
        assert doc["bandwidths"] == {"trait": 0.5, "signal": 0.25}

    def test_bad_bandwidth_flag(self, runner, tmp_path):
        schema = tmp_path / "schema.yaml"
        schema.write_text(GAUSS_SCHEMA_YAML)
        samples = tmp_path / "samples.csv"
        write_gaussian_csv(samples, seed=3, n=10, rho=0.0)
        result = invoke(runner, "estimate", "--schema", schema, "--samples", samples,
                        "--bandwidth", "trait")
        assert result.exit_code == 3
        assert "NAME=WIDTH" in result.stderr

    @pytest.mark.parametrize("name", ["typo", "sex"])
    def test_bandwidth_for_a_non_continuous_name_exits_3(self, runner, data_dir, name):
        result = invoke(runner, "estimate", "--schema", data_dir / "keystroke_schema.yaml",
                        "--samples", data_dir / "keystrokes.csv", "--bandwidth", f"{name}=0.5")
        assert result.exit_code == 3
        assert result.stderr == (
            f"error: bandwidth given for {name!r}, which is not a continuous attribute\n"
        )

    # the joint density at a sample is at least its self term, (1/n) times the
    # product of 1/(h sqrt(2 pi)): only too large a bandwidth underflows it, and
    # too small a one overflows that factor
    @pytest.mark.parametrize("flag, cause", [
        ("keystroke_interval=1e308", "underflowed at sample index 0; a bandwidth is too large"),
        ("keystroke_interval=1e-320", "overflowed at sample index 0; a bandwidth is too small"),
        ("impairment=1e-310", "overflowed at sample index 0; a bandwidth is too small"),
    ], ids=["huge-observable", "tiny-observable", "tiny-attribute"])
    def test_extreme_bandwidth_exits_3_naming_the_cause(self, runner, data_dir, flag, cause):
        result = invoke(runner, "estimate", "--schema", data_dir / "keystroke_schema.yaml",
                        "--samples", data_dir / "keystrokes.csv", "--bandwidth", flag)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == f"error: joint density {cause} for this data\n"

    def test_repeated_bandwidth_exits_3_naming_it(self, runner, data_dir):
        result = invoke(runner, "estimate", "--schema", data_dir / "keystroke_schema.yaml",
                        "--samples", data_dir / "keystrokes.csv",
                        "--bandwidth", "impairment=0.5", "--bandwidth", "impairment=0.05")
        assert result.exit_code == 3
        assert result.stderr == "error: --bandwidth is given twice for 'impairment'\n"

    def test_levels_joining_into_one_label_exit_3_naming_it(self, runner, tmp_path):
        schema = tmp_path / "schema.yaml"
        schema.write_text(
            "attributes:\n"
            "  - {name: p, kind: categorical, levels: [a+b, a]}\n"
            "  - {name: q, kind: categorical, levels: [c, b+c]}\n"
            "observable: {name: x, kind: categorical, levels: [u, v]}\n"
        )
        samples = tmp_path / "samples.csv"
        samples.write_text("p,q,x\na+b,c,u\na,b+c,v\n")
        result = invoke(runner, "estimate", "--schema", schema, "--samples", samples)
        assert result.exit_code == 3
        assert result.stderr == (
            "error: intersection label 'a+b+c' is repeated: levels containing '+' "
            "are ambiguous once joined\n"
        )


class TestDiscretizeCommand:
    def test_bins_to_file(self, runner, data_dir, tmp_path):
        out_path = tmp_path / "binned.csv"
        out = ok(runner, "discretize", "--schema", data_dir / "keystroke_schema.yaml",
                 "--samples", data_dir / "keystrokes.csv",
                 "--bins", "impairment=equal-width:4",
                 "--bins", "keystroke_interval=quantile:2",
                 "--out", out_path)
        assert out == f"wrote 300 rows to {out_path}\n"
        lines = out_path.read_text().splitlines()
        assert lines[0] == "sex,impairment,keystroke_interval"
        assert len(lines) == 301
        cells = {line.split(",")[1] for line in lines[1:]}
        assert cells <= {"bin0", "bin1", "bin2", "bin3"}

    def test_stdout_when_no_out_flag(self, runner, data_dir):
        out = ok(runner, "discretize", "--schema", data_dir / "keystroke_schema.yaml",
                 "--samples", data_dir / "keystrokes.csv",
                 "--bins", "impairment=cuts:0.5",
                 "--bins", "keystroke_interval=equal-width:3")
        assert out.startswith("sex,impairment,keystroke_interval\n")

    @pytest.mark.parametrize("name", ["typo", "sex"])
    def test_rule_for_a_non_continuous_name_exits_3(self, runner, data_dir, name):
        result = invoke(runner, "discretize",
                        "--schema", data_dir / "keystroke_schema.yaml",
                        "--samples", data_dir / "keystrokes.csv",
                        "--bins", "impairment=equal-width:4",
                        "--bins", "keystroke_interval=quantile:2",
                        "--bins", f"{name}=quantile:3")
        assert result.exit_code == 3
        assert result.stderr == (
            f"error: binning rule given for {name!r}, which is not a continuous attribute\n"
        )

    def test_repeated_rule_exits_3_naming_it(self, runner, data_dir):
        result = invoke(runner, "discretize",
                        "--schema", data_dir / "keystroke_schema.yaml",
                        "--samples", data_dir / "keystrokes.csv",
                        "--bins", "impairment=equal-width:4",
                        "--bins", "impairment=equal-width:2")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: --bins is given twice for 'impairment'\n"

    def test_bad_bins_flag(self, runner, data_dir):
        result = invoke(runner, "discretize",
                        "--schema", data_dir / "keystroke_schema.yaml",
                        "--samples", data_dir / "keystrokes.csv",
                        "--bins", "impairment=median")
        assert result.exit_code == 3
        assert "NAME=METHOD:ARGS" in result.stderr

    def test_cells_with_commas_quotes_and_line_breaks_read_back(self, runner, tmp_path):
        attributes = (
            '  - {name: "g,h", kind: categorical, levels: ["a,b", "\\"q", "c\\nd"]}\n'
            "  - {name: age, kind: %s}\n"
            "observable: {name: x, kind: categorical, levels: [u, v]}\n"
        )
        schema, binned = tmp_path / "schema.yaml", tmp_path / "binned.yaml"
        schema.write_text("attributes:\n" + attributes % "continuous, range: [0, 10]")
        binned.write_text("attributes:\n" + attributes % "categorical, levels: [bin0, bin1]")
        samples = tmp_path / "samples.csv"
        with samples.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["g,h", "age", "x"])
            writer.writerows((level, age, x) for level in ("a,b", '"q', "c\nd")
                             for age in (1.5, 8.0) for x in "uv")
        out = tmp_path / "out.csv"
        ok(runner, "discretize", "--schema", schema, "--samples", samples,
           "--bins", "age=cuts:5", "--out", out)
        expected = discretize(load_samples(samples, load_schema(schema)),
                              {"age": BinRule.explicit([5.0])})
        assert load_samples(out, load_schema(binned)).rows == expected.rows
        assert ok(runner, "estimate", "--schema", binned, "--samples", out).startswith(
            "method = plug-in-counts\nn = 12\n")


class TestPriceCommand:
    def test_linear_golden(self, runner, data_dir):
        out = ok(runner, "price", "--policy", data_dir / "policy_linear.yaml",
                 "--leakage", "0.036")
        assert out == (
            "rule = linear\n"
            "leakage = 0.036000 nats\n"
            "production = 0.0010 USD\n"
            "surcharge = 360.0000 USD\n"
            "total = 360.0010 USD\n"
        )

    def test_negative_zero_leakage_prices_as_zero(self, runner, data_dir):
        out = ok(runner, "price", "--policy", data_dir / "policy_linear.yaml",
                 "--leakage", "-0.0")
        assert out == (
            "rule = linear\n"
            "leakage = 0.000000 nats\n"
            "production = 0.0010 USD\n"
            "surcharge = 0.0000 USD\n"
            "total = 0.0010 USD\n"
        )

    def test_linear_leakage_in_bits(self, runner, data_dir):
        doc = json.loads(
            ok(runner, "price", "--policy", data_dir / "policy_linear.yaml",
               "--leakage", "0.136", "--unit", "bits", "--format", "machine")
        )
        assert doc["leakage"] == 0.136
        assert doc["leakage_nats"] == pytest.approx(0.136 * LN2, rel=1e-12)

    def test_exposure_golden(self, runner, data_dir):
        out = ok(runner, "price", "--policy", data_dir / "policy_exposure.yaml",
                 "--table", data_dir / "timeofday_sex.csv")
        assert "rule = exposure\n" in out
        assert "surcharge = 62255.6249 USD\n" in out
        assert "total = 62255.6259 USD\n" in out

    def test_weighted_golden(self, runner, data_dir):
        out = ok(runner, "price", "--policy", data_dir / "policy_weighted.yaml",
                 "--table", data_dir / "timeofday_sex_disability.csv",
                 "--schema", data_dir / "profile_schema.yaml")
        lines = out.splitlines()
        assert lines[0] == "rule = weighted"
        assert lines[1].startswith("leakage[sex] = ")
        assert lines[2].startswith("leakage[disability] = ")
        assert lines[3].startswith("leakage[sex+disability] = ")
        assert "surcharge = 551.5294 USD" in lines
        assert "total = 551.5304 USD" in lines

    def test_weighted_machine_subsets(self, runner, data_dir):
        out = ok(runner, "price", "--policy", data_dir / "policy_weighted.yaml",
                 "--table", data_dir / "timeofday_sex_disability.csv",
                 "--schema", data_dir / "profile_schema.yaml", "--format", "machine")
        # the demo's machine output is pinned byte for byte
        assert out == (
            '{"rule": "weighted", "leakage": 0.18176262707243257, "unit": "nats", '
            '"leakage_nats": 0.18176262707243257, "production": "0.0010", '
            '"surcharge": "551.5294", "total": "551.5304", "currency": "USD", '
            '"subsets": {"sex": 0.08630462173553415, '
            '"disability": 0.004021743230482353, '
            '"sex+disability": 0.09143626210641607}}\n'
        )
        full = oracles.mi_nats(oracles.INTERSECT_TABLE)
        assert json.loads(out)["subsets"]["sex+disability"] == pytest.approx(full, rel=1e-12)

    def test_null_currency_exits_3(self, runner, tmp_path):
        policy = tmp_path / "policy.yaml"
        policy.write_text("c_p: 0.001\nlambda: 10000\ncurrency: null\n")
        result = invoke(runner, "price", "--policy", policy, "--leakage", "0.036")
        assert result.exit_code == 3, result.output
        assert result.stderr == (
            f"error: {policy}: currency must be a non-blank string, got None\n"
        )

    def test_negative_production_cost_names_the_policy(self, runner, tmp_path):
        policy = tmp_path / "policy.yaml"
        policy.write_text("c_p: -1\nlambda: 10000\n")
        result = invoke(runner, "price", "--policy", policy, "--leakage", "0.036")
        assert result.exit_code == 3, result.output
        assert result.stderr == f"error: {policy}: production cost must be nonnegative\n"

    def test_weighted_rule_with_a_scalar_policy_exits_3(self, runner, data_dir):
        result = invoke(runner, "price", "--policy", data_dir / "policy_linear.yaml",
                        "--rule", "weighted",
                        "--table", data_dir / "timeofday_sex_disability.csv",
                        "--schema", data_dir / "profile_schema.yaml")
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert result.stderr == "error: weighted pricing needs per-subset rates in the policy\n"

    # an unknown name, names out of schema order, a repeated name, an empty name
    @pytest.mark.parametrize("key", ["ethnicity", "disability+sex", "sex+sex", "sex+"])
    def test_unresolvable_subset_key_exits_3(self, runner, data_dir, tmp_path, key):
        policy = tmp_path / "policy.yaml"
        policy.write_text(yaml.safe_dump({"c_p": 0.001, "lambda": {"sex": 1000, key: 10}}))
        result = invoke(runner, "price", "--policy", policy,
                        "--table", data_dir / "timeofday_sex_disability.csv",
                        "--schema", data_dir / "profile_schema.yaml")
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: no leakage entry for priced subset {key!r}\n"

    def test_fourteen_attributes_price_against_the_oracle(self, runner, tmp_path):
        # the full report stops at 12 attributes; price computes the priced subsets alone
        m = 14
        names = [f"a{i}" for i in range(m)]
        schema = tmp_path / "schema.yaml"
        schema.write_text(yaml.safe_dump({
            "attributes": [{"name": n, "kind": "categorical", "levels": ["0", "1"]}
                           for n in names],
            "observable": {"name": "x", "kind": "categorical", "levels": ["l", "r"]},
        }))
        combos = list(itertools.product("01", repeat=m))
        raw = np.random.default_rng(14).random((2, len(combos)))
        cells = (raw / raw.sum()).tolist()
        table = tmp_path / "table.csv"
        table.write_text("\n".join(
            ["x," + ",".join("+".join(c) for c in combos)]
            + [f"{x}," + ",".join(repr(v) for v in row) for x, row in zip("lr", cells)]
        ) + "\n")
        priced = [[3], [0, 13], [2, 5, 11], list(range(m))]
        policy = tmp_path / "policy.yaml"
        policy.write_text(yaml.safe_dump({
            "c_p": 0.001, "lambda": {"+".join(names[i] for i in kept): 100 for kept in priced},
        }, sort_keys=False))
        out = ok(runner, "price", "--policy", policy, "--table", table, "--schema", schema)
        shown = [line for line in out.splitlines() if line.startswith("leakage[")]
        expected = []
        for kept in priced:
            groups = {}
            for j, combo in enumerate(combos):
                groups.setdefault(tuple(combo[i] for i in kept), []).append(j)
            mi = oracles.mi_nats(oracles.collapse_columns(cells, list(groups.values())))
            key = "+".join(names[i] for i in kept)
            expected.append(f"leakage[{key}] = {mi:.6f} nats")
        assert shown == expected
        with pytest.raises(ValidationError, match="refusing m=14"):
            intersection_leakage_report(read_joint_table(table), load_schema(schema))

    def test_linear_requires_leakage(self, runner, data_dir):
        result = invoke(runner, "price", "--policy", data_dir / "policy_linear.yaml")
        assert result.exit_code == 3
        assert "--leakage" in result.stderr

    def test_exposure_requires_table(self, runner, data_dir):
        result = invoke(runner, "price", "--policy", data_dir / "policy_exposure.yaml")
        assert result.exit_code == 3
        assert "--table" in result.stderr

    def test_separator_in_a_protected_name_exits_3(self, runner, data_dir, tmp_path):
        # with a+b as an attribute, its leakage and that of {a, b} would share one key
        schema = tmp_path / "schema.yaml"
        schema.write_text(yaml.safe_dump({
            "attributes": [{"name": n, "kind": "categorical", "levels": ["0", "1"]}
                           for n in ("a", "b", "a+b")],
            "observable": {"name": "x", "kind": "categorical", "levels": ["l", "r"]},
        }))
        result = invoke(runner, "price", "--policy", data_dir / "policy_weighted.yaml",
                        "--table", data_dir / "timeofday_sex_disability.csv",
                        "--schema", schema)
        assert result.exit_code == 3
        assert "'a+b' contains '+'" in result.stderr

    def test_rule_override(self, runner, data_dir):
        doc = json.loads(
            ok(runner, "price", "--policy", data_dir / "policy_calibrated.yaml",
               "--rule", "exposure", "--table", data_dir / "timeofday_sex.csv",
               "--format", "machine")
        )
        assert doc["rule"] == "exposure"
        assert doc["surcharge"] == "62255.6249"


class TestCurveCommand:
    def test_linear_curve_rows(self, runner, data_dir):
        out = ok(runner, "curve", "--policy", data_dir / "policy_linear.yaml",
                 "--stop", "0.1", "--step", "0.05")
        assert out == (
            "leakage,value\n"
            "0.000000,0.0010\n"
            "0.050000,500.0010\n"
            "0.100000,1000.0010\n"
        )

    def test_exposure_curve_endpoints(self, runner, data_dir):
        out = ok(runner, "curve", "--policy", data_dir / "policy_exposure.yaml",
                 "--rule", "exposure", "--stop", "5.3", "--step", "1.325",
                 "--entropy", "5.3")
        rows = out.splitlines()
        assert rows[0] == "leakage,value"
        assert rows[1] == "0.000000,0.0010"
        assert rows[-1] == "5.300000,500000.0010"
        assert len(rows) == 6

    def test_out_flag_writes_file(self, runner, data_dir, tmp_path):
        out_path = tmp_path / "curve.csv"
        msg = ok(runner, "curve", "--policy", data_dir / "policy_linear.yaml",
                 "--stop", "0.1", "--step", "0.05", "--out", out_path)
        assert msg == f"wrote 3 points to {out_path}\n"
        assert out_path.read_text().startswith("leakage,value\n")

    def test_too_many_points_exits_3(self, runner, data_dir):
        result = invoke(runner, "curve", "--policy", data_dir / "policy_linear.yaml",
                        "--stop", "1e9", "--step", "1")
        assert result.exit_code == 3
        assert "more than 100000 points" in result.stderr

    def test_exposure_needs_entropy(self, runner, data_dir):
        result = invoke(runner, "curve", "--policy", data_dir / "policy_exposure.yaml",
                        "--rule", "exposure", "--stop", "1.0", "--step", "0.5")
        assert result.exit_code == 3
        assert "entropy" in result.stderr

    def test_exposure_curve_never_prices_above_full_disclosure(self, runner, tmp_path):
        # 5.300000000005 nats is within round-off of H = 5.3, so the curve
        # snaps its ratio to 1 as the exposure rule does: exactly the ceiling
        policy = tmp_path / "policy.yaml"
        policy.write_text("c_p: 0.001\npi_max: 1000000000\n")
        out = ok(runner, "curve", "--policy", policy, "--rule", "exposure",
                 "--entropy", "5.3", "--start", "5.300000000005",
                 "--stop", "5.300000000005", "--step", "1")
        assert out == "leakage,value\n5.300000,1000000000.0010\n"

    def test_fine_step_prices_every_point_at_the_linear_formula(self, runner, data_dir):
        # at leakage 2 a step of 1e-7 is about 2e8 ulps, so the float spacing
        # of the points varies by a few parts in 1e9 while each price stays exact
        out = ok(runner, "curve", "--policy", data_dir / "policy_calibrated.yaml",
                 "--start", "2", "--stop", "2.01", "--step", "0.0000001")
        header, *rows = out.splitlines()
        assert header == "leakage,value"
        assert len(rows) == 100000
        rate = 94339.62264150944
        expected = []
        for i in range(len(rows)):
            nats = 2.0 + i * 1e-7
            price = oracles.linear_price(Decimal("0.001"), rate, nats)
            expected.append(f"{nats:.6f},{price.quantize(oracles.MONEY_GRID, ROUND_HALF_EVEN)}")
        assert rows == expected

    def test_step_too_small_to_separate_the_points_exits_3(self, runner, tmp_path):
        # near 1e17 floats are 16 apart, so start + 8 rounds back onto start
        policy = tmp_path / "policy.yaml"
        policy.write_text("c_p: 0\nlambda: 1\n")
        result = invoke(runner, "curve", "--policy", policy, "--start", "1e17",
                        "--stop", "100000000000000032", "--step", "8")
        assert result.exit_code == 3, result.output
        assert result.stderr == (
            "error: step 8.0 is too small to separate the points of "
            "[1e+17, 1.0000000000000003e+17] as floats\n"
        )
        assert result.stdout == ""


class TestAuditCommand:
    def audit_args(self, data_dir, ledger_path):
        return ("audit", "--policy", data_dir / "policy_calibrated.yaml",
                "--events", data_dir / "events.jsonl", "--out", ledger_path)

    def test_golden_report(self, runner, data_dir, tmp_path):
        out = ok(runner, *self.audit_args(data_dir, tmp_path / "ledger.jsonl"))
        lines = out.splitlines()
        assert lines[0].startswith("session ")
        assert len(lines[0]) == len("session ") + 16
        assert lines[1] == "decision: granted"
        assert "total surcharge: 3773.5850 USD" in out
        assert "grand total:     3773.5860 USD" in out
        assert out.rstrip().endswith("correlated events are not adjusted for")

    def test_byte_determinism(self, runner, data_dir, tmp_path):
        first = ok(runner, *self.audit_args(data_dir, tmp_path / "a.jsonl"))
        second = ok(runner, *self.audit_args(data_dir, tmp_path / "b.jsonl"))
        assert first == second
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_session_id_tracks_content(self, runner, data_dir, tmp_path):
        baseline = ok(runner, *self.audit_args(data_dir, tmp_path / "a.jsonl"))
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"observable": "other", "leakage": 0.02}\n{"decision": "granted"}\n'
        )
        changed = ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                     "--events", events, "--out", tmp_path / "b.jsonl")
        assert baseline.splitlines()[0] != changed.splitlines()[0]

    def test_decision_flag_conflicts_with_stream(self, runner, data_dir, tmp_path):
        result = invoke(runner, *self.audit_args(data_dir, tmp_path / "ledger.jsonl"),
                        "--decision", "granted")
        assert result.exit_code == 3
        assert "decision given twice" in result.stderr

    def test_stream_without_decision_needs_flag(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text('{"observable": "obs", "leakage": 0.01}\n')
        args = ("audit", "--policy", data_dir / "policy_calibrated.yaml",
                "--events", events, "--out", tmp_path / "ledger.jsonl")
        result = invoke(runner, *args)
        assert result.exit_code == 3
        assert "--decision" in result.stderr
        out = ok(runner, *args, "--decision", "denied")
        assert "decision: denied" in out

    def test_session_id_tracks_the_decision_flag(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text('{"observable": "obs", "leakage": 0.01}\n')
        args = ("audit", "--policy", data_dir / "policy_calibrated.yaml", "--events", events)
        granted = ok(runner, *args, "--out", tmp_path / "g.jsonl", "--decision", "granted")
        denied = ok(runner, *args, "--out", tmp_path / "d.jsonl", "--decision", "denied")
        assert granted.splitlines()[0] != denied.splitlines()[0]
        # a stream that carries its decision keeps the id of its files alone
        events.write_text('{"observable": "obs", "leakage": 0.01}\n{"decision": "denied"}\n')
        digest = hashlib.sha256()
        for path in (data_dir / "policy_calibrated.yaml", events):
            digest.update(path.read_bytes() + b"\x00")
        out = ok(runner, *args, "--out", tmp_path / "s.jsonl")
        assert out.splitlines()[0] == f"session {digest.hexdigest()[:16]}"

    @pytest.mark.parametrize("key", ["observable", "timestamp"])
    @pytest.mark.parametrize("value", [None, 7, ["t"]])
    def test_non_string_event_field_exits_3(self, runner, data_dir, tmp_path, key, value):
        event = {"observable": "obs", "leakage": 0.01, key: value}
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(event) + '\n{"decision": "granted"}\n')
        result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                        "--events", events, "--out", tmp_path / "ledger.jsonl")
        assert result.exit_code == 3, result.output
        assert result.stderr == (
            f"error: {events}:1: event {key!r} must be a string, got {value!r}\n"
        )
        assert not (tmp_path / "ledger.jsonl").exists()

    def test_decision_only_stream_prices_at_production_cost(
        self, runner, data_dir, tmp_path
    ):
        events = tmp_path / "events.jsonl"
        events.write_text('{"decision": "granted"}\n')
        out = ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                 "--events", events, "--out", tmp_path / "ledger.jsonl")
        assert "grand total:     0.0010 USD" in out

    def test_event_after_decision_rejected(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"decision": "granted"}\n{"observable": "obs", "leakage": 0.01}\n'
        )
        result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                        "--events", events, "--out", tmp_path / "ledger.jsonl")
        assert result.exit_code == 3
        assert "event after the decision" in result.stderr

    def test_default_timestamp_is_epoch(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"observable": "obs", "leakage": 0.01}\n{"decision": "granted"}\n'
        )
        ledger = tmp_path / "ledger.jsonl"
        ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
           "--events", events, "--out", ledger)
        event = json.loads(ledger.read_text().splitlines()[1])
        assert event["timestamp"] == "1970-01-01T00:00:00+00:00"

    def test_empty_timestamp_is_byte_reproducible(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"observable": "obs", "leakage": 0.01, "timestamp": ""}\n'
            '{"decision": "granted"}\n'
        )
        args = ("audit", "--policy", data_dir / "policy_calibrated.yaml",
                "--events", events, "--out")
        first = ok(runner, *args, tmp_path / "a.jsonl")
        second = ok(runner, *args, tmp_path / "b.jsonl")
        assert first == second
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        event = json.loads((tmp_path / "a.jsonl").read_text().splitlines()[1])
        assert event["timestamp"] == ""

    @pytest.mark.parametrize("value, shown", [
        ('"0.5"', "'0.5'"), ('"nan"', "'nan'"), ('"1e400"', "'1e400'"), ('""', "''"),
    ])
    def test_string_leakage_rejected(self, runner, data_dir, tmp_path, value, shown):
        events = tmp_path / "events.jsonl"
        events.write_text(
            f'{{"observable": "obs", "leakage": {value}}}\n{{"decision": "granted"}}\n'
        )
        result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                        "--events", events, "--out", tmp_path / "ledger.jsonl")
        assert result.exit_code == 3, result.output
        assert result.stderr == f"error: {events}:1: non-numeric leakage {shown}\n"
        assert result.stdout == ""
        assert not (tmp_path / "ledger.jsonl").exists()

    @pytest.mark.parametrize("value, shown", [("true", "True"), ("false", "False")])
    def test_boolean_leakage_rejected(self, runner, data_dir, tmp_path, value, shown):
        events = tmp_path / "events.jsonl"
        events.write_text(
            f'{{"observable": "obs", "leakage": {value}}}\n{{"decision": "granted"}}\n'
        )
        result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                        "--events", events, "--out", tmp_path / "ledger.jsonl")
        assert result.exit_code == 3, result.output
        assert f"{events}:1: non-numeric leakage {shown}" in result.stderr
        assert not (tmp_path / "ledger.jsonl").exists()

    def test_negative_zero_leakage_is_recorded_as_zero(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text('{"observable": "o", "leakage": -0.0}\n{"decision": "granted"}\n')
        ledger = tmp_path / "ledger.jsonl"
        out = ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                 "--events", events, "--out", ledger)
        assert '"leakage_nats": 0.0, "surcharge": "0.0000"' in ledger.read_text()
        assert "-0.0" not in out
        assert "  o                           0.000000      0.0000\n" in out

    @pytest.mark.parametrize("lines, error", [
        (['{"decision": "granted"}', '{"decision": "denied"}'],
         "2: session already closed (granted)"),
        (['{"decision": "maybe"}'],
         "1: decision must be one of ('granted', 'denied'), got 'maybe'"),
    ])
    def test_bad_decision_line_exits_3_naming_its_line(
        self, runner, data_dir, tmp_path, lines, error
    ):
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n")
        result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                        "--events", events, "--out", tmp_path / "ledger.jsonl")
        assert result.exit_code == 3, result.output
        assert result.stderr == f"error: {events}:{error}\n"
        assert not (tmp_path / "ledger.jsonl").exists()

    def test_bits_events_converted(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"observable": "obs", "leakage": 1.0, "unit": "bits"}\n'
            '{"decision": "granted"}\n'
        )
        ledger = tmp_path / "ledger.jsonl"
        ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
           "--events", events, "--out", ledger)
        event = json.loads(ledger.read_text().splitlines()[1])
        assert event["leakage_nats"] == pytest.approx(math.log(2), rel=1e-15)

    def test_session_id_hashes_the_bytes_of_crlf_bom_and_non_ascii_files(
        self, runner, tmp_path
    ):
        policy = tmp_path / "policy.yaml"
        policy.write_bytes("\ufeffc_p: 0.001\r\nlambda: 10000\r\n".encode())
        events = tmp_path / "events.jsonl"
        events.write_bytes(
            '{"observable": "caf\u00e9 \ufeff\u2615", "leakage": 0.01}\r\n'
            '{"decision": "granted"}\r\n'.encode()
        )
        out = ok(runner, "audit", "--policy", policy, "--events", events,
                 "--out", tmp_path / "ledger.jsonl")
        assert out.splitlines()[0] == "session 10eac660883f75d0"

    def test_events_file_may_start_with_a_byte_order_mark(self, runner, data_dir, tmp_path):
        marked = tmp_path / "events.jsonl"
        marked.write_bytes("\ufeff".encode() + (data_dir / "events.jsonl").read_bytes())
        outs = [ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                   "--events", events, "--out", tmp_path / f"{k}.jsonl", "--session-id", "s")
                for k, events in enumerate([data_dir / "events.jsonl", marked])]
        assert outs[0] == outs[1]
        assert (tmp_path / "0.jsonl").read_bytes() == (tmp_path / "1.jsonl").read_bytes()

    @pytest.mark.parametrize("session_id", [(), ("--session-id", "s")])
    def test_bad_line_wins_over_a_later_non_utf8_byte(self, runner, data_dir, tmp_path,
                                                      session_id):
        # the byte lies past the first read, so the line before it is checked first
        events = tmp_path / "events.jsonl"
        events.write_bytes(b'{"observable": "o", "leakage": -1}\n' + b" " * 10_000 + b"\n\xff\n")
        result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                        "--events", events, "--out", tmp_path / "ledger.jsonl",
                        "--decision", "granted", *session_id)
        assert result.exit_code == 3, result.output
        assert result.stderr == (
            f"error: {events}:1: information value must be nonnegative, got -1.0\n")

    def test_invalid_event_wins_over_an_unwritable_out(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text('{"observable": "obs", "leakage": -1}\n{"decision": "granted"}\n')
        result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                        "--events", events, "--out", tmp_path / "absent" / "ledger.jsonl")
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith(f"error: {events}:1: ")
        assert result.stdout == ""

    def test_machine_report(self, runner, data_dir, tmp_path):
        out = ok(runner, *self.audit_args(data_dir, tmp_path / "ledger.jsonl"),
                 "--format", "machine")
        doc = json.loads(out)
        assert doc["decision"] == "granted"
        assert doc["events"] == 2
        assert doc["grand_total"] == "3773.5860"

    @staticmethod
    def audit_at_rate(tmp, rate: float, leakages) -> tuple[object, dict]:
        """Audit ``leakages`` at ``rate`` per nat and no production cost; the
        result and the closure line of the ledger written."""
        policy, events, ledger = (Path(tmp) / name
                                  for name in ("policy.yaml", "events.jsonl", "ledger.jsonl"))
        policy.write_text(f"c_p: 0\nlambda: {rate!r}\n")
        events.write_text("".join(
            json.dumps({"observable": "obs", "leakage": nats}) + "\n" for nats in leakages
        ) + '{"decision": "granted"}\n')
        result = invoke(CliRunner(), "audit", "--policy", policy, "--events", events,
                        "--out", ledger, "--format", "machine")
        closure = json.loads(ledger.read_text().splitlines()[-1]) if ledger.exists() else {}
        return result, closure

    def test_large_rate_totals_the_recorded_surcharges(self, tmp_path):
        # the three floats sum to 0.30000000000000004, which at 1e16 per nat
        # prices 0.4 above the sum of the three recorded surcharges
        result, closure = self.audit_at_rate(tmp_path, 1e16, [0.1] * 3)
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        expected = oracles.ledger_surcharge(1e16, [0.1] * 3)
        assert str(expected) == "3000000000000000.0000"
        assert closure["total_surcharge"] == str(expected)
        assert json.loads(result.stdout)["total_surcharge"] == str(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(min_value=1e-6, max_value=1e18),
        leakages=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=50),
    )
    def test_any_rate_totals_the_recorded_surcharges(self, rate, leakages):
        with tempfile.TemporaryDirectory() as tmp:
            result, closure = self.audit_at_rate(tmp, rate, leakages)
        assert result.exit_code == 0, result.output
        expected = str(oracles.ledger_surcharge(rate, leakages))
        assert closure["total_surcharge"] == expected
        assert json.loads(result.stdout)["total_surcharge"] == expected


# Event lines with two faults each, after one good line, and the line and
# fault each stream is refused for, which also name the row's test: the checks
# run in a fixed order, so the message does not depend on how the stream is
# checked.
TWO_FAULT_EVENTS = [pytest.param(*row, id="-".join(row)) for row in [
    ('{"observable": "o", "bogus": 1}', "2: unknown event key 'bogus'"),
    ('{"observable": 5, "leakage": 1.0, "unit": "furlongs"}',
     "2: event 'observable' must be a string, got 5"),
    ('{"observable": "o", "leakage": true, "unit": "furlongs"}', "2: non-numeric leakage True"),
    ('{"observable": "o", "leakage": -1.0, "timestamp": 5}',
     "2: event 'timestamp' must be a string, got 5"),
    ('{"observable": "o", "leakage": -1.0, "unit": "furlongs"}',
     "2: unknown information unit 'furlongs'; expected one of ('nats', 'bits')"),
    ('{"observable": "o", "leakage": "nan", "unit": "bits "}', "2: non-numeric leakage 'nan'"),
    ('{"observable": 5}', "2: event needs 'observable' and 'leakage'"),
    ('{"leakage": "lots", "timestamp": 5}', "2: event needs 'observable' and 'leakage'"),
    ('{"observable": 5, "leakage": "lots"}', "2: non-numeric leakage 'lots'"),
    (f'{{"observable": "o", "leakage": {10 ** 400}, "unit": "furlongs"}}',
     "2: unknown information unit 'furlongs'; expected one of ('nats', 'bits')"),
    (f'{{"observable": "o", "leakage": {10 ** 400}}}',
     "2: information value must be finite, got inf"),
    (f'{{"observable": "o", "leakage": {-10 ** 400}}}',
     "2: information value must be finite, got -inf"),
    ('{"observable": "o", "leakage": [1], "timestamp": null}', "2: non-numeric leakage [1]"),
    ('{"observable": "o", "leakage": 1e999, "timestamp": null}',
     "2: event 'timestamp' must be a string, got None"),
    ('{"observable": "o", "leakage": 1e999, "unit": "bits"}',
     "2: information value must be finite, got inf"),
    ('{"observable": "o", "leakage": -0.5, "unit": "bits"}',
     "2: information value must be nonnegative, got -0.5"),
    ('{"observable": "o", "leakage": 1e300}\n{"observable": 5}',
     "2: money amount 9.433962264150944E+304 is too large for the four-decimal grid"),
    ('{"decision": "maybe", "extra": 1}', "2: unknown decision-line key 'extra'"),
    ('{"decision": "granted"}\n{"observable": "o", "bogus": 1}',
     "3: event after the decision line"),
]]


@pytest.mark.parametrize("lines, error", TWO_FAULT_EVENTS)
def test_each_event_line_reports_its_first_fault(runner, data_dir, tmp_path, lines, error):
    events = tmp_path / "events.jsonl"
    events.write_text('{"observable": "fine", "leakage": 0.5}\n' + lines + "\n")
    result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                    "--events", events, "--out", tmp_path / "ledger.jsonl",
                    "--decision", "granted")
    assert result.exit_code == 3, result.output
    assert result.stderr == f"error: {events}:{error}\n"
    assert result.stdout == ""
    assert not (tmp_path / "ledger.jsonl").exists()


class TestSpoolBatches:
    """``audit`` spools rows and ledger lines a batch of events at a time; a
    stream of any length gives what the library gives for the same events."""

    @staticmethod
    def events(n: int, bits_every: int = 0):
        for i in range(n):
            unit = "bits" if bits_every and i % bits_every == 0 else "nats"
            yield (f"obs {i % 7}", i % 97 / 1000, unit, f"2024-05-01T09:{i % 60:02d}:00+00:00")

    @pytest.mark.parametrize("n, bits_every", [
        (_SPOOL_BATCH - 1, 0), (_SPOOL_BATCH, 0), (_SPOOL_BATCH + 1, 0), (_SPOOL_BATCH + 1, 3),
    ])
    def test_ledger_and_report_match_the_library(self, runner, data_dir, tmp_path, n, bits_every):
        policy_path = data_dir / "policy_calibrated.yaml"
        events = tmp_path / "events.jsonl"
        with events.open("w") as fh:
            for observable, leakage, unit, stamp in self.events(n, bits_every):
                fh.write(json.dumps({"observable": observable, "leakage": leakage,
                                     "unit": unit, "timestamp": stamp}) + "\n")
            fh.write('{"decision": "granted"}\n')
        ledger_path = tmp_path / "ledger.jsonl"
        audited = ok(runner, "audit", "--policy", policy_path, "--events", events,
                     "--out", ledger_path, "--session-id", "batches")

        ledger = open_session(load_policy(policy_path), "batches")
        for observable, leakage, unit, stamp in self.events(n, bits_every):
            record_event(ledger, observable, InfoQuantity(leakage, unit), timestamp=stamp)
        decide(ledger, "granted")
        write_ledger(ledger, tmp_path / "library.jsonl")
        assert ledger_path.read_bytes() == (tmp_path / "library.jsonl").read_bytes()
        assert ok(runner, "report", "--ledger", ledger_path) == audited
        assert audited.count("\n  ") == 1 + n  # the column heads, then a row per event

    def test_failing_stream_leaves_out_as_it_was(self, runner, data_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"observable": o, "leakage": v, "unit": u, "timestamp": t}) + "\n"
            for o, v, u, t in self.events(_SPOOL_BATCH + 1)
        ) + '{"observable": "o", "leakage": -1}\n{"decision": "granted"}\n')
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("the ledger before\n")
        result = invoke(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                        "--events", events, "--out", ledger)
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith(f"error: {events}:{_SPOOL_BATCH + 2}: ")
        assert result.stdout == ""
        assert ledger.read_text() == "the ledger before\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["events.jsonl", "ledger.jsonl"]


class TestReportCommand:
    def test_round_trip_matches_audit_output(self, runner, data_dir, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        audited = ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                     "--events", data_dir / "events.jsonl", "--out", ledger)
        reported = ok(runner, "report", "--ledger", ledger)
        assert reported == audited

    def test_machine_round_trip(self, runner, data_dir, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        audited = ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                     "--events", data_dir / "events.jsonl", "--out", ledger,
                     "--format", "machine")
        reported = ok(runner, "report", "--ledger", ledger, "--format", "machine")
        assert json.loads(reported) == json.loads(audited)

    def test_ledger_may_start_with_a_byte_order_mark(self, runner, tmp_path):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        plain.write_text(DEMO_LEDGER, encoding="utf-8")
        marked.write_text("\ufeff" + DEMO_LEDGER, encoding="utf-8")
        assert ok(runner, "report", "--ledger", marked) == ok(runner, "report", "--ledger", plain)
        assert read_ledger(marked) == read_ledger(plain)

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_bad_closure_line_prints_nothing(self, runner, tmp_path, fmt):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(DEMO_LEDGER.replace('{"decision": "granted"', '{"decision": "denied"'))
        result = invoke(runner, "report", "--ledger", ledger, "--format", fmt)
        assert result.exit_code == 2, result.output
        assert "contradicts header consent" in result.stderr
        assert result.stdout == ""

    def test_tampered_surcharge_and_grand_total_exit_3(self, runner, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(
            DEMO_LEDGER.replace('"surcharge": "1886.7925"', '"surcharge": "0.0000"', 1)
            .replace('"grand_total": "3773.5860"', '"grand_total": "1.0000"')
        )
        result = invoke(runner, "report", "--ledger", ledger)
        assert result.exit_code == 3, result.output
        assert result.stderr == (
            f"error: {ledger}:4: closure total_surcharge 3773.5850 does not match "
            "1886.7925 from the events\n"
        )
        assert result.stdout == ""
        with pytest.raises(ValidationError, match=":4: closure total_surcharge"):
            read_ledger(ledger)

    @pytest.mark.parametrize("field, value, code, shown", [
        ("total_leakage_nats", "0.04", 2,
         "malformed closure: total_leakage_nats must be a number, got '0.04'"),
        ("total_surcharge", "lots", 2,
         "malformed closure: total_surcharge must be a decimal string or number, got 'lots'"),
        ("grand_total", "NaN", 2, "malformed closure: grand_total must be a number, got 'NaN'"),
        ("grand_total", None, 2, "malformed closure: 'grand_total'"),
        ("total_leakage_nats", 0.04000000000000001, 3,
         "closure total_leakage_nats 0.04000000000000001 does not match 0.04 from the events"),
        ("total_surcharge", "3773.5851", 3,
         "closure total_surcharge 3773.5851 does not match 3773.5850 from the events"),
        ("grand_total", "3773.5850", 3,
         "closure grand_total 3773.5850 does not match 3773.5860 from the events"),
    ])
    def test_each_closure_total_is_checked(self, runner, tmp_path, field, value, code, shown):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(demo_ledger_with_closure(**{field: value}))
        result = invoke(runner, "report", "--ledger", ledger)
        assert result.exit_code == code, result.output
        assert result.stderr == f"error: {ledger}:4: {shown}\n"
        assert result.stdout == ""

    def test_closure_totals_compare_as_decimal_values(self, runner, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(
            demo_ledger_with_closure(total_surcharge="3773.585", grand_total=3773.586)
        )
        assert ok(runner, "report", "--ledger", ledger) == AUDIT_TEXT

    @settings(max_examples=25, deadline=None)
    @given(
        leakages=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
        which=st.integers(0, 5),
        amount=st.decimals(min_value=0, max_value=10**9, places=4),
    )
    def test_an_edited_event_surcharge_makes_report_exit_3(self, leakages, which, amount):
        with tempfile.TemporaryDirectory() as tmp:
            events, ledger = Path(tmp) / "events.jsonl", Path(tmp) / "ledger.jsonl"
            events.write_text("".join(
                json.dumps({"observable": "obs", "leakage": nats}) + "\n" for nats in leakages
            ) + '{"decision": "granted"}\n')
            ok(CliRunner(), "audit", "--policy", DATA / "policy_calibrated.yaml",
               "--events", events, "--out", ledger)
            lines = ledger.read_text().splitlines(True)
            line = 1 + which % len(leakages)
            event = json.loads(lines[line])
            assume(Decimal(event["surcharge"]) != amount)
            lines[line] = json.dumps({**event, "surcharge": str(amount)}) + "\n"
            ledger.write_text("".join(lines))
            result = invoke(CliRunner(), "report", "--ledger", ledger)
        assert result.exit_code == 3, result.output
        assert f"{ledger}:{len(lines)}: closure total_surcharge" in result.stderr

    def test_total_leakage_is_the_left_to_right_float_sum(self, runner, data_dir, tmp_path):
        leakages = [1.0] + [1e-16] * 10
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"observable": "obs", "leakage": nats}) + "\n" for nats in leakages
        ) + '{"decision": "granted"}\n')
        ledger = tmp_path / "ledger.jsonl"
        for fmt in ("text", "machine"):
            audited = ok(runner, "audit", "--policy", data_dir / "policy_calibrated.yaml",
                         "--events", events, "--out", ledger, "--format", fmt)
            assert ok(runner, "report", "--ledger", ledger, "--format", fmt) == audited
        stated = json.loads(ledger.read_text().splitlines()[-1])["total_leakage_nats"]
        assert stated == functools.reduce(operator.add, leakages) == 1.0
        assert stated != math.fsum(leakages)
        assert json.loads(audited)["total_leakage_nats"] == stated

    def test_header_rate_unit_other_than_per_nat_exits_2(self, runner, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(DEMO_LEDGER.replace('"per_nat"', '"per_bit"', 1))
        result = invoke(runner, "report", "--ledger", ledger)
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: {ledger}: malformed policy header: "
            "lambda_unit must be 'per_nat', got 'per_bit'\n"
        )
        assert result.stdout == ""

    @pytest.mark.parametrize("rate, shown", [
        ('"94339.62264150944"', "'94339.62264150944'"), ("[1.0]", "[1.0]"), ('{"x": 1}', "{'x': 1}"),
    ])
    def test_header_rate_that_is_no_json_number_exits_2(self, runner, tmp_path, rate, shown):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(DEMO_LEDGER.replace("94339.62264150944", rate, 1))
        result = invoke(runner, "report", "--ledger", ledger)
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: {ledger}: malformed policy header: lambda must be a number, got {shown}\n"
        )
        assert result.stdout == ""

    def test_pending_ledger_has_no_report(self, runner, data_dir, tmp_path):
        from leakpricer import InfoQuantity, PricingPolicy, open_session, record_event
        from leakpricer import write_ledger
        from leakpricer.infotheory import NATS

        ledger = open_session(
            PricingPolicy(production_cost=Decimal("0"), rate_per_nat=1.0), "pend"
        )
        record_event(ledger, "obs", InfoQuantity(0.1, NATS))
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        result = invoke(runner, "report", "--ledger", path)
        assert result.exit_code == 3
        assert "still open" in result.stderr


# Ledger event lines with two faults or oddities each: a name that stays with the
# row, the fields changed from the demo ledger's first event (as JSON text; None
# drops the field), the exit code, and the error after the ledger's path. The
# checks run in a fixed order, so the fault named does not depend on how the line
# is checked.
TWO_FAULT_LEDGER_EVENTS = [pytest.param(fields, code, error, id=f"{name}-{code}-{error}")
                           for name, fields, code, error in [
    ("fields0", dict(timestamp=None, observable="5"), 2, "2: malformed event: 'timestamp'"),
    ("fields1", dict(timestamp="5", observable="null"), 2,
     "2: malformed event: timestamp must be a string, got 5"),
    ("fields2", dict(observable="null", rule='"exposure"'), 2,
     "2: malformed event: observable must be a string, got None"),
    ("fields3", dict(rule=None, leakage_nats='"x"'), 2, "2: malformed event: 'rule'"),
    ("fields4", dict(rule='"exposure"', leakage_nats='"0.02"'), 2,
     "2: malformed event: rule must be 'linear', got 'exposure'"),
    ("fields5", dict(leakage_nats=None, surcharge=None), 2, "2: malformed event: 'leakage_nats'"),
    ("fields6", dict(surcharge=None, sequence=None), 2, "2: malformed event: 'surcharge'"),
    ("fields7", dict(leakage_nats="true", sequence=None), 2,
     "2: malformed event: leakage_nats must be a number, got True"),
    ("fields8", dict(sequence=None, surcharge='"lots"'), 2, "2: malformed event: 'sequence'"),
    ("fields9", dict(sequence=None, leakage_nats="1" + "0" * 400), 2,
     "2: malformed event: 'sequence'"),
    ("fields10", dict(leakage_nats="1" + "0" * 400, surcharge='"lots"'), 2,
     "2: malformed event: surcharge must be a decimal string or number, got 'lots'"),
    ("fields11", dict(surcharge='"lots"', sequence="0"), 2,
     "2: malformed event: surcharge must be a decimal string or number, got 'lots'"),
    ("fields12", dict(surcharge="[1]", leakage_nats="-1.0"), 2,
     "2: malformed event: surcharge must be a decimal string or number, got [1]"),
    ("fields13", dict(sequence="1.5", surcharge='"NaN"'), 3,
     "2: money amount must be finite, got Decimal('NaN')"),
    ("fields14", dict(sequence="1.5", surcharge='"sNaN"'), 3,
     "2: money amount must be finite, got Decimal('sNaN')"),
    ("fields15", dict(sequence="0", surcharge="1e999"), 3,
     "2: money amount must be finite, got Decimal('Infinity')"),
    ("fields16", dict(sequence="1.5", leakage_nats="-1.0"), 2,
     "2: malformed event: 'float' object cannot be interpreted as an integer"),
    ("fields17", dict(sequence='"1"', surcharge='"-1"'), 2,
     "2: malformed event: 'str' object cannot be interpreted as an integer"),
    ("fields18", dict(sequence="0", leakage_nats="NaN"), 3,
     "2: event sequence numbers start at 1"),
    ("fields19", dict(sequence="-1", surcharge='"-1"'), 3, "2: event sequence numbers start at 1"),
    ("fields20", dict(leakage_nats="NaN", surcharge='"-1"'), 3,
     "2: event leakage must be finite and nonnegative, got nan"),
    ("fields21", dict(leakage_nats="-0.5", sequence="5"), 3,
     "2: event leakage must be finite and nonnegative, got -0.5"),
    ("fields22", dict(surcharge='"-0.0001"', sequence="7"), 3,
     "2: event surcharge must be nonnegative"),
    ("fields23", dict(surcharge="-1e-05", sequence="2"), 3,
     "2: event surcharge must be nonnegative"),
    ("fields24", dict(sequence="2", surcharge='"0.0000"'), 2,
     "2: event sequence 2 breaks the dense 1..n order"),
    ("fields25", dict(sequence="true", leakage_nats="1"), 3,
     "4: closure total_leakage_nats 0.04 does not match 1.02 from the events"),
    ("fields26", dict(decision='"granted"', sequence="1.5"), 2, "3: event after the closure line"),
    ("fields27", dict(leakage_nats="1" + "0" * 400), 3,
     "2: event leakage must be finite and nonnegative, got inf"),
    ("fields28", dict(leakage_nats="-1" + "0" * 400), 3,
     "2: event leakage must be finite and nonnegative, got -inf"),
]]


@pytest.mark.parametrize("fields, code, error", TWO_FAULT_LEDGER_EVENTS)
def test_each_ledger_event_line_reports_its_first_fault(runner, tmp_path, fields, code, error):
    header, first, *rest = DEMO_LEDGER.splitlines(True)
    event = {key: json.dumps(value) for key, value in json.loads(first).items()}
    event = {key: text for key, text in {**event, **fields}.items() if text is not None}
    line = "{" + ", ".join(f'"{key}": {text}' for key, text in event.items()) + "}\n"
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text(header + line + "".join(rest))
    for fmt in ("text", "machine"):
        result = invoke(runner, "report", "--ledger", ledger, "--format", fmt)
        assert result.exit_code == code, result.output
        assert result.stderr == f"error: {ledger}:{error}\n"
        assert result.stdout == ""
    with pytest.raises((ParseError, ValidationError)) as caught:
        read_ledger(ledger)
    assert str(caught.value) == f"{ledger}:{error}"


DATA = Path(__file__).resolve().parent.parent / "data"

# Every input flag of every subcommand; {input} is the file under test.
INPUT_FLAGS = {
    "entropy --table": ("entropy", "--table", "{input}"),
    "mi --table": ("mi", "--table", "{input}"),
    "estimate --schema": ("estimate", "--schema", "{input}",
                          "--samples", "{data}/keystrokes.csv"),
    "estimate --samples": ("estimate", "--schema", "{data}/keystroke_schema.yaml",
                           "--samples", "{input}"),
    "price --policy": ("price", "--policy", "{input}", "--leakage", "0.1"),
    "audit --policy": ("audit", "--policy", "{input}", "--events", "{data}/events.jsonl",
                       "--out", "{tmp}/ledger.jsonl"),
    "audit --events": ("audit", "--policy", "{data}/policy_calibrated.yaml",
                       "--events", "{input}", "--out", "{tmp}/ledger.jsonl"),
    "report --ledger": ("report", "--ledger", "{input}"),
}
CSV_FLAGS = ("entropy --table", "mi --table", "estimate --samples")

FUZZ_SCHEMA = ProfileSchema(
    attributes=(AttributeSpec.categorical("group", ["a", "b"]),),
    observable=AttributeSpec.continuous("score", 0.0, 1.0),
)
FUZZ_READERS = (
    load_schema,
    lambda path: load_samples(path, FUZZ_SCHEMA),
    read_joint_table,
    load_policy,
    read_ledger,
)
# keys the input formats know, so that fuzzed records reach past the key checks
FORMAT_KEYS = (
    "session", "policy", "consent", "c_p", "lambda", "lambda_unit", "pi_max",
    "currency", "sequence", "timestamp", "observable", "leakage_nats", "surcharge",
    "rule", "decision", "leakage", "unit", "attributes", "name", "kind", "levels",
    "range",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["nats", "bits", "granted", "categorical", "continuous", "1.5"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FORMAT_KEYS) | st.text(max_size=4) | st.integers(),
                      inner, max_size=5),
    max_leaves=12,
)
JSONISH_TEXT = (
    st.lists(JSON_VALUES.map(json.dumps), max_size=4).map("\n".join)
    | JSON_VALUES.map(yaml.safe_dump)
    | st.text(alphabet='{}[]":,-.0123456789eE \n\tabnul', max_size=60)
)
# inputs that once ended in a traceback from one of the readers
HUGE_INT = b"9" * 400
CRASHERS = (
    b"c_p: 1\n1: 2\nfoo: 3\n",
    b"c_p: 1\nlambda: " + HUGE_INT + b"\n",
    b"attributes:\n  - {name: g, kind: continuous, range: [0, " + HUGE_INT + b"]}\n"
    b"observable: {name: o, kind: categorical, levels: [a]}\n",
    b"attributes:\n  - {name: [g], kind: categorical, levels: [a]}\n"
    b"  - {name: [g], kind: categorical, levels: [a]}\n"
    b"observable: {name: o, kind: categorical, levels: [a]}\n",
    b"c_p: 2001-13-01\n",
    b'{"observable": "o", "leakage": 0}\n' + b"[" * 1000 + b"]" * 1000 + b"\n",
    b'{"session": "s", "policy": {"c_p": "0", "lambda": "abc"}}\n',
    b'{"session": "s", "policy": {"c_p": "0", "lambda": 1}}\n5\n',
    b'{"observable": "o", "leakage": ' + HUGE_INT + b"}\n",
    b'{"observable": "o", "leakage": ' + b"9" * 5000 + b"}\n",
)
FILE_CONTENTS = st.binary(max_size=80) | JSONISH_TEXT.map(str.encode)


def assert_only_package_errors(content: bytes) -> None:
    """Written as each input file, ``content`` makes every reader return or
    raise a package error, and ``audit --events`` exit 0, 2 or 3."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        for reader in FUZZ_READERS:
            try:
                reader(path)
            except (ParseError, ValidationError):
                pass
        result = CliRunner().invoke(main, [
            "audit", "--policy", str(DATA / "policy_calibrated.yaml"),
            "--events", str(path), "--out", str(Path(tmp) / "ledger.jsonl"),
            "--decision", "granted",
        ])
        assert result.exit_code in (0, 2, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


# the commands that write an --out file, each without its --out flag
OUT_COMMANDS = {
    "audit": ["audit", "--policy", "{data}/policy_calibrated.yaml",
              "--events", "{data}/events.jsonl"],
    "curve": ["curve", "--policy", "{data}/policy_linear.yaml", "--stop", "1", "--step", "0.5"],
    "discretize": ["discretize", "--schema", "{data}/keystroke_schema.yaml",
                   "--samples", "{data}/keystrokes.csv", "--bins", "impairment=equal-width:2",
                   "--bins", "keystroke_interval=equal-width:2"],
}


# every float-valued option, as (command line before the flag, the flag, ARG
# template); {v} is the non-finite value
FLOAT_FLAGS = [
    (["price", "--policy", "{data}/policy_linear.yaml"], "--leakage", "{v}"),
    (["calibrate", "--entropy", "1"], "--pi-max", "{v}"),
    (["calibrate", "--pi-max", "100"], "--entropy", "{v}"),
    (["curve", "--policy", "{data}/policy_linear.yaml", "--stop", "1", "--step", "0.5"],
     "--start", "{v}"),
    (["curve", "--policy", "{data}/policy_linear.yaml", "--step", "0.5"], "--stop", "{v}"),
    (["curve", "--policy", "{data}/policy_linear.yaml", "--stop", "1"], "--step", "{v}"),
    (["curve", "--policy", "{data}/policy_exposure.yaml", "--rule", "exposure",
      "--stop", "1", "--step", "0.5"], "--entropy", "{v}"),
    (["estimate", "--schema", "{data}/keystroke_schema.yaml",
      "--samples", "{data}/keystrokes.csv"], "--bandwidth", "impairment={v}"),
    (["discretize", "--schema", "{data}/keystroke_schema.yaml",
      "--samples", "{data}/keystrokes.csv", "--bins", "keystroke_interval=equal-width:2"],
     "--bins", "impairment=cuts:0.5,{v}"),
]


class TestYamlInputs:
    def test_clock_and_boolean_word_levels_estimate(self, runner, tmp_path):
        schema = tmp_path / "schema.yaml"
        schema.write_text(
            "attributes:\n  - {name: smoker, kind: categorical, levels: [yes, no]}\n"
            "observable: {name: clock, kind: categorical, levels: [09:30, 17:45, 0123]}\n"
        )
        samples = tmp_path / "samples.csv"
        samples.write_text("smoker,clock\nyes,09:30\nno,17:45\nyes,0123\nno,09:30\n")
        out = ok(runner, "estimate", "--schema", schema, "--samples", samples)
        assert "method = plug-in-counts" in out

    @pytest.mark.parametrize("args, text, error", [
        (["price", "--leakage", "0.036", "--policy"],
         "c_p: 0.001\nlambda: 10000\nlambda: 1\n", ":3: repeated key 'lambda'"),
        (["price", "--leakage", "0.036", "--policy"],
         "c_p: 0.001\nlambda:\n  sex: 1\n  sex: 2\n", ":4: repeated key 'sex'"),
        (["estimate", "--samples", "{data}/keystrokes.csv", "--schema"],
         "attributes:\n  - {name: a, kind: categorical, levels: [x], name: b}\n",
         ":2: repeated key 'name'"),
    ], ids=["policy", "subset-rates", "schema-attribute"])
    def test_repeated_key_exits_2_naming_its_line(self, runner, tmp_path,
                                                  args, text, error):
        path = tmp_path / "input.yaml"
        path.write_text(text)
        result = invoke(runner, *(arg.format(data=DATA) for arg in args), path)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: {path}{error}\n"

    @pytest.mark.parametrize("text, line", [
        ("c_p: [0.001\n", 2), ("c_p: 0.001\n  lambda: 1\n", 2),
        ("c_p: 0.001\nlambda: \x01\n", 2), ("c_p: *rate\n", 1),
    ], ids=["unclosed", "indent", "control-character", "alias"])
    def test_invalid_document_names_its_line(self, runner, tmp_path, text, line):
        path = tmp_path / "policy.yaml"
        path.write_text(text)
        result = invoke(runner, "price", "--leakage", "0.036", "--policy", path)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: {path}:{line}: invalid document: ")
        assert result.stderr.count("\n") == 1
        assert "<unicode string>" not in result.stderr

    @pytest.mark.parametrize("depth", [1000, 100_000])
    def test_deep_nesting_exits_2(self, runner, tmp_path, depth):
        path = tmp_path / "policy.yaml"
        path.write_text("[" * depth + "]" * depth)
        result = invoke(runner, "price", "--leakage", "0.036", "--policy", path)
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {path}: invalid document: nested too deeply\n"

    # a key is text as written, so ~ is no null there, and keys sort as text
    @pytest.mark.parametrize("text, key", [("~: 1\nx: 2\n", "x"), ("c_p: 0\n~: 1\n", "~")])
    def test_null_key_is_an_unknown_key(self, runner, tmp_path, text, key):
        path = tmp_path / "policy.yaml"
        path.write_text(text)
        result = invoke(runner, "price", "--leakage", "0.036", "--policy", path)
        assert result.exit_code == 3, result.output
        assert result.stderr == f"error: {path}: unknown policy key {key!r}\n"

    @pytest.mark.parametrize("text, error", [
        ("c_p: 0\nlambda: 0x10\n", ": lambda must be numeric, got '0x10'"),
        ("c_p: 0\nlambda: inf\n", ": rate must be finite and strictly positive, got inf"),
        ("c_p: 0\nlambda: true\n", ": lambda must be numeric, got 'true'"),
    ], ids=["hex", "inf", "true"])
    def test_refused_rate_exits_3(self, runner, tmp_path, text, error):
        path = tmp_path / "policy.yaml"
        path.write_text(text)
        result = invoke(runner, "price", "--leakage", "0.036", "--policy", path)
        assert result.exit_code == 3, result.output
        assert result.stderr == f"error: {path}{error}\n"

    def test_octal_looking_rate_is_decimal(self, runner, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("c_p: 0\nlambda: 0123\n")
        out = ok(runner, "price", "--leakage", "1", "--policy", path, "--format", "machine")
        assert json.loads(out)["surcharge"] == "123.0000"

    def test_production_cost_is_recorded_as_written(self, runner, data_dir,
                                                    tmp_path):
        policy, ledger = tmp_path / "policy.yaml", tmp_path / "ledger.jsonl"
        policy.write_text("c_p: 0.10\nlambda: 10000\n")
        ok(runner, "audit", "--policy", policy, "--events", data_dir / "events.jsonl",
           "--out", ledger)
        header = json.loads(ledger.read_text().splitlines()[0])
        assert header["policy"]["c_p"] == "0.10"


class TestExitCodes:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "before, flag, template", FLOAT_FLAGS,
        ids=[f"{before[0]}{flag}" for before, flag, _ in FLOAT_FLAGS],
    )
    def test_non_finite_float_flag_exits_2_or_3(self, runner, before, flag, template, value):
        args = [arg.format(data=DATA) for arg in before]
        result = invoke(runner, *args, f"{flag}={template.format(v=value)}")
        assert result.exit_code in (2, 3), result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("args, text, error", [
        (["price", "--leakage", "0.5", "--policy"], "c_p: 0\nlambda: true\n",
         ": lambda must be numeric, got 'true'"),
        (["price", "--leakage", "0.5", "--policy"], "c_p: 0\nlambda: yes\n",
         ": lambda must be numeric, got 'yes'"),
        (["price", "--leakage", "0.5", "--policy"], "c_p: 0\nlambda: {sex: on}\n",
         ": lambda['sex'] must be numeric, got 'on'"),
        (["discretize", "--samples", "{data}/keystrokes.csv", "--schema"],
         "attributes:\n  - {name: impairment, kind: continuous, range: [true, 2]}\n"
         "observable: {name: keystroke_interval, kind: continuous, range: [0, 1000]}\n",
         ": range of attribute 'impairment' must be numeric, got 'true'"),
        (["report", "--ledger"],
         '{"session": "s", "policy": {"c_p": "0", "lambda": true}, "consent": "granted"}\n'
         '{"decision": "granted", "total_leakage_nats": 0.0, "total_surcharge": "0.0000", '
         '"grand_total": "0.0000"}\n',
         ":1: rate must be a number, got True"),
    ], ids=["policy-true", "policy-yes", "subset-rate-on", "schema-range", "ledger-header"])
    def test_boolean_where_a_number_is_read_exits_3(self, runner, tmp_path, args, text, error):
        path = tmp_path / "input"
        path.write_text(text)
        result = invoke(runner, *(arg.format(data=DATA) for arg in args), path)
        assert result.exit_code == 3, result.output
        assert result.stderr == f"error: {path}{error}\n"

    @pytest.mark.parametrize("flag", sorted(INPUT_FLAGS))
    def test_unreadable_input_exits_2_naming_the_file(self, runner, tmp_path, flag):
        path = tmp_path / "input"
        contents = {"non-utf8": b"x,u\n\xff\xfe,0.5\n", "missing": None}
        if flag in CSV_FLAGS:
            contents["oversized cell"] = b"x," + b"a" * 200_000 + b"\n"
        args = [arg.format(input=path, data=DATA, tmp=tmp_path) for arg in INPUT_FLAGS[flag]]
        for case, content in contents.items():
            if content is None:
                path.unlink()
            else:
                path.write_bytes(content)
            result = invoke(runner, *args)
            assert result.exit_code == 2, (case, result.output)
            assert isinstance(result.exception, SystemExit), case
            assert "Traceback" not in result.stderr, case
            if content is None:
                assert result.stderr == f"error: {path}: no such file\n"
            else:
                assert result.stderr.startswith(f"error: {path}:"), (case, result.stderr)

    @settings(max_examples=120, deadline=None)
    @given(content=FILE_CONTENTS)
    def test_malformed_input_raises_only_package_errors(self, content):
        assert_only_package_errors(content)

    @pytest.mark.parametrize("content", CRASHERS, ids=range(len(CRASHERS)))
    def test_former_crashers_raise_only_package_errors(self, content):
        assert_only_package_errors(content)

    def test_missing_file_is_parse_error(self, runner, tmp_path):
        result = invoke(runner, "entropy", "--table", tmp_path / "absent.csv")
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")

    def test_invalid_distribution_is_validation_error(self, runner, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("x,male,female\nmorning,0.6,0.2\nevening,0.2,0.2\n")
        result = invoke(runner, "mi", "--table", table)
        assert result.exit_code == 3
        assert "error:" in result.stderr

    def test_malformed_table_is_parse_error(self, runner, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("x,male,female\nmorning,0.6,oops\n")
        result = invoke(runner, "mi", "--table", table)
        assert result.exit_code == 2

    def test_version_flag(self, runner):
        out = ok(runner, "--version")
        assert out.startswith("leakpricer, version ")

    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_unwritable_out_exits_2_naming_the_path(self, runner, command):
        out = "/nonexistent/dir/x"
        args = [arg.format(data=DATA) for arg in OUT_COMMANDS[command]]
        result = invoke(runner, *args, "--out", out)
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {out}: No such file or directory\n"

    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_failed_write_leaves_the_directory_as_it_was(self, runner, tmp_path, command):
        (tmp_path / "out").mkdir()
        args = [arg.format(data=DATA) for arg in OUT_COMMANDS[command]]
        result = invoke(runner, *args, "--out", tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {tmp_path / 'out'}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not any((tmp_path / "out").iterdir())


AUDIT_TEXT = (
    "session c48ed29ce635f378\n"
    "decision: granted\n"
    "\n"
    "  seq  timestamp                  observable            leakage (nats)  surcharge\n"
    "    1  2024-05-01T09:00:00+00:00  request timestamp           0.020000   1886.7925\n"
    "    2  2024-05-01T09:05:00+00:00  request timestamp           0.020000   1886.7925\n"
    "\n"
    "total leakage:   0.040000 nats (0.057708 bits)\n"
    "production cost: 0.0010 USD\n"
    "total surcharge: 3773.5850 USD\n"
    "grand total:     3773.5860 USD\n"
    "note: total leakage sums per-event values assuming independent observations; "
    "correlated events are not adjusted for\n"
)

AUDIT_MACHINE = (
    '{"session": "c48ed29ce635f378", "decision": "granted", "events": 2, '
    '"total_leakage_nats": 0.04, "production_cost": "0.0010", '
    '"total_surcharge": "3773.5850", "grand_total": "3773.5860", "currency": "USD", '
    '"disclaimer": "note: total leakage sums per-event values assuming independent '
    'observations; correlated events are not adjusted for"}\n'
)

# The ledger the bundled audit demo wrote before the policy lost its
# exchange_rate field; its header still carries the key.
OLD_DEMO_LEDGER = (
    '{"session": "c48ed29ce635f378", "policy": {"c_p": "0.001", '
    '"lambda": 94339.62264150944, "lambda_unit": "per_nat", "pi_max": "500000", '
    '"currency": "USD", "exchange_rate": null}, "consent": "granted"}\n'
    '{"sequence": 1, "timestamp": "2024-05-01T09:00:00+00:00", '
    '"observable": "request timestamp", "leakage_nats": 0.02, '
    '"surcharge": "1886.7925", "rule": "linear"}\n'
    '{"sequence": 2, "timestamp": "2024-05-01T09:05:00+00:00", '
    '"observable": "request timestamp", "leakage_nats": 0.02, '
    '"surcharge": "1886.7925", "rule": "linear"}\n'
    '{"decision": "granted", "total_leakage_nats": 0.04, '
    '"total_surcharge": "3773.5850", "grand_total": "3773.5860"}\n'
)
DEMO_LEDGER = OLD_DEMO_LEDGER.replace(', "exchange_rate": null', "")

AUDIT_DEMO = ("audit", "--policy", "{data}/policy_calibrated.yaml",
              "--events", "{data}/events.jsonl", "--out", "{tmp}/audit.jsonl")

# Stdout of every command on the bundled data/ demos, byte for byte.
# Cases the golden tests above already pin exactly are not repeated:
# entropy in bits, calibrate in nats, the linear price as text, the
# weighted price as machine JSON and the linear curve.
DEMO_STDOUT = {
    "entropy-text": (
        ("entropy", "--table", "{data}/timeofday_sex.csv"),
        "H(S) = 0.693147 nats\n",
    ),
    "entropy-machine": (
        ("entropy", "--table", "{data}/timeofday_sex_disability.csv",
         "--format", "machine"),
        '{"quantity": "profile_entropy", "value": 1.2798542258336676, '
        '"unit": "nats"}\n',
    ),
    "mi-text": (("mi", "--table", "{data}/timeofday_sex.csv"), "I(X;S) = 0.086305 nats\n"),
    "mi-text-bits": (
        ("mi", "--table", "{data}/timeofday_sex_disability.csv", "--unit", "bits"),
        "I(X;S) = 0.131915 bits\n",
    ),
    "mi-machine": (
        ("mi", "--table", "{data}/timeofday_sex.csv", "--format", "machine"),
        '{"quantity": "mutual_information", "value": 0.08630462173553415, '
        '"unit": "nats"}\n',
    ),
    "estimate-text": (
        ("estimate", "--schema", "{data}/keystroke_schema.yaml",
         "--samples", "{data}/keystrokes.csv", "--seed", "7"),
        "method = kde-monte-carlo\nn = 300\nseed = 7\n"
        "bandwidth[impairment] = 0.054659\n"
        "bandwidth[keystroke_interval] = 17.484878\n"
        "I(X;S) = 0.479014 nats\n",
    ),
    "estimate-machine": (
        ("estimate", "--schema", "{data}/keystroke_schema.yaml",
         "--samples", "{data}/keystrokes.csv", "--unit", "bits", "--format", "machine"),
        '{"quantity": "mutual_information_estimate", "value": 0.6910708617276039, '
        '"unit": "bits", "value_nats": 0.4790138193736204, '
        '"raw_nats": 0.4790138193736204, "method": "kde-monte-carlo", "n": 300, '
        '"seed": 0, "bandwidths": {"impairment": 0.05465911067528549, '
        '"keystroke_interval": 17.484878360885705}}\n',
    ),
    "price-linear-machine": (
        ("price", "--policy", "{data}/policy_linear.yaml", "--leakage", "0.136",
         "--unit", "bits", "--format", "machine"),
        '{"rule": "linear", "leakage": 0.136, "unit": "bits", '
        '"leakage_nats": 0.09426801655615256, "production": "0.0010", '
        '"surcharge": "942.6802", "total": "942.6812", "currency": "USD"}\n',
    ),
    "price-weighted-text": (
        ("price", "--policy", "{data}/policy_weighted.yaml",
         "--table", "{data}/timeofday_sex_disability.csv",
         "--schema", "{data}/profile_schema.yaml"),
        "rule = weighted\n"
        "leakage[sex] = 0.086305 nats\n"
        "leakage[disability] = 0.004022 nats\n"
        "leakage[sex+disability] = 0.091436 nats\n"
        "leakage = 0.181763 nats\n"
        "production = 0.0010 USD\n"
        "surcharge = 551.5294 USD\n"
        "total = 551.5304 USD\n",
    ),
    "price-exposure-text": (
        ("price", "--policy", "{data}/policy_exposure.yaml",
         "--table", "{data}/timeofday_sex.csv"),
        "rule = exposure\n"
        "leakage = 0.086305 nats\n"
        "production = 0.0010 USD\n"
        "surcharge = 62255.6249 USD\n"
        "total = 62255.6259 USD\n",
    ),
    "price-exposure-machine": (
        ("price", "--policy", "{data}/policy_calibrated.yaml", "--rule", "exposure",
         "--table", "{data}/timeofday_sex.csv", "--unit", "bits", "--format", "machine"),
        '{"rule": "exposure", "leakage": 0.12451124978365295, "unit": "bits", '
        '"leakage_nats": 0.08630462173553415, "production": "0.0010", '
        '"surcharge": "62255.6249", "total": "62255.6259", "currency": "USD"}\n',
    ),
    "calibrate-machine": (
        ("calibrate", "--pi-max", "500000", "--entropy", "5.3", "--format", "machine"),
        '{"lambda_per_nat": 94339.62264150944, "currency": "USD"}\n',
    ),
    "calibrate-text-bits": (
        ("calibrate", "--pi-max", "100", "--entropy", "1.0", "--unit", "bits"),
        "lambda = 144.2695 USD per nat\n",
    ),
    "calibrate-machine-bits": (
        ("calibrate", "--pi-max", "100", "--entropy", "1.0", "--unit", "bits",
         "--format", "machine"),
        '{"lambda_per_nat": 144.26950408889635, "currency": "USD"}\n',
    ),
    "audit-text": (AUDIT_DEMO, AUDIT_TEXT),
    "audit-machine": (AUDIT_DEMO + ("--format", "machine"), AUDIT_MACHINE),
    "report-text": (("report", "--ledger", "{ledger}"), AUDIT_TEXT),
    "report-machine": (("report", "--ledger", "{ledger}", "--format", "machine"),
                       AUDIT_MACHINE),
    # 301 lines of CSV, pinned by digest
    "discretize": (
        ("discretize", "--schema", "{data}/keystroke_schema.yaml",
         "--samples", "{data}/keystrokes.csv",
         "--bins", "impairment=equal-width:4", "--bins", "keystroke_interval=quantile:2"),
        "sha256:10087a98c43db7cca94b62ee005d79adb03b796541e6f3b8f7e1c19b108177fe",
    ),
    "curve-exposure": (
        ("curve", "--policy", "{data}/policy_exposure.yaml", "--rule", "exposure",
         "--stop", "5.3", "--step", "1.325", "--entropy", "5.3"),
        "leakage,value\n0.000000,0.0010\n1.325000,125000.0010\n2.650000,250000.0010\n"
        "3.975000,375000.0010\n5.300000,500000.0010\n",
    ),
}


class TestDemoStdout:
    @pytest.mark.parametrize("case", sorted(DEMO_STDOUT))
    def test_pinned(self, runner, data_dir, tmp_path, case):
        places = {"data": data_dir, "tmp": tmp_path, "ledger": tmp_path / "ledger.jsonl"}
        places["ledger"].write_text(DEMO_LEDGER)
        args, expected = DEMO_STDOUT[case]
        result = invoke(runner, *(arg.format(**places) for arg in args))
        assert result.exit_code == 0, result.output
        out = result.stdout
        if expected.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert out == expected

    @pytest.mark.parametrize("case", sorted(DEMO_STDOUT))
    def test_pinned_in_process_under_redirected_stdout(self, data_dir, tmp_path, case):
        # how the benchmark tracer runs commands: a StringIO has no reconfigure
        places = {"data": data_dir, "tmp": tmp_path, "ledger": tmp_path / "ledger.jsonl"}
        places["ledger"].write_text(DEMO_LEDGER)
        args, expected = DEMO_STDOUT[case]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            main([arg.format(**places) for arg in args], standalone_mode=False)
        out = stdout.getvalue()
        if expected.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert out == expected

    def test_ledger_differs_from_old_only_by_exchange_rate(self, runner, data_dir, tmp_path):
        ok(runner, *(arg.format(data=data_dir, tmp=tmp_path) for arg in AUDIT_DEMO))
        written = (tmp_path / "audit.jsonl").read_text()
        assert written == DEMO_LEDGER

    @pytest.mark.parametrize("fmt, expected", [("text", AUDIT_TEXT),
                                               ("machine", AUDIT_MACHINE)])
    def test_old_ledger_still_reports(self, runner, tmp_path, fmt, expected):
        ledger = tmp_path / "old.jsonl"
        ledger.write_text(OLD_DEMO_LEDGER)
        assert ok(runner, "report", "--ledger", ledger, "--format", fmt) == expected

    def test_exchange_rate_key_rejected(self, runner, tmp_path):
        policy = tmp_path / "policy.yaml"
        policy.write_text("c_p: 0.001\nlambda: 10000\nexchange_rate: 0.5\n")
        result = invoke(runner, "price", "--policy", policy, "--leakage", "0.036")
        assert result.exit_code == 3
        assert "unknown policy key 'exchange_rate'" in result.stderr


def write_stream(path, *observables) -> Path:
    """An event stream of one 0.02-nat event per observable, then a decision."""
    path.write_text("".join(
        json.dumps({"observable": observable, "leakage": 0.02}) + "\n"
        for observable in observables
    ) + '{"decision": "granted"}\n')
    return path


def run_into_closed_pipe(args, unbuffered: bool):
    """Run the CLI with stdout a pipe whose read end is closed before start."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run(
            [sys.executable, "-m", "leakpricer.cli", *map(str, args)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


class TestStdout:
    """Commands print exactly what they format, in UTF-8, whatever the
    terminal or locale."""

    def audit_and_report(self, runner, tmp_path, *observables) -> str:
        ledger = tmp_path / "ledger.jsonl"
        audited = ok(runner, "audit", "--policy", DATA / "policy_calibrated.yaml",
                     "--events", write_stream(tmp_path / "events.jsonl", *observables),
                     "--out", ledger)
        assert ok(runner, "report", "--ledger", ledger) == audited
        return audited

    def test_lone_surrogate_prints_as_its_escape(self, runner, tmp_path):
        out = self.audit_and_report(runner, tmp_path, "bad\ud800x")
        # the text the ledger's JSON holds, padded as the 5-character observable
        assert "  bad\\ud800x" + " " * 15 + "        0.020000   1886.7925\n" in out

    def test_ansi_escapes_reach_stdout_as_in_the_ledger(self, runner, tmp_path):
        observable = "\u001b[31mred\u001b[0m"
        out = self.audit_and_report(runner, tmp_path, observable)
        assert f"  {observable:<20}        0.020000   1886.7925\n" in out
        assert f'"observable": {json.dumps(observable)}' in (tmp_path / "ledger.jsonl").read_text()

    def test_stdout_is_utf8_under_a_latin1_locale(self, tmp_path):
        observable = "coffee \u2615"
        events = write_stream(tmp_path / "events.jsonl", observable)
        result = subprocess.run(
            [sys.executable, "-m", "leakpricer.cli", "audit", "--policy",
             str(DATA / "policy_calibrated.yaml"), "--events", str(events),
             "--out", str(tmp_path / "ledger.jsonl")],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONIOENCODING": "latin-1",
                 "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert f"  {observable:<20}  ".encode("utf-8") in result.stdout

    def test_short_output_is_one_write_under_an_unbuffered_stdout(self, data_dir, tmp_path):
        class Raw(io.RawIOBase):
            def __init__(self):
                self.writes = []

            def writable(self):
                return True

            def write(self, data):
                self.writes.append(bytes(data))
                return len(data)

        raw = Raw()
        # the stdout of python -u: text written through to an unbuffered file
        with contextlib.redirect_stdout(io.TextIOWrapper(raw, "ascii", write_through=True)):
            main([arg.format(data=data_dir, tmp=tmp_path) for arg in AUDIT_DEMO],
                 standalone_mode=False)
        assert raw.writes == [AUDIT_TEXT.encode()]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["mi", "report"])
    def test_closed_stdout_exits_2_with_one_error_line(self, runner, tmp_path, command,
                                                       unbuffered):
        if command == "mi":
            args = ("mi", "--table", DATA / "timeofday_sex.csv")
        else:  # a report well over 64k characters, more than a pipe holds
            ledger = tmp_path / "ledger.jsonl"
            events = write_stream(tmp_path / "events.jsonl", *["obs"] * 1000)
            out = ok(runner, "audit", "--policy", DATA / "policy_calibrated.yaml",
                     "--events", events, "--out", ledger)
            assert len(out) > 1 << 16
            args = ("report", "--ledger", ledger)
        result = run_into_closed_pipe(args, unbuffered)
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: [Errno 32] Broken pipe\n"


def demo_ledger_with_closure(**fields) -> str:
    """DEMO_LEDGER with these closure fields set, or deleted where None."""
    closure = {**json.loads(DEMO_LEDGER.splitlines()[-1]), **fields}
    closure = {key: value for key, value in closure.items() if value is not None}
    return "".join(DEMO_LEDGER.splitlines(True)[:-1]) + json.dumps(closure) + "\n"


def ledger_with_first_surcharge(text: str) -> str:
    return OLD_DEMO_LEDGER.replace('"surcharge": "1886.7925"', f'"surcharge": "{text}"', 1)


# args, and the content of the input file the args name as {tmp}/input
NON_FINITE_MONEY = {
    "pi-max-nan": (("calibrate", "--pi-max", "NaN", "--entropy", "5.3"), None),
    "pi-max-infinity": (("calibrate", "--pi-max", "Infinity", "--entropy", "5.3"), None),
    "calibrated-rate-overflow": (
        ("calibrate", "--pi-max", "500000", "--entropy", "1e-320"), None,
    ),
    "policy-pi-max-infinity": (
        ("price", "--policy", "{tmp}/input", "--table", "{data}/timeofday_sex.csv"),
        'c_p: 0.001\npi_max: "Infinity"\n',
    ),
    "policy-c-p-nan": (
        ("price", "--policy", "{tmp}/input", "--leakage", "0.036"),
        'c_p: "NaN"\nlambda: 10000\n',
    ),
    "ledger-surcharge-infinity": (
        ("report", "--ledger", "{tmp}/input"), ledger_with_first_surcharge("Infinity"),
    ),
}


class TestNonFiniteMoney:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_MONEY))
    def test_exits_3_without_traceback(self, runner, data_dir, tmp_path, case):
        args, content = NON_FINITE_MONEY[case]
        if content is not None:
            (tmp_path / "input").write_text(content)
        result = invoke(runner, *(arg.format(data=data_dir, tmp=tmp_path) for arg in args))
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        if case.startswith("ledger"):
            assert f"{tmp_path / 'input'}:2: money amount must be finite" in result.stderr

    @pytest.mark.parametrize(
        "policy, amount",
        [("c_p: 1e30\nlambda: 10000\n", "1E+30"), ("c_p: 0.001\nlambda: 1e300\n", "1E+299")],
        ids=["c_p", "lambda"],
    )
    def test_amount_too_large_for_the_money_grid(self, runner, tmp_path, policy, amount):
        path = tmp_path / "policy.yaml"
        path.write_text(policy)
        result = invoke(runner, "price", "--policy", path, "--leakage", "0.1")
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: money amount {amount} is too large" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("leakage", ["Infinity", "NaN"])
    def test_non_finite_ledger_leakage_names_the_line(self, runner, tmp_path, leakage):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(
            OLD_DEMO_LEDGER.replace('"leakage_nats": 0.02', f'"leakage_nats": {leakage}', 1)
        )
        result = invoke(runner, "report", "--ledger", ledger)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{ledger}:2: event leakage must be finite and nonnegative" in result.stderr

    def test_non_numeric_ledger_surcharge_stays_a_parse_error(self, runner, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(ledger_with_first_surcharge("lots"))
        result = invoke(runner, "report", "--ledger", ledger)
        assert result.exit_code == 2
        assert f"{ledger}:2: malformed event" in result.stderr


# one field of the demo ledger's header or first event (the case up to its
# first space), the JSON value of another type put in its place, and the
# error that follows the ledger's path
NON_STRING_LEDGER_FIELDS = {
    "session": ('"c48ed29ce635f378"', "null",
                ": malformed session header: session must be a string, got None"),
    "timestamp": ('"2024-05-01T09:00:00+00:00"', "null",
                  ":2: malformed event: timestamp must be a string, got None"),
    "observable": ('"request timestamp"', "5",
                   ":2: malformed event: observable must be a string, got 5"),
    "rule": ('"linear"', '"exposure"',
             ":2: malformed event: rule must be 'linear', got 'exposure'"),
    "leakage_nats boolean": ("0.02", "true",
                             ":2: malformed event: leakage_nats must be a number, got True"),
    "leakage_nats string": ("0.02", '"0.02"',
                            ":2: malformed event: leakage_nats must be a number, got '0.02'"),
    "surcharge boolean": ('"1886.7925"', "true", ":2: malformed event: "
                          "surcharge must be a decimal string or number, got True"),
}


class TestLedgerFieldTypes:
    @pytest.mark.parametrize("case", sorted(NON_STRING_LEDGER_FIELDS))
    def test_report_exits_2_naming_the_field(self, runner, tmp_path, case):
        value, other, message = NON_STRING_LEDGER_FIELDS[case]
        field = case.split()[0]
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(DEMO_LEDGER.replace(f'"{field}": {value}', f'"{field}": {other}', 1))
        result = invoke(runner, "report", "--ledger", ledger)
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {ledger}{message}\n"

    @pytest.mark.parametrize("value, shown", [
        ("5", "5"), ("null", "None"), ('["x"]', "['x']"), ('""', "''"),
    ])
    def test_non_string_currency_exits_3_naming_the_header(self, runner, tmp_path, value, shown):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(DEMO_LEDGER.replace('"currency": "USD"', f'"currency": {value}', 1))
        result = invoke(runner, "report", "--ledger", ledger)
        assert result.exit_code == 3, result.output
        assert result.stderr == (
            f"error: {ledger}:1: currency must be a non-blank string, got {shown}\n"
        )


# runs the CLI, then prints the numpy submodules loaded and the yaml ones as
# its last two stderr lines
LOADED_MODULES = (
    "import sys\n"
    "from leakpricer.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "finally:\n"
    "    for package in ('numpy.', 'yaml.'):\n"
    "        print(sorted(m for m in sys.modules if m.startswith(package)), file=sys.stderr)\n"
)


def run_python(*args):
    """A fresh interpreter that imports the package from ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestLazyNumpy:
    """numpy loads on first array use, and yaml when a command reads a YAML
    file. Each case runs in a fresh interpreter: this one imported numpy with
    the tests."""

    @pytest.mark.parametrize("case, loads_numpy", [
        ("report-text", False), ("report-machine", False), ("audit-text", False),
        ("calibrate-machine", False), ("curve-exposure", False),
        ("price-linear-machine", False), ("estimate-text", True), ("mi-text", True),
    ])
    def test_only_array_commands_load_numpy(self, data_dir, tmp_path, case, loads_numpy):
        places = {"data": data_dir, "tmp": tmp_path, "ledger": tmp_path / "ledger.jsonl"}
        places["ledger"].write_text(DEMO_LEDGER)
        args, expected = DEMO_STDOUT[case]
        result = run_python("-c", LOADED_MODULES, *(arg.format(**places) for arg in args))
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected
        numpy_modules, yaml_modules = result.stderr.splitlines()[-2:]
        assert (numpy_modules != "[]") == loads_numpy
        assert (yaml_modules != "[]") == any(arg.endswith(".yaml") for arg in args)

    @pytest.mark.parametrize("first", ["numpy", "leakpricer.schema"])
    def test_one_numpy_whichever_is_imported_first(self, first):
        script = (
            f"import {first}\n"
            "import sys, numpy, leakpricer.schema\n"
            "assert leakpricer.schema.np is sys.modules['numpy'] is numpy\n"
            "assert numpy.zeros(2).sum() == 0\n"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr


# Spawns the CLI with argv[1:] and prints its exit code and own peak RSS. A
# spawned child is charged the high-water mark of the process it was spawned
# from, so the CLI is spawned from this small launcher, not from the tests.
LAUNCHER = (
    "import os, sys\n"
    "out = os.open(os.devnull, os.O_WRONLY)\n"
    "argv = [sys.executable, '-m', 'leakpricer.cli', *sys.argv[1:]]\n"
    "pid = os.posix_spawn(sys.executable, argv, os.environ,\n"
    "                     file_actions=[(os.POSIX_SPAWN_DUP2, out, 1)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_ledger_commands_run_in_memory_that_does_not_grow_with_the_ledger(data_dir, tmp_path):
    peak_mb = {}
    for n in (5_000, 50_000):
        events = tmp_path / f"events-{n}.jsonl"
        events.write_text("".join(
            f'{{"observable": "obs {i % 7}", "leakage": {i % 97 / 1000}, '
            f'"timestamp": "2024-05-01T09:{i % 60:02d}:00+00:00"}}\n'
            for i in range(n)
        ) + '{"decision": "granted"}\n')
        ledger = tmp_path / f"ledger-{n}.jsonl"
        for command, args in (
            ("audit", ("--policy", data_dir / "policy_calibrated.yaml",
                       "--events", events, "--out", ledger)),
            ("report", ("--ledger", ledger)),
        ):
            result = run_python("-c", LAUNCHER, command, *args)
            assert result.returncode == 0, result.stderr
            code, kib = result.stdout.split()
            assert code == "0", result.stderr
            peak_mb[command, n] = int(kib) / 1024
    for command in ("audit", "report"):
        assert peak_mb[command, 50_000] - peak_mb[command, 5_000] < 5, peak_mb


WORKED_EXAMPLES_STDOUT = """
single attribute: time of day vs sex
------------------------------------
H(S)    = 1.000000 bits
H(S|X)  = 0.875489 bits
I(X;S)  = 0.124511 bits = 0.086305 nats
r(X;S)  = 0.124511

intersection: sex and disability jointly
----------------------------------------
I(X;sex) = 0.086305 nats
I(X;disability) = 0.004022 nats
I(X;sex+disability) = 0.091436 nats
the joint profile leaks more than either attribute alone

linear rule: screen-resolution example
--------------------------------------
leakage   = 0.036000 nats
surcharge = 360.0000 USD
total     = 360.0010 USD

weighted rule: priced per attribute subset
------------------------------------------
surcharge = 551.5294 USD

exposure rule: fraction of the statutory ceiling
------------------------------------------------
ratio     = 0.124511
surcharge = 62255.6249 USD

calibration: hit the ceiling exactly at full disclosure
-------------------------------------------------------
lambda    = 94339.6226 USD per nat
0.02 nats = 1886.7925 USD surcharge

audit session: two observations, then consent
---------------------------------------------
""" + AUDIT_TEXT.replace("session c48ed29ce635f378", "session worked-example")


class TestScripts:
    SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

    def run_script(self, name, *args):
        return run_python(self.SCRIPTS / name, *args)

    def test_worked_examples_stdout(self):
        result = self.run_script("worked_examples.py")
        assert result.returncode == 0, result.stderr
        assert result.stdout == WORKED_EXAMPLES_STDOUT

    def test_make_price_curves(self, tmp_path):
        result = self.run_script("make_price_curves.py", "--outdir", tmp_path)
        assert result.returncode == 0, result.stderr
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["exposure.csv", "linear_25000.csv", "linear_50000.csv",
                         "linear_94339.csv"]
        assert (tmp_path / "exposure.csv").read_text().splitlines()[-1] == (
            "5.300000,500000.0010"
        )

    def test_make_demo_data_reproduces_the_bundled_sample(self, data_dir, tmp_path):
        out = tmp_path / "keystrokes.csv"
        result = self.run_script("make_demo_data.py", "--out", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"wrote 300 rows to {out}\n"
        assert out.read_bytes() == (data_dir / "keystrokes.csv").read_bytes()

    def test_estimator_convergence_stdout(self):
        result = self.run_script("estimator_convergence.py", "--sizes", "200", "500",
                                 "--seeds", "1")
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "true leakage: 0.5108 nats (rho = 0.8)\n"
            "     n   mean estimate   mean abs error\n"
            "   200          0.4873           0.0235\n"
            "   500          0.5225           0.0117\n"
        )
