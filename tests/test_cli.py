from __future__ import annotations

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from leakpricer import LN2
from leakpricer.cli import main

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

    def test_bad_bins_flag(self, runner, data_dir):
        result = invoke(runner, "discretize",
                        "--schema", data_dir / "keystroke_schema.yaml",
                        "--samples", data_dir / "keystrokes.csv",
                        "--bins", "impairment=median")
        assert result.exit_code == 3
        assert "NAME=METHOD:ARGS" in result.stderr


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

    def test_linear_requires_leakage(self, runner, data_dir):
        result = invoke(runner, "price", "--policy", data_dir / "policy_linear.yaml")
        assert result.exit_code == 3
        assert "--leakage" in result.stderr

    def test_exposure_requires_table(self, runner, data_dir):
        result = invoke(runner, "price", "--policy", data_dir / "policy_exposure.yaml")
        assert result.exit_code == 3
        assert "--table" in result.stderr

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

    def test_exposure_needs_entropy(self, runner, data_dir):
        result = invoke(runner, "curve", "--policy", data_dir / "policy_exposure.yaml",
                        "--rule", "exposure", "--stop", "1.0", "--step", "0.5")
        assert result.exit_code == 3
        assert "entropy" in result.stderr


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

    def test_machine_report(self, runner, data_dir, tmp_path):
        out = ok(runner, *self.audit_args(data_dir, tmp_path / "ledger.jsonl"),
                 "--format", "machine")
        doc = json.loads(out)
        assert doc["decision"] == "granted"
        assert doc["events"] == 2
        assert doc["grand_total"] == "3773.5860"


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

    def test_pending_ledger_has_no_report(self, runner, data_dir, tmp_path):
        from decimal import Decimal

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


class TestExitCodes:
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
