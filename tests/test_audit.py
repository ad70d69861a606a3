from __future__ import annotations

import json
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leakpricer import (
    AuditEvent,
    BITS,
    CONSENT_DENIED,
    CONSENT_GRANTED,
    CONSENT_PENDING,
    DISCLAIMER,
    InfoQuantity,
    LN2,
    NATS,
    ParseError,
    PricingPolicy,
    SessionLedger,
    SessionReport,
    ValidationError,
    build_report,
    close_session,
    convert_lambda,
    open_session,
    price_linear,
    quantize_money,
    read_ledger,
    record_event,
    write_ledger,
)
from leakpricer.pricing import _linear_surcharge

CALIBRATED_RATE = 94339.62264150944


def calibrated_policy() -> PricingPolicy:
    return PricingPolicy(
        production_cost=Decimal("0.001"),
        rate_per_nat=CALIBRATED_RATE,
        max_penalty=Decimal("500000"),
    )


def two_event_session():
    ledger = open_session(calibrated_policy(), session_id="golden")
    for ts in ("2024-05-01T09:00:00+00:00", "2024-05-01T09:05:00+00:00"):
        record_event(ledger, "keystroke_interval", InfoQuantity(0.02, NATS), timestamp=ts)
    return ledger


class TestSessionFlow:
    def test_open_session_starts_pending_and_empty(self):
        ledger = open_session(calibrated_policy())
        assert ledger.consent == CONSENT_PENDING
        assert ledger.events == []
        assert ledger.grand_total == Decimal("0.001")

    def test_generated_session_ids_differ(self):
        a = open_session(calibrated_policy())
        b = open_session(calibrated_policy())
        assert a.session_id != b.session_id

    def test_policy_without_scalar_rate_rejected(self):
        exposure_only = PricingPolicy(
            production_cost=Decimal("0"), max_penalty=Decimal("1")
        )
        with pytest.raises(ValidationError, match="scalar rate"):
            open_session(exposure_only)

    def test_events_get_dense_sequence_numbers(self):
        ledger = open_session(calibrated_policy())
        for i in range(4):
            event = record_event(ledger, f"obs{i}", InfoQuantity(0.01, NATS))
        assert [e.sequence for e in ledger.events] == [1, 2, 3, 4]
        assert event is ledger.events[-1]

    def test_event_surcharge_is_quantized_linear_price(self):
        ledger = open_session(calibrated_policy())
        event = record_event(ledger, "obs", InfoQuantity(0.02, NATS))
        single = price_linear(calibrated_policy(), InfoQuantity(0.02, NATS))
        assert event.surcharge == quantize_money(single.surcharge_component)
        assert event.surcharge == Decimal("1886.7925")
        assert event.rule == "linear"

    def test_leakage_recorded_in_nats(self):
        ledger = open_session(calibrated_policy())
        event = record_event(ledger, "obs", InfoQuantity(1.0, BITS))
        assert event.leakage_nats == pytest.approx(LN2, rel=1e-15)

    def test_zero_leakage_event_is_fine(self):
        ledger = open_session(calibrated_policy())
        event = record_event(ledger, "obs", InfoQuantity(0.0, NATS))
        assert event.surcharge == Decimal("0.0000")

    def test_default_timestamp_is_utc_isoformat(self):
        ledger = open_session(calibrated_policy())
        event = record_event(ledger, "obs", InfoQuantity(0.0, NATS))
        assert event.timestamp.endswith("+00:00")

    def test_empty_timestamp_is_kept(self):
        ledger = open_session(calibrated_policy())
        event = record_event(ledger, "obs", InfoQuantity(0.0, NATS), timestamp="")
        assert event.timestamp == ""

    def test_no_events_after_closure(self):
        ledger = two_event_session()
        close_session(ledger, CONSENT_GRANTED)
        with pytest.raises(ValidationError, match="closed"):
            record_event(ledger, "obs", InfoQuantity(0.0, NATS))

    def test_close_requires_known_decision(self):
        ledger = open_session(calibrated_policy())
        with pytest.raises(ValidationError, match="decision"):
            close_session(ledger, "maybe")

    def test_close_only_once(self):
        ledger = open_session(calibrated_policy())
        close_session(ledger, CONSENT_DENIED)
        with pytest.raises(ValidationError, match="already closed"):
            close_session(ledger, CONSENT_GRANTED)

    def test_report_requires_closure(self):
        ledger = open_session(calibrated_policy())
        with pytest.raises(ValidationError, match="still open"):
            build_report(ledger)


class TestTotals:
    def test_golden_two_event_totals(self):
        ledger = two_event_session()
        assert ledger.total_leakage_nats == pytest.approx(0.04, rel=1e-15)
        assert ledger.total_surcharge == Decimal("3773.5850")
        assert ledger.grand_total == Decimal("3773.5860")

    def test_production_cost_charged_once_not_per_event(self):
        ledger = two_event_session()
        per_event = price_linear(calibrated_policy(), InfoQuantity(0.02, NATS))
        assert ledger.grand_total < 2 * per_event.total
        assert (
            ledger.grand_total - ledger.total_surcharge
            == calibrated_policy().production_cost
        )

    def test_drift_from_single_shot_bounded_per_event(self):
        rng = np.random.default_rng(5)
        policy = calibrated_policy()
        half_quantum = Decimal("0.00005")
        for _ in range(200):
            ledger = open_session(policy)
            n_events = int(rng.integers(1, 6))
            for i in range(n_events):
                record_event(ledger, f"obs{i}", InfoQuantity(float(rng.uniform(0, 0.1)), NATS))
            single = price_linear(policy, InfoQuantity(ledger.total_leakage_nats, NATS))
            drift = abs(ledger.grand_total - single.total)
            assert drift <= n_events * half_quantum + Decimal("0.00001")


class TestReport:
    def test_report_fields(self):
        report = close_session(two_event_session(), CONSENT_GRANTED)
        assert report.session_id == "golden"
        assert report.decision == CONSENT_GRANTED
        assert report.total_leakage.unit == NATS
        assert report.total_surcharge == Decimal("3773.5850")
        assert report.grand_total == Decimal("3773.5860")
        assert report.disclaimer == DISCLAIMER

    def test_render_is_deterministic(self):
        a = close_session(two_event_session(), CONSENT_GRANTED).render()
        b = close_session(two_event_session(), CONSENT_GRANTED).render()
        assert a == b

    def test_render_contents(self):
        text = close_session(two_event_session(), CONSENT_GRANTED).render()
        assert text.startswith("session golden\ndecision: granted\n")
        assert "  1  2024-05-01T09:00:00+00:00" in text
        assert "1886.7925" in text
        assert "total leakage:   0.040000 nats (0.057708 bits)" in text
        assert "production cost: 0.0010 USD" in text
        assert "total surcharge: 3773.5850 USD" in text
        assert "grand total:     3773.5860 USD" in text
        assert text.rstrip().endswith(DISCLAIMER)

    def test_denied_session_still_reports(self):
        report = close_session(two_event_session(), CONSENT_DENIED)
        assert report.decision == CONSENT_DENIED
        assert "decision: denied" in report.render()


class TestEventValidation:
    def test_sequence_starts_at_one(self):
        with pytest.raises(ValidationError, match="start at 1"):
            AuditEvent(0, "t", "obs", 0.0, Decimal("0"), "linear")

    def test_negative_leakage_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            AuditEvent(1, "t", "obs", -0.1, Decimal("0"), "linear")
        with pytest.raises(ValidationError):
            InfoQuantity(-0.1, NATS)

    def test_negative_surcharge_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            AuditEvent(1, "t", "obs", 0.1, Decimal("-1"), "linear")

    def test_bool_and_int_numbers_are_normalised(self):
        event = AuditEvent(True, "t", "obs", True, Decimal("0"), "linear")
        assert (type(event.sequence), event.sequence) == (int, 1)
        assert (type(event.leakage_nats), event.leakage_nats) == (float, 1.0)
        assert type(AuditEvent(2, "t", "obs", 3, Decimal("0"), "linear").leakage_nats) is float


class TestEventTuple:
    """Events are immutable named tuples, checked however they are built."""

    EVENT = AuditEvent(1, "t", "obs", 0.5, Decimal("1.0000"), "linear")

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.EVENT.sequence = 2
        assert not hasattr(self.EVENT, "__dict__")

    def test_equals_the_tuple_of_its_fields(self):
        assert self.EVENT == (1, "t", "obs", 0.5, Decimal("1.0000"), "linear")

    def test_replace_checks_and_normalises(self):
        with pytest.raises(ValidationError, match="start at 1"):
            self.EVENT._replace(sequence=0)
        replaced = self.EVENT._replace(sequence=True, leakage_nats=2)
        assert replaced == (1, "t", "obs", 2.0, Decimal("1.0000"), "linear")
        assert type(replaced.leakage_nats) is float

    def test_make_checks(self):
        with pytest.raises(ValidationError, match="surcharge must be nonnegative"):
            AuditEvent._make((1, "t", "obs", 0.5, Decimal("-1"), "linear"))
        assert AuditEvent._make(self.EVENT) == self.EVENT


class TestLedgerFile:
    def test_closed_round_trip(self, tmp_path):
        ledger = two_event_session()
        close_session(ledger, CONSENT_GRANTED)
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        assert read_ledger(path) == ledger

    def test_pending_round_trip(self, tmp_path):
        ledger = two_event_session()
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        back = read_ledger(path)
        assert back == ledger
        assert back.consent == CONSENT_PENDING

    def test_read_events_are_audit_events(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_ledger(two_event_session(), path)
        assert [type(e) for e in read_ledger(path).events] == [AuditEvent, AuditEvent]

    def test_file_layout(self, tmp_path):
        ledger = two_event_session()
        close_session(ledger, CONSENT_GRANTED)
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        header = json.loads(lines[0])
        assert header["session"] == "golden"
        assert header["consent"] == "granted"
        assert header["policy"]["c_p"] == "0.001"
        event = json.loads(lines[1])
        assert list(event) == [
            "sequence",
            "timestamp",
            "observable",
            "leakage_nats",
            "surcharge",
            "rule",
        ]
        closure = json.loads(lines[3])
        assert closure["decision"] == "granted"
        assert closure["grand_total"] == "3773.5860"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="no such file"):
            read_ledger(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("\n")
        with pytest.raises(ParseError, match="empty"):
            read_ledger(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"session": "s", "policy"\n')
        with pytest.raises(ParseError, match="invalid ledger line"):
            read_ledger(path)
        header = json.dumps({"session": "s", "policy": {"c_p": "0", "lambda": 1.0}})
        for line in ("5", "null", "[1]", '"s"'):
            path.write_text(f"{header}\n{line}\n")
            with pytest.raises(ParseError) as raised:
                read_ledger(path)
            assert str(raised.value) == f"{path}:2: ledger line must be a JSON object"

    def test_first_line_must_be_header(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"sequence": 1}\n')
        with pytest.raises(ParseError, match="session header"):
            read_ledger(path)

    def test_malformed_policy_header(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"session": "s", "policy": {"lambda": 1.0}}) + "\n")
        with pytest.raises(ParseError, match="malformed policy"):
            read_ledger(path)

    def test_header_money_read_as_written(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        policy = {"c_p": 0.1, "lambda": 1.0, "pi_max": 0.3}
        path.write_text(json.dumps({"session": "s", "policy": policy}) + "\n")
        read = read_ledger(path).policy
        assert read.production_cost == Decimal("0.1")
        assert read.max_penalty == Decimal("0.3")

    def test_json_number_surcharge_read_by_shortest_repr(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        header = {"session": "s", "policy": {"c_p": "0", "lambda": 1.0}}
        event = {"sequence": 1, "timestamp": "t", "observable": "o",
                 "leakage_nats": 0.1, "surcharge": 0.1, "rule": "linear"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(event) + "\n")
        surcharge = read_ledger(path).events[0].surcharge
        assert str(surcharge) == "0.1"

    def test_unknown_consent_state(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        header = {
            "session": "s",
            "policy": {"c_p": "0", "lambda": 1.0},
            "consent": "revoked",
        }
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ParseError, match="consent state"):
            read_ledger(path)

    def _write_lines(self, tmp_path, *extra):
        header = {
            "session": "s",
            "policy": {"c_p": "0.001", "lambda": 100.0},
            "consent": extra and json.loads(extra[-1]).get("decision") or CONSENT_PENDING,
        }
        path = tmp_path / "ledger.jsonl"
        path.write_text("\n".join([json.dumps(header), *extra]) + "\n")
        return path

    def _event_line(self, sequence, leakage=0.01):
        return json.dumps(
            {
                "sequence": sequence,
                "timestamp": "t",
                "observable": "obs",
                "leakage_nats": leakage,
                "surcharge": "1.0000",
                "rule": "linear",
            }
        )

    def test_broken_sequence(self, tmp_path):
        path = self._write_lines(tmp_path, self._event_line(1), self._event_line(3))
        with pytest.raises(ParseError, match="dense"):
            read_ledger(path)

    def test_malformed_event(self, tmp_path):
        bad = json.dumps({"sequence": 1, "timestamp": "t"})
        path = self._write_lines(tmp_path, bad)
        with pytest.raises(ParseError, match="malformed event"):
            read_ledger(path)

    @pytest.mark.parametrize("sequence", [1.9, 1.0, "1"])
    def test_non_integer_sequence_is_malformed(self, tmp_path, sequence):
        path = self._write_lines(tmp_path, self._event_line(sequence))
        with pytest.raises(ParseError) as raised:
            read_ledger(path)
        assert str(raised.value).startswith(f"{path}:2: malformed event: ")

    def test_boolean_sequence_reads_as_one(self, tmp_path):
        path = self._write_lines(tmp_path, self._event_line(True))
        assert read_ledger(path).events[0].sequence == 1

    def test_sequence_out_of_order_is_named_as_its_number(self, tmp_path):
        path = self._write_lines(tmp_path, self._event_line(1), self._event_line(True))
        with pytest.raises(ParseError) as raised:
            read_ledger(path)
        assert str(raised.value) == f"{path}:3: event sequence 1 breaks the dense 1..n order"

    def test_event_after_closure(self, tmp_path):
        closure = json.dumps({"decision": "granted"})
        path = self._write_lines(tmp_path, self._event_line(1), closure, self._event_line(2))
        with pytest.raises(ParseError, match="event after the closure"):
            read_ledger(path)

    def test_duplicate_closure(self, tmp_path):
        closure = json.dumps({"decision": "granted"})
        path = self._write_lines(tmp_path, closure, closure)
        with pytest.raises(ParseError, match="duplicate closure"):
            read_ledger(path)

    def test_closure_contradicting_header(self, tmp_path):
        header = {
            "session": "s",
            "policy": {"c_p": "0", "lambda": 1.0},
            "consent": "granted",
        }
        closure = {"decision": "denied"}
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(closure) + "\n")
        with pytest.raises(ParseError, match="contradicts"):
            read_ledger(path)

    def test_closed_header_without_closure_line(self, tmp_path):
        header = {
            "session": "s",
            "policy": {"c_p": "0", "lambda": 1.0},
            "consent": "granted",
        }
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ParseError, match="no closure line"):
            read_ledger(path)


# Text with what JSON must escape: quotes, backslashes, control characters,
# non-ASCII and lone surrogates.
LEDGER_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u2028\xe9\U0001f600'),
        st.characters(categories=["Cs"]),
        st.characters(exclude_categories=()),
    ),
    max_size=12,
)
LEAKAGE_NATS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1]),
    st.integers(0, 10**18),
    st.booleans(),
)
# JSON reads an escaped high-low surrogate pair back as one character, so
# a ledger round-trips only text that JSON itself round-trips.
JSON_TEXT = LEDGER_TEXT.filter(lambda text: json.loads(json.dumps(text)) == text)
MONEY = st.one_of(
    st.decimals(min_value=0, max_value=10**20, places=4),
    st.sampled_from([Decimal("0.0000"), Decimal("1E+3"), Decimal("-0"), Decimal("1E-7")]),
)
SURCHARGES = st.one_of(
    MONEY, st.decimals(min_value=0, allow_nan=False), st.just(Decimal("9" * 60))
)


def audit_events(surcharges=SURCHARGES):
    return st.builds(
        AuditEvent,
        sequence=st.one_of(st.integers(1, 10**30), st.just(True)),
        timestamp=LEDGER_TEXT,
        observable=LEDGER_TEXT,
        leakage_nats=LEAKAGE_NATS,
        surcharge=surcharges,
        rule=LEDGER_TEXT,
    )


def written_lines(ledger) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        write_ledger(ledger, path)
        text = path.read_bytes().decode("ascii")
    assert text.endswith("\n")
    return text[:-1].split("\n")


class TestLedgerTemplates:
    """The fixed templates of the ledger hot path write what the general
    formatting they replace wrote."""

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(audit_events(), max_size=4))
    def test_event_lines_are_what_json_dumps_writes(self, events):
        ledger = SessionLedger("s", calibrated_policy(), events=events)
        expected = [
            json.dumps(
                {
                    "sequence": e.sequence,
                    "timestamp": e.timestamp,
                    "observable": e.observable,
                    "leakage_nats": e.leakage_nats,
                    "surcharge": str(e.surcharge),
                    "rule": e.rule,
                }
            )
            for e in events
        ]
        assert written_lines(ledger)[1:] == expected

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(audit_events(), max_size=4))
    def test_report_rows_are_the_field_format_rows(self, events):
        report = SessionReport(
            "s", CONSENT_GRANTED, "USD", tuple(events), InfoQuantity(0.0, NATS),
            Decimal("0"), Decimal("0"), Decimal("0"),
        )
        rows = "".join(
            f"  {e.sequence:>3}  {e.timestamp:<25}  "
            f"{e.observable:<20}  {e.leakage_nats:>14.6f}  "
            f"{e.surcharge:>10}\n"
            for e in events
        )
        head = "leakage (nats)  surcharge\n"
        text = report.render()
        assert text[text.index(head) + len(head):].startswith(rows + "\ntotal leakage:")

    @settings(max_examples=100, deadline=None)
    @given(
        session=JSON_TEXT,
        consent=st.sampled_from([CONSENT_PENDING, CONSENT_GRANTED, CONSENT_DENIED]),
        fields=st.lists(
            st.tuples(JSON_TEXT, JSON_TEXT, st.floats(0.0, 1e300), MONEY), max_size=4
        ),
    )
    def test_written_ledgers_read_back(self, session, consent, fields):
        events = [
            AuditEvent(i, timestamp, observable, nats, surcharge, "linear")
            for i, (timestamp, observable, nats, surcharge) in enumerate(fields, start=1)
        ]
        ledger = SessionLedger(session, calibrated_policy(), consent, events)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.jsonl"
            write_ledger(ledger, path)
            assert read_ledger(path) == ledger

    @settings(max_examples=300, deadline=None)
    @given(
        rate=st.floats(min_value=1e-6, max_value=1e12),
        rate_unit=st.sampled_from([NATS, BITS]),
        value=st.floats(min_value=0.0, max_value=1e6),
        unit=st.sampled_from([NATS, BITS]),
    )
    @example(rate=1.0, rate_unit=NATS, value=0.0, unit=NATS)
    @example(rate=3.0, rate_unit=BITS, value=5e-324, unit=NATS)
    @example(rate=1e12, rate_unit=NATS, value=1e-300, unit=BITS)
    @example(rate=1e12, rate_unit=NATS, value=1e300, unit=NATS)  # off the money grid
    def test_once_converted_rate_prices_like_the_formula(self, rate, rate_unit, value, unit):
        policy = PricingPolicy(
            production_cost=Decimal("0"), rate_per_nat=convert_lambda(rate, rate_unit, NATS)
        )
        ledger = open_session(policy, session_id="s")
        leakage = InfoQuantity(value, unit)
        try:
            expected = quantize_money(_linear_surcharge(policy.rate_per_nat, leakage.in_nats()))
        except ValidationError as exc:
            assert "too large for the four-decimal grid" in str(exc)
            expected = None
        # the second event is priced with the rate the first one converted
        for _ in range(2):
            if expected is None:
                with pytest.raises(ValidationError, match="too large for the four-decimal grid"):
                    record_event(ledger, "obs", leakage, timestamp="t")
            else:
                event = record_event(ledger, "obs", leakage, timestamp="t")
                assert str(event.surcharge) == str(expected)
