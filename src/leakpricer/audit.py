"""Append-only audit ledger for observation sessions.

A session freezes one pricing policy, accumulates observation events
(each priced with the linear rule at recording time), and closes with a
consent decision. Events are never mutated or removed; sequence numbers
are dense and start at 1. The production cost enters once per session,
at closure, not per event.

Per-event surcharges are quantized onto the money grid when recorded,
so the ledger total is a sum of representable amounts; it may drift
from the single-shot price of the summed leakage by rounding, bounded
by half a minor unit per event. Totals also assume events are
independent; every report carries a fixed disclaimer saying so.
"""

from __future__ import annotations

import json
import math
import operator
import uuid
from collections import namedtuple
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import ParseError, ValidationError
from .infotheory import NATS, InfoQuantity
from .pricing import LINEAR, PricingPolicy, _linear_surcharge, quantize_money, to_decimal
from .schema import read_json_lines, write_text

CONSENT_PENDING = "pending"
CONSENT_GRANTED = "granted"
CONSENT_DENIED = "denied"
_DECISIONS = (CONSENT_GRANTED, CONSENT_DENIED)

#: Fixed line carried verbatim on every closure report.
DISCLAIMER = (
    "note: total leakage sums per-event values assuming independent "
    "observations; correlated events are not adjusted for"
)


class AuditEvent(
    namedtuple("AuditEvent", "sequence timestamp observable leakage_nats surcharge rule")
):
    """One recorded observation: what was observed, how much it leaked,
    and what that cost. Surcharge is already on the money grid. An
    immutable named tuple; ``_make`` and ``_replace`` check it too."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, sequence: int, timestamp: str, observable: str, leakage_nats: float,
                surcharge: Decimal, rule: str):
        # exact int and float, so the line template writes what json.dumps would
        if type(sequence) is not int or type(leakage_nats) is not float:
            sequence, leakage_nats = operator.index(sequence), float(leakage_nats)
        if sequence < 1:
            raise ValidationError("event sequence numbers start at 1")
        if not (math.isfinite(leakage_nats) and leakage_nats >= 0):
            raise ValidationError(
                f"event leakage must be finite and nonnegative, got {leakage_nats!r}"
            )
        if surcharge < 0:
            raise ValidationError("event surcharge must be nonnegative")
        return tuple.__new__(cls, (sequence, timestamp, observable, leakage_nats, surcharge, rule))


@dataclass
class SessionLedger:
    """Ordered events under a frozen policy, with a consent state.

    Consent starts ``pending``; closing moves it to ``granted`` or
    ``denied`` exactly once, after which no event may be appended.
    """

    session_id: str
    policy: PricingPolicy
    consent: str = CONSENT_PENDING
    events: list[AuditEvent] = field(default_factory=list)

    @cached_property
    def _rate(self) -> Decimal:
        """The policy rate as a Decimal, converted once per session, not per event."""
        return to_decimal(self.policy.rate_per_nat)

    @property
    def total_leakage_nats(self) -> float:
        # fixed left-to-right order keeps the float sum reproducible
        total = 0.0
        for event in self.events:
            total += event.leakage_nats
        return total

    @property
    def total_surcharge(self) -> Decimal:
        total = Decimal("0.0000")
        for event in self.events:
            total += event.surcharge
        return total

    @property
    def grand_total(self) -> Decimal:
        """Production cost (once per session) plus all event surcharges."""
        return self.policy.production_cost + self.total_surcharge


def open_session(policy: PricingPolicy, session_id: str | None = None) -> SessionLedger:
    """Start an empty ledger with consent pending.

    Events are priced linearly as they arrive, so the policy must carry
    a scalar rate.
    """
    if policy.rate_per_nat is None:
        raise ValidationError(
            "sessions price events with the linear rule; the policy needs a scalar rate"
        )
    return SessionLedger(session_id=session_id or uuid.uuid4().hex, policy=policy)


def record_event(
    ledger: SessionLedger,
    observable: str,
    leakage: InfoQuantity,
    timestamp: str | None = None,
) -> AuditEvent:
    """Append one observation event and return it.

    The surcharge is the policy rate times the leakage in nats,
    quantized onto the money grid at recording time.
    """
    if ledger.consent != CONSENT_PENDING:
        raise ValidationError(
            f"session is closed ({ledger.consent}); no further events"
        )
    nats = leakage.in_nats()
    surcharge = quantize_money(_linear_surcharge(ledger._rate, nats))
    event = AuditEvent(
        sequence=len(ledger.events) + 1,
        timestamp=datetime.now(timezone.utc).isoformat() if timestamp is None else timestamp,
        observable=str(observable),
        leakage_nats=nats,
        surcharge=surcharge,
        rule=LINEAR,
    )
    ledger.events.append(event)
    return event


@dataclass(frozen=True)
class SessionReport:
    """Immutable closure summary of one session."""

    session_id: str
    decision: str
    currency: str
    events: tuple[AuditEvent, ...]
    total_leakage: InfoQuantity
    production_cost: Decimal
    total_surcharge: Decimal
    grand_total: Decimal
    disclaimer: str = DISCLAIMER

    def render(self) -> str:
        """Human-readable summary; deterministic for identical reports."""
        lines = [
            f"session {self.session_id}",
            f"decision: {self.decision}",
            "",
            "  seq  timestamp                  observable            "
            "leakage (nats)  surcharge",
        ]
        lines += ["  %3d  %-25s  %-20s  %14.6f  %10s" % (
            e.sequence, e.timestamp, e.observable, e.leakage_nats, e.surcharge
        ) for e in self.events]
        nats = self.total_leakage.in_nats()
        bits = self.total_leakage.in_bits()
        lines += [
            "",
            f"total leakage:   {nats:.6f} nats ({bits:.6f} bits)",
            f"production cost: {quantize_money(self.production_cost)} {self.currency}",
            f"total surcharge: {self.total_surcharge} {self.currency}",
            f"grand total:     {quantize_money(self.grand_total)} {self.currency}",
            self.disclaimer,
        ]
        return "\n".join(lines) + "\n"


def build_report(ledger: SessionLedger) -> SessionReport:
    """Summarize a closed ledger; open sessions have nothing to report."""
    if ledger.consent == CONSENT_PENDING:
        raise ValidationError("session is still open; close it before reporting")
    return SessionReport(
        session_id=ledger.session_id,
        decision=ledger.consent,
        currency=ledger.policy.currency,
        events=tuple(ledger.events),
        total_leakage=InfoQuantity(ledger.total_leakage_nats, NATS),
        production_cost=ledger.policy.production_cost,
        total_surcharge=ledger.total_surcharge,
        grand_total=ledger.grand_total,
    )


def close_session(ledger: SessionLedger, decision: str) -> SessionReport:
    """Move consent from pending to the decision and return the report.

    Closing twice is an error; the ledger stays append-only throughout.
    """
    if decision not in _DECISIONS:
        raise ValidationError(
            f"decision must be one of {_DECISIONS}, got {decision!r}"
        )
    if ledger.consent != CONSENT_PENDING:
        raise ValidationError(f"session already closed ({ledger.consent})")
    ledger.consent = decision
    return build_report(ledger)


# ---------------------------------------------------------------------------
# file format: line-delimited JSON, one header, one line per event,
# one closure line once the session is decided


def _policy_payload(policy: PricingPolicy) -> dict:
    return {
        "c_p": str(policy.production_cost),
        "lambda": policy.rate_per_nat,
        "lambda_unit": "per_nat",
        "pi_max": str(policy.max_penalty) if policy.max_penalty is not None else None,
        "currency": policy.currency,
    }


def write_ledger(ledger: SessionLedger, path) -> None:
    """Serialize header, events in order, and the closure line if closed."""
    header = {"session": ledger.session_id, "policy": _policy_payload(ledger.policy),
              "consent": ledger.consent}
    lines = [json.dumps(header)]
    # each event line is what json.dumps writes for these fields; an f-string,
    # unlike %, sizes each line exactly, which keeps the peak memory down
    lines += [f'{{"sequence": {e.sequence}, "timestamp": {_quote(e.timestamp)}, '
              f'"observable": {_quote(e.observable)}, "leakage_nats": {e.leakage_nats!r}, '
              f'"surcharge": {_quote(str(e.surcharge))}, "rule": {_quote(e.rule)}}}'
              for e in ledger.events]
    if ledger.consent != CONSENT_PENDING:
        closure = {
            "decision": ledger.consent,
            "total_leakage_nats": ledger.total_leakage_nats,
            "total_surcharge": str(ledger.total_surcharge),
            "grand_total": str(quantize_money(ledger.grand_total)),
        }
        lines.append(json.dumps(closure))
    write_text(path, "\n".join(lines) + "\n")


def read_ledger(path) -> SessionLedger:
    """Rebuild a ledger from its file; round-trips :func:`write_ledger`."""
    p = Path(path)
    records = read_json_lines(p, "ledger")
    header_lineno, header = next(records, (None, None))
    if header is None:
        raise ParseError(f"{p}: empty ledger file")
    if "session" not in header or "policy" not in header:
        raise ParseError(f"{p}: first ledger line must be the session header")
    if type(header["session"]) is not str:
        raise ParseError(
            f"{p}: malformed session header: session must be a string, got {header['session']!r}"
        )
    raw_policy = header["policy"]
    try:
        policy = PricingPolicy(
            production_cost=raw_policy["c_p"],
            rate_per_nat=raw_policy.get("lambda"),
            max_penalty=raw_policy.get("pi_max"),
            currency=raw_policy.get("currency", "USD"),
        )
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"{p}: malformed policy header: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{p}:{header_lineno}: {exc}") from None
    consent = header.get("consent", CONSENT_PENDING)
    if consent not in (CONSENT_PENDING, *_DECISIONS):
        raise ParseError(f"{p}: unknown consent state {consent!r}")
    events: list[AuditEvent] = []
    closure = None
    for lineno, record in records:
        if "decision" in record:
            if closure is not None:
                raise ParseError(f"{p}:{lineno}: duplicate closure line")
            closure = (lineno, record)
            continue
        if closure is not None:
            raise ParseError(f"{p}:{lineno}: event after the closure line")
        try:
            timestamp, observable = record["timestamp"], record["observable"]
            if type(timestamp) is not str or type(observable) is not str:
                key = "observable" if type(timestamp) is str else "timestamp"
                raise TypeError(f"{key} must be a string, got {record[key]!r}")
            if record["rule"] != LINEAR:
                raise ValueError(f"rule must be {LINEAR!r}, got {record['rule']!r}")
            event = AuditEvent(
                sequence=record["sequence"],  # AuditEvent takes an exact integer only
                timestamp=timestamp,
                observable=observable,
                leakage_nats=float(record["leakage_nats"]),
                # a JSON number is read by its shortest repr, as header money is
                surcharge=to_decimal(Decimal(str(record["surcharge"]))),
                rule=LINEAR,
            )
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ParseError(f"{p}:{lineno}: malformed event: {exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"{p}:{lineno}: {exc}") from None
        if event.sequence != len(events) + 1:
            raise ParseError(
                f"{p}:{lineno}: event sequence {event.sequence} breaks the "
                f"dense 1..n order"
            )
        events.append(event)
    if closure is not None:
        lineno, record = closure
        if record.get("decision") != consent:
            raise ParseError(
                f"{p}:{lineno}: closure decision {record.get('decision')!r} "
                f"contradicts header consent {consent!r}"
            )
    elif consent != CONSENT_PENDING:
        raise ParseError(f"{p}: consent is {consent!r} but no closure line found")
    return SessionLedger(
        session_id=header["session"],
        policy=policy,
        consent=consent,
        events=events,
    )
