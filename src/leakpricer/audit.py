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
from decimal import Decimal, InvalidOperation
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import ClassVar, Iterator

from .errors import ParseError, ValidationError
from .infotheory import NATS, InfoQuantity
from .pricing import LINEAR, PER_NAT, PricingPolicy, quantize_money, to_decimal
from .schema import json_float, read_json_lines, write_text

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


def tally(events) -> tuple[int, float, Decimal]:
    """Count, total leakage in nats and total surcharge of events, summed
    left to right as they pass: the fixed order keeps the float sum reproducible."""
    count, nats, surcharge = 0, 0.0, Decimal("0.0000")
    for count, event in enumerate(events, start=1):
        nats += event.leakage_nats
        surcharge += event.surcharge
    return count, nats, surcharge


def ledger_line(e: AuditEvent) -> str:
    """An event's ledger line: what json.dumps writes for its fields."""
    return (f'{{"sequence": {e.sequence}, "timestamp": {_quote(e.timestamp)}, '
            f'"observable": {_quote(e.observable)}, "leakage_nats": {e.leakage_nats!r}, '
            f'"surcharge": {_quote(str(e.surcharge))}, "rule": {_quote(e.rule)}}}\n')


def report_row(e: AuditEvent) -> str:
    """An event's row in the rendered report."""
    return "  %3d  %-25s  %-20s  %14.6f  %10s\n" % e[:5]


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

    def _priced_event(self, sequence: int, timestamp: str, observable: str,
                      nats: float) -> AuditEvent:
        """An event of this session, priced at the policy rate onto the money grid and
        not appended. ``nats`` is a finite, nonnegative float and ``sequence`` counts
        from 1, both checked by the caller, so :class:`AuditEvent` does not check again."""
        surcharge = quantize_money(self._rate * Decimal(repr(nats)))
        return tuple.__new__(AuditEvent, (sequence, timestamp, observable, nats, surcharge, LINEAR))

    @property
    def total_leakage_nats(self) -> float:
        return tally(self.events)[1]

    @property
    def total_surcharge(self) -> Decimal:
        return tally(self.events)[2]

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
    """Append one observation event, priced at recording time, and return it."""
    if ledger.consent != CONSENT_PENDING:
        raise ValidationError(
            f"session is closed ({ledger.consent}); no further events"
        )
    stamp = datetime.now(timezone.utc).isoformat() if timestamp is None else timestamp
    event = ledger._priced_event(len(ledger.events) + 1, stamp, str(observable), leakage.in_nats())
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
    disclaimer: ClassVar[str] = DISCLAIMER

    def render(self) -> str:
        """Human-readable summary; deterministic for identical reports."""
        return "".join(self.render_pieces(map(report_row, self.events)))

    def render_pieces(self, rows):
        """Yield the rendered summary in pieces, with the text of ``rows`` (strings
        that together make whole report rows) as its event rows."""
        yield (f"session {self.session_id}\ndecision: {self.decision}\n\n"
               "  seq  timestamp                  observable            "
               "leakage (nats)  surcharge\n")
        yield from rows
        nats = self.total_leakage.in_nats()
        bits = self.total_leakage.in_bits()
        yield (f"\ntotal leakage:   {nats:.6f} nats ({bits:.6f} bits)\n"
               f"production cost: {quantize_money(self.production_cost)} {self.currency}\n"
               f"total surcharge: {self.total_surcharge} {self.currency}\n"
               f"grand total:     {quantize_money(self.grand_total)} {self.currency}\n"
               f"{self.disclaimer}\n")


def build_report(ledger: SessionLedger, totals=None) -> SessionReport:
    """Summarize a closed ledger, holding its events; open sessions have nothing
    to report. ``totals``, the ``(nats, surcharge)`` that :func:`tally` gives for
    events streamed past the ledger, replaces the sums of the ledger's own events."""
    if ledger.consent == CONSENT_PENDING:
        raise ValidationError("session is still open; close it before reporting")
    nats, surcharge = tally(ledger.events)[1:] if totals is None else totals
    return SessionReport(
        session_id=ledger.session_id,
        decision=ledger.consent,
        currency=ledger.policy.currency,
        events=tuple(ledger.events),
        total_leakage=InfoQuantity(nats, NATS),
        production_cost=ledger.policy.production_cost,
        total_surcharge=surcharge,
        grand_total=ledger.policy.production_cost + surcharge,
    )


def decide(ledger: SessionLedger, decision) -> None:
    """Move consent from pending to the decision; closing twice is an error."""
    if decision not in _DECISIONS:
        raise ValidationError(f"decision must be one of {_DECISIONS}, got {decision!r}")
    if ledger.consent != CONSENT_PENDING:
        raise ValidationError(f"session already closed ({ledger.consent})")
    ledger.consent = decision


def close_session(ledger: SessionLedger, decision: str) -> SessionReport:
    """Decide the session's consent and return its report; events stay as they are."""
    decide(ledger, decision)
    return build_report(ledger)


# ---------------------------------------------------------------------------
# file format: line-delimited JSON, one header, one line per event,
# one closure line once the session is decided


def _policy_payload(policy: PricingPolicy) -> dict:
    return {
        "c_p": str(policy.production_cost),
        "lambda": policy.rate_per_nat,
        "lambda_unit": PER_NAT,
        "pi_max": str(policy.max_penalty) if policy.max_penalty is not None else None,
        "currency": policy.currency,
    }


def _closure_totals(production_cost: Decimal, nats: float, surcharge: Decimal) -> dict:
    """The totals a closure line states, from the events' summed leakage and surcharge."""
    return {"total_leakage_nats": nats, "total_surcharge": surcharge,
            "grand_total": quantize_money(production_cost + surcharge)}


def write_ledger(ledger: SessionLedger, path, lines=None, totals=None) -> None:
    """Serialize header, events in order, and the closure line if closed; the text of
    ``lines`` and :func:`build_report`'s ``totals`` of streamed events replace its own."""
    nats, surcharge = tally(ledger.events)[1:] if totals is None else totals
    header = {"session": ledger.session_id, "policy": _policy_payload(ledger.policy),
              "consent": ledger.consent}
    lines = map(ledger_line, ledger.events) if lines is None else lines
    closure = []
    if ledger.consent != CONSENT_PENDING:
        totals = _closure_totals(ledger.policy.production_cost, nats, surcharge)
        closure.append(json.dumps({"decision": ledger.consent, **totals}, default=str) + "\n")
    write_text(path, chain([json.dumps(header) + "\n"], lines, closure))


def read_ledger(path) -> SessionLedger:
    """Rebuild a ledger from its file; round-trips :func:`write_ledger`."""
    ledger, events = iter_ledger(path)
    ledger.events.extend(events)
    return ledger


def iter_ledger(path) -> tuple[SessionLedger, Iterator[AuditEvent]]:
    """Read a ledger file's header into a ledger with no events, and return
    it with an iterator that reads, checks and yields the events in order,
    then checks the closure line."""
    p = Path(path)
    records = read_json_lines(p, "ledger")
    header_lineno, header = next(records, (None, None))
    if header is None:
        raise ParseError(f"{p}: empty ledger file")
    if "session" not in header or "policy" not in header:
        raise ParseError(f"{p}: first ledger line must be the session header")
    if type(sid := header["session"]) is not str:
        raise ParseError(f"{p}: malformed session header: session must be a string, got {sid!r}")
    raw_policy = header["policy"]
    try:
        cost, rate = raw_policy["c_p"], raw_policy.get("lambda")
        if not isinstance(rate, (int, float, type(None))):  # PricingPolicy refuses a bool
            raise TypeError(f"lambda must be a number, got {rate!r}")
        policy = PricingPolicy(cost, rate, max_penalty=raw_policy.get("pi_max"),
                               currency=raw_policy.get("currency", "USD"))
        if raw_policy.get("lambda_unit", PER_NAT) != PER_NAT:
            raise ValueError(f"lambda_unit must be {PER_NAT!r}, got {raw_policy['lambda_unit']!r}")
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"{p}: malformed policy header: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{p}:{header_lineno}: {exc}") from None
    consent = header.get("consent", CONSENT_PENDING)
    if consent not in (CONSENT_PENDING, *_DECISIONS):
        raise ParseError(f"{p}: unknown consent state {consent!r}")
    ledger = SessionLedger(sid, policy, consent)
    return ledger, _ledger_events(p, records, consent, policy.production_cost)


def _ledger_events(p: Path, records, consent: str, production_cost: Decimal):
    """Yield the events of ``records``, each line checked once, then check the closure
    line; return the count and the total leakage and surcharge, summed as by :func:`tally`."""
    closure = None
    sequence, total_nats, total_surcharge = 0, 0.0, Decimal("0.0000")
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
            nats, surcharge = record["leakage_nats"], record["surcharge"]
            if type(nats) is not float:
                if type(nats) is not int:
                    raise TypeError(f"leakage_nats must be a number, got {nats!r}")
                nats = json_float(nats)
            number, surcharge = record["sequence"], _ledger_money(surcharge)
            if not (type(number) is int and number > 0 and 0.0 <= nats < math.inf
                    and surcharge.is_finite() and surcharge >= 0):
                # AuditEvent words the first fault in its order; a JSON true passes as 1
                AuditEvent(number, timestamp, observable, nats, to_decimal(surcharge), LINEAR)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ParseError(f"{p}:{lineno}: malformed event: {exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"{p}:{lineno}: {exc}") from None
        sequence += 1
        if number != sequence:
            raise ParseError(f"{p}:{lineno}: event sequence {int(number)} breaks the "
                             "dense 1..n order")
        total_nats += nats
        total_surcharge += surcharge
        yield tuple.__new__(AuditEvent, (sequence, timestamp, observable, nats, surcharge, LINEAR))
    if closure is not None:
        lineno, record = closure
        if record.get("decision") != consent:
            raise ParseError(
                f"{p}:{lineno}: closure decision {record.get('decision')!r} "
                f"contradicts header consent {consent!r}"
            )
        _check_closure_totals(f"{p}:{lineno}", record,
                              _closure_totals(production_cost, total_nats, total_surcharge))
    elif consent != CONSENT_PENDING:
        raise ParseError(f"{p}: consent is {consent!r} but no closure line found")
    return sequence, total_nats, total_surcharge


def _check_closure_totals(where: str, record: dict, derived: dict) -> None:
    """Check each total the closure line states against the one ``derived``
    from the events read, both as Decimal values (a float by its shortest repr)."""
    try:
        if type(record["total_leakage_nats"]) not in (int, float):
            raise TypeError(f"total_leakage_nats must be a number, "
                            f"got {record['total_leakage_nats']!r}")
        stated = {key: _ledger_money(record[key], key) for key in derived}
        for key, amount in stated.items():  # an infinite sum can be stated; NaN cannot
            if amount.is_nan():
                raise ValueError(f"{key} must be a number, got {record[key]!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: malformed closure: {exc}") from None
    for key, value in derived.items():
        value = Decimal(str(value))
        if stated[key] != value:
            raise ValidationError(
                f"{where}: closure {key} {stated[key]} does not match {value} from the events"
            )


def _ledger_money(value, key: str = "surcharge") -> Decimal:
    """A ledger amount: a decimal string, or a JSON number read by its shortest repr."""
    if type(value) in (str, int, float):
        try:
            return Decimal(str(value))
        except InvalidOperation:
            pass
    raise ValueError(f"{key} must be a decimal string or number, got {value!r}")
