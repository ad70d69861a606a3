"""Command-line front door.

Every subcommand is deterministic given its input files, flags, and
seed: session identifiers are content hashes, timestamps come from the
event stream (defaulting to the epoch), and numeric display is fixed at
six decimal places for information and four for money. Exit codes: 0
success, 2 file or parse problems, 3 validation or domain problems.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import click

from . import __version__, audit as audit_lib, estimation, infotheory, pricing
from . import schema as schema_lib
from .errors import ParseError, ValidationError
from .infotheory import BITS, NATS, InfoQuantity
from .pricing import EXPOSURE, LINEAR, WEIGHTED, quantize_money

EXIT_PARSE = 2
EXIT_VALIDATION = 3

#: Default per-event timestamp when the stream does not supply one.
EPOCH = "1970-01-01T00:00:00+00:00"
#: Keys an event line may carry.
_EVENT_KEYS = frozenset({"observable", "leakage", "unit", "timestamp"})
#: Events whose report rows and ledger lines go to the spools in one write each.
_SPOOL_BATCH = 256

UNIT_CHOICE = click.Choice([NATS, BITS])
FORMAT_CHOICE = click.Choice(["text", "machine"])


def _fmt_info(value: float) -> str:
    return f"{value:.6f}"


def _fmt_money(amount) -> str:
    return str(quantize_money(amount))


def _write_or_print(out_path, text: str, wrote: str) -> None:
    """Write ``text`` to ``out_path`` and say ``wrote`` it there, or print it."""
    if out_path:
        schema_lib.write_text(out_path, [text])
        print(f"wrote {wrote} to {out_path}")
    else:
        print(text, end="")


class _Commands(click.Group):
    """The command group: a command's stdout is flushed once it returns, and
    each error it raises is one ``error:`` line on stderr and its exit code."""

    def invoke(self, ctx):
        try:
            super().invoke(ctx)
            sys.stdout.flush()  # so a closed stdout fails here, not at exit
        except (ParseError, OSError) as exc:
            if isinstance(exc, BrokenPipeError):  # drop what stdout still buffers
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_PARSE)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_VALIDATION)


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="leakpricer")
def main() -> None:
    """Measure how much an observable leaks about a protected profile
    and price the leakage as a surcharge."""
    # stdout is UTF-8 whatever the locale or terminal; a lone surrogate, which
    # UTF-8 cannot encode, prints as its backslash escape. Text is buffered even
    # under PYTHONUNBUFFERED, so a short output is still one write.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace",
                               write_through=False)


@main.command()
@click.option("--table", "table_path", required=True, help="Joint-table file.")
@click.option("--unit", type=UNIT_CHOICE, default=NATS, show_default=True)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
def entropy(table_path, unit, fmt):
    """Entropy of the protected profile's marginal in a joint table."""
    table = infotheory.read_joint_table(table_path)
    quantity = infotheory.entropy(table.s_marginal(), unit)
    if fmt == "machine":
        print(json.dumps({"quantity": "profile_entropy", "value": quantity.value, "unit": unit}))
    else:
        print(f"H(S) = {_fmt_info(quantity.value)} {unit}")


@main.command()
@click.option("--table", "table_path", required=True, help="Joint-table file.")
@click.option("--unit", type=UNIT_CHOICE, default=NATS, show_default=True)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
def mi(table_path, unit, fmt):
    """Mutual information between the observable and the profile."""
    table = infotheory.read_joint_table(table_path)
    quantity = infotheory.mutual_information(table, unit)
    if fmt == "machine":
        print(json.dumps({"quantity": "mutual_information", "value": quantity.value,
                          "unit": unit}))
    else:
        print(f"I(X;S) = {_fmt_info(quantity.value)} {unit}")


def _parse_bin_flag(text: str) -> tuple[str, schema_lib.BinRule]:
    name, eq, rest = text.partition("=")
    method, colon, args = rest.partition(":")
    if not eq or not colon or not name or not args:
        raise ValidationError(
            f"--bins expects NAME=METHOD:ARGS (methods: equal-width, quantile, "
            f"cuts), got {text!r}"
        )
    try:
        if method == "equal-width":
            return name, schema_lib.BinRule.equal_width(int(args))
        if method == "quantile":
            return name, schema_lib.BinRule.quantile(int(args))
        if method == "cuts":
            return name, schema_lib.BinRule.explicit(
                [float(c) for c in args.split(",")]
            )
    except ValueError:
        raise ValidationError(f"--bins has non-numeric arguments: {text!r}") from None
    raise ValidationError(f"unknown binning method {method!r} in {text!r}")


@main.command()
@click.option("--schema", "schema_path", required=True, help="Schema file.")
@click.option("--samples", "samples_path", required=True, help="Sample file.")
@click.option(
    "--bins",
    "bin_flags",
    multiple=True,
    help="Binning rule per continuous attribute, e.g. age=equal-width:4, "
    "score=quantile:2, delay=cuts:0.33,0.66. Repeatable.",
)
@click.option("--out", "out_path", default=None, help="Write here instead of stdout.")
def discretize(schema_path, samples_path, bin_flags, out_path):
    """Bin continuous attributes so exact counting applies."""
    schema = schema_lib.load_schema(schema_path)
    samples = schema_lib.load_samples(samples_path, schema)
    rules = {}
    for name, rule in map(_parse_bin_flag, bin_flags):
        if name in rules:
            raise ValidationError(f"--bins is given twice for {name!r}")
        rules[name] = rule
    binned = schema_lib.discretize(samples, rules)
    _write_or_print(out_path, schema_lib.samples_to_csv(binned), f"{binned.n} rows")


@main.command()
@click.option("--schema", "schema_path", required=True, help="Schema file.")
@click.option("--samples", "samples_path", required=True, help="Sample file.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--bandwidth",
    "bandwidth_flags",
    multiple=True,
    help="Kernel width override, NAME=WIDTH. Repeatable; Silverman otherwise.",
)
@click.option("--unit", type=UNIT_CHOICE, default=NATS, show_default=True)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
def estimate(schema_path, samples_path, seed, bandwidth_flags, unit, fmt):
    """Estimate leakage I(X;S) from paired samples."""
    schema = schema_lib.load_schema(schema_path)
    samples = schema_lib.load_samples(samples_path, schema)
    bandwidths = {}
    for flag in bandwidth_flags:
        name, sep, width = flag.partition("=")
        if not sep or not name:
            raise ValidationError(f"--bandwidth expects NAME=WIDTH, got {flag!r}")
        if name in bandwidths:
            raise ValidationError(f"--bandwidth is given twice for {name!r}")
        try:
            bandwidths[name] = estimation.Bandwidth(float(width))
        except ValueError:
            raise ValidationError(
                f"--bandwidth has a non-numeric width: {flag!r}"
            ) from None
    result = estimation.estimate_mi(samples, bandwidths, seed=seed)
    shown = result.value.to(unit)
    if fmt == "machine":
        print(json.dumps({
            "quantity": "mutual_information_estimate",
            "value": shown.value,
            "unit": unit,
            "value_nats": result.value.value,
            "raw_nats": result.raw_nats,
            "method": result.method,
            "n": result.n,
            "seed": result.seed,
            "bandwidths": result.bandwidths,
        }))
        return
    print(f"method = {result.method}")
    print(f"n = {result.n}")
    if result.seed is not None:
        print(f"seed = {result.seed}")
    if result.bandwidths:
        for name in sorted(result.bandwidths):
            print(f"bandwidth[{name}] = {_fmt_info(result.bandwidths[name])}")
    print(f"I(X;S) = {_fmt_info(shown.value)} {unit}")


def _infer_rule(policy) -> str:
    if policy.subset_rates_per_nat is not None:
        return WEIGHTED
    if policy.rate_per_nat is not None:
        return LINEAR
    return EXPOSURE


@main.command()
@click.option("--policy", "policy_path", required=True, help="Pricing-policy file.")
@click.option(
    "--rule",
    type=click.Choice([LINEAR, WEIGHTED, EXPOSURE]),
    default=None,
    help="Defaults to whatever the policy parameterizes.",
)
@click.option("--leakage", type=float, default=None, help="Leakage for the linear rule.")
@click.option("--table", "table_path", default=None, help="Joint table (weighted, exposure).")
@click.option("--schema", "schema_path", default=None, help="Schema file (weighted).")
@click.option("--unit", type=UNIT_CHOICE, default=NATS, show_default=True,
              help="Unit of --leakage and of the displayed leakage.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
def price(policy_path, rule, leakage, table_path, schema_path, unit, fmt):
    """Price an observable: production cost plus leakage surcharge."""
    policy = pricing.load_policy(policy_path)
    rule = rule or _infer_rule(policy)
    subsets = {}
    if rule == LINEAR:
        if leakage is None:
            raise ValidationError("linear pricing needs --leakage")
        quote = pricing.price_linear(policy, InfoQuantity(leakage, unit))
    elif rule == EXPOSURE:
        if table_path is None:
            raise ValidationError("exposure pricing needs --table")
        quote = pricing.price_exposure(policy, infotheory.read_joint_table(table_path))
    else:
        if table_path is None or schema_path is None:
            raise ValidationError("weighted pricing needs --table and --schema")
        schema = schema_lib.load_schema(schema_path)
        table = infotheory.read_joint_table(table_path)
        position = {a.name: i for i, a in enumerate(schema.attributes)}
        # names in schema order; price_weighted refuses other keys and a scalar policy
        for key in policy.subset_rates_per_nat or ():
            indices = [position.get(name, -1) for name in key.split(schema_lib.LABEL_SEP)]
            if indices[0] >= 0 and indices == sorted(set(indices)):
                subsets[key] = infotheory.marginal_mi(table, schema, indices)
        quote = pricing.price_weighted(policy, subsets)
    shown = quote.leakage.to(unit)
    money = {
        "production": _fmt_money(quote.production_component),
        "surcharge": _fmt_money(quote.surcharge_component),
        "total": _fmt_money(quote.total),
    }
    if fmt == "machine":
        doc = {
            "rule": quote.rule,
            "leakage": shown.value,
            "unit": unit,
            "leakage_nats": quote.leakage.value,
            **money,
            "currency": quote.currency,
        }
        if subsets:
            doc["subsets"] = {key: value.in_nats() for key, value in subsets.items()}
        print(json.dumps(doc))
        return
    # one print of lines formatted in full, so a money error leaves stdout empty
    lines = [f"rule = {quote.rule}"]
    for key, value in subsets.items():
        lines.append(f"leakage[{key}] = {_fmt_info(value.to(unit).value)} {unit}")
    lines.append(f"leakage = {_fmt_info(shown.value)} {unit}")
    lines += [f"{name} = {amount} {quote.currency}" for name, amount in money.items()]
    print("\n".join(lines))


@main.command()
@click.option("--pi-max", required=True, help="Statutory maximum penalty.")
@click.option("--entropy", "entropy_value", type=float, required=True,
              help="Baseline profile entropy H(S).")
@click.option("--unit", type=UNIT_CHOICE, default=NATS, show_default=True,
              help="Unit of --entropy.")
@click.option("--currency", default="USD", show_default=True)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
def calibrate(pi_max, entropy_value, unit, currency, fmt):
    """Rate per nat that reaches the maximum penalty at full disclosure."""
    # the policy of this ceiling and currency runs the checks every policy gets
    ceiling = pricing.PricingPolicy(0, max_penalty=pi_max, currency=currency).max_penalty
    rate = pricing.calibrate_lambda(ceiling, InfoQuantity(entropy_value, unit))
    if fmt == "machine":
        print(json.dumps({"lambda_per_nat": rate, "currency": currency}))
    else:
        print(f"lambda = {rate:.4f} {currency} per nat")


@main.command()
@click.option("--policy", "policy_path", required=True, help="Pricing-policy file.")
@click.option("--rule", type=click.Choice([LINEAR, EXPOSURE]), default=LINEAR,
              show_default=True)
@click.option("--start", type=float, default=0.0, show_default=True,
              help="First leakage value, nats.")
@click.option("--stop", type=float, required=True, help="Last leakage value, nats.")
@click.option("--step", type=float, required=True, help="Leakage increment, nats.")
@click.option("--entropy", "entropy_value", type=float, default=None,
              help="Baseline H(S) in nats; required by the exposure rule.")
@click.option("--out", "out_path", default=None, help="Write here instead of stdout.")
def curve(policy_path, rule, start, stop, step, entropy_value, out_path):
    """Tabulate price against leakage for plotting."""
    policy = pricing.load_policy(policy_path)
    baseline = InfoQuantity(entropy_value, NATS) if entropy_value is not None else None
    points = pricing.price_curve(policy, rule, start, stop, step, baseline)
    lines = ["leakage,value"]
    lines += [f"{_fmt_info(nats)},{_fmt_money(total)}" for nats, total in points]
    _write_or_print(out_path, "\n".join(lines) + "\n", f"{len(points)} points")


def _priced_events(path, ledger):
    """Yield each event of an event-stream file, priced at the ledger's rate, as it
    is parsed. A line is ``{"observable": ..., "leakage": ..., "unit": ...,
    "timestamp": ...}``, unit and timestamp optional, or ``{"decision": "granted"|
    "denied"}``, which closes the ledger: it comes once, and no event follows it."""
    p, sequence = Path(path), 0
    for lineno, record in schema_lib.read_json_lines(p, "event"):
        if "decision" in record:
            schema_lib.check_keys(record, {"decision"}, f"{p}:{lineno}", "decision-line")
        elif ledger.consent != audit_lib.CONSENT_PENDING:
            raise ValidationError(f"{p}:{lineno}: event after the decision line")
        elif not record.keys() <= _EVENT_KEYS:
            schema_lib.check_keys(record, _EVENT_KEYS, f"{p}:{lineno}", "event")
        try:
            if "decision" in record:
                audit_lib.decide(ledger, record["decision"])
                continue
            if "observable" not in record or "leakage" not in record:
                raise ValidationError("event needs 'observable' and 'leakage'")
            amount = record["leakage"]
            if type(amount) is not float:
                if type(amount) is not int:  # a string or a boolean is no JSON number
                    raise ValidationError(f"non-numeric leakage {amount!r}")
                amount = schema_lib.json_float(amount)
            observable, timestamp = record["observable"], record.get("timestamp", EPOCH)
            if not (isinstance(observable, str) and isinstance(timestamp, str)):
                key = "timestamp" if isinstance(observable, str) else "observable"
                raise ValidationError(f"event {key!r} must be a string, got {record[key]!r}")
            # a finite, nonnegative float in nats passes as it is (-0.0 as 0.0);
            # InfoQuantity checks and words any other amount or unit
            unit, sequence = record.get("unit", NATS), sequence + 1
            if unit != NATS or not 0.0 <= amount < math.inf:
                amount = InfoQuantity(amount, unit).in_nats()
            event = ledger._priced_event(sequence, timestamp, observable, amount + 0.0)
        except ValidationError as exc:
            raise ValidationError(f"{p}:{lineno}: {exc}") from None
        yield event


def _content_session_id(*paths, decision: str | None = None) -> str:
    digest = hashlib.sha256()
    for path in paths:
        for chunk in schema_lib.read_chunks(path):
            digest.update(chunk)
        digest.update(b"\x00")
    if decision is not None:  # without the flag, ids stay those of the files alone
        digest.update(f"--decision={decision}".encode("utf-8"))
    return digest.hexdigest()[:16]


def _spool():
    """An unnamed file in the system temporary directory, gone once closed,
    that holds any str: rows and lines wait there until they can be output."""
    return tempfile.TemporaryFile("w+", encoding="utf-8", errors="surrogatepass", newline="")


def _spooled(events, *spools):
    """Pass the events on, :data:`_SPOOL_BATCH` at a time, once each one's report
    row is written to the first spool and, if a second is given, its ledger line."""
    events = iter(events)
    while batch := list(itertools.islice(events, _SPOOL_BATCH)):
        for spool, form in zip(spools, (audit_lib.report_row, audit_lib.ledger_line)):
            spool.write("".join(map(form, batch)))
        yield from batch


def _returned(generator, into: list):
    """Pass on what ``generator`` yields, then append what it returns to ``into``."""
    into.append((yield from generator))


def _spooled_text(spool):
    """The text written to ``spool``, from its start, in 64 KiB pieces."""
    spool.seek(0)
    return iter(functools.partial(spool.read, 1 << 16), "")


@main.command(name="audit")
@click.option("--policy", "policy_path", required=True, help="Pricing-policy file.")
@click.option("--events", "events_path", required=True, help="Event-stream file.")
@click.option("--out", "ledger_path", required=True, help="Ledger file to write.")
@click.option("--decision", type=click.Choice(["granted", "denied"]), default=None,
              help="Consent decision when the stream carries none.")
@click.option("--session-id", default=None,
              help="Defaults to a content hash of policy, events and --decision.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
def audit_cmd(policy_path, events_path, ledger_path, decision, session_id, fmt):
    """Replay an event stream into a priced, closed ledger."""
    policy = pricing.load_policy(policy_path)
    ledger = audit_lib.open_session(
        policy, session_id or _content_session_id(policy_path, events_path, decision=decision)
    )
    # one pass in memory that does not grow with the stream: each event's ledger
    # line and report row are spooled; the header needs the final consent
    with _spool() as lines, _spool() as rows:
        events = _spooled(_priced_events(events_path, ledger), rows, lines)
        count, *totals = audit_lib.tally(events)
        if decision is not None:  # click has checked the value
            if ledger.consent != audit_lib.CONSENT_PENDING:
                raise ValidationError("decision given twice: in the stream and as --decision")
            audit_lib.decide(ledger, decision)
        elif ledger.consent == audit_lib.CONSENT_PENDING:
            raise ValidationError("the stream carries no decision line; pass --decision")
        report = audit_lib.build_report(ledger, totals)
        audit_lib.write_ledger(ledger, ledger_path, _spooled_text(lines), totals)
        _print_report(report, count, rows, fmt)


def _print_report(report, count, rows, fmt):
    """Print the report of ``count`` events whose rows are spooled in ``rows``."""
    if fmt == "machine":
        print(json.dumps({
            "session": report.session_id,
            "decision": report.decision,
            "events": count,
            "total_leakage_nats": report.total_leakage.in_nats(),
            "production_cost": _fmt_money(report.production_cost),
            "total_surcharge": str(report.total_surcharge),
            "grand_total": _fmt_money(report.grand_total),
            "currency": report.currency,
            "disclaimer": report.disclaimer,
        }))
        return
    sys.stdout.writelines(report.render_pieces(_spooled_text(rows)))


@main.command(name="report")
@click.option("--ledger", "ledger_path", required=True, help="Ledger file to read.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
def report_cmd(ledger_path, fmt):
    """Re-render the closure report of an existing ledger."""
    ledger, events = audit_lib.iter_ledger(ledger_path)
    # rows wait in a spool until the closure line has been checked; the count and
    # totals are the reader's own sums, which it returns
    with _spool() as rows:
        sums = []
        collections.deque(_spooled(_returned(events, sums), rows), maxlen=0)
        (count, *totals), = sums
        _print_report(audit_lib.build_report(ledger, totals), count, rows, fmt)


if __name__ == "__main__":
    main()
