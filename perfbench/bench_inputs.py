"""Seeded input generator for the leakpricer benchmark.

Each workload's inputs are a pure function of the seed: the same seed
writes byte-identical files. Files go to a directory the caller names;
nothing generated belongs in the repository. The returned
:class:`Inputs` lists the CLI arguments of one operation, so the
program under test receives only the generated files.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

KDE_ESTIMATE = "kde-estimate"
PLUGIN_INGEST = "plugin-ingest"
SUBSET_PRICE = "subset-price"
LEDGER_ROUNDTRIP = "ledger-roundtrip"
LEDGER_READ = "ledger-read"
WORKLOADS = (KDE_ESTIMATE, PLUGIN_INGEST, SUBSET_PRICE, LEDGER_ROUNDTRIP, LEDGER_READ)

#: Input size per workload: rows, attributes or events.
DEFAULT_SIZES = {
    KDE_ESTIMATE: 4000,
    PLUGIN_INGEST: 200_000,
    SUBSET_PRICE: 10,
    LEDGER_ROUNDTRIP: 100_000,
    LEDGER_READ: 100_000,
}

SUBSET_X_LEVELS = 8
PLUGIN_PROFILE = (
    ("sex", ("male", "female")),
    ("disability", ("abled", "disabled")),
    ("age", ("a18_29", "a30_39", "a40_49", "a50_64", "a65_up")),
)
PLUGIN_HOURS = tuple(f"h{h:02d}" for h in range(24))
OBSERVABLES = (
    "request timestamp", "screen resolution", "keystroke interval",
    "font list", "time zone", "battery level", "scroll speed",
    "locale", "pointer jitter", "session length", "referrer", "tab count",
)
PRODUCTION_COST = "0.001"


@dataclass
class Inputs:
    """Generated files plus what one operation runs and checks against.

    ``argv`` is the CLI argument list of one operation; ``items`` is the
    work one operation does (rows, reported subsets or events); ``meta``
    holds generation parameters the output check needs.
    """

    workload: str
    argv: list[str]
    items: int
    files: dict[str, str] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def sizes(self) -> dict[str, int]:
        return {name: os.path.getsize(path) for name, path in self.files.items()}


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _schema_yaml(attributes, observable) -> str:
    """Schema document; each spec is a tuple of levels or (lower, upper) bounds."""

    def fields(name, spec):
        if isinstance(spec[0], str):
            return [f"name: {name}", "kind: categorical", f"levels: [{', '.join(spec)}]"]
        return [f"name: {name}", "kind: continuous", f"range: [{spec[0]!r}, {spec[1]!r}]"]

    lines = ["attributes:"]
    for name, spec in attributes:
        first, *rest = fields(name, spec)
        lines += [f"  - {first}"] + [f"    {field}" for field in rest]
    lines += ["observable:"] + [f"  {field}" for field in fields(*observable)]
    return "\n".join(lines) + "\n"


def _kde_estimate(rng, n, out):
    sex = rng.integers(0, 2, n)
    impairment = rng.beta(2.0, 5.0, n)
    interval = 120.0 + 250.0 * impairment + 25.0 * sex + rng.normal(0.0, 35.0, n)
    interval = np.clip(interval, 20.0, 600.0)
    names = ("male", "female")
    lines = ["sex,impairment,keystroke_interval"]
    lines += [
        f"{names[s]},{imp:.6f},{iv:.4f}"
        for s, imp, iv in zip(sex.tolist(), impairment.tolist(), interval.tolist())
    ]
    schema = _schema_yaml(
        [("sex", names), ("impairment", (0.0, 1.0))],
        ("keystroke_interval", (20.0, 600.0)),
    )
    files = {
        "schema": _write(os.path.join(out, "kde_schema.yaml"), schema),
        "samples": _write(os.path.join(out, "kde_samples.csv"), "\n".join(lines) + "\n"),
    }
    argv = ["estimate", "--schema", files["schema"], "--samples", files["samples"]]
    return Inputs(KDE_ESTIMATE, argv, n, files)


def _plugin_ingest(rng, n, out):
    codes = [rng.integers(0, len(levels), n) for _, levels in PLUGIN_PROFILE]
    shift = 3 * codes[0] + 5 * codes[1] + 2 * codes[2]
    hour = (9 + shift + rng.poisson(2.0, n) - rng.poisson(2.0, n)) % len(PLUGIN_HOURS)
    columns = [np.array(levels)[c] for (_, levels), c in zip(PLUGIN_PROFILE, codes)]
    columns.append(np.array(PLUGIN_HOURS)[hour])
    header = ",".join([name for name, _ in PLUGIN_PROFILE] + ["hour"])
    lines = [header] + [",".join(row) for row in zip(*(c.tolist() for c in columns))]
    schema = _schema_yaml(list(PLUGIN_PROFILE), ("hour", PLUGIN_HOURS))
    files = {
        "schema": _write(os.path.join(out, "plugin_schema.yaml"), schema),
        "samples": _write(os.path.join(out, "plugin_samples.csv"), "\n".join(lines) + "\n"),
    }
    argv = ["estimate", "--schema", files["schema"], "--samples", files["samples"]]
    return Inputs(PLUGIN_INGEST, argv, n, files)


def _subset_price(rng, m, out):
    names = [f"p{i}" for i in range(m)]
    levels = ("lo", "hi")
    combos = np.array(list(itertools.product((0, 1), repeat=m)), dtype=float)
    prior = np.exp(combos @ rng.normal(0.0, 0.6, m))
    prior /= prior.sum()
    logits = combos @ rng.normal(0.0, 0.8, (m, SUBSET_X_LEVELS))
    logits += rng.normal(0.0, 0.3, logits.shape)
    cond = np.exp(logits)
    cond /= cond.sum(axis=1, keepdims=True)
    table = (prior[:, None] * cond).T
    table /= table.sum()
    labels = ["+".join(levels[int(b)] for b in row) for row in combos]
    lines = ["x," + ",".join(labels)]
    lines += [
        f"c{i}," + ",".join(repr(v) for v in row.tolist()) for i, row in enumerate(table)
    ]
    # a few priced subsets of different sizes, the full profile among them
    sizes = (1, 2, 3, m)
    rates = {}
    for size in sizes:
        subset = sorted(rng.choice(m, size, replace=False).tolist())
        rates["+".join(names[i] for i in subset)] = int(rng.integers(5, 100)) * 100
    policy = f"c_p: {PRODUCTION_COST}\nlambda:\n"
    policy += "".join(f"  {key}: {rate}\n" for key, rate in rates.items())
    policy += "lambda_unit: per_nat\ncurrency: USD\n"
    schema = _schema_yaml(
        [(name, levels) for name in names],
        ("channel", tuple(f"c{i}" for i in range(SUBSET_X_LEVELS))),
    )
    files = {
        "schema": _write(os.path.join(out, "subset_schema.yaml"), schema),
        "table": _write(os.path.join(out, "subset_table.csv"), "\n".join(lines) + "\n"),
        "policy": _write(os.path.join(out, "subset_policy.yaml"), policy),
    }
    argv = ["price", "--policy", files["policy"], "--table", files["table"],
            "--schema", files["schema"]]
    meta = {"rates": rates, "production_cost": PRODUCTION_COST}
    return Inputs(SUBSET_PRICE, argv, 2 ** m - 1, files, meta)


def _event_stream(rng, n, out, workload):
    rate = round(float(rng.uniform(5000.0, 50000.0)), 4)
    policy = (f"c_p: {PRODUCTION_COST}\nlambda: {rate!r}\n"
              "lambda_unit: per_nat\ncurrency: USD\n")
    which = rng.integers(0, len(OBSERVABLES), n).tolist()
    leak = rng.exponential(0.01, n).tolist()
    in_bits = (rng.random(n) < 0.1).tolist()
    gaps = np.cumsum(rng.integers(1, 120, n)).tolist()
    start = datetime(2024, 5, 1, 9, 0, 0, tzinfo=timezone.utc)
    lines = []
    for k, v, bits, gap in zip(which, leak, in_bits, gaps):
        stamp = (start + timedelta(seconds=gap)).isoformat()
        unit = "bits" if bits else "nats"
        lines.append(
            f'{{"observable": "{OBSERVABLES[k]}", "leakage": {v:.8f}, '
            f'"unit": "{unit}", "timestamp": "{stamp}"}}'
        )
    lines.append('{"decision": "granted"}')
    files = {
        "policy": _write(os.path.join(out, "ledger_policy.yaml"), policy),
        "events": _write(os.path.join(out, "events.jsonl"), "\n".join(lines) + "\n"),
    }
    ledger = os.path.join(out, "ledger.jsonl")
    audit = ["audit", "--policy", files["policy"], "--events", files["events"],
             "--out", ledger]
    meta = {"rate": rate, "production_cost": PRODUCTION_COST, "ledger": ledger,
            "audit_argv": audit}
    argv = audit if workload == LEDGER_ROUNDTRIP else ["report", "--ledger", ledger]
    return Inputs(workload, argv, n, files, meta)


def generate(workload: str, seed: int, out_dir: str, size: int | None = None) -> Inputs:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``.

    ``size`` overrides :data:`DEFAULT_SIZES` (the self-tests use small
    inputs). The ledger-read workload's ledger is not written here: it
    is the output of the program's own ``audit`` command.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    # the workload name is mixed in so two workloads never share a stream
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = DEFAULT_SIZES[workload] if size is None else size
    if workload == KDE_ESTIMATE:
        return _kde_estimate(rng, n, out_dir)
    if workload == PLUGIN_INGEST:
        return _plugin_ingest(rng, n, out_dir)
    if workload == SUBSET_PRICE:
        return _subset_price(rng, n, out_dir)
    return _event_stream(rng, n, out_dir, workload)
