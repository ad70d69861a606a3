"""Independent output checks for the leakpricer benchmark.

Nothing here imports ``leakpricer``. Each workload's expected output is
recomputed from the generated files alone: a numpy product-kernel
reference for the kernel estimate, a count-based mutual information
for plug-in counting, brute-force subset collapses for weighted
pricing, and a ``Decimal`` replay of the event stream for the ledger.
:func:`reference` runs once per benchmark run, outside any timed
window; :func:`problems` then compares one operation's stdout with it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np

import bench_inputs as bi

MONEY = Decimal("0.0001")
LN2 = math.log(2.0)
#: Rows of the kernel reference evaluated at once; caps its memory at
#: a few BLOCK x n float arrays.
BLOCK = 256


def _money(amount: Decimal) -> str:
    return str(amount.quantize(MONEY, rounding=ROUND_HALF_EVEN))


def _info(value: float) -> str:
    return f"{value:.6f}"


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def silverman(values: np.ndarray) -> float:
    return 1.06 * float(values.std(ddof=1)) * values.size ** (-1.0 / 5.0)


def kde_mi_nats(groups: np.ndarray, s_values: np.ndarray, x_values: np.ndarray,
                hs: float, hx: float) -> float:
    """Resubstitution mean of log p(x,s) - log p(x) - log p(s) with
    Gaussian product kernels, a categorical match on ``groups``, and
    rows evaluated :data:`BLOCK` at a time."""
    n = groups.size
    norm_s = hs * math.sqrt(2.0 * math.pi)
    norm_x = hx * math.sqrt(2.0 * math.pi)
    terms = np.empty(n)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        match = (groups[lo:hi, None] == groups[None, :]).astype(float)
        zs = (s_values[lo:hi, None] - s_values[None, :]) / hs
        zx = (x_values[lo:hi, None] - x_values[None, :]) / hx
        ks = match * (np.exp(-0.5 * zs * zs) / norm_s)
        kx = np.exp(-0.5 * zx * zx) / norm_x
        joint = (ks * kx).mean(axis=1)
        terms[lo:hi] = np.log(joint) - np.log(kx.mean(axis=1)) - np.log(ks.mean(axis=1))
    return float(terms.mean())


def counts_mi_nats(pairs) -> float:
    """I(X;S) of the empirical distribution of (s, x) pairs, from counts."""
    joint = Counter(pairs)
    n = sum(joint.values())
    cs = Counter()
    cx = Counter()
    for (s, x), c in joint.items():
        cs[s] += c
        cx[x] += c
    return sum(c / n * math.log(c * n / (cs[s] * cx[x])) for (s, x), c in joint.items())


def table_mi_nats(cells) -> float:
    """I(X;S) in the Kullback-Leibler form, cell by cell (rows are x)."""
    px = [sum(row) for row in cells]
    ps = [sum(row[j] for row in cells) for j in range(len(cells[0]))]
    total = 0.0
    for i, row in enumerate(cells):
        for j, p in enumerate(row):
            if p > 0:
                total += p * math.log(p / (px[i] * ps[j]))
    return total


def _expect_kde(inputs):
    _, rows = _read_csv(inputs.files["samples"])
    groups = np.array([0 if r[0] == "male" else 1 for r in rows])
    s_values = np.array([float(r[1]) for r in rows])
    x_values = np.array([float(r[2]) for r in rows])
    hs, hx = silverman(s_values), silverman(x_values)
    mi = max(kde_mi_nats(groups, s_values, x_values, hs, hx), 0.0)
    return [
        "method = kde-monte-carlo",
        f"n = {len(rows)}",
        "seed = 0",
        f"bandwidth[impairment] = {_info(hs)}",
        f"bandwidth[keystroke_interval] = {_info(hx)}",
        f"I(X;S) = {_info(mi)} nats",
    ]


def _expect_plugin(inputs):
    _, rows = _read_csv(inputs.files["samples"])
    mi = counts_mi_nats((tuple(r[:-1]), r[-1]) for r in rows)
    return ["method = plug-in-counts", f"n = {len(rows)}", f"I(X;S) = {_info(mi)} nats"]


def _expect_subset(inputs):
    header, rows = _read_csv(inputs.files["table"])
    cells = [[float(v) for v in row[1:]] for row in rows]
    total = sum(sum(row) for row in cells)
    cells = [[v / total for v in row] for row in cells]
    labels = [label.split("+") for label in header[1:]]
    names = [f"p{i}" for i in range(len(labels[0]))]
    lines = ["rule = weighted"]
    surcharge = Decimal(0)
    priced = 0.0
    for key, rate in inputs.meta["rates"].items():
        kept = [names.index(name) for name in key.split("+")]
        groups: dict[tuple, list[int]] = {}
        for j, label in enumerate(labels):
            groups.setdefault(tuple(label[i] for i in kept), []).append(j)
        collapsed = [[sum(row[j] for j in cols) for cols in groups.values()] for row in cells]
        mi = max(table_mi_nats(collapsed), 0.0)
        lines.append(f"leakage[{key}] = {_info(mi)} nats")
        surcharge += Decimal(str(float(rate))) * Decimal(str(mi))
        priced += mi
    production = Decimal(inputs.meta["production_cost"])
    lines += [
        f"leakage = {_info(priced)} nats",
        f"production = {_money(production)} USD",
        f"surcharge = {_money(surcharge)} USD",
        f"total = {_money(production + surcharge)} USD",
    ]
    return lines


def _expect_ledger(inputs):
    """Session header, event count and closing totals of the report."""
    rate = Decimal(str(float(inputs.meta["rate"])))
    surcharge = Decimal("0.0000")
    nats_total = 0.0
    events = 0
    with open(inputs.files["events"], encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "decision" in record:
                decision = record["decision"]
                continue
            nats = float(record["leakage"])
            if record.get("unit") == "bits":
                nats *= LN2
            surcharge += (rate * Decimal(str(nats))).quantize(MONEY, rounding=ROUND_HALF_EVEN)
            nats_total += nats
            events += 1
    digest = hashlib.sha256()
    for name in ("policy", "events"):
        with open(inputs.files[name], "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\x00")
    production = Decimal(inputs.meta["production_cost"])
    head = [f"session {digest.hexdigest()[:16]}", f"decision: {decision}"]
    tail = [
        f"total leakage:   {nats_total:.6f} nats ({nats_total / LN2:.6f} bits)",
        f"production cost: {_money(production)} USD",
        f"total surcharge: {surcharge} USD",
        f"grand total:     {_money(production + surcharge)} USD",
    ]
    return {"head": head, "events": events, "tail": tail}


def reference(inputs: bi.Inputs):
    """Expected output of one operation, computed from the input files."""
    if inputs.workload == bi.KDE_ESTIMATE:
        return _expect_kde(inputs)
    if inputs.workload == bi.PLUGIN_INGEST:
        return _expect_plugin(inputs)
    if inputs.workload == bi.SUBSET_PRICE:
        return _expect_subset(inputs)
    return _expect_ledger(inputs)


def problems(workload: str, expected, stdout: str) -> list[str]:
    """Differences between one operation's stdout and the reference."""
    lines = stdout.splitlines()
    if workload in (bi.LEDGER_ROUNDTRIP, bi.LEDGER_READ):
        found = []
        if lines[:2] != expected["head"]:
            found.append(f"header {lines[:2]!r} != {expected['head']!r}")
        # session, decision, blank, column titles; events; blank, four
        # totals, disclaimer
        if len(lines) != expected["events"] + 10:
            found.append(f"{len(lines) - 10} event rows, expected {expected['events']}")
        if lines[-5:-1] != expected["tail"]:
            found.append(f"totals {lines[-5:-1]!r} != {expected['tail']!r}")
        return found
    if lines != expected:
        return [f"stdout {lines!r} != {expected!r}"]
    return []
