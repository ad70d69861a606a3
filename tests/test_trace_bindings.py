"""The benchmark tracer keeps attributing time to the package.

``perfbench/bench_tracer.py`` swaps each ``(module, attribute)`` in its
``BINDINGS`` for a timing wrapper, looking the module up in
``sys.modules`` after ``import leakpricer.cli``. A binding that no longer
resolves (a renamed function, a module imported lazily) breaks
``perfbench/run.py --trace 1``; one that resolves but is no longer called
through (a caller that binds the function by another name) silently
reads zero.
"""

from __future__ import annotations

import subprocess
import sys
from decimal import Decimal
from pathlib import Path

from click.testing import CliRunner

from leakpricer import NATS, InfoQuantity, PricingPolicy, audit, infotheory
from leakpricer.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_every_tracer_binding_resolves_after_importing_the_cli():
    # a fresh interpreter, so modules other tests imported do not hide a lazy import
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import bench_spans, bench_tracer\n"
        "bindings = bench_tracer.Bindings(bench_spans.Recorder())\n"
        "assert len(bindings.entries) == len(bench_tracer.BINDINGS)\n"
        "assert all(callable(plain) for _, _, plain, _ in bindings.entries)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_record_event_prices_through_the_audit_binding(monkeypatch):
    calls = []
    quantize = audit.quantize_money
    monkeypatch.setattr(
        audit, "quantize_money", lambda amount: calls.append(amount) or quantize(amount)
    )
    ledger = audit.open_session(PricingPolicy(production_cost=Decimal("0"), rate_per_nat=2.0))
    for _ in range(3):
        audit.record_event(ledger, "obs", InfoQuantity(0.5, NATS), timestamp="t")
    assert calls == [Decimal("1.0")] * 3


def test_weighted_price_computes_each_priced_subset_through_the_marginal_mi_binding(
    monkeypatch,
):
    subsets, reports = [], []
    marginal_mi = infotheory.marginal_mi
    monkeypatch.setattr(
        infotheory,
        "marginal_mi",
        lambda joint, schema, subset: subsets.append(subset) or marginal_mi(joint, schema, subset),
    )
    monkeypatch.setattr(
        infotheory, "intersection_leakage_report", lambda *args: reports.append(args)
    )
    data = ROOT / "data"
    result = CliRunner().invoke(main, [
        "price", "--policy", str(data / "policy_weighted.yaml"),
        "--table", str(data / "timeofday_sex_disability.csv"),
        "--schema", str(data / "profile_schema.yaml"),
    ])
    assert result.exit_code == 0, result.output
    assert subsets == [[0], [1], [0, 1]]
    assert reports == []


def test_audit_and_report_write_and_build_through_the_audit_bindings(
    monkeypatch, tmp_path
):
    calls = []
    for name in ("write_ledger", "build_report"):
        plain = getattr(audit, name)
        monkeypatch.setattr(
            audit, name,
            lambda *args, _plain=plain, _name=name: calls.append(_name) or _plain(*args),
        )
    data, ledger = ROOT / "data", tmp_path / "ledger.jsonl"
    result = CliRunner().invoke(main, [
        "audit", "--policy", str(data / "policy_calibrated.yaml"),
        "--events", str(data / "events.jsonl"), "--out", str(ledger),
    ])
    assert result.exit_code == 0, result.output
    assert calls == ["build_report", "write_ledger"]
    assert ledger.stat().st_size > 0
    calls.clear()
    reported = CliRunner().invoke(main, ["report", "--ledger", str(ledger)])
    assert reported.exit_code == 0, reported.output
    assert reported.output == result.output
    assert calls == ["build_report"]
