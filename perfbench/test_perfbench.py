"""Self-tests of the benchmark: input generation, output checks, span
arithmetic, and agreement between ``BENCHMARK.json`` and ``run.py``.
Inputs are kept small so the whole module runs in a few seconds."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_check  # noqa: E402
import bench_inputs as bi  # noqa: E402
import run  # noqa: E402
from bench_spans import Recorder, Span, covered, self_times, totals_by_op  # noqa: E402

SMALL = {
    bi.KDE_ESTIMATE: 80,
    bi.PLUGIN_INGEST: 300,
    bi.SUBSET_PRICE: 4,
    bi.LEDGER_ROUNDTRIP: 50,
    bi.LEDGER_READ: 50,
}


def _files(inputs: bi.Inputs) -> dict[str, bytes]:
    return {name: Path(path).read_bytes() for name, path in inputs.files.items()}


@pytest.mark.parametrize("workload", bi.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    made = []
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        out = tmp_path / label
        out.mkdir()
        made.append(_files(bi.generate(workload, seed, str(out), SMALL[workload])))
    assert made[0] == made[1]
    assert made[0] != made[2]


def _cli(argv) -> str:
    root = HERE.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "leakpricer.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _bump_digit(text: str, marker: str) -> str:
    """Change the last digit on the first line containing ``marker``."""
    lines = text.split("\n")
    i = next(k for k, line in enumerate(lines) if marker in line)
    line = lines[i]
    j = max(k for k, ch in enumerate(line) if ch.isdigit())
    lines[i] = line[:j] + str((int(line[j]) + 1) % 10) + line[j + 1:]
    return "\n".join(lines)


@pytest.mark.parametrize("workload, marker", [
    (bi.KDE_ESTIMATE, "I(X;S)"),
    (bi.PLUGIN_INGEST, "I(X;S)"),
    (bi.SUBSET_PRICE, "surcharge ="),
    (bi.LEDGER_ROUNDTRIP, "grand total"),
])
def test_check_accepts_program_output_and_flags_one_changed_digit(tmp_path, workload, marker):
    inputs = bi.generate(workload, 3, str(tmp_path), SMALL[workload])
    expected = bench_check.reference(inputs)
    stdout = _cli(inputs.argv)
    assert bench_check.problems(workload, expected, stdout) == []
    assert bench_check.problems(workload, expected, _bump_digit(stdout, marker))


def test_ledger_read_matches_the_audit_it_rereads(tmp_path):
    inputs = bi.generate(bi.LEDGER_READ, 3, str(tmp_path), SMALL[bi.LEDGER_READ])
    audit = _cli(inputs.meta["audit_argv"])
    report = _cli(inputs.argv)
    assert report == audit
    assert bench_check.problems(bi.LEDGER_READ, bench_check.reference(inputs), report) == []


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 1),
        Span("schema.load_samples", 1.0, 4.0, 0, 1, {"rows": 5}),
        Span("infotheory.marginal_mi", 2.0, 3.0, 1, 1),
        Span("audit.write_ledger", 5.0, 9.0, 0, 1),
        Span("cli.main", 20.0, 21.0, -1, 2),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    totals = totals_by_op(spans)
    assert sum(t.self_s for t in totals[1].values()) == totals[1]["cli.main"].s
    assert totals[1]["schema.load_samples"].notes == {"rows": 5}
    assert totals[2]["cli.main"].calls == 1


def test_covered_clips_and_merges_overlaps():
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == 6.0
    assert covered([], 0.0, 1.0) == 0.0


def test_recorder_nests_spans_and_counts_errors():
    recorder = Recorder()

    def fail():
        raise ValueError("boom")

    inner = recorder.wrap("pricing.inner", fail)
    outer = recorder.wrap("audit.outer", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    assert [(s.name, s.parent) for s in recorder.spans] == [("audit.outer", -1),
                                                           ("pricing.inner", 0)]
    assert dict(recorder.errors) == {"audit.outer": 1, "pricing.inner": 1}


def test_tail_keeps_ten_samples_above_it():
    assert run.tail(list(range(100)))[0] == 89
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bi.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
