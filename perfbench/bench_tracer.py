"""In-process traced run of one leakpricer CLI operation.

Usage (from the root of a checkout; ``run.py --trace 1`` starts it)::

    python3 perfbench/bench_tracer.py --argv-json ARGV.json --seconds S --out DIR

Imports ``leakpricer`` from ``./src`` and calls
``cli.main(argv, standalone_mode=False)`` repeatedly: first one
untimed warm-up, then pairs of one plain call and one traced call, in
alternating order, until ``S`` seconds have passed. For a traced call a
wrapper is installed on each module attribute that a caller resolves
(``estimation.mutual_information`` and ``infotheory.mutual_information``
are separate bindings, each with its own wrapper). Writes to DIR:

* ``spans.json``: every span as [name, start, end, parent, op, notes];
* ``calls.json``: wall time, exit code and stdout digest of each call,
  plus the exceptions that crossed each wrapper;
* ``stdout.traced`` / ``stdout.plain``: stdout of the last call of each kind.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import time
import tracemalloc
import traceback

import click

from bench_spans import Recorder

#: (module, attribute, span name). The span is named after the module
#: that owns the work, except build_intersection_labels, which is
#: counted where infotheory rebuilds it once per subset.
BINDINGS = (
    ("schema", "load_schema", "schema.load_schema"),
    ("schema", "load_samples", "schema.load_samples"),
    ("estimation", "estimate_mi", "estimation.estimate_mi"),
    ("estimation", "silverman_bandwidth", "estimation.silverman_bandwidth"),
    ("estimation", "kde_log_densities", "estimation.kde_log_densities"),
    ("estimation", "empirical_joint", "estimation.empirical_joint"),
    ("estimation", "mutual_information", "infotheory.mutual_information"),
    ("infotheory", "read_joint_table", "infotheory.read_joint_table"),
    ("infotheory", "intersection_leakage_report", "infotheory.intersection_leakage_report"),
    ("infotheory", "marginal_mi", "infotheory.marginal_mi"),
    ("infotheory", "mutual_information", "infotheory.mutual_information"),
    ("infotheory", "build_intersection_labels", "infotheory.build_intersection_labels"),
    ("pricing", "load_policy", "pricing.load_policy"),
    ("pricing", "price_linear", "pricing.price_linear"),
    ("pricing", "price_weighted", "pricing.price_weighted"),
    ("audit", "quantize_money", "pricing.quantize_money"),
    ("audit", "open_session", "audit.open_session"),
    ("audit", "record_event", "audit.record_event"),
    ("audit", "close_session", "audit.close_session"),
    ("audit", "build_report", "audit.build_report"),
    ("audit", "write_ledger", "audit.write_ledger"),
    ("audit", "read_ledger", "audit.read_ledger"),
    ("audit.SessionReport", "render", "audit.render"),
)


def _noting(recorder: Recorder, name: str, fn):
    """Add the notes one binding reports to its span."""
    if name == "schema.load_samples":
        def inner(*args, **kwargs):
            result = fn(*args, **kwargs)
            recorder.note(rows=result.n)
            return result
    elif name == "estimation.kde_log_densities":
        def inner(samples, *args, **kwargs):
            tracemalloc.start()
            try:
                return fn(samples, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                recorder.note(peak_mb=peak / 2**20, n=samples.n)
    elif name == "audit.write_ledger":
        def inner(ledger, path, *args, **kwargs):
            result = fn(ledger, path, *args, **kwargs)
            recorder.note(bytes=os.path.getsize(path))
            return result
    else:
        return fn
    return inner


class Bindings:
    """Swaps every binding in :data:`BINDINGS` between plain and traced."""

    def __init__(self, recorder: Recorder) -> None:
        import leakpricer.cli  # noqa: F401  (loads every module below)

        self.entries = []
        for owner_path, attr, name in BINDINGS:
            owner = sys.modules["leakpricer." + owner_path.split(".")[0]]
            for part in owner_path.split(".")[1:]:
                owner = getattr(owner, part)
            plain = getattr(owner, attr)
            traced = recorder.wrap(name, _noting(recorder, name, plain))
            self.entries.append((owner, attr, plain, traced))

    def install(self, traced: bool) -> None:
        for owner, attr, plain, wrapped in self.entries:
            setattr(owner, attr, wrapped if traced else plain)


def _call(main, argv):
    """Run one command; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


def run(argv, seconds: float, out_dir: str) -> None:
    from leakpricer import cli

    recorder = Recorder()
    bindings = Bindings(recorder)
    traced_main = recorder.wrap("cli.main", cli.main)
    calls = []
    last = {}

    def one(traced: bool) -> float:
        bindings.install(traced)
        elapsed, code, stdout = _call(traced_main if traced else cli.main, argv)
        bindings.install(False)
        # keep the recorded spans out of later garbage-collector passes
        gc.freeze()
        kind = "traced" if traced else "plain"
        calls.append({"kind": kind, "s": elapsed, "code": code, "op": recorder.op,
                      "sha256": hashlib.sha256(stdout.encode()).hexdigest()})
        last[kind] = stdout
        return elapsed

    _call(cli.main, argv)  # warm-up: imports, caches, page cache
    begin = time.perf_counter()
    pair = 0
    while True:
        pair += 1
        recorder.op = pair
        first = pair % 2 == 0
        pair_s = one(first) + one(not first)
        if time.perf_counter() - begin + pair_s > seconds:
            break

    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent, s.op, s.notes]
                   for s in recorder.spans], fh)
    with open(os.path.join(out_dir, "calls.json"), "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "errors": recorder.errors}, fh)
    for kind, stdout in last.items():
        with open(os.path.join(out_dir, f"stdout.{kind}"), "w", encoding="utf-8") as fh:
            fh.write(stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--argv-json", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with open(args.argv_json, encoding="utf-8") as fh:
        argv = json.load(fh)
    run(argv, args.seconds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
