"""leakpricer benchmark: one closed-loop client running CLI operations.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs generated from the seed, see ``bench_inputs.py``):

* ``kde-estimate``: ``estimate`` on 4000 mixed rows (kernel route);
* ``plugin-ingest``: ``estimate`` on 200k categorical rows (counting);
* ``subset-price``: weighted ``price`` with 10 protected attributes;
* ``ledger-roundtrip``: ``audit`` of 100k events into a fresh ledger;
* ``ledger-read``: ``report`` re-reading a 100k-event ledger.

Each operation is one ``python -m leakpricer.cli`` subprocess with
``PYTHONPATH=src``, run one at a time. Every output is checked against
an independent reference (``bench_check.py``) outside the timed window.

``--trace 0`` prints the end-to-end metrics, timed on the subprocesses.
``--trace 1`` prints the per-layer metrics from a separate in-process
traced run (``bench_tracer.py``) plus import times from
``python -X importtime``. Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy

import bench_check
import bench_inputs as bi
from bench_spans import Span, Totals, totals_by_op

#: Fresh interpreters timed for ``setup_s``, after one warm-up import.
SETUP_RUNS = 5
#: Interpreters parsed for the ``setup.import.*`` metrics.
IMPORTTIME_RUNS = 3
IMPORTED_PACKAGES = ("leakpricer", "numpy", "yaml", "click")
#: Fewest timed operations in a run, whatever ``--seconds`` says.
MIN_OPS = 3
#: Samples a tail percentile must leave above it.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Three dense n x n float64 matrices: derived from n, not measured.
COMPUTED = "estimation.kde_log_densities.computed_bytes"

LAYERS = ("schema", "estimation", "infotheory", "pricing", "audit")

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("schema.load_samples.s", "s"),
    ("schema.load_samples.rows", "count"),
    ("schema.load_samples.rows_per_s", "1/s"),
    ("estimation.kde_log_densities.s", "s"),
    ("estimation.kde_log_densities.peak_mb", "MB"),
    ("estimation.kde_log_densities.computed_bytes", "bytes"),
    ("estimation.empirical_joint.s", "s"),
    ("estimation.estimate_mi.s", "s"),
    ("estimation.silverman_bandwidth.s", "s"),
    ("infotheory.intersection_leakage_report.s", "s"),
    ("infotheory.marginal_mi.calls", "count"),
    ("infotheory.marginal_mi.self_s", "s"),
    ("infotheory.mutual_information.calls", "count"),
    ("infotheory.mutual_information.s", "s"),
    ("infotheory.build_intersection_labels.calls", "count"),
    ("infotheory.build_intersection_labels.per_report", "count"),
    ("infotheory.read_joint_table.s", "s"),
    ("pricing.quantize_money.calls", "count"),
    ("pricing.quantize_money.s", "s"),
    ("pricing.load_policy.s", "s"),
    ("pricing.price_weighted.s", "s"),
    ("pricing.price_linear.s", "s"),
    ("audit.record_event.calls", "count"),
    ("audit.record_event.self_s", "s"),
    ("audit.write_ledger.s", "s"),
    ("audit.write_ledger.bytes", "bytes"),
    ("audit.read_ledger.s", "s"),
    ("audit.build_report.s", "s"),
    ("audit.render.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.errors", "count") for layer in (*LAYERS, "cli")),
    *((f"setup.import.{pkg}.us", "us") for pkg in IMPORTED_PACKAGES),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
)


class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(argv, env, out_path: str, err_path: str):
    """Run ``python argv`` to completion; returns (seconds, exit code, maxrss KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def tail(values):
    """(value, label) of the highest order statistic with at least
    :data:`TAIL_BEYOND` samples above it; the median when fewer than
    twice that many samples leave no such statistic above the middle."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1
    if rank < (n - 1) // 2:
        return statistics.median(ordered), f"p50 (fewer than {2 * TAIL_BEYOND} samples)"
    return ordered[rank], f"p{100.0 * (rank + 1) / n:.1f}"


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Run:
    """One benchmark run: inputs in a temporary directory, counters, output."""

    def __init__(self, workload: str, seed: int, seconds: float, root: str, tmp: str):
        self.workload = workload
        self.seconds = seconds
        self.tmp = tmp
        self.env = child_env(root)
        self.inputs = bi.generate(workload, seed, tmp)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def cli(self, argv, tag: str):
        out = os.path.join(self.tmp, f"{tag}.out")
        err = os.path.join(self.tmp, f"{tag}.err")
        seconds, code, rss = spawn(["-m", "leakpricer.cli", *argv], self.env, out, err)
        return seconds, code, rss, out, err

    def verify(self, code: int, stdout: str, err_path: str | None = None,
               same_as: str | None = None) -> None:
        """Count one operation and whether its output passed the check;
        ``same_as`` is output it must also equal byte for byte."""
        self.attempted += 1
        if code:
            found = [f"exit code {code}"]
        elif same_as is not None and stdout != same_as:
            found = ["stdout differs from the audit stdout"]
        else:
            found = bench_check.problems(self.workload, self.expected, stdout)
        if found:
            self.failed += 1
            detail = read_text(err_path).strip()[-300:] if err_path else ""
            self.notes.append(f"check failed: {found[0][:300]} {detail}".rstrip())

    def prepare(self) -> None:
        for name, size in sorted(self.inputs.sizes().items()):
            print(f"input {name} {size} bytes")
        if self.workload == bi.LEDGER_READ:
            # the ledger to read is the program's own audit output
            _, code, _, out, err = self.cli(self.inputs.meta["audit_argv"], "prepare")
            if code:
                raise Failure(f"preparing the ledger failed: {read_text(err)[-300:]}")
            self.audit_stdout = read_text(out)
        self.expected = bench_check.reference(self.inputs)
        if self.workload == bi.LEDGER_READ:
            self.verify(0, self.audit_stdout)

    # -- end-to-end -------------------------------------------------------

    def setup_seconds(self) -> list[float]:
        argv = ["-c", "import leakpricer.cli"]
        out, err = os.path.join(self.tmp, "setup.out"), os.path.join(self.tmp, "setup.err")
        times = []
        for i in range(SETUP_RUNS + 1):
            seconds, code, _ = spawn(argv, self.env, out, err)
            if code:
                raise Failure(f"import leakpricer.cli failed: {read_text(err)[-300:]}")
            if i:
                times.append(seconds)
        return times

    def operation(self):
        """One checked operation; returns (seconds, maxrss KiB)."""
        if self.workload == bi.LEDGER_ROUNDTRIP:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.inputs.meta["ledger"])  # a fresh ledger each time
        seconds, code, rss, out, err = self.cli(self.inputs.argv, "op")
        stdout = read_text(out)
        reread = self.workload == bi.LEDGER_READ
        self.verify(code, stdout, err, same_as=self.audit_stdout if reread else None)
        if self.workload == bi.LEDGER_ROUNDTRIP:
            self.audit_stdout = stdout
        return seconds, rss

    def roundtrip(self) -> None:
        """The ledger the last audit wrote re-renders byte-identically."""
        _, code, _, out, err = self.cli(["report", "--ledger", self.inputs.meta["ledger"]],
                                        "report")
        self.verify(code, read_text(out), err, same_as=self.audit_stdout)

    def end_to_end(self) -> dict:
        setup = self.setup_seconds()
        times = []
        peak = 0
        begin = time.perf_counter()
        while True:
            seconds, rss = self.operation()
            times.append(seconds)
            peak = max(peak, rss)
            left = self.seconds - (time.perf_counter() - begin)
            if len(times) >= MIN_OPS and left < statistics.median(times):
                break
        if self.workload == bi.LEDGER_ROUNDTRIP:
            self.roundtrip()
        tail_s, tail_label = tail(times)
        n = len(times)
        return {
            "setup_s": (statistics.median(setup), len(setup), ""),
            "op_s.p50": (statistics.median(times), n, ""),
            "op_s.tail": (tail_s, n, tail_label),
            "items_per_s": (self.inputs.items * n / sum(times), n,
                            f"{self.inputs.items} items per operation"),
            "peak_rss_mb": (peak / 1024.0, n, "largest child ru_maxrss"),
        }

    # -- per layer --------------------------------------------------------

    def import_times(self) -> dict[str, float]:
        """Cumulative microseconds per package, median over fresh interpreters."""
        argv = ["-X", "importtime", "-c", "import leakpricer.cli"]
        out, err = os.path.join(self.tmp, "imp.out"), os.path.join(self.tmp, "imp.err")
        seen: dict[str, list[float]] = {pkg: [] for pkg in IMPORTED_PACKAGES}
        for _ in range(IMPORTTIME_RUNS):
            _, code, _ = spawn(argv, self.env, out, err)
            if code:
                raise Failure(f"-X importtime failed: {read_text(err)[-300:]}")
            for line in read_text(err).splitlines():
                fields = line.split("|")
                if line.startswith("import time:") and len(fields) == 3:
                    if fields[2].strip() in seen:
                        seen[fields[2].strip()].append(float(fields[1]))
        return {pkg: statistics.median(v) if v else 0.0 for pkg, v in seen.items()}

    def per_layer(self) -> dict:
        argv_path = os.path.join(self.tmp, "argv.json")
        with open(argv_path, "w", encoding="utf-8") as fh:
            json.dump(self.inputs.argv, fh)
        tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_tracer.py")
        _, code, _ = spawn(
            [tracer, "--argv-json", argv_path, "--seconds", repr(self.seconds),
             "--out", self.tmp],
            self.env, os.path.join(self.tmp, "tracer.out"), os.path.join(self.tmp, "tracer.err"),
        )
        if code:
            raise Failure(f"traced run failed: {read_text(os.path.join(self.tmp, 'tracer.err'))[-500:]}")
        with open(os.path.join(self.tmp, "calls.json"), encoding="utf-8") as fh:
            record = json.load(fh)
        calls = record["calls"]
        last = {kind: read_text(os.path.join(self.tmp, f"stdout.{kind}"))
                for kind in ("plain", "traced")}
        digest = {kind: hashlib.sha256(text.encode()).hexdigest() for kind, text in last.items()}
        for call in calls:
            if call["sha256"] == digest[call["kind"]]:
                self.verify(call["code"], last[call["kind"]])
            else:
                self.attempted += 1
                self.failed += 1
                self.notes.append("check failed: a traced-run call printed other stdout "
                                  "than the last call of its kind")
        with open(os.path.join(self.tmp, "spans.json"), encoding="utf-8") as fh:
            spans = [Span(*row) for row in json.load(fh)]
        print(f"trace {len(spans)} spans over {len(calls)} calls")

        traced = {c["op"]: c["s"] for c in calls if c["kind"] == "traced"}
        plain = [c["s"] for c in calls if c["kind"] == "plain"]
        by_op = totals_by_op(spans)
        rows = [layer_metrics(by_op[op], op_s) for op, op_s in sorted(traced.items())]
        metrics = {name: (statistics.median(r[name] for r in rows), len(rows), "")
                   for name in rows[0]}
        metrics[COMPUTED] = (*metrics[COMPUTED][:2], "computed as 3*n*n*8, not measured")
        for layer in (*LAYERS, "cli"):
            count = sum(v for k, v in record["errors"].items() if k.split(".")[0] == layer)
            metrics[f"{layer}.errors"] = (count, len(calls), "")
        for pkg, us in self.import_times().items():
            metrics[f"setup.import.{pkg}.us"] = (us, IMPORTTIME_RUNS, "cumulative")
        untraced = statistics.median(plain)
        metrics["trace.untraced_op_s"] = (untraced, len(plain), "in-process, plain")
        metrics["trace.overhead_ratio"] = (metrics["trace.op_s"][0] / untraced, len(rows),
                                           "traced / untraced in-process median")
        return metrics


def layer_metrics(totals: dict[str, Totals], op_s: float) -> dict[str, float]:
    """Per-layer values of one traced operation."""
    none = Totals()

    def get(name: str) -> Totals:
        return totals.get(name, none)

    out = {}
    for name, _ in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if quantity in ("s", "self_s", "calls") and span in totals:
            out[name] = getattr(get(span), quantity)
    for name, _ in PER_LAYER:
        out.setdefault(name, 0.0)
    load = get("schema.load_samples")
    out["schema.load_samples.rows"] = load.notes.get("rows", 0)
    out["schema.load_samples.rows_per_s"] = load.notes.get("rows", 0) / load.s if load.s else 0.0
    kde = get("estimation.kde_log_densities")
    out["estimation.kde_log_densities.peak_mb"] = kde.notes.get("peak_mb", 0.0)
    out[COMPUTED] = 3 * kde.notes.get("n", 0) ** 2 * 8
    reports = get("infotheory.intersection_leakage_report").calls
    labels = get("infotheory.build_intersection_labels").calls
    out["infotheory.build_intersection_labels.per_report"] = labels / reports if reports else 0.0
    out["audit.write_ledger.bytes"] = get("audit.write_ledger").notes.get("bytes", 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t.self_s for name, t in totals.items() if name.split(".")[0] == layer)
    out["trace.op_s"] = op_s
    accounted = get("cli.main").self_s + sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.accounted_ratio"] = accounted / op_s
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bi.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "leakpricer", "cli.py")):
        print("error: run from the root of a leakpricer checkout (no src/leakpricer/cli.py)",
              file=sys.stderr)
        return 2
    tmp_root = os.path.join(root, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print(f"machine nproc {os.cpu_count()} python {sys.version.split()[0]} "
              f"numpy {numpy.__version__}; one closed-loop client")
        run = Run(args.workload, args.seed, args.seconds, root, tmp)
        run.prepare()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it

    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, unit in units.items():
        value, samples, label = metrics[name]
        print(f"metric {name} {value:.6g} {unit} n={samples} {label}".rstrip())
    print(f"metric fail_ratio {run.failed / run.attempted:.6g} ratio "
          f"n={run.attempted}")
    for note in run.notes:
        print(note)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
