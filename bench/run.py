"""Benchmark of the tsleakscan CLI on seeded workloads with planted leaks.

Usage:
    python3 bench/run.py --workload m1-like|long-gaps|dense-blocks|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory. A run generates its workload from the seed, then repeats whole
rounds of fresh CLI processes (``--workers 1``) for at least ``--seconds``
seconds and at least two rounds, and checks every output against the
planted truth (see checks.py). It prints one line per metric and, last, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics, each a median over the run:
explain_s and viz_s (wall time of the process), setup_s (a process that
imports the package and loads the input, twice a round) and peak_rss_mb
(of the explain process). Each time is scaled by the machine's speed in
its round: times CALIBRATION_REF_S over the wall time of a calibration
process that does fixed work without the package. --trace 1 runs explain and viz under traced.py
and reports the per-layer metrics, medians over rounds, and the tracing
overhead against an untraced explain run in the same round.
``--workload all`` runs every workload both ways and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
TRACED = ROOT / "bench" / "traced.py"
LAUNCHER = ROOT / "bench" / "launcher.py"

MIN_ROUNDS = 2
SETUPS_PER_ROUND = 2
PROCESS_LIMIT_S = 150.0  # a CLI process still running after this is killed
RUN_LIMIT_S = 150.0  # no round starts that would likely end after this

END_TO_END = {"explain_s": "s", "viz_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "collection.load_s": "s", "collection.values_per_s": "1/s",
    "scan.s": "s", "scan.self_s": "s", "scan.pairs": "count", "scan.pairs_per_s": "1/s",
    "corr.s": "s", "corr.calls": "count", "corr.us_per_call": "us",
    "corr.windows": "count", "corr.windows_skipped": "count", "corr.windows_per_s": "1/s",
    "corr.window_values": "count", "corr.hit_ratio": "ratio",
    "reasons.s": "s", "reasons.us_per_match": "us",
    "report.json_s": "s", "report.json_bytes": "B",
    "report.matrix_s": "s", "report.heatmap_s": "s", "report.heatmap_bytes": "B",
    "cli.explain_rest_s": "s", "trace.overhead_pct": "%",
}
# counts the planted truth fixes: the checks hold them to it, so they are
# printed with the per-layer metrics but have no better direction
CHECKED_COUNTS = {"scan.matches": "count", "reasons.useful": "count"}
EXPLAIN_LAYERS = ("collection.load", "scan", "corr", "reasons", "report.json")
VIZ_LAYERS = ("collection.load", "scan", "corr", "report.matrix", "report.matrix_csv",
              "report.heatmap")

SETUP_CODE = """\
import sys
from tsleakscan import MissingPolicy, load_collection
c = load_collection(sys.argv[1], format=sys.argv[2], policy=MissingPolicy(sys.argv[3]))
print(len(c), sum(len(s.values) for s in c))
"""
# Fixed work of the CLI's kind (interpreter start, numpy import, small-array
# numpy calls in a Python loop) that never imports the package. The machine
# this was tuned on ran up to 40 % slower for minutes at a time; a round's
# CLI times divided by its calibration time drift far less than the times.
CALIBRATION_CODE = """\
import numpy as np
x = np.arange(40.0)
s = 0.0
for i in range(20000):
    w = x[i % 30: i % 30 + 6]
    w = w - w.mean()
    s += float(w @ w) / float(np.sqrt((w * w).sum()))
print(s)
"""
CALIBRATION_REF_S = 0.45  # about the calibration wall time on a 2-vCPU VM (0.36-0.55 s)
FORMATS = {"long": "long-csv", "wide": "wide-csv", "json": "json"}
POLICIES = {"reject": "reject", "skip": "split-skip"}


class Launcher:
    """A launcher.py child that starts and times the CLI processes."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("TSLEAKSCAN_WORKERS", None)
        self.proc = subprocess.Popen([sys.executable, str(LAUNCHER)], cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv, tag):
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "env": self.env,
                   "limit": PROCESS_LIMIT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Process(reply["code"], reply["wall"], reply["rss_kib"] / 1024.0,
                       out.read_text(encoding="utf-8", errors="replace"),
                       err.read_text(encoding="utf-8", errors="replace"))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Process:
    """One finished child process."""

    code: int
    wall: float  # seconds from start to exit
    rss_mb: float  # peak resident memory in MiB
    stdout: str
    stderr: str


class Tally:
    """Operations attempted and failed: every CLI process and every check."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, name, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {name}: {error}", file=sys.stderr)
        return error is None

    def process(self, name, p):
        error = None if p.code == 0 else f"exit {p.code}: {p.stderr.strip()[-500:]}"
        return self.record(name, error)

    def checks(self, prefix, results):
        for name, error in results:
            self.record(f"{prefix}.{name}", error)


class Run:
    def __init__(self, workload, seed, work, launcher):
        self.w = workloads.make(workload, seed)
        self.work = work
        self.launch = launcher.run
        self.input = work / self.w.filename
        self.w.write(self.input)
        self.cli = self.w.cli_args(self.input)
        self.tally = Tally()
        self.samples = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def explain_argv(self, report):
        return ["explain", *self.cli, "--horizon", str(self.w.horizon), "--output", str(report)]

    def viz_argv(self, svg):
        return ["viz", *self.cli, "--output", str(svg)]

    def setup(self):
        return self.launch([sys.executable, "-c", SETUP_CODE, str(self.input),
                            FORMATS[self.w.fmt], POLICIES[self.w.missing]], "setup")

    def check_setup(self, p):
        want = f"{len(self.w.series)} {self.w.n_values()}"
        got = p.stdout.strip()
        return self.tally.record("setup.loaded", None if got == want else f"printed {got!r}")

    def check_outputs(self, explain, report_path, viz, svg_path):
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None  # report_parses fails, and every check after it
        self.tally.checks("explain", checks.run_checks(
            self.w, checks.explain_checks(self.w), report, explain.stdout))
        self.tally.checks("viz", checks.run_checks(
            self.w, checks.VIZ_CHECKS, report, viz.stdout, svg_path.with_suffix(".csv"), svg_path))

    def outputs(self):
        """Paths of the report and heatmap, with every earlier output removed,
        so that a round never checks what an earlier round wrote."""
        for path in self.work.glob("*"):
            if path != self.input:
                path.unlink()
        return self.work / "report.json", self.work / "heatmap.svg"

    def plain_round(self):
        report, svg = self.outputs()
        timed = []  # (metric, process) whose wall time is scaled by the calibration
        for _ in range(SETUPS_PER_ROUND):
            p = self.setup()
            ok = self.tally.process("setup", p)
            if self.check_setup(p) and ok:
                timed.append(("setup_s", p))
        explain = self.launch([sys.executable, "-m", "tsleakscan", *self.explain_argv(report)],
                              "explain")
        if self.tally.process("explain", explain):
            timed.append(("explain_s", explain))
            self.add("peak_rss_mb", explain.rss_mb)
        calibration = self.launch([sys.executable, "-c", CALIBRATION_CODE], "calibration")
        viz = self.launch([sys.executable, "-m", "tsleakscan", *self.viz_argv(svg)], "viz")
        if self.tally.process("viz", viz):
            timed.append(("viz_s", viz))
        self.check_outputs(explain, report, viz, svg)
        if self.tally.process("calibration", calibration):
            self.add("calibration_s", calibration.wall)
            for name, p in timed:
                self.add(f"{name}_wall", p.wall)
                self.add(name, p.wall * CALIBRATION_REF_S / calibration.wall)

    def traced_round(self):
        report, svg = self.outputs()
        plain = self.launch([sys.executable, "-m", "tsleakscan", *self.explain_argv(report)],
                            "explain")
        spans = {"explain": self.work / "spans-explain.json", "viz": self.work / "spans-viz.json"}
        explain = self.launch([sys.executable, str(TRACED), str(spans["explain"]),
                               *self.explain_argv(report)], "traced-explain")
        viz = self.launch([sys.executable, str(TRACED), str(spans["viz"]), *self.viz_argv(svg)],
                          "traced-viz")
        ok = [self.tally.process(name, p) for name, p in
              (("explain", plain), ("traced-explain", explain), ("traced-viz", viz))]
        self.check_outputs(explain, report, viz, svg)
        traces = {}
        for name, path in spans.items():
            try:
                with open(path, encoding="utf-8") as fh:
                    traces[name] = json.load(fh)
            except (OSError, ValueError):
                traces[name] = {"dump_s": 0.0, "spans": []}
        error = _missing_layers(traces)
        if self.tally.record("trace.layers", error) and all(ok):
            self.add("explain_untraced_s", plain.wall)
            self.add("explain_traced_s", explain.wall)
            for name, value in layer_metrics(traces, explain.wall, report, svg).items():
                self.add(name, value)
        for path in spans.values():
            if path.exists():  # the last traced round's spans outlive the run
                shutil.copy(path, OUT / f"trace-{self.w.name}-{path.name}")

    def metrics(self, trace):
        med = {name: statistics.median_low(v) if all(isinstance(x, int) for x in v)
               else statistics.median(v) for name, v in self.samples.items()}
        if trace:
            if "explain_traced_s" in med:
                med["trace.overhead_pct"] = 100.0 * (
                    med["explain_traced_s"] / med["explain_untraced_s"] - 1.0)
            names = PER_LAYER
        else:
            names = END_TO_END
        # a metric with no sample (every process of its kind failed) is null, not 0
        metrics = {name: {"value": med.get(name), "unit": unit} for name, unit in names.items()}
        counts = {name: {"value": med.get(name), "unit": unit}
                  for name, unit in CHECKED_COUNTS.items()} if trace else {}
        return metrics, counts


def _missing_layers(traces):
    for name, layers in (("explain", EXPLAIN_LAYERS), ("viz", VIZ_LAYERS)):
        seen = {s[0] for s in traces[name]["spans"] if s is not None}
        missing = [layer for layer in layers if layer not in seen]
        if missing:
            return f"{name} trace has no span for {', '.join(missing)}"
    return None


def layer_metrics(traces, explain_wall, report_path, svg_path):
    """Per-layer figures of one traced round, from the spans of explain and viz."""
    explain, viz = traces["explain"]["spans"], traces["viz"]["spans"]

    def busy(spans, name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def counts(spans, name):
        return next(s[4] for s in spans if s[0] == name)

    corr = [s for s in explain if s[0] == "corr"]
    windows = sum(s[4][0] for s in corr)
    load_s, scan_s, corr_s = busy(explain, "collection.load"), busy(explain, "scan"), \
        sum(s[2] - s[1] for s in corr)
    pairs, matches = counts(explain, "scan")
    reasons_s = busy(explain, "reasons")
    n_reasoned, n_useful = counts(explain, "reasons")
    top = sum(s[2] - s[1] for s in explain if s[3] == -1)
    return {
        "collection.load_s": load_s,
        "collection.values_per_s": counts(explain, "collection.load")[1] / load_s,
        "scan.s": scan_s,
        "scan.self_s": scan_s - corr_s,
        "scan.pairs": pairs,
        "scan.pairs_per_s": pairs / scan_s,
        "scan.matches": matches,
        "corr.s": corr_s,
        "corr.calls": len(corr),
        "corr.us_per_call": 1e6 * corr_s / max(1, len(corr)),
        "corr.windows": windows,
        "corr.windows_skipped": sum(s[4][1] for s in corr),
        "corr.windows_per_s": windows / corr_s if corr_s else 0.0,
        "corr.window_values": sum(s[4][0] * s[4][2] for s in corr),
        "corr.hit_ratio": matches / windows if windows else 0.0,
        "reasons.s": reasons_s,
        "reasons.us_per_match": 1e6 * reasons_s / max(1, n_reasoned),
        "reasons.useful": n_useful,
        "report.json_s": busy(explain, "report.json"),
        "report.json_bytes": os.path.getsize(report_path),
        "report.matrix_s": busy(viz, "report.matrix") + busy(viz, "report.matrix_csv"),
        "report.heatmap_s": busy(viz, "report.heatmap"),
        "report.heatmap_bytes": os.path.getsize(svg_path),
        "cli.explain_rest_s": explain_wall - top - traces["explain"]["dump_s"],
    }


def run_one(workload, seed, seconds, trace):
    """One run: returns (correct, attempted, failed, metrics, checked counts)."""
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    launcher = Launcher(work)
    try:
        run = Run(workload, seed, work, launcher)
        run.setup()  # fills the bytecode and file caches before anything is timed
        start, rounds, last = time.monotonic(), 0, 0.0
        while rounds < MIN_ROUNDS or time.monotonic() - start < seconds:
            if rounds and time.monotonic() - start + last > RUN_LIMIT_S:
                break
            began = time.monotonic()
            run.traced_round() if trace else run.plain_round()
            rounds, last = rounds + 1, time.monotonic() - began
        for name, values in run.samples.items():  # the raw samples, for a reader
            print(f"{name}: {' '.join(f'{v:.6g}' for v in values)}", file=sys.stderr)
        t = run.tally
        return (t.failed == 0, t.attempted, t.failed, *run.metrics(trace))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tsleakscan" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'tsleakscan'} is not there", file=sys.stderr)
        return 2

    if args.workload != "all":
        correct, attempted, failed, metrics, counts = run_one(
            args.workload, args.seed, args.seconds, args.trace)
        for name, m in {**metrics, **counts}.items():
            print(f"{name} {m['value']!r} {m['unit']}")
    else:
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in workloads.NAMES:
            for trace in (0, 1):
                ok, a, f, ms, counts = run_one(workload, args.seed, args.seconds, trace)
                correct, attempted, failed = correct and ok, attempted + a, failed + f
                for name, m in {**ms, **counts}.items():
                    print(f"{workload:<13} {name:<24} {m['value']!r:>24} {m['unit']}")
                metrics.update({f"{workload}/{name}": m for name, m in ms.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
