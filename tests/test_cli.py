import csv
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import tsleakscan as ts
from tsleakscan.collection import SPLIT_SKIP
from tsleakscan.reasons import ReasonKind

from conftest import (
    UNREADABLE_INPUTS,
    block_fit_collection,
    reason_oracle,
    reference_collapse,
    reference_explain_lines,
    reference_json_report,
    reference_match_line,
    usage_style_collection,
)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(ts.__file__)))  # the directory the package is imported from


def run_cli(*args, env=None, cwd=None, module="tsleakscan", **kwargs):
    """``python -m module *args``; ``kwargs`` go to ``subprocess.run``."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    if cwd is not None:  # the child no longer finds the package through a relative path
        full_env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in full_env.get("PYTHONPATH", "").split(os.pathsep) if p)
    kwargs.setdefault("capture_output", True)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        text=True, env=full_env, cwd=cwd, **kwargs,
    )


def assert_exits_2(limit, *cases):
    """Each case, (args, env), exits 2 with ``limit`` named on stderr."""
    for args, env in cases:
        proc = run_cli(*args, env=env)
        assert proc.returncode == 2, args
        assert limit in proc.stderr, (args, proc.stderr)


@pytest.fixture(scope="module")
def usage_csv(tmp_path_factory):
    c, _ = usage_style_collection()
    path = tmp_path_factory.mktemp("data") / "usage.csv"
    ts.write_collection(c, path, "long-csv")
    return str(path)


@pytest.fixture(scope="module")
def quiet_csv(tmp_path_factory):
    # verified leak-free pair (see test_scan)
    c = ts.from_dict({"a": [4.0, 5.0, 2.0, 7.0, 8.0], "b": [3.0, 2.0, 2.0, 1.0, 7.0]})
    path = tmp_path_factory.mktemp("data") / "quiet.csv"
    ts.write_collection(c, path, "long-csv")
    return str(path)


class TestScanCommand:
    def test_usage_summary(self, usage_csv):
        proc = run_cli("scan", "--input", usage_csv, "--h", "5", "--cutoff", "1")
        assert proc.returncode == 0
        assert "x -> z: 12-16, r=1.000" in proc.stdout
        assert "y -> x: 1-5, r=1.000" in proc.stdout
        assert "z -> x: 11-15, r=1.000" in proc.stdout
        assert "3 matches" in proc.stdout

    def test_no_leaks_message(self, quiet_csv):
        proc = run_cli("scan", "--input", quiet_csv, "--h", "3", "--cutoff", "1")
        assert proc.returncode == 0
        assert "no leaks detected" in proc.stdout

    def test_bad_cutoff_exits_2(self, usage_csv, tmp_path):
        # limits are checked before the input is read, so a missing file is no exit 1
        absent = str(tmp_path / "nope.csv")
        assert_exits_2("cutoff must be in (0,1]",
                       (("scan", "--input", usage_csv, "--h", "5", "--cutoff", "1.5"), None),
                       (("scan", "--input", absent, "--h", "5", "--cutoff", "1.5"), None),
                       (("viz", "--input", absent, "--h", "5", "--cutoff", "0"), None))

    def test_bad_h_exits_2(self, usage_csv, tmp_path):
        assert_exits_2("h must be an integer >= 3",
                       (("scan", "--input", usage_csv, "--h", "2"), None),
                       (("explain", "--input", str(tmp_path / "nope.csv"), "--h", "2"), None))

    def test_cutoff_below_tolerance_exits_2(self, usage_csv):
        assert_exits_2("cutoff must exceed CUTOFF_TOLERANCE",
                       (("scan", "--input", usage_csv, "--h", "5", "--cutoff", "1e-12"), None))

    def test_integer_too_large_for_a_float_exits_1(self, tmp_path):
        data = tmp_path / "huge.json"
        data.write_text('{"x": [1, 2, 1' + "0" * 400 + ', 4, 3, 5]}')
        proc = run_cli("scan", "--input", str(data), "--format", "json", "--h", "3")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "position 3" in proc.stderr
        assert "Traceback" not in proc.stderr
        skip = run_cli("scan", "--input", str(data), "--format", "json", "--h", "3",
                       "--missing", "skip")
        assert skip.returncode == 0, skip.stderr

    @pytest.mark.parametrize("name", UNREADABLE_INPUTS)
    def test_unreadable_input_exits_1_with_one_error_line(self, tmp_path, name):
        fmt, data, cause = UNREADABLE_INPUTS[name]
        path = tmp_path / "input"
        path.write_bytes(data)
        proc = run_cli("scan", "--input", str(path), "--format", fmt.split("-")[0], "--h", "3")
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {path}: ") and cause in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_missing_input_exits_1(self, tmp_path):
        proc = run_cli("scan", "--input", str(tmp_path / "nope.csv"), "--h", "5")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_report_file_written(self, usage_csv, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("scan", "--input", usage_csv, "--h", "5", "--output", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert len(payload["matches"]) == 3

    def test_csv_report_format(self, usage_csv, tmp_path):
        out = tmp_path / "report.csv"
        run_cli("scan", "--input", usage_csv, "--h", "5",
                "--output", str(out), "--report-format", "csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "query_id,donor_id,start,end,r"
        assert len(lines) == 4

    def test_byte_identical_across_workers(self, tmp_path):
        rng = np.random.default_rng(17)
        series = {f"s{i:02d}": rng.normal(size=30) for i in range(20)}
        series["s19"][-5:] = series["s02"][-5:]
        data = tmp_path / "corpus.csv"
        ts.write_collection(ts.from_dict(series), data, "long-csv")
        outs = []
        for workers in ("1", "8"):
            out = tmp_path / f"report_{workers}.json"
            proc = run_cli("scan", "--input", str(data), "--h", "5",
                           "--output", str(out), "--workers", workers)
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_workers_env_fallback(self, usage_csv):
        proc = run_cli("scan", "--input", usage_csv, "--h", "5",
                       env={"TSLEAKSCAN_WORKERS": "2"})
        assert proc.returncode == 0
        assert "3 matches" in proc.stdout

    def test_bad_workers_env_exits_2(self, usage_csv):
        args = ("scan", "--input", usage_csv, "--h", "5")
        assert_exits_2("workers must be a positive integer or 'auto'",
                       (args, {"TSLEAKSCAN_WORKERS": "zero"}),
                       (args, {"TSLEAKSCAN_WORKERS": "0"}),
                       (args + ("--workers", "0"), None))

    def test_collapse_overlaps(self, tmp_path):
        c = ts.from_dict({"a": np.arange(1.0, 11.0)})
        data = tmp_path / "ramp.csv"
        ts.write_collection(c, data, "long-csv")
        proc = run_cli("scan", "--input", str(data), "--h", "3", "--collapse-overlaps")
        assert "a -> a: 1-9" in proc.stdout
        assert "1 match" in proc.stdout

    def test_missing_skip_policy(self, tmp_path):
        data = tmp_path / "gap.csv"
        data.write_text("series_id,index,value\n" +
                        "".join(f"g,{i},{v}\n" for i, v in enumerate(
                            ["1.0", "", "2.0", "5.0", "4.0", "9.0"], start=1)))
        reject = run_cli("scan", "--input", str(data), "--h", "3")
        assert reject.returncode == 1
        skip = run_cli("scan", "--input", str(data), "--h", "3", "--missing", "skip")
        assert skip.returncode == 0


class TestExplainCommand:
    def test_usage_footer(self, usage_csv):
        proc = run_cli("explain", "--input", usage_csv, "--h", "5", "--cutoff", "1")
        assert proc.returncode == 0
        assert "3 matches: 3 exact; 1 useful" in proc.stdout
        assert "predicted test:" in proc.stdout

    def test_zero_matches_footer(self, quiet_csv):
        proc = run_cli("explain", "--input", quiet_csv, "--h", "3")
        assert proc.returncode == 0
        assert "0 matches" in proc.stdout

    def test_horizon_flag(self, usage_csv):
        # horizon 11 pushes even the y -> x hit past the end of x
        proc = run_cli("explain", "--input", usage_csv, "--h", "5", "--horizon", "11")
        assert "0 useful" in proc.stdout

    def test_horizon_or_h_longer_than_any_series_exits_2(self, tmp_path):
        # end + horizon wrapped in int64, and the match was printed useful with no predicted values
        (tmp_path / "smoke.csv").write_text(SMOKE_CSV, encoding="utf-8")
        smoke, absent = str(tmp_path / "smoke.csv"), str(tmp_path / "nope.csv")
        assert_exits_2("horizon must be at most",
                       (("explain", "--input", smoke, "--h", "3", "--horizon", str(2**63 - 1)), None),
                       (("explain", "--input", absent, "--h", "3", "--horizon", str(2**62)), None))
        assert_exits_2("h must be at most",
                       (("scan", "--input", smoke, "--h", str(10**23)), None),
                       (("viz", "--input", absent, "--h", str(2**62)), None))

    def test_explained_report_file(self, usage_csv, tmp_path):
        out = tmp_path / "explained.json"
        run_cli("explain", "--input", usage_csv, "--h", "5", "--output", str(out))
        payload = json.loads(out.read_text())
        assert payload["config"]["horizon"] == 5
        assert all("kind" in e for e in payload["matches"])

    def test_bad_horizon_exits_2(self, usage_csv, tmp_path):
        assert_exits_2("horizon must be >= 1",
                       (("explain", "--input", usage_csv, "--h", "5", "--horizon", "0"), None),
                       (("explain", "--input", str(tmp_path / "nope.csv"), "--h", "5",
                         "--horizon", "0"), None))

    def test_collapsed_report_file(self, tmp_path):
        c = ts.from_dict({"a": np.arange(1.0, 11.0)})
        data = tmp_path / "ramp.csv"
        ts.write_collection(c, data, "long-csv")
        out = tmp_path / "collapsed.json"
        proc = run_cli("explain", "--input", str(data), "--h", "3", "--collapse-overlaps",
                       "--output", str(out))
        assert proc.returncode == 0
        assert "a -> a: 1-9, r=1.000, add-constant, useful" in proc.stdout
        assert "1 matches: 1 add-constant; 1 useful" in proc.stdout
        payload = json.loads(out.read_text())
        assert [(e["start"], e["end"], e["kind"]) for e in payload["matches"]] == \
            [(1, 9, "add-constant")]


def explain_stdout(report, reasoned):
    """The stdout explain prints for ``reasoned``, laid out line by line."""
    lines = []
    for rm in reasoned:
        m = rm.base
        line = f"{m.query_id} -> {m.donor_id}: {m.start}-{m.end}, r={m.r:.3f}, {rm.kind.value}, "
        if rm.useful:
            predicted = " ".join("?" if v is None else f"{v:.6g}" for v in rm.predicted_test)
            line += f"useful; predicted test: {predicted}"
        else:
            line += "not useful"
        lines.append(line)
    lines += [f"skipped query {sid}: {reason}" for sid, reason in report.skipped_queries]
    kinds = Counter(rm.kind for rm in reasoned)
    by_kind = ", ".join(f"{kinds[k]} {'exact' if k is ReasonKind.EXACT_MATCH else k.value}"
                        for k in ReasonKind if kinds[k])
    lines.append(f"{len(reasoned)} matches: {by_kind}; {sum(rm.useful for rm in reasoned)} useful")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def planted_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.json"
    ts.write_collection(block_fit_collection(6, 1.0, seed=6), path, "json")
    return str(path)


PLANTED_ARGS = ("--format", "json", "--h", "6", "--cutoff", "0.9", "--missing", "skip")


class TestScanStdout:
    @staticmethod
    def reference(path, collapse):
        c = ts.load_collection(path, format="json", policy=ts.MissingPolicy(SPLIT_SKIP))
        report = ts.scan(c, ts.ScanConfig(h=6, cutoff=0.9))
        matches = report.matches
        if collapse:
            matches = ts.collapse_overlaps(matches)
            assert len(matches) < len(report.matches)
        lines = [f"{m.query_id} -> {m.donor_id}: {m.start}-{m.end}, r={m.r:.3f}" for m in matches]
        lines += [f"skipped query {sid}: {reason}" for sid, reason in report.skipped_queries]
        lines.append(f"{len(matches)} matches")
        return "\n".join(lines) + "\n", len(matches)

    @pytest.mark.parametrize("collapse", [False, True])
    def test_bytes_equal_reference(self, planted_json, collapse):
        flags = ["--collapse-overlaps"] if collapse else []
        proc = run_cli("scan", "--input", planted_json, *PLANTED_ARGS, *flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self.reference(planted_json, collapse)[0]

    def test_lines_split_across_writes(self, planted_json, capsys):
        from tsleakscan import cli
        expected, _ = self.reference(planted_json, collapse=False)
        assert cli.main(["scan", "--input", planted_json, *PLANTED_ARGS]) == 0
        assert capsys.readouterr().out == expected


class TestExplainStdout:
    @staticmethod
    def reference(path, collapse):
        c = ts.load_collection(path, format="json", policy=ts.MissingPolicy(SPLIT_SKIP))
        report = ts.scan(c, ts.ScanConfig(h=6, cutoff=0.9))
        reasoned = ts.reason_report(report, c)
        if collapse:
            reasoned = ts.collapse_overlaps(reasoned)
            assert len(reasoned) < len(report.matches)
        # the lines the layout must hold on are all present
        assert any(None in rm.predicted_test for rm in reasoned if rm.useful)
        assert {ReasonKind.NEGATIVE_AFFINE, ReasonKind.HIGH_CORRELATION_ONLY} <= {rm.kind for rm in reasoned}
        assert {True, False} == {rm.useful for rm in reasoned}
        return explain_stdout(report, reasoned), len(reasoned)

    @pytest.mark.parametrize("collapse", [False, True])
    def test_bytes_equal_reference(self, planted_json, collapse):
        flags = ["--collapse-overlaps"] if collapse else []
        proc = run_cli("explain", "--input", planted_json, *PLANTED_ARGS, *flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self.reference(planted_json, collapse)[0]

    def test_lines_split_across_writes(self, planted_json, capsys):
        from tsleakscan import cli
        expected, _ = self.reference(planted_json, collapse=False)
        assert cli.main(["explain", "--input", planted_json, *PLANTED_ARGS]) == 0
        assert capsys.readouterr().out == expected


def tied_periodic_collection():
    """Sawtooth series, rising and falling, whose ramp windows all match the
    ramp query with the same |r| (runs of ties, where the first member must
    win), and noisy sines whose neighbouring offsets match with different r."""
    rng = np.random.default_rng(12)
    data = {"saw": np.arange(57) % 10, "fall": 2.0 - 3.0 * (np.arange(3, 45) % 10),
            "rise": 0.5 * (np.arange(6, 50) % 10) + 4.0}
    for i, (length, period) in enumerate([(60, 12), (45, 12), (52, 9)]):
        t = np.arange(length) + rng.integers(period)
        data[f"sine{i}"] = np.sin(2 * np.pi * t / period) + rng.normal(scale=0.01, size=length)
    return ts.from_dict(data)


def runs_of(rows):
    """The members of each run of consecutive offsets per (query, donor)."""
    runs = []
    for rm in rows:
        last = runs[-1][-1].base if runs else None
        m = rm.base
        if last and (m.query_id, m.donor_id, m.start) == (last.query_id, last.donor_id, last.start + 1):
            runs[-1].append(rm)
        else:
            runs.append([rm])
    return runs


class TestTablePathBytes:
    """``explain`` and ``scan`` print and write, from the columnar match and
    reason tables, the bytes of the per-record reference formatters applied
    to matches explained one at a time by the oracle."""

    FORMATS = {"json": "json", "wide": "wide-csv"}  # --format value -> file format

    def check(self, collection, fmt, h, cutoff, horizon, collapse, tmp_path, capsys):
        data = tmp_path / "input"
        ts.write_collection(collection, data, self.FORMATS[fmt])
        flags = ["--collapse-overlaps"] if collapse else []
        args = ["--input", str(data), "--format", fmt, "--h", str(h), "--cutoff", repr(cutoff),
                "--missing", "skip", *flags]
        from tsleakscan import cli
        assert cli.main(["explain", *args, "--horizon", str(horizon), "--output", str(tmp_path / "e.json")]) == 0
        explain_out = capsys.readouterr().out
        assert cli.main(["scan", *args, "--output", str(tmp_path / "s.json")]) == 0
        scan_out = capsys.readouterr().out

        c = ts.load_collection(data, format=self.FORMATS[fmt], policy=ts.MissingPolicy(SPLIT_SKIP))
        cfg = ts.ScanConfig(h=h, cutoff=cutoff)
        report = ts.scan(c, cfg)
        records = list(report.matches)
        rows = [ts.ReasonedMatch(m, *reason_oracle(m, c, ts.ReasonConfig(horizon))) for m in records]
        if collapse:
            records, rows = reference_collapse(records), reference_collapse(rows)
        lines = reference_explain_lines(rows)
        assert explain_out.splitlines(keepends=True)[:len(lines)] == lines
        assert f"\n{len(rows)} matches" in "\n" + explain_out
        assert scan_out.splitlines()[:len(records)] == [reference_match_line(m) for m in records]
        explained = ts.LeakReport(cfg, [rm.base for rm in rows], report.skipped_queries)
        reference_json_report(explained, rows, horizon, tmp_path / "reference-e.json")
        reference_json_report(ts.LeakReport(cfg, records, report.skipped_queries), None, None,
                              tmp_path / "reference-s.json")
        assert (tmp_path / "e.json").read_bytes() == (tmp_path / "reference-e.json").read_bytes()
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "reference-s.json").read_bytes()
        # a list of rows is written through the same tables
        ts.write_report(explained, tmp_path / "rows.json", reasoned=rows, horizon=horizon)
        assert (tmp_path / "rows.json").read_bytes() == (tmp_path / "reference-e.json").read_bytes()
        return report, rows

    @pytest.mark.parametrize("collapse", [False, True])
    def test_periodic_with_ties(self, tmp_path, capsys, collapse):
        report, rows = self.check(tied_periodic_collection(), "wide", 4, 0.95, 5, collapse, tmp_path, capsys)
        if not collapse:
            strengths = [[abs(rm.base.r) for rm in run] for run in runs_of(rows)]
            assert any(s.count(max(s)) > 1 for s in strengths)  # a tie, which the first member wins
            assert any(s.index(max(s)) > 0 for s in strengths)  # a run that a later member wins
            assert {rm.kind for rm in rows} >= {ReasonKind.NEGATIVE_AFFINE, ReasonKind.AFFINE_TRANSFORM}
        else:
            assert len(rows) < len(report.matches)

    def test_continuation_over_a_missing_value(self, tmp_path, capsys):
        _, rows = self.check(block_fit_collection(6, 1.0, seed=6), "json", 6, 0.9, 6, False, tmp_path, capsys)
        assert any(None in rm.predicted_test for rm in rows if rm.useful)

    def test_ids_with_json_escapes(self, tmp_path, capsys):
        c = block_fit_collection(5, 1.0, seed=3)
        names = ['q"1', "d\\2", "é€😀", "ctl\x01", "t\tab", "<&>", "s6", "s7"]
        c = ts.SeriesCollection([ts.Series(name, s.values, s.missing) for name, s in zip(names, c)])
        _, rows = self.check(c, "json", 5, 0.9, 5, True, tmp_path, capsys)
        assert {rm.base.query_id for rm in rows} & {'q"1', "d\\2", "é€😀", "ctl\x01"}

    def test_empty_report(self, tmp_path, capsys):
        c = ts.from_dict({"a": [4.0, 5.0, 2.0, 7.0, 8.0], "b": [3.0, 2.0, 2.0, 1.0, 7.0]})
        _, rows = self.check(c, "json", 3, 1.0, 3, True, tmp_path, capsys)
        assert rows == []


class TestOutputCollisions:
    """An output path that names the input, or the other output, exits 2
    before the input is read, and leaves every file as it was."""

    @pytest.mark.parametrize("args, message", [
        (("viz", "--input", "leaks.csv"), "the matrix CSV 'leaks.csv' would overwrite the input"),
        (("viz", "--input", "leaks.csv", "--output", "m.csv"),
         "the matrix CSV 'm.csv' would overwrite the heatmap"),
        (("scan", "--input", "leaks.csv", "--output", "./leaks.csv"),
         "the report 'leaks.csv' would overwrite the input"),
        (("explain", "--input", "leaks.csv", "--output", "{tmp}/leaks.csv"),
         "the report '{tmp}/leaks.csv' would overwrite the input"),
    ], ids=["viz-default-matrix-csv-is-input", "viz-matrix-csv-is-heatmap",
            "scan-report-is-input", "explain-report-is-input"])
    def test_exits_2_and_input_unchanged(self, usage_csv, tmp_path, args, message):
        data = tmp_path / "leaks.csv"
        with open(usage_csv, "rb") as fh:
            data.write_bytes(fh.read())
        before = data.read_bytes()
        args = [a.format(tmp=tmp_path) for a in args]
        proc = run_cli(*args, "--h", "5", cwd=tmp_path)
        assert proc.returncode == 2, proc.stdout
        assert message.format(tmp=tmp_path) in proc.stderr
        assert data.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["leaks.csv"]

    @pytest.mark.parametrize("command, output, directory, what", [
        ("viz", "out", "out", "heatmap"),
        ("viz", "out.svg", "out.csv", "matrix CSV"),
        ("scan", "out", "out", "report"),
        ("explain", "out", "out", "report"),
    ])
    def test_directory_as_output_exits_2_and_writes_nothing(self, usage_csv, tmp_path, command, output,
                                                            directory, what):
        (tmp_path / directory).mkdir()
        proc = run_cli(command, "--input", usage_csv, "--h", "5", "--output", output, cwd=tmp_path)
        assert proc.returncode == 2, proc.stdout
        assert proc.stdout == ""
        assert f"the {what} {directory!r} is a directory" in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == [directory]
        assert not any((tmp_path / directory).iterdir())


class TestVizCommand:
    def test_outputs_written(self, usage_csv, tmp_path):
        svg = tmp_path / "leaks.svg"
        proc = run_cli("viz", "--input", usage_csv, "--h", "5", "--output", str(svg))
        assert proc.returncode == 0
        assert svg.exists()
        assert (tmp_path / "leaks.csv").exists()

    def test_angle_flag(self, usage_csv, tmp_path):
        svg = tmp_path / "angled.svg"
        run_cli("viz", "--input", usage_csv, "--h", "5",
                "--output", str(svg), "--ang", "45")
        assert "rotate(-45" in svg.read_text()

    @pytest.mark.parametrize("angle", ["nan", "1e400", "-inf", "ninety"])
    def test_bad_angle_exits_2(self, usage_csv, tmp_path, angle):
        proc = run_cli("viz", "--input", usage_csv, "--h", "5",
                       "--output", str(tmp_path / "leaks.svg"), f"--ang={angle}")
        assert proc.returncode == 2
        assert "angle must be a finite number of degrees" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_output_naming_no_file_exits_2(self, usage_csv):
        assert_exits_2("names no file",
                       (("viz", "--input", usage_csv, "--h", "5", "--output", ""), None),
                       (("viz", "--input", usage_csv, "--h", "5", "--output", "/"), None))

    def test_unwritable_output_exits_1(self, usage_csv, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "leaks.svg"
        proc = run_cli("viz", "--input", usage_csv, "--h", "5", "--output", str(target))
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestLayoutBuiltOnce:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["explain", "viz"])
    def test_one_layout_per_run(self, planted_json, tmp_path, monkeypatch, capsys, command, workers):
        # the scan, its skips and blocks, and the match checks of the
        # explanation or the matrix all read the layout built by its first call
        from tsleakscan import cli
        layouts = []
        layout_of = ts.SeriesCollection._layout
        monkeypatch.setattr(ts.SeriesCollection, "_layout",
                            lambda self: layouts.append(layout_of(self)) or layouts[-1])
        output = tmp_path / ("leaks.svg" if command == "viz" else "report.json")
        args = [command, "--input", planted_json, *PLANTED_ARGS, "--workers", workers, "--output", str(output)]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert len(layouts) >= 2 and all(layout is layouts[0] for layout in layouts)


def explain_at_one_and_two_workers(path, *args):
    """The explain stdout at one worker, after asserting that it and the JSON
    report are the same bytes at one and two workers."""
    outputs = []
    for workers in ("1", "2"):
        proc = run_cli("explain", "--input", str(path), *args, "--workers", workers)
        assert proc.returncode == 0, proc.stderr
        report = path.parent / f"report-{workers}.json"
        written = run_cli("explain", "--input", str(path), *args, "--workers", workers, "--output", str(report))
        assert written.returncode == 0, written.stderr
        outputs.append((proc.stdout, report.read_bytes()))
    assert outputs[0] == outputs[1]
    return outputs[0][0]


class TestSweepScenarios:
    def test_series_shorter_than_h_between_donors(self, tmp_path):
        # s is laid out with the rest but holds no window, and a's terminal
        # segment recurs in b past b's gap
        path = tmp_path / "short.csv"
        path.write_text("series_id,index,value\na,1,1\na,2,5\na,3,2\na,4,8\na,5,3\ns,1,4\ns,2,6\n"
                        "b,1,7\nb,2,\nb,3,9\nb,4,2\nb,5,8\nb,6,3\nb,7,6\nb,8,1\nb,9,4\n")
        out = explain_at_one_and_two_workers(path, "--h", "3", "--missing", "skip")
        assert "a -> b: 4-6, r=1.000, exact-match, useful; predicted test: 6 1 4" in out
        assert any(line.startswith("skipped query s: too-short") for line in out.splitlines())

    def test_matches_across_prefilter_block_edges(self, tmp_path):
        # one series of 3000 values holds an exact copy of a's terminal segment
        # and a negated affine copy of b's, each across a prefilter block edge
        # (h = 16, blocks of 2**14 // h = 1024 windows)
        rng = random.Random(7)

        def walk(n):
            v, out = 0, []
            for _ in range(n):
                v += rng.randint(-9, 9)
                out.append(v)
            return out

        long, a, b = walk(3000), walk(60), walk(60)
        long[1017:1033] = a[-16:]
        long[2040:2056] = [5 - 2 * v for v in b[-16:]]
        path = tmp_path / "straddle.csv"
        path.write_text("long,a,b\n" + "".join(
            ",".join(str(c[t]) if t < len(c) else "" for c in (long, a, b)) + "\n" for t in range(3000)))
        lines = explain_at_one_and_two_workers(path, "--format", "wide", "--h", "16").splitlines()
        assert any(line.startswith("a -> long: 1018-1033, r=1.000, exact-match") for line in lines)
        assert any(line.startswith("b -> long: 2041-2056, r=-1.000, negative-affine") for line in lines)


class TestLoaderScenarios:
    def test_long_csv_with_a_byte_order_mark(self, tmp_path, capsys):
        # as Excel's "CSV UTF-8" export and R's fileEncoding = "UTF-8-BOM" write
        # it: the mark is not part of the header, and the first series' id is plain a
        from tsleakscan import cli
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfseries_id,index,value\na,1,1\na,2,5\na,3,2\na,4,8\na,5,3\n"
                         b"b,1,7\nb,2,2\nb,3,8\nb,4,3\nb,5,1\nb,6,6\n")
        assert cli.main(["scan", "--input", str(path), "--h", "3"]) == 0
        assert any(line.startswith("a -> b: 2-4") for line in capsys.readouterr().out.splitlines())

    def test_wide_csv_series_ending_in_missing_values(self, tmp_path, capsys):
        # each missing value is written nan, so the trailing ones read back as
        # missing values, not as padding, and the scan skips both queries
        from tsleakscan import cli
        c = ts.SeriesCollection([ts.Series("a", np.array([1.0, 2.0, 0.0]), missing=(2,)),
                                 ts.Series("b", np.array([4.0, 0.0, 6.0, 7.0, 0.0, 0.0]), missing=(1, 4, 5))])
        path = tmp_path / "trailing.csv"
        ts.write_collection(c, path, "wide-csv")
        back = [(s.id, len(s), s.missing) for s in ts.load_collection(path, "wide-csv", ts.MissingPolicy(SPLIT_SKIP))]
        assert back == [("a", 3, (2,)), ("b", 6, (1, 4, 5))], back
        assert cli.main(["scan", "--input", str(path), "--format", "wide", "--h", "3", "--missing", "skip"]) == 0
        skipped = [line for line in capsys.readouterr().out.splitlines() if line.startswith("skipped query")]
        assert skipped == ["skipped query a: missing-in-query", "skipped query b: missing-in-query"]

    def test_wide_csv_padding_after_nan_and_whitespace(self, tmp_path, capsys):
        # the nan is a missing value in a's query, b's blanks are only padding
        from tsleakscan import cli
        path = tmp_path / "padded.csv"
        path.write_text("a,b\n1,3\n5,1\n2,4\n8,1\nnan,5\n, \n,\t\n", encoding="utf-8")
        assert cli.main(["scan", "--input", str(path), "--format", "wide", "--h", "3", "--missing", "skip"]) == 0
        skipped = [line for line in capsys.readouterr().out.splitlines() if line.startswith("skipped query")]
        assert skipped == ["skipped query a: missing-in-query"]


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, usage_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli("explain", "--input", usage_csv, "--h", "5", "--output", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_import_loads_no_pool_or_network_modules():
    # every CLI process pays for what importing the package loads
    heavy = {"multiprocessing", "concurrent.futures.process", "xml.sax", "urllib.request", "ssl"}
    code = ("import sys; before = set(sys.modules); import tsleakscan.cli; "
            f"print(sorted((set(sys.modules) - before) & set({sorted(heavy)!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_defers_reasons_and_report(tmp_path):
    # a process that only loads a collection, long or wide, compiles none of
    # the modules it does not run and imports no json; every public name still
    # resolves, and tsleakscan.scan stays the function
    long_csv, wide_csv = tmp_path / "long.csv", tmp_path / "wide.csv"
    long_csv.write_text(SMOKE_CSV, encoding="utf-8")
    wide_csv.write_text("a,b\n1,7\n5, \n2,8\n", encoding="utf-8")
    code = f"""if True:
        import sys, tsleakscan
        tsleakscan.load_collection({str(long_csv)!r}, "long-csv")
        tsleakscan.load_collection({str(wide_csv)!r}, "wide-csv", tsleakscan.MissingPolicy("split-skip"))
        print(sorted(m for m in ("tsleakscan.corr", "tsleakscan.scan", "tsleakscan.reasons", "tsleakscan.report",
                                 "tsleakscan.cli", "json") if m in sys.modules))
        import tsleakscan.reasons
        print(callable(tsleakscan.scan), type(tsleakscan.scan).__name__)
        print([name for name in tsleakscan.__all__ if getattr(tsleakscan, name, None) is None])
        namespace = {{}}
        exec("from tsleakscan import *", namespace)
        print(sorted(set(tsleakscan.__all__) - set(namespace)), namespace["reason_report"] is tsleakscan.reasons.reason_report)
        print(tsleakscan.report.write_report is tsleakscan.write_report)
        try:
            tsleakscan.no_such_name
        except AttributeError as exc:
            print(exc)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "True function", "[]", "[] True", "True",
        "module 'tsleakscan' has no attribute 'no_such_name'",
    ]


@pytest.mark.parametrize("first", ["import tsleakscan.cli", "import tsleakscan.scan",
                                   "from tsleakscan.scan import MatchTable", "import tsleakscan.reasons"])
def test_package_scan_is_the_function_whatever_imports_it_first(first):
    # the first import of the module tsleakscan.scan binds it on the package,
    # which keeps the function; the module is still sys.modules' and pickles by it
    code = f"""if True:
        {first}
        import pickle, sys, tsleakscan
        module = sys.modules["tsleakscan.scan"]
        print(tsleakscan.scan is module.scan, tsleakscan.corr is sys.modules["tsleakscan.corr"])
        print(pickle.loads(pickle.dumps(module._scan_block)) is module._scan_block)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True True", "True"]


def test_viz_process_compiles_no_reasons(tmp_path):
    # viz checks its records with scan._locate and writes no JSON; explain
    # and a collapsed scan import reasons. Each child runs the package as
    # python -m does, and names at its exit which of the two it imported.
    (tmp_path / "smoke.csv").write_text(SMOKE_CSV, encoding="utf-8")
    code = ("import atexit, runpy, sys; atexit.register(lambda: print(sorted("
            "{'tsleakscan.reasons', 'json'} & set(sys.modules)), file=sys.stderr)); "
            "runpy.run_module('tsleakscan', run_name='__main__', alter_sys=True)")
    args = ["--input", "smoke.csv", "--h", "3"]
    commands = {"viz": ["viz", *args, "--output", "heat.svg"], "scan": ["scan", *args],
                "explain": ["explain", *args], "collapsed scan": ["scan", *args, "--collapse-overlaps"]}
    seen = {}
    for name, command in commands.items():
        proc = subprocess.run([sys.executable, "-c", code, *command], capture_output=True, text=True,
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        seen[name] = proc.stderr.splitlines()
    assert seen == {"viz": ["[]"], "scan": ["[]"], "explain": ["['tsleakscan.reasons']"],
                    "collapsed scan": ["['tsleakscan.reasons']"]}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_deferred_reasons_at_one_and_two_workers(workers, tmp_path):
    # the commands that import reasons late print and write what the library gives
    c = ts.from_dict({"a": np.arange(1.0, 11.0), "b": [4.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0]})
    data = tmp_path / "ramp.csv"
    ts.write_collection(c, data, "long-csv")
    args = ["--input", str(data), "--h", "3", "--workers", workers]
    report = ts.scan(c, ts.ScanConfig(h=3))
    collapsed = list(ts.collapse_overlaps(report.matches))
    scanned = run_cli("scan", *args, "--collapse-overlaps")
    assert scanned.returncode == 0, scanned.stderr
    assert len(collapsed) == 2
    assert scanned.stdout == "".join(reference_match_line(m) + "\n" for m in collapsed) + "2 matches\n"
    explained = run_cli("explain", *args, "--output", str(tmp_path / "r.json"))
    assert explained.returncode == 0, explained.stderr
    reasoned = list(ts.reason_report(report, c))
    assert explained.stdout.startswith("".join(reference_explain_lines(reasoned)))
    reference_json_report(report, reasoned, 3, tmp_path / "want.json")
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "want.json").read_bytes()


SMOKE_CSV = ("series_id,index,value\na,1,1\na,2,5\na,3,2\na,4,8\na,5,3\n"
             "b,1,7\nb,2,2\nb,3,8\nb,4,3\nb,5,1\nb,6,6\n")


def test_benchmark_tracer_spans_every_layer(tmp_path):
    # bench/traced.py replaces cli.load_collection, cli.scan, cli.reason_report,
    # scan's sliding_correlations and report's writers before main runs, so
    # each must resolve then, and main must call what it replaced
    tracer = os.path.join(os.path.dirname(SRC), "bench", "traced.py")
    (tmp_path / "smoke.csv").write_text(SMOKE_CSV, encoding="utf-8")
    args = ["--input", "smoke.csv", "--h", "3"]
    spans = {}
    for command in (["explain", *args, "--output", "report.json"], ["viz", *args, "--output", "heat.svg"]):
        proc = subprocess.run([sys.executable, tracer, "spans.json", *command], capture_output=True, text=True,
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(*command, cwd=tmp_path).stdout
        spans[command[0]] = {span[0] for span in json.loads((tmp_path / "spans.json").read_text())["spans"]}
    assert spans["explain"] >= {"collection.load", "scan", "corr", "reasons", "report.json"}, spans
    assert spans["viz"] >= {"collection.load", "scan", "corr", "report.matrix", "report.heatmap"}, spans


def test_traced_viz_process_compiles_no_reasons(tmp_path):
    # the tracer looks up cli.reason_report to wrap it, which imports nothing;
    # each child names at its exit whether it imported reasons
    tracer = os.path.join(os.path.dirname(SRC), "bench", "traced.py")
    (tmp_path / "smoke.csv").write_text(SMOKE_CSV, encoding="utf-8")
    code = ("import atexit, runpy, sys; atexit.register(lambda: print('tsleakscan.reasons' in sys.modules, "
            f"file=sys.stderr)); runpy.run_path({tracer!r}, run_name='__main__')")
    args = ["--input", "smoke.csv", "--h", "3"]
    seen = {}
    for command in (["viz", *args, "--output", "heat.svg"], ["explain", *args]):
        proc = subprocess.run([sys.executable, "-c", code, "spans.json", *command], capture_output=True,
                              text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        seen[command[0]] = proc.stderr.splitlines()
    assert seen == {"viz": ["False"], "explain": ["True"]}


class TestProcessEntry:
    """``cli.run``, the entry of every CLI process: ``main``, then the
    garbage-collected heap frozen so that the exit does not collect it."""

    def test_main_leaves_the_collector_as_it_was(self, usage_csv, capsys):
        import gc
        from tsleakscan import cli
        before = gc.get_freeze_count(), gc.isenabled()
        assert cli.main(["explain", "--input", usage_csv, "--h", "5"]) == 0
        with pytest.raises(SystemExit):
            cli.main(["explain", "--no-such-flag"])
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_output_equals_main_past_a_pipe_buffer(self, tmp_path, capsys):
        # eight sines of period 12 match one another at many offsets, so the
        # stdout is several pipe buffers long and is still being drained when
        # the child reaches its exit
        from tsleakscan import cli
        path = tmp_path / "sines.csv"
        path.write_text("series_id,index,value\n" + "".join(
            f"s{k},{t + 1},{(k + 1) * math.sin(2 * math.pi * (t + k) / 12) + k!r}\n" for k in range(8) for t in range(120)),
            encoding="utf-8")
        args = ["explain", "--input", str(path), "--h", "5", "--cutoff", "0.95"]
        assert cli.main([*args, "--output", str(tmp_path / "main.json")]) == 0
        expected = capsys.readouterr().out
        proc = run_cli(*args, "--output", str(tmp_path / "entry.json"))
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.encode()) > 1 << 16
        assert proc.stdout == expected.replace(str(tmp_path / "main.json"), str(tmp_path / "entry.json"))
        assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    @pytest.mark.parametrize("module", ["tsleakscan", "tsleakscan.cli"])
    def test_exit_codes(self, module, tmp_path):
        missing = run_cli("scan", "--input", str(tmp_path / "nope.csv"), "--h", "3", module=module)
        assert (missing.returncode, missing.stderr.startswith("error: ")) == (1, True), missing.stderr
        bad = run_cli("scan", "--input", str(tmp_path / "nope.csv"), "--h", "3", "--no-such-flag", module=module)
        assert (bad.returncode, "unrecognized arguments" in bad.stderr) == (2, True), bad.stderr
        usage = run_cli("--help", module=module)
        assert (usage.returncode, usage.stdout.startswith("usage: tsleakscan")) == (0, True), usage.stderr

    def test_exit_runs_atexit_handlers_on_a_frozen_heap(self):
        code = ("import atexit, gc, sys; from tsleakscan import cli; "
                "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
                "sys.exit(cli.run(['--help']))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("frozen True\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_exit_flush_exits_non_zero(self, tmp_path):
        # a buffered stdout is flushed by the interpreter's exit; when that
        # fails the exit status says so, as it does without the entry
        path = tmp_path / "smoke.csv"
        path.write_text(SMOKE_CSV, encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        for args in (["--help"], ["scan", "--input", str(path), "--h", "3"]):
            with open("/dev/full", "w") as full:
                proc = subprocess.run([sys.executable, "-m", "tsleakscan", *args], stdout=full,
                                      stderr=subprocess.PIPE, text=True, env=env)
            assert proc.returncode == 120, (args, proc.stderr)
            assert "No space left on device" in proc.stderr

    def test_console_script_is_the_main_module_entry(self):
        import ast
        import importlib
        import pathlib
        from tsleakscan import cli
        root = pathlib.Path(cli.__file__).parent
        pyproject = (root.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^\[project\.scripts\]\ntsleakscan = "([\w.]+):(\w+)"$', pyproject, re.M)
        assert target is not None, pyproject
        script = getattr(importlib.import_module(target[1]), target[2])
        tree = ast.parse((root / "__main__.py").read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name: (node.module, alias.name) for node in tree.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        called = [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id in imported]
        assert [imported[name] for name in called] == [("cli", script.__name__)]
        assert script is cli.run


class TestInstalledScriptScenarios:
    """The CLI scenarios once run only against the installed package, each
    through the process entry."""

    def test_viz_draws_one_cell_per_pair(self, tmp_path):
        # the matrix CSV lands next to the heatmap, so the heatmap may not be smoke.svg
        import xml.etree.ElementTree as ET
        (tmp_path / "smoke.csv").write_text(SMOKE_CSV, encoding="utf-8")
        proc = run_cli("viz", "--input", "smoke.csv", "--h", "3", "--output", "heat.svg", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert sum(e.get("class") == "cell" for e in ET.parse(tmp_path / "heat.svg").iter()) == 4

    def test_wide_interior_gap_run_collapses_into_one_range(self, tmp_path):
        # the windows of the ramp a at offsets 1-5 match its terminal one and
        # collapse into one range, 1-7; b's interior gap is skipped
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n1,3\n2,1\n3,4\n4,1\n5,\n6,9\n7,2\n8,6\n", encoding="utf-8")
        proc = run_cli("explain", "--input", str(path), "--format", "wide", "--h", "3", "--missing", "skip",
                       "--collapse-overlaps")
        assert proc.returncode == 0, proc.stderr
        assert "a -> a: 1-7" in proc.stdout
        assert re.search("^1 matches", proc.stdout, re.M), proc.stdout

    def test_json_with_a_null_explained_and_its_reports(self, tmp_path):
        # a's terminal segment recurs in b past the gap, and b's last three
        # values are the predicted test
        path = tmp_path / "smoke.json"
        path.write_text('{"a": [1, 5, 2, 8, 3, 9, 4], "b": [0, 1, null, 2, 8, 3, 9, 4, 7, 1, 2]}', encoding="utf-8")
        args = ["--input", str(path), "--format", "json", "--h", "3", "--missing", "skip"]
        proc = run_cli("explain", *args)
        assert proc.returncode == 0, proc.stderr
        assert "a -> b: 6-8, r=1.000, exact-match, useful; predicted test: 7 1 2" in proc.stdout
        # the explained report as JSON reads back through the package, records
        # the horizon h = 3 and lists the scan's CSV report's matches
        explained, scanned = tmp_path / "smoke-report.json", tmp_path / "smoke-report.csv"
        assert run_cli("explain", *args, "--output", str(explained)).returncode == 0
        assert run_cli("scan", *args, "--report-format", "csv", "--output", str(scanned)).returncode == 0
        payload = json.loads(explained.read_text(encoding="utf-8"))
        assert payload["config"]["horizon"] == 3, payload["config"]
        report = ts.report_from_payload(payload)
        with open(scanned, newline="", encoding="utf-8") as fh:
            rows = [(r["query_id"], r["donor_id"], int(r["start"]), int(r["end"])) for r in csv.DictReader(fh)]
        matches = [(m.query_id, m.donor_id, m.start, m.end) for m in report.matches]
        assert matches == rows and ("a", "b", 6, 8) in rows, (matches, rows)
        # the explained report as CSV: the reason columns follow the match's,
        # and the match into b past its gap is an exact copy with a usable continuation
        explained_csv = tmp_path / "smoke-explained.csv"
        assert run_cli("explain", *args, "--report-format", "csv", "--output", str(explained_csv)).returncode == 0
        with open(explained_csv, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            by_match = {(r["query_id"], r["donor_id"], r["start"], r["end"]): r for r in reader}
        assert reader.fieldnames[5:] == ["kind", "m", "c", "useful"], reader.fieldnames
        row = by_match[("a", "b", "6", "8")]
        assert (row["kind"], row["useful"]) == ("exact-match", "true"), row

    def test_periodic_collapse_same_bytes_at_one_and_two_workers(self, tmp_path):
        # three sines of period 12: their matches come in runs of consecutive
        # offsets, and the scan's pool returns its hits as arrays; the collapsed
        # explained report, JSON and CSV, and the stdout are the same bytes at
        # one and two workers
        path = tmp_path / "periodic.csv"
        path.write_text("a,b,c\n" + "".join(
            ",".join(repr(round((k + 1) * math.sin(2 * math.pi * (t + 3 * k) / 12) + k, 6)) for k in range(3)) + "\n"
            for t in range(50)), encoding="utf-8")
        args = ["explain", "--input", str(path), "--format", "wide", "--h", "5", "--cutoff", "0.95",
                "--collapse-overlaps"]
        outputs = []
        for workers in ("1", "2"):
            stdout = run_cli(*args, "--workers", workers)
            assert stdout.returncode == 0, stdout.stderr
            files = []
            for fmt in ("json", "csv"):
                out = tmp_path / f"periodic-{workers}.{fmt}"
                assert run_cli(*args, "--workers", workers, "--report-format", fmt, "--output", str(out)).returncode == 0
                files.append(out.read_bytes())
            outputs.append((stdout.stdout, *files))
        assert re.search("^69 matches", outputs[0][0], re.M), outputs[0][0]
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_workers_auto_under_one_cpu(self, tmp_path):
        # --workers auto counts the CPUs the process may run on, not the
        # host's: one under a one-CPU affinity, with the same output as one worker
        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        (tmp_path / "smoke.csv").write_text(SMOKE_CSV, encoding="utf-8")
        code = "import tsleakscan as ts; print(ts.ScanConfig(h=3, workers='auto').resolved_workers())"
        resolved = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, preexec_fn=one_cpu)
        assert (resolved.returncode, resolved.stdout) == (0, "1\n"), resolved.stderr
        one = run_cli("scan", "--input", "smoke.csv", "--h", "3", cwd=tmp_path)
        auto = run_cli("scan", "--input", "smoke.csv", "--h", "3", "--workers", "auto", cwd=tmp_path,
                       preexec_fn=one_cpu)
        assert (one.returncode, auto.returncode) == (0, 0), auto.stderr
        assert "a -> b: 2-4" in one.stdout
        assert auto.stdout == one.stdout
