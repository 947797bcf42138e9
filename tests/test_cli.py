import json
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import tsleakscan as ts
from tsleakscan.collection import SPLIT_SKIP
from tsleakscan.reasons import ReasonKind

from conftest import (
    block_fit_collection,
    reason_oracle,
    reference_collapse,
    reference_explain_lines,
    reference_json_report,
    reference_match_line,
    usage_style_collection,
)


def run_cli(*args, env=None, cwd=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    if cwd is not None:  # the child no longer finds the package through a relative path
        full_env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in full_env.get("PYTHONPATH", "").split(os.pathsep) if p)
    return subprocess.run(
        [sys.executable, "-m", "tsleakscan", *args],
        capture_output=True, text=True, env=full_env, cwd=cwd,
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


def test_import_defers_reasons_and_report():
    # a process that only loads a collection compiles neither; every public
    # name still resolves, and tsleakscan.scan stays the function
    code = """if True:
        import sys, tsleakscan
        print(sorted(m for m in ("tsleakscan.reasons", "tsleakscan.report", "tsleakscan.cli") if m in sys.modules))
        import tsleakscan.reasons
        print(callable(tsleakscan.scan), type(tsleakscan.scan).__name__)
        print([name for name in tsleakscan.__all__ if getattr(tsleakscan, name, None) is None])
        namespace = {}
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
