import json
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsleakscan as ts
from tsleakscan.reasons import ReasonKind
from tsleakscan.scan import MatchRecord

from conftest import (reference_collapse, reference_csv_report, reference_heatmap, reference_json_report,
                      reference_matrix_csv)

# ids with quotes, backslashes, control and non-ASCII characters among any others
json_ids = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t\x7fé€\u2028😀'), st.characters()), max_size=6)
json_floats = st.floats().flatmap(lambda v: st.sampled_from([v, np.float64(v)]))  # json writes both alike


@st.composite
def json_reports(draw):
    """(report, reasoned, horizon) for ``write_report``, plain or explained."""
    cfg = ts.ScanConfig(h=draw(st.integers(3, 40)), cutoff=draw(st.floats(0.01, 1.0)))
    matches = draw(st.lists(st.builds(MatchRecord, json_ids, json_ids, st.integers(1, 10**9),
                                      st.integers(1, 10**9), json_floats), max_size=4))
    skipped = draw(st.lists(st.tuples(json_ids, json_ids), max_size=3))
    report = ts.LeakReport(cfg, matches, skipped)
    if not draw(st.booleans()):
        return report, None, None
    horizon = draw(st.one_of(st.none(), st.integers(1, 50)))
    # a useful match predicts as many values as the report records as its horizon
    n_predicted = cfg.h if horizon is None else horizon
    reasoned = []
    for match in matches:
        useful = draw(st.booleans())
        predicted = draw(st.lists(st.one_of(st.none(), json_floats), min_size=n_predicted,
                                  max_size=n_predicted)) if useful else None
        fit = ts.AffineFit(draw(json_floats), draw(json_floats), 0.0)
        reasoned.append(ts.ReasonedMatch(match, fit, draw(st.sampled_from(ReasonKind)), useful, predicted))
    return report, reasoned, horizon


# ids with the characters XML escapes and non-ASCII text among any others
# (surrogates cannot be written as UTF-8)
svg_ids = st.text(st.one_of(st.sampled_from("<&>é€😀 "), st.characters(exclude_categories=("Cs",))),
                  max_size=5)


@st.composite
def heatmap_matrices(draw):
    """A MatchMatrix of 1-60 rows and columns, square or not, with int,
    bool or float counts whose largest is 0, 1 or more."""
    n_rows = draw(st.integers(1, 60))
    n_cols = n_rows if draw(st.booleans()) else draw(st.integers(1, 60))
    dtype = draw(st.sampled_from([int, bool, float]))
    top = draw(st.integers(0, 1 if dtype is bool else 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    shape = (n_rows, n_cols)
    counts = (rng.integers(0, top + 1, size=shape) * (rng.random(shape) < density)).astype(dtype)
    if dtype is float and draw(st.booleans()):
        counts += rng.random(shape) * 0.99  # a fraction that int() truncates away
    row_ids = draw(st.lists(svg_ids, min_size=n_rows, max_size=n_rows))
    col_ids = draw(st.lists(svg_ids, min_size=n_cols, max_size=n_cols))
    return ts.MatchMatrix(row_ids, col_ids, counts)


def bench_sized_matrix(n, seed):
    """n series a side, a sparse scatter of counts from 1 to 3."""
    rng = np.random.default_rng(seed)
    counts = (rng.random((n, n)) < 0.01) * rng.integers(1, 4, size=(n, n))
    ids = [f"N{i:04d}" for i in range(n)]
    return ts.MatchMatrix(ids, ids, counts)


def svg_cells(path):
    tree = ET.parse(path)
    return [e for e in tree.iter() if e.get("class") == "cell"]


class TestMatrix:
    def test_usage_matrix_cells(self, usage_collection):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        matrix = ts.build_matrix(report, c)
        assert matrix.row_ids == matrix.col_ids == ["x", "y", "z"]
        expected = np.zeros((3, 3), dtype=int)
        expected[0, 2] = 1  # x -> z
        expected[1, 0] = 1  # y -> x
        expected[2, 0] = 1  # z -> x
        assert np.array_equal(matrix.counts, expected)
        assert matrix.total() == 3

    def test_empty_report_zero_matrix(self):
        c = ts.from_dict({f"s{i}": [float(i), 2.0, 7.0] for i in range(4)})
        matrix = ts.build_matrix(ts.LeakReport(ts.ScanConfig(h=3), []), c)
        assert matrix.counts.shape == (4, 4)
        assert matrix.counts.sum() == 0

    def test_double_hit_counts_two(self):
        rng = np.random.default_rng(6)
        seg = rng.normal(size=5)
        query = np.concatenate([rng.normal(size=5), seg])
        donor = np.concatenate([seg, rng.normal(size=3), seg, rng.normal(size=2)])
        c = ts.from_dict({"a": query, "b": donor})
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        matrix = ts.build_matrix(report, c)
        assert matrix.counts[0, 1] == 2

    def test_unknown_id_is_consistency_error(self, usage_collection):
        c, _ = usage_collection
        bad = ts.LeakReport(ts.ScanConfig(h=5), [MatchRecord("ghost", "x", 1, 5, 1.0)])
        with pytest.raises(ts.ConsistencyError):
            ts.build_matrix(bad, c)


class TestCollapse:
    def test_ramp_runs_merge(self):
        c = ts.from_dict({"a": np.arange(1.0, 11.0)})
        report = ts.scan(c, ts.ScanConfig(h=3, cutoff=1.0))
        collapsed = ts.collapse_overlaps(report.matches)
        assert len(collapsed) == 1
        assert (collapsed[0].start, collapsed[0].end) == (1, 9)

    def test_ramp_runs_merge_with_reasons(self):
        c = ts.from_dict({"a": np.arange(1.0, 11.0)})
        reasoned = ts.reason_report(ts.scan(c, ts.ScanConfig(h=3, cutoff=1.0)), c)
        assert [rm.useful for rm in reasoned] == [True] * 5 + [False] * 2
        # every r is 1.0, so the first member is the strongest; weakening all
        # but the last makes a member with no continuation the strongest
        weakened = [replace(rm, base=replace(rm.base, r=0.5)) for rm in reasoned[:-1]]
        weakened.append(reasoned[-1])
        for members, strongest in ((reasoned, reasoned[0]), (weakened, weakened[-1])):
            collapsed = ts.collapse_overlaps(members)
            assert [rm.base for rm in collapsed] == ts.collapse_overlaps([rm.base for rm in members])
            assert [(rm.base.start, rm.base.end, rm.base.r) for rm in collapsed] == [(1, 9, strongest.base.r)]
            assert collapsed[0] == replace(strongest, base=collapsed[0].base)
            assert (collapsed[0].kind, collapsed[0].useful, collapsed[0].predicted_test) == \
                (strongest.kind, strongest.useful, strongest.predicted_test)

    def test_strongest_member_as_max_picks_it(self):
        # ties go to the first member; a NaN r wins only as a run's first member
        rs = [(1, float("nan")), (2, 0.5), (3, -0.9), (7, 0.4), (8, float("nan")), (9, -0.4),
              (12, 0.3), (13, -0.3), (14, 0.3)]
        matches = [MatchRecord("a", "b", start, start + 2, r) for start, r in rs]
        collapsed = ts.collapse_overlaps(matches)
        assert [repr(m) for m in collapsed] == [repr(m) for m in reference_collapse(matches)]
        assert [m.r for m in collapsed][1:] == [0.4, 0.3]

    def test_non_consecutive_not_merged(self):
        matches = [MatchRecord("a", "b", 1, 3, 1.0), MatchRecord("a", "b", 5, 7, 1.0)]
        assert ts.collapse_overlaps(matches) == matches

    def test_different_pairs_not_merged(self):
        matches = [MatchRecord("a", "b", 1, 3, 1.0), MatchRecord("a", "c", 2, 4, 1.0)]
        assert ts.collapse_overlaps(matches) == matches


def periodic_collection(n_series, seed):
    """Sines of period 12, 150-219 values each: at h = 6 and cutoff 0.95
    every query matches runs of offsets in every series."""
    rng = np.random.default_rng(seed)
    data = {}
    for i in range(n_series):
        t = np.arange(int(rng.integers(150, 220))) + rng.integers(12)
        data[f"p{i:02d}"] = rng.uniform(1, 5) * np.sin(2 * np.pi * t / 12) + rng.uniform(-10, 10)
    return ts.from_dict(data)


# ids the CSV writer must quote: a comma, a quote, line breaks, and non-ASCII text
CSV_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "é€😀", " padded "]
NON_FINITE = [float("nan"), float("inf"), -float("inf"), 1e300, -0.0, 5e-324, 0.987654321098765]


def csv_case(name):
    """(report, reasoned) of the CSV report tests: reasoned is a ReasonTable
    or a list of ReasonedMatches, useful or not, that predict 3 values each."""
    kinds = list(ReasonKind)
    if name == "empty":
        return ts.LeakReport(ts.ScanConfig(h=3, cutoff=0.5), [], [("a,b", "too-short")]), []
    if name in ("periodic", "periodic-collapsed"):
        c = periodic_collection(3, seed=5)
        report = ts.scan(c, ts.ScanConfig(h=6, cutoff=0.95))
        reasoned = ts.reason_report(report, c, ts.ReasonConfig(horizon=3))
        if name == "periodic-collapsed":
            reasoned = ts.collapse_overlaps(reasoned)
            report = replace(report, matches=reasoned.base)
        return report, reasoned
    ids, values = (CSV_IDS, [0.5, 0.25, 1.0]) if name == "quoted-ids" else (["q", "d"], NON_FINITE)
    matches, reasoned = [], []
    for i in range(12):  # r, m and c each cycle through the values; every third match is useful
        match = MatchRecord(ids[i % len(ids)], ids[-1 - i % len(ids)], i + 1, i + 3, values[i % len(values)])
        fit = ts.AffineFit(values[(i + 1) % len(values)], values[(i + 2) % len(values)], 0.0)
        useful = i % 3 == 0
        matches.append(match)
        reasoned.append(ts.ReasonedMatch(match, fit, kinds[i % len(kinds)], useful,
                                         [1.0, None, 2.0] if useful else None))
    return ts.LeakReport(ts.ScanConfig(h=3, cutoff=0.5), matches), reasoned


class TestMemoryPerMatch:
    # the traced peak of scan, reason_report and write_report on this input
    # was 847 B per match when each match was a MatchRecord, a ReasonedMatch,
    # an AffineFit and a list of predicted values; the columns need less
    # than half of that
    BUDGET = 847 // 2

    def test_traced_peak_per_match(self, tmp_path):
        c = periodic_collection(17, seed=3)
        tracemalloc.start()
        try:
            report = ts.scan(c, ts.ScanConfig(h=6, cutoff=0.95))
            reasoned = ts.reason_report(report, c)
            ts.write_report(report, tmp_path / "report.json", "json", reasoned=reasoned)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.matches) >= 20_000
        assert peak / len(report.matches) < self.BUDGET


class TestSerialization:
    def test_json_schema_and_key_order(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, c)
        path = tmp_path / "report.json"
        ts.write_report(report, path, "json", reasoned=reasoned, horizon=5)
        payload = json.loads(path.read_text())
        assert list(payload) == ["config", "skipped_queries", "matches"]
        assert list(payload["config"]) == ["h", "cutoff", "horizon"]
        useful_entry = next(e for e in payload["matches"] if e["useful"])
        assert list(useful_entry) == ["query_id", "donor_id", "start", "end", "r",
                                      "kind", "m", "c", "useful", "predicted_test"]
        not_useful = next(e for e in payload["matches"] if not e["useful"])
        assert "predicted_test" not in not_useful

    def test_plain_report_has_no_reason_fields(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        path = tmp_path / "report.json"
        ts.write_report(report, path, "json")
        payload = json.loads(path.read_text())
        assert list(payload["config"]) == ["h", "cutoff"]
        assert list(payload["matches"][0]) == ["query_id", "donor_id", "start", "end", "r"]

    def test_round_trip_structural_equality(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        path = tmp_path / "report.json"
        ts.write_report(report, path, "json")
        assert ts.read_report(path) == ts.report_payload(report)
        rebuilt = ts.report_from_payload(ts.read_report(path))
        assert rebuilt.matches == report.matches
        assert rebuilt.skipped_queries == report.skipped_queries

    @pytest.mark.parametrize("field, value, error", [
        ("h", 5.9, ts.ConfigError),
        ("start", 2.7, ts.ConsistencyError),
        ("end", 6.0, ts.ConsistencyError),
        ("start", True, ts.ConsistencyError),
        ("cutoff", True, ts.ConfigError),
        ("cutoff", "0.9", ts.ConfigError),
        ("r", "0.5", ts.ConsistencyError),
        ("r", True, ts.ConsistencyError),
        # the JSON writer could not write these back as strings
        ("query_id", 5, ts.ConsistencyError),
        ("donor_id", None, ts.ConsistencyError),
        ("donor_id", ["x"], ts.ConsistencyError),
        ("id", 5, ts.ConsistencyError),
        ("reason", 1.5, ts.ConsistencyError),
        ("reason", False, ts.ConsistencyError),
    ])
    def test_non_integer_payload_rejected(self, field, value, error):
        payload = {"config": {"h": 5, "cutoff": 1.0}, "skipped_queries": [{"id": "z", "reason": "too-short"}],
                   "matches": [{"query_id": "y", "donor_id": "x", "start": 2, "end": 6, "r": 1.0}]}
        entry = (payload["config"] if field in ("h", "cutoff") else
                 payload["skipped_queries"][0] if field in ("id", "reason") else payload["matches"][0])
        entry[field] = value
        with pytest.raises(error, match=field):
            ts.report_from_payload(payload)

    @pytest.mark.parametrize("payload, message", [
        ({"config": {"h": 3}, "skipped_queries": [], "matches": []}, "KeyError('cutoff')"),
        ({"config": {"h": 3, "cutoff": 1.0}, "skipped_queries": [],
          "matches": [{"query_id": "a", "donor_id": "b", "start": 1, "end": 3}]}, "KeyError('r')"),
        ([], "TypeError("),
    ], ids=["config-without-cutoff", "match-without-r", "list"])
    def test_malformed_payload_rejected(self, payload, message):
        # a JSON file read from outside may hold anything; it fails as a report, not as Python
        with pytest.raises(ts.ConsistencyError, match=re.escape("report payload is not an object with "
                                                                f"the report's keys: {message}")):
            ts.report_from_payload(payload)

    @pytest.mark.parametrize("matches, skipped, message", [
        # json would write these as true, 1.5 and "0.5", or fail over a half-written file
        ([MatchRecord("a", "b", True, 3, 1.0)], [], "match start must be an integer, got True"),
        ([MatchRecord("a", "b", 1.5, 3, 1.0)], [], "match start must be an integer, got 1.5"),
        ([MatchRecord("a", "b", 1, 3, "0.5")], [], "match r must be a real number, got '0.5'"),
        ([MatchRecord(5, "x", 1, 3, 1.0)], [], "match query_id must be a string, got 5"),
        ([], [("a", 5)], "skipped query reason must be a string, got 5"),
    ], ids=["bool-start", "float-start", "string-r", "int-id", "int-skip-reason"])
    def test_hand_built_report_field_rejected(self, matches, skipped, message):
        with pytest.raises(ts.ConsistencyError, match=re.escape(message)):
            ts.LeakReport(ts.ScanConfig(h=3), matches, skipped)

    def test_non_string_id_rejected_before_any_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ts.ConsistencyError, match="match query_id must be a string, got 5"):
            ts.write_report(ts.LeakReport(ts.ScanConfig(h=3), [MatchRecord(5, "x", 1, 3, 1.0)]), path)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("field, value, message", [
        # the writers would write these as 2.0, NaN, 1.0, true, "exact-match" and 2.0
        ("fit", ts.AffineFit("2", 0.0, 0.0), "reasoned match m must be a real number, got '2'"),
        ("fit", ts.AffineFit(1.0, None, 0.0), "reasoned match c must be a real number, got None"),
        ("fit", ts.AffineFit(1.0, 0.0, True), "reasoned match max_residual must be a real number, got True"),
        ("useful", "false", "reasoned match useful must be a bool, got 'false'"),
        ("kind", "exact-match", "reasoned match kind must be a ReasonKind, got 'exact-match'"),
        ("predicted_test", [1.0, "2", None, 4.0, 5.0],
         "reasoned match predicted_test must be a list of real numbers and None, got [1.0, '2', None"),
    ], ids=["string-m", "none-c", "bool-residual", "string-useful", "string-kind", "string-prediction"])
    def test_hand_built_reason_field_rejected_before_any_file(self, usage_collection, tmp_path, fmt,
                                                              field, value, message):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = list(ts.reason_report(report, c))
        useful = next(i for i, rm in enumerate(reasoned) if rm.useful)
        path = tmp_path / f"x.{fmt}"
        # numpy scalars are numbers and bools too, and write as the Python values do
        ts.write_report(report, path, fmt, reasoned=reasoned)
        written = path.read_bytes()
        ts.write_report(report, path, fmt, reasoned=[
            replace(rm, useful=np.bool_(rm.useful), fit=ts.AffineFit(*map(np.float64, vars(rm.fit).values())))
            for rm in reasoned])
        assert path.read_bytes() == written
        path.unlink()
        reasoned[useful] = replace(reasoned[useful], **{field: value})
        with pytest.raises(ts.ConsistencyError, match=re.escape(message)):
            ts.write_report(report, path, fmt, reasoned=reasoned)
        assert not path.exists()

    def test_every_table_built_from_records_checks_them(self, usage_collection):
        c, _ = usage_collection
        bad = MatchRecord("y", "x", 1.5, 5, 1.0)
        reasoned = ts.ReasonedMatch(bad, ts.AffineFit(1.0, 0.0, 0.0), ReasonKind.EXACT_MATCH, False, None)
        for call in (lambda: ts.collapse_overlaps([bad]), lambda: ts.tally([reasoned]),
                     lambda: ts.assess_usefulness(bad, c, ts.ReasonConfig(horizon=5))):
            with pytest.raises(ts.ConsistencyError, match="match start must be an integer, got 1.5"):
                call()

    def test_integer_values_read_as_floats(self, tmp_path):
        payload = {"config": {"h": 5, "cutoff": 1}, "skipped_queries": [],
                   "matches": [{"query_id": "y", "donor_id": "x", "start": 2, "end": 6, "r": -1}]}
        report = ts.report_from_payload(payload)
        assert type(report.config.cutoff) is float and type(report.matches[0].r) is float
        path = tmp_path / "report.json"
        ts.write_report(report, path, "json")
        rebuilt = ts.report_from_payload(ts.read_report(path))
        assert rebuilt == report

    def test_matrix_survives_round_trip(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        path = tmp_path / "report.json"
        ts.write_report(report, path, "json")
        original = ts.build_matrix(report, c)
        rebuilt = ts.build_matrix(ts.report_from_payload(ts.read_report(path)), c)
        assert np.array_equal(original.counts, rebuilt.counts)

    def test_empty_report_serializes(self, tmp_path):
        report = ts.LeakReport(ts.ScanConfig(h=3, cutoff=0.9), [], [("a", "too-short")])
        path = tmp_path / "empty.json"
        ts.write_report(report, path, "json")
        payload = json.loads(path.read_text())
        assert payload["matches"] == []
        assert payload["skipped_queries"] == [{"id": "a", "reason": "too-short"}]
        assert payload["config"] == {"h": 3, "cutoff": 0.9}

    @given(json_reports())
    @example((ts.LeakReport(ts.ScanConfig(h=3), [], []), None, None))
    @example((ts.LeakReport(ts.ScanConfig(h=3), [], []), [], 5))
    @settings(max_examples=200, deadline=None)
    def test_json_bytes_equal_stdlib(self, case):
        """The bytes of the per-record reference writer, in the layout that
        json.dumps(indent=1) gives the parsed document."""
        report, reasoned, horizon = case
        recorded = report.config.h if reasoned is not None and horizon is None else horizon
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "report.json", Path(tmp) / "reference.json"
            ts.write_report(report, path, "json", reasoned=reasoned, horizon=horizon)
            reference_json_report(report, reasoned, recorded, reference)
            assert path.read_bytes() == reference.read_bytes()
            text = path.read_text(encoding="ascii")
        assert json.dumps(json.loads(text), indent=1) + "\n" == text

    def test_numpy_integer_h_and_horizon_written_as_ints(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, c)
        ts.write_report(report, tmp_path / "plain.json", "json", reasoned=reasoned, horizon=5)
        for h, horizon in ((np.int64(5), 5), (5, np.int64(5))):
            cfg = ts.ScanConfig(h=h, cutoff=1.0)
            assert type(cfg.h) is int and type(ts.ReasonConfig(horizon).horizon) is int
            ts.write_report(replace(report, config=cfg), tmp_path / "numpy.json", "json",
                            reasoned=reasoned, horizon=horizon)
            assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("cutoff, plain", [(np.float32(0.5), 0.5), (np.float16(0.5), 0.5),
                                               (np.int64(1), 1), (np.float64(0.9), 0.9), (1, 1)])
    def test_numpy_scalar_cutoff_written_as_its_python_number(self, tmp_path, cutoff, plain):
        cfg = ts.ScanConfig(h=3, cutoff=cutoff)
        assert type(cfg.cutoff) is type(plain) and cfg.cutoff == plain
        ts.write_report(ts.LeakReport(cfg, []), tmp_path / "numpy.json", "json")
        ts.write_report(ts.LeakReport(ts.ScanConfig(h=3, cutoff=plain), []), tmp_path / "plain.json", "json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert f'"cutoff": {plain!r}' in (tmp_path / "plain.json").read_text()

    @pytest.mark.parametrize("name", ["quoted-ids", "non-finite", "periodic", "periodic-collapsed", "empty"])
    @pytest.mark.parametrize("explained", [False, True])
    def test_csv_bytes_equal_reference(self, name, explained, tmp_path):
        report, reasoned = csv_case(name)
        reasoned = reasoned if explained else None
        ts.write_report(report, tmp_path / "new.csv", "csv", reasoned=reasoned, horizon=3 if explained else None)
        reference_csv_report(report, reasoned, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_csv_reasoned_columns(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, c)
        path = tmp_path / "report.csv"
        ts.write_report(report, path, "csv", reasoned=reasoned, horizon=5)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "query_id,donor_id,start,end,r,kind,m,c,useful"
        assert len(lines) == 4
        assert lines[2].startswith("y,x,1,5,1,exact-match,1,0,true")

    def test_csv_12_significant_digits(self, tmp_path):
        report = ts.LeakReport(ts.ScanConfig(h=3, cutoff=0.5),
                               [MatchRecord("a", "b", 1, 3, 0.987654321098765)])
        path = tmp_path / "r.csv"
        ts.write_report(report, path, "csv")
        assert "0.987654321099" in path.read_text()

    def test_mismatched_reasoned_length_rejected(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        with pytest.raises(ts.ConsistencyError):
            ts.write_report(report, tmp_path / "x.json", "json", reasoned=[], horizon=5)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("reason_horizon, horizon, error", [
        (6, None, ts.ConsistencyError),  # the report would record h = 5
        (6, 5, ts.ConsistencyError),
        (5, 6, ts.ConsistencyError),
        (5, 0, ts.ConfigError),
        (5, True, ts.ConfigError),
        (5, 2.5, ts.ConfigError),
    ])
    def test_horizon_other_than_the_predictions_rejected(self, usage_collection, tmp_path, fmt,
                                                           reason_horizon, horizon, error):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, c, ts.ReasonConfig(horizon=reason_horizon))
        assert any(rm.useful for rm in reasoned)
        with pytest.raises(error):
            ts.write_report(report, tmp_path / f"x.{fmt}", fmt, reasoned=reasoned, horizon=horizon)
        assert not (tmp_path / f"x.{fmt}").exists()
        ts.write_report(report, tmp_path / f"x.{fmt}", fmt, reasoned=reasoned, horizon=reason_horizon)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reasons_horizon_rejected_without_a_useful_match(self, usage_collection, tmp_path, fmt):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, c, ts.ReasonConfig(horizon=20))
        assert len(reasoned) == 3 and not any(rm.useful for rm in reasoned)
        path = tmp_path / f"x.{fmt}"
        with pytest.raises(ts.ConsistencyError, match="predicts 20 values"):
            ts.write_report(report, path, fmt, reasoned=reasoned)
        assert not path.exists()
        ts.write_report(report, path, fmt, reasoned=reasoned, horizon=20)
        # a list of reasons with no useful one states no horizon, so h is recorded
        ts.write_report(report, tmp_path / "list.json", "json", reasoned=list(reasoned))
        assert json.loads((tmp_path / "list.json").read_text())["config"]["horizon"] == 5

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("predicted", [None, [], [1.0] * 4, ([1.0] * 4, [1.0] * 5)])
    def test_useful_match_without_its_predictions_rejected(self, usage_collection, tmp_path, fmt,
                                                            predicted):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = list(ts.reason_report(report, c))
        if isinstance(predicted, tuple):
            # the first match made useful, predicting fewer values than the useful second one's h
            assert not reasoned[0].useful and reasoned[1].useful
            reasoned[:2] = [replace(rm, useful=True, predicted_test=p) for rm, p in zip(reasoned, predicted)]
            message = "different numbers of values"
        else:
            reasoned = [replace(rm, predicted_test=predicted) if rm.useful else rm for rm in reasoned]
            message = "predicts"
        with pytest.raises(ts.ConsistencyError, match=message):
            ts.write_report(report, tmp_path / f"x.{fmt}", fmt, reasoned=reasoned)
        assert not (tmp_path / f"x.{fmt}").exists()

    def test_unknown_report_format_writes_nothing(self, tmp_path):
        with pytest.raises(ts.ConsistencyError, match="unknown report format 'xml'"):
            ts.write_report(ts.LeakReport(ts.ScanConfig(h=3), []), tmp_path / "x.xml", "xml")
        assert list(tmp_path.iterdir()) == []

    def test_csv_mismatched_reasoned_length_rejected(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        assert len(report.matches) == 3
        with pytest.raises(ts.ConsistencyError):
            ts.write_report(report, tmp_path / "x.csv", "csv", reasoned=[], horizon=5)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("dtype", [int, bool, float])
    def test_matrix_csv_bytes_equal_reference(self, dtype, tmp_path):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 3, size=(7, 5)).astype(dtype)
        if dtype is float:
            counts += rng.random((7, 5)) * 0.99
        matrix = ts.MatchMatrix([f"q{i}" for i in range(7)], ["d,1", 'd"2', "d3", "é", ""], counts)
        ts.write_matrix_csv(matrix, tmp_path / "new.csv")
        reference_matrix_csv(matrix, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_matrix_csv(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        matrix = ts.build_matrix(report, c)
        path = tmp_path / "matrix.csv"
        ts.write_matrix_csv(matrix, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",x,y,z"
        assert lines[1] == "x,0,0,1"
        assert lines[2] == "y,1,0,0"


class TestHeatmap:
    def test_usage_heatmap_three_nonzero_cells(self, usage_collection, tmp_path):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        matrix = ts.build_matrix(report, c)
        path = tmp_path / "heat.svg"
        ts.render_heatmap(matrix, path)
        cells = svg_cells(path)
        assert len(cells) == 9
        nonzero = [e for e in cells if e.get("fill") != "#ffffff"]
        assert len(nonzero) == 3

    def test_single_zero_cell(self, tmp_path):
        matrix = ts.MatchMatrix(["a"], ["a"], np.zeros((1, 1), dtype=int))
        path = tmp_path / "one.svg"
        ts.render_heatmap(matrix, path)
        cells = svg_cells(path)
        assert len(cells) == 1
        assert cells[0].get("fill") == "#ffffff"

    def test_label_angle_present(self, usage_collection, tmp_path):
        c, _ = usage_collection
        matrix = ts.build_matrix(ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0)), c)
        path = tmp_path / "heat.svg"
        ts.render_heatmap(matrix, path, label_angle=45)
        assert "rotate(-45" in path.read_text()

    # a real number is drawn as its float; a Fraction and an int past int64,
    # which numpy cannot take, raised a bare numpy TypeError
    @pytest.mark.parametrize("label_angle, drawn", [(Fraction(1, 2), "rotate(-0.5 "),
                                                    (10**20, "rotate(-1e+20 "), (np.float32(12.5), "rotate(-12.5 ")])
    def test_real_label_angle_drawn_as_its_float(self, label_angle, drawn, tmp_path):
        matrix = ts.MatchMatrix(["a"], ["a"], np.ones((1, 1), dtype=int))
        ts.render_heatmap(matrix, tmp_path / "heat.svg", label_angle=label_angle)
        assert drawn in (tmp_path / "heat.svg").read_text()

    def test_large_matrix_under_size_gate(self, tmp_path):
        n = 181
        rng = np.random.default_rng(1)
        counts = (rng.random((n, n)) < 0.001).astype(int)
        matrix = ts.MatchMatrix([f"N{i:04d}" for i in range(n)],
                                [f"N{i:04d}" for i in range(n)], counts)
        path = tmp_path / "big.svg"
        ts.render_heatmap(matrix, path)
        assert path.stat().st_size < 5 * 2**20
        assert len(svg_cells(path)) == n * n

    def test_ids_are_escaped(self, tmp_path):
        matrix = ts.MatchMatrix(["a<b&c"], ["a<b&c"], np.ones((1, 1), dtype=int))
        path = tmp_path / "esc.svg"
        ts.render_heatmap(matrix, path)
        ET.parse(path)  # well-formed despite hostile id

    @given(heatmap_matrices(), st.one_of(st.sampled_from([90.0, 45.0, 0.0, -30.0, 12.5]),
                                         st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_reference(self, matrix, label_angle):
        with tempfile.TemporaryDirectory() as tmp:
            new, reference = Path(tmp) / "new.svg", Path(tmp) / "reference.svg"
            ts.render_heatmap(matrix, new, label_angle=label_angle)
            reference_heatmap(matrix, reference, label_angle=label_angle)
            assert new.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("n", [75, 91, 181])
    @pytest.mark.parametrize("label_angle", [90.0, 45.0])
    def test_bench_sizes_bytes_equal_reference(self, n, label_angle, tmp_path):
        matrix = bench_sized_matrix(n, seed=n)
        assert matrix.counts.max() > 1
        ts.render_heatmap(matrix, tmp_path / "new.svg", label_angle=label_angle)
        reference_heatmap(matrix, tmp_path / "reference.svg", label_angle=label_angle)
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()

    def test_memory_does_not_grow_with_the_svg(self, tmp_path):
        n = 400
        ids = [f"N{i:04d}" for i in range(n)]
        matrix = ts.MatchMatrix(ids, ids, np.zeros((n, n), dtype=int))
        tracemalloc.start()
        try:
            ts.render_heatmap(matrix, tmp_path / "zero.svg")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "zero.svg").stat().st_size > 16 * 2**20
        assert peak < 8 * 2**20

    # NaN, the infinities, ints past float's range and values that are not
    # real numbers: True was drawn as a 1 degree rotation, and "90" and 10**400
    # raised a bare numpy TypeError
    @pytest.mark.parametrize("label_angle", [float("nan"), float("inf"), -float("inf"),
                                             True, False, "90", None, 1j, [90.0],
                                             pytest.param(10**400, id="10**400"),
                                             pytest.param(-10**400, id="-10**400")])
    def test_non_finite_label_angle_rejected(self, label_angle, tmp_path):
        matrix = ts.MatchMatrix(["a"], ["a"], np.ones((1, 1), dtype=int))
        with pytest.raises(ts.ConfigError, match="label_angle must be finite"):
            ts.render_heatmap(matrix, tmp_path / "heat.svg", label_angle=label_angle)
        assert not (tmp_path / "heat.svg").exists()

    @pytest.mark.parametrize("counts", [
        np.ones((2, 3), dtype=int),
        np.array([[1.0, np.nan], [0.0, 2.0]]),
        np.array([[1.0, -np.inf], [0.0, 2.0]]),
        np.array([[1.0, 1e19], [0.0, 2.0]]),
    ], ids=["ids-do-not-match-shape", "nan-count", "infinite-count", "count-beyond-int64"])
    def test_bad_counts_raise_before_any_file(self, counts, tmp_path):
        matrix = ts.MatchMatrix(["a", "b"], ["a", "b"], counts)
        with pytest.raises(ts.ConsistencyError):
            ts.render_heatmap(matrix, tmp_path / "heat.svg")
        with pytest.raises(ts.ConsistencyError):
            ts.write_matrix_csv(matrix, tmp_path / "matrix.csv")
        assert list(tmp_path.iterdir()) == []
