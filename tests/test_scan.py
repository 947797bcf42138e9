import importlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsleakscan as ts
from tsleakscan.collection import SPLIT_SKIP
from tsleakscan.scan import CUTOFF_TOLERANCE, MISSING_IN_QUERY, TOO_SHORT, ZERO_VARIANCE_QUERY

from conftest import brute_pearson, brute_scan, random_collection, reference_query_skip


class TestScanConfig:
    def test_h_minimum(self):
        with pytest.raises(ts.ConfigError):
            ts.ScanConfig(h=2)

    def test_cutoff_range(self):
        with pytest.raises(ts.ConfigError, match=r"cutoff must be in \(0,1\]"):
            ts.ScanConfig(h=5, cutoff=1.5)
        with pytest.raises(ts.ConfigError):
            ts.ScanConfig(h=5, cutoff=0.0)

    def test_tolerance_must_leave_positive_threshold(self):
        with pytest.raises(ts.ConfigError, match="cutoff must exceed CUTOFF_TOLERANCE"):
            ts.ScanConfig(h=5, cutoff=1e-12)

    def test_cutoff_must_be_a_real_number(self):
        for cutoff in (True, "1", None):
            with pytest.raises(ts.ConfigError, match="cutoff must be a real number"):
                ts.ScanConfig(h=5, cutoff=cutoff)
        assert ts.ScanConfig(h=5, cutoff=np.float64(0.9)).cutoff == 0.9

    @pytest.mark.parametrize("affinity, cpus, expected", [
        ({0}, 2, 1), ({0, 3, 5}, 8, 3), (None, 4, 4), (None, None, 1),
    ], ids=["one-cpu-of-two", "three-of-eight", "no-affinity-call", "cpu-count-unknown"])
    def test_auto_workers_count_the_usable_cpus(self, monkeypatch, affinity, cpus, expected):
        # taskset or a container's cpuset leaves the process fewer CPUs than the host has
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        assert ts.ScanConfig(h=5, workers="auto").resolved_workers() == expected

    def test_workers_validation(self):
        for workers in (0, True, 2.0, "2"):
            with pytest.raises(ts.ConfigError, match="workers must be a positive integer"):
                ts.ScanConfig(h=5, workers=workers)
        assert ts.ScanConfig(h=5, workers=np.int64(2)).resolved_workers() == 2
        assert ts.ScanConfig(h=5, workers="auto").resolved_workers() >= 1


class TestScan:
    def test_usage_scenario_exact_matches(self, usage_collection):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        found = [(m.query_id, m.donor_id, m.start, m.end) for m in report.matches]
        assert found == [("x", "z", 12, 16), ("y", "x", 1, 5), ("z", "x", 11, 15)]
        assert all(abs(m.r) >= 1 - 1e-10 for m in report.matches)
        assert report.skipped_queries == []

    def test_single_ramp_matches_everywhere_but_self_position(self):
        c = ts.from_dict({"a": np.arange(1.0, 11.0)})
        report = ts.scan(c, ts.ScanConfig(h=3, cutoff=1.0))
        starts = [m.start for m in report.matches]
        assert starts == [1, 2, 3, 4, 5, 6, 7]  # self-position 8 removed
        assert all(m.query_id == m.donor_id == "a" for m in report.matches)

    def test_no_shared_segments_no_matches(self):
        # pair verified leak-free by the brute-force oracle
        c = ts.from_dict({"a": [4.0, 5.0, 2.0, 7.0, 8.0], "b": [3.0, 2.0, 2.0, 1.0, 7.0]})
        report = ts.scan(c, ts.ScanConfig(h=3, cutoff=1.0))
        assert report.matches == []

    def test_empty_collection_rejected(self):
        with pytest.raises(ts.ContractViolation, match="empty collection"):
            ts.scan(ts.SeriesCollection([]), ts.ScanConfig(h=3))

    def test_skip_reasons(self):
        c = ts.from_dict({"short": [1.0, 2.0], "flat": [3.0, 3.0, 3.0, 3.0],
                          "ok": [1.0, 4.0, 2.0, 8.0]})
        report = ts.scan(c, ts.ScanConfig(h=3, cutoff=0.9))
        assert ("short", TOO_SHORT) in report.skipped_queries
        assert ("flat", ZERO_VARIANCE_QUERY) in report.skipped_queries

    def test_missing_in_query_skipped(self):
        c = ts.SeriesCollection([
            ts.Series("gap", np.array([1.0, 2.0, 0.0, 4.0, 3.0]), missing=(2,)),
            ts.Series("ok", np.array([5.0, 1.0, 4.0, 2.0, 9.0])),
        ])
        report = ts.scan(c, ts.ScanConfig(h=4, cutoff=0.5))
        assert ("gap", MISSING_IN_QUERY) in report.skipped_queries

    def test_negative_correlation_counts(self):
        base = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
        c = ts.from_dict({"a": base, "b": np.concatenate([[7.0, 3.0, 9.0], -base[-3:] + 10])})
        report = ts.scan(c, ts.ScanConfig(h=3, cutoff=1.0))
        hit = [m for m in report.matches if m.query_id == "a" and m.donor_id == "b"]
        assert len(hit) == 1
        assert hit[0].r == pytest.approx(-1.0, abs=1e-10)

    def test_self_position_candidate_always_perfect(self):
        rng = np.random.default_rng(3)
        c = random_collection(rng, n_series=5, length_range=(20, 40))
        cfg = ts.ScanConfig(h=5, cutoff=1.0)
        for s in c:
            query = s.values[-5:]
            r = ts.pearson(query, s.values[len(s) - 5:])
            assert r == pytest.approx(1.0, abs=1e-9)
        report = ts.scan(c, cfg)
        terminal = [(m.query_id, m.donor_id, m.end) for m in report.matches
                    if m.query_id == m.donor_id and m.end == len(c.get(m.query_id).values)]
        assert terminal == []


class TestPrefilter:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cutoff_ulps_around_a_planted_r(self, sign):
        # a noisy copy has an r short of 1; cutoffs a few ulps either side
        # of r + CUTOFF_TOLERANCE put the threshold just above and below it
        rng = np.random.default_rng(314)
        h = 8
        query = rng.normal(size=40)
        donor = rng.normal(size=60)
        donor[20:28] = sign * (query[-h:] + 0.15 * rng.normal(size=h)) + 3.0
        c = ts.from_dict({"q": query, "d": donor})
        r = ts.sliding_correlations(query[-h:], donor, h).r_values[20]
        assert 0.9 < abs(r) < 1.0
        cutoff = abs(r) + CUTOFF_TOLERANCE
        cutoffs = [cutoff]
        for _ in range(4):
            cutoffs = [np.nextafter(cutoffs[0], 0.0), *cutoffs, np.nextafter(cutoffs[-1], 2.0)]
        found = []
        for cutoff in cutoffs:
            cfg = ts.ScanConfig(h=h, cutoff=float(cutoff))
            hits = [m.r for m in ts.scan(c, cfg).matches if (m.query_id, m.donor_id, m.start) == ("q", "d", 21)]
            assert hits == ([r] if abs(r) >= cfg.threshold else [])
            found.append(bool(hits))
        assert found[0] and not found[-1]

    def test_one_module_global_sweep_per_group(self, monkeypatch):
        # the benchmark's tracer wraps tsleakscan.scan.sliding_correlations and
        # reads three positional arguments, the threshold keyword and the
        # profile's offsets and skips; each sweep is one group (chunk) of at
        # most step consecutive windows of the layout, so its target holds at
        # most step + h - 1 values, however long a series
        scan_module = importlib.import_module("tsleakscan.scan")
        sweep = scan_module.sliding_correlations
        calls = []

        def spy(*args, **kwargs):
            profile = sweep(*args, **kwargs)
            calls.append((len(args), kwargs["threshold"], len(args[1]), len(profile.offsets),
                          len(profile.skipped)))
            return profile

        monkeypatch.setattr(scan_module, "sliding_correlations", spy)
        rng = np.random.default_rng(5)
        c = ts.from_dict({"a": rng.normal(size=30), "short": [1.0, 2.0], "b": rng.normal(size=25),
                          "flat": [4.0] * 12})
        cfg = ts.ScanConfig(h=5, cutoff=0.9)
        ts.scan(c, cfg)
        # every series end to end, a separator after each; the separators rule
        # out the windows over them, 27-34 (around short), 56-60 and 69, and
        # flat's 8 windows are constant
        values = 30 + 1 + 2 + 1 + 25 + 1 + 12 + 1
        [call] = calls
        assert call[:3] == (3, cfg.threshold, values)
        assert call[4] == 8 + 5 + 8 + 1
        for step in (1, 7):  # a, of 26 windows, spans several groups
            calls.clear()
            monkeypatch.setattr(scan_module, "GROUP_WINDOWS", step)
            ts.scan(c, cfg)
            assert all(call[:2] == (3, cfg.threshold) for call in calls)
            assert max(call[2] for call in calls) == step + cfg.h - 1
            # the groups cover every window once
            assert sum(call[2] - cfg.h + 1 for call in calls) == values - cfg.h + 1
            assert sum(call[4] for call in calls) == 8 + 5 + 8 + 1


class TestDonorGroups:
    """The layout's windows are swept in groups (chunks) of consecutive
    starts; the matches must not depend on where the groups start, to the
    last bit of each r."""

    @staticmethod
    def collection():
        rng = np.random.default_rng(41)
        values = [np.cumsum(rng.normal(size=int(rng.integers(3, 70)))) for _ in range(40)]
        missing = [()] * 40
        values[3][:] = 4.0  # a constant series
        values[5] = np.cumsum(rng.normal(size=60))
        values[5][10:30] = 2.5  # a constant run inside a donor
        for i, gap in ((7, (20, 21)), (8, (57,))):  # a gap inside a donor, and one in a query's tail
            values[i] = np.cumsum(rng.normal(size=60))
            values[i][list(gap)] = 0.0
            missing[i] = gap
        # planted copies, exact and affine, into another donor and into itself
        values[9] = np.cumsum(rng.normal(size=50))
        values[10] = np.cumsum(rng.normal(size=30))
        values[9][10:16] = values[10][-6:]
        values[9][30:36] = -2.0 * values[9][-6:] + 1.0
        return ts.SeriesCollection([ts.Series(f"s{i:02d}", v, m) for i, (v, m) in enumerate(zip(values, missing))])

    @staticmethod
    def columns(report):
        t = report.matches
        return (t.ids, t.qi.tolist(), t.di.tolist(), t.start.tolist(), t.end.tolist(), t.r.tobytes(),
                report.skipped_queries)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cutoff", [1.0, 0.9])
    def test_columns_equal_one_donor_a_group(self, monkeypatch, workers, cutoff):
        # groups of 1, 5 and 19 windows start inside both planted copies of
        # s09, so their windows are split across groups; 100 windows span a
        # few donors
        c = self.collection()
        assert min(len(s) for s in c) < 6
        cfg = ts.ScanConfig(h=6, cutoff=cutoff, workers=workers)
        scan_module = importlib.import_module("tsleakscan.scan")
        grouped = self.columns(ts.scan(c, cfg))
        assert len(grouped[1]) >= 2 and ("s08", MISSING_IN_QUERY) in grouped[-1]
        plants = c._layout()[1][9] + np.array([10, 30])  # where s09's copies start in the layout
        for windows in (1, 5, 19, 100):
            assert windows == 100 or all((p + cfg.h - 1) // windows > p // windows for p in plants)
            monkeypatch.setattr(scan_module, "GROUP_WINDOWS", windows)
            assert self.columns(ts.scan(c, cfg)) == grouped

    def test_traced_peak_of_many_short_series_at_cutoff_one(self):
        # every query keeps its own terminal window, so a sweep of every donor
        # at once would return a (queries x queries) block of r, 18 MiB here
        rng = np.random.default_rng(43)
        c = ts.from_dict({f"s{i:04d}": np.cumsum(rng.normal(size=int(rng.integers(20, 40))))
                          for i in range(1500)})
        tracemalloc.start()
        try:
            report = ts.scan(c, ts.ScanConfig(h=6, cutoff=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.matches) == 0
        assert peak < 4 * 2**20

    def test_traced_peak_of_one_long_series(self):
        # the prefilter keeps thousands of a long random walk's windows at
        # cutoff 0.99, each with a row of r against all 501 queries; a sweep of
        # the whole series at once would hold about 60 MiB, a group of
        # GROUP_VALUES // 501 windows at most 8 MiB
        rng = np.random.default_rng(0)
        data = {f"s{i:03d}": np.cumsum(rng.normal(size=40)) for i in range(500)}
        data["long"] = np.cumsum(rng.normal(size=20_000))
        c = ts.from_dict(data)
        tracemalloc.start()
        try:
            report = ts.scan(c, ts.ScanConfig(h=6, cutoff=0.99))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.matches) > 10_000
        assert peak < 20 * 2**20


@st.composite
def skip_cases(draw):
    """(collection, h), h from 3 to 8: series of 1, h - 1, h, h + 1 and up to
    2h + 2 values, or, in some collections, none as long as h; small integer
    values, so that equal neighbours are common, and a constant tail of any
    length; missing values at a series' first and last positions and
    between."""
    h = draw(st.integers(3, 8))
    none_long = draw(st.integers(0, 3)) == 0
    lengths = (st.integers(1, h - 1) if none_long else
               st.sampled_from([1, h - 1, h, h + 1]) | st.integers(1, 2 * h + 2))
    series = []
    for i in range(draw(st.integers(1, 6))):
        n = draw(lengths)
        values = draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n))
        tail = draw(st.integers(0, n))
        values[n - tail:] = [values[-1]] * tail
        missing = draw(st.sets(st.sampled_from([0, n - 1]))) | draw(st.sets(st.integers(0, n - 1), max_size=2))
        for p in missing:
            values[p] = 0.0
        series.append(ts.Series(f"s{i}", np.array(values), tuple(missing)))
    return ts.SeriesCollection(series), h


def _one_series_case(values, missing, h):
    return ts.SeriesCollection([ts.Series("a", np.array(values), missing)]), h


class TestQuerySkips:
    @given(skip_cases())
    @example(_one_series_case([5.0], (), 3))  # the layout holds no window of h values
    @example(_one_series_case([0.0, 4.0, 1.0], (0,), 3))  # a gap at the query's first value
    @example(_one_series_case([1.0, 4.0, 2.0, 2.0, 0.0], (4,), 3))  # and at its last, after equal values
    @example(_one_series_case([3.0, 1.0, 1.0, 1.0], (), 3))
    @settings(max_examples=300, deadline=None)
    def test_skipped_queries_equal_the_oracle(self, case):
        c, h = case
        report = ts.scan(c, ts.ScanConfig(h=h, cutoff=0.9))
        assert report.skipped_queries == [(s.id, reason) for s in c if (reason := reference_query_skip(s, h))]


class TestAgainstBruteForce:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_match_set_equals_double_loop(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        h = data.draw(st.sampled_from([3, 5]))
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        series = {}
        for i in range(n):
            series[f"s{i}"] = rng.normal(size=int(rng.integers(h, 30)))
        # plant one copy to guarantee hits
        donor, src = f"s{n - 1}", "s0"
        if len(series[donor]) >= h and len(series[src]) >= h:
            series[donor][-h:] = series[src][-h:]
        c = ts.from_dict(series)
        cutoff = data.draw(st.sampled_from([1.0, 0.95, 0.8]))
        cfg = ts.ScanConfig(h=h, cutoff=cutoff)
        report = ts.scan(c, cfg)
        got = {(m.query_id, m.donor_id, m.start, m.end) for m in report.matches}
        expected, _ = brute_scan([(s.id, list(s.values)) for s in c], h, cfg.threshold)
        assert got == expected

    def test_soundness_recheck_with_stdlib(self):
        rng = np.random.default_rng(77)
        c = random_collection(rng, n_series=6, length_range=(20, 50))
        values = {s.id: s.values for s in c}
        values["s001"][-5:]  # noqa: B018 - sanity only
        cfg = ts.ScanConfig(h=5, cutoff=0.9)
        report = ts.scan(c, cfg)
        for m in report.matches:
            q = values[m.query_id][-5:]
            w = values[m.donor_id][m.start - 1:m.end]
            assert abs(brute_pearson(list(q), list(w))) >= cfg.cutoff - 1e-9

    def test_periodic_runs_in_order_and_collapsed(self):
        # sines sampled a few points per period: neighbouring offsets clear
        # 0.95 together, so the matches come in runs of consecutive offsets
        rng = np.random.default_rng(8)
        data = {}
        for i, (length, period) in enumerate([(40, 12), (55, 12), (33, 12), (47, 9), (60, 9)]):
            t = np.arange(length) + rng.integers(period)
            data[f"p{i}"] = rng.uniform(1, 5) * np.sin(2 * np.pi * t / period) + rng.uniform(-10, 10)
        data["noise"] = rng.normal(size=50)
        c = ts.from_dict(data)
        cfg = ts.ScanConfig(h=5, cutoff=0.95)
        report = ts.scan(c, cfg)
        keys, r_by_key = brute_scan([(s.id, list(s.values)) for s in c], 5, cfg.threshold)
        position = {sid: i for i, sid in enumerate(c.ids())}
        expected = [ts.MatchRecord(*key, r_by_key[key]) for key in
                    sorted(keys, key=lambda k: (position[k[0]], position[k[1]], k[2]))]

        def spans(matches):
            return [(m.query_id, m.donor_id, m.start, m.end) for m in matches]

        assert spans(report.matches) == spans(expected)
        collapsed, expected_collapsed = ts.collapse_overlaps(report.matches), ts.collapse_overlaps(expected)
        assert spans(collapsed) == spans(expected_collapsed)
        assert len(collapsed) < len(report.matches)
        assert max(abs(a.r - b.r) for a, b in zip(collapsed, expected_collapsed)) <= 1e-9

    def test_monotonicity_in_cutoff(self):
        rng = np.random.default_rng(11)
        c = random_collection(rng, n_series=5, length_range=(15, 35))
        keys = {}
        for cutoff in (1.0, 0.95, 0.7, 0.4):
            report = ts.scan(c, ts.ScanConfig(h=4, cutoff=cutoff))
            keys[cutoff] = {(m.query_id, m.donor_id, m.start) for m in report.matches}
        assert keys[1.0] <= keys[0.95] <= keys[0.7] <= keys[0.4]


class TestParallel:
    def _payload(self, c, workers):
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=0.95, workers=workers))
        return json.dumps(ts.report_payload(report))

    def test_worker_counts_agree(self):
        rng = np.random.default_rng(21)
        series = {f"s{i:02d}": rng.normal(size=int(rng.integers(20, 60))) for i in range(12)}
        series["s11"][-5:] = series["s00"][-5:]
        c = ts.from_dict(series)
        assert self._payload(c, 1) == self._payload(c, 2)

    def test_auto_workers_on_usage_collection(self, usage_collection):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0, workers="auto"))
        assert len(report.matches) == 3

    def test_split_skip_collection_through_pool(self):
        c = ts.SeriesCollection([
            ts.Series("gap", np.array([1.0, 0.0, 3.0, 4.0, 2.0, 6.0]), missing=(1,)),
            ts.Series("full", np.array([4.0, 1.0, 3.0, 4.0, 2.0, 6.0])),
        ])
        one = ts.scan(c, ts.ScanConfig(h=3, cutoff=0.99, workers=1))
        two = ts.scan(c, ts.ScanConfig(h=3, cutoff=0.99, workers=2))
        assert one.matches == two.matches
        assert one.skipped_queries == two.skipped_queries

    def test_more_workers_than_scannable_queries(self):
        c = ts.from_dict({"short": [1.0, 2.0], "flat": [3.0, 3.0, 3.0, 3.0],
                          "ok": [1.0, 4.0, 2.0, 8.0, 1.0, 4.0, 2.0]})
        one = ts.scan(c, ts.ScanConfig(h=3, cutoff=0.99, workers=1))
        four = ts.scan(c, ts.ScanConfig(h=3, cutoff=0.99, workers=4))
        assert [(m.donor_id, m.start) for m in four.matches] == [("ok", 1)]
        assert four.matches == one.matches
        assert four.skipped_queries == one.skipped_queries == [
            ("short", TOO_SHORT), ("flat", ZERO_VARIANCE_QUERY)]

    def test_one_scannable_query_starts_no_pool(self):
        # the skips are found before the sweep, so one scannable query makes
        # one block, which is scanned in the calling process
        code = ("import sys, tsleakscan as ts; "
                "c = ts.from_dict({'short': [1.0, 2.0], 'flat': [3.0, 3.0, 3.0, 3.0], "
                "'ok': [1.0, 4.0, 2.0, 8.0, 1.0, 4.0, 2.0]}); "
                "report = ts.scan(c, ts.ScanConfig(h=3, cutoff=0.99, workers=4)); "
                "print(len(report.matches), len(report.skipped_queries), "
                "'concurrent.futures.process' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "2", "False"]

    def test_skip_reason_found_once_per_series(self, monkeypatch):
        # the skips are read from the layout in the calling process, which lays
        # the collection out once for the scan and its explanation; the pool's
        # tasks carry the layout's arrays, never a Series
        layouts = []
        layout_of = ts.SeriesCollection._layout
        monkeypatch.setattr(ts.SeriesCollection, "_layout",
                            lambda self: layouts.append(layout_of(self)) or layouts[-1])

        def refuse(series):
            raise AssertionError(f"series {series.id!r} pickled for a worker")

        monkeypatch.setattr(ts.Series, "__reduce__", refuse)
        c = ts.from_dict({"short": [1.0, 2.0], "a": [1.0, 4.0, 2.0, 8.0], "b": [2.0, 7.0, 1.0, 5.0]})
        report = ts.scan(c, ts.ScanConfig(h=3, cutoff=0.5, workers=2))
        reasoned = ts.reason_report(report, c)
        assert report.skipped_queries == [("short", TOO_SHORT)]
        assert len(reasoned) == len(report.matches) > 0
        assert len(layouts) >= 2 and all(layout is layouts[0] for layout in layouts)

    def test_every_query_skipped_through_pool(self):
        c = ts.from_dict({"short": [1.0, 2.0], "flat": [3.0, 3.0, 3.0, 3.0],
                          "flat2": [5.0, 1.0, 2.0, 2.0, 2.0]})
        report = ts.scan(c, ts.ScanConfig(h=3, cutoff=0.5, workers=2))
        assert report.matches == []
        assert report.skipped_queries == [
            ("short", TOO_SHORT), ("flat", ZERO_VARIANCE_QUERY), ("flat2", ZERO_VARIANCE_QUERY)]
