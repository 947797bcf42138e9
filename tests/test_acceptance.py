"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The M1 yearly criterion needs a long-CSV export of the 181 yearly training
series (see scripts/export_m1_yearly.R); it is skipped when the file is
absent.
"""

import json
import os
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import tsleakscan as ts
from tsleakscan.reasons import ReasonKind, scale_of

from conftest import brute_sliding, usage_style_collection

M1_PATH = Path(os.environ.get(
    "TSLEAKSCAN_M1_YEARLY",
    Path(__file__).resolve().parent.parent / "data" / "m1_yearly.csv",
))


@contextmanager
def verdict(number, detail):
    try:
        yield
    except BaseException as exc:
        kind = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"[acceptance] criterion {number}: {kind} - {detail}", flush=True)
        raise
    print(f"[acceptance] criterion {number}: PASS - {detail}", flush=True)


def test_criterion_1_synthetic_usage_reproduction():
    with verdict(1, "synthetic three-series scenario: 3 exact matches, 1 useful, <100ms"):
        c, x = usage_style_collection(seed=20240810)
        t0 = time.perf_counter()
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, c)
        elapsed = time.perf_counter() - t0
        found = [(m.query_id, m.donor_id, m.start, m.end) for m in report.matches]
        assert found == [("x", "z", 12, 16), ("y", "x", 1, 5), ("z", "x", 11, 15)]
        assert all(rm.kind is ReasonKind.EXACT_MATCH for rm in reasoned)
        useful = [rm for rm in reasoned if rm.useful]
        assert len(useful) == 1
        assert useful[0].base.query_id == "y"
        assert useful[0].predicted_test == list(x[5:10])  # x[6..10], exactly
        assert elapsed < 0.100, f"scan+explain took {elapsed * 1e3:.1f} ms"


@pytest.mark.skipif(not M1_PATH.exists(), reason=f"M1 yearly export not found at {M1_PATH}")
def test_criterion_2_m1_yearly_reproduction():
    with verdict(2, "M1 yearly: 7 matches, 3 useful, >=2 exact, >=1 affine, <5s"):
        c = ts.load_collection(M1_PATH, "long-csv")
        assert len(c) == 181
        t0 = time.perf_counter()
        report = ts.scan(c, ts.ScanConfig(h=6, cutoff=1.0, workers=1))
        reasoned = ts.reason_report(report, c)
        elapsed = time.perf_counter() - t0
        assert len(report.matches) == 7
        kinds, useful = ts.tally(reasoned)
        assert useful == 3
        assert kinds.get(ReasonKind.EXACT_MATCH, 0) >= 2
        affine = [rm for rm in reasoned
                  if rm.kind is ReasonKind.AFFINE_TRANSFORM and abs(rm.fit.m - 1.0) > 1e-8]
        assert len(affine) >= 1
        assert elapsed < 5.0, f"took {elapsed:.2f} s single-threaded"


def test_criterion_3_oracle_equivalence_on_200_collections():
    with verdict(3, "200 random collections: match sets equal, per-window |dr| <= 1e-9"):
        rng = np.random.default_rng(20240810)
        worst = 0.0
        checked_windows = 0
        for trial in range(200):
            h = int(rng.choice([3, 5, 8]))
            n = int(rng.integers(3, 11))
            data = {}
            for i in range(n):
                length = int(rng.integers(20, 121))
                scale = 10.0 ** rng.integers(-2, 4)
                data[f"s{i:02d}"] = rng.normal(loc=rng.uniform(-10, 10), scale=scale, size=length)
            names = list(data)
            if trial % 2 == 0:
                # plant an exact copy of one terminal segment inside another series
                src, dst = rng.choice(names, size=2, replace=False)
                at = int(rng.integers(0, len(data[dst]) - h + 1))
                data[dst][at:at + h] = data[src][-h:]
            c = ts.from_dict(data)
            cfg = ts.ScanConfig(h=h, cutoff=1.0)
            report = ts.scan(c, cfg)
            got = {(m.query_id, m.donor_id, m.start, m.end) for m in report.matches}

            expected = set()
            for qs in c:
                if len(qs.values) < h:
                    continue
                q = list(qs.values[-h:])
                if all(v == q[0] for v in q):
                    continue
                for ds in c:
                    if len(ds.values) < h:
                        continue
                    ref = brute_sliding(q, list(ds.values), h)
                    profile = ts.sliding_correlations(q, ds.values, h)
                    assert list(profile.offsets) == [o for o, r in ref.items() if r is not None]
                    for off, r in zip(profile.offsets, profile.r_values):
                        worst = max(worst, abs(float(r) - ref[int(off)]))
                        checked_windows += 1
                    for off, r in ref.items():
                        if r is None or abs(r) < cfg.threshold:
                            continue
                        end = off + h - 1
                        if ds.id == qs.id and end == len(ds.values):
                            continue
                        expected.add((qs.id, ds.id, off, end))
            assert got == expected
        assert worst <= 1e-9, f"max per-window deviation {worst:.3e}"
        assert checked_windows > 100_000


def _expected_kind(m, c, w):
    scale = scale_of(w)
    if abs(m - 1.0) <= 1e-8 and abs(c) <= 1e-8 * scale:
        return ReasonKind.EXACT_MATCH
    if abs(m - 1.0) <= 1e-8:
        return ReasonKind.ADD_CONSTANT
    if m < 0.0:
        return ReasonKind.NEGATIVE_AFFINE
    if abs(c) <= 1e-8 * scale:
        return ReasonKind.MULTIPLY_CONSTANT
    return ReasonKind.AFFINE_TRANSFORM


def test_criterion_4_affine_detection_and_classification():
    with verdict(4, "100/100 planted affine transforms detected and classified"):
        rng = np.random.default_rng(4242)
        passed = 0
        for trial in range(100):
            h = int(rng.choice([3, 5, 8]))
            base = rng.normal(loc=rng.uniform(-20, 20), scale=rng.uniform(0.5, 10),
                              size=int(rng.integers(h + 5, 60)))
            m = float(rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0]))
            c = float(rng.uniform(-10.0, 10.0))
            if trial % 4 == 1:
                m = 1.0
            elif trial % 4 == 2:
                c = 0.0
            elif trial % 4 == 3:
                m, c = 1.0, 0.0
            tail = m * base[-h:] + c
            donor = np.concatenate([rng.normal(size=10), tail])
            coll = ts.from_dict({"base": base, "planted": donor})
            report = ts.scan(coll, ts.ScanConfig(h=h, cutoff=1.0))
            planted_end = len(donor)
            hits = [mr for mr in report.matches
                    if (mr.query_id, mr.donor_id, mr.end) == ("base", "planted", planted_end)]
            assert len(hits) == 1, f"trial {trial}: planted match not reported"
            reasoned = ts.reason_report(report, coll)
            rm = next(r for r in reasoned if r.base == hits[0])
            assert rm.kind is _expected_kind(m, c, tail), (
                f"trial {trial}: m={m} c={c} -> {rm.kind}"
            )
            passed += 1
        assert passed == 100


def test_criterion_5_usefulness_arithmetic_and_prediction():
    with verdict(5, "usefulness is pure index arithmetic; forward transform within 1e-9"):
        rng = np.random.default_rng(555)
        total_matches = 0
        for trial in range(100):
            h = int(rng.choice([3, 5, 8]))
            horizon = int(rng.integers(1, 11))
            donor_len = int(rng.integers(h, h + 15))
            donor = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.5, 5), size=donor_len)
            start = int(rng.integers(0, donor_len - h + 1))
            m = float(rng.uniform(0.1, 4.0) * rng.choice([-1.0, 1.0]))
            c = float(rng.uniform(-8.0, 8.0))
            query = np.concatenate([rng.normal(size=6), m * donor[start:start + h] + c])
            coll = ts.from_dict({"q": query, "d": donor})
            report = ts.scan(coll, ts.ScanConfig(h=h, cutoff=1.0))
            reasoned = ts.reason_report(report, coll, ts.ReasonConfig(horizon=horizon))
            assert any(mr.query_id == "q" and mr.donor_id == "d" and mr.start == start + 1
                       for mr in report.matches)
            for rm in reasoned:
                donor_series = coll.get(rm.base.donor_id)
                assert rm.useful == (rm.base.end + horizon <= len(donor_series.values))
                if rm.useful:
                    continuation = donor_series.values[rm.base.end:rm.base.end + horizon]
                    forward = rm.fit.m * np.asarray(rm.predicted_test) + rm.fit.c
                    np.testing.assert_allclose(forward, continuation, rtol=1e-9, atol=1e-12)
                    total_matches += 1
        assert total_matches > 20


def test_criterion_6_parallel_byte_identical_reports(tmp_path):
    with verdict(6, "workers=1 vs workers=8: byte-identical JSON on 100 series"):
        rng = np.random.default_rng(66)
        data = {f"s{i:03d}": rng.normal(size=int(rng.integers(30, 80))) for i in range(100)}
        names = list(data)
        for _ in range(5):  # plant a few leaks so the report is non-trivial
            src, dst = rng.choice(names, size=2, replace=False)
            data[dst][-6:] = 2.0 * data[src][-6:] + 1.0
        c = ts.from_dict(data)
        paths = []
        for workers in (1, 8):
            report = ts.scan(c, ts.ScanConfig(h=6, cutoff=1.0, workers=workers))
            path = tmp_path / f"report_w{workers}.json"
            ts.write_report(report, path, "json")
            paths.append(path)
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        assert json.loads(a)["matches"], "expected planted leaks in the corpus"


def test_criterion_7_round_trips(tmp_path):
    with verdict(7, "collection/report/heatmap round-trips"):
        rng = np.random.default_rng(77)
        data = {}
        for i in range(8):
            scale = 10.0 ** rng.integers(-8, 9)
            data[f"s{i}"] = rng.normal(scale=scale, size=int(rng.integers(5, 40)))
        c = ts.from_dict(data)
        for fmt, name in (("long-csv", "c.csv"), ("json", "c.json")):
            path = tmp_path / name
            ts.write_collection(c, path, fmt)
            back = ts.load_collection(path, fmt)
            assert back.ids() == c.ids()
            for orig, rt in zip(c, back):
                np.testing.assert_allclose(rt.values, orig.values, rtol=1e-12, atol=0.0)

        usage, _ = usage_style_collection()
        report = ts.scan(usage, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, usage)
        rpath = tmp_path / "report.json"
        ts.write_report(report, rpath, "json", reasoned=reasoned, horizon=5)
        assert ts.read_report(rpath) == ts.report_payload(report, reasoned, horizon=5)

        matrix = ts.build_matrix(report, usage)
        spath = tmp_path / "heat.svg"
        ts.render_heatmap(matrix, spath)
        tree = ET.parse(spath)  # must be well-formed XML
        cells = [e for e in tree.iter() if e.get("class") == "cell"]
        assert len(cells) == len(matrix.row_ids) * len(matrix.col_ids)
