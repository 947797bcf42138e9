import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsleakscan as ts
from tsleakscan.collection import MAX_LENGTH
from tsleakscan.reasons import ReasonKind, scale_of
from tsleakscan.scan import MatchRecord

from conftest import block_fit_collection, fit_oracle, reason_oracle


class TestFitAffine:
    def test_constructed_affine_image(self):
        fit = ts.fit_affine([1, 2, 3], [3, 5, 7])
        assert (fit.m, fit.c, fit.max_residual) == (2.0, 1.0, 0.0)

    def test_identity(self):
        fit = ts.fit_affine([1, 2, 3], [1, 2, 3])
        assert (fit.m, fit.c, fit.max_residual) == (1.0, 0.0, 0.0)

    def test_negative_slope_closed_form(self):
        # w = -q + 5.5 exactly
        fit = ts.fit_affine([1, 2, 3, 4], [4.5, 3.5, 2.5, 1.5])
        assert fit.m == pytest.approx(-1.0, abs=1e-12)
        assert fit.c == pytest.approx(5.5, abs=1e-12)
        assert fit.max_residual <= 1e-12

    def test_least_squares_optimality(self):
        # perturbing (m, c) never lowers the sum of squared residuals
        rng = np.random.default_rng(31)
        q = rng.normal(size=12)
        w = 1.7 * q - 0.4 + rng.normal(scale=0.1, size=12)
        fit = ts.fit_affine(q, w)
        best = np.sum((w - (fit.m * q + fit.c)) ** 2)
        for dm in (-1e-3, 1e-3):
            for dc in (-1e-3, 1e-3):
                assert np.sum((w - ((fit.m + dm) * q + fit.c + dc)) ** 2) >= best

    def test_zero_variance_query_rejected(self):
        with pytest.raises(ts.ContractViolation):
            ts.fit_affine([2, 2, 2], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ts.ContractViolation, match="length mismatch: 3 vs 4"):
            ts.fit_affine([1, 2, 4], [1, 2, 3, 5])

    def test_residual_tiny_when_r_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = rng.normal(loc=rng.uniform(-100, 100), scale=rng.uniform(0.5, 20), size=6)
            m = rng.uniform(0.1, 5) * rng.choice([-1, 1])
            c = rng.uniform(-10, 10)
            w = m * q + c
            r = ts.pearson(q, w)
            assert abs(r) >= 1 - 1e-9
            fit = ts.fit_affine(q, w)
            assert fit.max_residual <= 1e-8 * scale_of(w)


class TestClassify:
    def kind_of(self, m, c, residual=0.0, scale=1.0):
        return ts.classify(ts.AffineFit(m, c, residual), window_scale=scale)

    def test_exact(self):
        assert self.kind_of(1.0, 0.0) is ReasonKind.EXACT_MATCH

    def test_add_constant(self):
        assert self.kind_of(1.0, 4.2) is ReasonKind.ADD_CONSTANT

    def test_multiply_constant(self):
        assert self.kind_of(2.5, 0.0) is ReasonKind.MULTIPLY_CONSTANT

    def test_general_affine(self):
        assert self.kind_of(2.0, 1.0) is ReasonKind.AFFINE_TRANSFORM

    def test_negative_slope(self):
        assert self.kind_of(-1.0, 0.0) is ReasonKind.NEGATIVE_AFFINE
        assert self.kind_of(-2.0, 3.0) is ReasonKind.NEGATIVE_AFFINE

    def test_high_correlation_only(self):
        assert self.kind_of(1.0, 0.0, residual=0.5) is ReasonKind.HIGH_CORRELATION_ONLY

    def test_residual_tolerance_scales_with_window(self):
        assert self.kind_of(1.0, 0.0, residual=5e-5, scale=1e4) is ReasonKind.EXACT_MATCH

    @given(
        st.floats(min_value=-5, max_value=5).filter(lambda m: abs(m) >= 0.1),
        st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=200)
    def test_partition_exactly_one_kind(self, m, c):
        kind = self.kind_of(m, c)
        assert isinstance(kind, ReasonKind)
        expected = set()
        if abs(m - 1) <= 1e-8 and abs(c) <= 1e-8:
            expected = {ReasonKind.EXACT_MATCH}
        elif abs(m - 1) <= 1e-8:
            expected = {ReasonKind.ADD_CONSTANT}
        elif m < 0:
            expected = {ReasonKind.NEGATIVE_AFFINE}
        elif abs(c) <= 1e-8:
            expected = {ReasonKind.MULTIPLY_CONSTANT}
        else:
            expected = {ReasonKind.AFFINE_TRANSFORM}
        assert {kind} == expected


class TestUsefulness:
    def test_usage_y_to_x_is_useful(self, usage_collection):
        c, x = usage_collection
        cfg = ts.ReasonConfig(horizon=5)
        match = MatchRecord("y", "x", 1, 5, 1.0)
        useful, predicted = ts.assess_usefulness(match, c, cfg)
        assert useful is True
        assert predicted == list(x[5:10])  # donor observations 6..10, verbatim

    def test_usage_z_to_x_not_useful(self, usage_collection):
        c, _ = usage_collection
        match = MatchRecord("z", "x", 11, 15, 1.0)
        useful, predicted = ts.assess_usefulness(match, c, ts.ReasonConfig(horizon=5))
        assert useful is False
        assert predicted is None

    def test_inverse_affine_prediction(self):
        # window = 2q + 1, donor continues [11, 13, 15] -> predicted (v-1)/2
        c = ts.from_dict({
            "a": [9.0, 9.5, 1.0, 2.0, 3.0, 4.0, 5.0],
            "b": [3.0, 5.0, 7.0, 9.0, 11.0, 11.0, 13.0, 15.0],
        })
        match = MatchRecord("a", "b", 1, 5, 1.0)
        cfg = ts.ReasonConfig(horizon=3)
        useful, predicted = ts.assess_usefulness(match, c, cfg)
        assert useful is True
        assert predicted == pytest.approx([5.0, 6.0, 7.0])

    def test_gap_positions_found_once(self, monkeypatch):
        # each call checks its match against the gaps of the whole layout;
        # their positions (two separators and b's missing value) are found on
        # the first call only, read-only
        c = ts.SeriesCollection([ts.Series("a", np.array([9.0, 9.5, 1.0, 2.0, 3.0, 4.0, 5.0])),
                                 ts.Series("b", np.arange(3.0, 19.0, 2.0), missing=(5,))])
        gaps = c._layout()[3]
        flatnonzero, calls = np.flatnonzero, []
        monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(a is gaps) or flatnonzero(a))
        cfg = ts.ReasonConfig(horizon=3)
        results = [ts.assess_usefulness(MatchRecord("a", "b", 1, 5, 1.0), c, cfg) for _ in range(2)]
        assert calls.count(True) == 1
        assert results == [(True, [None, 7.0, 8.0])] * 2  # b's 13 is missing
        assert c._gap_positions().tolist() == [7, 13, 16] and not c._gap_positions().flags.writeable

    def test_unknown_series_is_consistency_error(self, usage_collection):
        c, _ = usage_collection
        with pytest.raises(ts.ConsistencyError):
            ts.assess_usefulness(MatchRecord("nope", "x", 1, 5, 1.0), c, ts.ReasonConfig(horizon=5))

    def test_unresolved_horizon_is_config_error(self, usage_collection):
        c, _ = usage_collection
        with pytest.raises(ts.ConfigError):
            ts.assess_usefulness(MatchRecord("y", "x", 1, 5, 1.0), c, ts.ReasonConfig())

    def test_horizon_validation(self):
        for horizon in (0, 2.5, True, "3"):
            with pytest.raises(ts.ConfigError, match="horizon must be >= 1"):
                ts.ReasonConfig(horizon=horizon)
        assert ts.ReasonConfig(horizon=np.int64(3)).horizon == 3
        # no float64 series is longer, and end + horizon must not wrap
        assert ts.ReasonConfig(horizon=MAX_LENGTH).horizon == MAX_LENGTH
        for horizon in (MAX_LENGTH + 1, np.int64(2**62), 2**63 - 1):
            with pytest.raises(ts.ConfigError, match=f"horizon must be at most {MAX_LENGTH}"):
                ts.ReasonConfig(horizon=horizon)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_index_arithmetic_only(self, tail, horizon):
        rng = np.random.default_rng(tail * 11 + horizon)
        donor_len = 20 + tail
        donor = rng.normal(size=donor_len)
        query = np.concatenate([rng.normal(size=7), donor[10:15]])
        c = ts.from_dict({"q": query, "d": donor})
        match = MatchRecord("q", "d", 11, 15, 1.0)
        useful, predicted = ts.assess_usefulness(match, c, ts.ReasonConfig(horizon=horizon))
        assert useful == (15 + horizon <= donor_len)
        assert (predicted is not None) == useful


class TestReasonReport:
    def test_usage_report(self, usage_collection):
        c, x = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, c)
        assert len(reasoned) == 3
        assert all(rm.kind is ReasonKind.EXACT_MATCH for rm in reasoned)
        useful = [rm for rm in reasoned if rm.useful]
        assert len(useful) == 1
        assert useful[0].base.query_id == "y"
        assert useful[0].predicted_test == list(x[5:10])
        kinds, n_useful = ts.tally(reasoned)
        assert kinds == {ReasonKind.EXACT_MATCH: 3}
        assert n_useful == 1

    def test_tally_counts_each_kind(self):
        c = block_fit_collection(6, 1.0, seed=6)
        reasoned = ts.reason_report(ts.scan(c, ts.ScanConfig(h=6, cutoff=0.9)), c)
        counts = {}
        for rm in reasoned:
            counts[rm.kind] = counts.get(rm.kind, 0) + 1
        assert len(counts) > 2
        assert ts.tally(reasoned) == (counts, len([rm for rm in reasoned if rm.useful]))
        assert ts.tally([]) == ({}, 0)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_usage_report_at_extreme_scales(self, usage_collection, scale):
        c, x = usage_collection
        c = ts.from_dict({s.id: s.values * scale for s in c})
        reasoned = ts.reason_report(ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0)), c)
        assert [(rm.kind, rm.fit) for rm in reasoned] == [(ReasonKind.EXACT_MATCH, ts.AffineFit(1.0, 0.0, 0.0))] * 3
        assert [rm.predicted_test for rm in reasoned if rm.useful] == [list(x[5:10] * scale)]

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_add_constant_at_extreme_scales(self, scale):
        # the intercept tolerance is relative to the window, at any scale
        rng = np.random.default_rng(21)
        q = rng.normal(size=12) * scale
        donor = np.concatenate([rng.normal(size=4), q[-5:] / scale + 3.0, rng.normal(size=3)]) * scale
        c = ts.from_dict({"q": q, "d": donor})
        reasoned = [rm for rm in ts.reason_report(ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0)), c)
                    if (rm.base.query_id, rm.base.donor_id) == ("q", "d")]
        assert [(rm.base.start, rm.kind) for rm in reasoned] == [(5, ReasonKind.ADD_CONSTANT)]
        assert reasoned[0].fit.c == pytest.approx(3.0 * scale, rel=1e-9)

    def test_order_preserved(self, usage_collection):
        c, _ = usage_collection
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = ts.reason_report(report, c)
        assert [rm.base for rm in reasoned] == report.matches

    def test_empty_report(self, usage_collection):
        c, _ = usage_collection
        empty = ts.LeakReport(ts.ScanConfig(h=5), [])
        assert ts.reason_report(empty, c) == []

    def test_unknown_id_rejected(self, usage_collection):
        c, _ = usage_collection
        bad = ts.LeakReport(ts.ScanConfig(h=5), [MatchRecord("ghost", "x", 1, 5, 1.0)])
        with pytest.raises(ts.ConsistencyError):
            ts.reason_report(bad, c)

    def test_out_of_range_match_rejected(self, usage_collection):
        c, _ = usage_collection
        bad = ts.LeakReport(ts.ScanConfig(h=5), [MatchRecord("y", "x", 14, 18, 1.0)])
        with pytest.raises(ts.ConsistencyError):
            ts.reason_report(bad, c)

    def test_negative_affine_kind_and_prediction(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=12)
        donor = np.concatenate([rng.normal(size=4), -3.0 * base[-5:] + 2.0, rng.normal(size=5)])
        c = ts.from_dict({"q": base, "d": donor})
        report = ts.scan(c, ts.ScanConfig(h=5, cutoff=1.0))
        reasoned = [rm for rm in ts.reason_report(report, c)
                    if rm.base.query_id == "q" and rm.base.donor_id == "d"]
        assert len(reasoned) == 1
        rm = reasoned[0]
        assert rm.kind is ReasonKind.NEGATIVE_AFFINE
        assert rm.base.r == pytest.approx(-1.0, abs=1e-10)
        assert rm.useful is True
        # forward transform of the prediction reproduces the donor continuation
        continuation = donor[rm.base.end:rm.base.end + 5]
        forward = rm.fit.m * np.array(rm.predicted_test) + rm.fit.c
        assert forward == pytest.approx(continuation, rel=1e-9)


class TestReasonMemory:
    # the fits read the collection's layout once: 8 B per value of flat and 1 B
    # of gaps; a running count of the gaps at every position would add 8 B more
    BUDGET = 12  # traced bytes per value

    def test_traced_peak_per_value(self):
        rng = np.random.default_rng(61)
        values = [np.cumsum(rng.normal(size=2000)) for _ in range(20)]
        missing = [(100 * i + 7, 100 * i + 8) if i % 5 == 0 else () for i in range(20)]
        for i in range(1, 20, 4):  # an affine image of the previous series' tail
            values[i][600:612] = 3.0 * values[i - 1][-12:] - 1.0
        for v, gaps in zip(values, missing):
            v[list(gaps)] = 0.0
        c = ts.SeriesCollection([ts.Series(f"s{i:02d}", v, gaps)
                                 for i, (v, gaps) in enumerate(zip(values, missing))])
        report = ts.scan(c, ts.ScanConfig(h=12))
        tracemalloc.start()
        try:
            reasoned = ts.reason_report(report, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(rm.base.donor_id, rm.base.start, rm.kind) for rm in reasoned] == [
            (f"s{i:02d}", 601, ReasonKind.AFFINE_TRANSFORM) for i in range(1, 20, 4)]
        assert peak / sum(len(s) for s in c) < self.BUDGET

    def test_traced_peak_of_a_horizon_past_every_donor(self):
        # no match is useful, so no continuation of horizon values is indexed
        c = ts.from_dict({"a": [1.0, 5.0, 2.0, 8.0, 3.0], "b": [7.0, 2.0, 8.0, 3.0, 1.0, 6.0]})
        report = ts.scan(c, ts.ScanConfig(h=3))
        ts.reason_report(report, c)  # reasons is imported before tracing
        tracemalloc.start()
        try:
            reasoned = ts.reason_report(report, c, ts.ReasonConfig(horizon=10**7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(rm.base.donor_id, rm.base.start, rm.useful) for rm in reasoned] == [("b", 2, False)]
        assert peak < 2**20


class TestForwardConsistency:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_planted_transform_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.choice([3, 5, 8]))
        q = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.5, 10), size=h)
        if np.all(q == q[0]):
            return
        m = rng.uniform(0.1, 5) * rng.choice([-1, 1])
        c = rng.uniform(-10, 10)
        w = m * q + c
        fit = ts.fit_affine(q, w)
        assert fit.max_residual <= 1e-8 * scale_of(w)
        assert fit.m * q + fit.c == pytest.approx(w, abs=1e-8 * scale_of(w))
        # exact-match kind implies element-wise equality
        identity = ts.fit_affine(q, q.copy())
        kind = ts.classify(identity, window_scale=scale_of(q))
        assert kind is ReasonKind.EXACT_MATCH


class TestBlockFit:
    @pytest.mark.parametrize("h", [6, 24])
    @pytest.mark.parametrize("scale", [1e-200, 1e-5, 1.0, 1e5, 1e200])
    def test_equals_per_match_oracle(self, h, scale):
        c = block_fit_collection(h, scale, seed=h)
        scanned = ts.scan(c, ts.ScanConfig(h=h, cutoff=0.9)).matches
        collapsed = [m for m in ts.collapse_overlaps(scanned) if m.end - m.start + 1 > h]
        rng = np.random.default_rng(h)
        matches = [(scanned + collapsed)[i] for i in rng.permutation(len(scanned) + len(collapsed))]
        reasoned = ts.reason_report(ts.LeakReport(ts.ScanConfig(h=h, cutoff=0.9), matches), c)
        assert [rm.base for rm in reasoned] == matches
        cfg = ts.ReasonConfig(horizon=h)
        for rm in reasoned:
            expected = reason_oracle(rm.base, c, cfg)
            assert (rm.fit, rm.kind, rm.useful, rm.predicted_test) == expected
            assert ts.assess_usefulness(rm.base, c, cfg) == expected[2:]
        # the cases the block path must hold on are all present
        assert collapsed
        assert [m.query_id for m in matches] != sorted(m.query_id for m in matches)
        assert any(None in rm.predicted_test for rm in reasoned if rm.useful)
        assert {rm.kind for rm in reasoned} >= {ReasonKind.EXACT_MATCH, ReasonKind.NEGATIVE_AFFINE,
                                                ReasonKind.HIGH_CORRELATION_ONLY}

    def test_fit_affine_equals_oracle(self):
        rng = np.random.default_rng(44)
        for h in (3, 6, 24):
            for scale in (1e-200, 1.0, 1e200):
                q = rng.normal(size=h) * scale
                w = (rng.uniform(-2, 2) * q / scale + rng.normal(scale=0.1, size=h)) * scale
                assert ts.fit_affine(q, w) == fit_oracle(q, w)


def _after_good_record(record):
    return ts.LeakReport(ts.ScanConfig(h=5), [MatchRecord("y", "x", 1, 5, 1.0), record])


def _reason_report(record, c):
    return ts.reason_report(_after_good_record(record), c)


def _assess_usefulness(record, c):
    return ts.assess_usefulness(record, c, ts.ReasonConfig(horizon=5))


def _build_matrix(record, c):
    return ts.build_matrix(_after_good_record(record), c)


class TestMalformedRecords:
    # in the usage collection x and y have 15 observations and z has 16
    @pytest.mark.parametrize("record, message", [
        pytest.param(MatchRecord("y", "x", 0, 5, 1.0),
                     "match 'y' -> 'x' covers 0..5, not a window of at least 3 observations",
                     id="starts-before-1"),
        pytest.param(MatchRecord("y", "x", 5, 4, 1.0),
                     "match 'y' -> 'x' covers 5..4, not a window of at least 3 observations",
                     id="ends-before-start"),
        pytest.param(MatchRecord("y", "x", 3, 4, 1.0),
                     "match 'y' -> 'x' covers 3..4, not a window of at least 3 observations",
                     id="shorter-than-window"),
        pytest.param(MatchRecord("x", "z", 1, 16, 1.0),
                     "match 'x' -> 'z' spans 16 observations, query series has 15",
                     id="longer-than-query"),
        pytest.param(MatchRecord("y", "ghost", 1, 5, 1.0),
                     "match 'y' -> 'ghost' refers to unknown series 'ghost'",
                     id="unknown-donor"),
        pytest.param(MatchRecord("y", "x", 14, 18, 1.0),
                     "match into 'x' ends at 18, series has 15 observations",
                     id="past-donor-end"),
        pytest.param(MatchRecord("y", "x", 1, 10**20, 1.0),
                     f"match 'y' -> 'x' spans {10**20} observations, query series has 15",
                     id="beyond-int64"),
    ])
    @pytest.mark.parametrize("consume", [_reason_report, _assess_usefulness, _build_matrix],
                             ids=["reason_report", "assess_usefulness", "build_matrix"])
    def test_consistency_error(self, usage_collection, consume, record, message):
        c, _ = usage_collection
        with pytest.raises(ts.ConsistencyError) as raised:
            consume(record, c)
        assert str(raised.value) == message

    # q's terminal segment [8, 3, 9, 4] is d's window 5..8; q has 7
    # observations and d 14, so d's values start at position 7 of the
    # collection's values laid end to end, which end at 21
    @pytest.mark.parametrize("q_missing, d_missing, record, message", [
        pytest.param((), (5,), MatchRecord("q", "d", 5, 8, 1.0),
                     "match 'q' -> 'd' window 5..8 covers a missing value of 'd'", id="inside-donor-window"),
        pytest.param((), (4, 7), MatchRecord("q", "d", 5, 8, 1.0),
                     "match 'q' -> 'd' window 5..8 covers a missing value of 'd'", id="donor-window-ends"),
        pytest.param((5,), (), MatchRecord("q", "d", 5, 8, 1.0),
                     "match 'q' -> 'd' query segment, the last 4 observations of 'q', covers a missing value",
                     id="inside-query-segment"),
        pytest.param((3,), (5,), MatchRecord("q", "d", 5, 8, 1.0),
                     "match 'q' -> 'd' window 5..8 covers a missing value of 'd'", id="both"),
        # a record that fails an earlier check gets that check's message; its
        # bounds in the values laid end to end lie outside them
        pytest.param((), (13,), MatchRecord("q", "d", 12, 15, 1.0),
                     "match into 'd' ends at 15, series has 14 observations", id="past-donor-end"),
        pytest.param((), (0,), MatchRecord("q", "ghost", 1, 4, 1.0),
                     "match 'q' -> 'ghost' refers to unknown series 'ghost'", id="unknown-donor"),
        pytest.param((0,), (), MatchRecord("q", "d", 0, 3, 1.0),
                     "match 'q' -> 'd' covers 0..3, not a window of at least 3 observations",
                     id="starts-before-1"),
    ])
    @pytest.mark.parametrize("consume", [
        lambda record, c: ts.reason_report(ts.LeakReport(ts.ScanConfig(h=4), [record]), c),
        lambda record, c: ts.assess_usefulness(record, c, ts.ReasonConfig(horizon=4)),
        lambda record, c: ts.build_matrix(ts.LeakReport(ts.ScanConfig(h=4), [record]), c),
    ], ids=["reason_report", "assess_usefulness", "build_matrix"])
    def test_missing_value_in_record(self, consume, q_missing, d_missing, record, message):
        q = np.array([1.0, 5, 2, 8, 3, 9, 4])
        d = np.array([0.0, 1, 5, 2, 8, 3, 9, 4, 7, 1, 2, 6, 3, 3])
        q[list(q_missing)] = d[list(d_missing)] = 0.0  # the filler of a missing value
        c = ts.SeriesCollection([ts.Series("q", q, q_missing), ts.Series("d", d, d_missing)])
        assert ts.build_matrix(ts.LeakReport(ts.ScanConfig(h=4), []), c).total() == 0
        with pytest.raises(ts.ConsistencyError) as raised:
            consume(record, c)
        assert str(raised.value) == message

    # d's window 1..3 and e's last three values are constant, so neither has an r
    @pytest.mark.parametrize("record, message", [
        pytest.param(MatchRecord("q", "d", 1, 3, 1.0), "match 'q' -> 'd' window 1..3 of 'd' is constant",
                     id="donor-window"),
        pytest.param(MatchRecord("e", "q", 1, 3, 1.0),
                     "match 'e' -> 'q' query segment, the last 3 observations of 'e', is constant",
                     id="query-segment"),
    ])
    @pytest.mark.parametrize("consume", [
        lambda record, c: ts.reason_report(ts.LeakReport(ts.ScanConfig(h=3), [record]), c),
        lambda record, c: ts.assess_usefulness(record, c, ts.ReasonConfig(horizon=3)),
    ], ids=["reason_report", "assess_usefulness"])
    def test_constant_window_in_record(self, consume, record, message):
        c = ts.from_dict({"q": [1, 5, 2, 8, 3], "d": [4, 4, 4, 7, 1, 2, 9], "e": [3, 1, 4, 4, 4]})
        with pytest.raises(ts.ConsistencyError) as raised:
            consume(record, c)
        assert str(raised.value) == message

    def test_first_constant_record_in_report_order_is_named(self):
        # q's block is fitted before e's, but e's record comes first
        c = ts.from_dict({"q": [1, 5, 2, 8, 3], "d": [4, 4, 4, 7, 1, 2, 9], "e": [3, 1, 4, 4, 4]})
        report = ts.LeakReport(ts.ScanConfig(h=3), [
            MatchRecord("q", "d", 5, 7, 1.0),
            MatchRecord("e", "q", 1, 3, 1.0),
            MatchRecord("q", "d", 1, 3, 1.0),
        ])
        with pytest.raises(ts.ConsistencyError) as raised:
            ts.reason_report(report, c)
        assert str(raised.value) == "match 'e' -> 'q' query segment, the last 3 observations of 'e', is constant"

    def test_first_malformed_record_in_report_order_is_named(self, usage_collection):
        # x's block holds the first match and x comes first in the collection,
        # so a check block by block would name x's record, not z's
        c, _ = usage_collection
        report = ts.LeakReport(ts.ScanConfig(h=5), [
            MatchRecord("x", "z", 12, 16, 1.0),
            MatchRecord("z", "x", 11, 12, 1.0),  # shorter than the shortest window
            MatchRecord("x", "z", 1, 16, 1.0),   # longer than the query series x
        ])
        with pytest.raises(ts.ConsistencyError) as raised:
            ts.reason_report(report, c)
        assert str(raised.value) == ("match 'z' -> 'x' covers 11..12, "
                                     "not a window of at least 3 observations")
