import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tsleakscan as ts
from tsleakscan import corr
from tsleakscan.corr import MISSING_OVERLAP, ZERO_VARIANCE_WINDOW

from conftest import brute_pearson, brute_sliding, naive_sliding_oracle, reference_centre, reference_sweep

finite_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def image_rounding_bound(a, m, image):
    """Twice a first-order bound on the angle by which rounding tilts ``image``.

    ``image = [m*v + c for v in a]`` is an affine image of ``a`` only up to
    the rounding of m*v and of the sum: eps/2 relative to each result, or
    smallest/2 where a result is subnormal. That moves the centred image by
    at most sqrt(n) times the worst element error, against |centred image|
    >= |m| * spread(a) / sqrt(2). An r against the image, being the cosine
    of an angle, moves by no more than that angle.
    """
    eps, smallest = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    worst = max(eps / 2 * (abs(m * v) + abs(t)) + smallest for v, t in zip(a, image))
    return 2 * math.sqrt(2 * len(a)) * worst / (max(a) - min(a)) / abs(m)


def exact_pearson(a, b):
    """Pearson r of the floats as given, in exact rational arithmetic.

    Only the final division and square root are rounded, so the result is
    within an ulp or two of the true r.
    """
    a, b = [Fraction(v) for v in a], [Fraction(v) for v in b]
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    sab = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    saa = sum((x - ma) ** 2 for x in a)
    sbb = sum((y - mb) ** 2 for y in b)
    return math.copysign(math.sqrt(sab * sab / (saa * sbb)), sab)


def varied_vectors(min_size=3, max_size=40):
    return st.lists(finite_values, min_size=min_size, max_size=max_size).filter(
        lambda v: len(set(v)) > 1
    )


class TestPearson:
    def test_positive_scaling(self):
        assert ts.pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_negative_affine(self):
        assert ts.pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_computed_value(self):
        # centered dot product 8 over sqrt(10 * 10)
        r = ts.pearson([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
        assert r == pytest.approx(0.8, abs=1e-15)
        assert r == pytest.approx(brute_pearson([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]), abs=1e-12)

    def test_zero_variance_is_undefined(self):
        assert ts.pearson([5, 5, 5], [1, 2, 3]) is None
        assert ts.pearson([1, 2, 3], [7, 7, 7]) is None

    def test_length_mismatch(self):
        with pytest.raises(ts.ContractViolation):
            ts.pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ts.ContractViolation):
            ts.pearson([1.0], [2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ts.ContractViolation):
            ts.pearson([1, np.nan, 3], [1, 2, 3])

    @given(varied_vectors(min_size=2))
    def test_symmetry(self, a):
        rng = np.random.default_rng(abs(hash(tuple(a))) % 2**32)
        b = list(rng.normal(size=len(a)))
        assert ts.pearson(a, b) == ts.pearson(b, a)

    @given(
        varied_vectors(),
        st.floats(min_value=0.1, max_value=50).filter(lambda m: m != 0),
        st.booleans(),
        st.floats(min_value=-100, max_value=100),
    )
    @example(a=[0.0, 0.0, 8.8e-179], m_abs=1.0, negate=False, c=0.0)  # squares underflow
    @example(a=[0.0, 0.0, 2.220446049250313e-16], m_abs=1.0, negate=False, c=1.0)  # spread of one ulp
    @example(a=[0.0, 1e-10, 1.809799164542624e-16], m_abs=0.5, negate=False, c=1.0)  # rounding of m*v + c
    def test_affine_invariance(self, a, m_abs, negate, c):
        m = -m_abs if negate else m_abs
        image = [m * v + c for v in a]
        if len(set(image)) <= 1:
            return  # transform collapsed in floating point
        r = ts.pearson(a, image)
        # where rounding makes m*v + c no exact image of a, r is held to the
        # exact correlation of the floats as given instead of to +-1
        if all(Fraction(m) * Fraction(v) + Fraction(c) == Fraction(t) for v, t in zip(a, image)):
            expected = 1.0 if m > 0 else -1.0
        else:
            expected = exact_pearson(a, image)
        assert r == pytest.approx(expected, abs=1e-12)

    @given(
        varied_vectors(),
        st.floats(min_value=0.1, max_value=50),
        st.booleans(),
        st.floats(min_value=-100, max_value=100),
    )
    @example(a=[0.0, 0.0, 8.8e-179], m_abs=1.0, negate=True, c=0.0)  # squares underflow
    @example(a=[0.0, 1e-6, 3e-6, 2e-6], m_abs=1.0, negate=False, c=100.0)  # rounding of m*v + c
    def test_query_shift_scale_flips_sign_only(self, a, m_abs, negate, c):
        m = -m_abs if negate else m_abs
        rng = np.random.default_rng(len(a))
        b = list(rng.normal(size=len(a)))
        scaled = [m * v + c for v in a]
        if len(set(scaled)) <= 1:
            return
        base = ts.pearson(a, b)
        transformed = ts.pearson(scaled, b)
        allowance = image_rounding_bound(a, m, scaled)
        assume(allowance < 1e-3)  # past this, the rounding can move r anywhere
        assert transformed == pytest.approx(np.sign(m) * base, abs=1e-12 + allowance)

    @given(varied_vectors(min_size=2, max_size=30))
    @example(a=[0.0, 1.3e-244])  # squares underflow
    @example(a=[0.0, 5e-324])  # subnormal mean
    @example(a=[1.0, 1.0000000000000002])  # spread of one ulp
    def test_agrees_with_stdlib(self, a):
        rng = np.random.default_rng(len(a) * 7 + 1)
        b = list(rng.normal(size=len(a)))
        assert ts.pearson(a, b) == pytest.approx(brute_pearson(a, b), abs=1e-12)


class TestSlidingCorrelations:
    def test_linear_ramp_all_ones(self):
        profile = ts.sliding_correlations([1, 2, 3], [1, 2, 3, 4, 5], 3)
        assert list(profile.offsets) == [1, 2, 3]
        assert profile.r_values == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
        assert profile.skipped == []

    def test_constant_target_all_skipped(self):
        profile = ts.sliding_correlations([1, 2, 1], [7, 7, 7, 7], 3)
        assert len(profile.offsets) == 0
        assert profile.skipped == [(1, ZERO_VARIANCE_WINDOW), (2, ZERO_VARIANCE_WINDOW)]

    def test_constant_query_rejected(self):
        with pytest.raises(ts.ContractViolation, match="zero variance"):
            ts.sliding_correlations([5, 5, 5], [1, 2, 3, 4], 3)

    def test_target_shorter_than_window(self):
        with pytest.raises(ts.ContractViolation, match="shorter"):
            ts.sliding_correlations([1, 2, 3], [1, 2], 3)

    def test_window_below_minimum(self):
        with pytest.raises(ts.ContractViolation):
            ts.sliding_correlations([1, 2], [1, 2, 3], 2)

    @pytest.mark.parametrize("missing", [(9,), (-1,)])
    def test_missing_position_out_of_range(self, missing):
        with pytest.raises(ts.ContractViolation, match="missing positions out of range"):
            ts.sliding_correlations([1, 2, 4], [1, 5, 2, 8, 3], 3, missing=missing)

    # a float position was truncated to an index, and a bool or str read as one
    @pytest.mark.parametrize("missing", [(1.7,), (True,), ("2",), (np.float64(2.0),), (0, 2.0)])
    def test_missing_position_not_an_integer(self, missing):
        with pytest.raises(ts.ContractViolation, match="missing positions must be integers"):
            ts.sliding_correlations([1, 2, 4], [1, 5, 2, 8, 3], 3, missing=missing)

    @pytest.mark.parametrize("h", [4.0, np.float64(3.0), True])
    def test_window_length_not_an_integer(self, h):
        with pytest.raises(ts.ContractViolation, match="window length must be an integer >= 3"):
            ts.sliding_correlations([1, 2, 4, 3], [1, 5, 2, 8, 3], h)

    # True was read as 1, NaN kept no window, and a str raised a bare TypeError
    @pytest.mark.parametrize("threshold", [True, False, float("nan"), np.float64("nan"), "0.5", 1j])
    def test_threshold_not_a_real_number_rejected(self, threshold):
        with pytest.raises(ts.ContractViolation, match="threshold must be a real number other than NaN"):
            ts.sliding_correlations([1, 2, 4], [1, 5, 2, 8, 3, 1, 2, 4], 3, threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.5, 1, np.float32(0.5), Fraction(1, 2), -float("inf")])
    def test_real_threshold_accepted(self, threshold):
        profile = ts.sliding_correlations([1, 2, 4], [1, 5, 2, 8, 3, 1, 2, 4], 3, threshold=threshold)
        assert profile.offsets[-1] == 6 and profile.r_values[-1] == 1.0

    def test_numpy_integers_accepted(self):
        profile = ts.sliding_correlations([1, 2, 4], [1, 5, 2, 8, 3], np.int64(3),
                                          missing=np.array([1], dtype=np.int32))
        assert profile.offsets.tolist() == [3]
        assert profile.skipped == [(1, MISSING_OVERLAP), (2, MISSING_OVERLAP)]

    def test_missing_overlap_skips(self):
        profile = ts.sliding_correlations([1, 2, 3], np.arange(8.0), 3, missing=(3,))
        skipped_offsets = {o for o, reason in profile.skipped if reason == MISSING_OVERLAP}
        # 0-based position 3 touches windows starting at 1-based 2, 3, 4
        assert skipped_offsets == {2, 3, 4}
        assert sorted(profile.offsets) == [1, 5, 6]

    def test_internal_repeat_found_at_oracle_position(self):
        rng = np.random.default_rng(42)
        body = rng.normal(size=40)
        series = np.concatenate([body[:10], body[28:34], body[10:28], body[28:34]])
        query = series[-6:]
        profile = ts.sliding_correlations(query, series, 6)
        perfect = [int(o) for o, r in zip(profile.offsets, profile.r_values) if r >= 1 - 1e-10]
        oracle = [o for o, r in brute_sliding(list(query), list(series), 6).items()
                  if r is not None and r >= 1 - 1e-10]
        assert perfect == oracle
        assert 11 in perfect  # the planted repeat

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_profile_completeness(self, data):
        h = data.draw(st.sampled_from([3, 5, 8]))
        target = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=h, max_size=60))
        query = data.draw(varied_vectors(min_size=h, max_size=h))
        n_missing = data.draw(st.integers(min_value=0, max_value=3))
        missing = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(target) - 1),
            min_size=n_missing, max_size=n_missing, unique=True))
        profile = ts.sliding_correlations(query, target, h, missing=missing)
        covered = sorted(list(profile.offsets) + [o for o, _ in profile.skipped])
        assert covered == list(range(1, len(target) - h + 2))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_all_emitted_r_in_bounds(self, data):
        h = data.draw(st.sampled_from([3, 5]))
        query = data.draw(varied_vectors(min_size=h, max_size=h))
        target = data.draw(st.lists(finite_values, min_size=h, max_size=50))
        profile = ts.sliding_correlations(query, target, h)
        assert np.all(profile.r_values >= -1.0)
        assert np.all(profile.r_values <= 1.0)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
    def test_low_variance_copy_at_extreme_scales(self, scale):
        # a segment whose spread is 1e-5 of the series' is planted twice, and
        # one window is constant; only that window may be skipped
        rng = np.random.default_rng(17)
        target = rng.normal(size=80) * scale
        segment = (5.0 + 1e-5 * rng.normal(size=6)) * scale
        target[20:26] = segment
        target[50:56] = segment
        target[65:71] = 2.0 * scale
        profile = ts.sliding_correlations(segment, target, 6)
        assert profile.skipped == [(66, ZERO_VARIANCE_WINDOW)]
        assert np.all(np.abs(profile.r_values) <= 1.0)
        r = dict(zip(profile.offsets.tolist(), profile.r_values.tolist()))
        assert r[21] == r[51] == 1.0
        reference = brute_sliding(list(segment), list(target), 6)
        assert max(abs(r[o] - reference[o]) for o in r) <= 1e-9

    def test_block_columns_equal_single_queries(self):
        # k * h values per window put the windows in several blocks of the kernel
        rng = np.random.default_rng(61)
        h, k = 8, 40
        target = rng.normal(loc=3.0, size=1200)
        target[300:320] = 2.0  # constant windows
        missing = (50, 51, 900)
        queries = rng.normal(size=(k, h))
        queries[5] = target[100:108]
        queries[6] = -2.0 * target[500:508] + 7.0
        block = ts.sliding_correlations(queries, target, h, missing=missing)
        assert block.r_values.shape == (len(block.offsets), k)
        assert len(block.offsets) * k * h > 4 * corr._BLOCK_VALUES
        for j, query in enumerate(queries):
            single = ts.sliding_correlations(query, target, h, missing=missing)
            assert np.array_equal(single.offsets, block.offsets)
            assert single.skipped == block.skipped
            assert np.array_equal(single.r_values, block.r_values[:, j])
        r = dict(zip(block.offsets.tolist(), block.r_values.tolist()))
        assert r[101][5] == 1.0
        assert r[501][6] == -1.0
        one_row = ts.sliding_correlations(queries[:1], target, h, missing=missing)
        assert np.array_equal(one_row.r_values, block.r_values[:, :1])

    @pytest.mark.parametrize("block, message", [
        ([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]], "zero variance"),
        ([[1.0, 2.0, 3.0], [1.0, np.nan, 3.0]], "non-finite"),
        ([[1.0, 2.0, 3.0], [1.0, np.inf, 3.0]], "non-finite"),
        ([[1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 3.0, 2.0]], "4 observations, expected h=3"),
        ([[[1.0, 2.0, 3.0]]], "dimensions"),
    ])
    def test_block_rejected(self, block, message):
        with pytest.raises(ts.ContractViolation, match=message):
            ts.sliding_correlations(block, [1.0, 5.0, 2.0, 8.0, 3.0], 3)


def prefilter_target(rng, h, scale, queries):
    """A target holding copies, affine images and noisy copies of the
    queries, exactly constant runs, and low-variance stretches."""
    target = rng.normal(size=int(rng.integers(h, 160)))
    for q in queries:
        if len(target) < 3 * h:
            break
        at = int(rng.integers(0, len(target) - h + 1))
        kind = rng.integers(4)
        target[at:at + h] = [q, -0.5 * q + 2.0, q + 0.3 * rng.normal(size=h), 5.0 + 1e-6 * q][kind]
    for _ in range(int(rng.integers(0, 3))):
        at, width = int(rng.integers(0, len(target))), int(rng.integers(1, 2 * h))
        target[at:at + width] = rng.choice([target[at], 7.0 + 1e-7 * rng.normal()])
    return target * scale


def bound_target(rng, h, kind, scale):
    """A random walk, a series holding a stretch of low variance within a
    1e6 times larger spread, or one whose values lie a few ulps apart."""
    n = int(rng.integers(h, 4 * h + 40))
    if kind == "walk":
        return np.cumsum(rng.normal(size=n)) * scale
    if kind == "low-variance":
        target = 1e6 * rng.normal(size=n)
        at = int(rng.integers(0, n))
        stretch = target[at:at + int(rng.integers(h, 3 * h))]
        stretch[:] = 1e6 * rng.normal() + 10.0 ** rng.integers(-9, 0) * rng.normal(size=len(stretch))
        return target * scale
    mean = rng.uniform(0.5, 2.0) * scale
    return mean + np.spacing(mean) * rng.integers(-3, 4, size=n)


class TestCentre:
    # one centre scales and centres the exact pass's windows, the queries, the
    # fits and the prefilter's lag-major blocks; prefilter_slack's proof rests
    # on both sides starting from its scaled bits, so they are pinned to the
    # reference forms, across scales, low variance and values a few ulps apart
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(3, 64), exponent=st.integers(-300, 300),
           kind=st.sampled_from(["walk", "low-variance", "few-ulps"]))
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_the_reference_forms(self, seed, h, exponent, kind):
        target = bound_target(np.random.default_rng(seed), h, kind, 10.0 ** exponent)
        windows = np.lib.stride_tricks.sliding_window_view(target, h)  # read-only, as the sweep's
        for x, axis in [(windows, -1), (windows.T, 0), (windows[-1], -1)]:
            (xc, exp), (want, want_exp) = corr.centre(x, axis), reference_centre(x, axis)
            assert xc.shape == want.shape and xc.tobytes() == want.tobytes()
            assert np.array_equal(exp, want_exp)
            assert np.array_equal(corr.scale_of(x, axis), np.abs(x).max(axis))


class TestPrefilter:
    @given(seed=st.integers(0, 2**32 - 1), h=st.sampled_from([3, 6, 18]),
           scale=st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
           cutoff=st.sampled_from([1.0, 0.95, 0.5, 1e-9]), k=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_rows_at_threshold_equal_the_full_profile(self, seed, h, scale, cutoff, k):
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(k, h))
        target = prefilter_target(rng, h, scale, queries)
        queries *= scale
        missing = sorted(set(rng.integers(0, len(target), size=int(rng.integers(0, 4))).tolist()))
        threshold = ts.ScanConfig(h=h, cutoff=cutoff).threshold
        full = ts.sliding_correlations(queries, target, h, missing=missing)
        cut = ts.sliding_correlations(queries, target, h, missing=missing, threshold=threshold)
        assert cut.skipped == full.skipped
        row = {o: r for o, r in zip(full.offsets.tolist(), full.r_values)}
        for offset, r in zip(cut.offsets.tolist(), cut.r_values):
            assert np.array_equal(r, row[offset])
        reached = full.offsets[np.abs(full.r_values).max(axis=1) >= threshold]
        assert set(reached.tolist()) <= set(cut.offsets.tolist())

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_threshold_at_a_windows_own_r_keeps_it(self, scale):
        # r~ falls below r about half the time; the slack must cover it
        rng = np.random.default_rng(23)
        h = 12
        queries = rng.normal(size=(5, h)) * scale
        target = prefilter_target(rng, h, scale, queries / scale)
        full = ts.sliding_correlations(queries, target, h)
        for offset, r in zip(full.offsets.tolist(), np.abs(full.r_values).max(axis=1)):
            cut = ts.sliding_correlations(queries, target, h, threshold=r)
            assert offset in cut.offsets.tolist()

    def test_threshold_within_slack_of_zero_keeps_every_window(self):
        rng = np.random.default_rng(4)
        target = rng.normal(size=50)
        target[10:20] = 1.0
        queries = rng.normal(size=(3, 5))
        full = ts.sliding_correlations(queries, target, 5, missing=(30,))
        for threshold in (0.0, corr.prefilter_slack(5)):
            cut = ts.sliding_correlations(queries, target, 5, missing=(30,), threshold=threshold)
            assert np.array_equal(cut.offsets, full.offsets)
            assert np.array_equal(cut.r_values, full.r_values)
            assert cut.skipped == full.skipped

    @pytest.mark.parametrize("middle", [True, False], ids=["each-block-keeps-one", "middle-block-keeps-none"])
    def test_threshold_spans_several_blocks_and_products(self, middle):
        # three blocks of windows; without a plant in it the middle block keeps
        # none. The second plant is negated, so it matches at r = -1
        rng = np.random.default_rng(9)
        h = 16
        n = 3 * corr._BLOCK_VALUES // h
        target = rng.normal(size=n)
        starts = [100, n // 2, n - h] if middle else [100, n - h]
        assert [s // (corr._BLOCK_VALUES // h) for s in starts] == ([0, 1, 2] if middle else [0, 2])
        queries = rng.normal(size=(60, h))
        queries[:len(starts)] = [target[s:s + h] for s in starts]
        queries[1] *= -1
        assert len(queries) * corr._BLOCK_VALUES > 2 * corr._PRODUCT_SIZE  # several products a block
        full = ts.sliding_correlations(queries, target, h)
        assert full.offsets.tolist() == list(range(1, n - h + 2))
        cut = ts.sliding_correlations(queries, target, h, threshold=1.0 - 1e-10)
        assert cut.offsets.tolist() == [s + 1 for s in starts]
        assert np.array_equal(cut.r_values, full.r_values[starts])
        assert np.array_equal(np.abs(cut.r_values).max(axis=1), np.ones(len(starts)))

    def test_matches_only_in_the_last_partial_query_chunk(self):
        # the running max over query chunks must read the last one, which is
        # shorter than the rest; the second plant is negated, so r = -1
        rng = np.random.default_rng(12)
        h = 16
        step = corr._BLOCK_VALUES // h
        per = corr._PRODUCT_SIZE // (h * step)
        k = 2 * per + 3
        assert k % per and (k - 2) // per == k // per  # both plants in the last chunk
        target = rng.normal(size=2 * step)
        starts = [300, step + 200]
        queries = rng.normal(size=(k, h))
        queries[-2] = target[starts[0]:starts[0] + h]
        queries[-1] = -target[starts[1]:starts[1] + h]
        cut = ts.sliding_correlations(queries, target, h, threshold=1.0 - 1e-10)
        assert cut.offsets.tolist() == [s + 1 for s in starts]
        assert cut.r_values[0, -2] == 1.0 and cut.r_values[1, -1] == -1.0

    # r~ centres each window lag-major, in another summation order than the
    # exact r; the bound must hold across scales, low variance and few ulps
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(3, 64), exponent=st.integers(-300, 300),
           kind=st.sampled_from(["walk", "low-variance", "few-ulps"]), k=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_largest_r_within_slack_of_exact(self, seed, h, exponent, kind, k):
        rng = np.random.default_rng(seed)
        target = bound_target(rng, h, kind, 10.0 ** exponent)
        # a window of the target, a negated one and random rows, so the
        # largest |r| runs from about 0 to exactly 1
        queries = rng.normal(size=(k, h)) * 10.0 ** exponent
        at = rng.integers(0, len(target) - h + 1, size=2)
        queries[0] = target[at[0]:at[0] + h]
        if k > 1:
            queries[1] = -target[at[1]:at[1] + h]
        queries = queries[(queries != queries[:, :1]).any(axis=1)]
        assume(len(queries))
        full = ts.sliding_correlations(queries, target, h)
        windows = np.lib.stride_tricks.sliding_window_view(target, h)
        approx = corr._largest_r(windows.T, corr.query_block(queries).unit, 2)
        exact = np.abs(full.r_values).max(axis=1)
        assert np.all(np.abs(approx[full.offsets - 1] - exact) <= corr.prefilter_slack(h))


class TestWindowViews:
    """The sweep reads its windows through views of the target; the reference
    gathers them into copies. Offsets, r bits and skips must agree."""

    @staticmethod
    def check(queries, target, h, missing=()):
        profiles = []
        for threshold in (None, 0.5, 0.95):
            got = ts.sliding_correlations(queries, target, h, missing=missing, threshold=threshold)
            want = reference_sweep(queries, target, h, missing=missing, threshold=threshold)
            assert got.offsets.tolist() == want.offsets.tolist()
            assert got.r_values.shape == want.r_values.shape
            assert got.r_values.tobytes() == want.r_values.tobytes()
            assert got.skipped == want.skipped
            profiles.append(got)
        return profiles

    @staticmethod
    def queries_from(target, h, rng, k=3):
        """k queries, the first a noisy copy of a window, so a threshold keeps some."""
        queries = rng.normal(size=(k, h))
        queries[0] = np.asarray(target)[5:5 + h] + 0.1 * rng.normal(size=h)
        return queries

    @pytest.mark.parametrize("layout", ["every-other-value", "column-of-a-matrix"])
    def test_non_contiguous_target(self, layout):
        rng = np.random.default_rng(31)
        target = rng.normal(size=800)[::2] if layout == "every-other-value" else rng.normal(size=(400, 3))[:, 1]
        assert not target.flags.c_contiguous
        queries = self.queries_from(target, 12, rng)
        self.check(queries, target, 12, missing=(50,))
        self.check(queries[0], target, 12)

    @pytest.mark.parametrize("missing", [(0,), (99,), (0, 99), (40, 41), (0, 1, 2, 97, 98, 99)])
    def test_gaps_at_the_ends_and_adjacent(self, missing):
        rng = np.random.default_rng(32)
        target = rng.normal(size=100)
        full = self.check(self.queries_from(target, 6, rng), target, 6, missing=missing)[0]
        skipped = {o for o, reason in full.skipped if reason == MISSING_OVERLAP}
        assert skipped == {o for o in range(1, 96) if any(o - 1 <= p < o + 5 for p in missing)}

    @pytest.mark.parametrize("h", [6, 24])
    def test_constant_run_across_a_block_boundary(self, h):
        rng = np.random.default_rng(33)
        step = corr._BLOCK_VALUES // h
        target = rng.normal(size=3 * step)
        target[step - h:step + 2 * h] = 2.5
        full = self.check(self.queries_from(target, h, rng), target, h, missing=(step + 3 * h,))[0]
        constant = {o for o, reason in full.skipped if reason == ZERO_VARIANCE_WINDOW}
        assert constant == set(range(step - h + 1, step + h + 2))


class TestSweepMemory:
    # the sweep once gathered every window into an (m, h) copy through an
    # (m, h) index array; through views its traced peak stays below one copy
    @pytest.mark.parametrize("threshold", [None, 0.5])
    def test_traced_peak_under_one_window_copy(self, threshold):
        h = 24
        target = np.random.default_rng(34).normal(size=20_000)
        tracemalloc.start()
        try:
            profile = ts.sliding_correlations(target[-h:], target, h, threshold=threshold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = len(target) - h + 1
        assert profile.offsets[-1] == m
        assert peak < m * h * np.dtype(np.float64).itemsize


    def test_window_masks_need_no_window_sized_array(self):
        # the constant and gap tests read running counts of the target, not an
        # (m, h) mask, so a long window costs no more memory than a short one
        h = 2000
        rng = np.random.default_rng(35)
        target = rng.normal(size=20_000)
        target[5000:9000] = 1.5
        tracemalloc.start()
        try:
            profile = ts.sliding_correlations(target[-h:], target, h, missing=(12_000,), threshold=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = len(target) - h + 1
        assert profile.offsets[-1] == m
        reasons = [reason for _, reason in profile.skipped]
        assert (reasons.count(ZERO_VARIANCE_WINDOW), reasons.count(MISSING_OVERLAP)) == (4000 - h + 1, h)
        assert peak < m * h // 8


class TestOracleEquivalence:
    def test_naive_oracle_descending_ramp(self):
        profile = naive_sliding_oracle([1, 2, 3], [3, 2, 1, 0], 3)
        assert list(profile.offsets) == [1, 2]
        assert profile.r_values == pytest.approx([-1.0, -1.0], abs=1e-12)
        assert profile.skipped == []

    def test_200_randomized_pairs(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for trial in range(200):
            h = int(rng.choice([3, 5, 8]))
            n = int(rng.integers(h, 401))
            scale = 10.0 ** rng.integers(-3, 5)
            offset = rng.choice([0.0, 1e3, 1e6])
            target = rng.normal(loc=offset, scale=scale, size=n)
            if trial % 3 == 0 and n >= 2 * h:
                # plant an exact copy so the |r|=1 path is exercised
                src = int(rng.integers(0, n - h + 1))
                query = target[src:src + h].copy()
            else:
                query = rng.normal(loc=offset, scale=scale, size=h)
            if np.all(query == query[0]):
                continue
            fast = ts.sliding_correlations(query, target, h)
            slow = naive_sliding_oracle(query, target, h)
            assert list(fast.offsets) == list(slow.offsets)
            assert fast.skipped == slow.skipped
            if len(fast.r_values):
                worst = max(worst, float(np.max(np.abs(fast.r_values - slow.r_values))))
        assert worst <= 1e-9

    def test_agreement_with_missing_positions(self):
        rng = np.random.default_rng(99)
        target = rng.normal(size=120)
        query = rng.normal(size=5)
        missing = sorted(rng.choice(120, size=6, replace=False).tolist())
        fast = ts.sliding_correlations(query, target, 5, missing=missing)
        slow = naive_sliding_oracle(query, target, 5, missing=missing)
        assert list(fast.offsets) == list(slow.offsets)
        assert fast.skipped == slow.skipped
        assert np.max(np.abs(fast.r_values - slow.r_values)) <= 1e-9

    def test_agreement_against_stdlib_windows(self):
        rng = np.random.default_rng(5)
        target = rng.normal(loc=50.0, size=60)
        query = rng.normal(size=8)
        profile = ts.sliding_correlations(query, target, 8)
        reference = brute_sliding(list(query), list(target), 8)
        for offset, r in zip(profile.offsets, profile.r_values):
            assert r == pytest.approx(reference[int(offset)], abs=1e-9)
