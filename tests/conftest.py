import math
import statistics

import numpy as np
import pytest

import tsleakscan as ts
from tsleakscan.corr import (
    MISSING_OVERLAP,
    ZERO_VARIANCE_WINDOW,
    SlidingProfile,
    _check_sweep_args,
    centre,
)


def _centred(x):
    """x scaled by the exact power of two that brings max|x| into [0.5, 1),
    then centred on its mean twice.

    Pearson's r is scale-free, and the stdlib sums squares of the raw
    values, which underflow to zero (or overflow) far from unit scale. Its
    mean is rounded by up to half an ulp of the mean, which is as large as
    the spread when the spread is a few ulps; centring the residuals again
    removes that.
    """
    x = [float(v) for v in x]
    _, exp = math.frexp(max(map(abs, x)))
    x = [math.ldexp(v, -exp) for v in x]
    for _ in range(2):
        mean = math.fsum(x) / len(x)
        x = [v - mean for v in x]
    return x


def brute_pearson(a, b):
    """Textbook Pearson via the stdlib, independent of the package kernel."""
    try:
        return statistics.correlation(_centred(a), _centred(b))
    except statistics.StatisticsError:
        return None  # zero variance


def brute_sliding(query, target, h):
    """Per-window reference profile: dict offset -> r (None where undefined)."""
    out = {}
    for s in range(len(target) - h + 1):
        out[s + 1] = brute_pearson(query, target[s:s + h])
    return out


def naive_sliding_oracle(query, target, h, *, target_id=None, missing=()) -> SlidingProfile:
    """Reference sweep: one window at a time, sharing no arithmetic with the kernel.

    Same contract as ``sliding_correlations``; kept deliberately dumb so the
    optimized path can be checked against it (the two must agree within
    1e-9 on every emitted r and produce identical offset/skip sets).
    """
    queries, target, h, missing = _check_sweep_args(query, target, h, missing)
    query = queries.values
    missing_set = set(missing)
    # scale by an exact power of two before squaring, so that no square
    # underflows or overflows; centre twice, because the first mean's
    # rounding can be as large as the spread
    q = np.ldexp(query, -np.frexp(np.abs(query).max())[1])
    q = q - q.mean()
    q = q - q.mean()
    offsets, r_values, skipped = [], [], []
    for s in range(len(target) - h + 1):
        if any(p in missing_set for p in range(s, s + h)):
            skipped.append((s + 1, MISSING_OVERLAP))
            continue
        w = target[s:s + h]
        if np.all(w == w[0]):
            skipped.append((s + 1, ZERO_VARIANCE_WINDOW))
            continue
        w = np.ldexp(w, -np.frexp(np.abs(w).max())[1])
        w = w - w.mean()
        w = w - w.mean()
        r = float((q @ w) / np.sqrt((q @ q) * (w @ w)))
        offsets.append(s + 1)
        r_values.append(min(1.0, max(-1.0, r)))
    return SlidingProfile(target_id, np.asarray(offsets, dtype=int), np.asarray(r_values), skipped)


def fit_oracle(q, w) -> ts.AffineFit:
    """Reference affine fit of one window against one query segment.

    The arithmetic of fitting each match on its own: the block fit of
    ``reason_report`` must give these bits exactly. The cross term is the
    dot product ``qc @ wc``.
    """
    q = np.asarray(q, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    qc, q_exp = centre(q)
    wc, w_exp = centre(w)
    m = float(np.ldexp((qc @ wc) / (qc @ qc), w_exp - q_exp))
    c = float(w.mean() - m * q.mean())
    return ts.AffineFit(m, c, float(np.max(np.abs(w - (m * q + c)))))


def reason_oracle(match, collection, cfg):
    """One match explained on its own: (fit, kind, useful, predicted_test).

    ``cfg.horizon`` must be set. The predicted test segment is the donor
    continuation mapped through (v - c)/m, None where the donor is missing.
    """
    h = match.end - match.start + 1
    donor = collection.get(match.donor_id)
    w = donor.values[match.start - 1:match.end]
    fit = fit_oracle(collection.get(match.query_id).values[-h:], w)
    kind = ts.classify(fit, window_scale=float(np.max(np.abs(w))))
    if match.end + cfg.horizon > len(donor.values):
        return fit, kind, False, None
    continuation = donor.values[match.end:match.end + cfg.horizon]
    missing = set(donor.missing)
    predicted = [None if match.end + i in missing else float(v)
                 for i, v in enumerate((continuation - fit.c) / fit.m)]
    return fit, kind, True, predicted


def brute_scan(series_list, h, threshold):
    """Double-loop reference scan over (id, values) pairs.

    Returns the set of (query_id, donor_id, start, end) with |r| at or
    above the threshold, terminal self-hits removed, plus the r per key.
    """
    keys = set()
    r_by_key = {}
    for qid, qv in series_list:
        if len(qv) < h:
            continue
        q = qv[-h:]
        if all(v == q[0] for v in q):
            continue
        for did, dv in series_list:
            for start, r in brute_sliding(q, dv, h).items():
                if r is None:
                    continue
                end = start + h - 1
                if did == qid and end == len(dv):
                    continue
                if abs(r) >= threshold:
                    keys.add((qid, did, start, end))
                    r_by_key[(qid, did, start, end)] = r
    return keys, r_by_key


def usage_style_collection(seed=2024):
    """Three series with the structure of the worked three-series example:
    x arbitrary, y ends with x[1..5], z ends with x[10..15] (1-based)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=15)
    y = np.concatenate([rng.normal(size=10), x[0:5]])
    z = np.concatenate([rng.normal(size=10), x[9:15]])
    return ts.from_dict({"x": x, "y": y, "z": z}), x


def block_fit_collection(h, scale, seed):
    """Random series with exact, affine, negative and noisy copies of one
    another's terminal segments planted in them, a sine whose neighbouring
    offsets match together (runs to collapse), and donors with a missing
    value just past a plant, all multiplied by ``scale``."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=int(rng.integers(4 * h, 7 * h))) for _ in range(7)]
    values.append(np.sin(2 * np.pi * np.arange(5 * h) / 20))
    missing = [[] for _ in values]
    for i in range(14):
        qi, di = (int(v) for v in rng.integers(7, size=2))
        donor = values[di]
        start = int(rng.integers(0, len(donor) - 3 * h))
        m = 1.0 if i % 3 == 0 else rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        c = 0.0 if i % 3 == 0 else rng.uniform(-3.0, 3.0)
        donor[start:start + h] = m * values[qi][-h:] + c
        if i % 4 == 1:
            donor[start:start + h] += rng.normal(scale=0.05, size=h)
        if i % 5 == 2:
            missing[di].append(start + h + 1)
    series = []
    for i, (v, gaps) in enumerate(zip(values, missing)):
        v = v * scale
        v[gaps] = 0.0
        series.append(ts.Series(f"s{i}", v, tuple(sorted(set(gaps)))))
    return ts.SeriesCollection(series)


def random_collection(rng, n_series=None, length_range=(20, 120)):
    n = n_series if n_series is not None else int(rng.integers(3, 11))
    data = {}
    for i in range(n):
        length = int(rng.integers(length_range[0], length_range[1] + 1))
        data[f"s{i:03d}"] = rng.normal(size=length)
    return ts.from_dict(data)


@pytest.fixture
def usage_collection():
    return usage_style_collection()
