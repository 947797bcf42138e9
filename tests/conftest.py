import csv
import json
import math
import statistics
from dataclasses import replace
from itertools import zip_longest
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest

import tsleakscan as ts
from tsleakscan.collection import _finish_series, _parse_cell
from tsleakscan.corr import (
    _BLOCK_VALUES,
    _PRODUCT_SIZE,
    MISSING_OVERLAP,
    ZERO_VARIANCE_WINDOW,
    SlidingProfile,
    _check_sweep_args,
    centre,
    prefilter_slack,
)
from tsleakscan.report import MatchMatrix, _escape, _ramp
from tsleakscan.scan import MISSING_IN_QUERY, TOO_SHORT, ZERO_VARIANCE_QUERY


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


def reference_centre(x, axis=-1):
    """``centre`` written out in its two reference forms, whose bits it must
    give: along the last axis, max|x| from ``np.abs`` and each mean
    subtracted into a new array; along axis 0, for an (h, b) lag-major block,
    max(max x, -min x) and each mean subtracted in place."""
    if axis == 0:
        _, exp = np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))
        x = np.ldexp(x, -exp)
        n = len(x)
        x -= x.sum(axis=0) / n
        x -= x.sum(axis=0) / n
        return x, exp
    _, exp = np.frexp(np.abs(x).max(axis=-1))
    x = np.ldexp(x, -exp[..., None])
    n = x.shape[-1]
    x = x - x.sum(axis=-1, keepdims=True) / n
    return x - x.sum(axis=-1, keepdims=True) / n, exp


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


def naive_sliding_oracle(query, target, h, *, missing=()) -> SlidingProfile:
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
    return SlidingProfile(np.asarray(offsets, dtype=int), np.asarray(r_values), skipped)


def _reference_correlate(windows, queries, bound=None):
    """``_correlate`` on gathered windows: every valid window copied into one
    (valid, h) array, whose kept rows are concatenated before the exact pass."""
    h, q = windows.shape[1], queries.rows
    keep = np.ones(len(windows), dtype=bool)
    blocks = [(np.empty((0, h)), np.empty(0))]
    step = max(1, _BLOCK_VALUES // h)
    rows = max(1, min(step, _PRODUCT_SIZE // q.size))
    for i in range(0, len(windows), step):
        w, _ = centre(windows[i:i + step])
        css_w = (w * w).sum(axis=1)
        if bound is not None:
            unit = w / np.sqrt(css_w)[:, None]
            kept = keep[i:i + step]
            for j in range(0, len(w), rows):
                approx = unit[j:j + rows] @ queries.unit.T
                kept[j:j + rows] = np.maximum(approx.max(axis=1), -approx.min(axis=1)) >= bound
            w, css_w = w[kept], css_w[kept]
        blocks.append((w, css_w))
    w, css_w = (np.concatenate(parts) for parts in zip(*blocks))
    cross = np.empty((len(w), len(q)))
    step = max(1, _BLOCK_VALUES // q.size)
    for i in range(0, len(w), step):
        cross[i:i + step] = (w[i:i + step, None, :] * q).sum(axis=2)
    return keep, np.clip(cross / np.sqrt(css_w[:, None] * queries.css), -1.0, 1.0)


def reference_sweep(query, target, h, *, missing=(), threshold=None) -> SlidingProfile:
    """``sliding_correlations`` by gathering: an (m, h) index array picks every
    window of the target and of its gap mask into copies of their own."""
    queries, target, h, missing = _check_sweep_args(query, target, h, missing)
    m = len(target) - h + 1
    index = np.arange(m)[:, None] + np.arange(h)
    windows = target[index]
    gaps = np.zeros(len(target), dtype=bool)
    gaps[missing] = True
    overlaps = gaps[index].any(axis=1)
    valid = ~(windows == windows[:, :1]).all(axis=1) & ~overlaps
    starts = np.arange(1, m + 1)
    skipped = [(int(s), MISSING_OVERLAP if overlaps[s - 1] else ZERO_VARIANCE_WINDOW)
               for s in starts[~valid]]
    windows, starts = windows[valid], starts[valid]
    bound = None if threshold is None else threshold - prefilter_slack(h)
    keep, r = _reference_correlate(windows, queries, bound)
    return SlidingProfile(starts[keep], r if queries.values.ndim == 2 else r[:, 0], skipped)


def reference_wide_csv(path, policy):
    """The wide-CSV loader that reads every cell as text and transposes the
    rows into columns before parsing any of them."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ts.FormatError(f"{path}: empty file")
    header = rows[0]
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) > len(header):
            raise ts.FormatError(f"{path}:{lineno}: row has {len(row)} cells, header has {len(header)}")
    columns = list(zip_longest(*rows[1:], fillvalue=""))
    columns += [()] * (len(header) - len(columns))
    entries = []
    for sid, cells in zip(header, columns):
        # trailing empty cells are padding, not missing values
        last = len(cells)
        while last and cells[last - 1].strip() == "":
            last -= 1
        cells = cells[:last]
        try:
            values = np.array([float(c) if c.strip() else math.nan for c in cells])
        except ValueError:
            for i, cell in enumerate(cells):
                _parse_cell(cell, f"{path}:{i + 2}")  # raises the FormatError for the first bad cell
            raise
        entries.append(_finish_series(sid, values, policy, path))
    return entries


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


def reference_query_skip(series, h):
    """Why the scan skips the query of ``series``, its last h values, or
    None: checked on the series alone, in this order, fewer than h values,
    a missing value among them, and all of them equal."""
    n = len(series.values)
    if n < h:
        return TOO_SHORT
    if any(p >= n - h for p in series.missing):
        return MISSING_IN_QUERY
    tail = series.values[n - h:]
    if np.all(tail == tail[0]):
        return ZERO_VARIANCE_QUERY
    return None


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


def reference_layout(collection):
    """``SeriesCollection._layout`` as Python lists, built a series at a
    time: its values and then one separator 0.0, the separator and the
    series' missing positions marked as gaps."""
    flat, first, lengths, gaps = [], [], [], []
    for s in collection:
        first.append(len(flat))
        lengths.append(len(s.values))
        flat += s.values.tolist() + [0.0]
        gaps += [i in s.missing for i in range(len(s.values))] + [True]
    return flat, first, lengths, gaps


def reference_heatmap(matrix: MatchMatrix, path, label_angle: float = 90.0) -> None:
    """Reference heatmap writer: one f-string per cell, the whole document
    built in memory and written at once.

    The per-cell layout ``render_heatmap`` must reproduce byte for byte; it
    shares only the colour ramp and the escaping with it.
    """
    n_rows, n_cols = matrix.counts.shape
    size = max(n_rows, n_cols)
    cell = 28.0 if size <= 30 else max(4.0, 840.0 / size)
    font = max(3.0, min(12.0, cell * 0.55))
    label_space = 10 + font * max((len(s) for s in matrix.row_ids + matrix.col_ids), default=1) * 0.62
    left = label_space
    top = label_space
    legend_h = 46.0
    width = left + n_cols * cell + 20
    height = top + n_rows * cell + legend_h + 20
    max_count = int(matrix.counts.max()) if matrix.counts.size else 0
    with_titles = size <= 50

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]
    for i in range(n_rows):
        for j in range(n_cols):
            count = int(matrix.counts[i, j])
            x = left + j * cell
            y = top + i * cell
            if count == 0:
                style = 'fill="#ffffff" stroke="#d9d9d9" stroke-width="0.4"'
            else:
                frac = 1.0 if max_count <= 1 else 0.25 + 0.75 * (count / max_count)
                style = f'fill="{_ramp(frac)}" stroke="#555555" stroke-width="0.4"'
            title = ""
            if with_titles:
                label = _escape(f"{matrix.row_ids[i]} -> {matrix.col_ids[j]}: {count}")
                title = f"<title>{label}</title>"
            parts.append(
                f'<rect class="cell" x="{x:.1f}" y="{y:.1f}" '
                f'width="{cell:.1f}" height="{cell:.1f}" {style}>{title}</rect>'
            )
    for i, sid in enumerate(matrix.row_ids):
        y = top + i * cell + cell / 2 + font / 3
        parts.append(
            f'<text x="{left - 4:.1f}" y="{y:.1f}" font-size="{font:.1f}" '
            f'text-anchor="end" font-family="sans-serif">{_escape(sid)}</text>'
        )
    for j, sid in enumerate(matrix.col_ids):
        x = left + j * cell + cell / 2
        y = top - 4
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{font:.1f}" text-anchor="start" '
            f'font-family="sans-serif" transform="rotate({-label_angle:g} {x:.1f} {y:.1f})"'
            f'>{_escape(sid)}</text>'
        )
    ly = top + n_rows * cell + 18
    parts.append(
        f'<rect x="{left:.1f}" y="{ly:.1f}" width="14" height="14" '
        f'fill="#ffffff" stroke="#d9d9d9" stroke-width="0.4"/>'
        f'<text x="{left + 18:.1f}" y="{ly + 11:.1f}" font-size="11" '
        f'font-family="sans-serif">0 matches</text>'
    )
    if max_count > 0:
        steps = sorted({1, max(1, max_count // 2), max_count})
        x = left + 110
        for count in steps:
            frac = 1.0 if max_count <= 1 else 0.25 + 0.75 * (count / max_count)
            parts.append(
                f'<rect x="{x:.1f}" y="{ly:.1f}" width="14" height="14" '
                f'fill="{_ramp(frac)}" stroke="#555555" stroke-width="0.4"/>'
                f'<text x="{x + 18:.1f}" y="{ly + 11:.1f}" font-size="11" '
                f'font-family="sans-serif">{count}</text>'
            )
            x += 56
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def reference_matrix_csv(matrix: MatchMatrix, path) -> None:
    """Reference matrix CSV writer: ``int()`` of each count, one at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + matrix.col_ids)
        for sid, row in zip(matrix.row_ids, matrix.counts):
            writer.writerow([sid] + [int(v) for v in row])


def reference_collapse(items):
    """Reference merge of runs of consecutive offsets: one record or reasoned
    match at a time, the strongest member of a run picked by ``max``, so the
    first of equal |r| wins. Returns a list of the input's row type."""
    def record(item):
        return item.base if isinstance(item, ts.ReasonedMatch) else item

    runs = []
    for item in items:
        m, last = record(item), record(runs[-1][-1]) if runs else None
        if last and (m.query_id, m.donor_id, m.start) == (last.query_id, last.donor_id, last.start + 1):
            runs[-1].append(item)
        else:
            runs.append([item])
    merged = []
    for run in runs:
        first, last = record(run[0]), record(run[-1])
        best = max(run, key=lambda item: abs(record(item).r))
        base = ts.MatchRecord(first.query_id, first.donor_id, first.start, last.end, record(best).r)
        merged.append(replace(best, base=base) if isinstance(best, ts.ReasonedMatch) else base)
    return merged


_JSON_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value):
    text = float.__repr__(value)
    return _JSON_FLOAT_NAMES.get(text, text)


def _json_entry(match, reasoned):
    text = (f'  {{\n   "query_id": {encode_basestring_ascii(match.query_id)},'
            f'\n   "donor_id": {encode_basestring_ascii(match.donor_id)},'
            f'\n   "start": {match.start},\n   "end": {match.end},'
            f'\n   "r": {_json_float(match.r)}')
    if reasoned is None:
        return text + "\n  }"
    fit = reasoned.fit
    text += (f',\n   "kind": {encode_basestring_ascii(reasoned.kind.value)},'
             f'\n   "m": {_json_float(fit.m)},\n   "c": {_json_float(fit.c)}')
    if not reasoned.useful:
        return text + ',\n   "useful": false\n  }'
    values = reasoned.predicted_test
    text += ',\n   "useful": true,\n   "predicted_test": [\n    '
    return text + ",\n    ".join("null" if v is None else _json_float(v) for v in values) + "\n   ]\n  }"


def reference_json_report(report, reasoned, horizon, path) -> None:
    """Reference JSON report writer: one record, and one reasoned match, at
    a time, with ``json.dumps`` only for the config's numbers. ``horizon``
    is the one the report records; ``reasoned`` is a list or None."""
    cfg = report.config
    config = f'{{\n  "h": {json.dumps(cfg.h)},\n  "cutoff": {json.dumps(cfg.cutoff)}'
    if reasoned is not None:
        config += f',\n  "horizon": {json.dumps(horizon)}'
    skipped = ",\n".join([f'  {{\n   "id": {encode_basestring_ascii(sid)},'
                          f'\n   "reason": {encode_basestring_ascii(reason)}\n  }}'
                          for sid, reason in report.skipped_queries])
    skipped = f"[\n{skipped}\n ]" if skipped else "[]"
    entries = [_json_entry(m, None if reasoned is None else reasoned[i]) for i, m in enumerate(report.matches)]
    matches = "[\n" + ",\n".join(entries) + "\n ]" if entries else "[]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "config": {config}\n }},\n "skipped_queries": {skipped},\n "matches": {matches}\n}}\n')


def reference_csv_report(report, reasoned, path) -> None:
    """Reference CSV report writer: one ``csv.writer`` row per record, and
    per reasoned match, with floats formatted ``format(x, ".12g")`` and
    useful in lower case; ``reasoned`` is a list or None."""
    header = ["query_id", "donor_id", "start", "end", "r"]
    if reasoned is not None:
        header += ["kind", "m", "c", "useful"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, m in enumerate(report.matches):
            row = [m.query_id, m.donor_id, m.start, m.end, format(m.r, ".12g")]
            if reasoned is not None:
                rm = reasoned[i]
                row += [rm.kind.value, format(rm.fit.m, ".12g"), format(rm.fit.c, ".12g"),
                        "true" if rm.useful else "false"]
            writer.writerow(row)


def reference_match_line(m) -> str:
    """Reference stdout line of one match of ``scan``, without its newline."""
    return f"{m.query_id} -> {m.donor_id}: {m.start}-{m.end}, r={m.r:.3f}"


def reference_explain_lines(reasoned) -> list:
    """Reference stdout lines of ``explain``, one per reasoned match."""
    lines = []
    for rm in reasoned:
        line = f"{reference_match_line(rm.base)}, {rm.kind.value}, "
        if rm.useful:
            predicted = " ".join("?" if v is None else format(v, ".6g") for v in rm.predicted_test)
            line += f"useful; predicted test: {predicted}"
        else:
            line += "not useful"
        lines.append(line + "\n")
    return lines


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
