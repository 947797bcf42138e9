"""Result summaries: match matrix, JSON/CSV serialization, SVG heatmap.

The JSON schema is fixed (key order as written)::

    { "config": {"h": .., "cutoff": .., "horizon": ..},
      "skipped_queries": [{"id": .., "reason": ..}, ..],
      "matches": [{"query_id": .., "donor_id": .., "start": .., "end": ..,
                   "r": .., "kind": .., "m": .., "c": .., "useful": ..,
                   "predicted_test": [..]}, ..] }

The reason fields (horizon, kind, m, c, useful, predicted_test) appear only
in explained reports, and predicted_test only on useful matches.

A JSON report holds exactly the bytes of ``json.dump(payload, fh,
indent=1)`` and one trailing newline: every item on a line of its own,
indented by one space per level and followed by "," when another item
follows; ": " between key and value; strings ASCII-escaped, with
``\\uXXXX`` for non-ASCII and control characters; floats as ``repr``
writes them, with json's NaN and Infinity; ``[]`` and ``{}`` when empty.

The JSON and CSV writers read the report's ``MatchTable`` and, when it is
explained, its ``ReasonTable`` (a list of reasoned matches is made one).
``_report_rows`` fills their rows from one ROWS_PER_CHUNK chunk at a time
of the columns each writes, as Python values, and each chunk is written as
soon as it is built: no payload dict, row object or list of the report's
size is made. The CSV writer reads no other column; the JSON writer reads
the predicted block through ``ReasonTable.render_predicted`` and fills one
``%`` template per entry, with the ids encoded once per table and each
float column repr'd by one ``_json_floats`` call per chunk. r, m, c and
each predicted value are written as the float64 they are stored as, a
missing one as null. The document up to the matches is ``json.dumps`` of
the payload without them, so the config's numbers are written, or
rejected, as ``json.dump`` would. ``_json_parts`` is the one layout:
``report_payload`` is ``json.loads`` of its text.

The SVG heatmap is written a row at a time: each row of cells is one join
of strings formatted once per column, once per row and once per distinct
count, and goes to the file as soon as it is built, so neither the cells
nor the document are held in memory. Its bytes are those of the per-cell
writer ``reference_heatmap`` in the tests, which compare the two. The
matrix CSV is likewise written from one int cast of the counts, a row at a
time. Both writers check everything that can fail before they open the
file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .collection import SeriesCollection, _is_real
from .errors import ConfigError, ConsistencyError
from .reasons import _KIND_TEXTS, ReasonConfig, ReasonTable, _locate
from .scan import ROWS_PER_CHUNK, LeakReport, MatchRecord, ScanConfig


@dataclass
class MatchMatrix:
    """Query x donor grid of match counts, in collection order."""

    row_ids: list[str]
    col_ids: list[str]
    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())


def build_matrix(report: LeakReport, collection: SeriesCollection) -> MatchMatrix:
    """Count matches per (query, donor) cell; zero rows/columns are kept.

    Raises ``reason_report``'s ConsistencyError for the first match in
    report order that fails a record check of ``reasons._locate``.
    """
    qi, di = _locate(report.matches, collection)[:2]
    counts = np.zeros((len(collection),) * 2, dtype=int)
    np.add.at(counts, (qi, di), 1)
    return MatchMatrix(collection.ids(), collection.ids(), counts)


def _tables(report: LeakReport, reasoned, horizon: int | None):
    """The tables a report is written from, the matches' and, for an
    explained report, the reasons', and the horizon it records (None for a
    plain report): ``horizon``, or h when it is None.

    ``ReasonConfig`` checks the horizon. Raises ConsistencyError when the
    reasons do not pair up with the matches or state another horizon: the
    width of their predicted block, which is ``reason_report``'s horizon
    even when no match is useful.
    """
    if reasoned is None:
        return (report.matches,), None
    reasoned = ReasonTable.from_rows(reasoned)
    if len(reasoned) != len(report.matches):
        raise ConsistencyError(f"{len(reasoned)} reasoned matches for {len(report.matches)} match records")
    horizon = ReasonConfig(horizon).horizon or report.config.h
    # a list of ReasonedMatches with no useful one gives a (0, 0) block, which states none
    if reasoned.horizon != horizon and any(reasoned.predicted.shape):
        raise ConsistencyError(f"each useful match predicts {reasoned.horizon} values by these reasons, "
                               f"the horizon is {horizon}")
    return (report.matches, reasoned), horizon


def report_payload(report: LeakReport, reasoned=None, horizon: int | None = None) -> dict:
    """JSON-ready dict for a report, explained or plain: ``json.loads`` of its JSON text."""
    return json.loads("".join(_json_parts(report, *_tables(report, reasoned, horizon))))


_JSON_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# the "matches" items as json.dump(indent=1) lays out their dicts at that
# depth; predicted_test is never empty, and its values are one level below
# the entry's keys
_JSON_MATCH = '  {\n   "query_id": %s,\n   "donor_id": %s,\n   "start": %s,\n   "end": %s,\n   "r": %s'
_JSON_PLAIN = _JSON_MATCH + "\n  }"
_JSON_EXPLAINED = _JSON_MATCH + ',\n   "kind": %s,\n   "m": %s,\n   "c": %s,\n   "useful": %s\n  }'
_JSON_USEFUL = 'true,\n   "predicted_test": [\n    %s\n   ]'
_JSON_KINDS = list(map(encode_basestring_ascii, _KIND_TEXTS))


def _json_floats(values) -> list:
    """The JSON text of each float of a list: its repr, or json's NaN, Infinity or -Infinity."""
    texts = list(map(float.__repr__, values))
    # a non-finite value makes the sum non-finite; an overflow may too, and costs only the lookups
    return texts if math.isfinite(sum(values)) else [_JSON_FLOAT_NAMES.get(t, t) for t in texts]


def _report_rows(tables, ids, floats, kinds, useful):
    """The rows of a report, ROWS_PER_CHUNK at a time, each a tuple filled
    from the chunk's columns: the text in ``ids`` of each id, start, end and
    ``floats`` of r, then for an explained report the text in ``kinds`` of
    each kind code, ``floats`` of m and of c, and ``useful(reasons, lo, hi)``."""
    matches = tables[0]
    for lo in range(0, len(matches), ROWS_PER_CHUNK):
        hi = lo + ROWS_PER_CHUNK
        *fields, r = matches.columns(lo, hi, ids)
        fields.append(floats(r))
        for reasons in tables[1:]:
            fields += ([kinds[k] for k in reasons.kind[lo:hi].tolist()], floats(reasons.m[lo:hi].tolist()),
                       floats(reasons.c[lo:hi].tolist()), useful(reasons, lo, hi))
        yield zip(*fields)


def _json_useful(reasons, lo, hi) -> list:
    """The JSON "useful" value of rows lo..hi-1, and a useful one's predicted_test."""
    return ["false" if p is None else _JSON_USEFUL % ",\n    ".join(p)
            for p in reasons.render_predicted(lo, hi, _json_floats, "null")]


def _json_parts(report: LeakReport, tables, horizon: int | None):
    """The text of a JSON report in parts: the document up to the matches,
    then ROWS_PER_CHUNK entries at a time, then the rest."""
    config = {"h": report.config.h, "cutoff": report.config.cutoff}
    if horizon is not None:
        config["horizon"] = horizon
    skipped = [{"id": sid, "reason": reason} for sid, reason in report.skipped_queries]
    # json.dumps gives the value of the empty "matches" as "[]\n}"
    yield json.dumps({"config": config, "skipped_queries": skipped, "matches": []}, indent=1)[:-4]
    template = _JSON_PLAIN if horizon is None else _JSON_EXPLAINED
    ids = [encode_basestring_ascii(sid) for sid in tables[0].ids]
    sep = "[\n"
    for rows in _report_rows(tables, ids, _json_floats, _JSON_KINDS, _json_useful):
        yield sep + ",\n".join([template % row for row in rows])
        sep = ",\n"
    yield "\n ]\n}\n" if len(tables[0]) else "[]\n}\n"


def _csv_floats(values) -> list:
    return [format(v, ".12g") for v in values]


def _csv_useful(reasons, lo, hi) -> list:
    return ["true" if u else "false" for u in reasons.useful[lo:hi].tolist()]


def write_report(report: LeakReport, path, format="json", reasoned=None,
                 horizon: int | None = None) -> None:
    """Serialize a (possibly explained) report to JSON or flat CSV.

    ``reasoned`` is a ReasonTable or a sequence of ReasonedMatches, one per
    match, stating the horizon the report records: ``horizon``, or else h
    (``_tables``). Everything that can raise runs before the file is opened.
    """
    if format not in ("json", "csv"):
        raise ConsistencyError(f"unknown report format {format!r}")
    tables, horizon = _tables(report, reasoned, horizon)
    if format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_json_parts(report, tables, horizon))
    else:
        columns = ["query_id", "donor_id", "start", "end", "r"]
        if horizon is not None:
            columns += ["kind", "m", "c", "useful"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rows in _report_rows(tables, tables[0].ids, _csv_floats, _KIND_TEXTS, _csv_useful):
                writer.writerows(rows)


def read_report(path) -> dict:
    """Parse a JSON report back into its payload dict."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report_from_payload(payload: dict) -> LeakReport:
    """Rebuild a LeakReport from a parsed JSON payload.

    Only the serialized fields are recovered: the config keeps h and cutoff,
    and workers, which a report does not record, comes back as its default.
    A missing key, or a list where the schema has an object, is a ConsistencyError;
    ``ScanConfig`` rejects an h or cutoff of the wrong type, ``MatchTable.from_rows``
    a match field and ``LeakReport`` a skipped query's id or reason.
    """
    try:
        cutoff = payload["config"]["cutoff"]
        cfg = ScanConfig(h=payload["config"]["h"], cutoff=float(cutoff) if _is_real(cutoff) else cutoff)
        matches = [MatchRecord(e["query_id"], e["donor_id"], e["start"], e["end"], e["r"])
                   for e in payload["matches"]]
        return LeakReport(cfg, matches, [(e["id"], e["reason"]) for e in payload["skipped_queries"]])
    except (KeyError, TypeError) as exc:  # a key missing, or a list where the schema has an object
        raise ConsistencyError(f"report payload is not an object with the report's keys: {exc!r}") from None


def _int_counts(matrix: MatchMatrix) -> np.ndarray:
    """The counts as an int array, each count what ``int()`` makes of it.

    One cast, not a call per count. Raises ConsistencyError when the ids do
    not match the counts' shape, or for a float count that int() rejects
    (NaN, an infinity) or that int64 cannot hold, which the cast would not
    convert as int() does.
    """
    counts = matrix.counts
    shape = (len(matrix.row_ids), len(matrix.col_ids))
    if counts.shape != shape:
        raise ConsistencyError(f"counts of shape {counts.shape} for ids of shape {shape}")
    if counts.dtype.kind == "f" and not (np.abs(counts) < 2.0 ** 63).all():
        raise ConsistencyError("a float count is not finite or does not fit in int64")
    return counts.astype(int, copy=False)


def write_matrix_csv(matrix: MatchMatrix, path) -> None:
    """Matrix as CSV: first column query ids, header row donor ids."""
    counts = _int_counts(matrix)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + matrix.col_ids)
        writer.writerows([sid] + row.tolist() for sid, row in zip(matrix.row_ids, counts))


def _escape(text: str) -> str:
    # the XML escapes of &, > and <, in that order
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ramp(frac: float) -> str:
    # light steel blue -> dark navy
    lo, hi = (222, 235, 247), (8, 48, 107)
    rgb = tuple(round(l + (h - l) * frac) for l, h in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _cell_style(count: int, max_count: int) -> str:
    if count == 0:
        return 'fill="#ffffff" stroke="#d9d9d9" stroke-width="0.4"'
    frac = 1.0 if max_count <= 1 else 0.25 + 0.75 * (count / max_count)
    return f'fill="{_ramp(frac)}" stroke="#555555" stroke-width="0.4"'


def render_heatmap(matrix: MatchMatrix, path, label_angle: float = 90.0) -> None:
    """Write the match matrix as a standalone SVG heatmap.

    One rect per cell; zero cells are white with a pale border so they read
    as empty, nonzero cells follow a blue ramp with a legend. Up to 50
    series a side, each cell holds a ``<title>`` naming its pair and count.
    Column labels are rotated by ``label_angle`` degrees, which must be a
    real number, not a bool, with a finite float (ConfigError otherwise).

    The cells are written a row at a time, each row one join of strings
    formatted once per column, once per row and once per distinct count, so
    memory does not grow with the number of cells. Everything that can
    raise runs before the file is opened.
    """
    try:  # a Fraction is drawn as its float; an int past float's range overflows
        angle = float(label_angle) if _is_real(label_angle) else math.nan
    except OverflowError:
        angle = math.inf
    if not math.isfinite(angle):
        raise ConfigError(f"label_angle must be finite and a real number, got {label_angle!r}")
    counts = _int_counts(matrix)
    n_rows, n_cols = counts.shape
    size = max(n_rows, n_cols)
    cell = 28.0 if size <= 30 else max(4.0, 840.0 / size)
    font = max(3.0, min(12.0, cell * 0.55))
    label_space = 10 + font * max((len(s) for s in matrix.row_ids + matrix.col_ids), default=1) * 0.62
    left = label_space
    top = label_space
    legend_h = 46.0
    width = left + n_cols * cell + 20
    height = top + n_rows * cell + legend_h + 20
    max_count = int(counts.max()) if counts.size else 0
    with_titles = size <= 50

    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>'
    )
    # every cell starts a line of its own, so a row is one join with no
    # separator
    cell_x = [f'\n<rect class="cell" x="{left + j * cell:.1f}" y="' for j in range(n_cols)]
    # escaping maps each character on its own, so a title's parts are
    # escaped apart and its " -> " is written " -&gt; "
    row_titles = [f"><title>{_escape(sid)} -&gt; " for sid in matrix.row_ids]
    col_titles = [_escape(sid) for sid in matrix.col_ids]
    parts = []
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
            f'font-family="sans-serif" transform="rotate({-angle:g} {x:.1f} {y:.1f})"'
            f'>{_escape(sid)}</text>'
        )
    ly = top + n_rows * cell + 18
    steps = sorted({1, max(1, max_count // 2), max_count}) if max_count > 0 else []
    x = left  # the zero swatch, then one per step: 110 and then 56 apart
    for count, label in [(0, "0 matches")] + [(count, count) for count in steps]:
        parts.append(
            f'<rect x="{x:.1f}" y="{ly:.1f}" width="14" height="14" {_cell_style(count, max_count)}/>'
            f'<text x="{x + 18:.1f}" y="{ly + 11:.1f}" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
        x += 56 if count else 110
    parts.append("</svg>\n")
    styles = {}  # count -> the style of its cells, added as counts first appear
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for i, values in enumerate(counts):
            row = values.tolist()
            for count in set(row).difference(styles):
                styles[count] = _cell_style(count, max_count)
            at = f'{top + i * cell:.1f}" width="{cell:.1f}" height="{cell:.1f}" '
            if with_titles:
                title = row_titles[i]
                fh.write("".join([f"{x}{at}{styles[count]}{title}{col}: {count}</title></rect>"
                                  for x, count, col in zip(cell_x, row, col_titles)]))
            else:
                fh.write("".join([f"{x}{at}{styles[count]}></rect>"
                                  for x, count in zip(cell_x, row)]))
        fh.write("\n" + "\n".join(parts))
