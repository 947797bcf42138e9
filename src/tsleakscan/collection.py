"""Loading, validation and serialization of time-series collections.

Three on-disk formats are supported:

* ``long-csv`` (canonical): header ``series_id,index,value``, one row per
  observation, ``index`` 1-based and contiguous per series.
* ``wide-csv``: header row of series ids, one column per series, shorter
  series padded at the bottom: a column's trailing blank or whitespace-only
  cells are padding, while a trailing ``nan`` cell is a missing value. The
  writer marks every missing value ``nan``.
* ``json``: object mapping id -> array of numbers, ``null`` marking a
  missing value.

Every non-finite value is missing. The CSV loaders skip a UTF-8 byte-order
mark, which Excel and R write; a JSON file that starts with one gets
``json.loads``'s error. Collection order follows input order, and fixes
the row and column order of the match matrix.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import re
import struct
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

REJECT = "reject"
SPLIT_SKIP = "split-skip"

# a blank wide-CSV cell, a NaN whose payload float() never gives, unlike a "nan" cell
_BLANK_BITS = 0x7FF8_0000_0000_B1A2
_BLANK = np.uint64(_BLANK_BITS).view(np.float64).item()
_FLOAT64 = struct.Struct("d")  # native, as numpy reads a buffer

# the longest a series, a segment or a horizon can be: no float64 series is
# longer, as its bytes would pass the largest index
MAX_LENGTH = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class MissingPolicy:
    """How to treat missing observations during ingestion.

    ``reject`` aborts on the first missing value; ``split-skip`` admits the
    series and records the missing positions so that the scanner can skip
    every window overlapping them.
    """

    mode: str = REJECT

    def __post_init__(self):
        if self.mode not in (REJECT, SPLIT_SKIP):
            raise ValidationError(f"unknown missing policy {self.mode!r}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class Series:
    """One named univariate series.

    ``values`` is a finite float vector; positions listed in ``missing``
    hold a neutral filler (0.0) and are only ever used to decide which
    windows to skip, never as data. A collection copies the values once and
    makes ``values`` a read-only view of its layout.
    """

    id: str
    values: np.ndarray
    missing: tuple[int, ...] = ()  # 0-based positions

    def __len__(self):
        return len(self.values)


@dataclass
class SeriesCollection:
    """Ordered, immutable set of named series loaded from one source. It copies
    their values once, into ``_layout``, and each ``values`` is a read-only view of it."""

    entries: list[Series]
    _index: dict[str, int] = field(init=False, repr=False)
    _laid_out: tuple = field(init=False, repr=False, compare=False)
    _gaps_at: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index, arrays = {}, []
        for pos, s in enumerate(self.entries):
            if not isinstance(s.id, str):
                raise ValidationError(f"series id {s.id!r} is not a string")
            if s.id in self._index:
                raise ValidationError(f"duplicate series id {s.id!r}")
            arr = np.asarray(s.values, dtype=np.float64)
            if arr.ndim != 1:
                raise ValidationError(f"series {s.id!r} values are {arr.ndim}-dimensional, not 1-dimensional")
            if len(arr) < 1:
                raise ValidationError(f"series {s.id!r} has no observations")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"series {s.id!r} contains non-finite values")
            if not all(_is_int(p) and 0 <= p < len(arr) for p in s.missing):
                raise ValidationError(f"series {s.id!r} has a missing position not in 0..{len(arr) - 1}")
            arrays.append(arr)
            object.__setattr__(s, "missing", tuple(sorted({int(p) for p in s.missing})))
            self._index[s.id] = pos
        lengths = np.array([len(arr) for arr in arrays], dtype=int)
        first = np.cumsum(lengths + 1) - lengths - 1
        flat = np.zeros(lengths.sum() + len(lengths))
        for arr, at in zip(arrays, first.tolist()):
            flat[at:at + len(arr)] = arr
        gaps = np.zeros(len(flat), dtype=bool)
        gaps[[at + p for s, at in zip(self.entries, first.tolist()) for p in (*s.missing, len(s))]] = True
        self._laid_out, self._gaps_at = (flat, first, lengths, gaps), np.flatnonzero(gaps)
        for part in (*self._laid_out, self._gaps_at):
            part.flags.writeable = False
        for s, at in zip(self.entries, first.tolist()):
            object.__setattr__(s, "values", flat[at:at + len(s)])

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, series_id):
        return series_id in self._index

    def ids(self) -> list[str]:
        return [s.id for s in self.entries]

    def get(self, series_id: str) -> Series:
        try:
            return self.entries[self._index[series_id]]
        except KeyError:
            raise KeyError(f"no series named {series_id!r}") from None

    def _layout(self):
        """``(flat, first, lengths, gaps)``, read-only: series i at
        ``flat[first[i]:][:lengths[i]]``, each followed by a separator (0.0); ``gaps`` marks
        the missing values and the separators, so a window of ``flat`` free of gaps lies in one series."""
        return self._laid_out

    def _gap_positions(self):
        """The positions of the gaps of ``_layout``, read-only."""
        return self._gaps_at


def _gather(flat, first, width):
    """The (k, width) block of ``flat[first[i]:first[i] + width]`` rows."""
    # no index of width positions for no rows, however wide
    return flat[first[:, None] + np.arange(width)] if len(first) else np.empty((0, width), flat.dtype)


def from_dict(data) -> SeriesCollection:
    """Build a collection from a mapping id -> sequence of finite reals."""
    return SeriesCollection([Series(str(k), v) for k, v in data.items()])


def _parse_cell(text, where):
    """Parse one CSV cell as a float, NaN for an empty cell."""
    text = text.strip()
    try:
        return float(text) if text else math.nan
    except ValueError:
        raise FormatError(f"{where}: cannot parse {text!r} as a number") from None


def _finish_series(sid, values, policy, where):
    """The series ``sid`` of ``values``, every non-finite one missing: rejected, or 0.0 at a listed position."""
    sid = sid.strip()
    if sid == "":
        raise FormatError(f"{where}: empty series id")
    values = np.asarray(values, dtype=np.float64)
    gaps = ~np.isfinite(values)
    missing = np.flatnonzero(gaps).tolist()
    if policy.mode == REJECT and missing:
        raise ValidationError(
            f"{where}: series {sid!r} has a missing value at position {missing[0] + 1} "
            f"(policy is {REJECT!r})"
        )
    values[gaps] = 0.0
    return Series(sid, values, tuple(missing))


def _load_wide_csv(path, policy):
    grid, bad = bytearray(), {}  # bad: column -> the FormatError of its first bad cell
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        row_bytes = struct.Struct(f"{len(header)}d")
        for lineno, row in enumerate(reader, start=2):
            if len(row) > len(header):
                raise FormatError(f"{path}:{lineno}: row has {len(row)} cells, header has {len(header)}")
            try:  # float reads a number with whitespace around it; a whitespace-only cell raises
                cells = [float(c) if c else _BLANK for c in row]
            except ValueError:
                cells = []
                for j, c in enumerate(row):
                    try:
                        cells.append(_parse_cell(c, f"{path}:{lineno}") if c.strip() else _BLANK)
                    except FormatError as exc:
                        bad.setdefault(j, exc)
                        cells.append(math.nan)
            grid += row_bytes.pack(*cells, *[_BLANK] * (len(header) - len(row)))
    grid = np.frombuffer(grid).reshape(len(grid) // max(row_bytes.size, 1), len(header))
    entries = []
    for j, sid in enumerate(header):
        if j in bad:  # raised only now: an earlier column's error comes first
            raise bad[j]
        filled = np.flatnonzero(grid[:, j].view(np.uint64) != _BLANK_BITS)
        length = filled[-1] + 1 if len(filled) else 0  # the blanks after it are padding
        entries.append(_finish_series(sid, grid[:length, j], policy, path))
    return entries


_LONG_HEADER = "series_id,index,value"
_LONG_ROW = np.dtype([("id", object), ("index", np.int64), ("value", np.float64)])
_LONG_CHUNK = 1 << 15  # characters read at a time; 4 B each in the StringIO that np.loadtxt reads


def _long_csv_rows(path):
    """(id, values) per series of the long CSV ``path``, read a row at a time by
    ``csv.reader``, ``int`` and ``float``; the FormatError of the first bad row."""
    values: dict[str, bytearray] = {}  # float64s, in order of first appearance
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        if [h.strip() for h in header] != _LONG_HEADER.split(","):
            raise FormatError(f"{path}:1: expected header {_LONG_HEADER!r}, got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(c.strip() == "" for c in row):
                continue
            if len(row) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 cells, got {len(row)}")
            sid = row[0].strip()
            if sid == "":
                raise FormatError(f"{path}:{lineno}: empty series_id")
            try:
                idx = int(row[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: index {row[1]!r} is not an integer") from None
            series = values.setdefault(sid, bytearray())
            expected = len(series) // _FLOAT64.size + 1
            if idx != expected:
                raise FormatError(f"{path}:{lineno}: series {sid!r} index {idx} is not contiguous "
                                  f"(expected {expected})")
            series += _FLOAT64.pack(_parse_cell(row[2], f"{path}:{lineno}"))
    return [(sid, np.frombuffer(series)) for sid, series in values.items()]


def _add_long_rows(text, values, runs):
    """Parse the whole lines ``text`` with np.loadtxt onto ``values`` (float64s)
    and ``runs`` (id -> rows, in file order); False where the row loop may read
    them otherwise (see ``_long_csv_runs``)."""
    # csv.reader reads quotes and rejects a field over its limit; Python < 3.11 rejects a NUL
    if '"' in text or "\0" in text or len(text) > csv.field_size_limit():
        return False
    rows = np.loadtxt(io.StringIO(text), dtype=_LONG_ROW, delimiter=",", comments=None, ndmin=1)
    ids = rows["id"]
    heads = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])  # the first row of each run
    lengths = np.diff(np.r_[heads, len(ids)])
    last = next(reversed(runs), None)
    carried = runs[last] if ids[0] == last else 0  # the rows of a run the last chunk began
    # each run counts 1, 2, ... from its first row, a carried run from its rows so far
    expected = np.arange(1, len(ids) + 1) - np.repeat(heads, lengths)
    expected[:lengths[0]] += carried
    if not np.array_equal(rows["index"], expected):
        return False
    if carried:
        runs[last] += int(lengths[0])
        heads, lengths = heads[1:], lengths[1:]
    for sid, n in zip(ids[heads].tolist(), lengths.tolist()):
        if not sid or sid != sid.strip() or sid in runs:
            return False
        runs[sid] = n
    values += rows["value"].tobytes()
    return True


def _long_csv_runs(path):
    """(id, values) per series of the long CSV ``path``, parsed by np.loadtxt a chunk of
    whole lines at a time; None for a file that ``_long_csv_rows`` may read otherwise: one
    with a header not written as is, a quote, a lone CR, a NUL, a whitespace-only, short or
    long row, lines read at once longer than csv's field limit, an id not stripped or empty,
    a cell that numpy does not parse (an empty value, ``1_0``, a digit outside ASCII, ``1.0``
    as an index, ...), an index out of order or an id in two runs of rows. The row loop reads
    such a file, or names its first bad row."""
    values, runs = bytearray(), {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # some numpy versions read "1.0" as the index 1, with a warning
            if fh.readline() not in (_LONG_HEADER, _LONG_HEADER + "\n", _LONG_HEADER + "\r\n"):
                return None
            text, more = "", True
            while more:
                more = fh.read(_LONG_CHUNK)
                text += more
                cut = text.rfind("\n") + 1 if more else len(text)  # the last line may lack its newline
                if cut and not _add_long_rows(text[:cut], values, runs):
                    return None
                text = text[cut:]
    except (ValueError, Warning):  # a decoding error, or a cell numpy does not parse
        return None
    flat, at = np.frombuffer(values), np.cumsum([0, *runs.values()]).tolist()
    return [(sid, flat[a:b]) for sid, a, b in zip(runs, at, at[1:])]


def _load_long_csv(path, policy):
    series = _long_csv_runs(path)
    if series is None:
        series = _long_csv_rows(path)
    return [_finish_series(sid, values, policy, path) for sid, values in series]


_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _json_values(path, sid, raw):
    """The float64 array of the JSON value of series ``sid``, NaN for each
    null, or the FormatError that names what in it is not a number."""
    if not isinstance(raw, list):
        return FormatError(f"{path}: series {sid!r} is not an array")
    if not set(map(type, raw)) <= {float, type(None)}:
        i = next(i for i, item in enumerate(raw) if not (item is None or isinstance(item, float)))
        return FormatError(f"{path}: series {sid!r} element {i + 1} is not a number")
    return np.array(raw, dtype=np.float64)


def _json_members(text, decoder, convert):
    """[(key, convert(key, value))] of the members of the JSON object
    ``text``, each value converted as soon as it is read; None when ``text``
    is not one object."""
    space = _JSON_SPACE.match
    pos = space(text).end()
    if not text.startswith("{", pos):
        return None
    pos, members = space(text, pos + 1).end(), []
    while members or not text.startswith("}", pos):
        if not text.startswith('"', pos):
            return None
        key, pos = decoder.raw_decode(text, pos)
        pos = space(text, pos).end()
        if not text.startswith(":", pos):
            return None
        value, pos = decoder.raw_decode(text, space(text, pos + 1).end())
        members.append((key, convert(key, value)))
        pos = space(text, pos).end()
        if not text.startswith(",", pos):
            break
        pos = space(text, pos + 1).end()
    if not text.startswith("}", pos):
        return None
    return members if space(text, pos + 1).end() == len(text) else None


def _json_series(path):
    """(id, values) per member of the JSON object in ``path``: the values'
    float64 array, or the FormatError of the first element that is not a
    number; text that is not one object is left to json.loads, for its error."""
    import json

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # an object reads as its (key, value) pairs, so a repeated id reaches
    # SeriesCollection; a number reads as a float, as in the CSV loaders,
    # so an integer literal too large for a float is inf
    options = {"object_pairs_hook": tuple, "parse_int": float}
    convert = partial(_json_values, path)
    try:
        members = _json_members(text, json.JSONDecoder(**options), convert)
    except ValueError:
        members = None
    if members is None:
        try:
            json.loads(text, **options)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        raise FormatError(f"{path}: top-level JSON value must be an object")
    return members


def _load_json(path, policy):
    entries = []  # made once the file's text is gone, so the text and the copies never meet
    for sid, values in _json_series(path):
        if isinstance(values, FormatError):
            raise values
        entries.append(_finish_series(sid, values, policy, path))
    return entries


_LOADERS = {"wide-csv": _load_wide_csv, "long-csv": _load_long_csv, "json": _load_json}


def load_collection(path, format="long-csv", policy=MissingPolicy()) -> SeriesCollection:
    """Load a series collection from ``path`` in the declared ``format``.

    Raises FormatError on unparsable input, naming the first offending
    row/record or the cause, and ValidationError on duplicate ids, empty
    series or - under the reject policy - missing values.
    """
    if format not in _LOADERS:
        raise ValidationError(f"unknown format {format!r}; expected one of {', '.join(_LOADERS)}")
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    try:
        entries = _LOADERS[format](path, policy)
    except (UnicodeDecodeError, csv.Error, RecursionError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    return SeriesCollection(entries)


def _observed(s: Series) -> list:
    """The values of a series as floats, None at its missing positions."""
    missing = set(s.missing)
    return [None if i in missing else v for i, v in enumerate(s.values.tolist())]


def _cell(v, missing) -> str:
    # repr round-trips every finite double exactly
    return missing if v is None else repr(v)


def write_collection(c: SeriesCollection, path, format="long-csv") -> None:
    """Serialize a collection; every format round-trips exactly, the wide CSV
    marking a missing value ``nan``, as a blank trailing cell is padding, and
    starting with a byte-order mark when its first id starts with U+FEFF, as
    the loader skips one. The loaders strip each id, so an id that is empty
    or not stripped raises ValidationError before the file is opened."""
    if bad := [sid for sid in c.ids() if not sid or sid != sid.strip()]:
        raise ValidationError(f"series id {bad[0]!r} would not round-trip: it is empty or not stripped")
    if format == "long-csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series_id", "index", "value"])
            for s in c:
                for i, v in enumerate(_observed(s)):
                    writer.writerow([s.id, i + 1, _cell(v, "")])
    elif format == "wide-csv":
        columns = [_observed(s) for s in c]
        bom = len(c) > 0 and c.entries[0].id.startswith("\ufeff")
        with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(c.ids())
            for i in range(max((len(col) for col in columns), default=0)):
                writer.writerow([_cell(col[i], "nan") if i < len(col) else "" for col in columns])
    elif format == "json":
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({s.id: _observed(s) for s in c}, fh, indent=1)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown format {format!r}; expected one of {', '.join(_LOADERS)}")
